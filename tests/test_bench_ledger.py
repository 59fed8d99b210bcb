"""The ledger runner of bench/: the order of its runs, its failures, the
shape of its records and its probe, on python -c commands that take
milliseconds (and one qpc gen for the probe)."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ledger", Path(__file__).resolve().parent.parent / "bench" / "ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

# A kind's command: it appends its name to the log, prints its name (and,
# when asked to vary, the number of runs logged before it) and exits code.
CODE = """
import sys
name, log, code, vary = sys.argv[1:]
with open(log, "a+") as f:
    f.seek(0)
    before = len(f.read().split())
    f.write(name + " ")
print(name, before if vary == "vary" else "")
sys.exit(int(code))
"""

SHARED = {"argv", "wall_ms", "cpu_ms", "peak_rss_mb", "stdout_sha256", "loads", "workers"}


def measure(tmp_path, kinds, runs=2):
    """(exit code, ledger document, the log's names in order) of
    ledger.main on kinds, (name, exit code, vary, allowed codes) each."""
    log, out = tmp_path / "log", tmp_path / "ledger.json"

    def named(d, env, args):
        return {name: ([name, str(log), str(code), vary], codes)
                for name, code, vary, codes in kinds}

    status = ledger.main("test", ledger.parser("A test ledger.", 1, str(out)), named,
                         ["--runs", str(runs)], program=("-c", CODE))
    return status, json.loads(out.read_text()), log.read_text().split()


def test_round_r_runs_every_kind_once_in_order(tmp_path):
    kinds = [(name, 0, "", {0}) for name in ("b", "a", "c")]
    status, doc, log = measure(tmp_path, kinds, runs=3)
    assert status == 0 and doc["failures"] == []
    # three rounds, then one probe run of each kind, all in the kinds' order
    assert log == ["b", "a", "c"] * 4
    assert list(doc["kinds"]) == ["b", "a", "c"] and doc["runs"] == 3


def test_an_exit_code_outside_the_allowed_set_is_a_failure(tmp_path, capsys):
    kinds = [("ok", 0, "", {0}), ("allowed", 3, "", {0, 3}), ("bad", 3, "", {0})]
    status, doc, _ = measure(tmp_path, kinds)
    assert status == 1
    assert doc["failures"] == ["bad run 0 exited 3", "bad run 1 exited 3",
                               "bad probe exited 3"]
    assert "failure: bad run 0 exited 3" in capsys.readouterr().err


def test_a_kind_whose_runs_print_different_bytes_is_a_failure(tmp_path):
    status, doc, _ = measure(tmp_path, [("same", 0, "", {0}), ("vary", 0, "vary", {0})])
    assert status == 1
    assert doc["failures"] == ["vary printed 2 different outputs"]
    assert len(doc["kinds"]["vary"]["stdout_sha256"]) == 2
    assert len(doc["kinds"]["same"]["stdout_sha256"]) == 1


def test_every_record_has_the_shared_keys(tmp_path):
    _, doc, _ = measure(tmp_path, [("a", 0, "", {0}), ("b", 3, "", {0})])
    for record in doc["kinds"].values():
        assert set(record) == SHARED
        for times in (record["wall_ms"], record["cpu_ms"]):
            assert times["q1"] <= times["median"] <= times["q3"]
        assert set(record["loads"]) == {"numpy.random", "multiprocessing", "qpc"}
    assert doc["kinds"]["a"]["argv"][0] == "a"


def test_the_probe_of_gen_loads_no_pool_and_forks_nothing():
    code, loads, workers = ledger.probe(
        [sys.executable, "-m", "qpc", "gen", "--n", "4", "--seed", "7"], ledger.environment())
    assert code == 0 and workers == 0
    assert "qpc.pool" not in loads["qpc"]
    assert loads["qpc"] == ["qpc", "qpc.__main__", "qpc.cli", "qpc.files", "qpc.states"]
    assert loads["numpy.random"] and not loads["multiprocessing"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_the_probe_counts_forks():
    fork_once = "import os, sys\nif os.fork() == 0:\n    os._exit(0)\nos.wait()\nsys.exit(4)"
    code, loads, workers = ledger.probe([sys.executable, "-c", fork_once],
                                        ledger.environment())
    assert (code, workers, loads["qpc"]) == (4, 1, [])
