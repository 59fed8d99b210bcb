"""Short runs of every workload, checked against BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench/tests
Each workload runs one round with tracing off and one with it on
(about a minute in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert _units("end_to_end") == run.UNITS
    assert _units("per_layer") == tracing.metric_units()
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_short_run_prints_every_metric_and_fails_nothing(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    details = json.loads(lines[-2])["details"]
    if trace:
        assert details["missing_hooks"] == []
        assert details["self_share_sum"] <= 1.0 + 1e-9
    else:
        # fail_ratio = failed / attempted is 0 at this commit
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
        assert details["op_tail"]["samples"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = _bench(str(tmp_path), "cli-cold", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
