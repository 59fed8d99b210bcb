"""One traced ``qpc`` command in a fresh interpreter (cli-cold, traced run).

Usage: python3 perfbench/child.py SPANS_OUT QPC_ARGS...

Times ``import qpc``, installs the span recorder, runs ``qpc.cli.main``
and writes the spans, counters and import time to SPANS_OUT.  Exits
with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import qpc  # noqa: F401
    import qpc.cli
    import_s = time.perf_counter() - t0
    from tracing import Recorder

    rec = Recorder()
    rec.install()
    try:
        rc = qpc.cli.main(argv)
    finally:
        rec.uninstall()
        with open(spans_out, "w", encoding="utf-8") as f:
            json.dump({"import_s": import_s, **rec.dump()}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
