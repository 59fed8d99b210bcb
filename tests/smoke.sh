#!/usr/bin/env bash
# The README's command-line block as processes, then the demos and the
# README's fenced python block.  Every command exits 0, and the script
# stops on any other code, except the closed pipe, whose exit code is
# tested.  No command may load scipy, which is no dependency of qpc; where
# scipy is not installed that check passes trivially.
#
# Run from anywhere: bash tests/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
qpc() { python -W error -m qpc "$@"; }

python -W error -c "import sys, qpc.cli; sys.exit(any(m.partition('.')[0] == 'scipy' for m in sys.modules))"
qpc gen --n 4 --seed 7 --out "$d/family.json"
qpc analyze "$d/family.json" --emit-gram "$d/gram.json" --emit-phase "$d/phase.json"
qpc analyze "$d/family.json" --format structured --out "$d/report.json"
qpc analyze "$d/family.json" --format structured > "$d/stdout.json"
cmp "$d/report.json" "$d/stdout.json"
# a reader that leaves early makes even a one-string output exit 2
status=0
qpc gen --n 100000 --seed 1 | head -c 100 > /dev/null || status=${PIPESTATUS[0]}
test "$status" = 2
qpc check "$d/gram.json"
qpc realize "$d/gram.json" --out "$d/certificate.json"
test -s "$d/certificate.json"
qpc realize "$d/phase.json" --restarts 32
python -W error -c "import sys, qpc.cli; sys.exit(qpc.cli.main(['realize', sys.argv[1]]) or any(m.partition('.')[0] == 'scipy' for m in sys.modules))" "$d/phase.json"
qpc verify --cases 100

python -W error demos/comparison_levels.py
python -W error demos/geometric_phase_triangle.py
python -W error demos/realizability_search.py
sed -n '/^```python$/,/^```$/{/^```/!p}' README.md | python -W error -
