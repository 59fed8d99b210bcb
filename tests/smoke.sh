#!/usr/bin/env bash
# The README's command-line block as processes, then the demos and the
# README's fenced python block.  Every command exits 0, and the script
# stops on any other code, except the closed pipe, the rank-3 gram file
# and the refused phase file, whose exit codes are tested.  No command
# may load scipy, which is no dependency of qpc; where scipy is not
# installed that check passes trivially.
#
# Run from anywhere: bash tests/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
qpc() { python -W error -m qpc "$@"; }

python -W error -c "import sys, qpc.cli; sys.exit(any(m.partition('.')[0] == 'scipy' for m in sys.modules))"
# import qpc alone loads neither numpy nor a module of the package: its
# names are imported on first use
python -W error -c "import sys, qpc; sys.exit(any(m.partition('.')[0] == 'numpy' or m.startswith('qpc.') for m in sys.modules))"
qpc gen --n 4 --seed 7 --out "$d/family.json"
qpc analyze "$d/family.json" --emit-gram "$d/gram.json" --emit-phase "$d/phase.json"
qpc analyze "$d/family.json" --format structured --out "$d/report.json"
qpc analyze "$d/family.json" --format structured > "$d/stdout.json"
cmp "$d/report.json" "$d/stdout.json"
# 34,220 triangles: analyze renders them in forked workers where two CPUs
# are usable, and must print the bytes it prints on one
qpc gen --n 60 --seed 7 --out "$d/family60.json"
cpu=$(python -c "import os; print(min(os.sched_getaffinity(0)))")
for format in text structured; do
  qpc analyze "$d/family60.json" --format "$format" --out "$d/every-cpu.$format"
  taskset -c "$cpu" python -W error -m qpc analyze "$d/family60.json" --format "$format" \
    > "$d/one-cpu.$format"
  cmp "$d/every-cpu.$format" "$d/one-cpu.$format"
done
# a reader that leaves early makes even a one-string output exit 2
status=0
qpc gen --n 100000 --seed 1 | head -c 100 > /dev/null || status=${PIPESTATUS[0]}
test "$status" = 2
qpc check "$d/gram.json"
qpc realize "$d/gram.json" --out "$d/certificate.json"
test -s "$d/certificate.json"
# the identity on three states has rank 3: check and realize both answer
# no, with exit 1, and realize says not_realizable
python -W error -c "import sys, numpy, qpc; qpc.save_text(sys.argv[1], qpc.matrix_to_json('gram', numpy.eye(3)))" "$d/rank3.json"
for command in check realize; do
  status=0
  qpc "$command" "$d/rank3.json" > "$d/rank3.$command" || status=$?
  test "$status" = 1
done
grep -qx "status: not_realizable" "$d/rank3.realize"
qpc realize "$d/phase.json" --restarts 32
# the README's refused phase file: a pair given in both orders exits 2
# with the one text of a repeated pair
one='{"re": 1.0, "im": 0.0}'
echo "{\"version\": 1, \"kind\": \"phase\", \"n\": 3, \"support\": [[0, 1], [1, 0]], \"entries\": [$one, $one]}" > "$d/repeat.json"
status=0
qpc realize "$d/repeat.json" 2> "$d/repeat.err" || status=$?
test "$status" = 2
test "$(cat "$d/repeat.err")" = "error: invalid phase matrix: pair (1, 0) is given twice"
# some OpenBLAS kernels call a damped system of this file's search singular
qpc realize tests/data/realize/singular-solve-4.json
python -W error -c "import sys, qpc.cli; sys.exit(qpc.cli.main(['realize', sys.argv[1]]) or any(m.partition('.')[0] == 'scipy' for m in sys.modules))" "$d/phase.json"
qpc verify --cases 100

python -W error demos/comparison_levels.py
python -W error demos/geometric_phase_triangle.py
python -W error demos/realizability_search.py
sed -n '/^```python$/,/^```$/{/^```/!p}' README.md | python -W error -
