#!/usr/bin/env bash
# Build everything, run the test suite, regenerate every paper figure
# from its manifest, run the benches, and extract every CSV series.
#
# Usage: scripts/run_all.sh [length-scale]
#   length-scale: default 0.5, the published tables. Each figure
#                 manifest runs at its own sweep.length_scale times
#                 length-scale / 0.5 (most manifests publish at 0.5; the
#                 CMP figures at shorter lengths), and SST_BENCH_SCALE
#                 for the benches is length-scale / 0.5. Use e.g. 0.1
#                 for a quick pass.
#
# Writes test_output.txt, results/<figure>.{cfg,json,txt},
# bench_output.txt, and results/<tag>.csv for every BEGIN_CSV block
# that a figure or a bench prints.
set -euo pipefail
cd "$(dirname "$0")/.."

LENGTH="${1:-0.5}"

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt

SCALE=$(python3 -c "print($LENGTH / 0.5)")
for manifest in examples/figures/*.cfg; do
    published=$(sed -n 's/^sweep\.length_scale *= *//p' "$manifest")
    scripts/run_figure.sh build/tools/sstsim "$manifest" \
        "$(python3 -c "print($published * $SCALE)")" results
    cat "results/$(basename "$manifest" .cfg).txt"
done

: > bench_output.txt
for b in build/bench/bench_*; do
    echo ">>> $(basename "$b")" | tee -a bench_output.txt
    SST_BENCH_SCALE="$SCALE" "$b" 2>&1 | tee -a bench_output.txt
done
# Every bench's BEGIN_CSV <tag> ... END_CSV <tag> block -> results/<tag>.csv
awk '/^BEGIN_CSV / { out = "results/" $2 ".csv"; printf "" > out; next }
     /^END_CSV /   { close(out); out = ""; next }
     out != ""     { print > out }' bench_output.txt
echo "done: test_output.txt, results/, bench_output.txt"
