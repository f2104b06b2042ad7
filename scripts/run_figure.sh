#!/bin/sh
# Run one figure manifest end to end at a given length: a copy of the
# manifest with sweep.length_scale rewritten, `sstsim sweep --verify`
# (every job checked against the golden executor) and
# scripts/figures.py on the sweep's JSON.
#
# Usage: scripts/run_figure.sh SSTSIM MANIFEST LENGTH_SCALE OUTDIR \
#            [SWEEP_ARGS...]
#   SWEEP_ARGS go to `sstsim sweep` as given (e.g. `-j 2`); without
#   them the sweep uses its default worker count.
#
# Leaves OUTDIR/<name>.cfg, .json and .txt (the rendered figure), and
# OUTDIR/<tag>.csv for a figure that prints a BEGIN_CSV block.
set -eu
sstsim=$1
manifest=$2
scale=$3
out=$4
shift 4
name=$(basename "$manifest" .cfg)
mkdir -p "$out"
sed "s/^sweep\.length_scale *=.*/sweep.length_scale = $scale/" \
    "$manifest" > "$out/$name.cfg"
grep -q "^sweep\.length_scale = $scale\$" "$out/$name.cfg"
"$sstsim" sweep "$out/$name.cfg" "$@" --verify --quiet \
    --json "$out/$name.json"
python3 "$(dirname "$0")/figures.py" "$out/$name.json" --csv-dir "$out" \
    > "$out/$name.txt"
