#!/bin/sh
# Check the text trace log `sstsim ... trace=true` prints to stderr: an
# SST run must log its speculation lifecycle (trigger, defer, replay and
# commit lines) and an in-order run its instruction fetches.
#
# Usage: scripts/trace_text_check.sh SSTSIM
set -u
sstsim=$1
run="workload=hash_join length_scale=0.02 trace=true"

# want PRESET KIND...: every KIND appears as the kind field of a line.
want() {
    preset=$1
    shift
    log=$("$sstsim" preset="$preset" $run 2>&1 >/dev/null) || {
        echo "sstsim preset=$preset failed"
        exit 1
    }
    for kind in "$@"; do
        printf '%s\n' "$log" | grep -q "^C[0-9]* [a-z]* $kind pc=" || {
            echo "preset=$preset: no '$kind' line in the trace log"
            exit 1
        }
    done
}

want sst2 trigger defer replay commit
want inorder fetch
echo "trace text log ok"
