#!/bin/sh
# Run a command, then print "exit=<status>" after its output.
#
# Usage: scripts/expect_exit.sh COMMAND [ARG...]
#
# ctest's PASS_REGULAR_EXPRESSION ignores a test's exit status; a CLI
# test that must fail with a given code and message matches both, e.g.
# "did you mean 'gshare'.*exit=64" (a CMake regex '.' also matches a
# newline).
"$@"
echo "exit=$?"
