#!/usr/bin/env bash
# Test-count drift gate, used by CI next to `dune runtest`.
#
# The tier-1 suite is one aggregated alcotest runner, so its final
# "N tests run" line is the census of every registered case.  A suite
# that silently stops being linked in (a dune `modules` list edit, a
# forgotten `suite` registration) shrinks N without failing anything —
# this gate turns that silent shrink into a hard CI failure.
#
# EXPECTED is updated deliberately, in the same commit that adds or
# removes test cases (CHANGES.md tracks the running count by hand).
#
# Usage:
#   scripts/check_test_count.sh            # runs the suite itself
#   scripts/check_test_count.sh FILE      # parses an existing runtest log
set -euo pipefail

cd "$(dirname "$0")/.."

EXPECTED=338

if [ $# -ge 1 ]; then
  log=$(cat "$1")
else
  log=$(dune exec test/test_main.exe 2>&1 | tail -20)
fi

count=$(printf '%s\n' "$log" | sed -n 's/.*[^0-9]\([0-9][0-9]*\) tests run.*/\1/p' | tail -1)

if [ -z "$count" ]; then
  echo "test-count: no 'N tests run' line found (did the suite crash?)" >&2
  exit 1
fi

if [ "$count" -ne "$EXPECTED" ]; then
  echo "test-count: FAILED — suite ran $count cases, expected $EXPECTED" >&2
  echo "test-count: if cases were added/removed on purpose, update" >&2
  echo "test-count: EXPECTED in scripts/check_test_count.sh (and CHANGES.md)" >&2
  exit 1
fi

echo "test-count: OK ($count cases)"
