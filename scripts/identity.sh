#!/usr/bin/env bash
# Simulation identity gate: does the working tree simulate exactly like
# revision REV?
#
# A refactor that claims "no behaviour change" must leave every seeded,
# simulated observable unchanged.  This script builds REV in a temporary
# git worktree and the working tree in place, then on both:
#
#   1. runs every experiment at quick size and diffs the two metrics
#      directories file by file (sorted JSON registry snapshots);
#   2. runs the E10 soak over seeds 1..SEEDS and compares the
#      [soak-fingerprint] lines (MD5 over every scenario's description,
#      violations and metrics snapshot, in seed order).
#
# Both runs use --jobs 2; the outputs are identical at any job count.
# Failing soak seeds are not an error here: only a difference is.  The
# temporary worktree (under $TMPDIR, default /tmp) is removed on exit.
#
# Usage: scripts/identity.sh REV [SEEDS]      (SEEDS defaults to 3000)
# Exit status: 0 identical, 1 any difference, 2 usage or build error.
set -uo pipefail

cd "$(dirname "$0")/.."

rev=${1:?usage: identity.sh REV [SEEDS]}
seeds=${2:-3000}
case $seeds in
  '' | *[!0-9]*) echo "identity: SEEDS must be a number" >&2; exit 2 ;;
esac
sha=$(git rev-parse --verify --quiet "$rev^{commit}") || {
  echo "identity: unknown revision $rev" >&2
  exit 2
}

scratch=$(mktemp -d "${TMPDIR:-/tmp}/identity.XXXXXX")
wt=$scratch/rev
cleanup() {
  git worktree remove --force "$wt" >/dev/null 2>&1
  git worktree prune
  rm -rf "$scratch"
}
trap cleanup EXIT

git worktree add --detach --quiet "$wt" "$sha" || exit 2

# run_tree NAME ROOT: build ROOT's bench and leave its quick metrics
# directory and soak fingerprint line under $scratch/NAME.
run_tree() {
  local name=$1 root=$2 out=$scratch/$1 exe
  mkdir -p "$out/metrics"
  echo "identity: building $name ($root)" >&2
  dune build --root "$root" bench/main.exe 2>&1 || return 2
  exe=$root/_build/default/bench/main.exe
  echo "identity: $name: --exp all --quick" >&2
  "$exe" --exp all --quick --jobs 2 --metrics-dir "$out/metrics" \
    >"$out/all.log" 2>&1
  echo "identity: $name: --exp soak --seeds $seeds" >&2
  "$exe" --exp soak --seeds "$seeds" --jobs 2 >"$out/soak.log" 2>&1
  grep '^\[soak-fingerprint\]' "$out/soak.log" >"$out/fingerprint" || {
    echo "identity: $name printed no [soak-fingerprint] line" >&2
    return 2
  }
}

run_tree rev "$wt" || exit 2
run_tree work "$PWD" || exit 2

status=0
if diff -r "$scratch/rev/metrics" "$scratch/work/metrics" >/dev/null; then
  echo "identity: metrics files identical ($(ls "$scratch/work/metrics" | wc -l) files)"
else
  echo "identity: metrics DIFFER:" >&2
  diff -rq "$scratch/rev/metrics" "$scratch/work/metrics" >&2
  status=1
fi
if cmp -s "$scratch/rev/fingerprint" "$scratch/work/fingerprint"; then
  echo "identity: soak fingerprint identical: $(cat "$scratch/work/fingerprint")"
else
  echo "identity: soak fingerprint DIFFERS:" >&2
  echo "  $rev:  $(cat "$scratch/rev/fingerprint")" >&2
  echo "  work: $(cat "$scratch/work/fingerprint")" >&2
  status=1
fi
exit $status
