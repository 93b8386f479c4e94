#!/usr/bin/env bash
# Simulation identity gate: does the working tree simulate exactly like
# revision REV?
#
# A refactor that claims "no behaviour change" must leave every seeded,
# simulated observable unchanged.  This script builds REV in a temporary
# git worktree and the working tree in place, then on both:
#
#   1. runs every experiment at quick size and diffs the two metrics
#      directories file by file (sorted JSON registry snapshots), naming
#      the registry keys whose values differ in each file;
#   2. runs the E10 soak over seeds 1..SEEDS and compares the
#      [soak-fingerprint] lines (MD5 over every scenario's description,
#      violations and metrics snapshot minus the engine.* counters, in
#      seed order).
#
# Both runs use --jobs 2; the outputs are identical at any job count.
# Failing soak seeds are not an error here: only a difference is.  REV
# is exported with `git archive` into a temporary directory (under
# $TMPDIR, default /tmp), removed on exit; the repository itself is not
# touched.
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
trap 'rm -rf "$scratch"' EXIT

mkdir "$wt" && git archive "$sha" | tar -x -C "$wt" || exit 2

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

# flat FILE: one "key value" line per number in a registry snapshot,
# keyed by instrument name (the counters/gauges/histograms group
# dropped; a histogram's fields are suffixed, e.g. "x.rtt_us.p50").
flat() {
  sed 's/{/{\n/g; s/,/\n/g; s/}/\n}\n/g' "$1" | awk -F'":' '
    /^"/ && /{$/ { path[++n] = substr($1, 2); next }
    /^"/ {
      p = ""
      for (i = 2; i <= n; i++) p = p path[i] "."
      print p substr($1, 2), $2
      next
    }
    /^}/ { n-- }'
}

# differing_keys A B: the keys whose values differ between two snapshots
# (or that only one of them has), one per line.
differing_keys() {
  diff <(flat "$1") <(flat "$2") | sed -n 's/^[<>] \([^ ]*\) .*/\1/p' \
    | sort -u
}

run_tree rev "$wt" || exit 2
run_tree work "$PWD" || exit 2

status=0
if diff -r "$scratch/rev/metrics" "$scratch/work/metrics" >/dev/null; then
  echo "identity: metrics files identical ($(ls "$scratch/work/metrics" | wc -l) files)"
else
  echo "identity: metrics DIFFER:" >&2
  : >"$scratch/keys"
  for f in $( (ls "$scratch/rev/metrics"; ls "$scratch/work/metrics") | sort -u); do
    a=$scratch/rev/metrics/$f b=$scratch/work/metrics/$f
    if [ ! -f "$a" ] || [ ! -f "$b" ]; then
      echo "  $f: only in $([ -f "$a" ] && echo "$rev" || echo work)" >&2
    elif ! cmp -s "$a" "$b"; then
      differing_keys "$a" "$b" | tee -a "$scratch/keys" >"$scratch/file_keys"
      echo "  $f: $(paste -sd ' ' "$scratch/file_keys")" >&2
    fi
  done
  echo "identity: keys that differ in any file: $(sort -u "$scratch/keys" | paste -sd ' ')" >&2
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
