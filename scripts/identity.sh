#!/usr/bin/env bash
# Simulation identity gate: does the working tree simulate exactly like
# revision REV?
#
# A refactor that claims "no behaviour change" must leave every seeded,
# simulated observable unchanged.  This script exports REV with
# `git archive` into a temporary directory (under $TMPDIR, default
# /tmp, removed on exit) and builds it there, builds the working tree
# in place, then on both:
#
#   1. runs every experiment at quick size and diffs the two metrics
#      directories file by file (sorted JSON registry snapshots), naming
#      the registry keys whose values differ in each file;
#   2. runs E11 at `--exp reintegration --quick --loss 0,0.25` (its loss
#      burst goes through the fault injector) and diffs that metrics
#      file the same way;
#   3. runs the E10 soak over seeds 1..SEEDS and compares the
#      [soak-fingerprint] lines (MD5 over every scenario's description,
#      violations and metrics snapshot minus the engine.* counters, in
#      seed order);
#   4. runs each benchmark workload once (bench/suite/suite.exe
#      --workload W --seed 1 --trace 1 --seconds 0) and diffs its
#      simulated per-layer metrics and connection counts, naming the
#      keys that differ.  Keys that read the host clock or the GC
#      (wall.*, gc.*, host.*_s, obs.snapshot_ms, apps.callback_s,
#      sim.events_per_wall_s, statex.*_us_per_conn,
#      packet.*_ns_per_frame, trace.overhead) are left out.
#
# Steps 1 to 3 use --jobs 2; the outputs are identical at any job
# count.  Failing soak seeds are not an error here: only a difference
# is.  The repository itself is not touched.
#
# Usage: scripts/identity.sh REV [SEEDS]      (SEEDS defaults to 3000)
# Exit status: 0 identical, 1 any difference, 2 usage or build error.
set -uo pipefail

cd "$(dirname "$0")/.."
. scripts/identity_lib.sh

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
# directories and soak fingerprint line under $scratch/NAME.
run_tree() {
  local name=$1 root=$2 out=$scratch/$1 exe
  mkdir -p "$out/metrics" "$out/loss"
  echo "identity: building $name ($root)" >&2
  dune build --root "$root" bench/main.exe bench/suite/suite.exe 2>&1 \
    || return 2
  exe=$root/_build/default/bench/main.exe
  echo "identity: $name: --exp all --quick" >&2
  "$exe" --exp all --quick --jobs 2 --metrics-dir "$out/metrics" \
    >"$out/all.log" 2>&1
  echo "identity: $name: --exp reintegration --quick --loss 0,0.25" >&2
  "$exe" --exp reintegration --quick --loss 0,0.25 --jobs 2 \
    --metrics-dir "$out/loss" >"$out/loss.log" 2>&1
  echo "identity: $name: --exp soak --seeds $seeds" >&2
  "$exe" --exp soak --seeds "$seeds" --jobs 2 >"$out/soak.log" 2>&1
  grep '^\[soak-fingerprint\]' "$out/soak.log" >"$out/fingerprint" || {
    echo "identity: $name printed no [soak-fingerprint] line" >&2
    return 2
  }
  for w in $workloads; do
    echo "identity: $name: workload $w" >&2
    "$root/_build/default/bench/suite/suite.exe" --workload "$w" --seed 1 \
      --trace 1 --seconds 0 >"$out/$w.log" 2>&1
    workload_keys "$out/$w.log" >"$out/$w.keys"
  done
}

workloads="rr-10k bulk-failover upload-reintegrate fleet-churn"

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
a=$scratch/rev/loss/reintegration.metrics.json
b=$scratch/work/loss/reintegration.metrics.json
if [ ! -f "$a" ] || [ ! -f "$b" ]; then
  echo "identity: --loss 0,0.25 metrics missing in $([ -f "$a" ] && echo work || echo "$rev")" >&2
  status=1
elif cmp -s "$a" "$b"; then
  echo "identity: --loss 0,0.25 metrics identical"
else
  echo "identity: --loss 0,0.25 metrics DIFFER: $(differing_keys "$a" "$b" | paste -sd ' ')" >&2
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
for w in $workloads; do
  a=$scratch/rev/$w.keys b=$scratch/work/$w.keys
  if [ ! -s "$a" ] || [ ! -s "$b" ]; then
    echo "identity: workload $w printed no result" >&2
    status=1
  elif cmp -s "$a" "$b"; then
    echo "identity: workload $w identical ($(wc -l <"$b") keys)"
  else
    echo "identity: workload $w DIFFERS: $(diff "$a" "$b" \
      | sed -n 's/^[<>] \([^ ]*\) .*/\1/p' | sort -u | paste -sd ' ')" >&2
    status=1
  fi
done
exit $status
