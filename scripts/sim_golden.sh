#!/usr/bin/env bash
# Simulation identity golden file: SIM_GOLDEN.txt is the committed record
# of what the simulator computes, so a change that moves the simulation
# has to update it in the same commit, and the move shows in review.
#
# The file holds, one figure per line:
#
#   1. the MD5 of each `--exp all --quick` metrics file, taken over its
#      flattened "key value" lines without the engine.* keys (those
#      count the engine's own structure, not what it simulates);
#   2. the same MD5 of E11's metrics file at
#      `--exp reintegration --quick --loss 0,0.25`, whose loss burst is
#      the fault injector's one caller outside the soak;
#   3. the [soak-fingerprint] of seeds 1-3000;
#   4. the simulated per-layer keys of each benchmark workload at
#      --seed 1 --seconds 1, with the host-clock and GC keys left out
#      exactly as scripts/identity.sh leaves them out.
#
# All of it is deterministic at any --jobs count and on any host.
# scripts/identity.sh stays the tool that compares two revisions and
# names the keys that differ.
#
# Usage: scripts/sim_golden.sh            compare the tree with the file
#        scripts/sim_golden.sh --write    regenerate the file
# Exit status: 0 identical (or written), 1 different, 2 usage or build
# error.
set -uo pipefail

cd "$(dirname "$0")/.."
. scripts/identity_lib.sh

golden=SIM_GOLDEN.txt
case ${1:-} in
  '') write=0 ;;
  --write) write=1 ;;
  *) echo "usage: scripts/sim_golden.sh [--write]" >&2; exit 2 ;;
esac

scratch=$(mktemp -d "${TMPDIR:-/tmp}/sim_golden.XXXXXX")
trap 'rm -rf "$scratch"' EXIT

dune build bench/main.exe bench/suite/suite.exe 2>&1 || exit 2
exe=_build/default/bench/main.exe
suite=_build/default/bench/suite/suite.exe

out=$scratch/golden
{
  echo "# Simulation identity golden file, written by scripts/sim_golden.sh --write"
  mkdir "$scratch/metrics"
  "$exe" --exp all --quick --jobs 2 --metrics-dir "$scratch/metrics" \
    >"$scratch/all.log" 2>&1 || { cat "$scratch/all.log" >&2; exit 2; }
  for f in "$scratch"/metrics/*.metrics.json; do
    sum=$(flat "$f" | grep -v '^engine\.' | md5sum | cut -d' ' -f1)
    echo "metrics $(basename "$f") $sum"
  done
  mkdir "$scratch/loss"
  "$exe" --exp reintegration --quick --loss 0,0.25 --jobs 2 \
    --metrics-dir "$scratch/loss" >"$scratch/loss.log" 2>&1 \
    || { cat "$scratch/loss.log" >&2; exit 2; }
  sum=$(flat "$scratch/loss/reintegration.metrics.json" | grep -v '^engine\.' \
    | md5sum | cut -d' ' -f1)
  echo "metrics reintegration.metrics.json --loss 0,0.25 $sum"
  "$exe" --exp soak --seeds 3000 --jobs 2 >"$scratch/soak.log" 2>&1
  grep '^\[soak-fingerprint\]' "$scratch/soak.log" | sed 's/^/soak /'
  for w in rr-10k bulk-failover upload-reintegrate fleet-churn; do
    "$suite" --workload "$w" --seed 1 --trace 1 --seconds 1 \
      >"$scratch/$w.log" 2>&1
    workload_keys "$scratch/$w.log" | sed "s/^/$w /"
  done
} >"$out" || exit 2

if [ "$write" = 1 ]; then
  cp "$out" "$golden"
  echo "sim_golden: wrote $golden ($(grep -vc '^#' "$golden") figures)"
elif diff -u "$golden" "$out"; then
  echo "sim_golden: identical to $golden ($(grep -vc '^#' "$golden") figures)"
else
  echo "sim_golden: the simulation moved; if that is intended, run" \
    "scripts/sim_golden.sh --write and commit $golden" >&2
  exit 1
fi
