#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's own
# bounds?  From the root of a checkout:
#
#   bash bench/suite/agree.sh [N] [SECONDS] [WORKLOAD...]
#
# Runs set A, then set B, each with seeds 1..N (default 5) for every
# workload (default all four), SECONDS (default BENCHMARK.json's
# run_seconds) per run, untraced.  Logs go to _build/bench-suite-agree/.
# For each (end-to-end metric, workload) pair it prints both medians,
# each set's spread (interquartile range over median, as
# statistics.quantiles gives it) and a verdict:
#
#   agree       the medians differ by no more than the metric's bound
#   unresolved  a set's spread exceeds the bound (setup_s excepted: its
#               spread is not gated, only its median)
#   DIFFER      the medians differ by more than the bound
#
# It also checks that every simulated-time metric repeats exactly, seed
# for seed, across the two sets.  Exit status 1 on DIFFER, on a
# simulated metric that did not repeat, or on a failed run.
set -euo pipefail

n=${1:-5}
secs=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
shift $(( $# < 2 ? $# : 2 ))
workloads=${*:-rr-10k bulk-failover upload-reintegrate fleet-churn}
out=_build/bench-suite-agree
mkdir -p "$out"

for set in a b; do
  for w in $workloads; do
    for seed in $(seq 1 "$n"); do
      echo "set $set: $w seed $seed" >&2
      bash bench/suite/run.sh --workload "$w" --seed "$seed" --seconds "$secs" \
        --trace 0 > "$out/$set-$w-$seed.out" || echo "run failed" >&2
    done
  done
done

python3 - "$out" "$n" $workloads <<'EOF'
import json, statistics, sys

out, n, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))
simulated = {"ms", "Mb/s"}  # units of the simulated-time metrics
bad = False

def result(s, w, seed):
    lines = open(f"{out}/{s}-{w}-{seed}.out").read().strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "failed": -1, "metrics": {}}

def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)

print(f"{'workload':20} {'metric':16} {'median A':>12} {'median B':>12} "
      f"{'change':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
for w in workloads:
    runs = {s: [result(s, w, seed) for seed in range(1, n + 1)] for s in "ab"}
    failed = [(s, seed) for s in "ab" for seed, r in enumerate(runs[s], 1)
              if not r["correct"] or r["failed"]]
    for s, seed in failed:
        print(f"FAILED run: set {s} {w} seed {seed}")
        bad = True
    if failed:
        continue
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in runs["a"]]
        b = [r["metrics"][name]["value"] for r in runs["b"]]
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma
        sa, sb = spread(a), spread(b)
        if abs(change) > bound:
            verdict = "DIFFER"
            bad = True
        elif name != "setup_s" and max(sa, sb) > bound:
            verdict = "unresolved"
        else:
            verdict = "agree"
        if m["unit"] in simulated and a != b:
            verdict += " (simulated metric did not repeat)"
            bad = True
        print(f"{w:20} {name:16} {ma:12.6g} {mb:12.6g} {change:+8.2%} "
              f"{sa:9.2%} {sb:9.2%} {bound:6.2f}  {verdict}")
sys.exit(1 if bad else 0)
EOF
