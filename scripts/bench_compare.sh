#!/usr/bin/env bash
# Bench-baseline regression gate, used by the CI bench-smoke job.
#
# Compares a fresh smoke-run summary line (the [<exp>-summary] JSON the
# experiment prints) against the committed BENCH_<exp>.json baseline.
# The quick-size experiments are simulated and seeded, so their
# structural fields (connection counts, byte counts, event totals,
# completion flags) are byte-deterministic on any machine: those are
# gated EXACTLY against the baseline's "smoke" section.  Wall-clock
# derived numbers (events/s, RSS) are never gated here.
#
# Dependency-free (bash + grep/sed/awk, like check_style.sh) so it
# gives the same verdict on any machine.  Nonzero exit fails the job.
#
# Usage: scripts/bench_compare.sh <exp> <summary-file> [baseline-file]
#   exp ∈ reintegration | fleet
set -euo pipefail

cd "$(dirname "$0")/.."

exp=${1:?usage: bench_compare.sh <exp> <summary-file> [baseline-file]}
sum=${2:?usage: bench_compare.sh <exp> <summary-file> [baseline-file]}
baseline=${3:-BENCH_$exp.json}

[ -f "$sum" ] || { echo "bench-compare: summary file $sum missing" >&2; exit 1; }
[ -f "$baseline" ] || { echo "bench-compare: baseline $baseline missing" >&2; exit 1; }

fail=0
complain() {
  echo "bench-compare[$exp]: $1" >&2
  fail=1
}

# First numeric value of "key" in the baseline's "smoke" { ... } block.
smoke_num() {
  sed -n '/"smoke"/,/}/p' "$baseline" \
    | sed -n 's/.*"'"$1"'":[[:space:]]*\([0-9][0-9.]*\).*/\1/p' | head -1
}

# First numeric value of "key" on the first summary line.
sum_num() {
  head -1 "$sum" | grep -o "\"$1\":[0-9][0-9.]*" | head -1 | cut -d: -f2
}

require_flag() { # every summary line must carry e.g. "all_ok":true
  local n_lines n_flagged
  n_lines=$(grep -c . "$sum")
  n_flagged=$(grep -c "\"$1\":true" "$sum" || true)
  if [ "$n_lines" -ne "$n_flagged" ]; then
    complain "expected \"$1\":true on all $n_lines summary lines, found $n_flagged"
  fi
}

check_eq() { # check_eq <what> <got> <want>
  if [ -z "$2" ] || [ -z "$3" ]; then
    complain "$1: missing value (got='$2' want='$3')"
  elif [ "$2" != "$3" ]; then
    complain "$1: got $2, baseline expects $3"
  fi
}

case "$exp" in
  reintegration)
    require_flag all_ok
    probe=$(smoke_num probe_conns)
    # rows are fixed-order JSON objects; pull a field of the loss-0
    # probe-size row for each snapshot size
    row_field() { # row_field <mode> <field>
      grep -o "{\"loss\":0.00,\"conns\":$probe,\"mode\":\"$1\",[^}]*" "$sum" \
        | head -1 | grep -o "\"$2\":[0-9]*" | cut -d: -f2
    }
    fullb=$(row_field full transfer_bytes)
    deltab=$(row_field delta transfer_bytes)
    check_eq "full snapshot bytes @${probe} conns" "$fullb" "$(smoke_num full_transfer_bytes)"
    check_eq "delta snapshot bytes @${probe} conns" "$deltab" "$(smoke_num delta_transfer_bytes)"
    check_eq "full statex datagrams @${probe} conns" "$(row_field full datagrams)" "$(smoke_num full_datagrams)"
    check_eq "delta statex datagrams @${probe} conns" "$(row_field delta datagrams)" "$(smoke_num delta_datagrams)"
    floor=$(smoke_num min_delta_reduction)
    if [ -n "$fullb" ] && [ -n "$deltab" ] && [ -n "$floor" ]; then
      awk -v f="$fullb" -v d="$deltab" -v m="$floor" \
        'BEGIN { exit !(d > 0 && f / d >= m) }' \
        || complain "delta reduction $fullb/$deltab below the ${floor}x floor"
    fi
    ;;

  fleet)
    require_flag all_ok
    for key in completed resets refused unmatched isolation_drops events \
               snoop_ms stale_entries; do
      check_eq "smoke $key" "$(sum_num $key)" "$(smoke_num $key)"
    done
    ;;

  *)
    echo "bench-compare: unknown experiment '$exp'" >&2
    exit 1
    ;;
esac

if [ "$fail" -ne 0 ]; then
  echo "bench-compare[$exp]: FAILED against $baseline" >&2
  exit 1
fi
echo "bench-compare[$exp]: OK against $baseline"
