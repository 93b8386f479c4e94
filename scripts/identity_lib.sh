# Shared by scripts/identity.sh and scripts/sim_golden.sh (sourced, not
# run): how a run's simulated figures are read out of its output.

# workload_keys LOG: one "key value" line per simulated figure in a
# workload's JSON result (its last line): the connection counts and
# every per-layer metric but those read from the host clock or the GC.
workload_keys() {
  tail -n 1 "$1" \
    | grep -o '"[^"]*": \({"value": \)\?[^,{}]*' \
    | sed 's/^"\([^"]*\)": \({"value": \)\?/\1 /' \
    | grep -Ev '^(metrics |unit |wall\.|gc\.|host\.[^ ]*_s |obs\.snapshot_ms |apps\.callback_s |sim\.events_per_wall_s |statex\.[^ ]*_us_per_conn |packet\.[^ ]*_ns_per_frame |trace\.overhead )'
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
