#!/usr/bin/env bash
# Build the failover benchmark from source and run one workload in its
# own process, from the root of a checkout:
#
#   bash bench/suite/run.sh --workload NAME --seed N --seconds S --trace 0|1 \
#     [--trace-out DIR]
#
# Workloads: rr-10k, bulk-failover, upload-reintegrate, fleet-churn.  The
# last line of stdout is the JSON result; the exit status is nonzero when
# any connection failed or the simulation did not repeat exactly.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the root of a tcpfo checkout (dune-project and lib/ are missing)" >&2
  exit 2
fi

# one single-domain process per workload, with the runtime's defaults;
# no shared dune cache, so the build writes only inside the checkout
unset OCAMLRUNPARAM
export DUNE_CACHE=disabled

if command -v dune >/dev/null 2>&1; then
  dune build --root . bench/suite/suite.exe >&2
else
  opam exec -- dune build --root . bench/suite/suite.exe >&2
fi
exec ./_build/default/bench/suite/suite.exe "$@"
