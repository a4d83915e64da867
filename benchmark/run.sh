#!/usr/bin/env bash
# The one command of the PreDatA benchmark. Builds the harness (release,
# offline) and runs it; every argument is passed through:
#
#   benchmark/run.sh                                  # all five workloads
#   benchmark/run.sh --workload gtc_staged --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh --trace 1                        # traced runs + per-layer probes
#   benchmark/run.sh --workload query_open --repeat 10  # run-to-run spread
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- --out "$here/out" "$@"
