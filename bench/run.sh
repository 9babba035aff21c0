#!/usr/bin/env bash
# The benchmark's one command. Builds `pgt_bench` from source (offline,
# release, the repo's own `.cargo/config.toml` flags) and runs it from the
# repository root.
#
#   bench/run.sh                      all seven workloads: 3 timed runs and
#                                     1 traced run each, bench/out/results.json
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                     one run; its result object is the last
#                                     line printed
#   bench/run.sh --compare A.json B.json
#
# ST_NUM_THREADS, ST_PAR_THRESHOLD and ST_BACKEND are passed through as found
# and never set here: the program runs in its default configuration.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- "$@"
