#!/usr/bin/env bash
# Builds the benchmark if needed and runs one workload in its own process.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh NAME --seed N [--traced] [--trace-out FILE] [--smoke]
#
# NAME is one of ingest-tcp, alg-insert, gen-mixed, serve-publish. The last
# line of standard output is one JSON object with the verdict and every
# metric by name; see benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/dspgemm-benchmark" "$@"
