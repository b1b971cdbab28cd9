#!/usr/bin/env bash
# Single entry point of the gating benchmark: builds the harness from
# source, then hands every argument to it (see README.md).
#
#   benchmark/run.sh                                   all six workloads -> benchmark/out/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
#   benchmark/run.sh --compare a.json b.json
#
# Run from the repository root. Nothing but the final result goes to
# stdout; the build log and the metric table go to stderr.
set -euo pipefail

manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest" >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/cbs-benchmark" "$@"
