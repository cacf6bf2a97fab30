#!/usr/bin/env bash
# Builds warp-perf (offline, release) and runs it with the given arguments.
#
#   bench/run.sh                      every workload -> bench/out/result.json
#   bench/run.sh --smoke              the same at 1/20 size, one repetition
#   bench/run.sh --only edit --seed 2 --out /tmp/edit.json
#   bench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
#   bench/run.sh --compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-bench/target}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/warp-perf" "$@"
