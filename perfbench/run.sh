#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload long_run --seed 7 --seconds 10 --trace 0
#   bash perfbench/run.sh --seed 2024 --out results.jsonl     # whole suite
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# The build honours CARGO_TARGET_DIR (default: perfbench/target); the
# program's scratch space sits beside the build, inside the checkout.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" "$@"
