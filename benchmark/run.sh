#!/usr/bin/env bash
# The one-line entry BENCHMARK.json names: build (offline) and run.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Outputs go beside this script, whatever directory the binary was compiled in.
export IPREGEL_BENCH_OUT="$here/out"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
