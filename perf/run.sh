#!/usr/bin/env bash
# Builds the benchmark, runs one full set and one traced set, and writes both
# into perf/out/<timestamp>-<nproc>c.json. Usage: perf/run.sh [seed]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
seed="${1:-1}"
out="$here/out/$(date -u +%Y%m%dT%H%M%SZ)-$(nproc)c.json"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
perf="${CARGO_TARGET_DIR:-$here/target}/release/perf"
"$perf" run --seed "$seed" --out "$out"
"$perf" run --seed "$seed" --trace --out "$out"
echo "result file: $out   traces: $here/out/trace-<workload>.json"
