#!/usr/bin/env bash
# A/A: two full sets of the same build back to back. Exits non-zero when an
# end-to-end metric differs by more than its bound, or a work counter or a
# deterministic metric differs at all. Extra flags go to the benchmark
# (e.g. ./aa.sh --seed 3, ./aa.sh --smoke).
set -euo pipefail
cd "$(dirname "$0")"
exec cargo run --release --quiet --manifest-path Cargo.toml -- aa "$@"
