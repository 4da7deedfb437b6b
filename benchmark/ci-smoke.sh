#!/usr/bin/env bash
# The benchmark's own tests, then one small instance per workload (one
# repetition and one traced repetition each, same names and checks as the
# full run; under 30 s once built). A CI job needs one line:
#   run: benchmark/ci-smoke.sh
set -euo pipefail
cd "$(dirname "$0")"
cargo test --offline --manifest-path Cargo.toml
exec cargo run --release --offline --quiet --manifest-path Cargo.toml -- run --smoke "$@"
