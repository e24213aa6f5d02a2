#!/usr/bin/env bash
# Builds the benchmark from source (release profile) and runs it with the
# given arguments:
#
#   bash perfbench/run.sh --workload <nl_cold|nl_session|sql_mix> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); durable directories and span traces go to
# .bench_out. See perfbench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
