#!/usr/bin/env bash
# Builds the `tsss` server binary and the servebench client from source, then
# runs one benchmark workload. Run from the repository root:
#
#   bash servebench/run.sh --workload select --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "servebench: no tsss workspace at $root; run from a full checkout" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin tsss >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/servebench" \
    --tsss "$target/release/tsss" \
    --state-dir "$target/servebench" \
    "$@"
