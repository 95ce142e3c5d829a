#!/bin/bash
# Entry point of the benchmark contract (BENCHMARK.json's `command`):
# builds the ledger and the daemon it drives from this checkout's
# sources, then hands `--workload --seed --seconds --trace` to
# `ledger run`, whose last line of output is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
# No registry is reachable where this runs; the package's only foreign
# dependency is patched to the stand-in under stubs/.
CARGO_NET_OFFLINE=true cargo build --release --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/ledger" run "$@"
