#!/usr/bin/env bash
# Build the ledger benchmark, unless a binary built from exactly these
# sources exists, then run it with the given arguments. Run from the
# repository root.
#
# Every source the binary is built from is hashed by content, and the
# build goes to a target directory named after the hash. A binary there
# was built from these bytes, whatever the file times say, and checkouts
# that share `$CARGO_TARGET_DIR` never measure each other's build. When
# the binary exists, cargo is not run at all: outside a git checkout the
# xdata-obs build script watches a `.git/HEAD` that does not exist, so
# every `cargo build` there would recompile the whole workspace.
#
# The hash is compiled into the binary as well, and the binary refuses to
# run when it differs from the one this script computed.
set -euo pipefail
sources=(Cargo.toml ledger/Cargo.toml ledger/Cargo.lock ledger/src crates examples)
hash="$(find "${sources[@]}" -name target -prune -o -type f -print0 \
    | LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
export LEDGER_SOURCE_HASH="$hash"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-ledger/target}/ledger-$hash"
bin="$CARGO_TARGET_DIR/release/ledger"
if [ ! -x "$bin" ]; then
    cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml
fi
exec "$bin" "$@"
