#!/usr/bin/env bash
# The correctness-analysis leg: build darkdns-lint, prove its rules
# still fire on the seeded-violation fixtures, then scan the workspace.
# Exits nonzero on any finding. See docs/INVARIANTS.md for the rule
# catalogue the linter enforces.
#
# The scan's L7 pass builds an annotated copy of the tree under
# target/l7/ (`cargo check` of the workspace and of rzu_bench/); it may
# write nowhere else, so both lockfiles must come out byte-identical.
#
# Usage:
#   scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release -p darkdns-lint"
cargo build --release -p darkdns-lint

echo "==> darkdns-lint self-test (fixtures)"
cargo test -q --release -p darkdns-lint

echo "==> darkdns-lint workspace scan"
locks_before=$(sha256sum Cargo.lock rzu_bench/Cargo.lock)
out=$(mktemp)
trap 'rm -f "$out"' EXIT
start=$(date +%s%N)
target/release/darkdns-lint . | tee "$out"
end=$(date +%s%N)
l7_ms=$(sed -n 's/^darkdns-lint: L7 pass took \([0-9]*\) ms.*/\1/p' "$out")
echo "lint: workspace scan took $(( (end - start) / 1000000 )) ms (L7 pass ${l7_ms} ms)"
if [ "$(sha256sum Cargo.lock rzu_bench/Cargo.lock)" != "$locks_before" ]; then
    echo "lint: the scan changed a lockfile" >&2
    exit 1
fi
