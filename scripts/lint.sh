#!/usr/bin/env bash
# The correctness-analysis leg: build darkdns-lint, prove its rules
# still fire on the seeded-violation fixtures, then scan the workspace.
# Exits nonzero on any finding. See docs/INVARIANTS.md for the rule
# catalogue the linter enforces.
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
start=$(date +%s%N)
target/release/darkdns-lint .
end=$(date +%s%N)
echo "lint: workspace scan took $(( (end - start) / 1000000 )) ms"
