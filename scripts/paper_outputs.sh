#!/usr/bin/env bash
# The paper binaries' outputs, byte for byte. Runs every binary in
# crates/bench/src/bin/ at its default seed, in a scratch directory,
# and compares the sha256 of each one's stdout, and of full_report's
# results/report-<seed>.json, with scripts/paper_outputs.sha256. The
# outputs are deterministic per seed, so any difference is a change in
# what the reproduction reports. About 2 minutes in release.
#
# Usage:
#   scripts/paper_outputs.sh           check against the committed digests
#   scripts/paper_outputs.sh --write   rewrite the digests (only in a change
#                                      that alters an output and says why)
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
digests=scripts/paper_outputs.sha256

cargo build --release -q -p darkdns-bench --bins

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    echo "==> $bin"
    (cd "$out" && "$root/target/release/$bin" >"$bin.stdout")
done

(cd "$out" && sha256sum -- *.stdout results/*.json) >"$out/digests"
if [[ "${1:-}" == "--write" ]]; then
    cp "$out/digests" "$root/$digests"
    echo "paper outputs: wrote $(wc -l <"$digests") digests to $digests"
elif diff -u "$root/$digests" "$out/digests"; then
    echo "paper outputs: $(wc -l <"$digests") outputs byte-identical"
else
    echo "paper outputs differ from $digests (lines above)" >&2
    exit 1
fi
