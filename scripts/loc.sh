#!/usr/bin/env bash
# Per-crate line counts of crates/*/src/**/*.rs, split into non-test
# and test lines: each file is cut at its unit-test module — the first
# column-0 `#[cfg(test)]` / `#[cfg(all(test, ...))]` line directly
# followed by a `mod` line — and everything from there on counts as
# test. (A `#[cfg(test)]` hook inside an impl block is not a cut: the
# production code after it still counts as production.) Blank lines and
# comments count; this is `wc -l`, split. Run it on two checkouts to get
# the "lines removed" figure a simplicity PR quotes in CHANGES.md.
#
# Usage:
#   scripts/loc.sh [repo-root]      # default: the checkout this script is in
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

printf '%-10s %9s %9s\n' crate non-test test
total_code=0
total_test=0
for crate in crates/*/; do
    name=$(basename "$crate")
    read -r code test < <(
        find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
            FNR == 1 { in_test = 0; pending = 0 }
            in_test { test++; next }
            pending && /^mod / { in_test = 1; test += 2; code--; pending = 0; next }
            { pending = ($0 ~ /^#\[cfg\((all\()?test/); code++ }
            END { print code + 0, test + 0 }
        '
    )
    printf '%-10s %9d %9d\n' "$name" "$code" "$test"
    total_code=$((total_code + code))
    total_test=$((total_test + test))
done
printf '%-10s %9d %9d\n' TOTAL "$total_code" "$total_test"
