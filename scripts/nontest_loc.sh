#!/usr/bin/env bash
# Non-test Rust LOC by "PR 12's rule": every file under crates/*/src and
# shims/*/src, cut where its tests module starts — a column-0
# `#[cfg(test)]` whose next line is `mod tests` (an earlier
# `#[cfg(test)]`, on a test-only `mod reference;` or inside a doc
# comment, does not end the count); one row per crate and a total. The
# numbers CHANGES.md quotes for simplicity PRs come from here.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src shims/*/src; do
  n=$(find "$src" -name '*.rs' -exec awk '
    FNR == 1 && held { held = 0; n++ }
    held { held = 0; if ($0 ~ /^mod tests/) nextfile; n++ }
    /^#\[cfg\(test\)\]$/ { held = 1; next }
    { n++ }
    END { print n + 0 }' {} +)
  printf '%8d  %s\n' "$n" "$src"
  total=$((total + n))
done
printf '%8d  total\n' "$total"
