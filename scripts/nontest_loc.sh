#!/usr/bin/env bash
# Non-test Rust LOC by "PR 12's rule": every file under crates/*/src and
# shims/*/src, cut at its first `#[cfg(test)]`; one row per crate and a
# total. The numbers CHANGES.md quotes for simplicity PRs come from here.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src shims/*/src; do
  n=$(find "$src" -name '*.rs' -exec \
    awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} +)
  printf '%8d  %s\n' "$n" "$src"
  total=$((total + n))
done
printf '%8d  total\n' "$total"
