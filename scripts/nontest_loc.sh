#!/usr/bin/env bash
# Non-test Rust LOC by "PR 12's rule": every file under crates/*/src and
# shims/*/src, cut where its tests module starts. The rule is
# scripts/nontest.awk's, which prints each non-test line; this script
# counts them, one row per crate and a total. The numbers CHANGES.md
# quotes for simplicity PRs come from here.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src shims/*/src; do
  n=$(find "$src" -name '*.rs' -exec awk -f scripts/nontest.awk {} + | wc -l)
  printf '%8d  %s\n' "$n" "$src"
  total=$((total + n))
done
printf '%8d  total\n' "$total"
