#!/usr/bin/env bash
# Non-test lines of code per crate: every `crates/<crate>/src/**/*.rs`,
# each file counted up to its first top-level `#[cfg(test)]` line (the
# inline unit-test module). Integration tests, benches and examples live
# outside `src/` and are not counted. Prints one `crate lines` row per
# crate and a total.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
  crate="$(basename "$dir")"
  lines="$(find "$dir/src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }')"
  printf '%-16s %6d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-16s %6d\n' total "$total"
