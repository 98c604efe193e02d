#!/usr/bin/env bash
# Non-test Rust lines: every line of the `.rs` files under `crates/*/src` and
# `src` (the `crates/shims` stand-ins excluded) above each file's first
# `#[cfg(test)]`. Prints one line per crate, then the total.
#
#   scripts/lines.sh [CHECKOUT]    (default: the repository this script is in)
set -euo pipefail

root=${1:-"$(dirname "$0")/.."}
cd "$root"

count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { testing = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { testing = 1 }
        !testing { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
    case "$dir" in crates/shims/*) continue ;; esac
    n=$(count "$dir")
    total=$((total + n))
    name=${dir%/src}
    printf '%-20s %6d\n' "${name#crates/}" "$n"
done
printf '%-20s %6d\n' total "$total"
