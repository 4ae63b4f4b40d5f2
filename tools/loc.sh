#!/usr/bin/env bash
# Non-test Rust lines per crate and vendored crate.
#
#   tools/loc.sh [repo-root]
#
# For every crates/*/ and vendor/*/, counts the lines of each src/**/*.rs
# file that come before its first column-0 `#[cfg(test)]` (the unit-test
# module). tests/, benches/ and examples/ are not counted. Prints one row per
# crate, a total per directory and a grand total. Pass another checkout's
# root (default: the current directory) to count a different commit.
set -euo pipefail

if [ $# -gt 1 ]; then
    sed -n '2,10p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
root=${1:-.}

grand=0
for dir in crates vendor; do
    sum=0
    for crate in "$root/$dir"/*/; do
        [ -d "$crate/src" ] || continue
        n=$(find "$crate/src" -name '*.rs' -exec awk '
                FNR == 1 { in_tests = 0 }
                /^#\[cfg\(test\)\]/ { in_tests = 1 }
                !in_tests { n++ }
                END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
        printf '%-24s %7d\n' "$dir/$(basename "$crate")" "$n"
        sum=$((sum + n))
    done
    printf '%-24s %7d\n' "$dir total" "$sum"
    grand=$((grand + sum))
done
printf '%-24s %7d\n' "total" "$grand"
