#!/bin/sh
# Non-test source lines per crate: for every `crates/<crate>/src/*.rs`
# (top level only: the bench bins and the workload kernels are not
# library code), the lines before the file's first `#[cfg(test)]`.
# ROADMAP aim 2 tracks `exec+cli+ckpt+core`; the `lint` CI job prints
# this so every PR shows where that sum went. `bench-bins` is every line
# under `crates/bench/src/bin/` except the `perf` package (the `repro`
# binary and its modules); `bench-total` adds the `bench` crate's own
# non-test lines, so code moved from a bin into the library does not
# read as a reduction. `oracles` is every line of the test-only
# reference implementations (`crates/<crate>/tests/oracles/*.rs`, e.g.
# the scan timing engine), so code moved out of a shipped crate into
# them reads as a move, not a deletion.
#
#   sh scripts/loc.sh [repo-root]
set -eu
cd "${1:-$(dirname -- "$0")/..}"

total=0
spine=0
bench=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ -d "$dir/src" ] || continue
    lines=$(for file in "$dir"src/*.rs; do
        awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file"
    done | awk '{ s += $1 } END { print s + 0 }')
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
    case $crate in
    exec | cli | ckpt | core) spine=$((spine + lines)) ;;
    bench) bench=$lines ;;
    esac
done
bins=$(find crates/bench/src/bin -path crates/bench/src/bin/perf -prune -o -name '*.rs' -print \
    | xargs cat | wc -l)
printf '%-10s %6d\n' "all" "$total"
printf '%-10s %6d\n' "exec+cli+ckpt+core" "$spine"
printf '%-10s %6d\n' "bench-bins" "$bins"
printf '%-10s %6d\n' "bench-total" "$((bins + bench))"
oracles=$(cat crates/*/tests/oracles/*.rs 2>/dev/null | wc -l)
printf '%-10s %6d\n' "oracles" "$oracles"
