#!/bin/sh
# Builds `smarts`, `smarts-server` and `perf` in release (only when a
# binary is missing or older than the newest source file), then runs
# `perf` with the given arguments from the repository root.
#
#   sh crates/bench/src/bin/perf/run.sh --seed 7             # full set
#   sh crates/bench/src/bin/perf/run.sh --smoke
#   sh crates/bench/src/bin/perf/run.sh --check-repeat
#   sh crates/bench/src/bin/perf/run.sh --workload cold_sample \
#        --seed 7 --seconds 15 --trace 0                      # one run
#
# Everything the run writes (binaries, stores, the server's store
# directory and port file, traces) lands under the cargo target
# directory: $CARGO_TARGET_DIR if set, else ./target.
set -eu

here=$(CDPATH='' cd -- "$(dirname -- "$0")" && pwd)
root=$(CDPATH='' cd -- "$here/../../../../.." && pwd)
cd "$root"

# Without the repository around it there is nothing to measure.
for needed in Cargo.toml crates/cli/Cargo.toml crates/server/Cargo.toml; do
    if [ ! -f "$needed" ]; then
        echo "run.sh: $root/$needed is missing: perf benchmarks the repository it sits in" >&2
        exit 2
    fi
done

target=${CARGO_TARGET_DIR:-target}
bin=$target/release

stale=0
for binary in smarts smarts-server perf; do
    if [ ! -x "$bin/$binary" ]; then
        stale=1
    elif [ -n "$(find Cargo.toml Cargo.lock crates src \
            \( -name '*.rs' -o -name 'Cargo.toml' -o -name 'Cargo.lock' \) \
            -newer "$bin/$binary" -print | head -n 1)" ]; then
        stale=1
    fi
done

if [ "$stale" = 1 ]; then
    # Build output goes to stderr; stdout carries only perf's report.
    cargo build --release --offline -p smarts-cli -p smarts-server >&2
    cargo build --release --offline --manifest-path "$here/Cargo.toml" \
        --target-dir "$target" >&2
    # cargo leaves an up-to-date binary's mtime alone; mark all three
    # as checked against the current sources.
    touch "$bin/smarts" "$bin/smarts-server" "$bin/perf"
fi

exec "$bin/perf" "$@"
