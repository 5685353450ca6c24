#!/usr/bin/env bash
# The one command of the benchmark. From the root of a checkout:
#
#   benchmark/run.sh [--seed N] [--smoke]
#       builds pool-bench, runs every workload (each in its own child
#       process, wide_tcp last), verifies every answer, prints every metric
#       by name with its unit and writes benchmark/out/results.json
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one pass; the last line of standard output is the
#       result object of the contract in BENCHMARK.json
#
# Compile time is not part of setup_s: the build happens here, before the
# program starts its clock.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "benchmark/run.sh: no workspace beside benchmark/ to build against" >&2
    exit 3
fi

# Build settings change speed without changing code: the benchmark must be
# built the way the workspace builds its release binaries.
release_profile() {
    awk '/^\[profile\.release\]/ { on = 1; next } /^\[/ { on = 0 } on && NF && !/^#/' "$1" | sort
}
if [ "$(release_profile Cargo.toml)" != "$(release_profile benchmark/Cargo.toml)" ]; then
    echo "benchmark/run.sh: [profile.release] of benchmark/Cargo.toml differs from the root manifest's" >&2
    exit 3
fi

# Sharing the workspace's target directory reuses its compiled crates; the
# benchmark driver points CARGO_TARGET_DIR somewhere of its own.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$target/release/pool-bench" run "$@"
    fi
done
exec "$target/release/pool-bench" all "$@"
