#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it. Arguments are those of
# the benchmark binary (benchmark/USAGE.txt), which alone parses them: it
# refuses unknown ones, and answers --help, before anything runs. Run from
# anywhere in a checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-target/benchmark-build}"
build() {
    CARGO_TARGET_DIR="$1" cargo build --quiet --release --offline \
        --manifest-path benchmark/Cargo.toml "${@:2}" >&2
}
build "$target"

# A traced run also measures what compiling the simulator stack's telemetry
# in (no sink installed) costs: a second build of the same sources, made only
# for the run that executes it.
telemetry=()
previous=
for arg in "$@"; do
    if [ "$previous" = --trace ] && [ "$arg" = 1 ]; then
        build "$target/telemetry" --features telemetry
        telemetry=(--telemetry-bin "$target/telemetry/release/pstore-benchmark")
    fi
    previous=$arg
done

exec "$target/release/pstore-benchmark" ${telemetry[@]+"${telemetry[@]}"} "$@"
