#!/usr/bin/env bash
# Sanitizer sweep for the concurrency-bearing code paths. Run from the
# repository root:
#
#   scripts/sanitizers.sh            # thread + address sanitizers
#   scripts/sanitizers.sh thread     # one sanitizer only
#
# ThreadSanitizer exercises the real thread interleavings of the sweep's
# scoped parallel map and the fault-injected parallel sweeps built on it —
# the only threads in the tree. AddressSanitizer covers the same targets
# for memory errors that miri cannot reach once real threads are involved.
#
# Requirements (both checked; the script SKIPS cleanly when absent, like
# the miri step of static_analysis.sh, so offline toolchains still pass):
#   * a nightly toolchain (`-Zsanitizer` / `-Zbuild-std` are unstable);
#   * the nightly `rust-src` component (std must be rebuilt instrumented).

set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZERS=("${@:-thread}")
if [[ $# -eq 0 ]]; then
    SANITIZERS=(thread address)
fi

step() {
    echo
    echo "==> $*"
}

if ! cargo +nightly --version > /dev/null 2>&1; then
    step "sanitizers: skipped (no nightly toolchain installed)"
    exit 0
fi
SYSROOT="$(rustc +nightly --print sysroot)"
if [[ ! -d "$SYSROOT/lib/rustlib/src/rust/library" ]]; then
    step "sanitizers: skipped (nightly rust-src component not installed)"
    exit 0
fi
HOST="$(rustc +nightly -vV | sed -n 's/^host: //p')"

# The sanitizer-instrumented targets. Each entry is "<cargo args>": the
# sweep's parallel map with its fault-injected suite (pstore-bench holds
# every thread the sweep spawns). The engine in pstore-dbms and the
# telemetry crate are single-threaded; miri covers them.
TARGETS=(
    "-p pstore-bench --lib"
)

for SAN in "${SANITIZERS[@]}"; do
    for T in "${TARGETS[@]}"; do
        step "cargo +nightly test ($SAN sanitizer) $T"
        # -Zbuild-std rebuilds std instrumented so the sanitizer sees
        # through its synchronisation primitives; separate target dirs
        # keep the per-sanitizer caches from clobbering each other.
        # shellcheck disable=SC2086
        RUSTFLAGS="-Zsanitizer=$SAN" \
        CARGO_TARGET_DIR="target/san-$SAN" \
            cargo +nightly test -q -Zbuild-std --target "$HOST" $T
    done
    step "pstore-verify sweep incl. ISO serializability phase ($SAN sanitizer)"
    # The full invariant sweep under real instrumented threads: the
    # CON-01..03 runtime checkers drive the production sweep, and
    # the ISO/PRV phases run whole simulations inside it.
    RUSTFLAGS="-Zsanitizer=$SAN" \
    CARGO_TARGET_DIR="target/san-$SAN" \
        cargo +nightly run -q -Zbuild-std --target "$HOST" -p pstore-verify
done

echo
echo "sanitizers: all checks passed"
