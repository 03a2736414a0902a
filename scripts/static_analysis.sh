#!/usr/bin/env bash
# Static-analysis gate for the workspace. Run from the repository root.
#
#   scripts/static_analysis.sh          # full gate (fmt, clippy, verify, proptests)
#   scripts/static_analysis.sh --quick  # skip the proptest suites
#
# Every step must pass; the script stops at the first failure.
#
# Each run appends one line per step to target/static_analysis_timings.tsv:
# run start (UTC), mode, step, whole seconds, ok/failed. Nothing reads the
# file and nothing is gated on it; it is there so that the next claim about
# what the gate costs has data.
#
# Runtime sanitizers (TSan/ASan over the thread-bearing crates) live in
# scripts/sanitizers.sh — separate because they need a nightly toolchain
# with rust-src and rebuild std, which is too slow for this gate.

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
MODE=full
if [[ "${1:-}" == "--quick" ]]; then
    QUICK=1
    MODE=quick
fi

TIMINGS=target/static_analysis_timings.tsv
RUN_STARTED="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
CURRENT_STEP=""
STEP_STARTED=0
# finish_step <ok|failed>: one line for the step that just ended, if any.
finish_step() {
    if [[ -n "$CURRENT_STEP" ]]; then
        mkdir -p "$(dirname "$TIMINGS")"
        printf '%s\t%s\t%s\t%s\t%s\n' "$RUN_STARTED" "$MODE" "$CURRENT_STEP" \
            "$((SECONDS - STEP_STARTED))" "$1" >> "$TIMINGS"
        CURRENT_STEP=""
    fi
}
step() {
    finish_step ok
    CURRENT_STEP="$*"
    STEP_STARTED=$SECONDS
    echo
    echo "==> $*"
}

# Temporary files go under $TMPDIR (default /tmp). One EXIT trap for the
# whole script; steps register what they leave behind.
TMP="${TMPDIR:-/tmp}"
LOCK_SNAPSHOT=""
TEMP_FILES=()
# Building or testing the benchmark package in place rewrites
# benchmark/Cargo.lock (it drops a stale edge); this puts the
# committed bytes back, however the step that took the snapshot ended.
restore_benchmark_lock() {
    if [[ -n "$LOCK_SNAPSHOT" ]]; then
        cp "$LOCK_SNAPSHOT" benchmark/Cargo.lock
        rm -f "$LOCK_SNAPSHOT"
        LOCK_SNAPSHOT=""
    fi
}
cleanup() {
    # The step the script ended in: the last one, or the one that failed.
    if [[ $? -eq 0 ]]; then finish_step ok; else finish_step failed; fi
    restore_benchmark_lock
    rm -rf ${TEMP_FILES[@]+"${TEMP_FILES[@]}"}
}
trap cleanup EXIT

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

step "one observation surface: no build switch, no env reads, no wall clock in the system crates"
# There is one build: what a run emits is decided by the sink installed in
# pstore-telemetry and its TraceSpec, so no code may branch on a cargo
# feature. What the environment says is read by the binaries; the system
# crates do not. Nor do they read the wall clock: sim time comes from the
# event loop, and the one wall-clock stamp (`wall_us`) is pstore-telemetry's.
grep -rnE 'cfg!?\(.*feature' crates/*/src crates/*/tests src tests examples && exit 1
grep -rn 'std::env::var' crates/{sim,dbms,core,forecast,b2w}/src && exit 1
grep -rnE '(Instant|SystemTime)::now' crates/{sim,dbms,core,forecast,b2w}/src && exit 1

step "one event schema: no field looked up by name outside event.rs"
# A field name is spelled once, in the schema of crates/telemetry/src/event.rs;
# everything else reads decoded records. Test code (a file's trailing
# #[cfg(test)] module, tests/) may still poke at wire-level events. (The
# closing parenthesis keeps `fmt::DebugStruct::field("name", &v)` out.)
LOOKUP='\.field(_u64|_f64|_str)?\("[^"]*"\)'
for f in $(grep -rlE "$LOOKUP" crates/{telemetry,verify,bench,sim,core,dbms,forecast}/src \
        | grep -v '^crates/telemetry/src/event\.rs$'); do
    awk -v file="$f" -v lookup="$LOOKUP" '/#\[cfg\(test\)\]/ { exit }
        $0 ~ lookup { print file ":" FNR ": " $0; found = 1 }
        END { exit found }' "$f" || exit 1
done

step "docs/observability.md carries the tables the event schema generates"
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    schema --check docs/observability.md

step "docs/invariants.md carries the tables the invariant registry generates; every invariant has a checker and a test"
# The registry is the `invariants!` invocation of crates/core/src/invariant.rs.
# On a table mismatch the test prints the block to paste between the markers.
cargo test -q -p pstore-verify --lib catalogue

step "pstore-verify invariant sweep"
cargo run -q --release -p pstore-verify

step "microbenchmarks compile (cargo bench --no-run)"
cargo bench -q --no-run

step "benchmark: unit tests + the suite against benchmark/expected.json at both recorded seeds"
# The suite (a run without --workload) compares every exact outcome with
# benchmark/expected.json and exits non-zero on any difference; timings
# are the driver's business (BENCHMARK.json), not this gate's.
LOCK_SNAPSHOT="$(mktemp "$TMP"/pstore-bench-lock.XXXXXX)"
cp benchmark/Cargo.lock "$LOCK_SNAPSHOT"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --seconds 2 --seed 0x0709 > /dev/null
benchmark/run.sh --seconds 2 --seed 0x5EED > /dev/null
restore_benchmark_lock

step "telemetry smoke: traced run + pstore-trace validation"
TRACE_FILE="$(mktemp "$TMP"/pstore-smoke.XXXXXX.jsonl)"
TEMP_FILES+=("$TRACE_FILE")
cargo run -q --release -p pstore-bench \
    --bin telemetry_smoke -- --quiet --trace "$TRACE_FILE"
# pstore-trace exits 1 on lines that do not parse or do not match the
# event schema, unmatched spans, or ordering violations (TEL-01/02/04).
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- report "$TRACE_FILE"
# The profiler, timeline, and slo attribution must all render the trace.
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    profile "$TRACE_FILE" > /dev/null
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    timeline "$TRACE_FILE" > /dev/null
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    slo "$TRACE_FILE" > /dev/null

step "golden summary: fig9 --quick with prov events, cmp against results/golden/"
# Every run is seeded and deterministic, so the check is exact: the
# summary of this one run (counters, p99 quantiles, the slo.* SLA
# attribution and the prov.* capacity ledger of Fig 9 / Table 2) must be
# byte-identical to the committed golden. To re-bless after an intended
# change, run the same command with --summary
# results/golden/fig9_quick.summary.json and review the `git diff`.
GOLDEN_TMP="$(mktemp -d "$TMP"/pstore-golden.XXXXXX)"
TEMP_FILES+=("$GOLDEN_TMP")
PSTORE_PROV_EVENTS=1 cargo run -q --release -p pstore-bench \
    --bin fig9_comparison -- --quick --quiet \
    --trace "$GOLDEN_TMP/fig9_quick.jsonl" \
    --summary "$GOLDEN_TMP/fig9_quick.summary.json" > /dev/null
cmp results/golden/fig9_quick.summary.json "$GOLDEN_TMP/fig9_quick.summary.json"
# The SLA-attribution and provisioning reports must render that trace.
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    slo "$GOLDEN_TMP/fig9_quick.jsonl" > /dev/null
cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
    provisioning "$GOLDEN_TMP/fig9_quick.jsonl" > /dev/null
rm -rf "$GOLDEN_TMP"

if [[ "$QUICK" == "0" ]]; then
    step "property-test suites"
    cargo test -q -p pstore-verify --tests
    if cargo miri --version > /dev/null 2>&1; then
        step "cargo miri test: UB check on core crates + dbms engine"
        cargo miri test -q -p pstore-core -p pstore-forecast -p pstore-dbms
        step "cargo miri test: telemetry unit tests"
        # Lib tests only: the trace_cli integration test spawns the
        # pstore-trace binary (unsupported under miri) and the proptest
        # suite is impractically slow there. The one file-I/O unit test
        # carries #[cfg_attr(miri, ignore)].
        cargo miri test -q -p pstore-telemetry --lib
        step "cargo miri test: verify checker unit tests"
        # Lib tests only: the pure checker logic (ISO-01..03 DSG
        # construction and cycle detection included). The runtime
        # sweeps that spawn threads and run full simulations carry
        # #[cfg_attr(miri, ignore)].
        cargo miri test -q -p pstore-verify --lib
    else
        step "cargo miri test: skipped (miri not installed on this toolchain)"
    fi
    step "sweep determinism: the parallel map's unit tests, detailed-sim cells and fig9 serial vs parallel (release, ~1 min)"
    cargo test -q --release -p pstore-bench --lib --test sweep_determinism \
        -- --include-ignored
fi

step "the gate left the benchmark as committed"
# A PR that claims a gain may not edit the benchmark, and the likeliest way
# to do so by accident is to commit what a local run rewrote. Anything
# listed here was changed by hand or by a tool run outside this script.
if [[ -n "$(git status --porcelain -- benchmark BENCHMARK.json)" ]]; then
    git status --porcelain -- benchmark BENCHMARK.json
    echo "benchmark/ or BENCHMARK.json differs from HEAD" >&2
    exit 1
fi

echo
echo "static analysis: all checks passed"
