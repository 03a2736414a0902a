#!/usr/bin/env bash
# The gate: every check a change must pass, locally and in CI, defined once
# in the table below.
#
#   scripts/static_analysis.sh               # every step
#   scripts/static_analysis.sh lint clippy   # the steps of a group, a step
#
# Steps and groups share one namespace; any other name prints the table and
# exits 2. Steps run in table order, and the first failure stops the run.
# Each group is one job of .github/workflows/ci.yml (see ci-coverage).
#
# Each run appends one line per step to target/static_analysis_timings.tsv
# (run start, names given, step, seconds, ok/failed/skipped), so that a
# claim about what the gate costs has data; nothing reads it.
#
# The TSan/ASan sweep is scripts/sanitizers.sh: it needs a nightly toolchain
# with rust-src and rebuilds std, which is too slow for this gate.

set -euo pipefail
cd "$(dirname "$0")/.."

STEPS=(
# name              group   function              description
  "fmt               lint    check_fmt             cargo fmt --check"
  "clippy            lint    check_clippy          cargo clippy --workspace --all-targets -- -D warnings"
  "one-surface       lint    check_one_surface     no build switch, no env reads, no wall clock in the system crates"
  "one-schema        lint    check_one_schema      no event field looked up by name outside event.rs"
  "schema-doc        lint    check_schema_doc      docs/observability.md carries the tables the event schema generates"
  "ci-coverage       lint    check_ci_coverage     ci.yml calls every group exactly once and names nothing else"
  "build             test    build_release         cargo build --release"
  "workspace-tests   test    test_workspace        cargo test --workspace: tier-1, the invariant checkers and their catalogue"
  "forecast-release  test    test_forecast_release pstore-forecast tests in release: the SPAR and solver bit pins"
  "core-release      test    test_core_release     pstore-core tests in release: the planner against its arithmetic reference"
  "alloc-pins        test    test_alloc_pins       allocation pins in release: untraced simulators, engine warm path, B2W stream"
  "sweep-determinism test    test_sweep            the parallel map and detailed-sim cells, serial vs parallel, in release"
  "telemetry-smoke   test    telemetry_smoke       traced run + pstore-trace explain"
  "fig9-golden       golden  fig9_golden           fig9 --quick --threads 4 with prov events, cmp against the serial blessing"
  "miri-core         miri    miri_core             cargo miri test: UB check on core crates + dbms engine"
  "miri-telemetry    miri    miri_telemetry        cargo miri test: telemetry unit tests"
  "miri-verify       miri    miri_verify           cargo miri test: verify checker unit tests"
  "bench-compile     bench   bench_compile         microbenchmarks compile (cargo bench --no-run)"
  "benchmark         bench   benchmark_suite       benchmark unit tests + the suite against benchmark/expected.json at both seeds"
  "bench-unchanged   bench   bench_unchanged       the gate left benchmark/ and BENCHMARK.json as committed"
)

check_fmt() { cargo fmt --all --check; }
check_clippy() { cargo clippy --workspace --all-targets -q -- -D warnings; }

# forbid <grep args>: fails, printing the hits, if grep finds anything.
forbid() { if grep -rn "$@"; then exit 1; fi; }

check_one_surface() {
    # There is one build: what a run emits is decided by the sink installed
    # in pstore-telemetry and its TraceSpec, so no code may branch on a
    # cargo feature. What the environment says is read by the binaries; the
    # system crates do not. Nor do they or pstore-telemetry read the wall
    # clock: sim time comes from the event loop, and a trace carries no
    # wall-clock stamp, so a seeded run writes the same trace byte for byte.
    forbid -E 'cfg!?\(.*feature' crates/*/src crates/*/tests src tests examples
    forbid 'std::env::var' crates/{sim,dbms,core,forecast,b2w}/src
    forbid -E '(Instant|SystemTime)::now' crates/{sim,dbms,core,forecast,b2w,telemetry}/src
}

check_one_schema() {
    # A field name is spelled once, in the schema of
    # crates/telemetry/src/event.rs; everything else reads decoded records.
    # Test code (a file's trailing #[cfg(test)] module, tests/) may still
    # poke at wire-level events. (The closing parenthesis keeps
    # `fmt::DebugStruct::field("name", &v)` out.)
    local lookup='\.field(_u64|_f64|_str)?\("[^"]*"\)' f
    for f in $(grep -rlE "$lookup" crates/{telemetry,verify,bench,sim,core,dbms,forecast}/src \
            | grep -v '^crates/telemetry/src/event\.rs$'); do
        awk -v file="$f" -v lookup="$lookup" '/#\[cfg\(test\)\]/ { exit }
            $0 ~ lookup { print file ":" FNR ": " $0; found = 1 }
            END { exit found }' "$f" || exit 1
    done
}

check_schema_doc() {
    cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
        schema --check docs/observability.md
}

check_ci_coverage() {
    # Every non-comment line of ci.yml that mentions this script is a call.
    # A call must name groups only, at least one; every group of the table
    # must be named by exactly one call, so each check runs once per push.
    printf '%s\n' "${STEPS[@]}" | awk -v script=scripts/static_analysis.sh '
        NR == FNR { calls[$2] = 0; next }
        /^[[:space:]]*#/ || !index($0, script) { next }
        {
            args = substr($0, index($0, script) + length(script))
            sub(/#.*/, "", args)
            if (split(args, names, " ") == 0) {
                print FILENAME ":" FNR ": a call with no group runs every step"; bad = 1
            }
            for (i in names) {
                if (names[i] in calls) calls[names[i]]++
                else { print FILENAME ":" FNR ": \"" names[i] "\" is not a group of the table"; bad = 1 }
            }
        }
        END {
            for (g in calls) if (calls[g] != 1) {
                print FILENAME ": group \"" g "\" is called " calls[g] " times, not once"; bad = 1
            }
            exit bad
        }' - .github/workflows/ci.yml
}

build_release() { cargo build --release; }
# Tier-1 plus the vendored stand-ins, pstore-verify included: every checker
# over its sweep, and the `catalogue` test, which holds docs/invariants.md to
# the tables the invariant registry generates (on a mismatch it prints the
# block to paste) and requires a checker and a test for every invariant.
test_workspace() { cargo test -q --workspace; }

# Tier-1 runs the next four in debug only, but the controller, the
# benchmark and the figures run a release build:
# - pinned_regression.rs and linalg_props.rs pin SPAR coefficients bit for
#   bit against literals and a column-at-a-time reference, and the solver's
#   accumulator groups are code a release build unrolls and vectorises;
# - proptests.rs compares the table-driven planner with a top-down
#   transcription of Algorithms 1-3, plan for plan and cost bit for cost bit;
# - trace_contract.rs pins one allocation count per build profile and
#   simulator, warm_path_alloc.rs the engine paths that allocate nothing and
#   stream_alloc.rs the B2W stream's budget (allocs_per_op is a release count);
# - the sweep's parallel map must give serial output on real cells.
test_forecast_release() { cargo test -q --release -p pstore-forecast; }
test_core_release() { cargo test -q --release -p pstore-core; }
test_alloc_pins() {
    cargo test -q --release -p pstore-sim --test trace_contract \
        -p pstore-dbms --test warm_path_alloc -p pstore-b2w --test stream_alloc
}
test_sweep() { cargo test -q --release -p pstore-bench --lib --test sweep_determinism; }

telemetry_smoke() {
    local trace
    trace="$(mktemp "$TMP"/pstore-smoke.XXXXXX.jsonl)"
    TEMP_FILES+=("$trace")
    cargo run -q --release -p pstore-bench \
        --bin telemetry_smoke -- --quiet --trace "$trace"
    # pstore-trace exits 1 on a trace with no events, lines that do not
    # parse or do not match the event schema, unmatched spans, or ordering
    # violations (TEL-01/02/04).
    cargo run -q --release -p pstore-telemetry --bin pstore-trace -- explain "$trace"
}

fig9_golden() {
    # Every run is seeded and deterministic, so the check is exact: this
    # run's summary (Fig 9 / Table 2's counters, p99 quantiles, slo.* and
    # prov.* ledgers), stdout and rewritten results/fig9_*.csv must match
    # the commit byte for byte. The blessing was made at --threads 1, so a
    # parallel sweep that differs from a serial one fails. To re-bless, run
    # the same command at --threads 1 with --summary and stdout onto
    # results/golden/fig9_quick.{summary.json,stdout}; review `git diff`.
    local dir
    dir="$(mktemp -d "$TMP"/pstore-golden.XXXXXX)"
    TEMP_FILES+=("$dir")
    PSTORE_PROV_EVENTS=1 cargo run -q --release -p pstore-bench \
        --bin fig9_comparison -- --quick --quiet --threads 4 \
        --trace "$dir/fig9_quick.jsonl" \
        --summary "$dir/fig9_quick.summary.json" > "$dir/fig9_quick.stdout"
    cmp results/golden/fig9_quick.summary.json "$dir/fig9_quick.summary.json"
    cmp results/golden/fig9_quick.stdout "$dir/fig9_quick.stdout"
    git diff --exit-code -- 'results/fig9_*.csv'
    # The run must explain cleanly from that trace: reactive blows the SLA
    # during chunk moves and under-provisions, P-Store does neither. CI
    # keeps the explanation as the fig9-explain artifact.
    mkdir -p target
    cargo run -q --release -p pstore-telemetry --bin pstore-trace -- \
        explain "$dir/fig9_quick.jsonl" > target/fig9_explain.txt
}

# miri <cargo miri test args>: skips the step when the toolchain has no
# miri (stable does not; CI's concurrency-models job runs it on nightly).
miri() {
    if ! cargo miri --version > /dev/null 2>&1; then
        echo "skipped: miri is not installed on this toolchain"
        STEP_STATUS=skipped
        return
    fi
    cargo miri test -q "$@"
}

miri_core() { miri -p pstore-core -p pstore-forecast -p pstore-dbms; }
# Lib tests only: the trace_cli integration test spawns the pstore-trace
# binary (unsupported under miri) and the proptest suite is impractically
# slow there. The one file-I/O unit test carries #[cfg_attr(miri, ignore)].
miri_telemetry() { miri -p pstore-telemetry --lib; }
# Lib tests only: the pure checker logic (ISO-01..03 DSG construction and
# cycle detection included). The simulator runs and seeded sweeps are
# integration tests; the one lib test that reads the checkout carries
# #[cfg_attr(miri, ignore)].
miri_verify() { miri --package pstore-verify --lib; }

bench_compile() { cargo bench -q --no-run; }

benchmark_suite() {
    # The suite (a run without --workload) compares every exact outcome with
    # benchmark/expected.json and exits non-zero on any difference; timings
    # are the driver's business (BENCHMARK.json), not this gate's.
    LOCK_SNAPSHOT="$(mktemp "$TMP"/pstore-bench-lock.XXXXXX)"
    cp benchmark/Cargo.lock "$LOCK_SNAPSHOT"
    cargo test -q --offline --manifest-path benchmark/Cargo.toml
    benchmark/run.sh --seconds 2 --seed 0x0709 > /dev/null
    benchmark/run.sh --seconds 2 --seed 0x5EED > /dev/null
    restore_benchmark_lock
}

bench_unchanged() {
    # A PR that claims a gain may not edit the benchmark, and the likeliest
    # way to do so by accident is to commit what a local run rewrote.
    # Anything listed here was changed by hand or by a tool run outside
    # this script.
    if [[ -n "$(git status --porcelain -- benchmark BENCHMARK.json)" ]]; then
        git status --porcelain -- benchmark BENCHMARK.json
        echo "benchmark/ or BENCHMARK.json differs from HEAD" >&2
        exit 1
    fi
}

SELECTED=" "
for arg in "$@"; do
    known=0
    for row in "${STEPS[@]}"; do
        read -r name group _ <<< "$row"
        if [[ "$arg" == "$name" || "$arg" == "$group" ]]; then
            SELECTED+="$name "
            known=1
        fi
    done
    if [[ "$known" == 0 ]]; then
        echo "usage: scripts/static_analysis.sh [GROUP|STEP]..." >&2
        printf '%s\n' "${STEPS[@]}" >&2
        exit 2
    fi
done

TIMINGS=target/static_analysis_timings.tsv
RUN_STARTED="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
RUN_NAMES="${*:-all}"
CURRENT_STEP=""
STEP_STATUS=ok
STEP_STARTED=0
# finish_step <ok|failed|skipped>: one line for the step that just ended.
finish_step() {
    if [[ -n "$CURRENT_STEP" ]]; then
        mkdir -p "$(dirname "$TIMINGS")"
        printf '%s\t%s\t%s\t%s\t%s\n' "$RUN_STARTED" "$RUN_NAMES" "$CURRENT_STEP" \
            "$((SECONDS - STEP_STARTED))" "$1" >> "$TIMINGS"
        CURRENT_STEP=""
    fi
}

# Temporary files go under $TMPDIR (default /tmp). One EXIT trap for the
# whole script; steps register what they leave behind.
TMP="${TMPDIR:-/tmp}"
LOCK_SNAPSHOT=""
TEMP_FILES=()
# Building or testing the benchmark package in place rewrites
# benchmark/Cargo.lock (it drops a stale edge); this puts the committed
# bytes back, however the step that took the snapshot ended.
restore_benchmark_lock() {
    if [[ -n "$LOCK_SNAPSHOT" ]]; then
        cp "$LOCK_SNAPSHOT" benchmark/Cargo.lock
        rm -f "$LOCK_SNAPSHOT"
        LOCK_SNAPSHOT=""
    fi
}
cleanup() {
    # The step the script ended in: the last one, or the one that failed.
    if [[ $? -eq 0 ]]; then finish_step "$STEP_STATUS"; else finish_step failed; fi
    restore_benchmark_lock
    rm -rf ${TEMP_FILES[@]+"${TEMP_FILES[@]}"}
}
trap cleanup EXIT

for row in "${STEPS[@]}"; do
    read -r name group fn description <<< "$row"
    if [[ $# -eq 0 || "$SELECTED" == *" $name "* ]]; then
        finish_step "$STEP_STATUS"
        CURRENT_STEP="$name"
        STEP_STATUS=ok
        STEP_STARTED=$SECONDS
        echo
        echo "==> $name ($group): $description"
        "$fn"
    fi
done

echo
echo "static analysis: all selected steps passed"
