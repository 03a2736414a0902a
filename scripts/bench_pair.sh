#!/usr/bin/env bash
# Paired benchmark runs: a parent revision against the working tree.
#
#   scripts/bench_pair.sh <parent-rev> [--workload W] [--pairs N] [--seconds S]
#
# Exports <parent-rev> (git archive) and the working tree (tracked and
# untracked-but-not-ignored files) to scratch copies, builds the benchmark of
# each once into a target directory of its own, and runs the two binaries in
# alternating order (parent first on odd pairs, change first on even ones), one
# pair per seed: 0x0709, 0x5EED, 1..10. Prints one row per pair and metric,
# then each side's median and quartiles and the pairs won, and a loud line
# for any pair whose failed / correct / served_pct / sla_ok_pct / avg_machines
# differ between the sides (those are simulated outcomes: they must not).
#
# Defaults: every workload, 10 pairs, 20 s (the BENCHMARK.json run length).
# Everything is written under ${TMPDIR:-/tmp}/pstore-bench-pair; the checkout
# is only read — in particular benchmark/Cargo.lock, which a build in place
# would rewrite.

set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,4p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[[ $# -ge 1 && "$1" != --* ]] || usage
parent_rev="$1"
shift
workloads=(static_steady elastic_day engine_scale_cycle control_loop)
pairs=10
seconds=20
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || usage
    case "$1" in
        --workload) workloads=("$2") ;;
        --pairs) pairs="$2" ;;
        --seconds) seconds="$2" ;;
        *) usage ;;
    esac
    shift 2
done
seeds=(0x0709 0x5EED 1 2 3 4 5 6 7 8 9 10)
if ((pairs < 1 || pairs > ${#seeds[@]})); then
    echo "--pairs must be in 1..${#seeds[@]} (one seed per pair)" >&2
    exit 2
fi

parent_sha="$(git rev-parse --verify "$parent_rev^{commit}")"
scratch="${TMPDIR:-/tmp}/pstore-bench-pair"
mkdir -p "$scratch"

# export <side> <command writing a tar stream to stdout...>
export_tree() {
    local side="$1"
    shift
    rm -rf "${scratch:?}/$side"
    mkdir -p "$scratch/$side"
    "$@" | tar -x -C "$scratch/$side"
}
working_tree() {
    git ls-files -z --cached --others --exclude-standard |
        while IFS= read -r -d '' f; do [[ -e "$f" ]] && printf '%s\0' "$f"; done |
        tar -c --null -T -
}
build() {
    local side="$1"
    echo "building $side ..." >&2
    (cd "$scratch/$side" &&
        CARGO_TARGET_DIR="$scratch/target-$side" cargo build --quiet --release \
            --offline --manifest-path benchmark/Cargo.toml)
}
export_tree parent git archive "$parent_sha"
export_tree change working_tree
build parent
build change

results="$scratch/results.tsv"
: > "$results"
# run <side> <workload> <seed> <pair>: appends `pair side workload key value`.
run() {
    local side="$1" workload="$2" seed="$3" pair="$4" out status=0
    out="$(cd "$scratch/$side" &&
        "$scratch/target-$side/release/pstore-benchmark" --workload "$workload" \
            --seed "$seed" --seconds "$seconds" --out "$scratch/out-$side" \
            2> "$scratch/stderr-$side.txt")" || status=$?
    printf '%s\t%s\t%s\texit\t%s\n' "$pair" "$side" "$workload" "$status" >> "$results"
    if ((status != 0)); then
        echo "!!! $side exited $status on $workload seed $seed" \
            "(stderr: $scratch/stderr-$side.txt)" >&2
    fi
    # `workload metric value unit` lines, the `# outcome` line and the
    # result object's correct / failed.
    awk -v p="$pair" -v s="$side" -v w="$workload" '
        $1 == w && NF == 4 { printf "%s\t%s\t%s\t%s\t%s\n", p, s, w, $2, $3 }
        /^# outcome / { sub(/^# outcome /, ""); printf "%s\t%s\t%s\toutcome\t%s\n", p, s, w, $0 }
        /^\{"correct"/ {
            match($0, /"correct": [a-z]+/); c = substr($0, RSTART + 11, RLENGTH - 11)
            match($0, /"failed": [0-9]+/); f = substr($0, RSTART + 10, RLENGTH - 10)
            printf "%s\t%s\t%s\tcorrect\t%s\n%s\t%s\t%s\tfailed\t%s\n", p, s, w, c, p, s, w, f
        }' <<< "$out" >> "$results"
}

for workload in "${workloads[@]}"; do
    for ((pair = 1; pair <= pairs; pair++)); do
        seed="${seeds[pair - 1]}"
        echo "$workload pair $pair/$pairs seed $seed ..." >&2
        if ((pair % 2 == 1)); then
            run parent "$workload" "$seed" "$pair"
            run change "$workload" "$seed" "$pair"
        else
            run change "$workload" "$seed" "$pair"
            run parent "$workload" "$seed" "$pair"
        fi
    done
done

awk -F'\t' -v seeds="${seeds[*]}" -v parent="$parent_sha" -v seconds="$seconds" '
function quantile(a, n, q,    pos, lo, frac) {
    pos = (n - 1) * q; lo = int(pos); frac = pos - lo
    return lo + 1 < n ? a[lo + 1] + frac * (a[lo + 2] - a[lo + 1]) : a[n]
}
function summary(side, w, m, npairs,    i, n, vals, tmp, j) {
    n = 0
    for (i = 1; i <= npairs; i++) if ((i, side, w, m) in v) vals[++n] = v[i, side, w, m] + 0
    for (i = 2; i <= n; i++) { tmp = vals[i]; for (j = i - 1; j >= 1 && vals[j] > tmp; j--) vals[j + 1] = vals[j]; vals[j + 1] = tmp }
    return n ? sprintf("median %.6g  quartiles %.6g .. %.6g  (n=%d)", quantile(vals, n, 0.5), quantile(vals, n, 0.25), quantile(vals, n, 0.75), n) : "no data"
}
BEGIN {
    split(seeds, seed_of, " ")
    split("setup_s ops_per_s reconfig_ops_per_s peak_rss_mb allocs_per_op served_pct sla_ok_pct avg_machines", metrics, " ")
    split("lower higher higher lower lower higher higher lower", better, " ")
    split("exit correct failed served_pct sla_ok_pct avg_machines outcome", exact, " ")
}
{
    v[$1, $2, $3, $4] = $5
    if (!($3 in seen)) { seen[$3] = 1; order[++nw] = $3 }
    if ($1 > npairs) npairs = $1
}
END {
    printf "parent %s vs working tree, --seconds %s, %d pair(s); ratio = change / parent\n", parent, seconds, npairs
    for (k = 1; k <= nw; k++) {
        w = order[k]
        printf "\n== %s ==\n", w
        for (mi = 1; mi <= 8; mi++) {
            m = metrics[mi]
            printf "\n%-22s %-7s %16s %16s %8s\n", m " (" better[mi] ")", "seed", "parent", "change", "ratio"
            won = lost = 0
            for (i = 1; i <= npairs; i++) {
                p = v[i, "parent", w, m]; c = v[i, "change", w, m]
                if (p == "" || c == "") { printf "%-22s %-7s %16s %16s\n", "  pair " i, seed_of[i], p == "" ? "missing" : p, c == "" ? "missing" : c; continue }
                printf "%-22s %-7s %16.6g %16.6g %8.3f\n", "  pair " i, seed_of[i], p, c, p + 0 ? c / p : 0
                d = (better[mi] == "higher") ? c - p : p - c
                if (d > 0) won++; else if (d < 0) lost++
            }
            printf "  parent  %s\n  change  %s\n  pairs won by change %d, lost %d, tied %d\n", summary("parent", w, m, npairs), summary("change", w, m, npairs), won, lost, npairs - won - lost
        }
        for (i = 1; i <= npairs; i++) for (e = 1; e <= 7; e++) {
            m = exact[e]; p = v[i, "parent", w, m]; c = v[i, "change", w, m]
            if (p != c) { bad++; printf "\n!!! OUTCOME DIFFERS: %s pair %d seed %s %s: parent [%s] change [%s]\n", w, i, seed_of[i], m, p, c }
            else if ((m == "exit" && c != 0) || (m == "failed" && c != 0) || (m == "correct" && c != "true")) { bad++; printf "\n!!! BOTH SIDES BAD: %s pair %d seed %s %s = [%s]\n", w, i, seed_of[i], m, c }
        }
    }
    if (bad) { printf "\n!!! %d outcome problem(s) above\n", bad; exit 1 }
    printf "\nsimulated outcomes (exit, correct, failed, served_pct, sla_ok_pct, avg_machines, # outcome) equal in every pair\n"
}' "$results"
