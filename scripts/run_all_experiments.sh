#!/bin/bash
# Regenerates every table and figure of the paper's evaluation (§7) plus
# the in-network-aggregation ablation, writing one report per artifact
# into results/ and printing each one's wall time to stderr. Build first:
# cargo build --release --workspace
#
# JOBS controls the per-scenario worker count (independent trials run in
# parallel; output is bit-identical regardless): JOBS=8 ./run_all_experiments.sh
set -ex
cd "$(dirname "$0")/.."
# Preflight: refuse to burn hours of simulation on a tree that violates
# the static determinism contract (DESIGN.md §11), which clippy holds.
cargo clippy --workspace --all-targets -- -D warnings
mkdir -p results
B=target/release/totoro-bench
JOBS="${JOBS:-$(nproc)}"
# run NAME ARGS...: runs `$B ARGS...` into results/NAME.txt and prints the
# scenario's wall time.
run() {
    local name=$1 start
    shift
    start=$(date +%s.%N)
    $B "$@" > "results/$name.txt" 2>&1
    { set +x; } 2>/dev/null
    awk -v a="$start" -v b="$(date +%s.%N)" -v n="$name" \
        'BEGIN { printf "wall %-8s %7.1f s\n", n, b - a }' >&2
    set -x
}
run fig5     fig5     --jobs "$JOBS"
run fig6     fig6     --jobs "$JOBS"
run fig7     fig7     --jobs "$JOBS"
run table3   table3   --jobs "$JOBS"
run fig8     fig8     --jobs "$JOBS" --apps 1,5,10,20
run fig9     fig9     --jobs "$JOBS" --apps 1,5,10,20
run fig10    fig10    --jobs "$JOBS"
run fig11    fig11    --jobs "$JOBS"
run fig12    fig12    --jobs "$JOBS"
run fig13    fig13    --jobs "$JOBS"
run ablation ablation --jobs "$JOBS"
echo ALL-EXPERIMENTS-DONE
