#!/bin/bash
# Regenerates every table and figure of the paper's evaluation (§7) plus
# the in-network-aggregation ablation, writing one report per artifact
# into results/. Build first: cargo build --release --workspace
#
# JOBS controls the per-scenario worker count (independent trials run in
# parallel; output is bit-identical regardless): JOBS=8 ./run_all_experiments.sh
set -ex
cd "$(dirname "$0")/.."
# Preflight: refuse to burn hours of simulation on a tree that violates
# the static determinism contract (DESIGN.md §11): clippy holds the path
# bans, totoro-detlint the rest.
cargo clippy --workspace --all-targets -- -D warnings && cargo test -q -p totoro-detlint
mkdir -p results
B=target/release/totoro-bench
JOBS="${JOBS:-$(nproc)}"
$B fig5     --jobs "$JOBS" > results/fig5.txt    2>&1
$B fig6     --jobs "$JOBS" > results/fig6.txt    2>&1
$B fig7     --jobs "$JOBS" > results/fig7.txt    2>&1
$B table3   --jobs "$JOBS" > results/table3.txt  2>&1
$B fig8     --jobs "$JOBS" --apps 1,5,10,20 > results/fig8.txt 2>&1
$B fig9     --jobs "$JOBS" --apps 1,5,10,20 > results/fig9.txt 2>&1
$B fig10    --jobs "$JOBS" > results/fig10.txt   2>&1
$B fig11    --jobs "$JOBS" > results/fig11.txt   2>&1
$B fig12    --jobs "$JOBS" > results/fig12.txt   2>&1
$B fig13    --jobs "$JOBS" > results/fig13.txt   2>&1
$B ablation --jobs "$JOBS" > results/ablation.txt 2>&1
echo ALL-EXPERIMENTS-DONE
