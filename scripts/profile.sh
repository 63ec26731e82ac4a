#!/usr/bin/env bash
# Sampled CPU profile of one benchmark workload, by function and by line.
#
#   scripts/profile.sh WORKLOAD [--seed N] [--smoke] [--runs K] [--top N] [--interval-us US]
#
# Builds the benchmark harness under benchmark/ (unmodified) in release mode
# with line tables into target/profile, compiles the SIGPROF sampler
# scripts/sigprof.c, runs `totoro-e2e run WORKLOAD --seed N [--smoke]` K
# times (default 1) with the sampler preloaded, and prints two tables over
# all samples (one every US microseconds of CPU time, default 4000):
#
#   * by function: the symbol (`nm`) each sample's program counter fell in,
#     i.e. the function the compiler emitted, with everything it inlined;
#   * by line: the innermost source line and inlined function
#     (`addr2line -i`), which is where inlined callees show up.
#
# Set-up is included: a sample is a sample. Each run's JSON line and raw
# samples are kept in the directory the header names. Needs cargo, a C
# compiler and binutils; works from any directory.
set -euo pipefail

usage() {
    echo "usage: scripts/profile.sh WORKLOAD [--seed N] [--smoke] [--runs K] [--top N] [--interval-us US]" >&2
    exit 2
}

workload="" seed=1 smoke="" runs=1 top=25 interval=4000
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="${2:?}"; shift 2 ;;
        --smoke) smoke="--smoke"; shift ;;
        --runs) runs="${2:?}"; shift 2 ;;
        --top) top="${2:?}"; shift 2 ;;
        --interval-us) interval="${2:?}"; shift 2 ;;
        -*) usage ;;
        *) [ -z "$workload" ] || usage; workload="$1"; shift ;;
    esac
done
[ -n "$workload" ] || usage

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="$root/target/profile"
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$target" \
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2
bin="$target/release/totoro-e2e"
mkdir -p "$target/sigprof"
cc -O2 -shared -fPIC -o "$target/sigprof/sigprof.so" "$root/scripts/sigprof.c"
work="$(mktemp -d "$target/sigprof/$workload.XXXXXX")"

for r in $(seq 1 "$runs"); do
    SIGPROF_OUT="$work/samples" SIGPROF_US="$interval" LD_PRELOAD="$target/sigprof/sigprof.so" \
        "$bin" run "$workload" --seed "$seed" $smoke > "$work/run$r.json"
done

cat "$work"/samples.* | grep -v '^#' > "$work/pcs" || true
inside=$(wc -l < "$work/pcs")
outside=$(cat "$work"/samples.* | awk '/^# outside/ { n += $3 } END { print n + 0 }')
total=$((inside + outside))
echo "# $workload seed $seed${smoke:+ (smoke)}: $runs run(s), $total samples every ${interval} us of CPU time, $outside outside the executable; raw data in ${work#"$root"/}"
[ "$total" -gt 0 ] || exit 0

# Prints "count<TAB>label" lines as a table of shares of all samples.
table() {
    LC_ALL=C sort -t "$(printf '\t')" -k1,1nr -k2,2 \
        | awk -F '\t' -v total="$total" -v top="$top" \
            'NR <= top { printf "%6.1f %%  %6d  %s\n", 100 * $1 / total, $1, $2 }'
}

echo
echo "## by function (nm)"
{
    nm -C --defined-only "$bin" | awk '$2 ~ /^[tTwW]$/ { a = $1; $1 = ""; $2 = ""; sub(/^ +/, ""); print a, "S", $0 }'
    awk '{ print $1, "P" }' "$work/pcs"
} | LC_ALL=C sort -s -k1,1 -k2,2r \
    | awk '$2 == "S" { $1 = ""; $2 = ""; sub(/^ +/, ""); sub(/::h[0-9a-f]+$/, ""); f = $0; next }
           { n[f == "" ? "?" : f]++ }
           END { for (k in n) print n[k] "\t" k }' \
    | table

echo
echo "## by line (addr2line, innermost inlined frame)"
LC_ALL=C sort "$work/pcs" | uniq -c > "$work/pcs.counted"
awk '{ print "0x" $2 }' "$work/pcs.counted" | addr2line -e "$bin" -a -f -C -i > "$work/lines"
awk -v root="$root/" '
    FNR == NR { count[FNR] = $1; next }
    /^0x[0-9a-f]+$/ { rec++; at = 0; next }
    { at++ }
    at == 1 { fn = $0; sub(/::h[0-9a-f]+$/, "", fn); next }
    at == 2 {
        loc = $0
        sub(/ \(discriminator [0-9]+\)$/, "", loc)
        if (index(loc, root) == 1) loc = substr(loc, length(root) + 1)
        sub(/^\/rustc\/[0-9a-f]+\//, "", loc)
        n[loc "  " fn] += count[rec]
    }
    END { for (k in n) print n[k] "\t" k }
' "$work/pcs.counted" "$work/lines" | table
