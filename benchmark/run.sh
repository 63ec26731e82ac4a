#!/usr/bin/env bash
# The benchmark's one command. Builds the harness in release mode (offline,
# from the repo's own crates and vendored stand-ins), then hands every
# argument to it:
#
#   benchmark/run.sh                                   sweep: all four workloads, untraced then traced,
#                                                      every metric printed, benchmark/out/results.json written
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                      one measurement; the last line of stdout is the result JSON
#   benchmark/run.sh compare A.json B.json             apply the bounds to two result files
#
# Works from any directory. Exits non-zero if the build fails, a run
# crashes, or (sweep, compare) a check does not hold.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target/e2e}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/totoro-e2e" "$@"
