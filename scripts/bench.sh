#!/usr/bin/env bash
# bench.sh — measure host-side simulator throughput over the full benchmark
# suite and write BENCH_interp.json (per-program wall seconds and simulated
# instructions per second, plus geomean and aggregate).
#
#   scripts/bench.sh                 # writes BENCH_interp.json at the repo root
#   scripts/bench.sh out.json        # writes to a custom path
#   JOBS=0 scripts/bench.sh          # parallel runs (default 1: serial walls
#                                    # are stable; parallel walls measure
#                                    # scheduler contention, not the loop)
#
# Output validation is skipped: the run measures interpreter speed, and the
# correctness gate is scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_interp.json}"

echo "==> go build ./cmd/mmxbench"
bin="$(mktemp -d)/mmxbench"
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/mmxbench

# Stamp the artifact with the commit it measures (empty outside a checkout),
# so two BENCH_interp.json files are comparable by scripts/bench_diff.sh
# without guessing their provenance.
commit="$(git rev-parse --short HEAD 2>/dev/null || true)"
jobs="${JOBS:-1}"

echo "==> mmxbench -j $jobs -bench-json $out"
"$bin" -skip-check -j "$jobs" -bench-commit "$commit" \
    -bench-json "$out" -table2 >/dev/null
echo "==> $out"
grep -E '"(geomean|aggregate)_instrs_per_sec"|"suite_wall_seconds"' "$out"
# Trace-tier coverage per program: superblocks formed, trace-tree child
# paths grown, side-exit rate.
echo "    program        traces  tree  side-exit%"
jq -r '.programs[] |
    [.program, .traces_formed // 0, .tree_nodes // 0,
     (.side_exit_pct // 0 | . * 10 | round / 10)] |
    @tsv' "$out" |
while IFS=$'\t' read -r prog tf tn se; do
    printf '    %-14s %5d %5d %10s\n' "$prog" "$tf" "$tn" "$se"
done
