#!/usr/bin/env bash
# bench.sh — measure host-side simulator throughput over the full benchmark
# suite and write BENCH_interp.json (per-program wall seconds and simulated
# instructions per second, plus geomean and aggregate).
#
#   scripts/bench.sh                 # writes BENCH_interp.json at the repo root
#   scripts/bench.sh out.json        # writes to a custom path
#   DISPATCH=generic scripts/bench.sh  # measure a specific dispatch mode
#   DISPATCH=all scripts/bench.sh    # sweep trace and generic, writing
#                                    # out.<mode>.json per mode
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

# Stamp the artifact with the commit it measures (empty outside a checkout)
# and the dispatch mode, so two BENCH_interp.json files are comparable by
# scripts/bench_diff.sh without guessing their provenance.
commit="$(git rev-parse --short HEAD 2>/dev/null || true)"
dispatch="${DISPATCH:-trace}"
jobs="${JOBS:-1}"

run_one() {
    local mode="$1" dest="$2"
    echo "==> mmxbench -dispatch $mode -j $jobs -bench-json $dest"
    "$bin" -skip-check -dispatch "$mode" -j "$jobs" -bench-commit "$commit" \
        -bench-json "$dest" -table2 >/dev/null
    echo "==> $dest"
    grep -E '"(geomean|aggregate)_instrs_per_sec"|"suite_wall_seconds"' "$dest"
    if [[ "$mode" == trace ]]; then
        # Trace-tier coverage per program: superblocks formed, trace-tree
        # child paths grown, governor deopts, side-exit rate.
        echo "    program        traces  tree  deopts  side-exit%"
        jq -r '.programs[] |
            [.program, .traces_formed // 0, .tree_nodes // 0,
             .trace_deopts // 0, (.side_exit_pct // 0 | . * 10 | round / 10)] |
            @tsv' "$dest" |
        while IFS=$'\t' read -r prog tf tn td se; do
            printf '    %-14s %5d %5d %6d %10s\n' "$prog" "$tf" "$tn" "$td" "$se"
        done
    fi
}

if [[ "$dispatch" == "all" ]]; then
    # Sweep both interpreters; per-mode artifacts land next to the
    # requested output path as out.<mode>.json.
    for mode in trace generic; do
        run_one "$mode" "${out%.json}.$mode.json"
    done
    echo
    echo "per-mode geomean (M instr/s):"
    for mode in trace generic; do
        g="$(jq -r '.geomean_instrs_per_sec' "${out%.json}.$mode.json")"
        printf '  %-10s %8.1f\n' "$mode" "$(jq -n "$g/1e6")"
    done
else
    run_one "$dispatch" "$out"
fi
