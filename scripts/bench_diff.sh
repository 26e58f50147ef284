#!/usr/bin/env bash
# bench_diff.sh — compare two BENCH_interp.json artifacts program by
# program and gate on the geomean: exits 1 if the new run's geomean host
# throughput regressed by more than 10% against the baseline.
#
#   scripts/bench_diff.sh BASELINE.json NEW.json
#
# With three or more artifacts (e.g. several commits' runs of one mode), it
# instead prints a geomean table with each file's speedup over the first —
# no gate:
#
#   scripts/bench_diff.sh BENCH.a.json BENCH.b.json BENCH.c.json
#
# With -sweep, it compares two DISPATCH=all sweeps mode by mode
# (PREFIX.<mode>.json for trace/generic) and gates on trace dispatch: exits
# 1 if the trace-mode geomean regressed by more than 10%. The generic mode
# reports but only warns — trace is the mode the optimization work targets,
# and the gate must not flap on the slower reference loop:
#
#   scripts/bench_diff.sh -sweep OLD_PREFIX NEW_PREFIX
#
# Wall-clock numbers are host-dependent; compare artifacts measured on the
# same machine (the git_commit/dispatch/utc_date stamps say where each came
# from).
set -euo pipefail

if [[ $# -ge 1 && "$1" == "-sweep" ]]; then
    [[ $# -eq 3 ]] || { echo "usage: $0 -sweep OLD_PREFIX NEW_PREFIX" >&2; exit 2; }
    oldp="$2" newp="$3" fail=0
    printf '%-12s %12s %12s %9s\n' mode 'old M/s' 'new M/s' delta
    for mode in trace generic; do
        of="$oldp.$mode.json" nf="$newp.$mode.json"
        if [[ ! -r "$of" || ! -r "$nf" ]]; then
            printf '%-12s %27s\n' "$mode" '(artifact missing, skipped)'
            continue
        fi
        og="$(jq -r '.geomean_instrs_per_sec' "$of")"
        ng="$(jq -r '.geomean_instrs_per_sec' "$nf")"
        printf '%-12s %12.1f %12.1f %+8.1f%%\n' "$mode" \
            "$(jq -n "$og/1e6")" "$(jq -n "$ng/1e6")" "$(jq -n "100*($ng/$og-1)")"
        if jq -en "$ng / $og < 0.9" >/dev/null; then
            if [[ "$mode" == trace ]]; then
                echo "bench_diff: FAIL — trace-mode geomean regressed more than 10%" >&2
                fail=1
            else
                echo "bench_diff: warning — $mode geomean regressed more than 10%" >&2
            fi
        fi
    done
    exit "$fail"
fi

if [[ $# -lt 2 ]]; then
    echo "usage: $0 BASELINE.json NEW.json [MORE.json ...]" >&2
    exit 2
fi

if [[ $# -gt 2 ]]; then
    for f in "$@"; do
        [[ -r "$f" ]] || { echo "bench_diff: cannot read $f" >&2; exit 2; }
    done
    ref_g="$(jq -r '.geomean_instrs_per_sec' "$1")"
    printf '%-12s %-10s %12s %10s   %s\n' dispatch commit 'geomean M/s' speedup file
    for f in "$@"; do
        mode="$(jq -r '.dispatch // "?"' "$f")"
        commit="$(jq -r '.git_commit // "?"' "$f")"
        g="$(jq -r '.geomean_instrs_per_sec' "$f")"
        printf '%-12s %-10s %12.1f %9.2fx   %s\n' \
            "$mode" "$commit" "$(jq -n "$g/1e6")" "$(jq -n "$g/$ref_g")" "$f"
    done
    exit 0
fi
base="$1" new="$2"
for f in "$base" "$new"; do
    [[ -r "$f" ]] || { echo "bench_diff: cannot read $f" >&2; exit 2; }
done

echo "baseline: $(jq -r '"\(.git_commit // "?") \(.dispatch // "?") \(.utc_date // "?")"' "$base")"
echo "new:      $(jq -r '"\(.git_commit // "?") \(.dispatch // "?") \(.utc_date // "?")"' "$new")"
echo

# Per-program deltas (programs present in both files).
jq -rn --slurpfile a "$base" --slurpfile b "$new" '
    ($a[0].programs | map({(.program): .instrs_per_sec}) | add) as $old |
    $b[0].programs[] | select($old[.program] != null) |
    [.program, $old[.program], .instrs_per_sec,
     (100 * (.instrs_per_sec / $old[.program] - 1))] | @tsv' "$base" |
while IFS=$'\t' read -r prog old new_ips delta; do
    printf '%-14s %8.1f -> %8.1f M instr/s  %+6.1f%%\n' \
        "$prog" "$(jq -n "$old/1e6")" "$(jq -n "$new_ips/1e6")" "$delta"
done

old_g="$(jq -r '.geomean_instrs_per_sec' "$base")"
new_g="$(jq -r '.geomean_instrs_per_sec' "$new")"
ratio="$(jq -n "$new_g / $old_g")"
printf '\ngeomean: %.1f -> %.1f M instr/s  (x%.3f)\n' \
    "$(jq -n "$old_g/1e6")" "$(jq -n "$new_g/1e6")" "$ratio"

if jq -en "$ratio < 0.9" >/dev/null; then
    echo "bench_diff: FAIL — geomean regressed more than 10%" >&2
    exit 1
fi
echo "bench_diff: OK"
