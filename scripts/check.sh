#!/usr/bin/env bash
# check.sh — the repo's `make check` equivalent: everything CI (and a
# pre-commit run) needs, in dependency order. Fast failures first.
#
#   scripts/check.sh          # full gate
#   scripts/check.sh -short   # pass flags through to `go test ./...`
#   BENCH=1 scripts/check.sh  # additionally refresh BENCH_interp.json
#                             # (throughput measurement; not part of the gate)
#   BENCH_BASELINE=old.json scripts/check.sh
#                             # additionally measure throughput and fail on a
#                             # >10% geomean regression against old.json
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./... $*"
go test "$@" ./...

# The benchmark is its own module, so the root `go test ./...` never runs
# its tests: the pinned Table 2/3 digest (TestDigestGate) and the metric
# names BENCHMARK.json declares.
echo "==> (cd perfbench && go test ./...)"
(cd perfbench && GOFLAGS=-mod=mod go test ./...)

# The goroutine-bearing code — the concurrent suite runner, the memoized
# registry, the mmxd service (cache single-flight, admission queue,
# request cancellation), and the fleet coordinator (prober, retries,
# hedging, scatter-gather) — runs under the race detector. -p 1 runs the
# packages one at a time: each one's tests already fill the cores (and its
# latency bounds assume they get them), so on a 2-vCPU host running them
# side by side only makes each slower.
echo "==> go test -race -p 1 ./internal/core/... ./internal/suite/... ./internal/server/... ./internal/cluster/..."
go test -race -p 1 ./internal/core/... ./internal/suite/... ./internal/server/... ./internal/cluster/...

# The service end-to-end suite: all 21 programs over HTTP byte-equivalent to
# direct runs, every dispatch name answering the same bytes and ETag, the
# result cache replaying the sweep byte-identically, the daemon SIGTERM
# drain, and the spill tier surviving a real restart.
echo "==> go test -run 'TestServedReportsMatchDirectRuns|TestResultCacheServesIdenticalBytes|TestDaemonSIGTERMDrain|TestDaemonResultCacheSpillSurvivesRestart' ."
go test -run 'TestServedReportsMatchDirectRuns|TestResultCacheServesIdenticalBytes|TestDaemonSIGTERMDrain|TestDaemonResultCacheSpillSurvivesRestart' .

# The two simulator examples, built and run in a scratch directory:
# imagefilter writes input.bmp and output.bmp to its working directory.
# Each exits non-zero when a run or its check fails.
echo "==> examples/quickstart, examples/imagefilter"
examples="$(mktemp -d)"
trap 'rm -rf "$examples"' EXIT
go build -o "$examples/" ./examples/quickstart ./examples/imagefilter
(cd "$examples" && ./quickstart >/dev/null && ./imagefilter >/dev/null)
rm -rf "$examples"

# The fleet end-to-end suite: a coordinator over real mmxd backends serves
# the whole suite byte-identical, survives a backend dying mid-suite (and
# mid-campaign), keeps repeat requests affine to one warm cache, and shards
# a 216-point ablation campaign with artifacts byte-identical to a
# single-backend reference run.
echo "==> go test -run 'TestFleet' ./internal/cluster"
go test -run 'TestFleet' ./internal/cluster

# Fuzz smoke: a few seconds per target keeps the corpora honest without
# turning the gate into a fuzzing campaign (`go test -fuzz` accepts one
# target per invocation).
echo "==> go test -run '^$' -fuzz FuzzAsmSource -fuzztime 5s ./internal/asm"
go test -run '^$' -fuzz FuzzAsmSource -fuzztime 5s ./internal/asm >/dev/null
echo "==> go test -run '^$' -fuzz FuzzParseRequest -fuzztime 5s ./internal/server"
go test -run '^$' -fuzz FuzzParseRequest -fuzztime 5s ./internal/server >/dev/null
echo "==> go test -run '^$' -fuzz FuzzAsmEndpoint -fuzztime 5s ./internal/server"
go test -run '^$' -fuzz FuzzAsmEndpoint -fuzztime 5s ./internal/server >/dev/null
echo "==> go test -run '^$' -fuzz FuzzParseSuiteRequest -fuzztime 5s ./internal/cluster"
go test -run '^$' -fuzz FuzzParseSuiteRequest -fuzztime 5s ./internal/cluster >/dev/null
# FuzzCoordinatorFrontDoor drives the shared /run and /asm front door on
# both tiers at once: a coordinator and an mmxd.
echo "==> go test -run '^$' -fuzz FuzzCoordinatorFrontDoor -fuzztime 5s ./internal/cluster (both tiers)"
go test -run '^$' -fuzz FuzzCoordinatorFrontDoor -fuzztime 5s ./internal/cluster >/dev/null
echo "==> go test -run '^$' -fuzz FuzzParseCampaignRequest -fuzztime 5s ./internal/campaign"
go test -run '^$' -fuzz FuzzParseCampaignRequest -fuzztime 5s ./internal/campaign >/dev/null
echo "==> go test -run '^$' -fuzz FuzzDispatchThreeWay -fuzztime 5s ./internal/pentium"
go test -run '^$' -fuzz FuzzDispatchThreeWay -fuzztime 5s ./internal/pentium >/dev/null
# FuzzMMXOracle holds the word-parallel MMX semantics against the
# independent per-lane model (internal/mmxref).
echo "==> go test -run '^$' -fuzz FuzzMMXOracle -fuzztime 5s ./internal/mmx"
go test -run '^$' -fuzz FuzzMMXOracle -fuzztime 5s ./internal/mmx >/dev/null
# FuzzISAOracle holds the micro-ops, on all three drivers, against the
# independent reference interpreter (internal/isaref) on random programs,
# and the drivers' reports to each other with profiling on.
echo "==> go test -run '^$' -fuzz FuzzISAOracle -fuzztime 5s ./internal/vm"
go test -run '^$' -fuzz FuzzISAOracle -fuzztime 5s ./internal/vm >/dev/null

# The three-way dispatch equivalence (the per-instruction loop, block
# dispatch and trace dispatch) also runs under the race detector: every CPU
# of a program reads the same compiled Code (its micro-ops, which the
# per-instruction loop steps one instruction at a time and block dispatch
# runs a block body at a time), and trace formation copies those
# micro-ops into per-CPU traces whose fork guards then mutate their own
# copies; TestSharedCodeConcurrentRuns runs one Code on four goroutines at
# once to catch any write that reaches the shared arrays. Observed
# dispatch-loop runs stream their retirement records to the observer on a
# second goroutine, so this step also covers the producer/consumer
# handoff; the stream tests add handoffs at batch sizes 1 and 3,
# observer and producer panics, and every exit path joining the consumer.
# The consumer also owns the cache model of a streamed run, so the small-
# cache differential (TestStreamSmallCacheModesAgree) and the fault-state
# differential, which compares cache statistics after a fault, show here
# that the interpreter never touches CPU.Hier while the stream is open.
# The MMX oracle differential (TestMMXOracle*, ~3 s under -race; -short
# shrinks it) runs every MMX opcode and operand shape through the three
# paths against the independent per-lane model, and the ISA oracle
# (TestISAOracle; -short shrinks it too) every opcode and operand shape,
# faults included, against the independent reference interpreter.
echo "==> go test -race -run 'TestDispatchModesAgree|TestDispatchThreeWay|TestStream|TestSharedCodeConcurrentRuns|TestFaultStateMatchesAcrossPaths|TestMMXOracle|TestISAOracle' ./internal/vm ./internal/pentium"
go test -race -run 'TestDispatchModesAgree|TestDispatchThreeWay|TestStream|TestSharedCodeConcurrentRuns|TestFaultStateMatchesAcrossPaths|TestMMXOracle|TestISAOracle' ./internal/vm ./internal/pentium

# Smoke-run the trace-dispatch benchmark for a single iteration so
# inner-loop regressions that only bite under benchmarking surface here.
echo "==> go test -run '^$' -bench 'BenchmarkTraceStep' -benchtime 1x ./internal/vm"
go test -run '^$' -bench 'BenchmarkTraceStep' -benchtime 1x ./internal/vm >/dev/null
# The same single iteration of the chain-pricing benchmark: steady applies,
# applies matched in place and applies found by a full signature, with and
# without a pending U at entry (it fails if any of them declines or misses
# its steady state).
echo "==> go test -run '^$' -bench 'BenchmarkRetireChain' -benchtime 1x ./internal/pentium"
go test -run '^$' -bench 'BenchmarkRetireChain' -benchtime 1x ./internal/pentium >/dev/null
# And of the cache model's reference pricing: one stream, two same-set
# streams (second-way hits) and a random walk through Hierarchy.Price.
echo "==> go test -run '^$' -bench 'BenchmarkPrice' -benchtime 1x ./internal/mem"
go test -run '^$' -bench 'BenchmarkPrice' -benchtime 1x ./internal/mem >/dev/null

# And of the synthetic-image benchmark: the 640x480 bitmap every build of
# image.c and image.mmx synthesizes.
echo "==> go test -run '^$' -bench 'BenchmarkImageRGB' -benchtime 1x ./internal/synth"
go test -run '^$' -bench 'BenchmarkImageRGB' -benchtime 1x ./internal/synth >/dev/null

# Optional: refresh the interpreter-throughput artifact. Wall-clock numbers
# are host-dependent, so this never gates the build.
if [[ "${BENCH:-0}" == "1" ]]; then
    echo "==> scripts/bench.sh"
    scripts/bench.sh
fi

# Optional: measure throughput and gate against a baseline artifact
# (wall-clock comparison — only meaningful on the machine that produced the
# baseline).
if [[ -n "${BENCH_BASELINE:-}" ]]; then
    new="$(mktemp)"
    trap 'rm -f "$new"' EXIT
    echo "==> scripts/bench.sh $new"
    scripts/bench.sh "$new"
    echo "==> scripts/bench_diff.sh $BENCH_BASELINE $new"
    scripts/bench_diff.sh "$BENCH_BASELINE" "$new"
fi

echo "OK"
