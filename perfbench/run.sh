#!/usr/bin/env bash
# run.sh — build and run the repository benchmark from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, module cache, temporary files, toolchain
# telemetry, the binary, the span dumps and the ledgers. The last line of
# standard output is the result object.
set -euo pipefail

root="$(pwd)"
[[ -f "$root/perfbench/go.mod" ]] || { echo "run.sh: run from the checkout root" >&2; exit 2; }
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$build/perfbench" -root "$root" -out "$build/out" -commit "$commit" "$@"
