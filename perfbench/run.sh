#!/usr/bin/env bash
# Builds the routing benchmark from this checkout's sources and runs it.
# Every argument passes through to the benchmark binary, e.g.
#   bash perfbench/run.sh --workload s5 --seed 1 --seconds 20 --trace 0
# The build cache, binary, traces and self-time tables go to
# .bench_build/perfbench at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
# Keep every file the go command writes (build cache, module cache,
# telemetry) inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# The benchmark forces GCs before every timed request, after which the Go
# runtime hands the freed heap back with MADV_DONTNEED and the next request
# faults every page in again (about 8,500 minor faults per Chip2 route), at
# a cost that varies with the host's memory load. MADV_FREE keeps the pages
# mapped until the kernel needs them.
GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}" exec "$out/perfbench" --out "$out" "$@"
