#!/usr/bin/env bash
# Builds futurerd-perf from the sources of the checkout it sits in and runs
# it with the given arguments, from the checkout's root. Everything the
# build writes (the binary, Go's build cache and temporary files) stays
# under .bench_build/ in the checkout; nothing is fetched from the network.
#
#   bash cmd/futurerd-perf/run.sh --workload pagerank-mb --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build/futurerd-perf"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=readonly \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$out/futurerd-perf" .)
cd "$root"
exec "$out/futurerd-perf" "$@"
