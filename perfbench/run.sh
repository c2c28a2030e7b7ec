#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload warm-hits --seed 1 --seconds 20 --trace 0
# Everything the build writes stays under .bench_build in the current
# directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
