#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it. Run from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload arena-1m --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the spans of traced runs all
# stay under .bench_build/ in the checkout.
set -euo pipefail
out=$PWD/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --commit "$commit" "$@"
