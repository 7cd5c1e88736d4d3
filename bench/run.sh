#!/usr/bin/env bash
# Builds flexbench from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload casestudy --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every file a run writes stay under .bench_build/ there; the Go
# toolchain is used offline, as installed.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-build" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd bench && go build -o "$out/flexbench" ./flexbench)
exec "$out/flexbench" -workdir "$out" "$@"
