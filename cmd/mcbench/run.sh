#!/usr/bin/env bash
# Builds cmd/mcbench from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash cmd/mcbench/run.sh --workload ds16-baseline --seed 1 --seconds 10 --trace 0
#   bash cmd/mcbench/run.sh -seed 1 -json out.json
#
# The Go caches and temporary build files live under .bench_build/ too,
# so a run writes nothing outside the checkout, and the build never
# reaches the network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C cmd/mcbench build -o "$out/mcbench" .
exec "$out/mcbench" "$@"
