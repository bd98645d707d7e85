#!/usr/bin/env bash
# Builds the benchmark driver from the sources of this checkout and runs it
# with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload rpc-echo --seed 1 --seconds 10 --trace 0
#
# Every build product and the Go build cache stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
if ! (
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
	cd perfbench && go build -o "$out/perfbench" .
) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
