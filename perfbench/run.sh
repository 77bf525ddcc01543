#!/bin/sh
# Builds the benchmark and the daemons under test from the checkout it is
# started in, then runs the benchmark. Run from the repository root:
#
#	sh perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
#
# The Go build cache, binaries and daemon store directories all live under
# .bench_build in the checkout; the module proxy is off, so a missing
# dependency fails the build instead of reaching the network.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mtserve" ] || [ ! -d "$root/cmd/mtcoord" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/mtserve and cmd/mtcoord are needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off
go build -o "$out/bin/mtserve" ./cmd/mtserve
go build -o "$out/bin/mtcoord" ./cmd/mtcoord
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out/work" "$@"
