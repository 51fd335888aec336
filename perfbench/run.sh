#!/usr/bin/env bash
# Builds the benchmark and sss-server from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-inproc --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build output, cache and run
# artifact stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off

cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/sss-server" github.com/sss-paper/sss/cmd/sss-server
cd "$root"
exec "$out/bin/perfbench" -server "$out/bin/sss-server" -work "$out" "$@"
