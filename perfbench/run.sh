#!/usr/bin/env bash
# Builds the benchmark harness and cmd/vmsim from source and runs one
# benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 24 --trace 0
#
# Every build output, the Go build cache and the runs' stores live under
# .bench_build in the current directory, so the benchmark reads and
# writes nothing outside the checkout it runs in.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
