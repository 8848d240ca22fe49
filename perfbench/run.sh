#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload <mapper|analyze|live|query> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Every build and run artifact (Go build cache, binary, scratch trace
# directories, span logs) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOENV=off CGO_ENABLED=0

bin="$out/bin/perfbench"
(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$bin" .) >&2
exec "$bin" "$@"
