#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload table1-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binary,
# toolchain config) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOTMPDIR="$out/tmp"
export CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
