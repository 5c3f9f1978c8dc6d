#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload fine-sps --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache and the binary) goes to
# .bench_build/ in the checkout; nothing is fetched over the network.
set -euo pipefail
root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/go-cache"
export GOMODCACHE="${build}/go-mod"
export GOPATH="${build}/go-path"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export CGO_ENABLED=0
go -C "${root}/perfbench" build -o "${build}/perfbench" .
exec "${build}/perfbench" "$@"
