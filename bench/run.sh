#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Everything the Go toolchain writes (build cache, module cache, its
# config directory) and everything the benchmark writes (logs, traces)
# stays under <checkout>/.bench_build, so a run touches nothing outside
# the checkout it was started from.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/clockrsm-bench" .)
cd "$root"
exec "$out/clockrsm-bench" "$@"
