#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments:
#
#   sh bench/run.sh --workload forest_10ms --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build
# cache included, stays under .bench_build (or $CARGO_TARGET_DIR when
# set), so the run reads and writes nothing outside the checkout.
set -eu
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$out/hmd-bench10ms" .)
exec "$out/hmd-bench10ms" "$@"
