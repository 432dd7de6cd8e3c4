#!/bin/sh
# run.sh builds tdtrain, tdserve (with the checked-in default.pgo) and the
# benchmark from source, then runs the benchmark with the given flags:
#
#   sh tdbench/run.sh --workload translate_fresh --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build output, cache and scratch
# file stays under .bench_build/.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -pgo=auto -o "$out/bin/tdserve" ./cmd/tdserve
go build -o "$out/bin/tdtrain" ./cmd/tdtrain
go -C tdbench build -o "$out/bin/tdbench" .
exec "$out/bin/tdbench" -bin "$out/bin" -work "$out" "$@"
