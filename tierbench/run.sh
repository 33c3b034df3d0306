#!/usr/bin/env bash
# Builds the tier benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash tierbench/run.sh --workload warm-direct --seed 1 --seconds 10 --trace 0
#
# Every build output (compiler cache, temporary files, the binary) stays
# under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/tierbench" && go build -o "$build/tierbench" .)
exec "$build/tierbench" "$@"
