#!/usr/bin/env bash
# Builds the workload benchmark from the checkout's sources and runs it
# with the given flags, e.g.
#
#   bash nblperf/run.sh --workload sample-uf20 --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain and the benchmark write (build cache,
# binary, temporary verdict stores) lands under .bench_build/ at the
# root of the checkout; nothing outside the checkout is written.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/nblperf" .)
exec "$build/nblperf" "$@"
