#!/usr/bin/env bash
# Builds lmsurvey and the benchmark from the checkout it is run in, then
# runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload tokyo-wire --seed 1 --seconds 30 --trace 0
#
# Everything it builds, caches or writes stays under .bench_build/ in
# the current directory: the Go build cache, both binaries, the seeded
# inputs, daemon state and traces.
set -euo pipefail

build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off
mkdir -p "$GOTMPDIR" "$build/bin"

go build -o "$build/bin/lmsurvey" ./cmd/lmsurvey
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -build "$build" "$@"
