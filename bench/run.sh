#!/bin/sh
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root, for example
#
#	sh bench/run.sh --workload sweep-paper --seed 42 --seconds 20 --trace 0
#
# The build cache, Go's own config files and the binary all stay under
# .bench_build in the current directory, so nothing is written outside it.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$build/exegpt-bench" .)
exec "$build/exegpt-bench" "$@"
