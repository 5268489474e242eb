#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the current checkout
# (Go's build cache, temporary files and telemetry included, so nothing is
# written outside it) and runs it with the arguments given. Run it from the
# root of the checkout:
#
#   bash bench/run.sh                                  every workload and metric, human-readable
#   bash bench/run.sh --workload tiga-micro-sat --seed 42 --seconds 16 --trace 0
#   bash bench/run.sh -compare a.json b.json
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
