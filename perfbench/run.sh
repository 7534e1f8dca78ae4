#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument passes through to the binary:
#
#   bash perfbench/run.sh --workload store-local --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh repeat --workload store-local --seeds 1-10 --out a.json
#
# Build output, the Go build cache and the benchmark's scratch files all
# stay under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
  exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters here too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
