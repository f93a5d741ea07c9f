#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload sharegpt-paced --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ in that root, so nothing is written outside the
# checkout. Without the program's sources next to it the build fails and the
# script exits non-zero before printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# GOTMPDIR and XDG_CONFIG_HOME keep the go command's temporary files and
# telemetry counters in the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
