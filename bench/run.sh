#!/usr/bin/env bash
# Builds the serving benchmark and runs it from the repository root.
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
#
# Everything the build leaves behind (Go build cache, module cache, Go's
# config and telemetry files, temp files, binaries) stays in .bench_build/
# at the repository root, so a run reads and writes only inside the
# checkout. The build never touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$build/oij-bench" .)
exec "$build/oij-bench" "$@"
