#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace); see README.md.
# Run it from the repository root. Every build and run artifact stays under
# the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
# The go command keeps its settings and telemetry under the user config dir.
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C wallbench build -o "$build/wallbench-bin" .
exec "$build/wallbench-bin" -out "$build/wallbench" "$@"
