#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload explain-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary, the go command's
# own config and telemetry files) stays under .bench_build/ in the
# current directory.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
(
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
	cd "$root/perfbench" && go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
