#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload solo --seed 1 --seconds 30 --trace 0
# Run from the repository root. The build cache, the binary and the
# traced runs' spans and CPU profiles all stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# Keep the toolchain's caches, config and telemetry inside the checkout,
# and build offline with the installed toolchain only.
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" -out "$out" "$@"
