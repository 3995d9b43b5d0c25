#!/usr/bin/env bash
# Builds the shipped binaries (haste, haste-serve) and the benchmark driver
# from the source tree around this directory, then runs one benchmark
# workload. Run it from the repository root:
#
#   bash bench/run.sh --workload fleet-eval --seed 1 --seconds 16 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory (Go build cache, binaries, scratch inputs, result records).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/haste" || ! -d "$root/cmd/haste-serve" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (go.mod, cmd/haste, cmd/haste-serve and bench/ are required)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp" "$build/home" "$build/bin"
# Keep the toolchain's caches, temp files and config inside the checkout,
# and never reach for the network: there are no external modules.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/" ./cmd/haste ./cmd/haste-serve
(cd "$root/bench" && go build -o "$build/bin/hastebench" .)

exec "$build/bin/hastebench" --bin "$build/bin" --work "$build/work" --ref "$root/bench/ref" "$@"
