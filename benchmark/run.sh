#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout
# and runs it. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload read-fit-sim --seed 1 --seconds 10 --trace 0
#
# Everything the build writes — Go's build cache included — stays in
# the checkout, and nothing is fetched.
set -euo pipefail
root=$(pwd)
[ -f "$root/go.mod" ] && [ -d "$root/internal" ] || {
	echo "benchmark/run.sh: run from the root of a checkout of the store (go.mod and internal/ are missing here)" >&2
	exit 3
}
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPROXY=off GOTOOLCHAIN=local
bin="$build/benchmark"
# Rebuild only when a source file is newer than the binary.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	# HOME too: the go command keeps telemetry counters under it.
	(cd "$root/benchmark" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build -o "$bin" .)
fi
exec "$bin" "$@"
