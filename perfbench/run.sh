#!/usr/bin/env bash
# Builds the benchmark program from the checkout it is run in and executes it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload broadcast-3k --seed 1 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build cache, Go config) stays under
# .bench_build in the checkout. The last stdout line is the JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a lifting checkout (go.mod, internal/ and perfbench/ must exist)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOTELEMETRY=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
