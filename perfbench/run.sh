#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload wan-clone --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
