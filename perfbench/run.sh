#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 20 --trace 0
#
# Run from the root of the checkout. Every build output, the Go build
# cache included, stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
# Only a checkout that is itself a git work tree has a commit to name.
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	export PERFBENCH_GIT_SHA="$(git -C "$root" rev-parse HEAD)"
fi
exec "$build/perfbench-bin" "$@"
