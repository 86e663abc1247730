#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. The build cache, temporary files,
# the binary and the traced runs' output all stay under .bench_build/ there,
# and the Go toolchain neither downloads anything nor writes outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
