#!/usr/bin/env bash
# Builds the benchmark (and the repository it measures) from source and
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and scratch files.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/gocache" "$work/gopath" "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOMODCACHE="$work/gopath/pkg/mod"
export GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" GOTOOLCHAIN=local GOPROXY=off
export GOWORK=off

commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -trimpath \
	-ldflags "-X repro/internal/version.Commit=$commit" \
	-o "$work/perfbench" .)
exec "$work/perfbench" -work "$work" "$@"
