#!/usr/bin/env bash
# Runs every fuzz target of the packages that decode untrusted input
# (serve, sim, trace, erasure), of the sparse LU, whose value-numbered
# four-lane programs must stay bit for bit its scalar kernels on any
# pattern, any source map and any values, Inf and NaN included
# (linalg/sparse), and of the chain
# models, whose rate-class emitter must stay bit for bit the per-edge
# recursion on any inputs (model), for a fixed time each. Plain `go test` runs only the seed corpora; this mutates past
# them. A failing input is written under the package's testdata/fuzz/
# and fails the script.
#
# Run from anywhere: ./scripts/fuzz_smoke.sh [seconds-per-target]
# (default 10).
set -euo pipefail

cd "$(dirname "$0")/.."

fuzztime=${1:-10}s
for pkg in serve sim trace erasure linalg/sparse model; do
    for target in $(grep -ho '^func Fuzz[A-Za-z0-9_]*' "internal/$pkg"/*_test.go | cut -d' ' -f2); do
        echo "fuzz  $pkg.$target for $fuzztime"
        go test -run '^$' -fuzz "^$target\$" -fuzztime "$fuzztime" -parallel 2 "./internal/$pkg"
    done
done
