#!/usr/bin/env bash
# Worker-count determinism from outside the process: every analysis is a
# pure function of its inputs, so a CLI's output must be byte-identical
# at -workers 1 and -workers 4. Checks four fan-outs end to end:
#
#   nsr-sensitivity                     core sweeps (all figures)
#   nsr-plan -optimize -json            plan enumeration + confirmation
#   nsr-simulate -fleet ...             fleet DES shards
#   nsr-trace -montecarlo ...           trace generation + replay
#
# Run from anywhere: ./scripts/workers_identical.sh
set -euo pipefail

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for cmd in nsr-sensitivity nsr-plan nsr-simulate nsr-trace; do
    go build -o "$tmp/$cmd" "./cmd/$cmd"
done

status=0
check() {
    local name=$1
    shift
    "$tmp/$1" "${@:2}" -workers 1 >"$tmp/$name.1"
    "$tmp/$1" "${@:2}" -workers 4 >"$tmp/$name.4"
    if cmp "$tmp/$name.1" "$tmp/$name.4"; then
        echo "ok    $name: -workers 1 and -workers 4 byte-identical ($(wc -c <"$tmp/$name.1") bytes)"
    else
        echo "FAIL  $name: -workers 1 and -workers 4 differ"
        status=1
    fi
}

check sensitivity nsr-sensitivity
check plan nsr-plan -optimize -json
check fleet nsr-simulate -fleet -bricks 50000 -years 2 -seed 11
check montecarlo nsr-trace -montecarlo 100 -seed 3
exit $status
