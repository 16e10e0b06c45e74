#!/usr/bin/env bash
# Runs the tests of the given packages that match PATTERN under the race
# detector COUNT times. It first checks that every |-separated
# alternative of PATTERN matches at least one test, fuzz target or
# example in those packages: go test -run passes silently on a pattern
# that matches nothing, so a renamed or deleted test would otherwise
# leave a repeated race step green while it runs less than it says.
#
# Usage: ./scripts/race_repeat.sh COUNT PATTERN PKG...
set -euo pipefail

cd "$(dirname "$0")/.."

count=$1
pattern=$2
shift 2
listed=$(go test -list "$pattern" "$@" | grep -E '^(Test|Fuzz|Example)' || true)
IFS='|' read -r -a alternatives <<< "$pattern"
missing=0
for alt in "${alternatives[@]}"; do
    if ! grep -Eq -- "$alt" <<< "$listed"; then
        echo "race_repeat: -run alternative '$alt' matches no test in $*" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    exit 1
fi
go test -race -count="$count" -timeout 10m -run "$pattern" "$@"
