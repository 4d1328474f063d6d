#!/usr/bin/env sh
# Ratchet for the ROADMAP's tracked design metric: the lines of code in
# `crates/executor/src` + `crates/planner/src` (tests and comments
# included — the number the ROADMAP has quoted since the re-anchor) must
# not exceed the ceiling committed here. A PR that shrinks the engine
# lowers CEILING to its result in the same change; one that has to grow
# it raises it on purpose, in review, instead of in prose.
set -eu
cd "$(dirname "$0")/.."
CEILING=10219
lines=$(cat crates/executor/src/*.rs crates/planner/src/*.rs | wc -l)
echo "crates/executor/src + crates/planner/src: $lines lines (ceiling $CEILING)"
if [ "$lines" -gt "$CEILING" ]; then
    echo "error: over the line budget by $((lines - CEILING)) —" \
        "delete something, or raise CEILING in ci/loc_budget.sh and say why" >&2
    exit 1
fi
