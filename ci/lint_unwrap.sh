#!/usr/bin/env sh
# Unwrap lint for the fault-isolation surface: in the scheduler, the
# parallel pipeline, the hash-table kernel with the join and aggregate
# operators on it, the operator protocol with the scan, filter and sort
# operators, the predicate and tuple-layout decode path under them, the
# sorter, the spill codec, the Smooth Scan operator with its Result
# Cache, and the planner's `Database` facade that lowers plans onto
# them, every `.unwrap()` / `.expect(`
# outside `#[cfg(test)]` must either be replaced with a typed error or
# sit within $WINDOW lines of an `// invariant:` comment stating why it
# cannot fire (see docs/fault_model.md). Keeps panic containment from
# silently re-growing panic sites it would then have to contain.
set -eu
cd "$(dirname "$0")/.."
WINDOW=15
status=0
for f in \
    crates/executor/src/schedule.rs \
    crates/executor/src/parallel.rs \
    crates/executor/src/hashtable.rs \
    crates/executor/src/join.rs \
    crates/executor/src/agg.rs \
    crates/executor/src/operator.rs \
    crates/executor/src/scan.rs \
    crates/executor/src/expr.rs \
    crates/executor/src/filter.rs \
    crates/executor/src/sort.rs \
    crates/executor/src/extsort.rs \
    crates/executor/src/spill.rs \
    crates/planner/src/db.rs \
    crates/core/src/operator.rs \
    crates/core/src/result_cache.rs \
    crates/types/src/layout.rs \
    crates/types/src/spill.rs; do
    bad=$(awk -v w="$WINDOW" '
        /#\[cfg\(test\)\]/ { exit }
        /\/\/ invariant:/ { last = NR }
        /\.unwrap\(\)|\.expect\(/ {
            if (last == 0 || NR - last > w) print FILENAME ":" NR ": " $0
        }
    ' "$f")
    if [ -n "$bad" ]; then
        echo "$bad"
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "error: unannotated unwrap/expect in audited files —" \
        "return a typed error or add an '// invariant:' comment" >&2
fi
exit $status
