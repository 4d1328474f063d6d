#!/usr/bin/env sh
# Unwrap lint for the engine: in every source file under `crates/*/src`
# — the experiment harness `crates/bench` excepted, whose job is to
# assert — every `.unwrap()` / `.expect(` outside `#[cfg(test)]` must
# either be replaced with a typed error or sit within $WINDOW lines of
# an `// invariant:` comment stating why it cannot fire (see
# docs/fault_model.md). Keeps panic containment from silently
# re-growing panic sites it would then have to contain.
set -eu
cd "$(dirname "$0")/.."
WINDOW=15
status=0
for f in $(find crates/*/src -name '*.rs' ! -path 'crates/bench/*' | sort); do
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
    echo "error: unannotated unwrap/expect in engine sources —" \
        "return a typed error or add an '// invariant:' comment" >&2
fi
exit $status
