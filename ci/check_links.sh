#!/usr/bin/env sh
# Link checker for the repo's documentation. Markdown: every relative
# link target in README.md, ROADMAP.md and docs/*.md must exist on
# disk, and every in-file `#anchor` must match a heading in the target
# file. External (http/https/mailto) links are not touched — no
# network. Keeps the docs cross-links (ARCHITECTURE.md ↔
# scheduler_v2.md ↔ fault_model.md ↔ larger_than_memory.md) from
# rotting as files move. Rust doc comments: every `//!` / `///` mention
# of a repository file (`docs/ARCHITECTURE.md`, `report.rs`, …) must
# name one that exists — by its path from the root or any suffix of it,
# so `experiments/mod.rs` and a bare `fig5.rs` both resolve.
set -eu
cd "$(dirname "$0")/.."

status=0
for f in README.md ROADMAP.md docs/*.md; do
    [ -f "$f" ] || continue
    dir=$(dirname "$f")
    # Inline markdown links: [text](target). Reference-style links and
    # bare URLs are out of scope; code spans are filtered by requiring
    # the closing paren on the same line.
    links=$(grep -no '\[[^]]*\]([^)]*)' "$f" | sed 's/^\([0-9]*\):.*](\([^)]*\))$/\1 \2/') || true
    [ -n "$links" ] || continue
    echo "$links" | while read -r line target; do
        case "$target" in
            http://*|https://*|mailto:*) continue ;;
        esac
        anchor=${target#*#}
        path=${target%%#*}
        if [ -z "$path" ]; then
            check="$f" # same-file anchor
        else
            check="$dir/$path"
        fi
        if [ ! -e "$check" ]; then
            echo "$f:$line: broken link: $target (no such file: $check)"
            touch .link_check_failed
            continue
        fi
        # Anchor check, only for markdown targets with a fragment.
        if [ "$anchor" != "$target" ] && [ -n "$anchor" ]; then
            case "$check" in
                *.md)
                    # GitHub slug: lowercase headings, spaces -> dashes,
                    # punctuation dropped (approximation that covers the
                    # headings this repo uses).
                    found=$(sed -n 's/^#\{1,6\} \(.*\)$/\1/p' "$check" \
                        | tr '[:upper:]' '[:lower:]' \
                        | sed 's/[^a-z0-9 -]//g; s/ /-/g' \
                        | grep -cx "$anchor") || true
                    if [ "${found:-0}" -eq 0 ]; then
                        echo "$f:$line: broken anchor: $target (no heading #$anchor in $check)"
                        touch .link_check_failed
                    fi
                    ;;
            esac
        fi
    done
done

# File mentions in doc comments, against every tracked-looking file.
list=$(mktemp)
find . -type f ! -path './target/*' ! -path './.git/*' ! -path '*/.bench_build/*' \
    | sed 's|^\./||' > "$list"
dangling=$(grep -rnE '^[[:space:]]*//[/!]' --include='*.rs' crates src tests examples | awk -v list="$list" '
    BEGIN {
        while ((getline path < list) > 0) {
            n = split(path, part, "/")
            suffix = part[n]
            have[suffix] = 1
            for (i = n - 1; i >= 1; i--) { suffix = part[i] "/" suffix; have[suffix] = 1 }
        }
    }
    {
        i = index($0, ":"); file = substr($0, 1, i - 1); rest = substr($0, i + 1)
        j = index(rest, ":"); line = substr(rest, 1, j - 1); text = substr(rest, j + 1)
        while (match(text, /[A-Za-z0-9_.\/-]*[A-Za-z0-9_-]\.(md|rs|sh|yml|toml|json)/)) {
            ref = substr(text, RSTART, RLENGTH)
            text = substr(text, RSTART + RLENGTH)
            sub(/^\.\//, "", ref)
            if (!(ref in have)) print file ":" line ": doc comment names a missing file: " ref
        }
    }')
rm -f "$list"
if [ -n "$dangling" ]; then
    echo "$dangling"
    touch .link_check_failed
fi

if [ -e .link_check_failed ]; then
    rm -f .link_check_failed
    echo "error: broken links — fix the targets above" >&2
    status=1
fi
exit $status
