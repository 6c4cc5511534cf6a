#!/usr/bin/env bash
# Lists every `pub` fn, struct, enum, trait, type alias, const, static or
# union defined under the workspace's own crates (not crates/vendor)
# whose name appears nowhere in the Rust sources except in definitions,
# and exits 1 if there is any.
#
# The search covers crates/, tests/, examples/, src/ and perfbench/src
# (perfbench/ is only read: it builds the released binaries, so a name
# it uses counts as a use). A definition is a keyword above followed by
# the name; every other appearance counts as a use, including one in the
# defining file, an `impl` block, a `use` re-export or a comment. So an
# item a doc names is never reported, and neither is a type whose only
# uses are its own `impl` and tests. A name shared by several items
# counts as used if any of them is; the check can miss a dead item, but
# never reports a live one.
#
# Usage: scripts/unused_pub_items.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

roots=(crates tests examples src perfbench/src)
sources() {
    find "${roots[@]}" -name '*.rs' -type f 2>/dev/null
}
own_sources() {
    find crates -path crates/vendor -prune -o -name '*.rs' -type f -print
}

unused=$(
    awk '
        BEGIN {
            kind = "((const|unsafe|async|extern[ \t]+\"[^\"]*\")[ \t]+)*" \
                "(fn|struct|enum|trait|type|const|static([ \t]+mut)?|union)[ \t]+[A-Za-z_][A-Za-z0-9_]*"
            # not preceded by an identifier character or the quote of `'"'"'static`
            def_re = "(^|[^A-Za-z0-9_'"'"'])" kind
            pub_re = "(^|[^A-Za-z0-9_])pub[ \t]+" kind
        }
        # the name that ends a matched definition
        function last_word(text) {
            sub(/.*[ \t]/, "", text)
            return text
        }
        FNR == 1 { pass++ }
        # pass 1: every identifier and every definition in the searched sources
        pass == 1 {
            line = $0
            while (match(line, def_re)) {
                defs[last_word(substr(line, RSTART, RLENGTH))]++
                line = substr(line, RSTART + RLENGTH)
            }
            n = split($0, words, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) if (words[i] != "") seen[words[i]]++
            next
        }
        # pass 2: `pub` definitions in the workspace crates
        {
            line = $0
            while (match(line, pub_re)) {
                name = last_word(substr(line, RSTART, RLENGTH))
                if (seen[name] == defs[name]) print name
                line = substr(line, RSTART + RLENGTH)
            }
        }
    ' <(sources | sort | xargs cat) <(own_sources | sort | xargs cat) | sort -u
)

if [ -n "$unused" ]; then
    echo "pub items with no reference outside their definitions:"
    echo "$unused"
    exit 1
fi
echo "every pub item is referenced"
