#!/usr/bin/env bash
# Lists every `pub fn` defined under the workspace's own crates (not
# crates/vendor) whose name appears nowhere in the Rust sources except in
# `fn NAME` definitions, and exits 1 if there is any.
#
# The search covers crates/, tests/, examples/, src/ and perfbench/src
# (perfbench/ is only read: it builds the released binaries, so a name
# it uses counts as a caller). Comments count as appearances, so an item
# a doc names is never reported. A name shared by several items counts as
# used if any of them is; the check can miss a dead function, but never
# reports a live one.
#
# Usage: scripts/unused_pub_fns.sh   (from any directory)
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
        FNR == 1 { pass++ }
        # pass 1: every identifier and every `fn NAME` in the searched sources
        pass == 1 {
            line = $0
            while (match(line, /fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
                def = substr(line, RSTART, RLENGTH)
                sub(/^fn[ \t]+/, "", def)
                defs[def]++
                line = substr(line, RSTART + RLENGTH)
            }
            n = split($0, words, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) if (words[i] != "") seen[words[i]]++
            next
        }
        # pass 2: `pub fn NAME` in the workspace crates
        {
            line = $0
            while (match(line, /pub[ \t]+((const|unsafe|async|extern[ \t]+"[^"]*")[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
                name = substr(line, RSTART, RLENGTH)
                sub(/.*fn[ \t]+/, "", name)
                if (seen[name] == defs[name]) print name
                line = substr(line, RSTART + RLENGTH)
            }
        }
    ' <(sources | sort | xargs cat) <(own_sources | sort | xargs cat) | sort -u
)

if [ -n "$unused" ]; then
    echo "pub fns with no reference outside their definitions:"
    echo "$unused"
    exit 1
fi
echo "every pub fn is referenced"
