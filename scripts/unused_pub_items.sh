#!/usr/bin/env bash
# Lists every `pub` fn, struct, enum, trait, type alias, const, static or
# union defined under the workspace's own crates (not crates/vendor)
# that nothing but its own file's tests uses, as `path: name`, and exits
# 1 if there is any.
#
# The search covers crates/, tests/, examples/, src/ and perfbench/src
# (perfbench/ is only read: it builds the released binaries, so a name
# it uses counts as a use). Only code is read: comments (doc comments
# and so doctests included), `use` declarations and the header line of
# an `impl` block are skipped. A definition is a keyword above followed
# by the name. Test code is a `#[cfg(test)]` module, or any other item,
# field or statement under `#[cfg(test)]`. A name is used if it appears
# outside its definitions in code that is not test code, or in the test
# code of another file. So an item whose only callers are its own unit
# tests is reported, while one an integration test under tests/ or
# another file's unit tests call is not.
#
# A name shared by several items counts as used if any of them is, so
# the check can miss a dead item; it reports a live one only if its sole
# uses sit in skipped lines (a `use`, an `impl` header or a comment).
#
# Usage: scripts/unused_pub_items.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

roots=(crates tests examples src perfbench/src)
sources() {
    find "${roots[@]}" -path crates/vendor -prune -o -name '*.rs' -type f -print 2>/dev/null
}
own_sources() {
    find crates -path crates/vendor -prune -o -name '*.rs' -type f -print
}

# Sources are read twice: pass 1 over every searched file, then pass 2
# (from the `pass=2` argument on) over the workspace crates' own files.
mapfile -t searched < <(sources | sort)
mapfile -t own < <(own_sources | sort)

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
        function indent_of(text) {
            match(text, /^[ \t]*/)
            return RLENGTH
        }
        # `text` without a trailing `//` comment; a `//` after an odd
        # number of double quotes is taken to sit inside a string
        function strip_comment(text,    rest, at, before, quotes) {
            rest = text
            before = ""
            while ((at = index(rest, "//")) > 0) {
                before = before substr(rest, 1, at - 1)
                quotes = before
                gsub(/\\"|'"'"'"'"'"'/, "", quotes)
                if (gsub(/"/, "", quotes) % 2 == 0) return before
                before = before "//"
                rest = substr(rest, at + 2)
            }
            return before rest
        }
        FNR == 1 { in_test = 0; test_item = 0; in_use = 0 }
        # classify the line: code, test code, or skipped
        {
            code = strip_comment($0)
            if (in_test) {
                test = 1
                if (indent_of($0) == test_indent && code ~ /^[ \t]*[\]\)}]/) in_test = 0
            } else if (test_item) {
                # the line after `#[cfg(test)]` starts a test item
                test_item = 0
                test = 1
                if (code !~ /[;,][ \t]*$/) {
                    in_test = 1
                    test_indent = attr_indent
                }
            } else {
                test = 0
            }
            if (code ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/) {
                test_item = 1
                attr_indent = indent_of($0)
                next
            }
            skip = 0
            if (in_use) {
                skip = 1
            } else if (code ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?use[ \t]/) {
                skip = 1
                in_use = 1
            } else if (code ~ /^[ \t]*(unsafe[ \t]+)?impl[^A-Za-z0-9_]/) {
                # an inherent `impl NAME` header is skipped; a trait
                # `impl TRAIT for NAME` header counts as a use of TRAIT
                if (code ~ /[ \t]for[ \t]/) sub(/[ \t]for[ \t].*/, "", code)
                else skip = 1
            }
            if (in_use && code ~ /;[ \t]*$/) in_use = 0
        }
        # pass 1: identifiers and definitions of every searched file
        pass != 2 {
            if (skip) next
            if (test) {
                n = split(code, words, /[^A-Za-z0-9_]+/)
                for (i = 1; i <= n; i++) if (words[i] != "" && !((words[i], FILENAME) in test_files)) {
                    test_files[words[i], FILENAME] = 1
                    test_file_count[words[i]]++
                }
                next
            }
            line = code
            while (match(line, def_re)) {
                defs[last_word(substr(line, RSTART, RLENGTH))]++
                line = substr(line, RSTART + RLENGTH)
            }
            n = split(code, words, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) if (words[i] != "") seen[words[i]]++
            next
        }
        # pass 2: `pub` definitions in the workspace crates
        !test && !skip {
            line = code
            while (match(line, pub_re)) {
                name = last_word(substr(line, RSTART, RLENGTH))
                line = substr(line, RSTART + RLENGTH)
                if (seen[name] > defs[name]) continue
                others = test_file_count[name] - ((name, FILENAME) in test_files)
                if (others == 0) print FILENAME ": " name
            }
        }
    ' "${searched[@]}" pass=2 "${own[@]}" | sort -u
)

if [ -n "$unused" ]; then
    echo "pub items used by nothing but their own file's tests:"
    echo "$unused"
    exit 1
fi
echo "every pub item is referenced"
