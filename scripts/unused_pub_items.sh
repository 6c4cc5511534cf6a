#!/usr/bin/env bash
# Lists every `pub` fn, struct, enum, trait, type alias, const, static or
# union defined under the workspace's own crates (not crates/vendor)
# that nothing but its own file's tests uses, as `path: name`, and exits
# 1 if there is any.
#
# The search covers crates/, tests/, examples/, src/ and perfbench/src
# (perfbench/ is only read: it builds the released binaries, so a name
# it uses counts as a use). Only code is read: comments (doc comments
# and so doctests included), string and char literals (raw strings and
# strings that span lines included), `use` declarations and the header
# line of an inherent `impl` block are skipped. A definition is a
# keyword above followed by the name. Test code is a `#[cfg(test)]`
# module, or any other item, field or statement under `#[cfg(test)]`.
#
# Two rules decide what a use is:
#
#   free items  a `pub` item outside an `impl` block is used if its name
#               appears as a word outside its definitions (a bare name
#               can be a function value, as in `run(fig3)`);
#   methods     a `pub fn` inside an `impl` block is used only where it
#               is called or named as a path: `.name(`, `.name::<`, or
#               `Type::name` / `Self::name` / `::name`. A field, local or
#               free function of the same spelling is not a use of it.
#
# Either use counts if it sits in code that is not test code, or in the
# test code of another file. So an item whose only callers are its own
# unit tests is reported, while one an integration test under tests/ or
# another file's unit tests call is not.
#
# Blind spots: uses are matched by name, not resolved, so a dead item
# passes while anything else shares its spelling. Free functions named
# like common identifiers (`min`, `max`) pass through the variables and
# methods of that name, and methods named like std methods (`len`,
# `get`, `mean`) through the std calls. Struct fields and enum variants
# are not scanned. A live item is reported only if its sole uses sit in
# skipped lines (a `use`, an `impl` header, a comment or a literal).
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

scan=$(
    cat <<'AWK'
BEGIN {
    kind = "((const|unsafe|async|extern[ \t]+\"[^\"]*\")[ \t]+)*" \
        "(fn|struct|enum|trait|type|const|static([ \t]+mut)?|union)[ \t]+[A-Za-z_][A-Za-z0-9_]*"
    # not preceded by an identifier character or the quote of `'static`
    def_re = "(^|[^A-Za-z0-9_'])" kind
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
# `text` without its comments and with each string or char literal
# emptied (to `""` or `''`). A block comment or a string left open at
# the end of the line carries over to the next one: `block` holds the
# comment's nesting depth, `quote` the string's closing delimiter.
function code_of(text,    out, tok, pre, at) {
    out = ""
    while (text != "") {
        if (block) {
            if (!match(text, /\/\*|\*\//)) return out
            block += substr(text, RSTART, 2) == "/*" ? 1 : -1
            text = substr(text, RSTART + 2)
            if (!block) out = out " "
            continue
        }
        if (quote == "\"") {
            if (!match(text, /^([^"\\]|\\.)*"/)) return out
            text = substr(text, RLENGTH + 1)
            quote = ""
            out = out "\"\""
            continue
        }
        if (quote != "") {
            if (!(at = index(text, quote))) return out
            text = substr(text, at + length(quote))
            quote = ""
            out = out "\"\""
            continue
        }
        if (!match(text, /\/[\/*]|r#*"|["']/)) return out text
        tok = substr(text, RSTART, RLENGTH)
        pre = substr(text, 1, RSTART - 1)
        text = substr(text, RSTART + RLENGTH)
        if (tok == "//") return out pre
        if (tok == "/*") {
            block = 1
            out = out pre
        } else if (tok == "'") {
            # a char literal, or else a lifetime or loop label
            if (match(text, /^(\\.[^']*|[^'\\]|[\200-\377]+)'/)) {
                text = substr(text, RLENGTH + 1)
                out = out pre "''"
            } else {
                out = out pre "'"
            }
        } else if (tok == "\"" || pre ~ /[A-Za-z0-9_]$/ && pre !~ /(^|[^A-Za-z0-9_])b$/) {
            # a plain string (an `r` that ends an identifier is no prefix)
            if (tok != "\"") pre = pre "r"
            quote = "\""
            out = out pre
        } else {
            # a raw string closes on `"` and as many `#` as it opened with
            quote = "\"" substr(tok, 2, length(tok) - 2)
            out = out pre
        }
    }
    return out
}
# adds each `::name` and each `.name(` / `.name::<` in `text` to `names`
function paths_and_calls(text, names,    line, name) {
    line = text
    while (match(line, /::[ \t]*[A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr(line, RSTART, RLENGTH)
        sub(/^::[ \t]*/, "", name)
        names[name] = 1
        line = substr(line, RSTART + RLENGTH)
    }
    line = text
    while (match(line, /\.[ \t]*[A-Za-z_][A-Za-z0-9_]*[ \t]*(\(|::<)/)) {
        name = substr(line, RSTART + 1, RLENGTH - 1)
        sub(/^[ \t]*/, "", name)
        sub(/[^A-Za-z0-9_].*/, "", name)
        names[name] = 1
        line = substr(line, RSTART + RLENGTH)
    }
}
FNR == 1 {
    in_test = 0; test_item = 0; in_use = 0
    block = 0; quote = ""
    depth = 0; impl_open = 0
}
# classify the line: code, test code, or skipped; and follow the
# braces, so that a `pub fn` can tell whether it sits in an `impl` block
{
    code = code_of($0)
    line_depth = depth
    opens = code; closes = code
    depth += gsub(/\{/, "", opens) - gsub(/\}/, "", closes)
    if (!impl_open && code ~ /^[ \t]*(unsafe[ \t]+)?impl[^A-Za-z0-9_]/) {
        impl_open = 1
        impl_depth = line_depth
        impl_entered = 0
    }
    in_method_scope = impl_open && line_depth > impl_depth
    if (impl_open && depth > impl_depth) impl_entered = 1
    if (impl_open && impl_entered && depth <= impl_depth) impl_open = 0

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
# pass 1: identifiers, calls and definitions of every searched file
pass != 2 {
    if (skip) next
    n = split(code, words, /[^A-Za-z0-9_]+/)
    if (test) {
        for (i = 1; i <= n; i++) if (words[i] != "" && !((words[i], FILENAME) in test_files)) {
            test_files[words[i], FILENAME] = 1
            test_file_count[words[i]]++
        }
        split("", names)
        paths_and_calls(code, names)
        for (name in names) if (!((name, FILENAME) in test_calls)) {
            test_calls[name, FILENAME] = 1
            test_call_count[name]++
        }
        next
    }
    line = code
    while (match(line, def_re)) {
        defs[last_word(substr(line, RSTART, RLENGTH))]++
        line = substr(line, RSTART + RLENGTH)
    }
    for (i = 1; i <= n; i++) if (words[i] != "") seen[words[i]]++
    split("", names)
    paths_and_calls(code, names)
    for (name in names) called[name] = 1
    next
}
# pass 2: `pub` definitions in the workspace crates
!test && !skip {
    line = code
    while (match(line, pub_re)) {
        def = substr(line, RSTART, RLENGTH)
        name = last_word(def)
        line = substr(line, RSTART + RLENGTH)
        if (in_method_scope && def ~ /fn[ \t]+[A-Za-z0-9_]+$/) {
            if (name in called) continue
            others = test_call_count[name] - ((name, FILENAME) in test_calls)
        } else {
            if (seen[name] > defs[name]) continue
            others = test_file_count[name] - ((name, FILENAME) in test_files)
        }
        if (others == 0) print FILENAME ": " name
    }
}
AWK
)

unused=$(LC_ALL=C awk "$scan" "${searched[@]}" pass=2 "${own[@]}" | sort -u)

if [ -n "$unused" ]; then
    echo "pub items used by nothing but their own file's tests:"
    echo "$unused"
    exit 1
fi
echo "every pub item is referenced"
