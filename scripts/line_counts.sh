#!/usr/bin/env bash
# Prints the two line counts ROADMAP tracks:
#
#   crates   every line of every Rust file under crates/, except the
#            vendored stand-ins under crates/vendor
#   serving  the serving files: crates/core/src/serve.rs,
#            crates/bench/src/protocol/, crates/bench/src/net/ and
#            crates/bench/src/bin/qross_serve.rs
#
# Lines are counted as `wc -l` counts them (comments, docs and tests
# included), so a change can cite the command instead of a hand count.
#
# Usage: scripts/line_counts.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    xargs cat | wc -l | tr -d ' '
}

crates=$(find crates -path crates/vendor -prune -o -name '*.rs' -type f -print | count)
serving=$(
    {
        echo crates/core/src/serve.rs
        find crates/bench/src/protocol crates/bench/src/net -name '*.rs' -type f
        echo crates/bench/src/bin/qross_serve.rs
    } | count
)

echo "crates  $crates"
echo "serving $serving"
