#!/usr/bin/env bash
# Non-test lines of `crates/*/src`: every `.rs` file counted up to (not
# including) its first `#[cfg(test)]` line, summed over the workspace.
# This is the figure ROADMAP and CHANGES quote for simplicity changes.
#
#   scripts/loc.sh
set -euo pipefail

if [ "$#" -ne 0 ]; then
    echo "usage: $0" >&2
    exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
find "$root"/crates/*/src -name '*.rs' -print0 \
    | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { lines++ }
        END { print lines + 0 }'
