#!/usr/bin/env bash
# Non-test lines of `crates/*/src`: every `.rs` file counted up to (not
# including) its first `#[cfg(test)]` line. Prints one `<crate> <lines>`
# row per crate, then the workspace total alone on the last line. The
# total is the figure ROADMAP and CHANGES quote for simplicity changes.
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
        FNR == 1 {
            counting = 1
            crate = FILENAME
            sub(/\/src\/.*/, "", crate)
            sub(/.*\//, "", crate)
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { lines++; per[crate]++ }
        END {
            n = 0
            for (c in per) names[++n] = c
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && names[j - 1] > names[j]; j--) {
                    t = names[j]; names[j] = names[j - 1]; names[j - 1] = t
                }
            for (i = 1; i <= n; i++) printf "%-8s %6d\n", names[i], per[names[i]]
            print lines + 0
        }'
