#!/usr/bin/env bash
# Hand mutants of the arbitration rules, each of which the executable spec
# (tests/tests/arb_spec.rs) must kill on its own.
#
#   scripts/mutants.sh [ref]        (default HEAD)
#
# Exports <ref> with `git archive` into a temp dir, then per mutant applies
# one sed patch, runs only `cargo test --test arb_spec` there (debug, one
# shared target dir) and restores the file. Prints one line per mutant and
# exits non-zero if a patch does not apply or a mutant survives. Nothing in
# the repository is touched. A run takes a few minutes.
set -euo pipefail

ref=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
git -C "$root" archive "$ref" | tar -x -C "$work/src"
export CARGO_TARGET_DIR=$work/target

arb=crates/core/src/arbitration.rs
rep=crates/core/src/replicator.rs
# name | file | sed expression
mutants=(
    "divergence >= to >|$arb|s/lead >= normalised(i, r) + d/lead > normalised(i, r) + d/"
    "stall > to >=|$arb|s/self.reads > r.count + slack/self.reads >= r.count + slack/"
    "divergence healthy > 1 to > 0|$arb|s/self.healthy > 1 \&\& r.fault.is_none() \&\& lead/self.healthy > 0 \&\& r.fault.is_none() \&\& lead/"
    "stall healthy > 1 to > 0|$arb|s/l.healthy > 1 \&\& r.fault.is_none() \&\& self.reads/l.healthy > 0 \&\& r.fault.is_none() \&\& self.reads/"
    "sampled stride div_ceil to floor|$arb|s/self.rows\[0\].count.div_ceil(k)/self.rows[0].count \/ k/"
    "sample tick ignores the stride|$rep|s/let tick = stride == 1 || self.writes.is_multiple_of(stride);/let tick = true;/"
    "overflow healthy > 1 to > 0|$rep|s/self.latches.healthy_count() > 1/self.latches.healthy_count() > 0/"
)

survived=0
for m in "${mutants[@]}"; do
    IFS='|' read -r name file expr <<<"$m"
    cp "$work/src/$file" "$work/orig"
    sed -i "$expr" "$work/src/$file"
    if cmp -s "$work/orig" "$work/src/$file"; then
        echo "NOT APPLIED  $name ($file)"
        exit 1
    fi
    if (cd "$work/src" && cargo test -q --offline -p rtft-tests --test arb_spec) >"$work/log" 2>&1; then
        echo "SURVIVED     $name"
        survived=$((survived + 1))
    elif grep -q "test result: FAILED" "$work/log"; then
        failed=$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$work/log" | paste -sd ' ')
        echo "killed       $name: $failed"
    else
        echo "NO BUILD     $name"
        tail -20 "$work/log"
        exit 1
    fi
    cp "$work/orig" "$work/src/$file"
done
[ "$survived" -eq 0 ]
