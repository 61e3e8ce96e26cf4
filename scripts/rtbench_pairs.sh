#!/usr/bin/env bash
# The ROADMAP claim protocol as one command: alternating parent/change
# pairs of `rtbench --workload all`, untraced and traced, then `compare`.
#
#   scripts/rtbench_pairs.sh <parent-ref> <pairs> <first-seed>
#
# Pair i runs seed <first-seed>+i on both sides; even pairs run the parent
# first, odd pairs the change. Use >= 10 pairs and seeds not used while
# writing the change. Each side is built once, from its own checkout into
# its own target dir, so each binary's `rtbench/out/` scratch is its own.
# Everything lands under target/rtbench-pairs/ (git-ignored).
set -euo pipefail

if [ "$#" -ne 3 ]; then
    echo "usage: $0 <parent-ref> <pairs> <first-seed>" >&2
    exit 2
fi
parent_ref=$1
pairs=$2
first_seed=$3

root=$(git rev-parse --show-toplevel)
work=$root/target/rtbench-pairs
parent=$work/parent

# The parent's committed files, exported fresh: no registration left in
# .git to prune, and a re-run never measures a stale checkout.
rm -rf "$parent"
mkdir -p "$parent"
git -C "$root" archive "$parent_ref" | tar -x -C "$parent"

build() { # <checkout> <target-dir>
    cargo build --release --offline --quiet \
        --manifest-path "$1/rtbench/Cargo.toml" --target-dir "$2"
}
build "$parent" "$work/target-parent"
build "$root" "$work/target-change"

parent_bin=$work/target-parent/release/rtbench
change_bin=$work/target-change/release/rtbench
parent_out=$work/parent.jsonl
change_out=$work/change.jsonl
rm -f "$parent_out" "$change_out"

# A run that fails its own gate exits non-zero but still writes its line;
# `compare` reports it (failed_share), so keep going.
run() { # <bin> <out> <seed>
    "$1" --workload all --seed "$3" --out "$2" >/dev/null || true
    "$1" --workload all --seed "$3" --trace --out "$2" >/dev/null || true
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    echo "pair $((i + 1))/$pairs, seed $seed" >&2
    if ((i % 2 == 0)); then
        run "$parent_bin" "$parent_out" "$seed"
        run "$change_bin" "$change_out" "$seed"
    else
        run "$change_bin" "$change_out" "$seed"
        run "$parent_bin" "$parent_out" "$seed"
    fi
done

"$change_bin" compare "$parent_out" "$change_out"
