#!/usr/bin/env bash
# Full paper-scale reproduction.
#
# Warms the measurement cache for the full 358,561-block main corpus
# (and the 3x training corpus Ithemal trains on) across every paper
# microarchitecture, then replays Tables 3-5 warm out of the same cache.
# Interrupt it — Ctrl-C, SIGTERM or `kill -9` — and rerun: every block
# measured so far is already in the cache and is never re-profiled, and
# the final tables are bit-identical to an uninterrupted run.
#
# Usage: scripts/paper_run.sh [THREADS] [CACHE_DIR]
#   THREADS    profiling threads per measurement (default 0: all cores)
#   CACHE_DIR  measurement cache root (default ./paper-cache)
#
# Environment:
#   BHIVE_SCALE_ARGS  corpus-scale flags (default "--paper-scale");
#       e.g. "--scale-family numeric=20000 --scale-family general=40000"
#       profiles a six-figure corpus weighted toward specific generator
#       families instead of the paper's exact census.
set -euo pipefail
cd "$(dirname "$0")/.."

threads="${1:-0}"
cache="${2:-paper-cache}"
scale_args="${BHIVE_SCALE_ARGS:---paper-scale}"

cargo build -q --release -p bhive
bhive=target/release/bhive

# Table 5 needs main-corpus ground truth on all three paper uarches,
# plus the disjoint training corpus per uarch for the learned model.
for uarch in ivb hsw skl; do
    for corpus in main training; do
        echo "== warming $corpus/$uarch" >&2
        # shellcheck disable=SC2086  # scale_args is a flag list
        "$bhive" measure $scale_args --seed 42 --uarch "$uarch" \
            --corpus "$corpus" --threads "$threads" --cache "$cache" \
            >/dev/null
    done
done

# The tables replay warm out of the cache.
for table in table3 table4 table5; do
    # shellcheck disable=SC2086
    "$bhive" "$table" $scale_args --seed 42 --threads "$threads" \
        --cache "$cache"
    echo
done
