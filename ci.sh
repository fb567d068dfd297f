#!/usr/bin/env bash
# Offline CI gate: tier-1 verify + lints. No network access is assumed —
# the workspace has no external dependencies.
#
#   ./ci.sh          tier-1 (release build + full test suite) + the
#                    benchmark self-test + clippy (workspace and benchmark
#                    crate) + fmt check + the reduced simbench smoke gate
#                    (wheel ≥2× heap in the best of 3 interleaved
#                    wheel/heap rounds; Incast against the per-packet
#                    reference: ping-pong ≥20× fewer events, Qbox ≥5×,
#                    18-node incast ≥40×, fan-in bulk digest equal)
#   ./ci.sh --bench  additionally run the full simbench regression gate
#                    (--full: adds the 256-node sharded-engine speedup gate,
#                    the 1024/4096/16384/65536-node weak-scaling sweep with
#                    peak-memory reporting, the streaming-stat memory gate,
#                    the shard-state gate at 4096 nodes (resident shard
#                    state equal at 4 and 64 shards, ≥8× below the
#                    analytic dense layout),
#                    and the flyweight node-model gate at 16384 nodes
#                    (≥4× less peak heap, ≥3× faster world construction
#                    than the eager per-node boot, bit-identical digests);
#                    slower — the ≥4096-node points run only in this
#                    nightly lane)

set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

# The root package's tests already ran above; run every other workspace
# member's tests once.
echo "== workspace tests (excluding the root package) =="
cargo test -q --workspace --exclude picodriver-suite

echo "== benchmark self-test (perfbench at tiny shapes, BENCHMARK.json names) =="
cargo test -q --manifest-path perfbench/Cargo.toml

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --all --check || echo "(fmt drift, non-fatal)"

echo "== simbench smoke gate (queue speedup, coalescing vs per-packet reference, clamped events) =="
cargo run --release -p pico-bench --bin simbench -- --smoke

if [[ "${1:-}" == "--bench" ]]; then
    echo "== simbench regression gate (nightly --full variant) =="
    cargo run --release -p pico-bench --bin simbench -- --full
    # Night-over-night trending: when the previous nightly artifact was
    # restored (results/BENCH_prev.json), fail on >10% regression in
    # throughput or gate-ratio metrics. First run passes with a notice.
    if [[ -f results/BENCH_prev.json ]]; then
        echo "== benchdiff vs previous nightly artifact =="
        cargo run --release -p pico-bench --bin benchdiff -- results/BENCH_prev.json
    else
        echo "(no results/BENCH_prev.json — skipping nightly trend diff)"
    fi
fi

echo "CI OK"
