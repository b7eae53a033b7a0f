//! Algebraic laws for cross-shard stats merging.
//!
//! The sharded supervisor folds per-worker [`ProfileStats`] together in
//! whatever order shard reports happen to be read, so the merge must be
//! commutative and associative — otherwise the summary depends on which
//! worker finished first, which is exactly the wall-clock dependence
//! the rest of the pipeline is built to exclude. These tests check the
//! laws on synthesized stats (proptest drives the seeds; the structures
//! come from a seeded generator, the repo's idiom for the minimal
//! vendored proptest) and split-invariance against a real
//! single-process run.

use bhive_harness::shard::stats_for_display;
use bhive_harness::{
    cache_key, shard_of, BreakerTrip, CacheStats, ChaosStats, ProfileConfig, ProfileStats,
    Profiler, ShardStats, WorkerStats,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;

const CATEGORIES: [&str; 4] = ["crash", "misaligned", "unreproducible", "dirty-counters"];

/// A synthesized stats record. Every field is exercised, including the
/// optional ones (present ~half the time so merges hit all four
/// `Some`/`None` combinations), and `blocks_per_sec` is set to garbage
/// on purpose: the merge must *recompute* it from merged totals, never
/// trust or average the stored value.
fn arb_stats(seed: u64) -> ProfileStats {
    let mut rng = SmallRng::seed_from_u64(seed);
    let workers = (0..rng.gen_range(0..6))
        .map(|_| WorkerStats {
            profiled: rng.gen_range(0..500),
            busy: Duration::from_micros(rng.gen_range(0..5_000_000)),
            span: Duration::from_micros(rng.gen_range(1..10_000_000)),
            panics: rng.gen_range(0..3),
            quarantined: rng.gen_range(0..3),
        })
        .collect();
    let mut failures = BTreeMap::new();
    for _ in 0..rng.gen_range(0..4) {
        *failures
            .entry(CATEGORIES[rng.gen_range(0..CATEGORIES.len())])
            .or_insert(0) += rng.gen_range(1usize..20);
    }
    ProfileStats {
        total_blocks: rng.gen_range(0..100_000),
        unique_blocks: rng.gen_range(0..100_000),
        successful_blocks: rng.gen_range(0..100_000),
        cache_hits: rng.gen_range(0..10_000),
        threads: rng.gen_range(0..64),
        elapsed: Duration::from_micros(rng.gen_range(0..60_000_000)),
        blocks_per_sec: 123.456,
        panics: rng.gen_range(0..10),
        retried_blocks: rng.gen_range(0..1000),
        recovered_blocks: rng.gen_range(0..1000),
        retry_attempts: rng.gen_range(0..3000),
        breaker: rng.gen_bool(0.5).then(|| BreakerTrip {
            at_block: rng.gen_range(0..10_000),
            rate: rng.gen_range(0..=100) as f64 / 100.0,
            window: rng.gen_range(1..64),
        }),
        chaos: rng.gen_bool(0.5).then(|| ChaosStats {
            injected_panics: rng.gen_range(0..50),
            forced_transients: rng.gen_range(0..50),
            cache_write_errors: rng.gen_range(0..50),
            dropped_connections: rng.gen_range(0..50),
            slow_loris_stalls: rng.gen_range(0..50),
            burst_requests: rng.gen_range(0..50),
        }),
        interrupted: false,
        failures,
        workers,
        cache: rng.gen_bool(0.5).then(|| CacheStats {
            hits: rng.gen_range(0..1000),
            misses: rng.gen_range(0..1000),
            stale_evictions: rng.gen_range(0..100),
            write_errors: rng.gen_range(0..10),
            degraded: rng.gen_bool(0.5),
        }),
        obs: None,
    }
}

fn merged(a: &ProfileStats, b: &ProfileStats) -> ProfileStats {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// A breaker trip drawn from tiny ranges, so two trips often tie on
/// `(at_block, window)` and the rate tie-break (signed zeros and NaN
/// included) decides.
fn arb_trip(rng: &mut SmallRng) -> Option<BreakerTrip> {
    rng.gen_bool(0.8).then(|| BreakerTrip {
        at_block: rng.gen_range(0..3),
        rate: [0.25, 0.5, 0.0, -0.0, f64::NAN][rng.gen_range(0..5usize)],
        window: rng.gen_range(1..3),
    })
}

/// A trip as comparable bits (`f64` equality would reject NaN).
fn trip_bits(trip: Option<BreakerTrip>) -> Option<(usize, usize, u64)> {
    trip.map(|t| (t.at_block, t.window, t.rate.to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_is_commutative(sa in any::<u64>(), sb in any::<u64>()) {
        let (a, b) = (arb_stats(sa), arb_stats(sb));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn merge_is_associative(sa in any::<u64>(), sb in any::<u64>(), sc in any::<u64>()) {
        let (a, b, c) = (arb_stats(sa), arb_stats(sb), arb_stats(sc));
        prop_assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c))
        );
    }

    #[test]
    fn merged_ratios_derive_from_totals(sa in any::<u64>(), sb in any::<u64>()) {
        let (a, b) = (arb_stats(sa), arb_stats(sb));
        let out = merged(&a, &b);
        // Throughput is recomputed from the merged totals (the stored
        // 123.456 garbage must never leak through or be averaged).
        let elapsed = out.elapsed.as_secs_f64();
        let expect = if elapsed > 0.0 { out.total_blocks as f64 / elapsed } else { 0.0 };
        prop_assert_eq!(out.blocks_per_sec, expect);
        // Utilization divides by each worker's own span, so a worker's
        // ratio survives merging someone else's stats in.
        let before: Vec<f64> = a.worker_utilization();
        let after = out.worker_utilization();
        for (w, util) in a.workers.iter().zip(&before) {
            prop_assert!(
                after.iter().any(|u| u == util),
                "worker {:?} utilization {} lost by merge: {:?}", w, util, after
            );
        }
        // Merged counts really add.
        prop_assert_eq!(out.total_blocks, a.total_blocks + b.total_blocks);
        prop_assert_eq!(out.elapsed, a.elapsed.max(b.elapsed));
        prop_assert_eq!(out.workers.len(), a.workers.len() + b.workers.len());
    }

    /// Shard reports are merged in whatever order they are read: either
    /// order keeps the same breaker trip, and it is the trip the
    /// in-process `ProfileStats` merge keeps. The supervisor reads each
    /// report's `ShardStats` back through `stats_for_display` and folds
    /// the results with `ProfileStats::merge`.
    #[test]
    fn shard_merge_picks_the_same_trip_in_either_order(sa in any::<u64>(), sb in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(sa.wrapping_mul(31).wrapping_add(sb));
        let (mut a, mut b) = (arb_stats(sa), arb_stats(sb));
        a.breaker = arb_trip(&mut rng);
        b.breaker = arb_trip(&mut rng);
        let shard_a = stats_for_display(&ShardStats::from(&a));
        let shard_b = stats_for_display(&ShardStats::from(&b));
        let mut ab = shard_a.clone();
        ab.merge(&shard_b);
        let mut ba = shard_b.clone();
        ba.merge(&shard_a);
        prop_assert_eq!(trip_bits(ab.breaker), trip_bits(ba.breaker));
        prop_assert_eq!(trip_bits(ab.breaker), trip_bits(merged(&a, &b).breaker));
    }
}

/// Split-invariance against a real run: partition a corpus by content
/// key exactly as the sharder does, profile each part independently,
/// and the merged counters must equal the single-process run's on every
/// count-valued field. (Wall-clock fields — elapsed, throughput, worker
/// rows — legitimately differ between one run and two.)
#[test]
fn split_by_shard_matches_single_run_counts() {
    let profiler = Profiler::new(
        bhive_uarch::Uarch::haswell(),
        ProfileConfig::bhive().quiet(),
    );
    let uarch = profiler.uarch().kind;
    let fp = profiler.config().fingerprint();
    let mut blocks = Vec::new();
    for i in 0..20 {
        blocks.push(bhive_asm::parse_block(&format!("add rax, {}\nimul rbx, rcx", i + 1)).unwrap());
    }
    // Duplicates and a deterministic failure ride along: dedup hits and
    // failure counts must survive the split.
    blocks.push(blocks[3].clone());
    blocks.push(blocks[7].clone());
    blocks.push(bhive_asm::parse_block("mov rax, qword ptr [rbx + 0x3c]").unwrap());

    let whole = bhive_harness::profile_corpus(&profiler, &blocks, 2).stats;

    let part = |want: u32| -> Vec<bhive_asm::BasicBlock> {
        blocks
            .iter()
            .filter(|b| {
                let key = cache_key(&b.encode().unwrap(), uarch, fp);
                shard_of(key, 2) == want
            })
            .cloned()
            .collect()
    };
    let left = part(0);
    let right = part(1);
    assert!(!left.is_empty() && !right.is_empty(), "degenerate split");
    assert_eq!(left.len() + right.len(), blocks.len());

    let mut split = bhive_harness::profile_corpus(&profiler, &left, 2).stats;
    split.merge(&bhive_harness::profile_corpus(&profiler, &right, 1).stats);

    assert_eq!(split.total_blocks, whole.total_blocks);
    assert_eq!(split.unique_blocks, whole.unique_blocks);
    assert_eq!(split.successful_blocks, whole.successful_blocks);
    assert_eq!(
        split.cache_hits, whole.cache_hits,
        "duplicates share a key, so they share a shard and dedup identically"
    );
    assert_eq!(split.failures, whole.failures);
    assert_eq!(split.panics, whole.panics);
    assert_eq!(split.retried_blocks, whole.retried_blocks);
}
