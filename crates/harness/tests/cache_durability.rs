//! Durability properties of the on-disk measurement cache: records
//! round-trip bit-for-bit (successes and every failure variant), a torn
//! tail is recovered from, stale fingerprints are evicted, a warm rerun
//! of a ≥1k-block corpus is bit-identical to the cold run, and the
//! record set a cold run writes does not depend on its thread count.

use bhive_asm::parse_block;
use bhive_corpus::{Corpus, Scale};
use bhive_harness::{
    profile_corpus, profile_corpus_cached, CachedOutcome, Measurement, MeasurementCache,
    ProfileConfig, ProfileFailure, Profiler, TrialSet,
};
use bhive_sim::PerfCounters;
use bhive_uarch::{Uarch, UarchKind};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bhive-durability-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A finite f64 from raw bits (the cache serializes through JSON, which
/// has no NaN/inf encoding — the profiler never produces them either).
fn finite_f64(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        (bits >> 12) as f64 * 1e-3
    }
}

fn trial_set(unroll: u32, cycles: Vec<u64>, seed: u64) -> TrialSet {
    let accepted = cycles.first().copied().unwrap_or(seed);
    TrialSet {
        unroll,
        cycles,
        clean: (seed % 17) as u32,
        identical: (seed % 9) as u32,
        accepted_cycles: accepted,
        counters: PerfCounters {
            core_cycles: seed.rotate_left(1),
            instructions_retired: seed.rotate_left(2),
            uops_executed: seed.rotate_left(3),
            l1d_read_misses: seed % 5,
            l1d_write_misses: seed % 3,
            l1i_misses: seed % 2,
            context_switches: seed % 7,
            misaligned_mem_refs: seed % 11,
            subnormal_events: seed % 13,
        },
    }
}

/// One outcome per `variant`: 0 is a success, 1..=12 cover every
/// [`ProfileFailure`] variant.
fn outcome_for(variant: usize, a: u64, b: u64, cycles: Vec<u64>, bits: u64) -> CachedOutcome {
    let text = format!("payload-{a:x}-\"quoted\"-\n-newline");
    match variant {
        0 => CachedOutcome::Ok(Measurement {
            throughput: finite_f64(bits),
            lo: trial_set(a as u32 % 500, cycles.clone(), a),
            hi: trial_set(b as u32 % 500, cycles, b),
            mapped_pages: (a % 64) as usize,
            faults_serviced: b as u32 % 128,
            subnormal_events: a % 99,
            misaligned_refs: b % 99,
            attempt: b as u32 % 3,
        }),
        1 => CachedOutcome::Err(ProfileFailure::Crash { fault: text }),
        2 => CachedOutcome::Err(ProfileFailure::TooManyFaults { faults: a as u32 }),
        3 => CachedOutcome::Err(ProfileFailure::InvalidAddress { vaddr: a }),
        4 => CachedOutcome::Err(ProfileFailure::Unreproducible {
            clean: a as u32 % 100,
            identical: b as u32 % 100,
            required: 8,
        }),
        5 => CachedOutcome::Err(ProfileFailure::NegativeDelta {
            lo_cycles: a,
            hi_cycles: b,
            lo_unroll: a as u32 % 500,
            hi_unroll: b as u32 % 500,
        }),
        6 => CachedOutcome::Err(ProfileFailure::Panic { message: text }),
        7 => CachedOutcome::Err(ProfileFailure::DirtyCounters {
            counters: trial_set(1, vec![a], b).counters,
        }),
        8 => CachedOutcome::Err(ProfileFailure::Misaligned { count: a }),
        9 => CachedOutcome::Err(ProfileFailure::UnsupportedIsa),
        10 => CachedOutcome::Err(ProfileFailure::Encoding { message: text }),
        11 => CachedOutcome::Err(ProfileFailure::InvalidBlock { message: text }),
        _ => CachedOutcome::Err(ProfileFailure::NonConvergent {
            cycle_budget: a,
            retired: b % 1000,
            total_insts: b % 1000 + a % 1000,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any *persistable* record — a success with arbitrary finite
    /// numerics, or any permanent failure variant with arbitrary payloads
    /// — survives the full disk round trip (serialize, flush, reopen,
    /// checksum-validate, parse) bit-for-bit. Transient failure variants
    /// must instead be refused by the cache entirely: nothing stored,
    /// nothing written, so a rerun retries the block.
    #[test]
    fn cache_records_round_trip_through_disk(
        variant in 0usize..13,
        a in any::<u64>(),
        b in any::<u64>(),
        bits in any::<u64>(),
        cycles in proptest::collection::vec(proptest::num::u64::ANY, 0..20),
    ) {
        let dir = temp_dir("roundtrip");
        let config = ProfileConfig::bhive();
        let outcome = outcome_for(variant, a, b, cycles, bits);
        let key = a ^ b.rotate_left(17);
        {
            let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
            cache.insert(key, outcome.clone()).unwrap();
        }
        let cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        prop_assert_eq!(cache.open_report().dropped_records, 0);
        if outcome.is_transient_failure() {
            prop_assert_eq!(cache.open_report().loaded, 0);
            prop_assert_eq!(cache.get(key), None);
        } else {
            prop_assert_eq!(cache.open_report().loaded, 1);
            prop_assert_eq!(cache.get(key), Some(&outcome));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn truncated_tail_recovers_and_resumes_only_missing_blocks() {
    let dir = temp_dir("truncate");
    let config = ProfileConfig::bhive().quiet();
    let profiler = Profiler::new(Uarch::haswell(), config.clone());
    let blocks: Vec<_> = (1..=24)
        .map(|i| parse_block(&format!("add rax, {i}\nimul rbx, rcx")).unwrap())
        .collect();

    let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
    let cold = profile_corpus_cached(&profiler, &blocks, 2, Some(&mut cache));
    assert_eq!(cold.stats.cache.unwrap().misses, 24);
    drop(cache);

    // Chop the log mid-record, as a crash during a write would.
    let path = MeasurementCache::log_path(&dir, UarchKind::Haswell);
    let bytes = std::fs::read(&path).unwrap();
    let cut = bytes.len() - 10;
    std::fs::write(&path, &bytes[..cut]).unwrap();

    let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
    let report = cache.open_report();
    assert_eq!(report.loaded, 23, "all complete records survive");
    assert_eq!(report.dropped_records, 1, "only the torn record is lost");
    assert!(report.dropped_bytes > 0);

    // The resumed run re-measures exactly the one missing block …
    let warm = profile_corpus_cached(&profiler, &blocks, 2, Some(&mut cache));
    let disk = warm.stats.cache.unwrap();
    assert_eq!(disk.hits, 23);
    assert_eq!(disk.misses, 1);
    let measured: usize = warm.stats.workers.iter().map(|w| w.profiled).sum();
    assert_eq!(measured, 1, "resume must not re-measure completed blocks");
    // … and the combined results are still bit-identical to the cold run.
    assert_eq!(warm.results, cold.results);

    // The repaired log is fully healthy again.
    drop(cache);
    let cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
    assert_eq!(cache.open_report().loaded, 24);
    assert_eq!(cache.open_report().dropped_records, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_fingerprints_are_evicted_and_compacted_away() {
    let dir = temp_dir("stale");
    let old_config = ProfileConfig::bhive().quiet();
    let new_config = ProfileConfig {
        trials: 17,
        ..ProfileConfig::bhive().quiet()
    };
    let blocks: Vec<_> = (1..=6)
        .map(|i| parse_block(&format!("add rax, {i}")).unwrap())
        .collect();

    let old_profiler = Profiler::new(Uarch::haswell(), old_config.clone());
    let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &old_config).unwrap();
    profile_corpus_cached(&old_profiler, &blocks, 2, Some(&mut cache));
    drop(cache);

    // A config change invalidates every record: all evicted, none served.
    let new_profiler = Profiler::new(Uarch::haswell(), new_config.clone());
    let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &new_config).unwrap();
    assert_eq!(cache.open_report().stale_evictions, 6);
    assert_eq!(cache.open_report().loaded, 0);
    let report = profile_corpus_cached(&new_profiler, &blocks, 2, Some(&mut cache));
    let disk = report.stats.cache.unwrap();
    assert_eq!(disk.stale_evictions, 6);
    assert_eq!(disk.hits, 0);
    assert_eq!(disk.misses, 6);
    drop(cache);

    // The post-run compaction physically removed the stale records.
    let cache = MeasurementCache::open(&dir, UarchKind::Haswell, &new_config).unwrap();
    assert_eq!(cache.open_report().stale_evictions, 0);
    assert_eq!(cache.open_report().loaded, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance bar: a warm rerun of a ≥1k-block corpus serves ≥99% of
/// blocks from the cache, bit-identical to the cold run.
#[test]
fn warm_rerun_of_1k_corpus_is_bit_identical() {
    let dir = temp_dir("corpus1k");
    let config = ProfileConfig::bhive().quiet();
    let profiler = Profiler::new(Uarch::haswell(), config.clone());
    let corpus = Corpus::generate(Scale::PerApp(110), 1234);
    let blocks = corpus.basic_blocks();
    assert!(
        blocks.len() >= 1000,
        "need ≥1k blocks, got {}",
        blocks.len()
    );

    let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
    let cold = profile_corpus_cached(&profiler, &blocks, 0, Some(&mut cache));
    drop(cache);

    let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
    let warm = profile_corpus_cached(&profiler, &blocks, 0, Some(&mut cache));
    let disk = warm.stats.cache.unwrap();
    assert_eq!(disk.misses, 0, "warm run must not measure anything");
    assert_eq!(warm.stats.threads, 0, "no workers on a fully warm run");
    assert_eq!(warm.results, cold.results, "warm must be bit-identical");

    // ≥99% of blocks (dedup fan-out included) come from the cache; only
    // unencodable blocks, which never consume machine time, are outside
    // it.
    let uncacheable = warm
        .results
        .iter()
        .filter(|r| matches!(r, Err(f) if f.category() == "encoding"))
        .count();
    let served = blocks.len() - uncacheable;
    assert!(
        served as f64 >= 0.99 * blocks.len() as f64,
        "served {served}/{}",
        blocks.len()
    );

    // And the cache changes nothing vs. a plain uncached run.
    let uncached = profile_corpus(&profiler, &blocks, 0);
    assert_eq!(uncached.results, cold.results);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache *file* is byte-identical across runs: a cold single-thread
/// run over a ≥1.1k-block corpus writes exactly the same JSONL bytes in
/// a fresh directory every time, and a warm rerun appends nothing. This
/// pins the whole measurement stack — encoding, mapping, prepared-trace
/// simulation, retries, noise — to a byte-stable serialization.
#[test]
fn cache_file_bytes_are_reproducible() {
    let config = ProfileConfig::bhive().quiet().with_retries(2);
    let profiler = Profiler::new(Uarch::haswell(), config.clone());
    let corpus = Corpus::generate(Scale::PerApp(110), 99);
    let blocks = corpus.basic_blocks();
    assert!(blocks.len() >= 1100, "got {}", blocks.len());

    let bytes_of =
        |dir: &PathBuf| std::fs::read(MeasurementCache::log_path(dir, UarchKind::Haswell)).unwrap();

    let dir_a = temp_dir("bytes-a");
    let mut cache = MeasurementCache::open(&dir_a, UarchKind::Haswell, &config).unwrap();
    profile_corpus_cached(&profiler, &blocks, 1, Some(&mut cache));
    drop(cache);
    let cold_a = bytes_of(&dir_a);
    assert!(!cold_a.is_empty());

    // Warm rerun: nothing new to measure, the file must not change.
    let mut cache = MeasurementCache::open(&dir_a, UarchKind::Haswell, &config).unwrap();
    profile_corpus_cached(&profiler, &blocks, 1, Some(&mut cache));
    drop(cache);
    assert_eq!(bytes_of(&dir_a), cold_a, "warm rerun must append nothing");

    // A second cold run in a fresh directory reproduces the bytes.
    let dir_b = temp_dir("bytes-b");
    let mut cache = MeasurementCache::open(&dir_b, UarchKind::Haswell, &config).unwrap();
    profile_corpus_cached(&profiler, &blocks, 1, Some(&mut cache));
    drop(cache);
    assert_eq!(bytes_of(&dir_b), cold_a, "cold runs must be byte-identical");

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// With more than one worker, records are appended in completion order,
/// so two cold runs can write the same records in different byte orders.
/// What holds at any thread count is the record *set*: the sorted lines
/// equal a single-thread run's, and compaction (which writes records in
/// key order) makes the files byte-identical.
#[test]
fn two_thread_cache_files_hold_the_same_records() {
    let config = ProfileConfig::bhive().quiet();
    let profiler = Profiler::new(Uarch::haswell(), config.clone());
    let blocks = Corpus::generate(Scale::PerApp(40), 5).basic_blocks();

    let bytes_of =
        |dir: &PathBuf| std::fs::read(MeasurementCache::log_path(dir, UarchKind::Haswell)).unwrap();
    let sorted_lines = |bytes: &[u8]| {
        let mut lines: Vec<Vec<u8>> = bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        lines.sort();
        lines
    };
    // One cold run at `threads`: the log as appended, then as compacted.
    let cold_run = |tag: &str, threads: usize| {
        let dir = temp_dir(tag);
        let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        profile_corpus_cached(&profiler, &blocks, threads, Some(&mut cache));
        let appended = bytes_of(&dir);
        cache.compact().unwrap();
        drop(cache);
        let compacted = bytes_of(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        (appended, compacted)
    };

    let (serial, serial_compacted) = cold_run("order-1t", 1);
    assert!(!serial.is_empty());
    for tag in ["order-2t-a", "order-2t-b"] {
        let (appended, compacted) = cold_run(tag, 2);
        assert_eq!(
            sorted_lines(&appended),
            sorted_lines(&serial),
            "{tag}: same records"
        );
        assert_eq!(compacted, serial_compacted, "{tag}: compacted bytes");
    }
}
