//! Regression tests for the non-convergence valve: a schedule that
//! exhausts the timing model's cycle budget must surface as a permanent
//! [`ProfileFailure::NonConvergent`] — identically in debug and release
//! builds — and must never be persisted to the measurement cache as if
//! it were a valid measurement.
//!
//! The pathological schedule is constructed, not found: a Haswell clone
//! with a zero-entry reservation station can never rename a single uop,
//! so rename deadlocks with nothing in flight.

use bhive_asm::parse_block;
use bhive_harness::{
    profile_corpus_supervised, CachedOutcome, FailureClass, MeasurementCache, ObsConfig,
    ProfileConfig, ProfileFailure, Profiler, Supervision,
};
use bhive_uarch::{Uarch, UarchKind};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A Haswell variant whose reservation station holds zero uops: every
/// non-eliminated instruction deadlocks at rename.
fn starved_uarch() -> &'static Uarch {
    Box::leak(Box::new(Uarch {
        rs_size: 0,
        ..Uarch::haswell().clone()
    }))
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bhive-nonconv-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn nonconvergence_is_a_permanent_profile_failure() {
    let block = parse_block("add rax, 1\nadd rbx, 1").unwrap();
    let profiler = Profiler::new(starved_uarch(), ProfileConfig::bhive().quiet());
    let failure = profiler
        .profile(&block)
        .expect_err("a zero-entry RS must fail to converge");
    match &failure {
        ProfileFailure::NonConvergent {
            cycle_budget,
            retired,
            total_insts,
        } => {
            assert_eq!(*retired, 0, "nothing can retire without an RS");
            assert!(*total_insts > 0);
            assert!(*cycle_budget >= 1_000_000);
        }
        other => panic!("expected NonConvergent, got {other:?}"),
    }
    // The valve behaves identically in debug and release builds: this
    // test runs under both profiles in CI, asserting the same error —
    // no debug_assert-only path, no silently truncated TimingResult.
    assert_eq!(failure.class(), FailureClass::Permanent);
    assert_eq!(failure.category(), "non-convergent");
    assert!(failure.to_string().contains("failed to converge"));
}

#[test]
fn nonconvergent_blocks_are_never_cached_as_measurements() {
    let dir = temp_dir("cache");
    let config = ProfileConfig::bhive().quiet();
    let profiler = Profiler::new(starved_uarch(), config.clone());
    let blocks = vec![parse_block("add rax, 1").unwrap()];
    let encoded = blocks[0].encode().unwrap();

    let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
    let report = profile_corpus_supervised(
        &profiler,
        &blocks,
        1,
        Some(&mut cache),
        &Supervision::default(),
    );
    assert!(report.results[0].is_err());

    // Permanent failures are cached — as errors. Under no circumstances
    // may a truncated simulation be stored as a Measurement.
    let key = cache.key_for(&encoded);
    match cache.get(key) {
        Some(CachedOutcome::Err(ProfileFailure::NonConvergent { .. })) => {}
        Some(CachedOutcome::Ok(_)) => {
            panic!("non-convergent block was cached as a valid measurement")
        }
        other => panic!("expected a cached NonConvergent error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nonconvergence_emits_trace_event_and_failure_counter() {
    let profiler = Profiler::new(starved_uarch(), ProfileConfig::bhive().quiet());
    let blocks = vec![parse_block("add rax, 1").unwrap()];
    let report = profile_corpus_supervised(
        &profiler,
        &blocks,
        1,
        None,
        &Supervision::with_obs(ObsConfig::on()),
    );
    let obs = report.stats.obs.expect("observability was on");
    let counts = obs.event_counts();
    assert!(counts.get("attempt-failed").copied().unwrap_or(0) >= 1);
    assert_eq!(obs.metrics.counter("failures.non-convergent"), 1);
    assert!(obs.metrics.counter("attempts.total") >= 1);
}
