//! JSONL log recovery robustness: arbitrary bytes, arbitrary lines and
//! mutations of a valid log, opened as a measurement-cache log or as a
//! trace log, must never panic. Each open either fails cleanly or keeps
//! a newline-terminated prefix of the file, drops and counts the rest,
//! and leaves a log that reopens with nothing left to drop.

use bhive_asm::parse_block;
use bhive_harness::{
    profile_corpus_cached, profile_corpus_supervised, MeasurementCache, ObsConfig, ProfileConfig,
    Profiler, Supervision, TraceLog,
};
use bhive_uarch::{Uarch, UarchKind};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bhive-fuzzlog-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> ProfileConfig {
    ProfileConfig::bhive().quiet()
}

fn blocks() -> Vec<bhive_asm::BasicBlock> {
    ["add rax, 1", "imul rbx, rcx", "xor edx, edx\ndiv ecx"]
        .iter()
        .map(|text| parse_block(text).unwrap())
        .collect()
}

/// A valid Haswell cache log holding a few real measurements.
fn valid_cache_log() -> &'static [u8] {
    static LOG: OnceLock<Vec<u8>> = OnceLock::new();
    LOG.get_or_init(|| {
        let dir = temp_dir("seed-cache");
        let profiler = Profiler::new(Uarch::haswell(), config());
        let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config()).unwrap();
        profile_corpus_cached(&profiler, &blocks(), 1, Some(&mut cache));
        drop(cache);
        let bytes = std::fs::read(MeasurementCache::log_path(&dir, UarchKind::Haswell)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// A valid trace log holding one observed run.
fn valid_trace_log() -> &'static [u8] {
    static LOG: OnceLock<Vec<u8>> = OnceLock::new();
    LOG.get_or_init(|| {
        let dir = temp_dir("seed-trace");
        let path = dir.join("trace.jsonl");
        let profiler = Profiler::new(Uarch::haswell(), config());
        let supervision = Supervision::with_obs(ObsConfig::on());
        let report = profile_corpus_supervised(&profiler, &blocks(), 1, None, &supervision);
        let mut log = TraceLog::open(&path).unwrap();
        log.append_run("Main/hsw", report.stats.obs.as_ref().unwrap())
            .unwrap();
        drop(log);
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// What an open kept of `original`: a newline-terminated prefix, with
/// `dropped_bytes` and `dropped_records` accounting for the rest.
fn check_kept(
    path: &Path,
    original: &[u8],
    dropped_bytes: u64,
    dropped_records: usize,
) -> Result<(), TestCaseError> {
    let kept = std::fs::read(path).unwrap();
    prop_assert!(original.starts_with(&kept), "the kept log is a prefix");
    prop_assert!(kept.is_empty() || kept.ends_with(b"\n"));
    prop_assert_eq!(dropped_bytes, (original.len() - kept.len()) as u64);
    prop_assert_eq!(dropped_records > 0, kept.len() < original.len());
    Ok(())
}

fn open_as_cache(bytes: &[u8]) -> Result<(), TestCaseError> {
    let dir = temp_dir("cache");
    let path = MeasurementCache::log_path(&dir, UarchKind::Haswell);
    std::fs::write(&path, bytes).unwrap();
    if let Ok(cache) = MeasurementCache::open(&dir, UarchKind::Haswell, &config()) {
        let report = cache.open_report();
        drop(cache);
        check_kept(&path, bytes, report.dropped_bytes, report.dropped_records)?;
        let kept_lines = std::fs::read(&path)
            .unwrap()
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        prop_assert_eq!(
            report.loaded + report.stale_evictions + report.transient_evictions,
            kept_lines,
            "every kept line is a valid record"
        );
        let again = MeasurementCache::open(&dir, UarchKind::Haswell, &config())
            .expect("a recovered log reopens");
        prop_assert_eq!(again.open_report().dropped_records, 0);
        prop_assert_eq!(again.open_report().loaded, report.loaded);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn open_as_trace(bytes: &[u8]) -> Result<(), TestCaseError> {
    let dir = temp_dir("trace");
    let path = dir.join("trace.jsonl");
    std::fs::write(&path, bytes).unwrap();
    if let Ok(log) = TraceLog::open(&path) {
        let recovery = log.recovery().unwrap_or_default();
        drop(log);
        check_kept(
            &path,
            bytes,
            recovery.dropped_bytes,
            recovery.dropped_records,
        )?;
        let again = TraceLog::open(&path).expect("a recovered log reopens");
        prop_assert_eq!(again.recovery(), None);
        drop(again);
        let _ = TraceLog::det_section(&path);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// `log` with one byte replaced, or truncated, at `pos`.
fn mutated(log: &[u8], pos: usize, byte: u8, truncate: bool) -> Vec<u8> {
    let mut bytes = log.to_vec();
    let pos = pos % (bytes.len() + 1);
    if truncate {
        bytes.truncate(pos);
    } else if pos < bytes.len() {
        bytes[pos] = byte;
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_open_never_panics_on_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        open_as_cache(&bytes)?;
    }

    #[test]
    fn cache_open_never_panics_on_lines(lines in proptest::collection::vec(".{0,48}", 0..8)) {
        open_as_cache(lines.join("\n").as_bytes())?;
    }

    #[test]
    fn cache_open_recovers_mutated_logs(
        pos in any::<usize>(),
        byte in any::<u8>(),
        truncate in any::<bool>(),
        tail in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut bytes = mutated(valid_cache_log(), pos, byte, truncate);
        bytes.extend_from_slice(&tail);
        open_as_cache(&bytes)?;
    }

    #[test]
    fn trace_open_never_panics_on_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        open_as_trace(&bytes)?;
    }

    #[test]
    fn trace_open_never_panics_on_lines(lines in proptest::collection::vec(".{0,48}", 0..8)) {
        open_as_trace(lines.join("\n").as_bytes())?;
    }

    #[test]
    fn trace_open_recovers_mutated_logs(
        pos in any::<usize>(),
        byte in any::<u8>(),
        truncate in any::<bool>(),
        tail in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut bytes = mutated(valid_trace_log(), pos, byte, truncate);
        bytes.extend_from_slice(&tail);
        open_as_trace(&bytes)?;
    }
}

#[test]
fn valid_logs_open_whole() {
    let dir = temp_dir("whole");
    let path = MeasurementCache::log_path(&dir, UarchKind::Haswell);
    std::fs::write(&path, valid_cache_log()).unwrap();
    let cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config()).unwrap();
    assert_eq!(cache.open_report().loaded, 3);
    assert_eq!(cache.open_report().dropped_records, 0);
    drop(cache);
    let trace = dir.join("trace.jsonl");
    std::fs::write(&trace, valid_trace_log()).unwrap();
    assert_eq!(TraceLog::open(&trace).unwrap().recovery(), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache log and a trace log written by `bhive measure --scale 1 --seed 1
/// --uarch hsw --cache ... --trace ...` before the JSON parser rejected raw
/// control characters in strings. The printer has always escaped them, so
/// every line of both logs must still load.
#[test]
fn logs_from_an_earlier_build_still_load() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let dir = temp_dir("earlier-build");
    let cache_log = std::fs::read(data.join("measurements-hsw.jsonl")).unwrap();
    std::fs::write(
        MeasurementCache::log_path(&dir, UarchKind::Haswell),
        &cache_log,
    )
    .unwrap();
    let cache = MeasurementCache::open(&dir, UarchKind::Haswell, &ProfileConfig::bhive()).unwrap();
    let report = cache.open_report();
    let lines = cache_log.iter().filter(|&&b| b == b'\n').count();
    assert_eq!((report.dropped_records, report.dropped_bytes), (0, 0));
    assert_eq!(report.loaded, lines, "{report:?}");
    drop(cache);

    let trace_path = dir.join("trace.jsonl");
    std::fs::copy(data.join("trace.jsonl"), &trace_path).unwrap();
    let trace = TraceLog::open(&trace_path).unwrap();
    assert_eq!(trace.recovery(), None);
    drop(trace);
    let _ = std::fs::remove_dir_all(&dir);
}
