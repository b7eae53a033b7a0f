//! Sharded multi-process corpus profiling.
//!
//! The paper validates its predictors on ~358k basic blocks (§4,
//! Tables 3–5); one process cannot hold that working set in a single
//! cache log without serializing every writer. This module partitions a
//! corpus into `N` shards **by content-hash key prefix** — the same
//! content address the on-disk cache uses — so that:
//!
//! * every duplicate of a block shares a key and therefore lands in
//!   exactly one shard (dedup still works);
//! * the partition is a pure function of (block bytes, uarch, config),
//!   so any process can recompute it and agree;
//! * each shard worker owns a private, shard-suffixed cache log and
//!   trace log, preserving the single-writer contract
//!   ([`crate::cache`]) without cross-process coordination.
//!
//! # Topology
//!
//! A *supervisor* process (the `bhive` CLI's `--workers N`) spawns `N`
//! worker processes (`--shard i/N`). Worker `i`:
//!
//! 1. pre-seeds its shard cache from the merged main log, so a run
//!    resumed *after* a successful merge stays warm;
//! 2. profiles its owned sub-corpus through the normal supervised
//!    pipeline ([`crate::profile_corpus_supervised`]), appending to
//!    `measurements-<uarch>.s<i>of<N>.jsonl`;
//! 3. **steals work from stragglers**: it scans each sibling's logs
//!    (lock-free — complete records are immutable), computes which of
//!    the victim's owned keys are still unmeasured, and profiles the
//!    *back half* of that remainder into its own steal segment
//!    `measurements-<uarch>.s<i>of<N>.steal<j>.jsonl`. The victim keeps
//!    working forward from the front; the thief eats from the back.
//!    A block measured by both produces *identical* records (profiling
//!    is a pure function of the content key), so the overlap merges
//!    cleanly;
//! 4. writes a [`ShardRunReport`] marking the shard complete.
//!
//! When every shard reports complete, the supervisor
//! [`merge_shard_caches`] — union all shard and steal logs into the
//! canonical sorted main log (byte-identical to what a single-process
//! run would `compact()` to) — and then replays the whole corpus
//! in-process against the now-warm main log. That *audit replay* is
//! what produces the user-visible CSV, stats, and `run_report.json`:
//! because it is an ordinary deterministic warm run, the output is
//! bit-identical whether the sharded run was clean, killed and
//! resumed, or never sharded at all.
//!
//! # Crash safety
//!
//! `kill -9` of a worker loses at most the in-flight record of each of
//! its logs (torn-tail recovery truncates it on the next open), and the
//! kernel releases its advisory locks, so a resumed worker re-opens the
//! same shard log, re-serves everything already measured from disk, and
//! continues. The merged picture cannot tell the difference — which is
//! exactly the acceptance bar this module is built against.

use crate::cache::{
    clean_orphaned_temps, scan_live_records, write_canonical_records, CacheStats, CachedOutcome,
    LockGuard, MeasurementCache,
};
use crate::config::ProfileConfig;
use crate::parallel::{
    profile_corpus_supervised, CorpusReport, ProfileStats, Supervision, WorkerStats,
};
use crate::profiler::Profiler;
use crate::retry::BreakerTrip;
use bhive_asm::{fnv1a_64, BasicBlock};
use bhive_uarch::UarchKind;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Which shard of how many this process is. `index` is 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This shard's index, `0 <= index < count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl ShardSpec {
    /// Builds a spec, validating `index < count` and `count > 0`.
    pub fn new(index: u32, count: u32) -> Result<ShardSpec, String> {
        if count == 0 {
            return Err("shard count must be positive".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shards (indices are 0-based)"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parses the CLI surface `i/N` (e.g. `0/4`).
    pub fn parse(text: &str) -> Result<ShardSpec, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("expected i/N (e.g. 0/4), got {text:?}"))?;
        let index: u32 = index
            .trim()
            .parse()
            .map_err(|_| format!("bad shard index in {text:?}"))?;
        let count: u32 = count
            .trim()
            .parse()
            .map_err(|_| format!("bad shard count in {text:?}"))?;
        ShardSpec::new(index, count)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Maps a cache key to its owning shard by **prefix**: the key's high
/// bits select the shard via the multiplicative range trick
/// `(key * count) >> 64`, which partitions the key space into `count`
/// contiguous, near-equal ranges without bias toward any low-bit
/// pattern. FNV-1a mixes well enough that the ranges fill evenly.
pub fn shard_of(key: u64, count: u32) -> u32 {
    ((u128::from(key) * u128::from(count)) >> 64) as u32
}

/// The shard-suffixed cache log for shard `spec` of `uarch` in `dir`:
/// `measurements-<uarch>.s<i>of<N>.jsonl`.
pub fn shard_log_path(dir: &Path, uarch: UarchKind, spec: ShardSpec) -> PathBuf {
    dir.join(format!(
        "measurements-{}.s{}of{}.jsonl",
        uarch.short_name(),
        spec.index,
        spec.count
    ))
}

/// The steal segment `thief` appends to while working on `victim`'s
/// keys: `measurements-<uarch>.s<i>of<N>.steal<j>.jsonl`. A thief never
/// writes the victim's own log — that would need cross-process write
/// coordination; a private segment needs none.
pub fn steal_log_path(dir: &Path, uarch: UarchKind, thief: ShardSpec, victim: u32) -> PathBuf {
    dir.join(format!(
        "measurements-{}.s{}of{}.steal{}.jsonl",
        uarch.short_name(),
        thief.index,
        thief.count,
        victim
    ))
}

/// Where shard `spec` of the run labeled `corpus` records completion.
pub fn shard_report_path(dir: &Path, corpus: &str, uarch: UarchKind, spec: ShardSpec) -> PathBuf {
    dir.join(format!(
        "shard-report-{}-{}-{}of{}.json",
        corpus,
        uarch.short_name(),
        spec.index,
        spec.count
    ))
}

/// Content keys for a corpus under `profiler`'s (uarch, fingerprint)
/// binding, in input order. `None` marks a block that does not encode —
/// such blocks resolve to a deterministic permanent failure with no
/// machine time and no cache record, and are owned by shard 0 so
/// exactly one worker reports them.
pub fn corpus_keys(profiler: &Profiler, blocks: &[BasicBlock]) -> Vec<Option<u64>> {
    blocks
        .iter()
        .map(|block| profiler.content_key(block))
        .collect()
}

/// A deterministic fingerprint of the exact sub-corpus a shard run was
/// asked to profile: FNV-1a over every key (missing keys hash a
/// sentinel) in input order. Two runs over different corpora — or the
/// same blocks in a different order — get different fingerprints, which
/// is what lets a resume supervisor reject a stale [`ShardRunReport`].
pub fn corpus_fingerprint(keys: &[Option<u64>]) -> u64 {
    let mut buf = Vec::with_capacity(keys.len() * 8);
    for key in keys {
        buf.extend_from_slice(&key.unwrap_or(u64::MAX).to_le_bytes());
        buf.push(if key.is_some() { 1 } else { 0 });
    }
    fnv1a_64(&buf)
}

/// Profiles the sub-corpus shard `spec` owns, then steals from
/// straggling siblings. The returned report covers the blocks *this
/// process* measured (owned sub-corpus order; steal effort appears in
/// the merged [`ProfileStats`], not in `results`) — per-block results
/// for the full corpus come from the supervisor's audit replay after
/// [`merge_shard_caches`], never from stitching worker reports.
///
/// # Errors
///
/// Returns an error when the shard cache cannot be opened (including
/// lock contention — two live workers for the same shard is operator
/// error) or a steal segment cannot be opened. Profiling failures are
/// per-block data, not errors.
pub fn profile_corpus_sharded(
    profiler: &Profiler,
    blocks: &[BasicBlock],
    threads: usize,
    cache_dir: &Path,
    supervision: &Supervision,
    spec: ShardSpec,
) -> std::io::Result<CorpusReport> {
    let uarch = profiler.uarch().kind;
    let config = profiler.config();
    std::fs::create_dir_all(cache_dir)?;
    let keys = corpus_keys(profiler, blocks);

    // Ownership: key prefix decides; unencodable blocks go to shard 0.
    let owner = |key: &Option<u64>| key.map_or(0, |k| shard_of(k, spec.count));
    let owned: Vec<usize> = (0..blocks.len())
        .filter(|&idx| owner(&keys[idx]) == spec.index)
        .collect();
    let owned_blocks: Vec<BasicBlock> = owned.iter().map(|&idx| blocks[idx].clone()).collect();

    let mut cache =
        MeasurementCache::open_at(shard_log_path(cache_dir, uarch, spec), uarch, config)?;

    // Pre-seed from the merged main log (lock-free scan): a shard run
    // started after a successful merge — or against a cache produced by
    // a single-process run — starts warm instead of re-measuring.
    let main_log = MeasurementCache::log_path(cache_dir, uarch);
    if main_log != *cache.path() {
        for (key, outcome) in scan_live_records(&main_log, uarch, config.fingerprint())? {
            if shard_of(key, spec.count) == spec.index && cache.get(key).is_none() {
                cache.insert(key, outcome)?;
            }
        }
    }

    let mut report = profile_corpus_supervised(
        profiler,
        &owned_blocks,
        threads,
        Some(&mut cache),
        supervision,
    );
    drop(cache);

    // ---- Work stealing ----
    // Scan siblings round-robin starting just past ourselves; keep
    // sweeping until a full pass finds nothing left to steal. Each pass
    // takes the *back half* of a victim's remaining keys, so a live
    // victim (working from the front) and its thief converge instead of
    // colliding; a dead victim's backlog drains in log2 passes.
    let steal_supervision = Supervision {
        breaker: supervision.breaker,
        chaos: None,
        obs: Default::default(),
        stop: supervision.stop.clone(),
    };
    // The victim's owned *unique* keys, front-to-back in corpus order,
    // with the representative block for each.
    let mut victim_work: HashMap<u32, Vec<(u64, usize)>> = HashMap::new();
    for (idx, &key) in keys.iter().enumerate() {
        if let Some(key) = key {
            let shard = shard_of(key, spec.count);
            if shard != spec.index {
                let work = victim_work.entry(shard).or_default();
                if !work.iter().any(|&(k, _)| k == key) {
                    work.push((key, idx));
                }
            }
        }
    }
    loop {
        let mut stole = false;
        for offset in 1..spec.count {
            let victim = (spec.index + offset) % spec.count;
            let Some(work) = victim_work.get(&victim) else {
                continue;
            };
            // Everything already durable for the victim, from any pen:
            // its own shard log plus every thief's steal segment.
            let mut done: HashSet<u64> = HashSet::new();
            let victim_spec = ShardSpec::new(victim, spec.count).expect("victim in range");
            let mut victim_logs = vec![shard_log_path(cache_dir, uarch, victim_spec)];
            for thief in 0..spec.count {
                if thief != victim {
                    let thief_spec = ShardSpec::new(thief, spec.count).expect("thief in range");
                    victim_logs.push(steal_log_path(cache_dir, uarch, thief_spec, victim));
                }
            }
            for log in &victim_logs {
                for (key, _) in scan_live_records(log, uarch, config.fingerprint())? {
                    done.insert(key);
                }
            }
            let pending: Vec<usize> = work
                .iter()
                .filter(|(key, _)| !done.contains(key))
                .map(|&(_, idx)| idx)
                .collect();
            if pending.is_empty() {
                continue;
            }
            // Back half, reversed: the thief eats toward the victim.
            let take = pending.len().div_ceil(2);
            let stolen: Vec<BasicBlock> = pending[pending.len() - take..]
                .iter()
                .rev()
                .map(|&idx| blocks[idx].clone())
                .collect();
            let mut segment = MeasurementCache::open_at(
                steal_log_path(cache_dir, uarch, spec, victim),
                uarch,
                config,
            )?;
            let steal_report = profile_corpus_supervised(
                profiler,
                &stolen,
                threads,
                Some(&mut segment),
                &steal_supervision,
            );
            report.stats.merge(&steal_report.stats);
            stole = true;
        }
        if !stole {
            break;
        }
    }
    Ok(report)
}

/// What [`merge_shard_caches`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Shard logs found and folded in.
    pub shard_logs: usize,
    /// Steal segments found and folded in.
    pub steal_segments: usize,
    /// Live records in the merged main log.
    pub records: usize,
}

/// Unions every shard log and steal segment for `(dir, uarch, config)`
/// into the canonical main log, then deletes them.
///
/// The union keeps one record per key and **verifies agreement**: two
/// logs holding *different* bodies for the same key means the purity
/// contract was violated (or a log was tampered with), and the merge
/// refuses rather than pick a winner. The merged log is written through
/// the same canonical encoder as [`MeasurementCache::compact`] — sorted
/// by key, checksummed, temp-file + rename — so a merged sharded run
/// and a compacted single-process run produce byte-identical cache
/// files when they hold the same records.
///
/// Idempotent: records already in the main log participate in the
/// union, and a merge with no shard files left simply rewrites the main
/// log canonically.
///
/// # Errors
///
/// Fails fast when any shard log still has a live writer (its advisory
/// lock is held), on conflicting records, or on real I/O errors.
pub fn merge_shard_caches(
    dir: &Path,
    uarch: UarchKind,
    config: &ProfileConfig,
    count: u32,
) -> std::io::Result<MergeReport> {
    let fp = config.fingerprint();
    let main = MeasurementCache::log_path(dir, uarch);
    std::fs::create_dir_all(dir)?;
    // Hold the main log's writer lock for the whole merge: no cache may
    // be open on it, and no second merge may race this one.
    let _main_lock = LockGuard::acquire(&main)?;
    clean_orphaned_temps(&main)?;

    let mut union: HashMap<u64, CachedOutcome> = HashMap::new();
    let absorb = |path: &Path, union: &mut HashMap<u64, CachedOutcome>| -> std::io::Result<bool> {
        if !path.exists() {
            return Ok(false);
        }
        for (key, outcome) in scan_live_records(path, uarch, fp)? {
            match union.get(&key) {
                None => {
                    union.insert(key, outcome);
                }
                Some(existing) if *existing == outcome => {}
                Some(_) => {
                    return Err(std::io::Error::other(format!(
                        "cache merge conflict: {} holds a different outcome for key {key:#018x} \
                         than an earlier log — profiling must be a pure function of the key",
                        path.display()
                    )));
                }
            }
        }
        Ok(true)
    };

    absorb(&main, &mut union)?;
    let mut merge_report = MergeReport::default();
    // Lock every shard file before reading it and keep the guards until
    // the files are deleted: a still-live worker must fail the merge,
    // not silently lose its tail.
    let mut shard_locks: Vec<LockGuard> = Vec::new();
    let mut consumed: Vec<PathBuf> = Vec::new();
    for index in 0..count {
        let spec = ShardSpec::new(index, count).expect("index in range");
        let shard = shard_log_path(dir, uarch, spec);
        if shard.exists() {
            shard_locks.push(LockGuard::acquire(&shard).map_err(|err| {
                std::io::Error::new(
                    err.kind(),
                    format!("shard {spec} still has a live writer: {err}"),
                )
            })?);
            clean_orphaned_temps(&shard)?;
            if absorb(&shard, &mut union)? {
                merge_report.shard_logs += 1;
            }
            consumed.push(shard);
        }
        for victim in 0..count {
            if victim == index {
                continue;
            }
            let steal = steal_log_path(dir, uarch, spec, victim);
            if steal.exists() {
                shard_locks.push(LockGuard::acquire(&steal).map_err(|err| {
                    std::io::Error::new(
                        err.kind(),
                        format!("steal segment of shard {spec} still has a live writer: {err}"),
                    )
                })?);
                if absorb(&steal, &mut union)? {
                    merge_report.steal_segments += 1;
                }
                consumed.push(steal);
            }
        }
    }

    // Canonical rewrite of the main log: same encoder, same bytes as a
    // single-process compact() over the same records.
    let tmp_path = {
        let mut name = main.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".tmp.{}", std::process::id()));
        main.with_file_name(name)
    };
    {
        let mut tmp = BufWriter::new(File::create(&tmp_path)?);
        write_canonical_records(&mut tmp, uarch, fp, &union)?;
        let tmp = tmp.into_inner().map_err(|e| e.into_error())?;
        tmp.sync_all()?;
    }
    std::fs::rename(&tmp_path, &main)?;
    merge_report.records = union.len();

    // The shard files are now redundant; their lock sidecars go with
    // them (we hold every lock, so no live writer can be bisected).
    for path in consumed {
        remove_if_exists(&path)?;
        remove_if_exists(&LockGuard::lock_path(&path))?;
    }
    Ok(merge_report)
}

fn remove_if_exists(path: &Path) -> std::io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(err) => Err(err),
    }
}

/// Serializable projection of [`WorkerStats`] (durations as integer
/// nanoseconds — JSON floats would round-trip lossily).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardWorkerStats {
    /// See [`WorkerStats::profiled`].
    pub profiled: usize,
    /// See [`WorkerStats::busy`].
    pub busy_ns: u64,
    /// See [`WorkerStats::span`].
    pub span_ns: u64,
    /// See [`WorkerStats::panics`].
    pub panics: usize,
    /// See [`WorkerStats::quarantined`].
    pub quarantined: usize,
}

/// Serializable projection of the mergeable [`ProfileStats`] counters a
/// worker process reports back to the supervisor. Event streams and
/// metrics registries stay in the worker's own trace log; the report
/// carries only fields that merge associatively: the supervisor turns
/// each report back into [`ProfileStats`] with [`stats_for_display`] and
/// folds them with [`ProfileStats::merge`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// See [`ProfileStats::total_blocks`].
    pub total_blocks: usize,
    /// See [`ProfileStats::unique_blocks`].
    pub unique_blocks: usize,
    /// See [`ProfileStats::successful_blocks`].
    pub successful_blocks: usize,
    /// See [`ProfileStats::cache_hits`].
    pub cache_hits: usize,
    /// See [`ProfileStats::threads`].
    pub threads: usize,
    /// See [`ProfileStats::elapsed`] (integer nanoseconds).
    pub elapsed_ns: u64,
    /// See [`ProfileStats::panics`].
    pub panics: usize,
    /// See [`ProfileStats::retried_blocks`].
    pub retried_blocks: usize,
    /// See [`ProfileStats::recovered_blocks`].
    pub recovered_blocks: usize,
    /// See [`ProfileStats::retry_attempts`].
    pub retry_attempts: usize,
    /// See [`ProfileStats::breaker`].
    pub breaker: Option<BreakerTrip>,
    /// See [`ProfileStats::failures`] (owned keys for serde).
    pub failures: BTreeMap<String, usize>,
    /// See [`ProfileStats::workers`].
    pub workers: Vec<ShardWorkerStats>,
    /// See [`ProfileStats::cache`].
    pub cache: Option<CacheStats>,
}

impl From<&ProfileStats> for ShardStats {
    fn from(stats: &ProfileStats) -> ShardStats {
        ShardStats {
            total_blocks: stats.total_blocks,
            unique_blocks: stats.unique_blocks,
            successful_blocks: stats.successful_blocks,
            cache_hits: stats.cache_hits,
            threads: stats.threads,
            elapsed_ns: stats.elapsed.as_nanos() as u64,
            panics: stats.panics,
            retried_blocks: stats.retried_blocks,
            recovered_blocks: stats.recovered_blocks,
            retry_attempts: stats.retry_attempts,
            breaker: stats.breaker,
            failures: stats
                .failures
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            workers: stats
                .workers
                .iter()
                .map(|w| ShardWorkerStats {
                    profiled: w.profiled,
                    busy_ns: w.busy.as_nanos() as u64,
                    span_ns: w.span.as_nanos() as u64,
                    panics: w.panics,
                    quarantined: w.quarantined,
                })
                .collect(),
            cache: stats.cache,
        }
    }
}

/// Current schema tag for [`ShardRunReport`] files.
pub const SHARD_REPORT_SCHEMA: &str = "bhive-shard-report/v1";

/// The completion marker a shard worker writes (atomically) when its
/// sub-corpus — plus whatever it stole — is durable. The supervisor
/// treats a shard as done **only** when a report exists *and* its
/// identity fields match the run it is supervising; a `kill -9`'d
/// worker never writes one, so its shard is simply re-run on resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardRunReport {
    /// [`SHARD_REPORT_SCHEMA`].
    pub schema: String,
    /// Which shard of how many.
    pub shard: ShardSpec,
    /// The run label (corpus name) the supervisor is orchestrating.
    pub corpus: String,
    /// Total blocks in the *full* corpus (not just this shard).
    pub corpus_len: usize,
    /// [`corpus_fingerprint`] of the full corpus — binds the report to
    /// the exact block sequence, so a report from yesterday's corpus
    /// cannot satisfy today's resume.
    pub corpus_fp: u64,
    /// The profiler's config fingerprint.
    pub config_fp: u64,
    /// Target microarchitecture.
    pub uarch: UarchKind,
    /// Mergeable counters from this worker's run (own shard + steals).
    pub stats: ShardStats,
}

impl ShardRunReport {
    /// True when this report certifies shard `spec` of exactly the run
    /// `(corpus, corpus_fp, config_fp, uarch)`.
    pub fn certifies(
        &self,
        spec: ShardSpec,
        corpus: &str,
        corpus_fp: u64,
        config_fp: u64,
        uarch: UarchKind,
    ) -> bool {
        self.schema == SHARD_REPORT_SCHEMA
            && self.shard == spec
            && self.corpus == corpus
            && self.corpus_fp == corpus_fp
            && self.config_fp == config_fp
            && self.uarch == uarch
    }

    /// Writes the report atomically (temp + rename): a crash mid-write
    /// leaves no half-report for the supervisor to misread.
    ///
    /// # Errors
    ///
    /// Standard I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let tmp_path = {
            let mut name = path.file_name().unwrap_or_default().to_os_string();
            name.push(format!(".tmp.{}", std::process::id()));
            path.with_file_name(name)
        };
        {
            let mut file = File::create(&tmp_path)?;
            let json = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
            file.write_all(json.as_bytes())?;
            file.write_all(b"\n")?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp_path, path)
    }

    /// Reads a report; `Ok(None)` when the file is missing or does not
    /// parse (an unreadable report means "shard not done", not an
    /// error — the supervisor just re-runs that shard).
    ///
    /// # Errors
    ///
    /// Only real I/O failures (permission, hardware) — never absence or
    /// corruption.
    pub fn read(path: &Path) -> std::io::Result<Option<ShardRunReport>> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(err),
        };
        Ok(serde_json::from_str(&text).ok())
    }
}

/// Reconstructs a displayable [`ProfileStats`] from one shard's
/// counters, for the supervisor's cross-shard summary. Failure
/// categories round-trip through the fixed category vocabulary
/// ([`crate::ProfileFailure::category`]); an unrecognized category
/// (from a newer worker binary) is preserved under `"other"` rather
/// than dropped, so totals still add up.
pub fn stats_for_display(stats: &ShardStats) -> ProfileStats {
    let mut failures: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (category, n) in &stats.failures {
        let canonical = crate::ProfileFailure::CATEGORIES
            .iter()
            .find(|c| *c == category)
            .copied()
            .unwrap_or("other");
        *failures.entry(canonical).or_insert(0) += n;
    }
    ProfileStats {
        total_blocks: stats.total_blocks,
        unique_blocks: stats.unique_blocks,
        successful_blocks: stats.successful_blocks,
        cache_hits: stats.cache_hits,
        threads: stats.threads,
        elapsed: Duration::from_nanos(stats.elapsed_ns),
        // Derived from the totals, never stored: per-shard ratios do not
        // commute.
        blocks_per_sec: {
            let secs = Duration::from_nanos(stats.elapsed_ns).as_secs_f64();
            if secs > 0.0 {
                stats.total_blocks as f64 / secs
            } else {
                0.0
            }
        },
        panics: stats.panics,
        retried_blocks: stats.retried_blocks,
        recovered_blocks: stats.recovered_blocks,
        retry_attempts: stats.retry_attempts,
        breaker: stats.breaker,
        chaos: None,
        failures,
        workers: stats
            .workers
            .iter()
            .map(|w| WorkerStats {
                profiled: w.profiled,
                busy: Duration::from_nanos(w.busy_ns),
                span: Duration::from_nanos(w.span_ns),
                panics: w.panics,
                quarantined: w.quarantined,
            })
            .collect(),
        cache: stats.cache,
        obs: None,
        // Certified shard reports are only written by runs that finished
        // (an interrupted worker never certifies), so merged shard stats
        // are complete by construction.
        interrupted: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProfileConfig;
    use bhive_asm::parse_block;
    use bhive_uarch::Uarch;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bhive-shard-test-{}-{}-{}",
            tag,
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_corpus(n: usize) -> Vec<BasicBlock> {
        (0..n)
            .map(|i| parse_block(&format!("add rax, {}\nimul rbx, rcx", i + 1)).unwrap())
            .collect()
    }

    fn hsw_profiler() -> Profiler {
        Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet())
    }

    #[test]
    fn spec_parses_and_rejects() {
        assert_eq!(
            ShardSpec::parse("0/4").unwrap(),
            ShardSpec { index: 0, count: 4 }
        );
        assert_eq!(ShardSpec::parse("3/4").unwrap().to_string(), "3/4");
        assert!(ShardSpec::parse("4/4").is_err(), "index must be < count");
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("x/4").is_err());
        assert!(ShardSpec::parse("2").is_err());
    }

    #[test]
    fn shard_of_partitions_evenly_and_by_prefix() {
        // The multiplicative trick maps the key range monotonically,
        // so shard indices are non-decreasing in the key.
        assert_eq!(shard_of(0, 4), 0);
        assert_eq!(shard_of(u64::MAX, 4), 3);
        let mut counts = [0usize; 8];
        let mut key = 0x243F_6A88_85A3_08D3u64; // arbitrary pi digits
        for _ in 0..8000 {
            key = key
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            counts[shard_of(key, 8) as usize] += 1;
        }
        for (shard, &n) in counts.iter().enumerate() {
            assert!(
                (800..=1200).contains(&n),
                "shard {shard} got {n} of 8000 keys — partition is skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn sharded_union_equals_single_process_cache() {
        let blocks = small_corpus(24);
        let profiler = hsw_profiler();
        let config = profiler.config().clone();
        let uarch = profiler.uarch().kind;

        // Single-process reference, compacted to canonical bytes.
        let ref_dir = temp_dir("ref");
        {
            let mut cache = MeasurementCache::open(&ref_dir, uarch, &config).unwrap();
            crate::parallel::profile_corpus_cached(&profiler, &blocks, 2, Some(&mut cache));
            cache.compact().unwrap();
        }
        let reference = std::fs::read(MeasurementCache::log_path(&ref_dir, uarch)).unwrap();

        // Sharded run: 3 shards in one process (sequentially), merged.
        let dir = temp_dir("sharded");
        for index in 0..3 {
            let spec = ShardSpec::new(index, 3).unwrap();
            profile_corpus_sharded(&profiler, &blocks, 2, &dir, &Supervision::default(), spec)
                .unwrap();
        }
        let merged = merge_shard_caches(&dir, uarch, &config, 3).unwrap();
        assert!(merged.records > 0);
        let merged_bytes = std::fs::read(MeasurementCache::log_path(&dir, uarch)).unwrap();
        assert_eq!(
            merged_bytes, reference,
            "merged shard logs must be byte-identical to a compacted single-process log"
        );
        // All shard/steal files are consumed.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(
                !name.contains(".s0of") && !name.contains(".steal"),
                "shard file left behind: {name}"
            );
        }
    }

    #[test]
    fn work_stealing_covers_a_shard_that_never_ran() {
        let blocks = small_corpus(18);
        let profiler = hsw_profiler();
        let config = profiler.config().clone();
        let uarch = profiler.uarch().kind;
        let dir = temp_dir("steal");
        // Only shard 0 of 2 runs; its stealing sweep must finish shard
        // 1's keys, so the merge yields the complete corpus.
        let spec = ShardSpec::new(0, 2).unwrap();
        profile_corpus_sharded(&profiler, &blocks, 2, &dir, &Supervision::default(), spec).unwrap();
        merge_shard_caches(&dir, uarch, &config, 2).unwrap();
        let mut cache = MeasurementCache::open(&dir, uarch, &config).unwrap();
        let keys = corpus_keys(&profiler, &blocks);
        for key in keys.iter().flatten() {
            assert!(
                cache.get(*key).is_some(),
                "key {key:#x} missing after steal + merge"
            );
        }
        // And a full warm replay sees zero misses.
        let report =
            crate::parallel::profile_corpus_cached(&profiler, &blocks, 2, Some(&mut cache));
        let disk = report.stats.cache.unwrap();
        assert_eq!(
            disk.misses, 0,
            "replay after steal+merge must be fully warm"
        );
    }

    #[test]
    fn merge_refuses_while_a_shard_writer_is_live() {
        let dir = temp_dir("live-writer");
        let config = ProfileConfig::bhive().quiet();
        let uarch = UarchKind::Haswell;
        let spec = ShardSpec::new(0, 2).unwrap();
        let _held =
            MeasurementCache::open_at(shard_log_path(&dir, uarch, spec), uarch, &config).unwrap();
        let err = merge_shard_caches(&dir, uarch, &config, 2).unwrap_err();
        assert!(
            err.to_string().contains("live writer"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn merge_is_idempotent() {
        let blocks = small_corpus(8);
        let profiler = hsw_profiler();
        let config = profiler.config().clone();
        let uarch = profiler.uarch().kind;
        let dir = temp_dir("idempotent");
        let spec = ShardSpec::new(0, 1).unwrap();
        profile_corpus_sharded(&profiler, &blocks, 1, &dir, &Supervision::default(), spec).unwrap();
        merge_shard_caches(&dir, uarch, &config, 1).unwrap();
        let first = std::fs::read(MeasurementCache::log_path(&dir, uarch)).unwrap();
        merge_shard_caches(&dir, uarch, &config, 1).unwrap();
        let second = std::fs::read(MeasurementCache::log_path(&dir, uarch)).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn shard_report_round_trips_and_certifies() {
        let dir = temp_dir("report");
        let spec = ShardSpec::new(1, 4).unwrap();
        let stats = ShardStats::from(&ProfileStats::default());
        let report = ShardRunReport {
            schema: SHARD_REPORT_SCHEMA.to_string(),
            shard: spec,
            corpus: "main".into(),
            corpus_len: 1100,
            corpus_fp: 0xABCD,
            config_fp: 0x1234,
            uarch: UarchKind::Haswell,
            stats,
        };
        let path = shard_report_path(&dir, "main", UarchKind::Haswell, spec);
        report.write(&path).unwrap();
        let loaded = ShardRunReport::read(&path).unwrap().unwrap();
        assert_eq!(loaded, report);
        assert!(loaded.certifies(spec, "main", 0xABCD, 0x1234, UarchKind::Haswell));
        assert!(!loaded.certifies(spec, "main", 0xABCE, 0x1234, UarchKind::Haswell));
        assert!(!loaded.certifies(
            ShardSpec::new(2, 4).unwrap(),
            "main",
            0xABCD,
            0x1234,
            UarchKind::Haswell
        ));
        // Absent and corrupt reports read as "not done".
        assert!(ShardRunReport::read(&dir.join("nope.json"))
            .unwrap()
            .is_none());
        std::fs::write(&path, "{ not json").unwrap();
        assert!(ShardRunReport::read(&path).unwrap().is_none());
    }
}
