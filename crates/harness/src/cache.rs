//! Crash-safe, content-addressed, on-disk measurement cache.
//!
//! The paper's workflow is *profile once, validate many*: every table and
//! figure re-consumes the same corpus measurements. This module persists
//! per-block outcomes (successes *and* categorized **permanent** failures
//! — both are deterministic functions of the inputs) so a rerun serves
//! them from disk instead of re-measuring.
//!
//! **Transient** failures ([`ProfileFailure::is_transient`]) are never
//! persisted: they are the failures a retry with a fresh noise seed can
//! legitimately recover, so caching one would freeze bad luck into every
//! future run. [`MeasurementCache::insert`] silently skips them, and
//! [`MeasurementCache::open`] evicts any written by older versions, so a
//! resumed or re-run corpus always re-attempts its transiently failed
//! blocks.
//!
//! # Format
//!
//! One append-only JSONL log per microarchitecture
//! (`measurements-<uarch>.jsonl` inside the cache directory). Each line is
//! a self-checking record:
//!
//! ```text
//! {"sum":<fnv1a of the body's canonical JSON>,"body":{"key":...,"uarch":...,"fp":...,"outcome":...}}
//! ```
//!
//! The key is FNV-1a over the block's encoded bytes combined with the
//! uarch kind and [`ProfileConfig::fingerprint`] (see [`cache_key`]), so
//! a record can never be served to a run it does not describe.
//!
//! # Crash safety
//!
//! * Every [`MeasurementCache::insert`] writes one full line and flushes
//!   it, so a run killed mid-corpus loses at most the record being
//!   written — completed blocks survive and the next run resumes from
//!   them.
//! * [`MeasurementCache::open`] re-validates the log line by line (JSON
//!   shape *and* checksum). The first invalid record marks a torn tail:
//!   everything from that byte offset on is dropped and the file is
//!   truncated back to the last good record.
//! * Records written under a different [`ProfileConfig::fingerprint`] are
//!   *stale*: they are not loaded (and counted as evictions), and
//!   [`MeasurementCache::compact`] rewrites the log without them via a
//!   temp file and an atomic rename.
//!
//! # Single writer per log
//!
//! Appends from two processes would interleave partial lines into one
//! log, producing records that fail their checksum and are silently
//! dropped as a "torn tail" on the next open — corruption that looks
//! like a crash. [`MeasurementCache::open`] therefore takes an exclusive
//! advisory lock on a sidecar `<log>.lock` file and *fails fast* with a
//! clear error when another process (or another handle in this process)
//! already holds it. The lock lives on the sidecar, not the log file
//! itself, because [`MeasurementCache::compact`] replaces the log's
//! inode by rename — a lock on the old inode would guard nothing. The
//! kernel releases the lock when the holding process exits, however it
//! died, so a `kill -9` never wedges the cache.
//!
//! Sharded multi-process profiling ([`crate::shard`]) gives every worker
//! its own shard-suffixed log (one writer each) and merges them after
//! the run. Readers (work stealing scans a sibling shard's log while
//! its owner appends) do not take the lock: every complete line is
//! immutable once written, so a lock-free scan that stops at the first
//! invalid line is always sound.

use crate::chaos::ChaosInjector;
use crate::config::ProfileConfig;
use crate::failure::ProfileFailure;
use crate::measurement::Measurement;
use crate::obs::{EventBuffer, TraceEvent};
use bhive_asm::fnv1a_64;
use bhive_uarch::{Uarch, UarchKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::ops::DerefMut;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

#[cfg(unix)]
mod flock {
    use std::os::unix::io::AsRawFd;

    const LOCK_EX: i32 = 2;
    const LOCK_NB: i32 = 4;

    // `std` already links the platform C library; declaring `flock`
    // directly avoids a dependency on the `libc` crate.
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }

    /// Takes an exclusive, non-blocking advisory lock on `file`. The
    /// kernel releases it when the last descriptor closes — including
    /// when the process is killed.
    pub(super) fn try_lock_exclusive(file: &std::fs::File) -> std::io::Result<()> {
        // SAFETY: `flock` is async-signal-safe and only reads the fd.
        if unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) } == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }
}

/// An exclusive advisory lock on a sidecar `<log>.lock` file, held for
/// the lifetime of the guard. See the [module docs](self) for why the
/// lock lives on a sidecar rather than the log's own descriptor.
#[derive(Debug)]
pub(crate) struct LockGuard {
    // Held only for its descriptor: dropping it releases the lock.
    _file: File,
}

impl LockGuard {
    /// The sidecar lock path for a log at `path`.
    pub(crate) fn lock_path(path: &Path) -> PathBuf {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".lock");
        path.with_file_name(name)
    }

    /// Acquires the exclusive lock for the log at `path`, failing fast
    /// (never blocking) when any other handle — in this process or
    /// another — already holds it.
    ///
    /// Lock files can be *swept* by [`sweep_orphaned_locks`] between our
    /// `open` and `flock`: holding a lock on an unlinked inode is
    /// invisible to every later opener (they lock a fresh file), so
    /// after winning the flock we verify the path still names the inode
    /// we locked and retry on a freshly created file if not.
    pub(crate) fn acquire(path: &Path) -> std::io::Result<LockGuard> {
        let lock_path = Self::lock_path(path);
        // One retry per concurrent sweep; more than a few means
        // something is unlinking the lock file in a loop, which is worth
        // surfacing as an error instead of spinning.
        for _ in 0..16 {
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&lock_path)?;
            #[cfg(unix)]
            flock::try_lock_exclusive(&file).map_err(|err| {
                std::io::Error::new(
                    if err.kind() == std::io::ErrorKind::WouldBlock {
                        std::io::ErrorKind::WouldBlock
                    } else {
                        err.kind()
                    },
                    format!(
                        "log {} is locked by another writer (single-writer contract; \
                         shard the run or wait for the holder to exit): {err}",
                        path.display()
                    ),
                )
            })?;
            #[cfg(unix)]
            if !same_inode(&lock_path, &file) {
                continue;
            }
            return Ok(LockGuard { _file: file });
        }
        Err(std::io::Error::other(format!(
            "lock file {} kept disappearing mid-acquire",
            lock_path.display()
        )))
    }
}

/// True when `path` still names the same on-disk inode as the open
/// descriptor `file` — i.e. the file we locked was not unlinked or
/// replaced between `open` and `flock`.
#[cfg(unix)]
fn same_inode(path: &Path, file: &File) -> bool {
    use std::os::unix::fs::MetadataExt;
    match (std::fs::metadata(path), file.metadata()) {
        (Ok(on_path), Ok(on_fd)) => on_path.dev() == on_fd.dev() && on_path.ino() == on_fd.ino(),
        _ => false,
    }
}

/// Sweeps orphaned `.lock` sidecars in `dir`: a killed shard run leaves
/// the sidecars of its merged-and-removed logs behind forever (a clean
/// exit keeps its sidecar too, but its log still exists, so it is
/// *reused*, not orphaned). A sidecar is removed only when its log file
/// is gone **and** its flock can be won — a live holder fails the
/// try-lock and is skipped — and the unlink happens while holding that
/// flock, so racing openers are pushed onto [`LockGuard::acquire`]'s
/// same-inode retry instead of silently sharing a log.
pub(crate) fn sweep_orphaned_locks(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        let Some(log_name) = name.strip_suffix(".lock") else {
            continue;
        };
        if log_name.is_empty() || dir.join(log_name).exists() {
            continue;
        }
        let lock_path = entry.path();
        // Open without create: if the sidecar vanished (another sweeper
        // won), there is nothing to do.
        let Ok(file) = OpenOptions::new().write(true).open(&lock_path) else {
            continue;
        };
        if flock::try_lock_exclusive(&file).is_err() || !same_inode(&lock_path, &file) {
            continue;
        }
        // We hold the lock on the inode the path names and the log is
        // gone: no live writer, safe to unlink.
        std::fs::remove_file(&lock_path)?;
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Removes compaction temp files orphaned next to the log at `path` by a
/// dead writer. Sound to call unconditionally *after* acquiring the
/// log's [`LockGuard`]: temps are only ever created by a live, locked
/// [`MeasurementCache::compact`], so once this process holds the lock,
/// every remaining `<log>.tmp*` file is a leftover — including the
/// legacy deterministic `<stem>.tmp` name, which a resumed run racing a
/// dead worker could otherwise rename over fresh records.
pub(crate) fn clean_orphaned_temps(path: &Path) -> std::io::Result<()> {
    let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(());
    };
    let Some(log_name) = path.file_name().and_then(|n| n.to_str()) else {
        return Ok(());
    };
    // `measurements-hsw.jsonl` owns `measurements-hsw.jsonl.tmp.<pid>`
    // and the legacy `measurements-hsw.tmp` / `measurements-hsw.jsonl.tmp`.
    let stem = log_name.strip_suffix(".jsonl").unwrap_or(log_name);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        let owned = name.strip_prefix(stem).is_some_and(|rest| {
            rest == ".tmp"
                || rest == ".jsonl.tmp"
                || rest.starts_with(".tmp.")
                || rest.starts_with(".jsonl.tmp.")
        });
        if owned && name != log_name {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Content address of one measurement: FNV-1a over the block's encoded
/// bytes, a domain separator, the uarch's short name, and the config
/// fingerprint, so any change to block, target, or configuration changes
/// the key.
pub fn cache_key(block_bytes: &[u8], uarch: UarchKind, fingerprint: u64) -> u64 {
    let mut buf = Vec::with_capacity(block_bytes.len() + 16);
    buf.extend_from_slice(block_bytes);
    // x86-64 instruction bytes never need a separator from our side, but
    // one keeps the encoding injective regardless of block content.
    buf.push(0xFF);
    buf.extend_from_slice(uarch.short_name().as_bytes());
    buf.extend_from_slice(&fingerprint.to_le_bytes());
    fnv1a_64(&buf)
}

/// The fingerprint a cache (and [`crate::Profiler::content_key`]) binds
/// records to: the config fingerprint, folded together with the uarch's
/// fitted-table fingerprint when one is active. A description on the
/// compiled-in tables folds nothing — its binding is exactly the config
/// fingerprint, so every cache written before fitted tables existed
/// stays valid — while a calibrated-table run gets its own namespace
/// and can never be served a shipped-table measurement (or vice versa).
pub fn binding_fingerprint(config: &ProfileConfig, uarch: &Uarch) -> u64 {
    let table = uarch.table_fingerprint();
    if table == 0 {
        return config.fingerprint();
    }
    let mut buf = [0u8; 16];
    buf[..8].copy_from_slice(&config.fingerprint().to_le_bytes());
    buf[8..].copy_from_slice(&table.to_le_bytes());
    fnv1a_64(&buf)
}

/// A cached per-block outcome. Permanent failures are cached too: a
/// block that crashes or misaligns does so deterministically, and
/// re-measuring it on every run would waste exactly the time the cache
/// exists to save. Transient failures are *not* cacheable (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CachedOutcome {
    /// The block profiled successfully.
    Ok(Measurement),
    /// The block failed with a categorized reason.
    Err(ProfileFailure),
}

impl CachedOutcome {
    /// Converts back into the profiler's result type.
    pub fn into_result(self) -> Result<Measurement, ProfileFailure> {
        match self {
            CachedOutcome::Ok(m) => Ok(m),
            CachedOutcome::Err(f) => Err(f),
        }
    }

    /// True when the outcome is a transient failure — an outcome the
    /// cache refuses to persist, because a retry could change it.
    pub fn is_transient_failure(&self) -> bool {
        matches!(self, CachedOutcome::Err(f) if f.is_transient())
    }
}

impl From<Result<Measurement, ProfileFailure>> for CachedOutcome {
    fn from(result: Result<Measurement, ProfileFailure>) -> CachedOutcome {
        match result {
            Ok(m) => CachedOutcome::Ok(m),
            Err(f) => CachedOutcome::Err(f),
        }
    }
}

/// The payload protected by the per-record checksum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RecordBody {
    key: u64,
    uarch: UarchKind,
    fp: u64,
    outcome: CachedOutcome,
}

/// One JSONL line: checksum + body. The checksum is FNV-1a over the
/// body's canonical JSON, which [`record_line`] writes verbatim, so a
/// read checks the bytes on disk ([`checked_record`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    sum: u64,
    body: RecordBody,
}

fn body_checksum(body: &RecordBody) -> std::io::Result<u64> {
    let json = serde_json::to_string(body).map_err(std::io::Error::other)?;
    Ok(fnv1a_64(json.as_bytes()))
}

/// The record on one log line (newline trimmed), or `None` when the line
/// does not parse or fails its checksum.
///
/// [`record_line`] writes `{"sum":N,"body":<canonical body>}`, so the
/// body bytes on disk are what the sum covers: hashing that slice checks
/// a line without re-serializing its body. Only when the slice does not
/// hash to the sum (the line is corrupt, or a valid record spelled in
/// another byte form, say with whitespace) is the parsed body
/// re-serialized and checked canonically, as every line once was.
fn checked_record(text: &str) -> Option<Record> {
    let record = serde_json::from_str::<Record>(text).ok()?;
    if raw_body(text).is_some_and(|body| fnv1a_64(body.as_bytes()) == record.sum) {
        return Some(record);
    }
    (body_checksum(&record.body).ok()? == record.sum).then_some(record)
}

/// The body bytes of a line in [`record_line`]'s layout.
fn raw_body(text: &str) -> Option<&str> {
    let rest = text.strip_prefix("{\"sum\":")?;
    rest.split_once(",\"body\":")?.1.strip_suffix('}')
}

/// The JSONL line (without its newline) of the [`Record`] holding
/// `body`. Serializes the body once, for both the checksum and the line;
/// the bytes are those of `serde_json::to_string(&Record { .. })`.
fn record_line(body: &RecordBody) -> std::io::Result<String> {
    let json = serde_json::to_string(body).map_err(std::io::Error::other)?;
    let sum = fnv1a_64(json.as_bytes());
    Ok(format!("{{\"sum\":{sum},\"body\":{json}}}"))
}

/// What scanning an append-only checksummed-JSONL log found: the valid
/// prefix length and what the torn/corrupt tail held. Shared by the
/// measurement cache and the obs trace log ([`crate::obs::TraceLog`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonlRecovery {
    /// Bytes of the valid prefix the log was truncated back to.
    pub valid_len: u64,
    /// Records dropped from the tail (best estimate: corruption hides
    /// how many records the bytes held).
    pub dropped_records: usize,
    /// Bytes truncated off the tail.
    pub dropped_bytes: u64,
}

/// Scans an append-only JSONL log line by line, calling `accept` on each
/// complete (newline-terminated, UTF-8) line. The first line `accept`
/// rejects — or that is torn, non-UTF-8, or missing its newline — marks
/// the start of an invalid tail: the file is truncated back to the last
/// good line and the drop is reported.
///
/// The file must be opened readable and writable (truncation uses
/// `set_len`); append mode is fine — the next write lands at the new
/// end.
pub(crate) fn recover_jsonl<F>(file: File, mut accept: F) -> std::io::Result<(File, JsonlRecovery)>
where
    F: FnMut(&str) -> bool,
{
    let total_len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut valid_len = 0u64;
    let mut line = Vec::new();
    loop {
        line.clear();
        // `read_until` (not `read_line`): a torn tail can contain
        // arbitrary bytes, which must read as corruption, not as an
        // I/O error.
        let n = reader.read_until(b'\n', &mut line)?;
        if n == 0 {
            break;
        }
        // A record is only complete once its newline hit the disk; a
        // line without one is an interrupted write.
        if line.last() != Some(&b'\n') {
            break;
        }
        let valid = std::str::from_utf8(&line)
            .ok()
            .is_some_and(|text| accept(text.trim_end()));
        if !valid {
            break;
        }
        valid_len += n as u64;
    }
    let mut recovery = JsonlRecovery {
        valid_len,
        ..JsonlRecovery::default()
    };
    if valid_len < total_len {
        // Count what is about to be dropped: the torn record plus every
        // newline-terminated chunk behind it.
        let mut rest = Vec::new();
        std::io::Read::read_to_end(&mut reader, &mut rest)?;
        let dropped = line.iter().chain(&rest).filter(|&&b| b == b'\n').count();
        recovery.dropped_bytes = total_len - valid_len;
        recovery.dropped_records = dropped.max(1);
        reader.get_ref().set_len(valid_len)?;
    }
    Ok((reader.into_inner(), recovery))
}

/// Writes `entries` as checksummed records in ascending key order — the
/// one canonical byte encoding of a record set. Both
/// [`MeasurementCache::compact`] and the sharded merge
/// ([`crate::shard::merge_shard_caches`]) emit through here, which is
/// what makes "merged shard logs" and "compacted single-process log"
/// byte-identical when they hold the same records.
pub(crate) fn write_canonical_records<W: Write>(
    writer: &mut W,
    uarch: UarchKind,
    fp: u64,
    entries: &HashMap<u64, CachedOutcome>,
) -> std::io::Result<()> {
    let mut keys: Vec<u64> = entries.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let body = RecordBody {
            key,
            uarch,
            fp,
            outcome: entries[&key].clone(),
        };
        let line = record_line(&body)?;
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
    }
    Ok(())
}

/// Scans the log at `path` *without touching it* — no truncation, no
/// lock — and returns every valid record for `(uarch, fp)` in file
/// order, stopping at the first torn or invalid line. Safe to run
/// against a log whose owner is appending concurrently: complete lines
/// are immutable, and an in-flight append reads as the (ignored) torn
/// tail. This is how work stealing inspects a sibling shard's progress
/// and how the sharded merge unions shard logs.
///
/// Returns an empty list when the file does not exist.
///
/// # Errors
///
/// Returns an error only on real I/O failure, never on corruption.
pub(crate) fn scan_live_records(
    path: &Path,
    uarch: UarchKind,
    fp: u64,
) -> std::io::Result<Vec<(u64, CachedOutcome)>> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(err),
    };
    let mut out = Vec::new();
    let mut reader = BufReader::new(file);
    let mut line = Vec::new();
    loop {
        line.clear();
        let n = std::io::BufRead::read_until(&mut reader, b'\n', &mut line)?;
        if n == 0 || line.last() != Some(&b'\n') {
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            break;
        };
        let Some(record) = checked_record(text.trim_end()) else {
            break;
        };
        if record.body.uarch == uarch
            && record.body.fp == fp
            && !record.body.outcome.is_transient_failure()
        {
            out.push((record.body.key, record.body.outcome));
        }
    }
    Ok(out)
}

/// What [`MeasurementCache::open`] found in the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheOpenReport {
    /// Valid records loaded for the current (uarch, fingerprint).
    pub loaded: usize,
    /// Valid records evicted because they were written under a different
    /// config fingerprint (the config changed between runs).
    pub stale_evictions: usize,
    /// Valid records evicted because they hold a transient failure (only
    /// logs written by older versions contain these; current versions
    /// never write them). Evicted so the run retries those blocks.
    pub transient_evictions: usize,
    /// Records dropped from a torn/corrupt tail.
    pub dropped_records: usize,
    /// Bytes truncated off the tail to recover the log.
    pub dropped_bytes: u64,
}

/// Disk-cache counters for one corpus run, folded into
/// [`crate::ProfileStats`] (and, serialized, into
/// [`crate::obs::RunReport`] — every field is a count, deterministic at
/// any thread count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Unique encodings served from the on-disk cache.
    pub hits: usize,
    /// Unique encodings that had to be measured (and were then written
    /// back).
    pub misses: usize,
    /// Stale-fingerprint records evicted when the cache was opened.
    pub stale_evictions: usize,
    /// Records that failed to persist (the run still completes; those
    /// blocks will be re-measured next time).
    pub write_errors: usize,
    /// True when a write error degraded the rest of the run to
    /// cache-off: measurement continued, later outcomes stayed uncached,
    /// and the failing disk was not touched again.
    pub degraded: bool,
}

impl CacheStats {
    /// Fraction of lookups served from disk.
    ///
    /// Always *derived* from the merged totals, never stored: averaging
    /// per-shard hit ratios does not commute (a 9-hit/1-miss shard and a
    /// 0-hit/0-miss shard do not average to 45%), so the ratio must be
    /// recomputed after [`CacheStats::merge`], not merged itself.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Folds another shard's counters into this one. Every field
    /// combines associatively and commutatively — counts add, `degraded`
    /// ORs — so merging N shards gives the same result in any order or
    /// grouping (property-tested in `parallel`).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.stale_evictions += other.stale_evictions;
        self.write_errors += other.write_errors;
        self.degraded |= other.degraded;
    }
}

/// The cache-write rule batch runs and the daemon share: transient
/// outcomes are never written, and the first write error — real, or
/// injected by the chaos plan at write ordinal *n* — degrades the
/// writer to cache-off for the rest of the run, recording the wall
/// events [`TraceEvent::CacheWriteError`] and
/// [`TraceEvent::CacheDegraded`]. The state is atomic so the daemon
/// reads [`CacheWriter::is_degraded`] without a lock; `Relaxed` suffices
/// because [`CacheWriter::persist`] runs under the `&mut` borrow of the
/// cache, which serializes the writes, and the flag publishes no data.
#[derive(Debug, Default)]
pub struct CacheWriter {
    writes: AtomicUsize,
    degraded: AtomicBool,
}

impl CacheWriter {
    /// True once a write error has turned the writer off.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Appends one finalized outcome to `cache` under `key` (a no-op
    /// without a cache, after degradation, or for a transient outcome).
    /// `unique` addresses the work item in the trace: the unique-block
    /// index in batch runs, the request ordinal in the daemon. `obs`
    /// yields the trace buffer and is called only on the failure path,
    /// so a caller that must lock its buffer pays for the lock only
    /// then. Returns true when this write degraded the writer.
    pub fn persist<B: DerefMut<Target = EventBuffer>>(
        &self,
        cache: Option<&mut MeasurementCache>,
        key: u64,
        outcome: &Result<Measurement, ProfileFailure>,
        unique: usize,
        chaos: Option<&ChaosInjector>,
        obs: impl FnOnce() -> Option<B>,
    ) -> bool {
        let Some(cache) = cache else {
            return false;
        };
        if self.is_degraded() || outcome.as_ref().is_err_and(ProfileFailure::is_transient) {
            return false;
        }
        let ordinal = self.writes.fetch_add(1, Ordering::Relaxed);
        let injected = chaos.is_some_and(|c| c.fail_cache_write(ordinal));
        let written = if injected {
            Err(std::io::Error::other("chaos: injected cache-write error"))
        } else {
            cache.insert(key, outcome.clone().into())
        };
        if written.is_ok() {
            return false;
        }
        // Write ordinals are completion-ordered, so both events belong
        // to the wall section, never the deterministic merge.
        if let Some(mut buf) = obs() {
            buf.emit_wall(TraceEvent::CacheWriteError {
                ordinal,
                unique,
                injected,
            });
            buf.emit_wall(TraceEvent::CacheDegraded { ordinal });
        }
        self.degraded.store(true, Ordering::Relaxed);
        true
    }
}

/// An open measurement cache bound to one (uarch, config fingerprint).
///
/// See the [module docs](self) for the format and crash-safety contract.
#[derive(Debug)]
pub struct MeasurementCache {
    path: PathBuf,
    uarch: UarchKind,
    fingerprint: u64,
    entries: HashMap<u64, CachedOutcome>,
    writer: BufWriter<File>,
    open_report: CacheOpenReport,
    /// Stale records still physically present in the log (removed by
    /// [`MeasurementCache::compact`]).
    stale_on_disk: usize,
    /// Exclusive writer lock on the sidecar `<log>.lock` file; held for
    /// the cache's whole lifetime and released (by the kernel, even on
    /// `kill -9`) when the cache is dropped.
    _lock: LockGuard,
}

impl MeasurementCache {
    /// The log file used for `uarch` inside `dir`.
    pub fn log_path(dir: &Path, uarch: UarchKind) -> PathBuf {
        dir.join(format!("measurements-{}.jsonl", uarch.short_name()))
    }

    /// Opens (creating if needed) the cache for `uarch` under `dir`,
    /// validating the log and recovering from a torn tail.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory or log cannot be created,
    /// read, or truncated, or — fast, with [`std::io::ErrorKind::WouldBlock`]
    /// — when another writer already holds the log's lock. A *corrupt*
    /// log is not an error — the invalid tail is dropped and the valid
    /// prefix is used.
    pub fn open(dir: &Path, uarch: UarchKind, config: &ProfileConfig) -> std::io::Result<Self> {
        Self::open_for(dir, uarch.desc(), config)
    }

    /// [`MeasurementCache::open`] against an explicit description —
    /// binds records to [`binding_fingerprint`], so a description with
    /// fitted table overrides gets its own cache namespace. `open`
    /// delegates here with [`UarchKind::desc`] (which already reflects
    /// any process-wide installed tables).
    ///
    /// # Errors
    ///
    /// As [`MeasurementCache::open`].
    pub fn open_for(dir: &Path, uarch: &Uarch, config: &ProfileConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Self::open_at_for(Self::log_path(dir, uarch.kind), uarch, config)
    }

    /// [`MeasurementCache::open`] against an explicit log path — the
    /// entry point sharded profiling uses for its shard-suffixed logs
    /// ([`crate::shard::shard_log_path`]). Same locking, recovery, and
    /// orphan-temp cleanup as `open`.
    ///
    /// # Errors
    ///
    /// As [`MeasurementCache::open`].
    pub fn open_at(
        path: PathBuf,
        uarch: UarchKind,
        config: &ProfileConfig,
    ) -> std::io::Result<Self> {
        Self::open_at_for(path, uarch.desc(), config)
    }

    /// [`MeasurementCache::open_at`] against an explicit description
    /// (see [`MeasurementCache::open_for`]).
    ///
    /// # Errors
    ///
    /// As [`MeasurementCache::open`].
    pub fn open_at_for(
        path: PathBuf,
        uarch: &Uarch,
        config: &ProfileConfig,
    ) -> std::io::Result<Self> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let fingerprint = binding_fingerprint(config, uarch);
        let uarch = uarch.kind;

        // Locking comes first; only the lock holder may clean temps (a
        // temp next to an unlocked log could belong to a live compactor).
        let lock = LockGuard::acquire(&path)?;
        clean_orphaned_temps(&path)?;
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            sweep_orphaned_locks(dir)?;
        }

        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut entries = HashMap::new();
        let mut report = CacheOpenReport::default();
        let mut stale_on_disk = 0usize;
        // Torn-tail recovery is the shared scanner's job; this closure
        // only decides validity (shape + checksum) and files each valid
        // record away.
        let (file, recovery) = recover_jsonl(file, |text| {
            let Some(record) = checked_record(text) else {
                return false;
            };
            if record.body.uarch != uarch || record.body.fp != fingerprint {
                report.stale_evictions += 1;
                stale_on_disk += 1;
            } else if record.body.outcome.is_transient_failure() {
                // Legacy logs may hold transient failures; serving one
                // would freeze recoverable bad luck into every future
                // run.
                report.transient_evictions += 1;
                stale_on_disk += 1;
            } else {
                report.loaded += 1;
                entries.insert(record.body.key, record.body.outcome);
            }
            true
        })?;
        report.dropped_records = recovery.dropped_records;
        report.dropped_bytes = recovery.dropped_bytes;

        // Truncation + append mode: the next write lands at the new end.
        let writer = BufWriter::new(file);
        Ok(MeasurementCache {
            path,
            uarch,
            fingerprint,
            entries,
            writer,
            open_report: report,
            stale_on_disk,
            _lock: lock,
        })
    }

    /// The log file this cache appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The microarchitecture this cache is bound to.
    pub fn uarch(&self) -> UarchKind {
        self.uarch
    }

    /// The config fingerprint this cache is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// What opening the log found (loaded/stale/dropped counts).
    pub fn open_report(&self) -> CacheOpenReport {
        self.open_report
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds no live records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stale records still occupying log space (cleared by
    /// [`MeasurementCache::compact`]).
    pub fn stale_on_disk(&self) -> usize {
        self.stale_on_disk
    }

    /// The content-address key for `block_bytes` under this cache's
    /// (uarch, fingerprint) binding.
    pub fn key_for(&self, block_bytes: &[u8]) -> u64 {
        cache_key(block_bytes, self.uarch, self.fingerprint)
    }

    /// Looks up a cached outcome.
    pub fn get(&self, key: u64) -> Option<&CachedOutcome> {
        self.entries.get(&key)
    }

    /// Inserts an outcome and appends it durably (the line is flushed
    /// before this returns, so a crash after `insert` never loses it).
    ///
    /// Transient failures are silently skipped — not stored, not written
    /// (see the [module docs](self)) — so the next run retries them.
    ///
    /// # Errors
    ///
    /// Returns an error when the record cannot be serialized or written;
    /// the in-memory entry is kept either way, so the current run still
    /// benefits.
    pub fn insert(&mut self, key: u64, outcome: CachedOutcome) -> std::io::Result<()> {
        if outcome.is_transient_failure() {
            return Ok(());
        }
        let body = RecordBody {
            key,
            uarch: self.uarch,
            fp: self.fingerprint,
            outcome,
        };
        let line = record_line(&body)?;
        self.entries.insert(key, body.outcome);
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Rewrites the log with only the live records (dropping stale
    /// fingerprints and duplicate appends) via temp file + atomic rename.
    ///
    /// # Errors
    ///
    /// Returns an error when the temp file cannot be written or renamed
    /// over the log. The original log is untouched on failure.
    pub fn compact(&mut self) -> std::io::Result<()> {
        // The temp name folds in the pid so a resumed run can never race
        // a dead worker's leftover temp: a deterministic name would let
        // the rename below move *stale* bytes over fresh records.
        // Leftovers from dead pids are removed by the next `open`.
        let tmp_path = {
            let mut name = self.path.file_name().unwrap_or_default().to_os_string();
            name.push(format!(".tmp.{}", std::process::id()));
            self.path.with_file_name(name)
        };
        {
            let mut tmp = BufWriter::new(File::create(&tmp_path)?);
            write_canonical_records(&mut tmp, self.uarch, self.fingerprint, &self.entries)?;
            let tmp = tmp.into_inner().map_err(|e| e.into_error())?;
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        self.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        self.stale_on_disk = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::TrialSet;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bhive-cache-test-{}-{}-{}",
            tag,
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_failure() -> CachedOutcome {
        CachedOutcome::Err(ProfileFailure::InvalidAddress { vaddr: 0xdead })
    }

    #[test]
    fn keys_separate_bytes_uarch_and_fingerprint() {
        let fp = ProfileConfig::bhive().fingerprint();
        let base = cache_key(&[0x48, 0x01, 0xd8], UarchKind::Haswell, fp);
        assert_ne!(base, cache_key(&[0x48, 0x01, 0xd9], UarchKind::Haswell, fp));
        assert_ne!(base, cache_key(&[0x48, 0x01, 0xd8], UarchKind::Skylake, fp));
        assert_ne!(
            base,
            cache_key(
                &[0x48, 0x01, 0xd8],
                UarchKind::Haswell,
                ProfileConfig::agner().fingerprint()
            )
        );
    }

    #[test]
    fn insert_then_reopen_round_trips() {
        let dir = temp_dir("reopen");
        let config = ProfileConfig::bhive();
        {
            let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
            cache.insert(7, sample_failure()).unwrap();
        }
        let cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(7), Some(&sample_failure()));
        assert_eq!(cache.open_report().loaded, 1);
        assert_eq!(cache.open_report().stale_evictions, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphaned_lock_sidecars_are_swept_on_open() {
        let dir = temp_dir("lock-sweep");
        let config = ProfileConfig::bhive();
        // An orphan: a sidecar whose log was merged away by a killed
        // shard run. A live sidecar: the one belonging to an existing
        // log (reused, never swept).
        let orphan = dir.join("measurements-hsw.s0of4.jsonl.lock");
        std::fs::write(&orphan, b"").unwrap();
        let live_log = dir.join("measurements-skl.jsonl");
        std::fs::write(&live_log, b"").unwrap();
        let live_lock = dir.join("measurements-skl.jsonl.lock");
        std::fs::write(&live_lock, b"").unwrap();
        {
            let _cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
            assert!(!orphan.exists(), "orphaned sidecar swept on open");
            assert!(live_lock.exists(), "sidecar with a live log is kept");
        }
        // A sidecar whose flock is held by a live writer is never swept,
        // even when its log is missing (the holder may be about to
        // create it).
        let held_path = dir.join("measurements-ivb.jsonl");
        let held = LockGuard::acquire(&held_path).unwrap();
        {
            let _cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
            assert!(
                LockGuard::lock_path(&held_path).exists(),
                "held sidecar survives the sweep"
            );
        }
        drop(held);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn transient_failure() -> CachedOutcome {
        CachedOutcome::Err(ProfileFailure::Unreproducible {
            clean: 5,
            identical: 3,
            required: 8,
        })
    }

    #[test]
    fn transient_failures_are_not_persisted() {
        let dir = temp_dir("transient-insert");
        let config = ProfileConfig::bhive();
        {
            let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
            assert!(transient_failure().is_transient_failure());
            cache.insert(1, transient_failure()).unwrap();
            cache.insert(2, sample_failure()).unwrap(); // permanent: kept
            assert_eq!(cache.len(), 1, "the transient outcome is skipped");
            assert!(cache.get(1).is_none());
        }
        let reopened = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        assert_eq!(reopened.open_report().loaded, 1);
        assert!(reopened.get(1).is_none(), "nothing transient hit the disk");
        assert!(reopened.get(2).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_transient_records_are_evicted_at_open() {
        let dir = temp_dir("transient-evict");
        let config = ProfileConfig::bhive();
        // Hand-write a valid transient record, as an older version (which
        // persisted every outcome) would have left behind.
        let body = RecordBody {
            key: 9,
            uarch: UarchKind::Haswell,
            fp: config.fingerprint(),
            outcome: transient_failure(),
        };
        let record = Record {
            sum: body_checksum(&body).unwrap(),
            body,
        };
        let path = MeasurementCache::log_path(&dir, UarchKind::Haswell);
        let mut line = serde_json::to_string(&record).unwrap();
        line.push('\n');
        std::fs::write(&path, line).unwrap();

        let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        assert_eq!(cache.open_report().transient_evictions, 1);
        assert_eq!(cache.open_report().loaded, 0);
        assert!(cache.get(9).is_none(), "the block must be re-measured");
        assert_eq!(cache.stale_on_disk(), 1, "compaction reclaims the record");
        cache.compact().unwrap();
        drop(cache);
        let reopened = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        assert_eq!(reopened.open_report().transient_evictions, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An outcome of one of three shapes drawn from `draws`: an invalid
    /// address, a fault-budget kill, or a measurement with trial sets.
    fn outcome_from(shape: u8, draws: &[u64]) -> CachedOutcome {
        let trials = |unroll: u64, accepted: u64| TrialSet {
            unroll: (unroll % 200) as u32 + 1,
            cycles: draws.to_vec(),
            clean: draws.len() as u32,
            identical: draws.len() as u32 / 2,
            accepted_cycles: accepted,
            counters: bhive_sim::PerfCounters {
                core_cycles: accepted,
                ..bhive_sim::PerfCounters::default()
            },
        };
        let word = |i: usize| draws.get(i).copied().unwrap_or(0);
        match shape {
            0 => CachedOutcome::Err(ProfileFailure::InvalidAddress { vaddr: word(0) }),
            1 => CachedOutcome::Err(ProfileFailure::TooManyFaults {
                faults: word(0) as u32,
            }),
            _ => {
                let throughput = f64::from_bits(word(1));
                CachedOutcome::Ok(Measurement {
                    // JSON has no NaN or infinity.
                    throughput: if throughput.is_finite() {
                        throughput
                    } else {
                        word(1) as f64 / 7.0
                    },
                    lo: trials(word(2), word(3)),
                    hi: trials(word(4), word(5)),
                    mapped_pages: word(6) as usize,
                    faults_serviced: word(7) as u32,
                    subnormal_events: word(8),
                    misaligned_refs: word(9),
                    attempt: (word(0) % 4) as u32,
                })
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The single-serialization line is byte-identical to serializing
        /// the whole record, and a cache written with it reopens to the
        /// same entry.
        #[test]
        fn record_line_is_the_serialized_record(
            key in any::<u64>(),
            shape in 0u8..3,
            draws in proptest::collection::vec(any::<u64>(), 0..20),
        ) {
            let outcome = outcome_from(shape, &draws);
            let config = ProfileConfig::bhive();
            let body = RecordBody {
                key,
                uarch: UarchKind::Skylake,
                fp: config.fingerprint(),
                outcome: outcome.clone(),
            };
            let record = Record { sum: body_checksum(&body).unwrap(), body: body.clone() };
            let line = record_line(&body).unwrap();
            prop_assert_eq!(&line, &serde_json::to_string(&record).unwrap());
            // Every written line passes on its raw body, with no
            // re-serialization.
            prop_assert_eq!(raw_body(&line).map(|b| fnv1a_64(b.as_bytes())), Some(record.sum));
            prop_assert_eq!(checked_record(&line), Some(record));

            let dir = temp_dir("record-line");
            {
                let mut cache = MeasurementCache::open(&dir, UarchKind::Skylake, &config).unwrap();
                cache.insert(key, outcome.clone()).unwrap();
            }
            let cache = MeasurementCache::open(&dir, UarchKind::Skylake, &config).unwrap();
            prop_assert_eq!(cache.open_report().loaded, 1);
            prop_assert_eq!(cache.get(key), Some(&outcome));
            drop(cache);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Two records written by `insert`, and the log they live in.
    fn log_of_two(tag: &str) -> (PathBuf, PathBuf, u64) {
        let dir = temp_dir(tag);
        let mut cache =
            MeasurementCache::open(&dir, UarchKind::Haswell, &ProfileConfig::bhive()).unwrap();
        cache.insert(1, sample_failure()).unwrap();
        cache.insert(2, sample_failure()).unwrap();
        (dir, cache.path().to_path_buf(), cache.fingerprint())
    }

    #[test]
    fn record_in_another_byte_form_loads_through_the_fallback() {
        let (dir, path, fp) = log_of_two("respelled");
        // Respell the first record's body with whitespace around every
        // `,` and `:` (its strings hold neither): still valid JSON, still
        // the same record, but no longer the bytes the sum was taken of.
        let text = std::fs::read_to_string(&path).unwrap();
        let (first, rest) = text.split_once('\n').unwrap();
        let (head, body) = first.split_once(",\"body\":").unwrap();
        let spaced = body.replace(',', " , ").replace(':', " : ");
        let respelled = format!("{head},\"body\": {spaced}");
        let record = checked_record(first).unwrap();
        assert_ne!(
            fnv1a_64(raw_body(&respelled).unwrap().as_bytes()),
            record.sum
        );
        assert_eq!(checked_record(&respelled), Some(record));
        let text = format!("{respelled}\n{rest}");
        std::fs::write(&path, &text).unwrap();

        assert_eq!(
            scan_live_records(&path, UarchKind::Haswell, fp)
                .unwrap()
                .len(),
            2
        );
        let cache =
            MeasurementCache::open(&dir, UarchKind::Haswell, &ProfileConfig::bhive()).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.open_report().dropped_bytes, 0);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            text,
            "nothing truncated"
        );
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_body_digit_is_rejected_by_open_and_scan() {
        let (dir, path, fp) = log_of_two("body-digit");
        // Flip the last digit of the second record's body (its `vaddr`),
        // leaving the sum as written.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let victim = bytes.iter().rposition(u8::is_ascii_digit).unwrap();
        let body_start = first_len
            + bytes[first_len..]
                .windows(7)
                .position(|w| w == b"\"body\":")
                .unwrap();
        assert!(victim > body_start, "the digit is in the body");
        bytes[victim] = if bytes[victim] == b'9' { b'8' } else { b'9' };
        std::fs::write(&path, &bytes).unwrap();

        // The lock-free scan stops before the record and leaves the file.
        let live = scan_live_records(&path, UarchKind::Haswell, fp).unwrap();
        assert_eq!(live.iter().map(|r| r.0).collect::<Vec<_>>(), [1]);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        // Open drops it and truncates the log back to the first record.
        let cache =
            MeasurementCache::open(&dir, UarchKind::Haswell, &ProfileConfig::bhive()).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get(2).is_none());
        assert_eq!(cache.open_report().dropped_records, 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), first_len as u64);
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uarches_use_separate_logs() {
        let dir = temp_dir("uarch");
        let config = ProfileConfig::bhive();
        let mut hsw = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        hsw.insert(1, sample_failure()).unwrap();
        let skl = MeasurementCache::open(&dir, UarchKind::Skylake, &config).unwrap();
        assert!(skl.is_empty(), "per-uarch logs must not alias");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_bit_is_detected_and_dropped() {
        let dir = temp_dir("bitflip");
        let config = ProfileConfig::bhive();
        {
            let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
            cache.insert(1, sample_failure()).unwrap();
            cache.insert(2, sample_failure()).unwrap();
        }
        // Corrupt a byte inside the *last* record's JSON number payload.
        let path = MeasurementCache::log_path(&dir, UarchKind::Haswell);
        let mut bytes = std::fs::read(&path).unwrap();
        let tail_start = bytes[..bytes.len() - 2]
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|p| p + 1)
            .unwrap();
        let victim = bytes[tail_start..]
            .iter()
            .position(|b| b.is_ascii_digit())
            .unwrap()
            + tail_start;
        bytes[victim] = if bytes[victim] == b'9' { b'8' } else { b'9' };
        std::fs::write(&path, &bytes).unwrap();

        let cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        assert_eq!(cache.len(), 1, "corrupt tail record must be dropped");
        assert!(cache.get(1).is_some());
        assert!(cache.open_report().dropped_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_writer_fails_fast_while_the_lock_is_held() {
        let dir = temp_dir("lock");
        let config = ProfileConfig::bhive();
        let mut first = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        first.insert(1, sample_failure()).unwrap();

        // The regression this pins: before the lock, a second writer
        // opened fine and interleaved appends corrupted the log.
        let second = MeasurementCache::open(&dir, UarchKind::Haswell, &config);
        let err = second.expect_err("second writer on the same log must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
        assert!(
            err.to_string().contains("locked by another writer"),
            "{err}"
        );

        // The refused open must not have damaged the live writer or log.
        first.insert(2, sample_failure()).unwrap();
        drop(first);
        let reopened = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        assert_eq!(reopened.len(), 2, "both records survive intact");
        assert_eq!(reopened.open_report().dropped_records, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_released_on_drop_allows_reopen() {
        let dir = temp_dir("lock-drop");
        let config = ProfileConfig::bhive();
        drop(MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap());
        // Dropping the cache releases the lock; a fresh open succeeds.
        assert!(MeasurementCache::open(&dir, UarchKind::Haswell, &config).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uarches_do_not_contend_for_the_lock() {
        let dir = temp_dir("lock-uarch");
        let config = ProfileConfig::bhive();
        let _hsw = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        // Separate logs, separate locks.
        assert!(MeasurementCache::open(&dir, UarchKind::Skylake, &config).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphaned_temps_are_cleaned_and_never_renamed_over_the_log() {
        let dir = temp_dir("orphan-tmp");
        let config = ProfileConfig::bhive();
        {
            let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
            cache.insert(1, sample_failure()).unwrap();
        }
        // A dead worker's leftovers: the legacy deterministic temp name
        // (the bug: a resumed compaction could rename this stale data
        // over fresh records) and a pid-suffixed temp from a dead pid.
        let legacy = dir.join("measurements-hsw.jsonl.tmp");
        let pid_tmp = dir.join("measurements-hsw.jsonl.tmp.999999999");
        std::fs::write(&legacy, b"stale garbage\n").unwrap();
        std::fs::write(&pid_tmp, b"stale garbage\n").unwrap();
        // An unrelated sibling shard log must NOT be treated as a temp.
        let shard_log = dir.join("measurements-hsw.s0of4.jsonl");
        std::fs::write(&shard_log, b"").unwrap();

        let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        assert!(!legacy.exists(), "legacy temp cleaned at open");
        assert!(!pid_tmp.exists(), "dead pid temp cleaned at open");
        assert!(shard_log.exists(), "sibling shard logs are untouched");
        assert_eq!(cache.len(), 1, "the real log was not clobbered");

        // Compaction now uses a pid-unique temp and leaves no leftovers.
        cache.insert(2, sample_failure()).unwrap();
        cache.compact().unwrap();
        drop(cache);
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let reopened = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        assert_eq!(reopened.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_scan_reads_only_complete_records() {
        let dir = temp_dir("scan");
        let config = ProfileConfig::bhive();
        let fp = config.fingerprint();
        let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &config).unwrap();
        cache.insert(3, sample_failure()).unwrap();
        cache.insert(1, sample_failure()).unwrap();
        let path = MeasurementCache::log_path(&dir, UarchKind::Haswell);

        // Scanning while the owner holds the lock works (readers are
        // lock-free) and sees both complete records in file order.
        let live = scan_live_records(&path, UarchKind::Haswell, fp).unwrap();
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].0, 3, "file order, not key order");

        // A torn in-flight append is ignored, and — crucially — the
        // owner's file is NOT truncated by the scan.
        let before = std::fs::metadata(&path).unwrap().len();
        let mut torn = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        torn.write_all(b"{\"sum\":12,\"body\":{partial").unwrap();
        drop(torn);
        let live = scan_live_records(&path, UarchKind::Haswell, fp).unwrap();
        assert_eq!(live.len(), 2, "torn tail ignored");
        assert!(
            std::fs::metadata(&path).unwrap().len() > before,
            "scan must never truncate a live writer's log"
        );
        // Missing files read as empty, not as an error.
        let missing = dir.join("no-such.jsonl");
        assert!(scan_live_records(&missing, UarchKind::Haswell, fp)
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_stats_merge_is_commutative_and_counts_add() {
        let a = CacheStats {
            hits: 9,
            misses: 1,
            stale_evictions: 2,
            write_errors: 0,
            degraded: false,
        };
        let b = CacheStats {
            hits: 0,
            misses: 0,
            stale_evictions: 1,
            write_errors: 3,
            degraded: true,
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.hits, 9);
        assert_eq!(ab.write_errors, 3);
        assert!(ab.degraded);
        // The ratio is derived from merged totals: 9/(9+1+0+0), not the
        // average of the per-shard ratios (which would be (0.9+0)/2).
        assert!((ab.hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn compaction_drops_stale_and_preserves_live() {
        let dir = temp_dir("compact");
        let old = ProfileConfig::agner();
        let new = ProfileConfig::bhive();
        {
            let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &old).unwrap();
            cache.insert(1, sample_failure()).unwrap();
        }
        let mut cache = MeasurementCache::open(&dir, UarchKind::Haswell, &new).unwrap();
        assert_eq!(cache.open_report().stale_evictions, 1);
        assert_eq!(cache.stale_on_disk(), 1);
        cache.insert(2, sample_failure()).unwrap();
        cache.compact().unwrap();
        assert_eq!(cache.stale_on_disk(), 0);
        drop(cache);

        // After compaction the old-fingerprint record is physically gone.
        let reopened = MeasurementCache::open(&dir, UarchKind::Haswell, &new).unwrap();
        assert_eq!(reopened.open_report().stale_evictions, 0);
        assert_eq!(reopened.len(), 1);
        assert!(reopened.get(2).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
