//! Parallel corpus profiling under supervision.
//!
//! The pipeline deduplicates the corpus by machine-code content before
//! spawning workers: every distinct encoding is measured exactly once and
//! the result is fanned out to all duplicate positions. This is sound
//! because a measurement is a pure function of (block bytes, uarch,
//! config, attempt) — the noise seed is derived from the block's stable
//! content hash (XOR the attempt index), never from worker identity or
//! scheduling order — so parallel, deduplicated runs are bit-identical to
//! serial ones.
//!
//! Measurement is *supervised* ([`profile_corpus_supervised`]) in two
//! deterministic phases:
//!
//! 1. **Phase A** measures attempt 0 of every unique block. Outcomes that
//!    cannot change (successes and permanent failures) are finalized —
//!    fanned out and streamed to the disk log — the moment they arrive;
//!    transient failures are deferred when retries are enabled.
//! 2. The first-attempt outcomes, read in unique-block *submission* order
//!    (never completion order), feed the [`CircuitBreaker`]. If the
//!    transient-failure rate says the environment itself is degraded, the
//!    breaker trips: deferred failures are reported as-is, no retry
//!    budget is burned, and the run is flagged in [`ProfileStats`].
//! 3. **Phase B** (breaker healthy, retries enabled) re-attempts each
//!    deferred block with escalating trial counts and deterministic
//!    reseeds ([`crate::RetryPolicy`]), stopping at the first success or
//!    permanent failure.
//!
//! Each worker owns one long-lived [`Machine`] and recycles it per block.
//! Recycling resets the architectural state but deliberately keeps the
//! machine's timing arena (prepared trace, simulation scratch, L1 caches,
//! trace buffer — see `bhive_sim::machine`), so after the first few
//! blocks a worker's steady state is allocation-free apart from
//! block-size growth; the speedup in EXPERIMENTS.md "Pipeline speedup"
//! is amortized across the whole corpus by this reuse. A panic while
//! profiling one block is caught, recorded as
//! [`ProfileFailure::Panic`], and the worker's machine is *quarantined* —
//! replaced with a freshly built one, since its state is unknown
//! mid-panic — rather than aborting the run. Results flow back over a
//! channel (no shared mutex).
//!
//! Fault injection for the chaos test suite threads through
//! [`Supervision::chaos`]; see [`crate::chaos`].

use crate::cache::{CacheStats, MeasurementCache};
use crate::chaos::{ChaosInjector, ChaosStats};
use crate::failure::ProfileFailure;
use crate::measurement::Measurement;
use crate::obs::{
    BucketLayout, EventBuffer, ObsConfig, Quantiles, RunObs, RunReport, TraceEvent,
    RUN_REPORT_SCHEMA,
};
use crate::profiler::Profiler;
use crate::retry::{BreakerConfig, BreakerTrip, CircuitBreaker, RetryPolicy};
use bhive_asm::BasicBlock;
use bhive_sim::Machine;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Bucket layout for the deterministic accepted-cycle histogram:
/// doubling bounds 32 … ~2^27 cycles cover every realistic block.
const ACCEPT_CYCLES: BucketLayout = BucketLayout::Exponential {
    first: 32,
    buckets: 24,
};

/// Bucket layout for the wall-section per-item work latency (ns):
/// doubling bounds 1 µs … ~2 × 10³ s.
const WORK_LATENCY_NS: BucketLayout = BucketLayout::Exponential {
    first: 1024,
    buckets: 32,
};

/// `"sim."`-prefixed metric names for `PerfCounters::snapshot`, in
/// snapshot order, pre-joined so the per-accept metrics fold never
/// allocates. A unit test pins this table to the snapshot.
const SIM_COUNTERS: [&str; 9] = [
    "sim.core_cycles",
    "sim.instructions_retired",
    "sim.uops_executed",
    "sim.l1d_read_misses",
    "sim.l1d_write_misses",
    "sim.l1i_misses",
    "sim.context_switches",
    "sim.misaligned_mem_refs",
    "sim.subnormal_events",
];

/// Aggregate result of profiling a set of blocks.
#[derive(Debug)]
pub struct CorpusReport {
    /// Per-block outcome, in input order.
    pub results: Vec<Result<Measurement, ProfileFailure>>,
    /// Observability counters for the run.
    pub stats: ProfileStats,
}

impl CorpusReport {
    /// Number of successfully profiled blocks.
    pub fn successes(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Fraction of blocks successfully profiled (the paper's Table 1
    /// metric).
    pub fn success_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.successes() as f64 / self.results.len() as f64
    }

    /// Failure counts by category.
    pub fn failure_breakdown(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for result in &self.results {
            if let Err(failure) = result {
                *out.entry(failure.category()).or_insert(0) += 1;
            }
        }
        out
    }

    /// Iterates `(index, measurement)` over the successful blocks.
    pub fn measurements(&self) -> impl Iterator<Item = (usize, &Measurement)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(idx, r)| r.as_ref().ok().map(|m| (idx, m)))
    }
}

/// Supervision knobs for a corpus run: circuit-breaker tuning and
/// (for the chaos test suite) a fault injector. The retry budget itself
/// lives in [`crate::ProfileConfig::retry`], because it changes what a
/// measurement *is* and therefore belongs to the config fingerprint.
#[derive(Debug, Default)]
pub struct Supervision {
    /// Run-health circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Deterministic fault injection (`None` outside chaos tests).
    pub chaos: Option<ChaosInjector>,
    /// Observability knobs: event tracing and metrics. Lives here rather
    /// than in [`crate::ProfileConfig`] because observing a run must
    /// never change what a measurement is (it stays out of the config
    /// fingerprint, and results are bit-identical either way).
    pub obs: ObsConfig,
    /// Cooperative stop flag: when it flips true, workers finish the
    /// block in hand, stop claiming new slots, and the remaining blocks
    /// resolve as [`ProfileFailure::Interrupted`]. The process-wide
    /// SIGINT/SIGTERM flag ([`crate::interrupt`]) is honored in addition
    /// to this one; the field exists so tests can interrupt a run
    /// without raising signals in a shared test process.
    pub stop: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl Supervision {
    /// Supervision with an active fault injector.
    pub fn with_chaos(chaos: ChaosInjector) -> Supervision {
        Supervision {
            chaos: Some(chaos),
            ..Supervision::default()
        }
    }

    /// Supervision with observability on.
    pub fn with_obs(obs: ObsConfig) -> Supervision {
        Supervision {
            obs,
            ..Supervision::default()
        }
    }
}

/// What one corpus run did: throughput of the pipeline itself, dedup
/// effectiveness, failure mix, retry recovery, run health, and per-worker
/// utilization.
///
/// Stats from several runs — phase A + work stealing, or one run per
/// shard process — combine with [`ProfileStats::merge`], which is
/// commutative and associative (property-tested in `tests/stats_merge.rs`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileStats {
    /// Blocks submitted (including duplicates).
    pub total_blocks: usize,
    /// Distinct encodings actually measured.
    pub unique_blocks: usize,
    /// Blocks that resolved to a successful measurement.
    pub successful_blocks: usize,
    /// Duplicate blocks served from the dedup cache instead of measured.
    pub cache_hits: usize,
    /// Worker threads actually spawned (0 for an empty corpus).
    pub threads: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Blocks resolved per wall-clock second (duplicates included — the
    /// number consumers of the corpus experience).
    pub blocks_per_sec: f64,
    /// Panics caught and converted to per-block failures.
    pub panics: usize,
    /// Unique blocks whose first attempt failed transiently and that
    /// entered retry escalation.
    pub retried_blocks: usize,
    /// Unique blocks recovered to a successful measurement by a retry.
    pub recovered_blocks: usize,
    /// Extra profiling attempts spent in retry escalation (phase B).
    pub retry_attempts: usize,
    /// Evidence of a circuit-breaker trip: the run is flagged
    /// environment-degraded and retries were suspended. `None` for a
    /// healthy run.
    pub breaker: Option<BreakerTrip>,
    /// Faults fired by the injector, when the run was a chaos run.
    pub chaos: Option<ChaosStats>,
    /// Failure counts by category, over all blocks.
    pub failures: BTreeMap<&'static str, usize>,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// On-disk measurement-cache counters, when the run used one
    /// ([`crate::profile_corpus_cached`]); `None` for uncached runs.
    pub cache: Option<CacheStats>,
    /// The merged observability record, when [`Supervision::obs`] was
    /// enabled; `None` otherwise.
    pub obs: Option<RunObs>,
    /// True when a SIGINT/SIGTERM cut the run short: unprofiled blocks
    /// were resolved as [`ProfileFailure::Interrupted`] (transient, so a
    /// resumed run re-measures them) and the report carries a
    /// partial-run note instead of the process dying mid-write.
    pub interrupted: bool,
}

/// Counters for a single worker thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Unique blocks this worker first-attempted (retry attempts are
    /// accounted in [`ProfileStats::retry_attempts`]).
    pub profiled: usize,
    /// Time spent inside the profiler (as opposed to queueing).
    pub busy: Duration,
    /// Wall-clock window `busy` was accumulated over — the owning run's
    /// elapsed time, stamped when that run finished. Carried per worker
    /// so utilization survives [`ProfileStats::merge`]: after merging
    /// shards, dividing a shard worker's busy time by the *merged*
    /// elapsed (the old behavior) would shrink every ratio toward zero,
    /// and the shrinkage would depend on merge order.
    pub span: Duration,
    /// Panics this worker caught.
    pub panics: usize,
    /// Machines this worker quarantined (rebuilt fresh) after a panic
    /// left the recycled machine's state unknown.
    pub quarantined: usize,
}

impl WorkerStats {
    /// Canonical ordering key: merged worker lists are sorted by this so
    /// [`ProfileStats::merge`] is commutative (thread identity carries
    /// no meaning across runs).
    fn canonical_key(&self) -> (usize, Duration, Duration, usize, usize) {
        (
            self.profiled,
            self.busy,
            self.span,
            self.panics,
            self.quarantined,
        )
    }
}

impl ProfileStats {
    /// Per-worker busy fraction of that worker's run window, in worker
    /// order. Near-1.0 everywhere means the corpus kept every thread fed.
    ///
    /// Each ratio divides the worker's busy time by its *own* recorded
    /// [`WorkerStats::span`] (falling back to the run's elapsed time for
    /// stats recorded before spans existed), so the number stays correct
    /// after merging shard stats — dividing by the merged wall clock
    /// does not commute.
    ///
    /// The ratio is reported *raw*: a value above 1.0 means busy-time
    /// accounting disagrees with the wall clock (timer skew, a worker
    /// still mid-block when the clock stopped) and is worth seeing, not
    /// clamping away.
    pub fn worker_utilization(&self) -> Vec<f64> {
        let fallback = self.elapsed.as_secs_f64();
        self.workers
            .iter()
            .map(|w| {
                let span = w.span.as_secs_f64();
                let window = if span > 0.0 { span } else { fallback };
                if window > 0.0 {
                    w.busy.as_secs_f64() / window
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Folds another run's stats into this one — the cross-shard (and
    /// phase/steal) aggregation. Commutative and associative in every
    /// field (property-tested in `tests/stats_merge.rs`):
    ///
    /// * counts and failure maps add;
    /// * `elapsed` takes the max (shards run concurrently; summing would
    ///   double-count the wall clock) and `blocks_per_sec` is recomputed
    ///   from the merged totals — never averaged, ratios do not commute;
    /// * worker rows concatenate and re-sort canonically, each keeping
    ///   its own [`WorkerStats::span`] for utilization;
    /// * the breaker keeps the trip with the smallest ordinal evidence,
    ///   cache stats merge via [`CacheStats::merge`], chaos counters add;
    /// * observability keeps only the associative registries (metrics,
    ///   wall metrics, drop counts). Event streams are run-local — their
    ///   `unique` ordinals index *that run's* submission order, so
    ///   cross-run event interleaving would be meaningless — and are
    ///   dropped from the merged record.
    pub fn merge(&mut self, other: &ProfileStats) {
        self.total_blocks += other.total_blocks;
        self.unique_blocks += other.unique_blocks;
        self.successful_blocks += other.successful_blocks;
        self.cache_hits += other.cache_hits;
        self.threads += other.threads;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.panics += other.panics;
        self.retried_blocks += other.retried_blocks;
        self.recovered_blocks += other.recovered_blocks;
        self.retry_attempts += other.retry_attempts;
        self.breaker = BreakerTrip::earliest(self.breaker, other.breaker);
        self.chaos = match (self.chaos, other.chaos) {
            (Some(a), Some(b)) => Some(ChaosStats {
                injected_panics: a.injected_panics + b.injected_panics,
                forced_transients: a.forced_transients + b.forced_transients,
                cache_write_errors: a.cache_write_errors + b.cache_write_errors,
                dropped_connections: a.dropped_connections + b.dropped_connections,
                slow_loris_stalls: a.slow_loris_stalls + b.slow_loris_stalls,
                burst_requests: a.burst_requests + b.burst_requests,
            }),
            (a, b) => a.or(b),
        };
        self.interrupted |= other.interrupted;
        for (category, n) in &other.failures {
            *self.failures.entry(category).or_insert(0) += n;
        }
        self.workers.extend(other.workers.iter().cloned());
        self.workers.sort_by_key(WorkerStats::canonical_key);
        self.cache = match (self.cache, other.cache) {
            (Some(mut a), Some(b)) => {
                a.merge(&b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
        self.obs = match (self.obs.take(), other.obs.as_ref()) {
            (None, None) => None,
            (a, b) => {
                let mut merged = RunObs::default();
                for side in a.iter().chain(b.cloned().iter()) {
                    merged.metrics.merge(&side.metrics);
                    merged.wall_metrics.merge(&side.wall_metrics);
                    merged.dropped_events += side.dropped_events;
                }
                Some(merged)
            }
        };
        self.blocks_per_sec = if self.elapsed.as_secs_f64() > 0.0 {
            self.total_blocks as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        };
    }

    /// Machines quarantined across all workers.
    pub fn quarantined(&self) -> usize {
        self.workers.iter().map(|w| w.quarantined).sum()
    }

    /// True when the run should be treated as unhealthy by scripted
    /// callers: the circuit breaker tripped (environment degraded), or
    /// blocks were submitted and none profiled successfully.
    pub fn is_unhealthy(&self) -> bool {
        self.breaker.is_some() || (self.total_blocks > 0 && self.successful_blocks == 0)
    }

    /// Builds the machine-readable [`RunReport`] for an observed run
    /// (`None` when the run was not observed). The report carries *only*
    /// deterministic content — counts, ordinals, cycles; never wall-clock
    /// time or thread counts — so its serialized bytes are identical at
    /// any thread count (when no events were dropped).
    pub fn run_report(&self, label: &str) -> Option<RunReport> {
        let obs = self.obs.as_ref()?;
        let quantiles = obs
            .metrics
            .histograms()
            .map(|(name, hist)| (name.to_string(), Quantiles::of(hist)))
            .collect();
        Some(RunReport {
            schema: RUN_REPORT_SCHEMA.to_string(),
            label: label.to_string(),
            total_blocks: self.total_blocks,
            unique_blocks: self.unique_blocks,
            successful_blocks: self.successful_blocks,
            dedup_hits: self.cache_hits,
            retried_blocks: self.retried_blocks,
            recovered_blocks: self.recovered_blocks,
            retry_attempts: self.retry_attempts,
            breaker: self.breaker,
            cache: self.cache,
            failures: self
                .failures
                .iter()
                .map(|(category, n)| ((*category).to_string(), *n as u64))
                .collect(),
            event_counts: obs.event_counts(),
            dropped_events: obs.dropped_events,
            interrupted: self.interrupted,
            metrics: obs.metrics.clone(),
            quantiles,
        })
    }
}

/// `1 thread`, `2 threads`: counts a noun with the right plural form.
fn counted(n: usize, one: &str, many: &str) -> String {
    format!("{n} {}", if n == 1 { one } else { many })
}

impl std::fmt::Display for ProfileStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} unique, {}) in {:.2}s — {:.1} blocks/s on {}",
            counted(self.total_blocks, "block", "blocks"),
            self.unique_blocks,
            counted(self.cache_hits, "cache hit", "cache hits"),
            self.elapsed.as_secs_f64(),
            self.blocks_per_sec,
            counted(self.threads, "thread", "threads"),
        )?;
        if let Some(cache) = &self.cache {
            write!(
                f,
                "; disk cache: {}, {}, {} stale evicted",
                counted(cache.hits, "hit", "hits"),
                counted(cache.misses, "miss", "misses"),
                cache.stale_evictions,
            )?;
            if cache.write_errors > 0 {
                write!(
                    f,
                    ", {}",
                    counted(cache.write_errors, "write error", "write errors")
                )?;
            }
            if cache.degraded {
                write!(f, ", DEGRADED to cache-off")?;
            }
        }
        if self.panics > 0 {
            write!(f, "; {} caught", counted(self.panics, "panic", "panics"))?;
        }
        if self.quarantined() > 0 {
            write!(
                f,
                "; {} quarantined",
                counted(self.quarantined(), "machine", "machines")
            )?;
        }
        if self.retried_blocks > 0 {
            write!(
                f,
                "; {} recovered on retry ({} retried, {} extra attempts)",
                counted(self.recovered_blocks, "block", "blocks"),
                self.retried_blocks,
                self.retry_attempts,
            )?;
        }
        if let Some(trip) = &self.breaker {
            write!(
                f,
                "; BREAKER TRIPPED at block {} ({:.0}% transient over {}): \
                 environment degraded, retries suspended",
                trip.at_block,
                trip.rate * 100.0,
                counted(trip.window, "block", "blocks"),
            )?;
        }
        if self.interrupted {
            write!(f, "; INTERRUPTED: partial run, unprofiled blocks deferred")?;
        }
        if let Some(chaos) = &self.chaos {
            if !chaos.is_empty() {
                write!(
                    f,
                    "; chaos injected: {} panics, {} transients, {} cache errors",
                    chaos.injected_panics, chaos.forced_transients, chaos.cache_write_errors,
                )?;
            }
        }
        if !self.failures.is_empty() {
            let mix: Vec<String> = self
                .failures
                .iter()
                .map(|(cat, n)| format!("{cat} {n}"))
                .collect();
            write!(f, "; failures: {}", mix.join(", "))?;
        }
        let utilization: Vec<String> = self
            .worker_utilization()
            .iter()
            // A trailing `!` flags busy-time above wall-clock instead of
            // silently capping the ratio at 100%.
            .map(|u| format!("{:.0}%{}", u * 100.0, if *u > 1.0 { "!" } else { "" }))
            .collect();
        if !utilization.is_empty() {
            write!(f, "; worker utilization: {}", utilization.join(" "))?;
        }
        if let Some(obs) = &self.obs {
            write!(
                f,
                "; {} traced",
                counted(obs.events.len(), "event", "events")
            )?;
            if obs.dropped_events > 0 {
                write!(f, " ({} DROPPED by ring overflow)", obs.dropped_events)?;
            }
        }
        Ok(())
    }
}

/// Profiles every block with `threads` worker threads (0 = one per CPU).
///
/// Duplicate blocks (by encoded machine code) are measured once and
/// fanned out; each worker reuses a single recycled [`Machine`]; a panic
/// while profiling a block becomes that block's [`ProfileFailure::Panic`]
/// instead of aborting the run. Results are bit-identical to calling
/// [`Profiler::profile`] serially on each block, in any thread count.
pub fn profile_corpus(profiler: &Profiler, blocks: &[BasicBlock], threads: usize) -> CorpusReport {
    profile_corpus_cached(profiler, blocks, threads, None)
}

/// [`profile_corpus`] with an optional on-disk [`MeasurementCache`] and
/// default [`Supervision`].
///
/// With a cache, a lookup stage runs ahead of measurement: every unique
/// encoding already in the cache is served from disk (a *hit*), and only
/// the misses consume machine time. Each freshly *finalized* outcome —
/// a success or a permanent failure; transient failures are never
/// persisted, so a resumed run retries them — is appended to the log,
/// flushed record by record as the run progresses, so an interrupted run
/// resumes without re-measuring completed blocks. Warm results are
/// bit-identical to a cold run: the cache stores exactly what the
/// profiler returned, keyed by (block bytes, uarch,
/// [`crate::ProfileConfig::fingerprint`]), and profiling is a pure
/// function of that key.
///
/// Stale records found at open (config fingerprint changed between runs)
/// are compacted away after the run. Cache I/O never fails the run: the
/// first write error counts in [`CacheStats::write_errors`], sets
/// [`CacheStats::degraded`], and degrades the rest of the run to
/// cache-off — measurement continues, later outcomes simply stay
/// uncached.
pub fn profile_corpus_cached(
    profiler: &Profiler,
    blocks: &[BasicBlock],
    threads: usize,
    cache: Option<&mut MeasurementCache>,
) -> CorpusReport {
    profile_corpus_supervised(profiler, blocks, threads, cache, &Supervision::default())
}

/// The full supervised pipeline: [`profile_corpus_cached`] plus explicit
/// circuit-breaker tuning and (for chaos tests) fault injection.
///
/// See the [module docs](self) for the phase structure. Outcomes —
/// including *which attempt* succeeded and whether the breaker tripped —
/// are a deterministic function of (corpus content, uarch, config,
/// breaker tuning, fault plan): bit-identical at any thread count, cold
/// or warm cache.
pub fn profile_corpus_supervised(
    profiler: &Profiler,
    blocks: &[BasicBlock],
    threads: usize,
    mut cache: Option<&mut MeasurementCache>,
    supervision: &Supervision,
) -> CorpusReport {
    let started = Instant::now();
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        threads
    };
    let chaos = supervision.chaos.as_ref();
    let retries = profiler.config().retry.retries;
    let ring = supervision.obs.enabled.then(|| supervision.obs.capacity());
    // The main thread records the run-level preamble (recovery note,
    // cache open), the submission-ordered lookup events, the breaker
    // verdict, and the wall-section cache-write events.
    let mut main_buf = ring.map(EventBuffer::new);
    if let Some(buf) = main_buf.as_mut() {
        if let Some(note) = supervision.obs.resume_note {
            buf.emit(TraceEvent::TraceRecovered {
                dropped_records: note.dropped_records,
                dropped_bytes: note.dropped_bytes,
            });
        }
    }

    // ---- Dedup stage: one work item per distinct encoding. ----
    // Within one run, uarch and config are fixed, so the encoded bytes
    // alone are the content address; the *cross-run* disk key additionally
    // folds in the uarch and `ProfileConfig::fingerprint()`.
    let mut results: Vec<Option<Result<Measurement, ProfileFailure>>> = vec![None; blocks.len()];
    let mut key_to_unique: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut unique_rep: Vec<usize> = Vec::new(); // representative block index
    let mut unique_keys: Vec<u64> = Vec::new(); // unique id -> disk key
    let mut fanout: Vec<Vec<usize>> = Vec::new(); // unique id -> block indices
    for (idx, block) in blocks.iter().enumerate() {
        match block.encode() {
            Ok(bytes) => match key_to_unique.entry(bytes) {
                Entry::Occupied(entry) => fanout[*entry.get()].push(idx),
                Entry::Vacant(entry) => {
                    if let Some(cache) = cache.as_deref() {
                        unique_keys.push(cache.key_for(entry.key()));
                    }
                    entry.insert(unique_rep.len());
                    unique_rep.push(idx);
                    fanout.push(vec![idx]);
                }
            },
            // Unencodable blocks need no machine time; resolve them here.
            Err(err) => results[idx] = Some(Err(ProfileFailure::from_asm(err))),
        }
    }
    let cache_hits: usize = fanout.iter().map(|positions| positions.len() - 1).sum();

    // ---- Disk-lookup stage: serve warm blocks before spawning anyone. --
    let mut disk = CacheStats::default();
    let mut pending: Vec<usize> = Vec::new(); // unique ids still to measure
    if let Some(cache) = cache.as_deref() {
        let open = cache.open_report();
        disk.stale_evictions = open.stale_evictions;
        if let Some(buf) = main_buf.as_mut() {
            buf.emit(TraceEvent::CacheOpened {
                loaded: open.loaded,
                stale_evictions: open.stale_evictions,
                transient_evictions: open.transient_evictions,
                dropped_records: open.dropped_records,
                dropped_bytes: open.dropped_bytes,
            });
        }
        for (unique, &key) in unique_keys.iter().enumerate() {
            match cache.get(key) {
                Some(outcome) => {
                    disk.hits += 1;
                    if let Some(buf) = main_buf.as_mut() {
                        buf.emit(TraceEvent::CacheHit { unique });
                        buf.add("cache.disk-hits", 1);
                    }
                    let outcome = outcome.clone().into_result();
                    for &idx in &fanout[unique] {
                        results[idx] = Some(outcome.clone());
                    }
                }
                None => {
                    disk.misses += 1;
                    if let Some(buf) = main_buf.as_mut() {
                        buf.emit(TraceEvent::CacheMiss { unique });
                        buf.add("cache.disk-misses", 1);
                    }
                    pending.push(unique);
                }
            }
        }
    } else {
        pending = (0..unique_rep.len()).collect();
    }
    let cache_was_active = cache.is_some();

    // ---- Phase A: first attempts, never more workers than work. ----
    // Final outcomes (successes, permanent failures, or transients when
    // retries are off) stream to the disk log as they arrive, keeping the
    // crash-safety of the unsupervised pipeline; transient failures are
    // deferred for the breaker verdict.
    let worker_count = threads.min(pending.len());
    let mut first: Vec<Option<Result<Measurement, ProfileFailure>>> = vec![None; pending.len()];
    let mut write_ordinal = 0usize;
    let stop = supervision.stop.as_deref();
    let (phase_a, mut worker_buffers) = run_workers(
        profiler,
        worker_count,
        pending.len(),
        ring,
        stop,
        |slot, machine, stats, obs| {
            let unique = pending[slot];
            let block = &blocks[unique_rep[unique]];
            if let Some(buf) = obs.as_mut() {
                buf.emit(TraceEvent::Dequeue { unique, attempt: 0 });
            }
            let claimed = Instant::now();
            let outcome = attempt_block(profiler, block, unique, 0, machine, stats, chaos, obs);
            let spent = claimed.elapsed();
            stats.busy += spent;
            stats.profiled += 1;
            if let Some(buf) = obs.as_mut() {
                buf.observe_wall("work.latency-ns", WORK_LATENCY_NS, spent.as_nanos() as u64);
            }
            (slot, outcome)
        },
        |(slot, outcome)| {
            let deferred = retries > 0 && matches!(&outcome, Err(f) if f.is_transient());
            if !deferred {
                finalize_outcome(
                    pending[slot],
                    &outcome,
                    &unique_keys,
                    &fanout,
                    &mut results,
                    &mut cache,
                    &mut disk,
                    chaos,
                    &mut write_ordinal,
                    &mut main_buf,
                );
            }
            first[slot] = Some(outcome);
        },
    );

    // ---- Run-health verdict: first-attempt outcomes in *submission*
    // order (pending order), never completion order, so the breaker trips
    // identically at any thread count.
    let mut breaker = CircuitBreaker::new(supervision.breaker);
    for outcome in &first {
        breaker.observe(matches!(outcome, Some(Err(f)) if f.is_transient()));
    }
    let trip = breaker.trip();
    if let (Some(buf), Some(trip)) = (main_buf.as_mut(), trip) {
        buf.emit(TraceEvent::BreakerTrip {
            at_block: trip.at_block,
            rate: trip.rate,
            window: trip.window,
        });
        buf.add("breaker.trips", 1);
    }

    // ---- Phase B: retry escalation for deferred transients. ----
    let mut retried_blocks = 0usize;
    let mut recovered_blocks = 0usize;
    let mut retry_attempts = 0usize;
    let mut phase_b: Vec<WorkerStats> = Vec::new();
    if retries > 0 {
        let deferred: Vec<usize> = first
            .iter()
            .enumerate()
            .filter(|(_, outcome)| matches!(outcome, Some(Err(f)) if f.is_transient()))
            .map(|(slot, _)| slot)
            .collect();
        if trip.is_some() {
            // Environment degraded: burning escalated retries would waste
            // machine time on a polluted run. Report first attempts as-is.
            for &slot in &deferred {
                let outcome = first[slot].clone().expect("phase A resolved every slot");
                finalize_outcome(
                    pending[slot],
                    &outcome,
                    &unique_keys,
                    &fanout,
                    &mut results,
                    &mut cache,
                    &mut disk,
                    chaos,
                    &mut write_ordinal,
                    &mut main_buf,
                );
            }
        } else if !deferred.is_empty() {
            retried_blocks = deferred.len();
            let (stats_b, buffers_b) = run_workers(
                profiler,
                threads.min(deferred.len()),
                deferred.len(),
                ring,
                stop,
                |dslot, machine, stats, obs| {
                    let slot = deferred[dslot];
                    let unique = pending[slot];
                    let block = &blocks[unique_rep[unique]];
                    if let Some(buf) = obs.as_mut() {
                        buf.emit(TraceEvent::Dequeue { unique, attempt: 1 });
                    }
                    let claimed = Instant::now();
                    let mut attempts_used = 0u32;
                    let mut outcome = None;
                    for attempt in 1..=retries {
                        attempts_used += 1;
                        if let Some(buf) = obs.as_mut() {
                            buf.emit(TraceEvent::RetryEscalation {
                                unique,
                                attempt,
                                trials: RetryPolicy::trials_for(attempt, profiler.config().trials),
                            });
                            buf.add("retry.attempts", 1);
                            buf.gauge_max("retry.max-attempt", u64::from(attempt));
                        }
                        let out = attempt_block(
                            profiler, block, unique, attempt, machine, stats, chaos, obs,
                        );
                        let transient = matches!(&out, Err(f) if f.is_transient());
                        outcome = Some(out);
                        if !transient {
                            break;
                        }
                    }
                    let spent = claimed.elapsed();
                    stats.busy += spent;
                    if let Some(buf) = obs.as_mut() {
                        buf.observe_wall(
                            "work.latency-ns",
                            WORK_LATENCY_NS,
                            spent.as_nanos() as u64,
                        );
                    }
                    let outcome = outcome.expect("retries >= 1 runs at least one attempt");
                    (slot, outcome, attempts_used)
                },
                |(slot, outcome, attempts_used): (usize, _, u32)| {
                    retry_attempts += attempts_used as usize;
                    if outcome.is_ok() {
                        recovered_blocks += 1;
                    }
                    finalize_outcome(
                        pending[slot],
                        &outcome,
                        &unique_keys,
                        &fanout,
                        &mut results,
                        &mut cache,
                        &mut disk,
                        chaos,
                        &mut write_ordinal,
                        &mut main_buf,
                    );
                },
            );
            phase_b = stats_b;
            worker_buffers.extend(buffers_b);
        }
    }

    // Merge phase B worker effort into the phase A rows: phase B never
    // spawns more workers than phase A did (deferred ⊆ pending), so the
    // index-wise merge is total.
    let mut workers = phase_a;
    for (idx, extra) in phase_b.into_iter().enumerate() {
        let w = &mut workers[idx];
        w.profiled += extra.profiled;
        w.busy += extra.busy;
        w.panics += extra.panics;
        w.quarantined += extra.quarantined;
    }

    // Stale records (older config fingerprints, legacy transients) were
    // skipped at open; reclaim their log space now that the run is over.
    // A cache degraded mid-run is already `None` here, so a failing disk
    // is never touched again.
    if let Some(cache) = cache {
        if cache.stale_on_disk() > 0 && cache.compact().is_err() {
            disk.write_errors += 1;
        }
    }

    // An interrupted run leaves unclaimed (and unretried) slots
    // unresolved; they become `Interrupted` — transient, never
    // persisted — so a resumed run measures them normally.
    let run_interrupted =
        stop.is_some_and(|s| s.load(Ordering::Relaxed)) || crate::interrupt::interrupted();
    let mut cut_short = false;
    let results: Vec<Result<Measurement, ProfileFailure>> = results
        .into_iter()
        .map(|slot| match slot {
            Some(outcome) => outcome,
            None => {
                assert!(run_interrupted, "every index resolved");
                cut_short = true;
                Err(ProfileFailure::Interrupted)
            }
        })
        .collect();

    // Merge per-recorder buffers into the run record: concatenation order
    // is irrelevant (the sort key orders events), so main-thread and
    // worker buffers just chain.
    let obs = main_buf.map(|buf| {
        let mut buffers = vec![buf];
        buffers.append(&mut worker_buffers);
        RunObs::merge(buffers)
    });

    let elapsed = started.elapsed();
    // Stamp each worker's accounting window now, while the run's wall
    // clock is the right denominator; after a cross-shard merge it no
    // longer is (see [`WorkerStats::span`]).
    for w in &mut workers {
        w.span = elapsed;
    }
    let mut failures = BTreeMap::new();
    for result in &results {
        if let Err(failure) = result {
            *failures.entry(failure.category()).or_insert(0) += 1;
        }
    }
    let stats = ProfileStats {
        total_blocks: blocks.len(),
        unique_blocks: unique_rep.len(),
        successful_blocks: results.iter().filter(|r| r.is_ok()).count(),
        cache_hits,
        threads: worker_count,
        elapsed,
        blocks_per_sec: if elapsed.as_secs_f64() > 0.0 {
            blocks.len() as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        panics: workers.iter().map(|w| w.panics).sum(),
        retried_blocks,
        recovered_blocks,
        retry_attempts,
        breaker: trip,
        chaos: chaos.map(|c| c.stats()),
        failures,
        workers,
        cache: cache_was_active.then_some(disk),
        obs,
        interrupted: cut_short,
    };
    CorpusReport { results, stats }
}

/// One profiling attempt under supervision: consults the fault injector,
/// catches panics (real or injected), and quarantines the worker's
/// machine after one — its state is unknown mid-panic, so it is replaced
/// with a freshly built machine rather than recycled.
///
/// When observed, the attempt traces its whole lifecycle — start,
/// profiler-stage events (page mappings, measurement), quarantine, and
/// the accept/failure verdict — into the worker's buffer, and folds the
/// deterministic quantities (cycle counts, simulated perf counters,
/// failure categories) into its metrics.
#[allow(clippy::too_many_arguments)]
fn attempt_block(
    profiler: &Profiler,
    block: &BasicBlock,
    unique: usize,
    attempt: u32,
    machine: &mut Machine,
    stats: &mut WorkerStats,
    chaos: Option<&ChaosInjector>,
    obs: &mut Option<EventBuffer>,
) -> Result<Measurement, ProfileFailure> {
    if let Some(buf) = obs.as_mut() {
        buf.emit(TraceEvent::AttemptStart {
            unique,
            attempt,
            trials: RetryPolicy::trials_for(attempt, profiler.config().trials),
        });
        buf.add("attempts.total", 1);
    }
    let lower_before = machine.lower_stats();
    let forced = chaos.is_some_and(|c| c.forces_transient(unique, attempt));
    let outcome = if forced {
        Err(ProfileFailure::Unreproducible {
            clean: 0,
            identical: 0,
            required: profiler.config().min_clean_identical,
        })
    } else {
        catch_unwind(AssertUnwindSafe(|| {
            if let Some(chaos) = chaos {
                chaos.panic_if_planned(unique, attempt);
            }
            match obs.as_mut() {
                Some(buf) => profiler.profile_attempt_observed(block, machine, attempt, &mut |e| {
                    buf.attempt_event(unique, attempt, e)
                }),
                None => profiler.profile_attempt(block, machine, attempt),
            }
        }))
        .unwrap_or_else(|payload| {
            stats.panics += 1;
            stats.quarantined += 1;
            *machine = Machine::new(profiler.uarch(), 0);
            if let Some(buf) = obs.as_mut() {
                buf.emit(TraceEvent::Quarantine { unique, attempt });
                buf.add("machines.quarantined", 1);
            }
            Err(ProfileFailure::Panic {
                message: panic_message(payload.as_ref()),
            })
        })
    };
    if let Some(buf) = obs.as_mut() {
        // Lowering-cache traffic is wall-section material: whether this
        // attempt's first lookup hits depends on which block this worker
        // profiled last, i.e. on scheduling, not on the corpus.
        // `saturating_sub` because a quarantine replaced the machine —
        // and its counters — with fresh zeros mid-attempt.
        let lower = machine.lower_stats();
        buf.add_wall(
            "sim.lower.hit",
            lower.hits.saturating_sub(lower_before.hits),
        );
        buf.add_wall(
            "sim.lower.miss",
            lower.misses.saturating_sub(lower_before.misses),
        );
        match &outcome {
            Ok(m) => {
                buf.emit(TraceEvent::Accept {
                    unique,
                    attempt,
                    throughput: m.throughput,
                });
                buf.add("attempts.accepted", 1);
                buf.observe("accept.cycles", ACCEPT_CYCLES, m.hi.accepted_cycles);
                for ((_, value), prefixed) in m.hi.counters.snapshot().iter().zip(SIM_COUNTERS) {
                    buf.add(prefixed, *value);
                }
            }
            Err(failure) => {
                buf.emit(TraceEvent::AttemptFailed {
                    unique,
                    attempt,
                    class: failure.class().to_string(),
                    category: failure.category().to_string(),
                });
                buf.add(&format!("failures.{}", failure.category()), 1);
            }
        }
    }
    outcome
}

/// Finalizes one unique block's outcome: persists it to the disk log
/// (successes and permanent failures only — transient failures must be
/// retried by the next run, so they are never written) and fans it out to
/// every duplicate position.
///
/// The first cache-write error — real, or injected by the chaos plan —
/// degrades the rest of the run to cache-off: the cache option is taken,
/// [`CacheStats::degraded`] is set, and measurement continues.
#[allow(clippy::too_many_arguments)]
fn finalize_outcome(
    unique: usize,
    outcome: &Result<Measurement, ProfileFailure>,
    unique_keys: &[u64],
    fanout: &[Vec<usize>],
    results: &mut [Option<Result<Measurement, ProfileFailure>>],
    cache: &mut Option<&mut MeasurementCache>,
    disk: &mut CacheStats,
    chaos: Option<&ChaosInjector>,
    write_ordinal: &mut usize,
    obs: &mut Option<EventBuffer>,
) {
    let persistable = match outcome {
        Ok(_) => true,
        Err(failure) => !failure.is_transient(),
    };
    if persistable {
        if let Some(live) = cache.as_deref_mut() {
            let nth = *write_ordinal;
            *write_ordinal += 1;
            let injected = chaos.is_some_and(|c| c.fail_cache_write(nth));
            let written = if injected {
                Err(std::io::Error::other("chaos: injected cache-write error"))
            } else {
                live.insert(unique_keys[unique], outcome.clone().into())
            };
            if written.is_err() {
                // Write ordinals are completion-ordered, so these two
                // events belong to the wall section, never the
                // deterministic merge.
                if let Some(buf) = obs.as_mut() {
                    buf.emit_wall(TraceEvent::CacheWriteError {
                        ordinal: nth,
                        unique,
                        injected,
                    });
                    buf.emit_wall(TraceEvent::CacheDegraded { ordinal: nth });
                }
                disk.write_errors += 1;
                disk.degraded = true;
                *cache = None;
            }
        }
    }
    for &idx in &fanout[unique] {
        results[idx] = Some(outcome.clone());
    }
}

/// Work-stealing worker pool over `items` slots: `worker_count` scoped
/// threads each own one recycled [`Machine`] (and, when `ring_capacity`
/// is set, one [`EventBuffer`]), claim slots from a shared atomic
/// counter, and send `work`'s result to the (main-thread) `collect`
/// closure over a channel. Returns per-worker counters plus the event
/// buffers (empty when observability is off).
fn run_workers<T, W, C>(
    profiler: &Profiler,
    worker_count: usize,
    items: usize,
    ring_capacity: Option<usize>,
    stop: Option<&std::sync::atomic::AtomicBool>,
    work: W,
    mut collect: C,
) -> (Vec<WorkerStats>, Vec<EventBuffer>)
where
    T: Send,
    W: Fn(usize, &mut Machine, &mut WorkerStats, &mut Option<EventBuffer>) -> T + Sync,
    C: FnMut(T),
{
    if worker_count == 0 {
        return (Vec::new(), Vec::new());
    }
    let next = AtomicUsize::new(0);
    let (sender, receiver) = mpsc::channel();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..worker_count)
            .map(|_| {
                let sender = sender.clone();
                let next = &next;
                let work = &work;
                scope.spawn(move || {
                    let mut machine = Machine::new(profiler.uarch(), 0);
                    let mut stats = WorkerStats::default();
                    let mut obs = ring_capacity.map(EventBuffer::new);
                    loop {
                        // Graceful interruption: finish the block in
                        // hand, never start another. Checked before the
                        // claim so an interrupted run leaves unclaimed
                        // slots unresolved (they become `Interrupted`).
                        if stop.is_some_and(|s| s.load(Ordering::Relaxed))
                            || crate::interrupt::interrupted()
                        {
                            break;
                        }
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= items {
                            break;
                        }
                        let out = work(slot, &mut machine, &mut stats, &mut obs);
                        sender.send(out).expect("collector outlives workers");
                    }
                    (stats, obs)
                })
            })
            .collect();
        // The collector runs concurrently with the workers on the main
        // thread; dropping our sender clone lets the channel close when
        // the last worker finishes.
        drop(sender);
        for out in receiver {
            collect(out);
        }
        let mut all_stats = Vec::with_capacity(worker_count);
        let mut buffers = Vec::new();
        for handle in handles {
            let (stats, obs) = handle.join().expect("worker loop cannot panic");
            all_stats.push(stats);
            buffers.extend(obs);
        }
        (all_stats, buffers)
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use crate::config::ProfileConfig;
    use bhive_asm::parse_block;
    use bhive_uarch::Uarch;

    #[test]
    fn sim_counter_names_pin_the_snapshot_order() {
        let snap = bhive_sim::PerfCounters::default().snapshot();
        assert_eq!(snap.len(), SIM_COUNTERS.len());
        for ((name, _), prefixed) in snap.iter().zip(SIM_COUNTERS) {
            assert_eq!(
                prefixed,
                format!("sim.{name}"),
                "table drifted from snapshot"
            );
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let blocks: Vec<BasicBlock> = [
            "add rax, 1",
            "imul rbx, rcx",
            "mov rax, qword ptr [rbx]",
            "xor eax, eax",
            "xor ebx, ebx\nmov rax, qword ptr [rbx]", // fails: null page
        ]
        .iter()
        .map(|t| parse_block(t).unwrap())
        .collect();
        let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet());
        let parallel = profile_corpus(&profiler, &blocks, 4);
        assert_eq!(parallel.results.len(), 5);
        assert_eq!(parallel.successes(), 4);
        assert_eq!(parallel.failure_breakdown()["invalid-address"], 1);
        for (idx, block) in blocks.iter().enumerate() {
            let serial = profiler.profile(block);
            match (&parallel.results[idx], &serial) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "block {idx}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "block {idx}"),
                other => panic!("parallel/serial disagree on block {idx}: {other:?}"),
            }
        }
        assert!((parallel.success_rate() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn duplicates_measure_once_and_fan_out() {
        let a = parse_block("add rax, 1").unwrap();
        let b = parse_block("imul rbx, rcx").unwrap();
        let blocks = vec![a.clone(), b.clone(), a.clone(), a, b];
        let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet());
        let report = profile_corpus(&profiler, &blocks, 2);
        assert_eq!(report.stats.total_blocks, 5);
        assert_eq!(report.stats.unique_blocks, 2);
        assert_eq!(report.stats.cache_hits, 3);
        assert_eq!(report.stats.successful_blocks, 5);
        // Fanned-out duplicates are the same measurement, bit for bit.
        assert_eq!(report.results[0], report.results[2]);
        assert_eq!(report.results[0], report.results[3]);
        assert_eq!(report.results[1], report.results[4]);
        assert_eq!(
            report
                .stats
                .workers
                .iter()
                .map(|w| w.profiled)
                .sum::<usize>(),
            2,
            "only unique blocks consume machine time"
        );
    }

    #[test]
    fn empty_corpus_spawns_no_workers() {
        let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet());
        let report = profile_corpus(&profiler, &[], 0);
        assert_eq!(report.results.len(), 0);
        assert_eq!(report.success_rate(), 0.0);
        assert_eq!(report.stats.threads, 0, "no work, no worker threads");
        assert!(report.stats.workers.is_empty());
        assert!(
            !report.stats.is_unhealthy(),
            "an empty corpus is vacuously healthy"
        );
    }

    #[test]
    fn worker_count_never_exceeds_unique_blocks() {
        let block = parse_block("add rax, 1").unwrap();
        let blocks = vec![block.clone(), block.clone(), block];
        let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet());
        let report = profile_corpus(&profiler, &blocks, 8);
        assert_eq!(report.stats.threads, 1, "one unique block, one worker");
        assert_eq!(report.stats.cache_hits, 2);
    }

    #[test]
    fn stats_display_reads_like_a_summary() {
        let block = parse_block("add rax, 1").unwrap();
        let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet());
        let report = profile_corpus(&profiler, &[block.clone(), block], 1);
        let text = report.stats.to_string();
        // Singular counts read as singular — no "1 threads" / "1 cache hits".
        assert!(text.contains("2 blocks (1 unique, 1 cache hit)"), "{text}");
        assert!(text.contains("1 thread"), "{text}");
        assert!(!text.contains("1 threads"), "{text}");
        assert!(text.contains("worker utilization"), "{text}");
        assert!(!text.contains("disk cache"), "uncached run: {text}");
        // Healthy, retry-free runs stay free of supervision noise.
        assert!(!text.contains("BREAKER"), "{text}");
        assert!(!text.contains("recovered on retry"), "{text}");
        assert!(!text.contains("chaos"), "{text}");
    }

    #[test]
    fn display_flags_utilization_above_wall_clock() {
        let stats = ProfileStats {
            total_blocks: 1,
            unique_blocks: 1,
            threads: 1,
            elapsed: Duration::from_secs(1),
            workers: vec![WorkerStats {
                profiled: 1,
                busy: Duration::from_millis(1500),
                span: Duration::from_secs(1),
                panics: 0,
                quarantined: 0,
            }],
            ..ProfileStats::default()
        };
        // The raw ratio is reported, not clamped to 1.0 …
        let utilization = stats.worker_utilization();
        assert!((utilization[0] - 1.5).abs() < 1e-9, "{utilization:?}");
        // … and the Display flags it instead of hiding the skew.
        let text = stats.to_string();
        assert!(text.contains("150%!"), "{text}");
    }

    #[test]
    fn display_reports_supervision_events() {
        let stats = ProfileStats {
            total_blocks: 100,
            unique_blocks: 100,
            retried_blocks: 9,
            recovered_blocks: 4,
            retry_attempts: 12,
            breaker: Some(BreakerTrip {
                at_block: 63,
                rate: 0.75,
                window: 64,
            }),
            chaos: Some(ChaosStats {
                injected_panics: 1,
                forced_transients: 2,
                ..ChaosStats::default()
            }),
            ..ProfileStats::default()
        };
        let text = stats.to_string();
        assert!(text.contains("4 blocks recovered on retry"), "{text}");
        assert!(text.contains("9 retried"), "{text}");
        assert!(text.contains("12 extra attempts"), "{text}");
        assert!(
            text.contains("BREAKER TRIPPED at block 63 (75% transient over 64 blocks)"),
            "{text}"
        );
        assert!(text.contains("chaos injected: 1 panics"), "{text}");
        assert!(stats.is_unhealthy(), "a tripped run is unhealthy");
    }

    #[test]
    fn default_supervision_is_inert() {
        let blocks: Vec<BasicBlock> = ["add rax, 1", "imul rbx, rcx"]
            .iter()
            .map(|t| parse_block(t).unwrap())
            .collect();
        let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive());
        let plain = profile_corpus(&profiler, &blocks, 2);
        let supervised =
            profile_corpus_supervised(&profiler, &blocks, 2, None, &Supervision::default());
        assert_eq!(plain.results, supervised.results);
        assert!(supervised.stats.breaker.is_none());
        assert_eq!(supervised.stats.chaos, None, "no injector, no chaos stats");
        let chaotic = profile_corpus_supervised(
            &profiler,
            &blocks,
            2,
            None,
            &Supervision::with_chaos(ChaosInjector::new(FaultPlan::new())),
        );
        assert_eq!(plain.results, chaotic.results, "empty plan injects nothing");
        assert_eq!(chaotic.stats.chaos, Some(ChaosStats::default()));
    }

    #[test]
    fn preset_stop_flag_resolves_everything_as_interrupted() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let blocks: Vec<BasicBlock> = ["add rax, 1", "imul rbx, rcx", "add rax, 1"]
            .iter()
            .map(|t| parse_block(t).unwrap())
            .collect();
        let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet());
        let supervision = Supervision {
            stop: Some(Arc::new(AtomicBool::new(true))),
            ..Supervision::default()
        };
        let report = profile_corpus_supervised(&profiler, &blocks, 2, None, &supervision);
        assert!(report.stats.interrupted, "run must carry the partial note");
        assert_eq!(report.stats.successful_blocks, 0);
        assert_eq!(report.stats.failures["interrupted"], 3);
        for result in &report.results {
            assert_eq!(result, &Err(ProfileFailure::Interrupted));
        }
        assert!(
            ProfileFailure::Interrupted.is_transient(),
            "interrupted outcomes must never be persisted"
        );
        assert!(report.stats.to_string().contains("INTERRUPTED"));
    }

    #[test]
    fn observed_run_is_bit_identical_and_traces_the_lifecycle() {
        let blocks: Vec<BasicBlock> = [
            "add rax, 1",
            "imul rbx, rcx",
            "add rax, 1",                             // duplicate of block 0
            "xor ebx, ebx\nmov rax, qword ptr [rbx]", // fails: null page
        ]
        .iter()
        .map(|t| parse_block(t).unwrap())
        .collect();
        let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet());
        let plain = profile_corpus(&profiler, &blocks, 2);
        let observed = profile_corpus_supervised(
            &profiler,
            &blocks,
            2,
            None,
            &Supervision::with_obs(ObsConfig::on()),
        );
        assert_eq!(
            plain.results, observed.results,
            "observation must never perturb measurements"
        );
        assert!(plain.stats.obs.is_none(), "unobserved run records nothing");

        let obs = observed.stats.obs.as_ref().expect("observed run records");
        assert_eq!(obs.dropped_events, 0);
        let counts = obs.event_counts();
        assert_eq!(counts["dequeue"], 3, "one per unique block");
        assert_eq!(counts["attempt-start"], 3);
        assert_eq!(counts["accept"], 2, "two unique successes");
        assert_eq!(counts["attempt-failed"], 1);
        assert_eq!(obs.metrics.counter("attempts.total"), 3);
        assert_eq!(obs.metrics.counter("attempts.accepted"), 2);
        assert_eq!(obs.metrics.counter("failures.invalid-address"), 1);
        assert_eq!(obs.metrics.histogram("accept.cycles").unwrap().total(), 2);
        assert!(
            obs.metrics.counter("sim.core_cycles") > 0,
            "simulated counters fold into the registry"
        );
        // The wall section holds the latencies, never the det metrics.
        assert!(obs.wall_metrics.histogram("work.latency-ns").is_some());
        assert!(obs.metrics.histogram("work.latency-ns").is_none());

        // Events are sorted by the merge key: every event of unique k
        // precedes every event of unique k+1 within the attempt stage.
        let attempt_uniques: Vec<usize> = obs
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Dequeue { unique, .. }
                | TraceEvent::AttemptStart { unique, .. }
                | TraceEvent::Accept { unique, .. }
                | TraceEvent::AttemptFailed { unique, .. } => Some(*unique),
                _ => None,
            })
            .collect();
        let mut sorted = attempt_uniques.clone();
        sorted.sort_unstable();
        assert_eq!(
            attempt_uniques, sorted,
            "submission order: {attempt_uniques:?}"
        );

        // The run report is present, deterministic, and machine-readable.
        let report = observed.stats.run_report("unit").expect("observed");
        assert_eq!(report.schema, RUN_REPORT_SCHEMA);
        assert_eq!(report.total_blocks, 4);
        assert_eq!(report.dedup_hits, 1);
        let json = report.to_json().unwrap();
        assert!(json.contains("bhive-run-report/v1"), "{json}");
        assert!(plain.stats.run_report("unit").is_none());

        // The Display grows an obs clause only for observed runs.
        assert!(observed.stats.to_string().contains("traced"));
        assert!(!plain.stats.to_string().contains("traced"));
    }

    #[test]
    fn observed_det_section_is_identical_across_thread_counts() {
        let blocks: Vec<BasicBlock> = (0..24)
            .map(|i| parse_block(&format!("add rax, {}\nimul rbx, rcx", i + 1)).unwrap())
            .collect();
        let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet());
        let runs: Vec<RunObs> = [1, 4]
            .iter()
            .map(|&threads| {
                profile_corpus_supervised(
                    &profiler,
                    &blocks,
                    threads,
                    None,
                    &Supervision::with_obs(ObsConfig::on()),
                )
                .stats
                .obs
                .unwrap()
            })
            .collect();
        assert_eq!(runs[0].events, runs[1].events, "det events bit-identical");
        assert_eq!(
            runs[0].metrics, runs[1].metrics,
            "det metrics bit-identical"
        );
        assert_eq!(runs[0].dropped_events, 0);
    }

    #[test]
    fn cached_run_is_warm_and_bit_identical() {
        let dir = std::env::temp_dir().join(format!("bhive-parallel-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let blocks: Vec<BasicBlock> = ["add rax, 1", "imul rbx, rcx", "add rax, 1"]
            .iter()
            .map(|t| parse_block(t).unwrap())
            .collect();
        let config = ProfileConfig::bhive().quiet();
        let profiler = Profiler::new(Uarch::haswell(), config.clone());

        let mut cache = MeasurementCache::open(&dir, profiler.uarch().kind, &config).unwrap();
        let cold = profile_corpus_cached(&profiler, &blocks, 2, Some(&mut cache));
        let cold_disk = cold.stats.cache.unwrap();
        assert_eq!(cold_disk.hits, 0);
        assert_eq!(cold_disk.misses, 2, "one miss per unique encoding");
        drop(cache);

        let mut cache = MeasurementCache::open(&dir, profiler.uarch().kind, &config).unwrap();
        let warm = profile_corpus_cached(&profiler, &blocks, 2, Some(&mut cache));
        let warm_disk = warm.stats.cache.unwrap();
        assert_eq!(warm_disk.hits, 2, "every unique encoding served warm");
        assert_eq!(warm_disk.misses, 0);
        assert_eq!(warm.stats.threads, 0, "warm run spawns no workers");
        assert_eq!(warm.results, cold.results, "warm must be bit-identical");
        // Cached and uncached agree too.
        let uncached = profile_corpus(&profiler, &blocks, 2);
        assert_eq!(uncached.results, cold.results);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
