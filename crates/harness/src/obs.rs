//! The observability spine: metrics registry, structured run tracing,
//! deterministic merge, and the crash-safe JSONL trace log.
//!
//! Every subsystem of the supervised pipeline reports through this
//! module: the dedup/lookup stage emits cache hit/miss events, workers
//! emit per-attempt lifecycle events (dequeue, attempt start, page
//! mappings, measurement, failure class, retry escalation, quarantine,
//! accept), the breaker verdict emits its trip, and the disk cache emits
//! open/degrade events. The design splits everything observed into two
//! sections with a hard boundary:
//!
//! * **Deterministic section** — events and metrics derived only from
//!   *cycle- and ordinal-valued* quantities (attempt indices, fault
//!   counts, trial counts, accepted cycles, submission ordinals). Each
//!   worker records into its own [`EventBuffer`]; [`RunObs::merge`]
//!   concatenates the buffers and stable-sorts by
//!   [`TraceEvent::sort_key`] — keyed on (stage, unique-block submission
//!   index, attempt, step) — so the merged log is bit-identical at any
//!   thread count. Wall-clock time never enters this section: this file
//!   must not call `Instant::now` or read any clock (a test scans the
//!   source to enforce it).
//! * **Wall section** — latency histograms and completion-ordered events
//!   (cache-write errors are addressed by write *ordinal*, which is a
//!   completion-order quantity). Confined to [`RunObs::wall_events`] /
//!   [`RunObs::wall_metrics`] and clearly marked `Wall`/`WallMetrics`
//!   lines in the trace log; never part of [`RunReport`].
//!
//! The merge rule in one sentence: *within one `(unique, attempt)` all
//! events come from the same worker and keep their emission order (the
//! sort is stable); across blocks the submission index orders them; the
//! run-level preamble (recovery note, cache open) sorts first and the
//! breaker verdict last.* Ring-buffer overflow drops the oldest events
//! loudly ([`RunObs::dropped_events`]); the bit-identity guarantee holds
//! whenever that counter is zero.
//!
//! The trace log ([`TraceLog`]) reuses the measurement cache's
//! checksummed-JSONL format (`{"sum":fnv1a(body),"body":{...}}` per
//! line) and its torn-tail recovery: an interrupted run truncates back
//! to the last good line, and the next run records a
//! [`TraceEvent::TraceRecovered`] event noting what was dropped.

use crate::cache::{recover_jsonl, JsonlRecovery, LockGuard};
use bhive_asm::fnv1a_64;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Per-recorder ring capacity: ~64k events comfortably covers a
/// 1.1k-block corpus with retries on a single worker.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Observability knobs for a corpus run, carried by
/// [`crate::Supervision`]. Deliberately *not* part of
/// [`crate::ProfileConfig`]: observing a run must never change what a
/// measurement is, so it stays out of the config fingerprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsConfig {
    /// Record events and metrics for this run, each recorder into a
    /// ring of [`DEFAULT_RING_CAPACITY`] events.
    pub enabled: bool,
    /// A torn-tail recovery reported by [`TraceLog::open`] on the log
    /// this run will append to; recorded as the run's
    /// [`TraceEvent::TraceRecovered`] preamble event.
    pub resume_note: Option<JsonlRecovery>,
}

impl ObsConfig {
    /// Observability on.
    pub fn on() -> ObsConfig {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

/// Fixed-bucket layout for a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketLayout {
    /// `buckets` buckets of equal `width`: bounds `width, 2·width, …`.
    /// Quantile estimates are within one `width` of the exact sorted
    /// quantile for samples inside the covered range.
    Linear {
        /// Bucket width (clamped to ≥ 1).
        width: u64,
        /// Number of bounded buckets (an overflow bucket is implicit).
        buckets: usize,
    },
    /// Doubling bounds `first, 2·first, 4·first, …` — for wide-range
    /// quantities like nanosecond latencies.
    Exponential {
        /// First bucket's upper bound (clamped to ≥ 1).
        first: u64,
        /// Number of bounded buckets (an overflow bucket is implicit).
        buckets: usize,
    },
}

impl BucketLayout {
    fn bounds(&self) -> Vec<u64> {
        match *self {
            BucketLayout::Linear { width, buckets } => {
                let width = width.max(1);
                (1..=buckets as u64)
                    .map(|i| width.saturating_mul(i))
                    .collect()
            }
            BucketLayout::Exponential { first, buckets } => {
                let mut bound = first.max(1);
                let mut out = Vec::with_capacity(buckets);
                for _ in 0..buckets {
                    out.push(bound);
                    bound = bound.saturating_mul(2);
                }
                out
            }
        }
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// `bounds[i]` is the inclusive upper bound of bucket `i`; one implicit
/// overflow bucket catches everything above the last bound. Merging is
/// bucket-wise addition, so it is associative and commutative across any
/// split of the sample stream (the property the per-worker merge rests
/// on).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive upper bounds of the bounded buckets, ascending.
    bounds: Vec<u64>,
    /// Per-bucket sample counts; `counts.len() == bounds.len() + 1`
    /// (last entry is the overflow bucket).
    counts: Vec<u64>,
    /// Total samples recorded.
    total: u64,
    /// Sum of all samples.
    sum: u64,
    /// Smallest sample (0 when empty).
    min: u64,
    /// Largest sample (0 when empty).
    max: u64,
}

impl Histogram {
    /// An empty histogram with the given layout.
    pub fn new(layout: BucketLayout) -> Histogram {
        let bounds = layout.bounds();
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            ..Histogram::default()
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = self.bounds.partition_point(|&b| b < value);
        self.counts[bucket] += 1;
        if self.total == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Bucket-wise merge of another histogram with the same layout.
    ///
    /// # Panics
    ///
    /// Panics when the layouts differ — merging incompatible histograms
    /// would silently corrupt quantiles.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram merge requires identical bucket layouts"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        if other.total > 0 {
            if self.total == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// The `q`-quantile estimate (`0.0 < q <= 1.0`): the upper bound of
    /// the bucket holding the exact sorted quantile, clamped to the
    /// observed maximum. For a [`BucketLayout::Linear`] layout and
    /// samples within the bounded range, the estimate is within one
    /// bucket width of the exact sorted quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            cum += count;
            if cum >= rank {
                return match self.bounds.get(bucket) {
                    Some(&bound) => bound.min(self.max),
                    None => self.max, // overflow bucket
                };
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Named counters (merge = add), gauges (merge = max), and histograms
/// (merge = bucket-wise add). All three merge operations are associative
/// and commutative, so folding per-worker registries together yields the
/// same result for any split of the work — the property the determinism
/// tests pin.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `delta` to the named counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        // Fast path: don't allocate a key for a counter that exists.
        if let Some(slot) = self.counters.get_mut(name) {
            *slot += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Raises the named gauge to `value` if larger (max-merge keeps the
    /// gauge associative across worker splits).
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        if let Some(slot) = self.gauges.get_mut(name) {
            *slot = (*slot).max(value);
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Records `value` into the named histogram, creating it with
    /// `layout` on first use. Every call site must pass the same layout
    /// for the same name (merging checks this).
    pub fn observe(&mut self, name: &str, layout: BucketLayout, value: u64) {
        if let Some(hist) = self.histograms.get_mut(name) {
            hist.record(value);
        } else {
            let mut hist = Histogram::new(layout);
            hist.record(value);
            self.histograms.insert(name.to_string(), hist);
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*value);
        }
        for (name, hist) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.histograms.insert(name.clone(), hist.clone());
                }
            }
        }
    }

    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, when any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates the counters by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates the gauges by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates the histograms by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

// ---------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------

/// A mapping- or measurement-stage event reported by the profiler
/// through its event sink ([`crate::Profiler::profile_attempt_observed`],
/// [`crate::monitor_observed`]); the pipeline attaches the
/// `(unique, attempt)` address and forwards it as a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptEvent {
    /// The monitor serviced a page fault and mapped a page.
    PageMapped {
        /// Base address of the mapped virtual page.
        vaddr_page: u64,
        /// 1-based index of the serviced fault within this attempt.
        fault: u32,
    },
    /// The mapping stage finished fault-free.
    MappingDone {
        /// Faults serviced before the block ran to completion.
        faults: u32,
        /// Distinct virtual pages mapped.
        mapped_pages: usize,
    },
    /// One measurement pass (one unroll factor) completed its trials.
    MeasureDone {
        /// Unroll factor measured.
        unroll: u32,
        /// Trials taken.
        trials: u32,
        /// Clean trials among them.
        clean: u32,
        /// Size of the largest identical-timing group.
        identical: u32,
        /// The modal (accepted) cycle count.
        accepted_cycles: u64,
    },
}

/// One structured lifecycle event. Variants marked *wall* are
/// completion-ordered and live only in the wall section; everything else
/// is deterministic and sorts into the merged log by
/// [`TraceEvent::sort_key`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The trace log this run appends to had a torn tail that was
    /// truncated at open.
    TraceRecovered {
        /// Records dropped from the tail (best estimate).
        dropped_records: usize,
        /// Bytes truncated.
        dropped_bytes: u64,
    },
    /// The measurement cache was opened.
    CacheOpened {
        /// Valid records loaded.
        loaded: usize,
        /// Stale-fingerprint records evicted.
        stale_evictions: usize,
        /// Legacy transient records evicted.
        transient_evictions: usize,
        /// Records dropped from a torn tail.
        dropped_records: usize,
        /// Bytes truncated off the tail.
        dropped_bytes: u64,
    },
    /// A unique block was served from the disk cache.
    CacheHit {
        /// Unique-block submission index.
        unique: usize,
    },
    /// A unique block missed the disk cache and will be measured.
    CacheMiss {
        /// Unique-block submission index.
        unique: usize,
    },
    /// A worker claimed a work item (attempt 0 in phase A; the retry
    /// chain, starting at attempt 1, in phase B).
    Dequeue {
        /// Unique-block submission index.
        unique: usize,
        /// First attempt of the claimed work item.
        attempt: u32,
    },
    /// A retry escalated the trial count for this attempt.
    RetryEscalation {
        /// Unique-block submission index.
        unique: usize,
        /// The retry attempt (≥ 1).
        attempt: u32,
        /// Escalated trial count.
        trials: u32,
    },
    /// One profiling attempt started.
    AttemptStart {
        /// Unique-block submission index.
        unique: usize,
        /// Attempt index (0-based).
        attempt: u32,
        /// Trial count for this attempt.
        trials: u32,
    },
    /// The monitor mapped a page while servicing a fault.
    PageMapped {
        /// Unique-block submission index.
        unique: usize,
        /// Attempt index.
        attempt: u32,
        /// Base address of the mapped virtual page.
        vaddr_page: u64,
        /// 1-based fault index within the attempt.
        fault: u32,
    },
    /// The mapping stage finished fault-free.
    MappingDone {
        /// Unique-block submission index.
        unique: usize,
        /// Attempt index.
        attempt: u32,
        /// Faults serviced.
        faults: u32,
        /// Distinct pages mapped.
        mapped_pages: usize,
    },
    /// One measurement pass completed its trials.
    MeasureDone {
        /// Unique-block submission index.
        unique: usize,
        /// Attempt index.
        attempt: u32,
        /// Unroll factor measured.
        unroll: u32,
        /// Trials taken.
        trials: u32,
        /// Clean trials.
        clean: u32,
        /// Largest identical-timing group.
        identical: u32,
        /// Modal (accepted) cycle count.
        accepted_cycles: u64,
    },
    /// A panic left the worker's machine in an unknown state; it was
    /// replaced with a fresh one.
    Quarantine {
        /// Unique-block submission index.
        unique: usize,
        /// Attempt index.
        attempt: u32,
    },
    /// The attempt failed, with its transient/permanent class.
    AttemptFailed {
        /// Unique-block submission index.
        unique: usize,
        /// Attempt index.
        attempt: u32,
        /// `"transient"` or `"permanent"`.
        class: String,
        /// The failure's category label (e.g. `"unreproducible"`).
        category: String,
    },
    /// The attempt produced an accepted measurement.
    Accept {
        /// Unique-block submission index.
        unique: usize,
        /// Attempt index that succeeded.
        attempt: u32,
        /// Measured throughput, cycles per iteration.
        throughput: f64,
    },
    /// The run-health circuit breaker changed state closed → open
    /// (latched): retries were suspended.
    BreakerTrip {
        /// Submission ordinal of the outcome that tripped it.
        at_block: usize,
        /// Transient rate over the window at the trip.
        rate: f64,
        /// Window length.
        window: usize,
    },
    /// *Wall*: a cache write failed (completion-ordered write ordinal).
    CacheWriteError {
        /// 0-based write ordinal that failed.
        ordinal: usize,
        /// Unique-block submission index being persisted.
        unique: usize,
        /// True when the chaos plan injected the error.
        injected: bool,
    },
    /// *Wall*: the first write error degraded the run to cache-off.
    CacheDegraded {
        /// Write ordinal at which the cache was abandoned.
        ordinal: usize,
    },
    /// The serving layer observed a client disconnect mid-request.
    /// Keyed by accept-order connection ordinal, so a sequenced chaos
    /// run traces each injected drop exactly once at its planned site.
    ServeConnDropped {
        /// 0-based accept-order connection ordinal.
        conn: usize,
    },
    /// The serving layer cut a connection that stalled mid-line past
    /// the read deadline (slow-loris containment).
    ServeReadTimeout {
        /// 0-based accept-order connection ordinal.
        conn: usize,
    },
    /// Admission control rejected a request (queue full, rate limit,
    /// shedding, or draining).
    ServeRejected {
        /// 0-based admission-order request ordinal.
        request: usize,
        /// The [`crate::RequestFailure`] category label.
        reason: String,
    },
    /// A request's deadline expired before a worker picked it up; the
    /// job was cancelled without profiling.
    ServeDeadlineExpired {
        /// 0-based admission-order request ordinal.
        request: usize,
    },
    /// Calibration fitted (or fell back for) the latency of one table
    /// entry. Keyed by the entry's ordinal in sorted-key order, so the
    /// sequence is deterministic at any thread count.
    CalibLatency {
        /// Entry ordinal (sorted-key order).
        entry: usize,
        /// The table-entry key (e.g. `"fp.mul"`).
        key: String,
        /// The latency the fitted table carries.
        latency: u32,
        /// True when the value came from the dependency-chain fit;
        /// false when the shipped latency was kept (non-chainable entry
        /// or degenerate fit).
        fitted: bool,
    },
    /// Calibration resolved the port-mask candidate class of one entry.
    CalibPorts {
        /// Entry ordinal (sorted-key order).
        entry: usize,
        /// The table-entry key.
        key: String,
        /// Canonical fitted port mask.
        canonical_mask: u8,
        /// Surviving candidate masks (the equivalence class size).
        survivors: usize,
    },
    /// Calibration found an entry drifted from the shipped table.
    CalibDrift {
        /// Entry ordinal (sorted-key order).
        entry: usize,
        /// The table-entry key.
        key: String,
    },
}

impl TraceEvent {
    /// Deterministic merge key: `(stage, unique/ordinal, attempt, step)`.
    /// Stable-sorting concatenated per-worker buffers by this key yields
    /// the same sequence at any thread count, because all events sharing
    /// one `(unique, attempt)` come from one worker and keep their
    /// emission order.
    pub fn sort_key(&self) -> (u8, u64, u64, u8) {
        use TraceEvent as E;
        match self {
            E::TraceRecovered { .. } => (0, 0, 0, 0),
            E::CacheOpened { .. } => (0, 0, 0, 1),
            E::CacheHit { unique } | E::CacheMiss { unique } => (1, *unique as u64, 0, 0),
            E::Dequeue { unique, attempt } => (2, *unique as u64, u64::from(*attempt), 0),
            E::RetryEscalation {
                unique, attempt, ..
            } => (2, *unique as u64, u64::from(*attempt), 1),
            E::AttemptStart {
                unique, attempt, ..
            } => (2, *unique as u64, u64::from(*attempt), 2),
            E::PageMapped {
                unique, attempt, ..
            } => (2, *unique as u64, u64::from(*attempt), 3),
            E::MappingDone {
                unique, attempt, ..
            } => (2, *unique as u64, u64::from(*attempt), 4),
            E::MeasureDone {
                unique, attempt, ..
            } => (2, *unique as u64, u64::from(*attempt), 5),
            E::Quarantine { unique, attempt } => (2, *unique as u64, u64::from(*attempt), 6),
            E::AttemptFailed {
                unique, attempt, ..
            }
            | E::Accept {
                unique, attempt, ..
            } => (2, *unique as u64, u64::from(*attempt), 7),
            E::BreakerTrip { at_block, .. } => (3, *at_block as u64, 0, 0),
            E::CacheWriteError { ordinal, .. } => (4, *ordinal as u64, 0, 0),
            E::CacheDegraded { ordinal } => (4, *ordinal as u64, 0, 1),
            E::ServeConnDropped { conn } => (5, *conn as u64, 0, 0),
            E::ServeReadTimeout { conn } => (5, *conn as u64, 0, 1),
            E::ServeRejected { request, .. } => (5, *request as u64, 0, 2),
            E::ServeDeadlineExpired { request } => (5, *request as u64, 0, 3),
            E::CalibLatency { entry, .. } => (6, *entry as u64, 0, 0),
            E::CalibPorts { entry, .. } => (6, *entry as u64, 0, 1),
            E::CalibDrift { entry, .. } => (6, *entry as u64, 0, 2),
        }
    }

    /// Short kebab-case label for event-count summaries.
    pub fn kind(&self) -> &'static str {
        use TraceEvent as E;
        match self {
            E::TraceRecovered { .. } => "trace-recovered",
            E::CacheOpened { .. } => "cache-opened",
            E::CacheHit { .. } => "cache-hit",
            E::CacheMiss { .. } => "cache-miss",
            E::Dequeue { .. } => "dequeue",
            E::RetryEscalation { .. } => "retry-escalation",
            E::AttemptStart { .. } => "attempt-start",
            E::PageMapped { .. } => "page-mapped",
            E::MappingDone { .. } => "mapping-done",
            E::MeasureDone { .. } => "measure-done",
            E::Quarantine { .. } => "quarantine",
            E::AttemptFailed { .. } => "attempt-failed",
            E::Accept { .. } => "accept",
            E::BreakerTrip { .. } => "breaker-trip",
            E::CacheWriteError { .. } => "cache-write-error",
            E::CacheDegraded { .. } => "cache-degraded",
            E::ServeConnDropped { .. } => "serve-conn-dropped",
            E::ServeReadTimeout { .. } => "serve-read-timeout",
            E::ServeRejected { .. } => "serve-rejected",
            E::ServeDeadlineExpired { .. } => "serve-deadline-expired",
            E::CalibLatency { .. } => "calib-latency",
            E::CalibPorts { .. } => "calib-ports",
            E::CalibDrift { .. } => "calib-drift",
        }
    }

    /// True for completion-ordered events that may only appear in the
    /// wall section.
    pub fn is_wall(&self) -> bool {
        matches!(
            self,
            TraceEvent::CacheWriteError { .. } | TraceEvent::CacheDegraded { .. }
        )
    }
}

// ---------------------------------------------------------------------
// Per-worker buffers and the merged run record
// ---------------------------------------------------------------------

/// One recorder's event ring and metric registries (one per worker plus
/// one for the main thread). Deterministic events go through
/// [`EventBuffer::emit`]; wall-section material through the `wall_*`
/// methods.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventBuffer {
    capacity: usize,
    det: VecDeque<TraceEvent>,
    wall: Vec<TraceEvent>,
    dropped: u64,
    metrics: Metrics,
    wall_metrics: Metrics,
}

impl EventBuffer {
    /// A buffer whose deterministic ring holds up to `capacity` events.
    pub fn new(capacity: usize) -> EventBuffer {
        EventBuffer {
            capacity: capacity.max(1),
            ..EventBuffer::default()
        }
    }

    /// Records a deterministic event; on overflow the oldest event is
    /// dropped and counted (never silently).
    pub fn emit(&mut self, event: TraceEvent) {
        debug_assert!(
            !event.is_wall(),
            "wall-section event {} emitted into the deterministic ring",
            event.kind()
        );
        if self.det.len() == self.capacity {
            self.det.pop_front();
            self.dropped += 1;
        }
        self.det.push_back(event);
    }

    /// Records a wall-section (completion-ordered) event.
    pub fn emit_wall(&mut self, event: TraceEvent) {
        self.wall.push(event);
    }

    /// Adds to a deterministic counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        self.metrics.add(name, delta);
    }

    /// Raises a deterministic gauge.
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        self.metrics.gauge_max(name, value);
    }

    /// Records into a deterministic histogram.
    pub fn observe(&mut self, name: &str, layout: BucketLayout, value: u64) {
        self.metrics.observe(name, layout, value);
    }

    /// Records into a wall-section histogram (latencies).
    pub fn observe_wall(&mut self, name: &str, layout: BucketLayout, value: u64) {
        self.wall_metrics.observe(name, layout, value);
    }

    /// Adds to a wall-section counter: totals whose value depends on how
    /// the scheduler interleaved work across workers (e.g. the lowering
    /// cache's hit/miss split, which hinges on which block a worker
    /// happened to profile last) and therefore must never enter the
    /// deterministic section.
    pub fn add_wall(&mut self, name: &str, delta: u64) {
        self.wall_metrics.add(name, delta);
    }

    /// Forwards a profiler-stage event, attaching the pipeline address,
    /// and folds its deterministic quantities into the metrics.
    pub fn attempt_event(&mut self, unique: usize, attempt: u32, event: AttemptEvent) {
        match event {
            AttemptEvent::PageMapped { vaddr_page, fault } => self.emit(TraceEvent::PageMapped {
                unique,
                attempt,
                vaddr_page,
                fault,
            }),
            AttemptEvent::MappingDone {
                faults,
                mapped_pages,
            } => {
                self.observe(
                    "mapping.faults",
                    BucketLayout::Linear {
                        width: 4,
                        buckets: 16,
                    },
                    u64::from(faults),
                );
                self.gauge_max("mapping.max-faults", u64::from(faults));
                self.emit(TraceEvent::MappingDone {
                    unique,
                    attempt,
                    faults,
                    mapped_pages,
                });
            }
            AttemptEvent::MeasureDone {
                unroll,
                trials,
                clean,
                identical,
                accepted_cycles,
            } => {
                self.observe(
                    "measure.trials",
                    BucketLayout::Linear {
                        width: 16,
                        buckets: 8,
                    },
                    u64::from(trials),
                );
                self.emit(TraceEvent::MeasureDone {
                    unique,
                    attempt,
                    unroll,
                    trials,
                    clean,
                    identical,
                    accepted_cycles,
                });
            }
        }
    }

    /// Deterministic events dropped from this ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The deterministic metrics recorded so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

/// The merged observability record of one corpus run, carried in
/// [`crate::ProfileStats::obs`]. The deterministic section
/// ([`RunObs::events`], [`RunObs::metrics`]) is bit-identical at any
/// thread count (when [`RunObs::dropped_events`] is 0); the wall section
/// is explicitly not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunObs {
    /// Deterministic events, sorted by [`TraceEvent::sort_key`]; an
    /// event's ordinal is its index here.
    pub events: Vec<TraceEvent>,
    /// Completion-ordered wall-section events.
    pub wall_events: Vec<TraceEvent>,
    /// Merged deterministic metrics.
    pub metrics: Metrics,
    /// Merged wall-clock metrics (latency histograms).
    pub wall_metrics: Metrics,
    /// Events dropped by ring overflow across all buffers. Non-zero
    /// voids the bit-identity guarantee (and says the ring was sized too
    /// small for the corpus).
    pub dropped_events: u64,
}

impl RunObs {
    /// Merges per-recorder buffers into the deterministic run record.
    /// The concatenation order does not matter: the sort key orders
    /// events across buffers, the stable sort preserves each single
    /// buffer's internal order for equal keys, and no two buffers emit
    /// equal keys (one `(unique, attempt)` is handled by one worker).
    pub fn merge(buffers: impl IntoIterator<Item = EventBuffer>) -> RunObs {
        let mut out = RunObs::default();
        for buffer in buffers {
            out.events.extend(buffer.det);
            out.wall_events.extend(buffer.wall);
            out.metrics.merge(&buffer.metrics);
            out.wall_metrics.merge(&buffer.wall_metrics);
            out.dropped_events += buffer.dropped;
        }
        out.events.sort_by_key(TraceEvent::sort_key);
        out
    }

    /// Event counts by [`TraceEvent::kind`], deterministic section only.
    pub fn event_counts(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for event in &self.events {
            *out.entry(event.kind().to_string()).or_insert(0) += 1;
        }
        out
    }

    /// Iterates `(ordinal, event)` over the deterministic section.
    pub fn ordinals(&self) -> impl Iterator<Item = (u64, &TraceEvent)> {
        self.events.iter().enumerate().map(|(i, e)| (i as u64, e))
    }
}

// ---------------------------------------------------------------------
// Run report (fully deterministic)
// ---------------------------------------------------------------------

/// p50/p95/p99 summary of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Quantiles {
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl Quantiles {
    /// Summarizes a histogram.
    pub fn of(hist: &Histogram) -> Quantiles {
        Quantiles {
            p50: hist.p50(),
            p95: hist.p95(),
            p99: hist.p99(),
        }
    }
}

/// The machine-readable `run_report.json` payload: *only* deterministic
/// content (counts, ordinals, cycles — never wall-clock time or thread
/// counts), so the serialized report is byte-identical at any thread
/// count. Built by [`crate::ProfileStats::run_report`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Format tag.
    pub schema: String,
    /// Caller-supplied run label (corpus + uarch).
    pub label: String,
    /// Blocks submitted, duplicates included.
    pub total_blocks: usize,
    /// Distinct encodings.
    pub unique_blocks: usize,
    /// Blocks resolved to a successful measurement.
    pub successful_blocks: usize,
    /// Duplicates served by dedup fan-out.
    pub dedup_hits: usize,
    /// Unique blocks that entered retry escalation.
    pub retried_blocks: usize,
    /// Unique blocks recovered by a retry.
    pub recovered_blocks: usize,
    /// Extra attempts spent in phase B.
    pub retry_attempts: usize,
    /// Breaker trip evidence, if the run tripped.
    pub breaker: Option<crate::retry::BreakerTrip>,
    /// Disk-cache counters, when a cache was active.
    pub cache: Option<crate::cache::CacheStats>,
    /// Failure counts by category.
    pub failures: BTreeMap<String, u64>,
    /// Deterministic-event counts by kind.
    pub event_counts: BTreeMap<String, u64>,
    /// Ring-overflow drops (non-zero voids bit-identity).
    pub dropped_events: u64,
    /// Partial-run note: true when SIGINT/SIGTERM cut the run short and
    /// the remaining blocks were resolved as `interrupted` failures.
    pub interrupted: bool,
    /// Merged deterministic metrics.
    pub metrics: Metrics,
    /// p50/p95/p99 of every deterministic histogram.
    pub quantiles: BTreeMap<String, Quantiles>,
}

/// Schema tag written into every report.
pub const RUN_REPORT_SCHEMA: &str = "bhive-run-report/v1";

impl RunReport {
    /// Serializes the report as pretty JSON (byte-stable: struct fields
    /// serialize in declaration order and maps are sorted).
    ///
    /// # Errors
    ///
    /// Returns an error when serialization fails (it cannot for this
    /// type; the signature mirrors the writer path).
    pub fn to_json(&self) -> std::io::Result<String> {
        serde_json::to_string_pretty(self).map_err(std::io::Error::other)
    }
}

// ---------------------------------------------------------------------
// Trace log (checksummed JSONL, torn-tail safe)
// ---------------------------------------------------------------------

/// One line of the trace log. `Det`/`DetMetrics`/`RunStart`/`RunEnd`
/// lines form the deterministic section; `Wall`/`WallMetrics` lines are
/// the clearly-marked non-deterministic section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceLine {
    /// A run begins.
    RunStart {
        /// Caller-supplied run label.
        label: String,
    },
    /// One deterministic event with its merge ordinal.
    Det {
        /// Index in the merged deterministic sequence.
        ordinal: u64,
        /// The event.
        event: TraceEvent,
    },
    /// The run's merged deterministic metrics.
    DetMetrics {
        /// The registry.
        metrics: Metrics,
    },
    /// One wall-section event (completion-ordered; not bit-stable).
    Wall {
        /// The event.
        event: TraceEvent,
    },
    /// The run's wall-clock metrics (latency histograms).
    WallMetrics {
        /// The registry.
        metrics: Metrics,
    },
    /// A run ends (deterministic content only).
    RunEnd {
        /// Deterministic events written.
        det_events: u64,
        /// Ring-overflow drops.
        dropped: u64,
    },
}

impl TraceLine {
    /// True for lines in the deterministic section.
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, TraceLine::Wall { .. } | TraceLine::WallMetrics { .. })
    }
}

/// One checksummed JSONL line: FNV-1a over the body's canonical JSON,
/// same self-checking format as the measurement cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TraceRecord {
    sum: u64,
    body: TraceLine,
}

fn line_checksum(body: &TraceLine) -> std::io::Result<u64> {
    let json = serde_json::to_string(body).map_err(std::io::Error::other)?;
    Ok(fnv1a_64(json.as_bytes()))
}

/// An append-only, crash-safe run-trace log.
///
/// Opening validates the log line by line (JSON shape and checksum) and
/// truncates a torn tail back to the last good line — exactly the
/// measurement cache's recovery discipline, via the same scanner. The
/// recovery is reported through [`TraceLog::recovery`] so the next run
/// can note it in its own trace ([`ObsConfig::resume_note`]).
#[derive(Debug)]
pub struct TraceLog {
    path: PathBuf,
    writer: BufWriter<File>,
    recovery: Option<JsonlRecovery>,
    /// Exclusive writer lock on the sidecar `<log>.lock` file — same
    /// single-writer contract as the measurement cache: two processes
    /// interleaving appends would corrupt checksummed lines.
    _lock: LockGuard,
}

impl TraceLog {
    /// Opens (creating if needed) the trace log at `path`.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be created, read, or
    /// truncated, or fast (with [`std::io::ErrorKind::WouldBlock`]) when
    /// another writer holds the log's lock. A corrupt log is not an
    /// error — the invalid tail is dropped and reported via
    /// [`TraceLog::recovery`].
    pub fn open(path: &Path) -> std::io::Result<TraceLog> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let lock = LockGuard::acquire(path)?;
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let (file, recovery) = recover_jsonl(file, |text| {
            serde_json::from_str::<TraceRecord>(text)
                .ok()
                .is_some_and(|record| {
                    line_checksum(&record.body).is_ok_and(|sum| sum == record.sum)
                })
        })?;
        Ok(TraceLog {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
            recovery: (recovery.dropped_bytes > 0).then_some(recovery),
            _lock: lock,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What opening truncated, when the tail was torn.
    pub fn recovery(&self) -> Option<JsonlRecovery> {
        self.recovery
    }

    fn write_line(&mut self, body: TraceLine) -> std::io::Result<()> {
        let sum = line_checksum(&body)?;
        let line =
            serde_json::to_string(&TraceRecord { sum, body }).map_err(std::io::Error::other)?;
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Appends one run: the deterministic section (start, ordinal
    /// events, metrics, end) followed by the marked wall section. The
    /// lines are flushed before returning.
    ///
    /// # Errors
    ///
    /// Returns an error when a line cannot be serialized or written.
    pub fn append_run(&mut self, label: &str, obs: &RunObs) -> std::io::Result<()> {
        self.write_line(TraceLine::RunStart {
            label: label.to_string(),
        })?;
        for (ordinal, event) in obs.ordinals() {
            self.write_line(TraceLine::Det {
                ordinal,
                event: event.clone(),
            })?;
        }
        self.write_line(TraceLine::DetMetrics {
            metrics: obs.metrics.clone(),
        })?;
        self.write_line(TraceLine::RunEnd {
            det_events: obs.events.len() as u64,
            dropped: obs.dropped_events,
        })?;
        for event in &obs.wall_events {
            self.write_line(TraceLine::Wall {
                event: event.clone(),
            })?;
        }
        self.write_line(TraceLine::WallMetrics {
            metrics: obs.wall_metrics.clone(),
        })?;
        self.writer.flush()
    }

    /// Reads a trace log and returns only its deterministic section,
    /// verbatim line for line — the bytes the determinism tests compare
    /// across thread counts.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be read or holds a line
    /// that fails validation (a live log is always valid; use
    /// [`TraceLog::open`] first to recover a torn one).
    pub fn det_section(path: &Path) -> std::io::Result<String> {
        let text = std::fs::read_to_string(path)?;
        let mut out = String::new();
        for line in text.lines() {
            let record: TraceRecord = serde_json::from_str(line)
                .map_err(|e| std::io::Error::other(format!("invalid trace line: {e:?}")))?;
            if record.body.is_deterministic() {
                out.push_str(line);
                out.push('\n');
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests;
