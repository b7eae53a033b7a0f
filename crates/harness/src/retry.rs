//! Retry escalation and the run-health circuit breaker.
//!
//! The paper accepts a measurement only when at least 8 of 16 trials
//! agree; on a noisy machine a block can miss that bar by bad luck alone.
//! This module makes transient bad luck recoverable without giving up
//! determinism:
//!
//! * [`RetryPolicy`] — a transiently failed block is re-attempted with an
//!   *escalating* trial count (16 → 32 → 64): more trials mean more
//!   chances for 8 identical clean timings, exactly the paper's
//!   acceptance rule at higher statistical power. Every attempt reseeds
//!   the noise source from the block's content hash XOR the attempt
//!   index, so attempt `k` of a block is the same bits on every machine,
//!   thread count, and schedule.
//! * [`CircuitBreaker`] — a sliding-window transient-failure-rate monitor
//!   over first-attempt outcomes in unique-block order. When the
//!   environment itself is degraded (most blocks failing transiently),
//!   burning escalated retries on every block wastes hours and still
//!   yields a polluted dataset; the breaker trips, retries are suspended,
//!   and the run is flagged so scripted callers can detect a wasted run.
//!
//! Both mechanisms are deterministic functions of the corpus content:
//! the breaker consumes outcomes in unique-block (submission) order, not
//! completion order, so a run at 1 thread and at N threads trips (or
//! does not trip) identically.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How transient profiling failures are retried.
///
/// Folded into [`crate::ProfileConfig`] (and therefore into its
/// fingerprint): a cache written with retries enabled is never served to
/// a run with a different retry budget, because a recovered success is
/// an outcome a retry-free run could not have produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = single-shot, the pre-retry
    /// behavior).
    pub retries: u32,
}

impl RetryPolicy {
    /// No retries: every block gets exactly one shot.
    pub fn none() -> RetryPolicy {
        RetryPolicy { retries: 0 }
    }

    /// Up to `retries` escalating re-attempts per transiently failed
    /// block.
    pub fn escalating(retries: u32) -> RetryPolicy {
        RetryPolicy { retries }
    }

    /// True when at least one retry is allowed.
    pub fn enabled(&self) -> bool {
        self.retries > 0
    }

    /// Trial count for attempt `attempt` (0-based) given the configured
    /// base count: doubles per attempt and caps at 4× (16 → 32 → 64 for
    /// the paper's 16).
    pub fn trials_for(attempt: u32, base: u32) -> u32 {
        base << attempt.min(2)
    }

    /// Noise seed for attempt `attempt`: the block's stable content-hash
    /// seed XOR the attempt index. Attempt 0 is bit-compatible with the
    /// pre-retry pipeline; every later attempt re-rolls the noise
    /// deterministically.
    pub fn seed_for(base_seed: u64, attempt: u32) -> u64 {
        base_seed ^ u64::from(attempt)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Number of most-recent first-attempt outcomes the window holds.
    pub window: usize,
    /// Outcomes that must be observed before the breaker may trip
    /// (prevents tripping on the first few blocks of a run).
    pub min_samples: usize,
    /// Transient-failure fraction of the window at which the breaker
    /// trips.
    pub threshold: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 64,
            min_samples: 64,
            threshold: 0.5,
        }
    }
}

/// The breaker's two states. The transition closed → open is latched:
/// it happens at most once per run, and the pipeline records it as the
/// [`crate::obs::TraceEvent::BreakerTrip`] state-change event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: retries run.
    Closed,
    /// Tripped (latched): retries are suspended.
    Open,
}

/// Evidence recorded when the breaker tripped. Serialized into
/// [`crate::obs::RunReport`], so the fields must stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerTrip {
    /// Index (in unique-block measurement order) of the outcome that
    /// tripped the breaker.
    pub at_block: usize,
    /// Transient-failure fraction of the window at the moment of the
    /// trip.
    pub rate: f64,
    /// Window length the rate was computed over.
    pub window: usize,
}

impl BreakerTrip {
    /// The trip a stats merge keeps: the smallest `(at_block, window)`
    /// evidence, ties broken by the lower rate compared totally (so a NaN
    /// cannot flip the order). The pick is order-free, so merged stats
    /// never depend on which shard report was read first.
    pub fn earliest(a: Option<BreakerTrip>, b: Option<BreakerTrip>) -> Option<BreakerTrip> {
        match (a, b) {
            (Some(a), Some(b)) => Some(std::cmp::min_by(a, b, |x, y| {
                (x.at_block, x.window)
                    .cmp(&(y.at_block, y.window))
                    .then(x.rate.total_cmp(&y.rate))
            })),
            (a, b) => a.or(b),
        }
    }
}

/// Sliding-window transient-failure-rate monitor.
///
/// Feed it first-attempt outcomes in a deterministic order
/// ([`CircuitBreaker::observe`]); once it has seen
/// [`BreakerConfig::min_samples`] outcomes and the windowed transient
/// rate reaches [`BreakerConfig::threshold`], it trips and stays tripped
/// (the first trip is latched, so later healthy stretches cannot hide an
/// earlier degraded one).
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    recent: VecDeque<bool>,
    transients_in_window: usize,
    seen: usize,
    trip: Option<BreakerTrip>,
}

impl CircuitBreaker {
    /// A breaker with the given tuning (window is clamped to ≥ 1).
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config: BreakerConfig {
                window: config.window.max(1),
                ..config
            },
            recent: VecDeque::new(),
            transients_in_window: 0,
            seen: 0,
            trip: None,
        }
    }

    /// Records one first-attempt outcome (`transient` = the attempt
    /// failed with a transient failure class).
    pub fn observe(&mut self, transient: bool) {
        self.recent.push_back(transient);
        if transient {
            self.transients_in_window += 1;
        }
        if self.recent.len() > self.config.window && self.recent.pop_front() == Some(true) {
            self.transients_in_window -= 1;
        }
        self.seen += 1;
        if self.trip.is_none() && self.seen >= self.config.min_samples {
            let rate = self.transients_in_window as f64 / self.recent.len() as f64;
            if rate >= self.config.threshold {
                self.trip = Some(BreakerTrip {
                    at_block: self.seen - 1,
                    rate,
                    window: self.recent.len(),
                });
            }
        }
    }

    /// The latched trip, if the run crossed the threshold.
    pub fn trip(&self) -> Option<BreakerTrip> {
        self.trip
    }

    /// The breaker's current state ([`BreakerState::Open`] once
    /// tripped, forever — the latch never closes again).
    pub fn state(&self) -> BreakerState {
        if self.trip.is_some() {
            BreakerState::Open
        } else {
            BreakerState::Closed
        }
    }

    /// Outcomes observed so far.
    pub fn seen(&self) -> usize {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_doubles_and_caps_at_4x() {
        assert_eq!(RetryPolicy::trials_for(0, 16), 16);
        assert_eq!(RetryPolicy::trials_for(1, 16), 32);
        assert_eq!(RetryPolicy::trials_for(2, 16), 64);
        // Deeper attempts stay at the cap instead of overflowing.
        assert_eq!(RetryPolicy::trials_for(3, 16), 64);
        assert_eq!(RetryPolicy::trials_for(9, 16), 64);
    }

    #[test]
    fn attempt_zero_seed_is_the_base_seed() {
        assert_eq!(RetryPolicy::seed_for(0xDEAD_BEEF, 0), 0xDEAD_BEEF);
        assert_ne!(
            RetryPolicy::seed_for(0xDEAD_BEEF, 1),
            RetryPolicy::seed_for(0xDEAD_BEEF, 2)
        );
    }

    #[test]
    fn breaker_trips_at_threshold_and_latches() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            window: 4,
            min_samples: 4,
            threshold: 0.5,
        });
        for _ in 0..3 {
            breaker.observe(false);
        }
        assert!(breaker.trip().is_none());
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.observe(true);
        assert!(breaker.trip().is_none(), "1/4 is below the threshold");
        breaker.observe(true);
        assert_eq!(breaker.state(), BreakerState::Open, "the trip opens it");
        // Window is now [false, true, true, ...]: 2/4 = 0.5 trips.
        let trip = breaker.trip().expect("must trip at 50%");
        assert_eq!(trip.at_block, 4);
        assert!((trip.rate - 0.5).abs() < 1e-9);
        // Healthy outcomes afterwards do not clear the latch.
        for _ in 0..16 {
            breaker.observe(false);
        }
        assert_eq!(breaker.trip().unwrap().at_block, 4, "first trip is kept");
        assert_eq!(
            breaker.state(),
            BreakerState::Open,
            "the latch never closes"
        );
    }

    #[test]
    fn breaker_respects_min_samples() {
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            window: 4,
            min_samples: 10,
            threshold: 0.25,
        });
        for _ in 0..9 {
            breaker.observe(true);
        }
        assert!(breaker.trip().is_none(), "below min_samples");
        breaker.observe(true);
        assert!(breaker.trip().is_some());
    }

    #[test]
    fn healthy_runs_never_trip() {
        let mut breaker = CircuitBreaker::new(BreakerConfig::default());
        // 10% transient rate, the kind a realistic noisy box produces.
        for i in 0..1000 {
            breaker.observe(i % 10 == 0);
        }
        assert!(breaker.trip().is_none());
        assert_eq!(breaker.seen(), 1000);
    }
}
