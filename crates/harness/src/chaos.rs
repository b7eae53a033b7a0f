//! Deterministic fault injection for the profiling pipeline.
//!
//! A robustness claim is only as good as the worst fault it has been
//! shown to contain. This module injects the three fault classes the
//! supervised pipeline must survive — a panic mid-block, a transient
//! measurement failure, and a cache-write I/O error — at *chosen,
//! deterministic* points, so the chaos test suite can prove each class is
//! contained and recovered exactly as designed:
//!
//! * faults are addressed by `(unique-block index, attempt)` (or by write
//!   ordinal for cache errors), never by wall clock or randomness at
//!   injection time, so a chaos run at 1 thread and at N threads injects
//!   the same faults into the same work;
//! * the seeded constructor ([`FaultPlan::seeded`]) derives the fault
//!   sites from a `SmallRng`, so large randomized plans are reproducible
//!   from a single `u64`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Where and what to inject. Immutable once built; shared by reference
/// across workers through a [`ChaosInjector`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(unique-block index, attempt)` pairs whose profiling panics.
    panics: BTreeSet<(usize, u32)>,
    /// `(unique-block index, attempt)` pairs forced to fail as
    /// unreproducible.
    transients: BTreeSet<(usize, u32)>,
    /// Ordinals (0-based) of cache writes that fail with an I/O error.
    cache_write_errors: BTreeSet<usize>,
    /// Connection ordinals (0-based accept order) that disconnect
    /// mid-request: the chaos client sends half a line and hangs up.
    conn_drops: BTreeSet<usize>,
    /// Connection ordinals that stall mid-line (slow-loris): the chaos
    /// client sends half a line and then nothing, holding the socket
    /// open until the server's read deadline defeats it.
    slow_loris: BTreeSet<usize>,
    /// Request ordinals (0-based admission order) belonging to a burst:
    /// the chaos client fires these concurrently to overload admission.
    bursts: BTreeSet<usize>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Panic while profiling `unique_block` on attempt `attempt`.
    #[must_use]
    pub fn panic_at(mut self, unique_block: usize, attempt: u32) -> FaultPlan {
        self.panics.insert((unique_block, attempt));
        self
    }

    /// Force attempt `attempt` of `unique_block` to fail as
    /// unreproducible.
    #[must_use]
    pub fn transient_at(mut self, unique_block: usize, attempt: u32) -> FaultPlan {
        self.transients.insert((unique_block, attempt));
        self
    }

    /// Force attempts `0..=last_attempt` of `unique_block` to fail as
    /// unreproducible — enough to exhaust a retry budget of
    /// `last_attempt`.
    #[must_use]
    pub fn transient_through(mut self, unique_block: usize, last_attempt: u32) -> FaultPlan {
        for attempt in 0..=last_attempt {
            self.transients.insert((unique_block, attempt));
        }
        self
    }

    /// Fail the `nth_write`-th (0-based) cache write with an I/O error.
    #[must_use]
    pub fn cache_write_error_at(mut self, nth_write: usize) -> FaultPlan {
        self.cache_write_errors.insert(nth_write);
        self
    }

    /// Disconnect the `conn`-th accepted connection mid-request.
    #[must_use]
    pub fn drop_connection_at(mut self, conn: usize) -> FaultPlan {
        self.conn_drops.insert(conn);
        self
    }

    /// Stall the `conn`-th accepted connection mid-line (slow-loris).
    #[must_use]
    pub fn slow_loris_at(mut self, conn: usize) -> FaultPlan {
        self.slow_loris.insert(conn);
        self
    }

    /// Mark requests `first..first + len` as one overload burst.
    #[must_use]
    pub fn burst_of(mut self, first: usize, len: usize) -> FaultPlan {
        for request in first..first + len {
            self.bursts.insert(request);
        }
        self
    }

    /// A randomized plan over `blocks` unique blocks, reproducible from
    /// `seed`: each block's attempt 0 panics with probability
    /// `panic_rate` and is forced transient with probability
    /// `transient_rate` (a block gets at most one of the two).
    pub fn seeded(seed: u64, blocks: usize, panic_rate: f64, transient_rate: f64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for block in 0..blocks {
            if panic_rate > 0.0 && rng.gen_bool(panic_rate.min(1.0)) {
                plan.panics.insert((block, 0));
            } else if transient_rate > 0.0 && rng.gen_bool(transient_rate.min(1.0)) {
                plan.transients.insert((block, 0));
            }
        }
        plan
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty()
            && self.transients.is_empty()
            && self.cache_write_errors.is_empty()
            && self.conn_drops.is_empty()
            && self.slow_loris.is_empty()
            && self.bursts.is_empty()
    }

    /// Number of planned panic sites.
    pub fn planned_panics(&self) -> usize {
        self.panics.len()
    }

    /// Number of planned forced-transient sites.
    pub fn planned_transients(&self) -> usize {
        self.transients.len()
    }

    /// Iterates the planned panic sites as `(unique-block, attempt)`,
    /// in deterministic (sorted) order — the addresses the chaos trace
    /// tests assert against.
    pub fn panic_sites(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.panics.iter().copied()
    }

    /// Iterates the planned forced-transient sites as
    /// `(unique-block, attempt)`, in deterministic order.
    pub fn transient_sites(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.transients.iter().copied()
    }

    /// Iterates the planned cache-write-error ordinals, in
    /// deterministic order.
    pub fn cache_error_sites(&self) -> impl Iterator<Item = usize> + '_ {
        self.cache_write_errors.iter().copied()
    }

    /// Iterates the planned mid-request-disconnect connection ordinals,
    /// in deterministic order.
    pub fn conn_drop_sites(&self) -> impl Iterator<Item = usize> + '_ {
        self.conn_drops.iter().copied()
    }

    /// Iterates the planned slow-loris connection ordinals, in
    /// deterministic order.
    pub fn slow_loris_sites(&self) -> impl Iterator<Item = usize> + '_ {
        self.slow_loris.iter().copied()
    }

    /// Iterates the planned burst request ordinals, in deterministic
    /// order.
    pub fn burst_sites(&self) -> impl Iterator<Item = usize> + '_ {
        self.bursts.iter().copied()
    }
}

/// What an injector actually fired during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Panics injected into profiling attempts.
    pub injected_panics: usize,
    /// Attempts forced to fail as unreproducible.
    pub forced_transients: usize,
    /// Cache writes failed with an injected I/O error.
    pub cache_write_errors: usize,
    /// Connections dropped mid-request by the chaos client.
    pub dropped_connections: usize,
    /// Connections stalled mid-line by the chaos client.
    pub slow_loris_stalls: usize,
    /// Requests fired as part of an overload burst.
    pub burst_requests: usize,
}

impl ChaosStats {
    /// True when nothing fired.
    pub fn is_empty(&self) -> bool {
        self.injected_panics == 0
            && self.forced_transients == 0
            && self.cache_write_errors == 0
            && self.dropped_connections == 0
            && self.slow_loris_stalls == 0
            && self.burst_requests == 0
    }
}

/// Thread-safe executor of a [`FaultPlan`]: the pipeline consults it at
/// each injection point; fired faults are counted so tests can assert
/// the plan actually executed.
#[derive(Debug, Default)]
pub struct ChaosInjector {
    plan: FaultPlan,
    panics: AtomicUsize,
    transients: AtomicUsize,
    cache_errors: AtomicUsize,
    conn_drops: AtomicUsize,
    loris_stalls: AtomicUsize,
    burst_fires: AtomicUsize,
}

impl ChaosInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> ChaosInjector {
        ChaosInjector {
            plan,
            ..ChaosInjector::default()
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Panics if the plan schedules a panic for this `(block, attempt)`.
    /// Called inside the pipeline's `catch_unwind` region, so the panic
    /// surfaces as [`crate::ProfileFailure::Panic`] like a real one.
    pub fn panic_if_planned(&self, unique_block: usize, attempt: u32) {
        if self.plan.panics.contains(&(unique_block, attempt)) {
            self.panics.fetch_add(1, Ordering::Relaxed);
            panic!("chaos: injected panic at block {unique_block} attempt {attempt}");
        }
    }

    /// True when this `(block, attempt)` must fail as unreproducible.
    pub fn forces_transient(&self, unique_block: usize, attempt: u32) -> bool {
        let forced = self.plan.transients.contains(&(unique_block, attempt));
        if forced {
            self.transients.fetch_add(1, Ordering::Relaxed);
        }
        forced
    }

    /// True when the `nth_write`-th cache write must fail.
    pub fn fail_cache_write(&self, nth_write: usize) -> bool {
        let fail = self.plan.cache_write_errors.contains(&nth_write);
        if fail {
            self.cache_errors.fetch_add(1, Ordering::Relaxed);
        }
        fail
    }

    /// True when the `conn`-th accepted connection must be dropped
    /// mid-request. Consulted by the chaos *client* (the side able to
    /// hang up); counted here so the suite can assert the plan fired.
    pub fn drops_connection(&self, conn: usize) -> bool {
        let drop = self.plan.conn_drops.contains(&conn);
        if drop {
            self.conn_drops.fetch_add(1, Ordering::Relaxed);
        }
        drop
    }

    /// True when the `conn`-th accepted connection must stall mid-line.
    pub fn is_slow_loris(&self, conn: usize) -> bool {
        let stall = self.plan.slow_loris.contains(&conn);
        if stall {
            self.loris_stalls.fetch_add(1, Ordering::Relaxed);
        }
        stall
    }

    /// True when the `request`-th request belongs to an overload burst.
    pub fn in_burst(&self, request: usize) -> bool {
        let burst = self.plan.bursts.contains(&request);
        if burst {
            self.burst_fires.fetch_add(1, Ordering::Relaxed);
        }
        burst
    }

    /// Counters of the faults fired so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            injected_panics: self.panics.load(Ordering::Relaxed),
            forced_transients: self.transients.load(Ordering::Relaxed),
            cache_write_errors: self.cache_errors.load(Ordering::Relaxed),
            dropped_connections: self.conn_drops.load(Ordering::Relaxed),
            slow_loris_stalls: self.loris_stalls.load(Ordering::Relaxed),
            burst_requests: self.burst_fires.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_register_sites() {
        let plan = FaultPlan::new()
            .panic_at(3, 0)
            .transient_through(5, 2)
            .cache_write_error_at(1);
        assert!(!plan.is_empty());
        assert_eq!(plan.planned_panics(), 1);
        assert_eq!(plan.planned_transients(), 3, "attempts 0, 1, 2");
        let injector = ChaosInjector::new(plan);
        assert!(injector.forces_transient(5, 1));
        assert!(!injector.forces_transient(5, 3));
        assert!(injector.fail_cache_write(1));
        assert!(!injector.fail_cache_write(0));
        assert_eq!(injector.stats().forced_transients, 1);
        assert_eq!(injector.stats().cache_write_errors, 1);
    }

    #[test]
    fn planned_panic_fires_and_is_counted() {
        let injector = ChaosInjector::new(FaultPlan::new().panic_at(7, 1));
        injector.panic_if_planned(7, 0); // not planned: no panic
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            injector.panic_if_planned(7, 1)
        }));
        assert!(caught.is_err(), "planned panic must fire");
        assert_eq!(injector.stats().injected_panics, 1);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_rate_bounded() {
        let a = FaultPlan::seeded(42, 1000, 0.05, 0.2);
        let b = FaultPlan::seeded(42, 1000, 0.05, 0.2);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::seeded(43, 1000, 0.05, 0.2);
        assert_ne!(a, c, "different seed, different plan");
        let panics = a.planned_panics();
        let transients = a.planned_transients();
        assert!((10..=120).contains(&panics), "~5% of 1000, got {panics}");
        assert!(
            (100..=350).contains(&transients),
            "~20% of the rest, got {transients}"
        );
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let injector = ChaosInjector::new(FaultPlan::new());
        injector.panic_if_planned(0, 0);
        assert!(!injector.forces_transient(0, 0));
        assert!(!injector.fail_cache_write(0));
        assert!(!injector.drops_connection(0));
        assert!(!injector.is_slow_loris(0));
        assert!(!injector.in_burst(0));
        assert!(injector.stats().is_empty());
    }

    #[test]
    fn connection_fault_plan_registers_and_counts() {
        let plan = FaultPlan::new()
            .drop_connection_at(2)
            .slow_loris_at(4)
            .burst_of(10, 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.conn_drop_sites().collect::<Vec<_>>(), vec![2]);
        assert_eq!(plan.slow_loris_sites().collect::<Vec<_>>(), vec![4]);
        assert_eq!(plan.burst_sites().collect::<Vec<_>>(), vec![10, 11, 12]);
        let injector = ChaosInjector::new(plan);
        assert!(injector.drops_connection(2));
        assert!(!injector.drops_connection(3));
        assert!(injector.is_slow_loris(4));
        assert!(injector.in_burst(11));
        assert!(!injector.in_burst(13));
        let stats = injector.stats();
        assert_eq!(stats.dropped_connections, 1);
        assert_eq!(stats.slow_loris_stalls, 1);
        assert_eq!(stats.burst_requests, 1);
    }
}
