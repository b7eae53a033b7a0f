//! # bhive-harness
//!
//! The BHive measurement framework: fully automatic throughput profiling of
//! arbitrary x86-64 basic blocks, implemented exactly as §3 of the paper
//! describes, against the simulated machine of `bhive-sim`.
//!
//! The pipeline per block:
//!
//! 1. **Mapping stage** ([`monitor`]): execute the unrolled block in a
//!    "child" machine; intercept each page fault; map the faulting virtual
//!    page (to a *single shared physical page* in the full configuration);
//!    resume at the faulting instruction. The final trace is the one a
//!    restart from re-initialized registers and memory would produce (the
//!    paper's Fig. 2 restarts; see the `monitor` module for why resuming
//!    is exact), so the measured address trace is the mapping trace.
//! 2. **Measurement stage** ([`Profiler::profile`]): run the block at two
//!    unroll factors, 16 timed trials each; reject trials with any L1D/L1I
//!    miss or context switch; require at least 8 *identical* clean timings;
//!    derive throughput as
//!    `(cycles(u_hi) − cycles(u_lo)) / (u_hi − u_lo)` (paper Eq. 2), or
//!    `cycles(u)/u` in the naive configuration (Eq. 1).
//! 3. **Filters**: blocks with line-crossing (misaligned) accesses are
//!    dropped; MXCSR FTZ/DAZ is set so subnormals cannot distort timings.
//!
//! Every technique is individually switchable through [`ProfileConfig`],
//! which is what the paper's ablation studies (Tables 1 and 2) toggle.
//!
//! Corpus runs are *supervised* ([`profile_corpus_supervised`]): failures
//! are classified transient vs permanent ([`FailureClass`]), transient
//! ones are retried with escalating trial counts and deterministic
//! reseeds ([`RetryPolicy`]), a sliding-window [`CircuitBreaker`] stops
//! burning retries when the environment itself is degraded, and the
//! [`chaos`] module injects deterministic faults so the chaos test suite
//! can prove each fault class is contained.
//!
//! # Example
//!
//! ```
//! use bhive_harness::{ProfileConfig, Profiler};
//! use bhive_uarch::Uarch;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The Gzip `updcrc` block from Fig. 1 of the paper: it dereferences
//! // a lookup table, so it cannot run without the page-mapping monitor.
//! let block = bhive_asm::parse_block(
//!     "add rdi, 1\n\
//!      mov eax, edx\n\
//!      shr rdx, 8\n\
//!      xor al, byte ptr [rdi - 1]\n\
//!      movzx eax, al\n\
//!      xor rdx, qword ptr [8*rax + 0x41108]\n\
//!      cmp rdi, rcx",
//! )?;
//! let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive());
//! let measurement = profiler.profile(&block)?;
//! assert!(measurement.throughput > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod chaos;
mod config;
pub mod exegesis;
mod failure;
pub mod interrupt;
mod measurement;
mod monitor;
pub mod obs;
mod parallel;
mod profiler;
mod retry;

/// The simulated machine [`profile_attempts`] and
/// [`Profiler::profile_attempt`] run on, re-exported so callers can own
/// one without depending on `bhive-sim`.
pub use bhive_sim::Machine;
pub use cache::{
    binding_fingerprint, cache_key, CacheOpenReport, CacheStats, CacheWriter, CachedOutcome,
    JsonlRecovery, MeasurementCache,
};
pub use chaos::{ChaosInjector, ChaosStats, FaultPlan};
pub use config::{PageMapping, ProfileConfig, UnrollStrategy};
pub use failure::{FailureClass, ProfileFailure, RequestFailure};
pub use measurement::{Measurement, TrialSet};
pub use monitor::{monitor, monitor_observed, MappingOutcome};
pub use obs::{
    AttemptEvent, BucketLayout, EventBuffer, Histogram, Metrics, ObsConfig, Quantiles, RunObs,
    RunReport, TraceEvent, TraceLine, TraceLog,
};
pub use parallel::{
    profile_attempts, profile_corpus, profile_corpus_cached, profile_corpus_supervised,
    AttemptChain, CorpusReport, ProfileStats, Supervision, WorkerStats,
};
pub use profiler::Profiler;
pub use retry::{BreakerConfig, BreakerState, BreakerTrip, CircuitBreaker, RetryPolicy};
