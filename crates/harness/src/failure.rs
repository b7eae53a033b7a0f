//! Why a block failed to profile.

use bhive_asm::AsmError;
use bhive_sim::{ExecFault, PerfCounters};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Whether a failure is worth retrying.
///
/// See [`ProfileFailure::class`] for which variants fall where.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureClass {
    /// The failure can be an artifact of measurement noise (unreproducible
    /// timings, a negative two-unroll delta, noise-dirtied counters, a
    /// panic from poisoned worker state): a retry with a fresh noise seed
    /// and more trials can legitimately succeed. Transient failures are
    /// retried by the supervised pipeline and are never persisted in the
    /// on-disk measurement cache.
    Transient,
    /// The failure is a deterministic property of the block itself
    /// (crash, unmappable address, unsupported ISA, encoding or
    /// structural problems, misalignment): retrying reproduces it
    /// bit-for-bit, so it is reported once and cached.
    Permanent,
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureClass::Transient => "transient",
            FailureClass::Permanent => "permanent",
        })
    }
}

/// Reasons a basic block could not be successfully profiled.
///
/// The paper counts a block as *successfully profiled* only when it
/// executes without crashing, incurs no cache misses, and the measurement
/// reproduces; each variant here corresponds to one way of falling short.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ProfileFailure {
    /// The block faulted and the configuration could not recover
    /// (no page mapping, invalid address, divide error, ...).
    Crash {
        /// Human-readable fault description.
        fault: String,
    },
    /// The monitor gave up after `max_faults` page faults.
    TooManyFaults {
        /// Number of faults serviced before giving up.
        faults: u32,
    },
    /// The faulting address is outside the mappable user-space range.
    InvalidAddress {
        /// The unmappable address.
        vaddr: u64,
    },
    /// Fewer than the required number of identical clean timings.
    Unreproducible {
        /// Clean trials observed.
        clean: u32,
        /// Size of the largest identical-timing group among them.
        identical: u32,
        /// Trials required.
        required: u32,
    },
    /// The two-unroll cycle delta came out negative: the larger unroll
    /// measured *fewer* cycles than the smaller one, so the pair of
    /// timings cannot describe a steady state. Previously clamped to a
    /// throughput of 0.0, which silently polluted datasets.
    NegativeDelta {
        /// Accepted cycles at the smaller unroll factor.
        lo_cycles: u64,
        /// Accepted cycles at the larger unroll factor.
        hi_cycles: u64,
        /// The smaller unroll factor.
        lo_unroll: u32,
        /// The larger unroll factor.
        hi_unroll: u32,
    },
    /// Profiling this block panicked inside the harness. Recorded as a
    /// per-block failure so one pathological block cannot abort a whole
    /// corpus run.
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// Every trial violated a modeling invariant (cache misses or context
    /// switches present even in the best trial).
    DirtyCounters {
        /// Counters of a representative trial.
        counters: PerfCounters,
    },
    /// The block performs cache-line-crossing accesses and the
    /// misalignment filter is enabled.
    Misaligned {
        /// Number of line-crossing accesses in one measured run.
        count: u64,
    },
    /// The block uses an ISA extension the machine lacks (AVX2 on IVB).
    UnsupportedIsa,
    /// The block could not be encoded (outside the supported subset).
    Encoding {
        /// The underlying error text.
        message: String,
    },
    /// Structural problems (empty block, branch not in tail position).
    InvalidBlock {
        /// Description of the violation.
        message: String,
    },
    /// The timing model exhausted its cycle budget without retiring the
    /// whole trace (a pathological schedule). Deterministic for a given
    /// block and uarch, so it is permanent — but it is an *error*
    /// outcome: the truncated simulation state is never surfaced as a
    /// measurement.
    NonConvergent {
        /// The exhausted cycle budget.
        cycle_budget: u64,
        /// Instructions retired before giving up.
        retired: u64,
        /// Instructions the trace wanted retired.
        total_insts: u64,
    },
    /// The run was interrupted (SIGINT/SIGTERM) before this block was
    /// profiled. Transient by construction: nothing about the block
    /// failed, so the outcome is never persisted and a resumed run
    /// measures the block normally.
    Interrupted,
}

impl ProfileFailure {
    pub(crate) fn from_fault(fault: ExecFault) -> ProfileFailure {
        ProfileFailure::Crash {
            fault: fault.to_string(),
        }
    }

    pub(crate) fn from_asm(err: AsmError) -> ProfileFailure {
        ProfileFailure::Encoding {
            message: err.to_string(),
        }
    }

    pub(crate) fn from_nonconvergence(err: bhive_sim::NonConvergence) -> ProfileFailure {
        ProfileFailure::NonConvergent {
            cycle_budget: err.cycle_budget,
            retired: err.retired as u64,
            total_insts: err.total_insts as u64,
        }
    }

    /// Every label [`ProfileFailure::category`] can return, for code
    /// that enumerates the categories (e.g. per-category reports) or
    /// must detect an unknown label instead of silently minting one.
    pub const CATEGORIES: &'static [&'static str] = &[
        "crash",
        "too-many-faults",
        "invalid-address",
        "unreproducible",
        "panic",
        "dirty-counters",
        "misaligned",
        "unsupported-isa",
        "encoding",
        "invalid-block",
        "non-convergent",
        "interrupted",
    ];

    /// Short machine-readable category label (used in reports).
    pub fn category(&self) -> &'static str {
        match self {
            ProfileFailure::Crash { .. } => "crash",
            ProfileFailure::TooManyFaults { .. } => "too-many-faults",
            ProfileFailure::InvalidAddress { .. } => "invalid-address",
            ProfileFailure::Unreproducible { .. } => "unreproducible",
            // Same category as Unreproducible: both mean "the timings do
            // not reproduce a steady state", and reports bucket them
            // together.
            ProfileFailure::NegativeDelta { .. } => "unreproducible",
            ProfileFailure::Panic { .. } => "panic",
            ProfileFailure::DirtyCounters { .. } => "dirty-counters",
            ProfileFailure::Misaligned { .. } => "misaligned",
            ProfileFailure::UnsupportedIsa => "unsupported-isa",
            ProfileFailure::Encoding { .. } => "encoding",
            ProfileFailure::InvalidBlock { .. } => "invalid-block",
            ProfileFailure::NonConvergent { .. } => "non-convergent",
            ProfileFailure::Interrupted => "interrupted",
        }
    }

    /// Transient-vs-permanent classification (see [`FailureClass`]).
    pub fn class(&self) -> FailureClass {
        match self {
            ProfileFailure::Unreproducible { .. }
            | ProfileFailure::NegativeDelta { .. }
            | ProfileFailure::DirtyCounters { .. }
            | ProfileFailure::Interrupted
            | ProfileFailure::Panic { .. } => FailureClass::Transient,
            ProfileFailure::Crash { .. }
            | ProfileFailure::TooManyFaults { .. }
            | ProfileFailure::InvalidAddress { .. }
            | ProfileFailure::Misaligned { .. }
            | ProfileFailure::UnsupportedIsa
            | ProfileFailure::Encoding { .. }
            | ProfileFailure::InvalidBlock { .. }
            | ProfileFailure::NonConvergent { .. } => FailureClass::Permanent,
        }
    }

    /// True for failures a retry with a fresh noise seed can recover.
    pub fn is_transient(&self) -> bool {
        self.class() == FailureClass::Transient
    }
}

impl fmt::Display for ProfileFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileFailure::Crash { fault } => write!(f, "block crashed: {fault}"),
            ProfileFailure::TooManyFaults { faults } => {
                write!(f, "monitor killed block after {faults} page faults")
            }
            ProfileFailure::InvalidAddress { vaddr } => {
                write!(f, "faulting address {vaddr:#x} is not mappable")
            }
            ProfileFailure::Unreproducible {
                clean,
                identical,
                required,
            } => write!(
                f,
                "only {identical} identical timings among {clean} clean trials (need {required})"
            ),
            ProfileFailure::NegativeDelta {
                lo_cycles,
                hi_cycles,
                lo_unroll,
                hi_unroll,
            } => {
                write!(
                    f,
                    "negative two-unroll delta: {hi_cycles} cycles at unroll {hi_unroll} \
                     vs {lo_cycles} at unroll {lo_unroll}"
                )
            }
            ProfileFailure::Panic { message } => {
                write!(f, "profiling panicked: {message}")
            }
            ProfileFailure::DirtyCounters { counters } => write!(
                f,
                "modeling invariants violated (L1D misses {}/{}, L1I misses {}, ctx {})",
                counters.l1d_read_misses,
                counters.l1d_write_misses,
                counters.l1i_misses,
                counters.context_switches
            ),
            ProfileFailure::Misaligned { count } => {
                write!(f, "{count} cache-line-crossing accesses; block dropped")
            }
            ProfileFailure::UnsupportedIsa => f.write_str("ISA extension not supported"),
            ProfileFailure::Encoding { message } => write!(f, "encoding failure: {message}"),
            ProfileFailure::InvalidBlock { message } => write!(f, "invalid block: {message}"),
            ProfileFailure::NonConvergent {
                cycle_budget,
                retired,
                total_insts,
            } => write!(
                f,
                "timing model failed to converge: {retired}/{total_insts} instructions \
                 retired within the {cycle_budget}-cycle budget"
            ),
            ProfileFailure::Interrupted => {
                f.write_str("run interrupted before this block was profiled")
            }
        }
    }
}

impl Error for ProfileFailure {}

/// Why a *request* to the serving layer was not answered with a
/// measurement — the request-scoped counterpart of [`ProfileFailure`].
///
/// [`ProfileFailure`] describes properties of a *block*; these describe
/// properties of a *request* (its timing, its client, the server's
/// state), so they are never persisted in the measurement cache and
/// never feed the circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum RequestFailure {
    /// The bounded miss queue was full; the client should retry after
    /// the advertised delay.
    QueueFull,
    /// The client exhausted its token bucket; per-client fairness
    /// throttled it before the shared queue was consulted.
    RateLimited,
    /// The server is degraded (breaker tripped or cache write failure)
    /// and is shedding miss-work; warm hits are still served.
    Shedding,
    /// The server is draining for shutdown and admits no new work.
    Draining,
    /// The request's deadline budget expired before a worker picked the
    /// job up; the block was never profiled on the request's behalf.
    DeadlineExpired,
    /// The per-request timeout degraded the request to a cache-only
    /// answer and the cache had no entry.
    MissTimeout,
    /// The request line was not a well-formed `bhive-serve/v1` message.
    Malformed,
    /// The connection stalled mid-line past the read deadline
    /// (slow-loris containment).
    ReadTimeout,
    /// The client disconnected mid-request.
    Disconnected,
}

impl RequestFailure {
    /// Every label [`RequestFailure::category`] can return, for the same
    /// uses as [`ProfileFailure::CATEGORIES`].
    pub const CATEGORIES: &'static [&'static str] = &[
        "queue-full",
        "rate-limited",
        "shedding",
        "draining",
        "deadline-expired",
        "miss-timeout",
        "malformed",
        "read-timeout",
        "disconnected",
    ];

    /// Short machine-readable category label (used on the wire and in
    /// `serve.*` metrics).
    pub fn category(&self) -> &'static str {
        match self {
            RequestFailure::QueueFull => "queue-full",
            RequestFailure::RateLimited => "rate-limited",
            RequestFailure::Shedding => "shedding",
            RequestFailure::Draining => "draining",
            RequestFailure::DeadlineExpired => "deadline-expired",
            RequestFailure::MissTimeout => "miss-timeout",
            RequestFailure::Malformed => "malformed",
            RequestFailure::ReadTimeout => "read-timeout",
            RequestFailure::Disconnected => "disconnected",
        }
    }

    /// True when the same request, retried later, can succeed without
    /// the client changing anything (server-side pressure, not a client
    /// error). Drives whether a rejection carries `retry_after_ms`.
    pub fn is_retryable(&self) -> bool {
        match self {
            RequestFailure::QueueFull
            | RequestFailure::RateLimited
            | RequestFailure::Shedding
            | RequestFailure::Draining => true,
            RequestFailure::DeadlineExpired
            | RequestFailure::MissTimeout
            | RequestFailure::Malformed
            | RequestFailure::ReadTimeout
            | RequestFailure::Disconnected => false,
        }
    }
}

impl fmt::Display for RequestFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RequestFailure::QueueFull => "miss queue full; retry later",
            RequestFailure::RateLimited => "client token bucket empty; retry later",
            RequestFailure::Shedding => "server degraded; shedding miss-work",
            RequestFailure::Draining => "server draining for shutdown",
            RequestFailure::DeadlineExpired => "deadline expired before a worker ran the block",
            RequestFailure::MissTimeout => "timed out waiting; no cached answer",
            RequestFailure::Malformed => "malformed request line",
            RequestFailure::ReadTimeout => "read deadline exceeded mid-request",
            RequestFailure::Disconnected => "client disconnected mid-request",
        })
    }
}

impl Error for RequestFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_const_is_unique_and_covers_known_variants() {
        let mut seen = std::collections::HashSet::new();
        for category in ProfileFailure::CATEGORIES {
            assert!(seen.insert(category), "duplicate category {category}");
        }
        for failure in [
            ProfileFailure::Misaligned { count: 3 },
            ProfileFailure::UnsupportedIsa,
            ProfileFailure::Encoding {
                message: "x".into(),
            },
            ProfileFailure::NegativeDelta {
                lo_cycles: 2,
                hi_cycles: 1,
                lo_unroll: 8,
                hi_unroll: 16,
            },
        ] {
            assert!(
                ProfileFailure::CATEGORIES.contains(&failure.category()),
                "{} missing from CATEGORIES",
                failure.category()
            );
        }
    }

    #[test]
    fn categories_are_stable() {
        assert_eq!(
            ProfileFailure::Misaligned { count: 3 }.category(),
            "misaligned"
        );
        assert_eq!(ProfileFailure::UnsupportedIsa.category(), "unsupported-isa");
        // Both reproduce-class failures share the reporting bucket.
        assert_eq!(
            ProfileFailure::NegativeDelta {
                lo_cycles: 120,
                hi_cycles: 90,
                lo_unroll: 50,
                hi_unroll: 100,
            }
            .category(),
            "unreproducible"
        );
        assert_eq!(
            ProfileFailure::Panic {
                message: "boom".into()
            }
            .category(),
            "panic"
        );
        assert_eq!(
            ProfileFailure::NonConvergent {
                cycle_budget: 1_000_064,
                retired: 0,
                total_insts: 8,
            }
            .category(),
            "non-convergent"
        );
    }

    #[test]
    fn every_variant_has_a_class() {
        use FailureClass::{Permanent, Transient};
        let cases: [(ProfileFailure, FailureClass); 13] = [
            (ProfileFailure::Interrupted, Transient),
            (ProfileFailure::Crash { fault: "x".into() }, Permanent),
            (ProfileFailure::TooManyFaults { faults: 65 }, Permanent),
            (ProfileFailure::InvalidAddress { vaddr: 1 }, Permanent),
            (
                ProfileFailure::Unreproducible {
                    clean: 3,
                    identical: 2,
                    required: 8,
                },
                Transient,
            ),
            (
                ProfileFailure::NegativeDelta {
                    lo_cycles: 10,
                    hi_cycles: 5,
                    lo_unroll: 50,
                    hi_unroll: 100,
                },
                Transient,
            ),
            (
                ProfileFailure::Panic {
                    message: "b".into(),
                },
                Transient,
            ),
            (
                ProfileFailure::DirtyCounters {
                    counters: PerfCounters::default(),
                },
                Transient,
            ),
            (ProfileFailure::Misaligned { count: 1 }, Permanent),
            (ProfileFailure::UnsupportedIsa, Permanent),
            (
                ProfileFailure::Encoding {
                    message: "e".into(),
                },
                Permanent,
            ),
            (
                ProfileFailure::InvalidBlock {
                    message: "i".into(),
                },
                Permanent,
            ),
            (
                ProfileFailure::NonConvergent {
                    cycle_budget: 1_000_064,
                    retired: 0,
                    total_insts: 8,
                },
                Permanent,
            ),
        ];
        for (failure, expected) in cases {
            assert_eq!(failure.class(), expected, "{failure}");
            assert_eq!(failure.is_transient(), expected == Transient);
        }
        assert_eq!(Transient.to_string(), "transient");
        assert_eq!(Permanent.to_string(), "permanent");
    }

    #[test]
    fn request_categories_are_unique_and_complete() {
        let variants = [
            RequestFailure::QueueFull,
            RequestFailure::RateLimited,
            RequestFailure::Shedding,
            RequestFailure::Draining,
            RequestFailure::DeadlineExpired,
            RequestFailure::MissTimeout,
            RequestFailure::Malformed,
            RequestFailure::ReadTimeout,
            RequestFailure::Disconnected,
        ];
        assert_eq!(variants.len(), RequestFailure::CATEGORIES.len());
        let mut seen = std::collections::HashSet::new();
        for v in variants {
            assert!(seen.insert(v.category()), "duplicate {}", v.category());
            assert!(RequestFailure::CATEGORIES.contains(&v.category()));
        }
        // Pressure rejections advertise a retry; client errors do not.
        assert!(RequestFailure::QueueFull.is_retryable());
        assert!(RequestFailure::Draining.is_retryable());
        assert!(!RequestFailure::Malformed.is_retryable());
        assert!(!RequestFailure::DeadlineExpired.is_retryable());
    }

    #[test]
    fn display_mentions_key_numbers() {
        let f = ProfileFailure::Unreproducible {
            clean: 5,
            identical: 3,
            required: 8,
        };
        let text = f.to_string();
        assert!(text.contains('5') && text.contains('3') && text.contains('8'));
    }
}
