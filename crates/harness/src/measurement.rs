//! Measurement results.

use bhive_sim::PerfCounters;
use serde::{Deserialize, Serialize};

/// The trials taken at one unroll factor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialSet {
    /// The unroll factor.
    pub unroll: u32,
    /// Core-cycle readings of every trial (clean or not).
    pub cycles: Vec<u64>,
    /// Number of clean trials (no cache miss, no context switch).
    pub clean: u32,
    /// Size of the largest group of identical clean timings.
    pub identical: u32,
    /// The accepted (modal clean) cycle count.
    pub accepted_cycles: u64,
    /// Counters of the accepted timing.
    pub counters: PerfCounters,
}

/// A successful throughput measurement of one basic block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Steady-state inverse throughput: average cycles per block iteration
    /// (IACA's definition, as used throughout the paper).
    pub throughput: f64,
    /// Trials at the lower unroll factor.
    pub lo: TrialSet,
    /// Trials at the higher unroll factor (equal to `lo` for naive
    /// unrolling).
    pub hi: TrialSet,
    /// Distinct virtual pages the monitor mapped for this block.
    pub mapped_pages: usize,
    /// Page faults serviced during the mapping stage.
    pub faults_serviced: u32,
    /// Subnormal FP events observed in the measured run (nonzero only when
    /// gradual underflow is left enabled).
    pub subnormal_events: u64,
    /// Cache-line-crossing accesses observed (nonzero only when the
    /// misalignment filter is disabled).
    pub misaligned_refs: u64,
    /// Which attempt produced this measurement (0 = first try; > 0 means
    /// the block was recovered by retry escalation after transient
    /// failures). Part of the measurement's identity: a corpus profiled
    /// at any thread count, cold or warm, reports the same attempt.
    pub attempt: u32,
}

impl Measurement {
    /// True when the block needed retry escalation to measure.
    pub fn recovered_on_retry(&self) -> bool {
        self.attempt > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trialset(unroll: u32, cycles: u64) -> TrialSet {
        TrialSet {
            unroll,
            cycles: vec![cycles; 16],
            clean: 16,
            identical: 16,
            accepted_cycles: cycles,
            counters: PerfCounters::default(),
        }
    }

    #[test]
    fn recovered_on_retry_reads_the_attempt() {
        let m = Measurement {
            throughput: 8.0,
            lo: trialset(50, 400),
            hi: trialset(100, 800),
            mapped_pages: 1,
            faults_serviced: 1,
            subnormal_events: 0,
            misaligned_refs: 0,
            attempt: 0,
        };
        assert!(!m.recovered_on_retry());
        let recovered = Measurement { attempt: 2, ..m };
        assert!(recovered.recovered_on_retry());
    }
}
