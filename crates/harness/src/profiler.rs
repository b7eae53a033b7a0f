//! The profiler: mapping stage + measurement stage + invariant filters.

use crate::config::ProfileConfig;
use crate::failure::ProfileFailure;
use crate::measurement::{Measurement, TrialSet};
use crate::monitor::monitor_observed;
use crate::obs::AttemptEvent;
use crate::retry::RetryPolicy;
use bhive_asm::{fnv1a_64, BasicBlock};
use bhive_sim::CODE_BASE;
use bhive_sim::{CodeLayout, DynInst, Machine, PerfCounters, TimingModel};
use bhive_uarch::Uarch;

/// Profiles basic blocks on one microarchitecture with one configuration.
#[derive(Debug, Clone)]
pub struct Profiler {
    uarch: &'static Uarch,
    config: ProfileConfig,
}

impl Profiler {
    /// Creates a profiler.
    pub fn new(uarch: &'static Uarch, config: ProfileConfig) -> Profiler {
        Profiler { uarch, config }
    }

    /// The target microarchitecture.
    pub fn uarch(&self) -> &'static Uarch {
        self.uarch
    }

    /// The active configuration.
    pub fn config(&self) -> &ProfileConfig {
        &self.config
    }

    /// The content address a measurement of `block` would be cached
    /// under — an FNV-1a hash of the encoded bytes, the target
    /// microarchitecture, and the config fingerprint (folded with the
    /// uarch's fitted-table fingerprint when one is active, see
    /// [`crate::cache::binding_fingerprint`]). `None` when the block
    /// does not encode (such blocks fail deterministically and are
    /// never cached). This is the key the on-disk cache and the parallel
    /// deduplicator agree on.
    pub fn content_key(&self, block: &bhive_asm::BasicBlock) -> Option<u64> {
        let bytes = block.encode().ok()?;
        Some(crate::cache::cache_key(
            &bytes,
            self.uarch.kind,
            crate::cache::binding_fingerprint(&self.config, self.uarch),
        ))
    }

    /// Measures the steady-state throughput of one basic block, running
    /// the full pipeline described in the crate documentation on a fresh
    /// [`Machine`] (see [`Profiler::profile_on`]).
    ///
    /// When the configuration allows retries
    /// ([`ProfileConfig::with_retries`]), a transient failure
    /// ([`ProfileFailure::is_transient`]) is re-attempted with an
    /// escalating trial count and a fresh deterministic noise seed (see
    /// [`Profiler::profile_attempt`]); permanent failures return
    /// immediately. The retries are the attempt chain corpus runs and the
    /// daemon use ([`crate::profile_attempts`]). The whole chain is a
    /// pure function of (block bytes, uarch, config).
    ///
    /// # Panics
    ///
    /// Panics if any attempt panics. The chain contains panics for its
    /// supervised callers; a direct call re-raises one, so a profiler
    /// bug fails loudly instead of reading as a failure category.
    ///
    /// # Errors
    ///
    /// Returns a [`ProfileFailure`] describing why the block could not be
    /// profiled (crash, unmappable address, invariant violation,
    /// unreproducible timings, misaligned accesses, ...): the *last*
    /// attempt's failure.
    pub fn profile(&self, block: &BasicBlock) -> Result<Measurement, ProfileFailure> {
        self.profile_on(block, &mut Machine::new(self.uarch, 0))
    }

    /// [`Profiler::profile`] on a caller-owned machine, which the attempt
    /// chain recycles and retargets to this profiler's tables (see
    /// [`Profiler::profile_attempt`]), so the result is bit-identical to
    /// `profile`'s. A caller that simulates many blocks or many candidate
    /// tables keeps one machine and reuses its allocations and cached
    /// lowering.
    ///
    /// # Panics
    ///
    /// As [`Profiler::profile`]; also if `machine` models another
    /// microarchitecture kind.
    ///
    /// # Errors
    ///
    /// As [`Profiler::profile`].
    pub fn profile_on(
        &self,
        block: &BasicBlock,
        machine: &mut Machine,
    ) -> Result<Measurement, ProfileFailure> {
        let attempts = 0..=self.config.retry.retries;
        let chain = crate::profile_attempts(self, block, machine, attempts, 0, None, None);
        match chain.outcome {
            Err(ProfileFailure::Panic { message }) => panic!("{message}"),
            _ if chain.panics > 0 => panic!("the profiler panicked on an earlier attempt"),
            outcome => outcome,
        }
    }

    /// One profiling attempt, bit-deterministic per `(block, attempt)`:
    /// the noise source is reseeded with
    /// [`RetryPolicy::seed_for`]`(fnv1a(bytes), attempt)` and the trial
    /// count escalates via [`RetryPolicy::trials_for`] (16 → 32 → 64 for
    /// the paper's base 16), so retried outcomes reproduce regardless of
    /// worker count or scheduling. Attempt 0 is exactly the pre-retry
    /// pipeline. The supervised corpus pipeline drives attempts directly
    /// so its circuit breaker can suspend escalation between them.
    ///
    /// The machine is first retargeted to this profiler's description
    /// ([`Machine::retarget`]; a pointer compare when it already models
    /// it), so a machine last used under other tables of the same kind
    /// simulates under this profiler's tables.
    ///
    /// # Panics
    ///
    /// Panics if `machine` models a different microarchitecture kind than
    /// this profiler.
    ///
    /// # Errors
    ///
    /// Same contract as [`Profiler::profile`].
    pub fn profile_attempt(
        &self,
        block: &BasicBlock,
        machine: &mut Machine,
        attempt: u32,
    ) -> Result<Measurement, ProfileFailure> {
        self.profile_attempt_observed(block, machine, attempt, &mut |_| {})
    }

    /// [`Profiler::profile_attempt`] with an observability sink: the
    /// attempt reports its lifecycle as [`AttemptEvent`]s — one
    /// `PageMapped` per serviced fault, a `MappingDone` when the block
    /// runs fault-free, and a `MeasureDone` per accepted trial set. The
    /// sink sees only deterministic cycle/ordinal-valued data (never the
    /// wall clock), and the measurement result is bit-identical to the
    /// unobserved call — observation must never perturb what it observes.
    pub fn profile_attempt_observed(
        &self,
        block: &BasicBlock,
        machine: &mut Machine,
        attempt: u32,
        sink: &mut dyn FnMut(AttemptEvent),
    ) -> Result<Measurement, ProfileFailure> {
        assert!(
            machine.uarch().kind == self.uarch.kind,
            "machine models {} but the profiler targets {}",
            machine.uarch().kind,
            self.uarch.kind
        );
        machine.retarget(self.uarch);
        if block.is_empty() {
            return Err(ProfileFailure::InvalidBlock {
                message: "empty block".into(),
            });
        }
        block
            .validate()
            .map_err(|message| ProfileFailure::InvalidBlock { message })?;
        if !self.uarch.supports_avx2 && block.uses_avx2() {
            return Err(ProfileFailure::UnsupportedIsa);
        }
        // One encoding pass yields both the bytes (for the content hash)
        // and the per-instruction spans (for the code layout) — the layout
        // is never re-derived by encoding a second time.
        let (encoded, spans) = block.encode_spanned().map_err(ProfileFailure::from_asm)?;
        let block_bytes = encoded.len() as u32;
        let (lo_factor, hi_factor) = self.config.unroll.factors(block_bytes);
        if hi_factor == 0 {
            return Err(ProfileFailure::InvalidBlock {
                message: "unroll factor must be positive".into(),
            });
        }
        if hi_factor as usize * block.len() > self.config.max_dynamic_insts {
            return Err(ProfileFailure::InvalidBlock {
                message: format!(
                    "block needs {} dynamic instructions, above the watchdog cap",
                    hi_factor as usize * block.len()
                ),
            });
        }

        // Deterministic per-attempt noise seed: FNV-1a over the encoded
        // bytes, so runs reproduce across processes and compiler
        // releases (`DefaultHasher` guarantees neither), and duplicate
        // blocks measure identically wherever they appear; XORing the
        // attempt index re-rolls the noise per retry without losing any
        // of that.
        let seed = RetryPolicy::seed_for(fnv1a_64(&encoded), attempt);
        machine.recycle(seed, self.config.noise);
        machine.set_ftz_daz(self.config.disable_gradual_underflow);
        let trials = RetryPolicy::trials_for(attempt, self.config.trials);

        // ---- Mapping stage (Fig. 2 monitor), at the larger factor ----
        let mapping = monitor_observed(machine, block.insts(), hi_factor, &self.config, sink)?;
        sink(AttemptEvent::MappingDone {
            faults: mapping.faults,
            mapped_pages: mapping.mapped_pages,
        });

        // The monitor's trace equals one fault-free run from exactly the
        // initial state the paper's `measure` routine re-creates (reset +
        // FTZ/DAZ + refill), so it *is* the measurement trace —
        // re-executing it would reproduce it bit for bit. Prepare it once;
        // both unroll factors replay it (the lo-factor trace is a prefix,
        // because execution is deterministic).
        let layout = CodeLayout::from_spans(spans, CODE_BASE);
        // The machine caches the static half of the model (uop recipes,
        // slot tables, fusion flags) alongside the block's lowering, so
        // retry escalations rebuild neither.
        let model = machine.take_timing_model(block.insts());
        machine.prepare_timing(&model, &mapping.trace, &layout);

        let result = (|| {
            // ---- Measurement stage ----
            let n_hi = mapping.trace.len();
            let n_lo = lo_factor as usize * block.len();
            let hi = self.measure(
                machine,
                &model,
                &mapping.trace,
                hi_factor,
                n_hi,
                trials,
                sink,
            )?;
            let lo = if lo_factor == hi_factor {
                hi.clone()
            } else {
                self.measure(
                    machine,
                    &model,
                    &mapping.trace,
                    lo_factor,
                    n_lo,
                    trials,
                    sink,
                )?
            };

            let throughput = if hi.unroll == lo.unroll {
                hi.accepted_cycles as f64 / f64::from(hi.unroll)
            } else {
                // Eq. 2's delta must be non-negative: more copies cannot run
                // in fewer cycles at steady state. A negative delta means the
                // pair of accepted timings is inconsistent, so reject the
                // block rather than clamp it to a fictitious 0.0 throughput.
                if hi.accepted_cycles < lo.accepted_cycles {
                    return Err(ProfileFailure::NegativeDelta {
                        lo_cycles: lo.accepted_cycles,
                        hi_cycles: hi.accepted_cycles,
                        lo_unroll: lo.unroll,
                        hi_unroll: hi.unroll,
                    });
                }
                (hi.accepted_cycles as f64 - lo.accepted_cycles as f64)
                    / f64::from(hi.unroll - lo.unroll)
            };

            let subnormal_events = hi.counters.subnormal_events;
            let misaligned_refs = hi.counters.misaligned_mem_refs;
            Ok(Measurement {
                throughput,
                lo,
                hi,
                mapped_pages: mapping.mapped_pages,
                faults_serviced: mapping.faults,
                subnormal_events,
                misaligned_refs,
                attempt,
            })
        })();
        // Hand the trace buffer and the model's static half back to the
        // machine (success or failure) so the next attempt — a retry of
        // this block, most importantly — reuses both.
        machine.put_timing_model(model);
        machine.put_trace_buffer(mapping.trace);
        result
    }

    /// Takes `trials` timed trials over the first `n_insts` instructions
    /// of the prepared mapping trace (the paper's 16 trials on a first
    /// attempt; escalated on retries) and applies the clean/identical
    /// filters.
    #[allow(clippy::too_many_arguments)]
    fn measure(
        &self,
        machine: &mut Machine,
        model: &TimingModel<'_>,
        trace: &[DynInst],
        unroll: u32,
        n_insts: usize,
        trials: u32,
        sink: &mut dyn FnMut(AttemptEvent),
    ) -> Result<TrialSet, ProfileFailure> {
        // Warm-up run, then the measured run (the paper executes the
        // unrolled block twice and times the second run), against freshly
        // flushed caches. The warm-up replays the prefix's cache accesses
        // and the measured run is the one cycle-level pass, unless the
        // replay evicts a line; then both runs are simulated (see
        // `Machine::simulate_double`). A schedule that exhausts its cycle
        // budget is a hard (permanent) failure, never a truncated
        // measurement.
        let timing = machine
            .simulate_double(model, n_insts)
            .map_err(ProfileFailure::from_nonconvergence)?;

        let subnormal_events = trace[..n_insts]
            .iter()
            .filter(|d| d.effects.subnormal)
            .count() as u64;

        // Misalignment filter (the MISALIGNED_MEM_REFERENCE counter).
        if self.config.drop_misaligned && timing.misaligned > 0 {
            return Err(ProfileFailure::Misaligned {
                count: timing.misaligned,
            });
        }

        // The deterministic part of the measurement violates invariants
        // (e.g. naive unrolling of a large block misses in the L1I):
        // every trial will be dirty, so reject up front — unless the
        // configuration asks to report instead.
        let mut base_counters = machine.observe(&timing);
        base_counters.context_switches = 0; // noise resampled per trial below
        base_counters.core_cycles = timing.cycles;
        base_counters.subnormal_events = subnormal_events;
        if self.config.enforce_invariants && !base_counters.is_clean() {
            return Err(ProfileFailure::DirtyCounters {
                counters: base_counters,
            });
        }

        // The observed trials (noise perturbs cycles and context
        // switches): 16 on a first attempt, escalated on retries. The
        // modal-cycle histogram lives on the stack for the common trial
        // counts; distinct values never exceed clean trials, so `trials`
        // entries always suffice.
        let mut cycles = Vec::with_capacity(trials as usize);
        let mut clean = 0u32;
        let mut stack_hist = [(0u64, 0u32); MODAL_STACK];
        let mut heap_hist: Vec<(u64, u32)> = Vec::new();
        let hist: &mut [(u64, u32)] = if trials as usize <= MODAL_STACK {
            &mut stack_hist
        } else {
            heap_hist.resize(trials as usize, (0, 0));
            &mut heap_hist
        };
        let mut hist_len = 0usize;
        for _ in 0..trials {
            let observed = machine.observe(&timing);
            cycles.push(observed.core_cycles);
            let trial_clean = observed.context_switches == 0
                && (!self.config.enforce_invariants || observed.is_clean());
            if trial_clean {
                clean += 1;
                histogram_insert(hist, &mut hist_len, observed.core_cycles);
            }
        }
        let (modal_cycles, identical) = modal_entry(&hist[..hist_len]);
        sink(AttemptEvent::MeasureDone {
            unroll,
            trials,
            clean,
            identical,
            accepted_cycles: modal_cycles,
        });
        if identical < self.config.min_clean_identical {
            return Err(ProfileFailure::Unreproducible {
                clean,
                identical,
                required: self.config.min_clean_identical,
            });
        }

        let counters = PerfCounters {
            core_cycles: modal_cycles,
            subnormal_events,
            ..base_counters
        };
        Ok(TrialSet {
            unroll,
            cycles,
            clean,
            identical,
            accepted_cycles: modal_cycles,
            counters,
        })
    }
}

/// Histogram capacity kept on the stack: covers the paper's 16 trials and
/// both retry escalations of the default budget (16 → 32 → 64). Larger
/// custom trial counts spill to a heap vec.
const MODAL_STACK: usize = 64;

/// Inserts one observation into a sorted `(cycles, count)` histogram held
/// in `hist[..len]`. The slice is sized to the trial count, so there is
/// always room for one more distinct value.
fn histogram_insert(hist: &mut [(u64, u32)], len: &mut usize, value: u64) {
    let pos = hist[..*len].partition_point(|&(c, _)| c < value);
    if pos < *len && hist[pos].0 == value {
        hist[pos].1 += 1;
        return;
    }
    hist[pos..=*len].rotate_right(1);
    hist[pos] = (value, 1);
    *len += 1;
}

/// The modal `(cycles, count)` of a sorted histogram: highest count wins;
/// on ties the ascending scan keeps the earlier — i.e. lowest — cycle
/// value. `(0, 0)` for an empty histogram.
fn modal_entry(hist: &[(u64, u32)]) -> (u64, u32) {
    let mut best = (0u64, 0u32);
    for &(cycles, count) in hist {
        if count > best.1 {
            best = (cycles, count);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UnrollStrategy;
    use bhive_asm::parse_block;
    use bhive_uarch::Uarch;

    #[test]
    fn histogram_modal_prefers_count_then_lowest_cycles() {
        let mut hist = [(0u64, 0u32); 8];
        let mut len = 0usize;
        for v in [120u64, 100, 120, 110, 100, 90] {
            histogram_insert(&mut hist, &mut len, v);
        }
        assert_eq!(&hist[..len], &[(90, 1), (100, 2), (110, 1), (120, 2)]);
        // 100 and 120 both occur twice: the tie breaks to lower cycles,
        // matching the old `max_by_key((count, Reverse(cycles)))`.
        assert_eq!(modal_entry(&hist[..len]), (100, 2));
        assert_eq!(modal_entry(&hist[..0]), (0, 0));
    }

    fn hsw_profiler() -> Profiler {
        Profiler::new(Uarch::haswell(), ProfileConfig::bhive().quiet())
    }

    #[test]
    fn profiles_register_only_block() {
        let block = parse_block("add rax, 1\nimul rbx, rcx").unwrap();
        let m = hsw_profiler().profile(&block).unwrap();
        assert!(m.throughput > 0.5, "throughput {}", m.throughput);
        assert_eq!(m.mapped_pages, 0);
    }

    #[test]
    fn profiles_the_updcrc_block() {
        let block = parse_block(
            "add rdi, 1\n\
             mov eax, edx\n\
             shr rdx, 8\n\
             xor al, byte ptr [rdi - 1]\n\
             movzx eax, al\n\
             xor rdx, qword ptr [8*rax + 0x41108]\n\
             cmp rdi, rcx",
        )
        .unwrap();
        let m = hsw_profiler().profile(&block).unwrap();
        assert!(m.throughput > 1.0);
        assert!(m.mapped_pages >= 2);
        assert!(m.hi.counters.is_clean());
    }

    #[test]
    fn agner_config_crashes_memory_blocks() {
        let block = parse_block("mov rax, qword ptr [rbx]").unwrap();
        let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::agner().quiet());
        assert_eq!(profiler.profile(&block).unwrap_err().category(), "crash");
        // ...but register-only blocks still profile.
        let reg_block = parse_block("add rax, 1").unwrap();
        assert!(profiler.profile(&reg_block).is_ok());
    }

    #[test]
    fn naive_unroll_rejects_large_blocks_two_factor_accepts() {
        // ~320 instructions * ~7 bytes ≈ 2.2 KiB per copy; 100 copies
        // ≈ 220 KiB of code: the L1I (32 KiB) thrashes and the invariant
        // check rejects. The two-factor strategy shrinks the factors and
        // succeeds.
        let mut text = String::new();
        for i in 0..320 {
            text.push_str(&format!("add rax, {}\n", 0x1000 + i));
        }
        let block = parse_block(&text).unwrap();
        let naive = Profiler::new(
            Uarch::haswell(),
            ProfileConfig::with_page_mapping_only().quiet(),
        );
        assert_eq!(
            naive.profile(&block).unwrap_err().category(),
            "dirty-counters"
        );
        let full = hsw_profiler();
        let m = full.profile(&block).unwrap();
        assert!(m.hi.unroll < 100, "factors must shrink: {}", m.hi.unroll);
        // Dependent chain of 320 adds ≈ 320 cycles per iteration.
        assert!(
            (300.0..=360.0).contains(&m.throughput),
            "throughput {}",
            m.throughput
        );
    }

    #[test]
    fn misaligned_blocks_are_dropped() {
        // A load that straddles a cache line: [rbx + 0x3c] with rbx at a
        // page boundary (fill 0x12345600 is 64-byte... it is 0x...600,
        // which is line-aligned; offset 0x3c + 8 bytes crosses).
        let block = parse_block("mov rax, qword ptr [rbx + 0x3c]").unwrap();
        let err = hsw_profiler().profile(&block).unwrap_err();
        assert_eq!(err.category(), "misaligned");
        // With the filter off, the block measures (slowly) and reports.
        let lax = Profiler::new(
            Uarch::haswell(),
            ProfileConfig {
                drop_misaligned: false,
                ..ProfileConfig::bhive().quiet()
            },
        );
        let m = lax.profile(&block).unwrap();
        assert!(m.misaligned_refs > 0);
    }

    #[test]
    fn avx2_rejected_on_ivy_bridge() {
        let block = parse_block("vfmadd231ps ymm0, ymm1, ymm2").unwrap();
        let ivb = Profiler::new(Uarch::ivy_bridge(), ProfileConfig::bhive().quiet());
        assert_eq!(
            ivb.profile(&block).unwrap_err(),
            ProfileFailure::UnsupportedIsa
        );
        let hsw = hsw_profiler();
        assert!(hsw.profile(&block).is_ok());
    }

    #[test]
    fn empty_and_invalid_blocks() {
        let profiler = hsw_profiler();
        assert_eq!(
            profiler
                .profile(&BasicBlock::default())
                .unwrap_err()
                .category(),
            "invalid-block"
        );
        let bad = parse_block("jne -8\nadd rax, 1").unwrap();
        assert_eq!(
            profiler.profile(&bad).unwrap_err().category(),
            "invalid-block"
        );
    }

    #[test]
    fn zero_idiom_block_measures_fast() {
        // The paper's case study: vxorps xmm2, xmm2, xmm2 measures 0.25
        // cycles (four zero idioms rename per cycle).
        let block = parse_block("vxorps xmm2, xmm2, xmm2").unwrap();
        let m = hsw_profiler().profile(&block).unwrap();
        assert!(
            (0.2..=0.5).contains(&m.throughput),
            "zero idiom throughput {}",
            m.throughput
        );
    }

    #[test]
    fn division_block_matches_case_study_scale() {
        // Case-study block 1: xor edx,edx / div ecx / test edx,edx —
        // measured 21.62 cycles on Haswell.
        let block = parse_block("xor edx, edx\ndiv ecx\ntest edx, edx").unwrap();
        let m = hsw_profiler().profile(&block).unwrap();
        assert!(
            (18.0..=27.0).contains(&m.throughput),
            "div block throughput {}",
            m.throughput
        );
    }

    #[test]
    fn attempts_are_deterministic_and_escalate_trials() {
        let block = parse_block("add rax, 1\nimul rbx, rcx").unwrap();
        // Realistic noise: the trial vectors depend on the seed, which is
        // exactly what must reproduce per (block, attempt).
        let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive());
        let mut m1 = Machine::new(Uarch::haswell(), 0);
        let mut m2 = Machine::new(Uarch::haswell(), 0);
        let a0 = profiler.profile_attempt(&block, &mut m1, 0).unwrap();
        let b0 = profiler.profile_attempt(&block, &mut m2, 0).unwrap();
        assert_eq!(a0, b0, "attempt 0 is bit-deterministic");
        assert_eq!(a0.attempt, 0);
        assert_eq!(a0.hi.cycles.len(), 16, "paper's base trial count");
        // Attempt 0 is exactly what a retry-free profile() produces.
        assert_eq!(profiler.profile(&block).unwrap(), a0);
        // Retries escalate the trial count and reseed the noise.
        let a1 = profiler.profile_attempt(&block, &mut m1, 1).unwrap();
        let b1 = profiler.profile_attempt(&block, &mut m2, 1).unwrap();
        assert_eq!(a1, b1, "attempt 1 is bit-deterministic too");
        assert_eq!(a1.attempt, 1);
        assert_eq!(a1.hi.cycles.len(), 32, "trials escalate 16 -> 32");
        let a2 = profiler.profile_attempt(&block, &mut m1, 2).unwrap();
        assert_eq!(a2.hi.cycles.len(), 64, "trials escalate 32 -> 64");
    }

    #[test]
    fn observed_attempt_is_bit_identical_and_reports_lifecycle() {
        let block = parse_block(
            "add rdi, 1\n\
             xor al, byte ptr [rdi - 1]\n\
             cmp rdi, rcx",
        )
        .unwrap();
        let profiler = Profiler::new(Uarch::haswell(), ProfileConfig::bhive());
        let mut plain_machine = Machine::new(Uarch::haswell(), 0);
        let plain = profiler
            .profile_attempt(&block, &mut plain_machine, 0)
            .unwrap();
        let mut events = Vec::new();
        let mut machine = Machine::new(Uarch::haswell(), 0);
        let observed = profiler
            .profile_attempt_observed(&block, &mut machine, 0, &mut |e| events.push(e))
            .unwrap();
        assert_eq!(observed, plain, "observation must not perturb the result");
        let mapped = events
            .iter()
            .filter(|e| matches!(e, AttemptEvent::PageMapped { .. }))
            .count();
        assert_eq!(mapped as u32, observed.faults_serviced);
        let done: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                AttemptEvent::MappingDone {
                    faults,
                    mapped_pages,
                } => Some((*faults, *mapped_pages)),
                _ => None,
            })
            .collect();
        assert_eq!(
            done,
            vec![(observed.faults_serviced, observed.mapped_pages)],
            "exactly one MappingDone carrying the outcome's numbers"
        );
        let measures: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                AttemptEvent::MeasureDone {
                    unroll,
                    accepted_cycles,
                    ..
                } => Some((*unroll, *accepted_cycles)),
                _ => None,
            })
            .collect();
        assert!(
            measures.contains(&(observed.hi.unroll, observed.hi.accepted_cycles)),
            "the hi trial set is reported: {measures:?}"
        );
    }

    #[test]
    fn two_factor_equals_naive_for_small_blocks() {
        let block = parse_block("add rax, 1\nadd rbx, 1").unwrap();
        let full = hsw_profiler().profile(&block).unwrap();
        let naive = Profiler::new(
            Uarch::haswell(),
            ProfileConfig::bhive()
                .quiet()
                .with_unroll(UnrollStrategy::Naive { factor: 200 }),
        )
        .profile(&block)
        .unwrap();
        let diff = (full.throughput - naive.throughput).abs();
        assert!(
            diff <= 0.3,
            "strategies disagree: two-factor {} vs naive {}",
            full.throughput,
            naive.throughput
        );
    }
}
