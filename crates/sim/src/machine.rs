//! The [`Machine`] façade: everything the measurement framework sees.

use crate::cache::Cache;
use crate::counters::PerfCounters;
use crate::exec::lower::lower_block;
use crate::exec::ops::{execute_op, LoweredBlock};
use crate::exec::{execute_inst, ExecFault};
use crate::mem::Memory;
use crate::noise::NoiseConfig;
use crate::state::CpuState;
use crate::timing::{
    CodeLayout, DynInst, NonConvergence, PreparedTrace, SimScratch, StaticPrep, TimingModel,
    TimingResult,
};
use bhive_asm::{BasicBlock, Inst};
use bhive_uarch::Uarch;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Default virtual address the harness places code at.
pub const CODE_BASE: u64 = 0x40_0000;

/// Reusable timing-run storage owned by the machine: the prepared trace,
/// simulation scratch, warm-up/measured cache pair, and the dynamic-trace
/// buffer. Deliberately *survives* [`Machine::recycle`], so one worker
/// amortizes every hot-path allocation across an entire corpus. Contents
/// are fully rebuilt by each use and can never leak between blocks (a
/// flushed [`Cache`] is bit-identical to a new one, and
/// `TimingModel::prepare_into` clears before writing).
#[derive(Debug, Default)]
struct TimingArena {
    prep: PreparedTrace,
    scratch: SimScratch,
    l1i: Option<Cache>,
    l1d: Option<Cache>,
    trace: Vec<DynInst>,
    lower: LowerCache,
}

/// One-entry cache of the most recent block's predecoded lowering and the
/// static half of its timing prep, keyed by content hash and pinned by a
/// structural instruction comparison (a hash collision can therefore slow
/// a lookup down but never corrupt one). Lives in the arena so it
/// survives [`Machine::recycle`]: the harness profiles one block per
/// recycle, so every monitor fault-restart, both unroll factors, and each
/// retry escalation of the same block reuse one lowering instead of
/// re-decoding the operand/mnemonic enums per dynamic instruction.
#[derive(Debug, Default)]
struct LowerCache {
    valid: bool,
    hash: u64,
    insts: Vec<Inst>,
    lowered: LoweredBlock,
    /// Present when no [`TimingModel`] currently borrows it; taken and
    /// returned by `take_timing_model`/`put_timing_model`.
    static_prep: Option<StaticPrep>,
    hits: u64,
    misses: u64,
}

/// Cumulative lowering-cache counters for one machine (monotonic; survive
/// [`Machine::recycle`]). The harness folds per-attempt deltas into the
/// run observability stream as `sim.lower.hit` / `sim.lower.miss`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowerStats {
    /// Lookups served by the cached lowering.
    pub hits: u64,
    /// Lookups that had to lower the block.
    pub misses: u64,
}

fn block_hash(insts: &[Inst]) -> u64 {
    let mut hasher = DefaultHasher::new();
    insts.hash(&mut hasher);
    hasher.finish()
}

/// Outcome of a full (functionally executed + timed) run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOutcome {
    /// Performance counters for the measured run.
    pub counters: PerfCounters,
    /// Number of dynamic instructions executed.
    pub dynamic_insts: usize,
}

/// Failure of the one-shot [`Machine::run`] entry point: either
/// functional execution faulted, or the timing model exhausted its cycle
/// budget. The harness's finer-grained pipeline maps both to
/// `ProfileFailure`s; `run` surfaces them as a proper error instead of
/// panicking on the (pathological but reachable) non-convergent case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// Functional execution faulted (page fault, divide error, `#UD`,
    /// alignment `#GP`).
    Fault(ExecFault),
    /// The timing model failed to retire the trace within its cycle
    /// budget.
    NonConvergence(NonConvergence),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Fault(fault) => fault.fmt(f),
            RunError::NonConvergence(nc) => nc.fmt(f),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Fault(fault) => Some(fault),
            RunError::NonConvergence(nc) => Some(nc),
        }
    }
}

impl From<ExecFault> for RunError {
    fn from(fault: ExecFault) -> RunError {
        RunError::Fault(fault)
    }
}

impl From<NonConvergence> for RunError {
    fn from(nc: NonConvergence) -> RunError {
        RunError::NonConvergence(nc)
    }
}

/// A simulated x86-64 machine: architectural state, memory, caches,
/// microarchitecture, and an OS-noise source.
#[derive(Debug)]
pub struct Machine {
    uarch: &'static Uarch,
    state: CpuState,
    mem: Memory,
    noise: NoiseConfig,
    rng: SmallRng,
    timing: TimingArena,
}

impl Machine {
    /// A machine with quiet (deterministic) noise settings.
    pub fn new(uarch: &'static Uarch, seed: u64) -> Machine {
        Machine {
            uarch,
            state: CpuState::new(),
            mem: Memory::new(),
            noise: NoiseConfig::quiet(),
            rng: SmallRng::seed_from_u64(seed),
            timing: TimingArena::default(),
        }
    }

    /// A machine with the given noise model.
    pub fn with_noise(uarch: &'static Uarch, seed: u64, noise: NoiseConfig) -> Machine {
        Machine {
            noise,
            ..Machine::new(uarch, seed)
        }
    }

    /// Re-initializes this machine in place, as if freshly constructed by
    /// [`Machine::with_noise`] — except that physical page allocations are
    /// retained in [`Memory`]'s pool for reuse.
    ///
    /// Because the pool hands out the same `PhysPage` id sequence a fresh
    /// memory would (see [`Memory::recycle`]), a recycled machine produces
    /// bit-identical measurements to a new one; the harness relies on this
    /// to keep one machine per worker across an entire corpus.
    ///
    /// The timing arena (prepared trace, simulation scratch, caches, trace
    /// buffer) is likewise retained: its contents are rebuilt from scratch
    /// on every use, so only the allocations carry over.
    pub fn recycle(&mut self, seed: u64, noise: NoiseConfig) {
        self.state = CpuState::new();
        self.mem.recycle();
        self.noise = noise;
        self.rng = SmallRng::seed_from_u64(seed);
    }

    /// The modeled microarchitecture.
    pub fn uarch(&self) -> &'static Uarch {
        self.uarch
    }

    /// Architectural state (registers, flags, MXCSR).
    pub fn state(&self) -> &CpuState {
        &self.state
    }

    /// Mutable architectural state.
    pub fn state_mut(&mut self) -> &mut CpuState {
        &mut self.state
    }

    /// The virtual memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable virtual memory (the monitor process maps pages here).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Resets registers and flags to the fill pattern, as the paper's
    /// framework does before both the mapping and the measuring run.
    pub fn reset(&mut self, fill: u64) {
        self.state.reset_with_fill(fill);
    }

    /// Enables or disables gradual underflow via MXCSR FTZ+DAZ.
    pub fn set_ftz_daz(&mut self, on: bool) {
        self.state.mxcsr.ftz = on;
        self.state.mxcsr.daz = on;
    }

    /// True if this machine can execute the block at all (AVX2 blocks
    /// fault with `#UD` on Ivy Bridge).
    pub fn supports(&self, block: &BasicBlock) -> bool {
        self.uarch.supports_avx2 || !block.uses_avx2()
    }

    /// Functionally executes `unroll` copies of the block, producing the
    /// dynamic trace the timing model consumes.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecFault`] (page fault, divide error, invalid
    /// opcode). State and memory retain the effects of instructions that
    /// executed before the fault, as on real hardware; the harness always
    /// re-initializes before retrying.
    pub fn execute_unrolled(
        &mut self,
        insts: &[Inst],
        unroll: u32,
    ) -> Result<Vec<DynInst>, ExecFault> {
        let mut trace = Vec::new();
        self.execute_unrolled_into(insts, unroll, &mut trace)?;
        Ok(trace)
    }

    /// Like [`Machine::execute_unrolled`], but fills a caller-owned buffer
    /// (cleared first) so the harness can reuse one allocation per worker.
    ///
    /// Executes over the block's predecoded lowering (see
    /// `crate::exec::lower`), obtained from the machine's one-entry
    /// lowering cache: the per-instruction operand/mnemonic decode is paid
    /// once per block, not once per dynamic instruction of every restart.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecFault`]; `trace` holds the instructions
    /// executed before it.
    pub fn execute_unrolled_into(
        &mut self,
        insts: &[Inst],
        unroll: u32,
        trace: &mut Vec<DynInst>,
    ) -> Result<(), ExecFault> {
        trace.clear();
        self.ensure_lowered(insts);
        let Machine {
            uarch,
            state,
            mem,
            timing,
            ..
        } = self;
        let lowered = &timing.lower.lowered;
        // Hoisted out of the old per-call operand scan: lowering already
        // recorded whether the block needs AVX2.
        if lowered.uses_avx2 && !uarch.supports_avx2 {
            return Err(ExecFault::InvalidOpcode);
        }
        // Materialize the whole trace up front with one bulk zeroing pass,
        // then let each kernel call record its effects straight into its
        // slot: no per-instruction 80-byte push temporaries and no
        // `InstEffects` bounced through return values. On a fault the
        // trace is truncated to the completed prefix, matching the
        // reference loop's push-after-execute order.
        let total = lowered.ops.len() * unroll as usize;
        trace.resize(total, DynInst::default());
        let mut filled = 0usize;
        for copy in 0..unroll {
            for (static_idx, op) in lowered.ops.iter().enumerate() {
                let slot = &mut trace[filled];
                slot.static_idx = static_idx;
                slot.copy = copy;
                if let Err(fault) = execute_op(op, state, mem, &mut slot.effects) {
                    trace.truncate(filled);
                    return Err(fault);
                }
                filled += 1;
            }
        }
        Ok(())
    }

    /// The pre-lowering interpreter loop, retained verbatim: re-matches
    /// `Mnemonic`/`Operand` enums per dynamic instruction via
    /// [`execute_inst`]. It is the semantic reference the lowered path in
    /// [`Machine::execute_unrolled_into`] is differentially tested
    /// against (`sim/tests/exec_differential.rs`), and the baseline the
    /// benchmark compares speedups to.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecFault`]; `trace` holds the instructions
    /// executed before it.
    pub fn execute_unrolled_reference_into(
        &mut self,
        insts: &[Inst],
        unroll: u32,
        trace: &mut Vec<DynInst>,
    ) -> Result<(), ExecFault> {
        trace.clear();
        if !self.uarch.supports_avx2 {
            let avx2 = insts.iter().any(|inst| {
                inst.mnemonic().is_vex_only()
                    || inst.operands().iter().any(|op| {
                        matches!(op, bhive_asm::Operand::Vec(v)
                            if v.width() == bhive_asm::VecWidth::Ymm)
                    })
            });
            if avx2 {
                return Err(ExecFault::InvalidOpcode);
            }
        }
        trace.reserve(insts.len() * unroll as usize);
        for copy in 0..unroll {
            for (static_idx, inst) in insts.iter().enumerate() {
                let effects = execute_inst(inst, &mut self.state, &mut self.mem)?;
                trace.push(DynInst {
                    static_idx,
                    copy,
                    effects,
                });
            }
        }
        Ok(())
    }

    /// Makes the lowering cache current for `insts`: a structural
    /// equality check on hit (which fails fast on the first differing
    /// instruction, so it is cheaper than hashing the probe block — the
    /// stored content hash identifies the entry but is only computed on
    /// fill), a fresh [`lower_block`] pass on miss (which also
    /// invalidates any cached static timing prep).
    fn ensure_lowered(&mut self, insts: &[Inst]) {
        let cache = &mut self.timing.lower;
        if cache.valid && cache.insts.as_slice() == insts {
            cache.hits += 1;
            return;
        }
        cache.misses += 1;
        cache.valid = true;
        cache.hash = block_hash(insts);
        cache.insts.clear();
        cache.insts.extend_from_slice(insts);
        cache.lowered = lower_block(insts);
        cache.static_prep = None;
    }

    /// Cumulative lowering-cache hit/miss counters (monotonic across
    /// [`Machine::recycle`]). The harness reports per-attempt deltas.
    pub fn lower_stats(&self) -> LowerStats {
        LowerStats {
            hits: self.timing.lower.hits,
            misses: self.timing.lower.misses,
        }
    }

    /// Builds a [`TimingModel`] for `insts`, reusing the cached static
    /// half (uop decomposition, register-slot tables, macro-fusion) when
    /// this block is the one the lowering cache holds — i.e. on every
    /// retry escalation and both unroll factors of one profiled block.
    /// Return the model with [`Machine::put_timing_model`] so the next
    /// attempt reuses it.
    pub fn take_timing_model<'a>(&mut self, insts: &'a [Inst]) -> TimingModel<'a> {
        self.ensure_lowered(insts);
        match self.timing.lower.static_prep.take() {
            Some(sp) => TimingModel::with_static(insts, self.uarch, sp),
            None => TimingModel::new(insts, self.uarch),
        }
    }

    /// Returns a model's static half to the lowering cache. A model for a
    /// different block (or uarch) than the cache currently holds is simply
    /// dropped — the cache never goes stale.
    pub fn put_timing_model(&mut self, model: TimingModel<'_>) {
        let matches = self.timing.lower.valid
            && std::ptr::eq(model.uarch(), self.uarch)
            && model.insts() == self.timing.lower.insts.as_slice();
        if matches {
            self.timing.lower.static_prep = Some(model.into_static());
        }
    }

    /// Borrows the arena's dynamic-trace buffer (empty the first time).
    /// Callers fill it via [`Machine::execute_unrolled_into`] and hand it
    /// back with [`Machine::put_trace_buffer`] so its allocation is reused
    /// for the next block.
    pub fn take_trace_buffer(&mut self) -> Vec<DynInst> {
        std::mem::take(&mut self.timing.trace)
    }

    /// Returns a trace buffer taken with [`Machine::take_trace_buffer`].
    pub fn put_trace_buffer(&mut self, trace: Vec<DynInst>) {
        self.timing.trace = trace;
    }

    /// Compiles `trace` into the machine's prepared-trace arena (see
    /// `TimingModel::prepare_into`), ready for any number of
    /// [`Machine::simulate_double`] replays over its prefixes.
    pub fn prepare_timing(
        &mut self,
        model: &TimingModel<'_>,
        trace: &[DynInst],
        layout: &CodeLayout,
    ) {
        model.prepare_into(&mut self.timing.prep, trace, layout);
    }

    /// The paper's double execution over the prepared trace's first
    /// `n_insts` instructions: flushes the arena caches (a flushed cache
    /// is bit-identical to a cold one), runs a warm-up pass, and returns
    /// the measured pass. Allocation-free after the first call.
    ///
    /// # Errors
    ///
    /// Returns [`NonConvergence`] if either pass exhausts its cycle
    /// budget (a pathological schedule).
    pub fn simulate_double(
        &mut self,
        model: &TimingModel<'_>,
        n_insts: usize,
    ) -> Result<TimingResult, NonConvergence> {
        let uarch = self.uarch;
        let TimingArena {
            prep,
            scratch,
            l1i,
            l1d,
            ..
        } = &mut self.timing;
        let l1i = l1i.get_or_insert_with(|| Cache::new(uarch.l1i));
        let l1d = l1d.get_or_insert_with(|| Cache::new(uarch.l1d));
        l1i.flush();
        l1d.flush();
        model.simulate_with(prep, n_insts, l1i, l1d, scratch)?; // warm-up
        model.simulate_with(prep, n_insts, l1i, l1d, scratch)
    }

    /// Samples measurement noise for a timing result and converts it to
    /// counter deltas (one "trial" of the paper's 16).
    pub fn observe(&mut self, timing: &TimingResult) -> PerfCounters {
        let (extra_cycles, ctx_switches) = self.noise.sample(timing.cycles, &mut self.rng);
        PerfCounters {
            core_cycles: timing.cycles + extra_cycles,
            instructions_retired: timing.insts,
            uops_executed: timing.uops,
            l1d_read_misses: timing.l1d_read_misses,
            l1d_write_misses: timing.l1d_write_misses,
            l1i_misses: timing.l1i_misses,
            context_switches: ctx_switches,
            misaligned_mem_refs: timing.misaligned,
            // `observe` cannot see the trace; callers that have it fill
            // the real count in.
            subnormal_events: 0,
        }
    }

    /// One-shot convenience: execute `unroll` copies functionally, then
    /// time them with a warm-up pass, cold caches, and noise applied.
    ///
    /// The measurement framework in `bhive-harness` uses the finer-grained
    /// pieces instead; this entry point powers examples and tests.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Fault`] for functional-execution faults and
    /// [`RunError::NonConvergence`] if the timing model exhausts its
    /// cycle budget (a pathological schedule).
    pub fn run(&mut self, insts: &[Inst], unroll: u32) -> Result<RunOutcome, RunError> {
        let mut trace = self.take_trace_buffer();
        let outcome = (|| {
            self.execute_unrolled_into(insts, unroll, &mut trace)?;
            let layout =
                CodeLayout::from_block(insts, CODE_BASE).map_err(|_| ExecFault::InvalidOpcode)?;
            let model = self.take_timing_model(insts);
            self.prepare_timing(&model, &trace, &layout);
            let timing = self.simulate_double(&model, trace.len())?;
            self.put_timing_model(model);
            let mut counters = self.observe(&timing);
            counters.subnormal_events = trace.iter().filter(|d| d.effects.subnormal).count() as u64;
            Ok(RunOutcome {
                counters,
                dynamic_insts: trace.len(),
            })
        })();
        self.put_trace_buffer(trace);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhive_asm::parse_block;
    use bhive_uarch::Uarch;

    #[test]
    fn run_simple_block() {
        let block = parse_block("add rax, rbx\nimul rcx, rdx").unwrap();
        let mut machine = Machine::new(Uarch::haswell(), 0);
        machine.reset(0x1234_5600);
        let out = machine.run(block.insts(), 8).unwrap();
        assert_eq!(out.dynamic_insts, 16);
        assert!(out.counters.core_cycles > 0);
        assert!(out.counters.is_clean());
    }

    #[test]
    fn unmapped_memory_faults() {
        let block = parse_block("mov rax, qword ptr [rbx]").unwrap();
        let mut machine = Machine::new(Uarch::haswell(), 0);
        machine.reset(0x1234_5600);
        let err = machine.run(block.insts(), 4).unwrap_err();
        match err {
            RunError::Fault(ExecFault::Seg(s)) => assert_eq!(s.vaddr, 0x1234_5600),
            other => panic!("expected segfault, got {other:?}"),
        }
    }

    #[test]
    fn mapping_the_page_fixes_the_fault() {
        let block = parse_block("mov rax, qword ptr [rbx]").unwrap();
        let mut machine = Machine::new(Uarch::haswell(), 0);
        machine.reset(0x1234_5600);
        let page = machine.memory_mut().alloc_page(0x1234_5600);
        machine.memory_mut().map(0x1234_5600, page);
        let out = machine.run(block.insts(), 4).unwrap();
        assert!(out.counters.core_cycles > 0);
    }

    #[test]
    fn avx2_faults_on_ivy_bridge() {
        let block = parse_block("vfmadd231ps ymm0, ymm1, ymm2").unwrap();
        let mut ivb = Machine::new(Uarch::ivy_bridge(), 0);
        ivb.reset(0);
        assert!(!ivb.supports(&block));
        assert_eq!(
            ivb.run(block.insts(), 2).unwrap_err(),
            RunError::Fault(ExecFault::InvalidOpcode)
        );
        let mut hsw = Machine::new(Uarch::haswell(), 0);
        hsw.reset(0);
        assert!(hsw.run(block.insts(), 2).is_ok());
    }

    #[test]
    fn noise_pollutes_some_trials() {
        let block =
            parse_block("add rax, 1\nadd rbx, 1\nadd rcx, 1\nadd rsi, 1\nimul rdi, r8").unwrap();
        let mut machine =
            Machine::with_noise(Uarch::haswell(), 99, crate::noise::NoiseConfig::realistic());
        machine.reset(0x1234_5600);
        let trace = machine.execute_unrolled(block.insts(), 2000).unwrap();
        let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
        let mut l1i = Cache::new(machine.uarch().l1i);
        let mut l1d = Cache::new(machine.uarch().l1d);
        let timing = TimingModel::new(block.insts(), machine.uarch())
            .run(&trace, &layout, &mut l1i, &mut l1d)
            .unwrap();
        let samples: Vec<u64> = (0..64)
            .map(|_| machine.observe(&timing).core_cycles)
            .collect();
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        assert!(max > min, "noise must perturb at least one of 64 trials");
        let modal = samples.iter().filter(|&&s| s == min).count();
        assert!(modal >= 32, "the clean timing must dominate ({modal}/64)");
    }

    #[test]
    fn recycled_machine_matches_fresh_machine() {
        let noisy = crate::noise::NoiseConfig::realistic();
        let blocks = [
            parse_block("mov rax, qword ptr [rbx]\nadd rax, rcx").unwrap(),
            parse_block("imul rcx, rdx\nadd rax, 1").unwrap(),
        ];
        let run = |machine: &mut Machine, block: &bhive_asm::BasicBlock| {
            machine.reset(0x1234_5600);
            let page = machine.memory_mut().alloc_page(0x1234_5600);
            machine.memory_mut().map(0x1234_5600, page);
            machine.run(block.insts(), 16).unwrap().counters
        };
        // One machine recycled across blocks vs. a fresh machine per
        // block: counters must agree exactly, including sampled noise.
        let mut reused = Machine::with_noise(Uarch::haswell(), 7, noisy);
        for (idx, block) in blocks.iter().enumerate() {
            let seed = 7 + idx as u64;
            reused.recycle(seed, noisy);
            let mut fresh = Machine::with_noise(Uarch::haswell(), seed, noisy);
            assert_eq!(
                run(&mut reused, block),
                run(&mut fresh, block),
                "block {idx}"
            );
        }
    }

    #[test]
    fn subnormal_counter_reported() {
        let block = parse_block("mulps xmm0, xmm1\naddps xmm2, xmm0").unwrap();
        let mut machine = Machine::new(Uarch::haswell(), 0);
        machine.reset(0);
        // Fill xmm0 lanes with subnormals.
        let tiny = (f32::MIN_POSITIVE / 4.0).to_le_bytes();
        let mut bytes = [0u8; 16];
        for chunk in bytes.chunks_exact_mut(4) {
            chunk.copy_from_slice(&tiny);
        }
        machine
            .state_mut()
            .set_vec(bhive_asm::VecReg::xmm(1), &bytes, false);
        let out = machine.run(block.insts(), 4).unwrap();
        assert!(out.counters.subnormal_events > 0);
        // With FTZ/DAZ there is nothing to report.
        machine.reset(0);
        machine.set_ftz_daz(true);
        machine
            .state_mut()
            .set_vec(bhive_asm::VecReg::xmm(1), &bytes, false);
        let out = machine.run(block.insts(), 4).unwrap();
        assert_eq!(out.counters.subnormal_events, 0);
    }
}
