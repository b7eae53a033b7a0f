//! The [`Machine`] façade: everything the measurement framework sees.

use crate::cache::Cache;
use crate::counters::PerfCounters;
use crate::exec::lower::lower_block;
use crate::exec::ops::{execute_op, LoweredBlock};
use crate::exec::ExecFault;
use crate::mem::Memory;
use crate::noise::NoiseConfig;
use crate::state::CpuState;
use crate::timing::{
    cycle_budget, CodeLayout, DynInst, NonConvergence, PreparedTrace, SimScratch, StaticPrep,
    TimingModel, TimingResult,
};
use bhive_asm::{BasicBlock, Inst};
use bhive_uarch::Uarch;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;

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
/// static half of its timing prep, keyed by the block's instructions
/// (compared structurally on every lookup). Lives in the arena so it
/// survives [`Machine::recycle`]: the harness profiles one block per
/// recycle, so every monitor resume after a fault, both unroll factors,
/// and each retry escalation of the same block reuse one lowering instead of
/// re-decoding the operand/mnemonic enums per dynamic instruction.
#[derive(Debug, Default)]
struct LowerCache {
    valid: bool,
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

    /// Points this machine at another description of the hardware, so one
    /// machine can simulate a block under several candidate tables.
    /// Everything the arena keeps that was derived from the old
    /// description is dropped: the cached static timing prep (uop
    /// recipes depend on the tables) and any L1 whose geometry differs.
    /// The block's lowering depends only on its instructions and stays.
    /// A no-op when `uarch` is the description the machine already
    /// models, so the harness can call it on every attempt.
    pub fn retarget(&mut self, uarch: &'static Uarch) {
        if std::ptr::eq(self.uarch, uarch) {
            return;
        }
        self.timing.lower.static_prep = None;
        if self.uarch.l1i != uarch.l1i {
            self.timing.l1i = None;
        }
        if self.uarch.l1d != uarch.l1d {
            self.timing.l1d = None;
        }
        self.uarch = uarch;
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
    /// executed before the fault and none of the faulting instruction's,
    /// as on real hardware (precise faults), so the harness's monitor
    /// resumes at the faulting instruction once it has mapped the page.
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
    /// (cleared first) so the harness can reuse one allocation per worker:
    /// [`Machine::resume_unrolled_into`] from an empty trace.
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
        self.resume_unrolled_into(insts, unroll, trace)
    }

    /// Continues an unrolled execution whose first `trace.len()` dynamic
    /// instructions already ran: the next one executed is dynamic
    /// instruction `trace.len()`, against the current state and memory.
    /// After a fault the monitor maps the page and resumes here at the
    /// faulting instruction instead of re-running the prefix.
    ///
    /// Resuming is exact because faults are precise: an instruction that
    /// faults leaves state and memory as they were before it, and the
    /// trace is truncated to the completed prefix.
    ///
    /// Executes over the block's predecoded lowering (see
    /// `crate::exec::lower`), obtained from the machine's one-entry
    /// lowering cache: the per-instruction operand/mnemonic decode is paid
    /// once per block, not once per dynamic instruction.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecFault`]; `trace` holds the instructions
    /// executed before it.
    pub fn resume_unrolled_into(
        &mut self,
        insts: &[Inst],
        unroll: u32,
        trace: &mut Vec<DynInst>,
    ) -> Result<(), ExecFault> {
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
        // Materialize the rest of the trace with one bulk zeroing pass,
        // then let each kernel call record its effects straight into its
        // slot: no per-instruction 80-byte push temporaries and no
        // `InstEffects` bounced through return values. On a fault the
        // trace is truncated to the completed prefix; a later resume's
        // resize re-zeroes the faulting slot.
        let n_ops = lowered.ops.len();
        let total = n_ops * unroll as usize;
        let mut filled = trace.len();
        assert!(
            filled <= total,
            "resuming at {filled} of a {total}-instruction execution"
        );
        trace.resize(total, DynInst::default());
        let (mut copy, mut static_idx) = (filled / n_ops.max(1), filled % n_ops.max(1));
        while filled < total {
            let slot = &mut trace[filled];
            slot.static_idx = static_idx;
            slot.copy = copy as u32;
            if let Err(fault) = execute_op(&lowered.ops[static_idx], state, mem, &mut slot.effects)
            {
                trace.truncate(filled);
                return Err(fault);
            }
            filled += 1;
            static_idx += 1;
            if static_idx == n_ops {
                static_idx = 0;
                copy += 1;
            }
        }
        Ok(())
    }

    /// Makes the lowering cache current for `insts`: a structural
    /// equality check on hit (which fails fast on the first differing
    /// instruction), a fresh [`lower_block`] pass on miss (which also
    /// invalidates any cached static timing prep).
    fn ensure_lowered(&mut self, insts: &[Inst]) {
        let cache = &mut self.timing.lower;
        if cache.valid && cache.insts.as_slice() == insts {
            cache.hits += 1;
            return;
        }
        cache.misses += 1;
        cache.valid = true;
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
    /// `n_insts` instructions: a warm-up run from cold caches, then the
    /// measured run, whose result is returned. Allocation-free after the
    /// first call.
    ///
    /// The warm-up is a replay of the prefix's cache traffic in program
    /// order ([`PreparedTrace::warm_by_replay`]), not a cycle-level pass.
    /// When the replay evicts nothing, the measured pass's result is
    /// bit-identical to the one after a simulated warm-up. Otherwise,
    /// or when the measured pass fails or ends above half the cycle
    /// budget (see below), the caches are flushed and the warm-up is
    /// simulated in full, so an error is the one the simulated warm-up
    /// reports.
    ///
    /// A simulated warm-up can exhaust the budget where a replay cannot,
    /// hence the half-budget rule. The warm-up's schedule differs from
    /// the measured one only by its cold misses: one per distinct line
    /// touched, since nothing is evicted, each delaying the pass by at
    /// most a miss penalty plus one L2 interval. The shipped L1s hold 512
    /// lines each, which bounds the difference near 20,000 cycles, far
    /// inside the 500,000-cycle margin between half the budget and all
    /// of it.
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
        if prep.warm_by_replay(n_insts, l1i, l1d) {
            let budget = cycle_budget(prep.prefix_uops(n_insts));
            match model.simulate_with(prep, n_insts, l1i, l1d, scratch) {
                Ok(timing) if timing.cycles <= budget / 2 => return Ok(timing),
                _ => {}
            }
        }
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
    fn retargeted_machine_matches_fresh_machine() {
        // Three loads to distinct lines of one page feeding an imul chain:
        // `slow_mul` changes the latency of the chain's table entry, and
        // `one_set` shrinks the L1D to two lines so the loads evict.
        let block = parse_block(
            "mov rax, qword ptr [rbx]\n\
             mov rcx, qword ptr [rbx + 64]\n\
             mov rdx, qword ptr [rbx + 128]\n\
             imul rax, rcx\n\
             imul rax, rdx",
        )
        .unwrap();
        let hsw = Uarch::haswell();
        let imul = &block.insts()[3];
        let key = bhive_uarch::entry_key(imul).unwrap();
        let recipe = bhive_uarch::decompose(imul, hsw);
        let mul = recipe
            .uops
            .iter()
            .find(|u| u.kind == bhive_uarch::UopKind::Compute)
            .unwrap();
        let mut overrides = bhive_uarch::TableOverrides::new();
        overrides.set(key, mul.latency + 4, mul.ports);
        let slow_mul = hsw.with_overrides(overrides).leak();
        let one_set = Uarch {
            l1d: bhive_uarch::CacheParams {
                size_bytes: 2 * 64,
                line_bytes: 64,
                ways: 2,
            },
            ..hsw.clone()
        }
        .leak();
        let run = |machine: &mut Machine| {
            machine.reset(0x1234_5600);
            let page = machine.memory_mut().alloc_page(0x1234_5600);
            machine.memory_mut().map(0x1234_5600, page);
            machine.run(block.insts(), 16).unwrap().counters
        };
        let fresh = |uarch: &'static Uarch| run(&mut Machine::new(uarch, 0));
        assert_ne!(fresh(hsw), fresh(slow_mul), "the latency must matter");
        assert_ne!(fresh(hsw), fresh(one_set), "the L1D must matter");
        // One machine carries its lowering, static prep and caches from
        // each table to the next; every run must still match a new
        // machine built for that table.
        let mut reused = Machine::new(hsw, 0);
        for (step, uarch) in [hsw, slow_mul, hsw, one_set, hsw].into_iter().enumerate() {
            reused.recycle(0, NoiseConfig::quiet());
            reused.retarget(uarch);
            assert!(std::ptr::eq(reused.uarch(), uarch));
            assert_eq!(run(&mut reused), fresh(uarch), "step {step}");
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
