//! Cycle-level out-of-order timing model.
//!
//! The model is a classic resource-constrained OoO pipeline: an in-order
//! frontend fetching through the L1I cache, rename/allocate limited by
//! issue width, ROB and RS capacity, a greedy oldest-first scheduler over
//! the per-uarch execution ports, load/store handling through the VIPT
//! L1D, and in-order retirement. It consumes the *dynamic* instruction
//! trace produced by functional execution, so value-dependent latencies
//! (division, subnormals) and the concrete memory addresses are exact.
//!
//! The run is split in two phases so the harness's double execution (and
//! its two unroll factors) never redoes schedule-independent work:
//!
//! * [`TimingModel::prepare_into`] turns a trace into a [`PreparedTrace`]:
//!   the dynamic uop stream with resolved latencies, dependency edges,
//!   memory addresses, and the frontend fetch/L1I-probe schedule, packed
//!   into the per-uop and per-instruction records the cycle loop reads.
//!   Steady copies of the block are stamped from a template copy rather
//!   than rebuilt from the register scoreboard.
//! * [`TimingModel::simulate_with`] replays a prepared trace (or any
//!   prefix of it) against concrete cache state, which is the only input
//!   that differs between warm-up and measured runs. Readiness lives in a
//!   per-uop bitset fed by a pending wake-up calendar, dependency
//!   resolution uses consumer wake-up lists instead of rescanning
//!   producer lists every cycle, and stalls where nothing can happen
//!   until a known event are skipped in one step — all without changing a
//!   single observable bit.
//! * [`PreparedTrace::warm_by_replay`] warms the caches for the measured
//!   run by replaying the prefix's cache accesses in program order, so
//!   the double execution needs one cycle-level pass instead of two
//!   whenever that replay evicts nothing.
//!
//! The first phase lives in `prepare.rs`, the cycle loop in
//! `simulate.rs`. The original single-pass implementation is kept in
//! `reference.rs` as `TimingModel::run_reference`, compiled only for
//! tests, which pin the split path to it bit for bit.
//!
//! Both paths share one safety valve: a schedule that fails to retire
//! everything within the cycle budget returns [`NonConvergence`] instead
//! of a silently truncated [`TimingResult`] (debug and release behave
//! identically).

use crate::cache::Cache;
use crate::exec::InstEffects;
use bhive_asm::{AsmError, Inst};
use bhive_uarch::{decompose, macro_fuses, Recipe, Uarch, UarchKind, Uop, UopKind, VarLat};
use std::fmt;

mod prepare;
#[cfg(test)]
mod reference;
mod simulate;
#[cfg(test)]
mod tests;

pub use prepare::PreparedTrace;
pub use simulate::SimScratch;

/// Where the unrolled code lives in (virtual) memory; determines which L1I
/// lines it occupies.
#[derive(Debug, Clone)]
pub struct CodeLayout {
    /// Base virtual address of the first copy.
    pub base: u64,
    /// `(offset, len)` of each static instruction within one block copy.
    pub inst_spans: Vec<(u32, u32)>,
    /// Encoded length of one block copy in bytes.
    pub block_len: u32,
}

impl CodeLayout {
    /// Computes the layout of a block placed at `base`, using real encoded
    /// instruction lengths.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors for unsupported instructions.
    pub fn from_block(insts: &[Inst], base: u64) -> Result<CodeLayout, AsmError> {
        let mut spans = Vec::with_capacity(insts.len());
        let mut offset = 0u32;
        for inst in insts {
            let len = bhive_asm::encoded_len(inst)? as u32;
            spans.push((offset, len));
            offset += len;
        }
        Ok(CodeLayout {
            base,
            inst_spans: spans,
            block_len: offset,
        })
    }

    /// Builds the layout from `(offset, len)` spans recorded while the
    /// block was encoded (see `BasicBlock::encode_spanned`), so callers
    /// that already hold the machine code do not encode it a second time.
    pub fn from_spans(inst_spans: Vec<(u32, u32)>, base: u64) -> CodeLayout {
        let block_len = inst_spans
            .last()
            .map(|&(off, len)| off + len)
            .unwrap_or_default();
        CodeLayout {
            base,
            inst_spans,
            block_len,
        }
    }

    /// Code address and length of `static_idx` within unrolled copy `copy`.
    pub fn addr(&self, copy: u32, static_idx: usize) -> (u64, u32) {
        let (off, len) = self.inst_spans[static_idx];
        (
            self.base + u64::from(copy) * u64::from(self.block_len) + u64::from(off),
            len,
        )
    }
}

/// One dynamic instruction of the trace: which static instruction, which
/// unrolled copy, and its value-dependent effects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynInst {
    /// Index into the static block.
    pub static_idx: usize,
    /// Which unrolled copy this execution belongs to.
    pub copy: u32,
    /// Effects recorded by functional execution.
    pub effects: InstEffects,
}

/// Timing statistics of one run of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingResult {
    /// Total core cycles from first fetch to last retirement.
    pub cycles: u64,
    /// L1D read misses.
    pub l1d_read_misses: u64,
    /// L1D write misses.
    pub l1d_write_misses: u64,
    /// L1I misses.
    pub l1i_misses: u64,
    /// Line-splitting (misaligned) loads/stores.
    pub misaligned: u64,
    /// Unfused uops executed.
    pub uops: u64,
    /// Instructions retired.
    pub insts: u64,
}

/// The timing model exhausted its cycle budget without retiring the whole
/// trace: the schedule deadlocked (e.g. a uop that can never fit in the
/// RS) or degenerated. Surfaced as a hard error — identically in debug
/// and release builds — so a truncated, meaningless [`TimingResult`] can
/// never masquerade as a measurement.
///
/// The payload deliberately excludes the final cycle counter: the batched
/// and reference paths may abandon a pathological schedule after a
/// different number of (provably event-free) wall-clock iterations, but
/// the *state* they abandon is identical, and so is this error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonConvergence {
    /// The exhausted cycle budget.
    pub cycle_budget: u64,
    /// Instructions retired before giving up.
    pub retired: usize,
    /// Instructions the trace wanted retired.
    pub total_insts: usize,
}

impl fmt::Display for NonConvergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "timing model failed to converge: {}/{} instructions retired \
             within the {}-cycle budget",
            self.retired, self.total_insts, self.cycle_budget
        )
    }
}

impl std::error::Error for NonConvergence {}

/// The cycle budget of a schedule over `uops` unfused uops: the safety
/// valve past which the pipeline abandons the schedule as
/// [`NonConvergence`]. A linear allowance per uop on top of a fixed floor
/// that no real schedule comes near.
pub(crate) fn cycle_budget(uops: usize) -> u64 {
    1_000_000 + uops as u64 * 64
}

/// The second line of a line-splitting access at `vaddr`/`paddr`: its
/// `(virtual, physical)` start, the physical side offset by the same
/// distance as the virtual one.
#[inline]
fn split_second_line(l1d: &Cache, vaddr: u64, paddr: u64) -> (u64, u64) {
    let second = (vaddr / l1d.line_bytes() + 1) * l1d.line_bytes();
    (second, paddr + (second - vaddr))
}

const NO_UOP: u32 = u32::MAX;

/// Flat producer-scoreboard layout: GPRs at `0..16`, vector registers at
/// `16..32`, RFLAGS at `32`. Indexing an array beats hashing a `DepKey`
/// on every register read of every dynamic instruction.
const PRODUCER_SLOTS: usize = 33;
const FLAGS_SLOT: u8 = 32;

fn gpr_slot(n: u8) -> u8 {
    n
}

fn vec_slot(n: u8) -> u8 {
    16 + n
}

/// How an eliminated instruction rewrites the producer scoreboard at
/// rename, precomputed per static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Elim {
    /// Not eliminated.
    None,
    /// Zero idiom: dependency-break every slot in [`InstStatic::slots`].
    Zero,
    /// Eliminated move: alias the destination slot to the source's
    /// producer.
    Move { dst: u8, src: u8 },
    /// Nothing to rewrite (e.g. `nop`).
    Inert,
}

/// Schedule-independent facts about one static instruction on one
/// microarchitecture: its uops and the producer slots it reads and
/// writes, precomputed so the per-dynamic-instruction loop never calls
/// the allocating `gpr_reads()`/`vec_reads()`-style accessors.
#[derive(Debug, Clone)]
struct InstStatic {
    /// The recipe's unfused-domain uops.
    uops: Box<[Uop]>,
    /// The recipe's fused-domain slots.
    frontend_slots: u32,
    /// For an executed instruction, the producer slots it reads
    /// (registers, vectors, flags), then those of its memory operand's
    /// address registers, then those its result broadcasts to; for a
    /// zero idiom, the slots it breaks.
    slots: Box<[u8]>,
    n_reads: u8,
    n_addr_reads: u8,
    elim: Elim,
}

impl InstStatic {
    /// Removed at rename: no uops, only a scoreboard rewrite.
    fn eliminated(&self) -> bool {
        self.elim != Elim::None
    }

    fn reads(&self) -> &[u8] {
        &self.slots[..usize::from(self.n_reads)]
    }

    fn addr_reads(&self) -> &[u8] {
        &self.slots[usize::from(self.n_reads)..usize::from(self.n_reads + self.n_addr_reads)]
    }

    fn writes(&self) -> &[u8] {
        &self.slots[usize::from(self.n_reads + self.n_addr_reads)..]
    }
}

fn push_unique(out: &mut Vec<u8>, slot: u8) {
    if !out.contains(&slot) {
        out.push(slot);
    }
}

/// Builds an instruction's [`InstStatic`] from its recipe.
fn inst_static_of(inst: &Inst, recipe: Recipe) -> InstStatic {
    let mut slots = Vec::new();
    let static_of = |slots: Vec<u8>, n_reads: usize, n_addr_reads: usize, elim: Elim| InstStatic {
        uops: recipe.uops.into_boxed_slice(),
        frontend_slots: recipe.frontend_slots,
        slots: slots.into_boxed_slice(),
        n_reads: u8::try_from(n_reads).expect("at most 33 producer slots"),
        n_addr_reads: u8::try_from(n_addr_reads).expect("at most 33 producer slots"),
        elim,
    };
    if recipe.eliminated {
        let elim = if inst.is_zero_idiom() {
            for reg in inst.gpr_writes() {
                push_unique(&mut slots, gpr_slot(reg.number()));
            }
            for vec in inst.vec_writes() {
                push_unique(&mut slots, vec_slot(vec.number()));
            }
            // Scalar idioms (`xor r, r`) also set flags at rename:
            // consumers must not wait on the previous flag writer.
            if !inst.mnemonic().is_sse() {
                push_unique(&mut slots, FLAGS_SLOT);
            }
            Elim::Zero
        } else if let (Some(dst), Some(src)) = (
            inst.gpr_writes().first().copied(),
            inst.gpr_reads().first().copied(),
        ) {
            Elim::Move {
                dst: gpr_slot(dst.number()),
                src: gpr_slot(src.number()),
            }
        } else if let (Some(dst), Some(src)) = (
            inst.vec_writes().first().copied(),
            inst.vec_reads().first().copied(),
        ) {
            Elim::Move {
                dst: vec_slot(dst.number()),
                src: vec_slot(src.number()),
            }
        } else {
            Elim::Inert
        };
        return static_of(slots, 0, 0, elim);
    }

    for reg in inst.gpr_reads() {
        push_unique(&mut slots, gpr_slot(reg.number()));
    }
    for vec in inst.vec_reads() {
        push_unique(&mut slots, vec_slot(vec.number()));
    }
    if crate::exec::flags_read(inst) {
        push_unique(&mut slots, FLAGS_SLOT);
    }
    let n_reads = slots.len();
    let mut addr_reads = Vec::new();
    if let Some(m) = inst.mem_operand() {
        for reg in m.address_regs() {
            push_unique(&mut addr_reads, gpr_slot(reg.number()));
        }
    }
    let n_addr_reads = addr_reads.len();
    slots.extend_from_slice(&addr_reads);
    let mut writes = Vec::new();
    for reg in inst.gpr_writes() {
        push_unique(&mut writes, gpr_slot(reg.number()));
    }
    for vec in inst.vec_writes() {
        push_unique(&mut writes, vec_slot(vec.number()));
    }
    if crate::exec::flags_written(inst) {
        push_unique(&mut writes, FLAGS_SLOT);
    }
    slots.extend_from_slice(&writes);
    static_of(slots, n_reads, n_addr_reads, Elim::None)
}

/// The static (trace-independent) half of a [`TimingModel`]: the uop
/// decomposition of every instruction, the register-slot read/write
/// tables, and the macro-fusion flags. It depends only on the block's
/// instructions and the microarchitecture — never on a dynamic trace —
/// so a machine caches it alongside the lowered block and hands it back
/// to every retry attempt and unroll factor (see
/// `Machine::take_timing_model`) instead of rebuilding it per attempt.
#[derive(Debug, Clone)]
pub struct StaticPrep {
    statics: Vec<InstStatic>,
    /// Static instruction is macro-fused into its predecessor.
    fused_into_prev: Vec<bool>,
}

impl StaticPrep {
    /// Decomposes every static instruction and precomputes its
    /// register-slot tables, plus macro-fusion.
    pub fn build(insts: &[Inst], uarch: &Uarch) -> StaticPrep {
        let statics = insts
            .iter()
            .map(|inst| inst_static_of(inst, decompose(inst, uarch)))
            .collect();
        let mut fused_into_prev = vec![false; insts.len()];
        for i in 1..insts.len() {
            if macro_fuses(&insts[i - 1], &insts[i], uarch) {
                fused_into_prev[i] = true;
            }
        }
        StaticPrep {
            statics,
            fused_into_prev,
        }
    }

    /// Number of static instructions this prep describes.
    pub fn len(&self) -> usize {
        self.statics.len()
    }

    /// True if built from an empty block.
    pub fn is_empty(&self) -> bool {
        self.statics.is_empty()
    }
}

/// The reusable timing model for a fixed static block on one
/// microarchitecture.
#[derive(Debug)]
pub struct TimingModel<'a> {
    uarch: &'a Uarch,
    insts: &'a [Inst],
    statics: Vec<InstStatic>,
    /// Static instruction is macro-fused into its predecessor.
    fused_into_prev: Vec<bool>,
}

impl<'a> TimingModel<'a> {
    /// Builds the model from scratch: [`StaticPrep::build`] plus the
    /// borrows. Callers that profile the same block repeatedly should
    /// round-trip the static half through `Machine::take_timing_model` /
    /// `put_timing_model` instead.
    pub fn new(insts: &'a [Inst], uarch: &'a Uarch) -> TimingModel<'a> {
        TimingModel::with_static(insts, uarch, StaticPrep::build(insts, uarch))
    }

    /// Assembles a model around a previously built [`StaticPrep`].
    ///
    /// # Panics
    ///
    /// Panics if `sp` was built for a different number of instructions —
    /// the cheap guard against pairing a prep with the wrong block (full
    /// identity is the caller's contract).
    pub fn with_static(insts: &'a [Inst], uarch: &'a Uarch, sp: StaticPrep) -> TimingModel<'a> {
        assert_eq!(
            sp.len(),
            insts.len(),
            "static prep built for a different block"
        );
        TimingModel {
            uarch,
            insts,
            statics: sp.statics,
            fused_into_prev: sp.fused_into_prev,
        }
    }

    /// Releases the static half for reuse by a later
    /// [`TimingModel::with_static`] on the same block.
    pub fn into_static(self) -> StaticPrep {
        StaticPrep {
            statics: self.statics,
            fused_into_prev: self.fused_into_prev,
        }
    }

    /// The microarchitecture the model targets.
    pub fn uarch(&self) -> &Uarch {
        self.uarch
    }

    /// The static block the model was built for.
    pub fn insts(&self) -> &'a [Inst] {
        self.insts
    }

    /// Resolves the concrete latency of a variable-latency uop against the
    /// recorded execution effects.
    fn resolve_latency(&self, uop: &Uop, fx: &InstEffects) -> (u32, u32) {
        let mut latency = uop.latency;
        let mut blocking = uop.blocking;
        match uop.var_lat {
            Some(VarLat::DivGpr { width }) => {
                let qbits = fx.div_quotient_bits.unwrap_or(1);
                latency = div_latency(self.uarch.kind, width, qbits, fx.div_rdx_zero);
                blocking = latency;
            }
            Some(VarLat::FpDiv) | Some(VarLat::FpSqrt) => {
                // Value dependence for FP div/sqrt is mild; subnormal
                // handling below dominates.
            }
            None => {}
        }
        if fx.subnormal && uop.kind == UopKind::Compute {
            // Microcode assist: hugely slower and fully serializing.
            latency = latency.saturating_mul(self.uarch.subnormal_penalty);
            blocking = latency;
        }
        (latency, blocking)
    }

    /// Fused-domain rename/retire slots of static instruction `idx`: its
    /// recipe's, or none when it macro-fuses into its predecessor.
    fn frontend_slots(&self, idx: usize) -> u16 {
        if self.fused_into_prev[idx] {
            return 0;
        }
        u16::try_from(self.statics[idx].frontend_slots).expect("fused slot count exceeds u16")
    }
}

/// 8-byte-granular address chunks covered by an access (for
/// store-to-load forwarding detection).
fn chunks(vaddr: u64, width: u8) -> impl Iterator<Item = u64> {
    let first = vaddr / 8;
    let last = (vaddr + u64::from(width.max(1)) - 1) / 8;
    first..=last
}

/// Value-dependent scalar division latency of the simulated hardware.
pub(crate) fn div_latency(kind: UarchKind, width: u8, quotient_bits: u32, rdx_zero: bool) -> u32 {
    match width {
        8 => {
            if rdx_zero {
                // Fast path: effectively a 64/64 division with a short
                // quotient.
                match kind {
                    UarchKind::Skylake => 20 + quotient_bits / 8,
                    _ => 26 + quotient_bits / 4,
                }
            } else {
                match kind {
                    UarchKind::Skylake => 32 + quotient_bits / 8,
                    _ => 82 + quotient_bits / 4,
                }
            }
        }
        4 => {
            let base = match kind {
                UarchKind::IvyBridge => 21,
                UarchKind::Haswell => 20,
                UarchKind::Skylake => 20,
            };
            base + quotient_bits / 4
        }
        _ => 15 + quotient_bits / 4,
    }
}
