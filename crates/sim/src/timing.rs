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
//!   memory addresses, and the frontend fetch/L1I-probe schedule — laid
//!   out structure-of-arrays so the cycle loop streams through parallel
//!   `ports`/`latency`/`dep_*` columns instead of chasing struct fields.
//! * [`TimingModel::simulate_with`] replays a prepared trace (or any
//!   prefix of it) against concrete cache state, which is the only input
//!   that differs between warm-up and measured runs. Readiness lives in a
//!   per-uop bitset fed by a pending wake-up calendar, dependency
//!   resolution uses consumer wake-up lists instead of rescanning
//!   producer lists every cycle, and stretches of cycles where nothing can
//!   happen are skipped in one step — all without changing a single
//!   observable bit.
//!
//! [`TimingModel::run_reference`] keeps the original single-pass
//! implementation; differential tests pin the split path to it bit for
//! bit.
//!
//! Both paths share one safety valve: a schedule that fails to retire
//! everything within the cycle budget returns [`NonConvergence`] instead
//! of a silently truncated [`TimingResult`] (debug and release behave
//! identically).

use crate::cache::Cache;
use crate::exec::InstEffects;
use bhive_asm::{AsmError, Gpr, Inst};
use bhive_uarch::{decompose_cached, macro_fuses, Recipe, Uarch, UarchKind, Uop, UopKind, VarLat};
use std::collections::HashMap;
use std::fmt;

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

/// Dependency-tracking key (reference path only; the prepared path uses
/// the flat producer scoreboard below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum DepKey {
    Gpr(u8),
    Vec(u8),
    Flags,
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

/// Reference-path dynamic uop (AoS). The prepared hot path stores the
/// same fields as parallel columns in [`PreparedTrace`].
#[derive(Debug, Clone)]
struct DynUop {
    ports: u8,
    latency: u32,
    blocking: u32,
    kind: UopKind,
    /// Producer uop ids: `dep_pool[dep_start..dep_start + dep_len]`.
    dep_start: u32,
    dep_len: u16,
    /// Load/store address for the D-cache (vaddr, paddr, width).
    mem: Option<(u64, u64, u8)>,
}

/// Open-addressed map from 8-byte address chunk to the uop id of the
/// latest store covering it (store-to-load forwarding scoreboard).
/// Replaces a `HashMap<u64, u32>`: no hasher state, no rehash-per-lookup,
/// and `reset` keeps the backing storage for the next trace.
#[derive(Debug, Default)]
struct ChunkTable {
    keys: Vec<u64>,
    /// `NO_UOP` marks an empty slot (store uop ids are always < `NO_UOP`).
    vals: Vec<u32>,
    len: usize,
}

impl ChunkTable {
    fn reset(&mut self) {
        if self.keys.is_empty() {
            self.keys = vec![0; 64];
            self.vals = vec![NO_UOP; 64];
        } else {
            self.vals.fill(NO_UOP);
        }
        self.len = 0;
    }

    fn slot(&self, chunk: u64) -> usize {
        // Fibonacci hashing spreads the (dense, small) chunk numbers.
        ((chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (self.keys.len() - 1)
    }

    fn get(&self, chunk: u64) -> Option<u32> {
        let mask = self.keys.len() - 1;
        let mut i = self.slot(chunk);
        loop {
            if self.vals[i] == NO_UOP {
                return None;
            }
            if self.keys[i] == chunk {
                return Some(self.vals[i]);
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, chunk: u64, uop: u32) {
        // Keep load factor below 3/4 so probe sequences stay short and
        // lookups always terminate on an empty slot.
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = self.slot(chunk);
        loop {
            if self.vals[i] == NO_UOP {
                self.keys[i] = chunk;
                self.vals[i] = uop;
                self.len += 1;
                return;
            }
            if self.keys[i] == chunk {
                self.vals[i] = uop;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(64);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![NO_UOP; new_cap]);
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v != NO_UOP {
                self.insert(k, v);
            }
        }
    }
}

/// Issue-time attributes of one uop, packed into a single record so the
/// scheduler's issue block costs one cache-line touch instead of one per
/// SoA column. The consumer list is
/// `use_pool[meta[u].use_start..meta[u + 1].use_start]` (the `meta`
/// array carries a trailing sentinel).
#[derive(Debug, Clone, Copy, Default)]
struct UopMeta {
    /// Resolved result latency in cycles (≥ 1).
    latency: u32,
    /// Cycles the chosen port stays busy.
    blocking: u32,
    /// Owning dynamic-instruction index.
    owner: u32,
    /// Start of the consumer wake-up list in `use_pool`.
    use_start: u32,
    /// Candidate execution-port bitmask.
    ports: u8,
    /// Memory access width in bytes; 0 = no access.
    mem_width: u8,
    /// 1 for store-data uops (their memory access is a write).
    is_store: u8,
    _pad: u8,
}

/// A trace compiled into its schedule-independent form: the dynamic uop
/// stream with resolved latencies, dependency edges, memory addresses,
/// and the frontend fetch/L1I-probe schedule. Built once per attempt and
/// replayed by [`TimingModel::simulate_with`] for every warm-up/measured
/// run.
///
/// Layout is structure-of-arrays: one parallel column per uop attribute,
/// indexed by uop id, plus forward dependency lists (`dep_*` into
/// `dep_pool`) and their transpose (`use_*` into `use_pool`, the
/// consumer wake-up lists the scheduler walks at issue time).
///
/// All contents are *prefix-closed*: because functional execution is
/// deterministic, the preparation of the first `n` dynamic instructions
/// equals the first `n` instructions' worth of the full preparation, so a
/// hi-factor preparation serves the lo-factor run as a prefix.
/// (Dependencies only ever point backwards, so every forward edge out of
/// a prefix lands in the suffix and is simply never consulted.)
#[derive(Debug, Default)]
pub struct PreparedTrace {
    // ---- Per-uop columns (SoA), indexed by uop id ----
    /// Candidate execution-port bitmask.
    ports: Vec<u8>,
    /// Resolved result latency in cycles (≥ 1).
    latency: Vec<u32>,
    /// Cycles the chosen port stays busy.
    blocking: Vec<u32>,
    /// True for store-data uops (their memory access is a write).
    is_store: Vec<bool>,
    /// Producer list start: `dep_pool[dep_start..dep_start + dep_len]`.
    dep_start: Vec<u32>,
    /// Producer list length.
    dep_len: Vec<u16>,
    /// Memory access `[virtual, physical]` address pair (meaningful iff
    /// the uop's `meta.mem_width != 0`); one array so the issue path
    /// touches one cache line per access, not two.
    mem_addr: Vec<[u64; 2]>,
    /// Packed issue-time descriptors, one per uop plus a trailing
    /// sentinel (for `use_start` range ends). Derived from the SoA
    /// columns at the end of [`TimingModel::prepare_into`]: the
    /// scheduler's issue block reads one 20-byte record instead of
    /// gathering from eight parallel columns.
    meta: Vec<UopMeta>,
    /// Bit per uop id: set iff the uop has no producers, i.e. its
    /// operands are ready from cycle 0. Copied wholesale into the
    /// scheduler's ready set at simulation start.
    ready0_mask: Vec<u64>,
    /// Initial wake-up countdowns (`unresolved` = producer count),
    /// memcpy'd into the scratch at simulation start instead of being
    /// rebuilt element by element on every pass.
    wake0: Vec<WakeState>,
    /// Initial retire-side state (`unissued` = uop count), memcpy'd the
    /// same way; `simulate_with` copies the replayed prefix only.
    inst_state0: Vec<InstState>,
    /// Packed per-instruction rename/retire record (uop span, slots,
    /// elimination flag), mirroring the four per-instruction columns.
    inst_meta: Vec<InstMeta>,
    /// All uop dependency lists, back to back (one allocation instead of
    /// a heap Vec per uop).
    dep_pool: Vec<u32>,
    /// Transposed edges: uop `u`'s consumers are
    /// `use_pool[use_start[u]..use_start[u + 1]]`. Length `uops + 1`.
    use_start: Vec<u32>,
    /// Consumer uop ids, grouped by producer.
    use_pool: Vec<u32>,
    // ---- Per-instruction columns ----
    /// First uop id of each instruction.
    inst_first: Vec<u32>,
    /// One past the last uop id of each instruction.
    inst_last: Vec<u32>,
    /// Fused-domain rename/retire slots.
    inst_slots: Vec<u32>,
    /// Eliminated at rename (no uops).
    inst_elim: Vec<bool>,
    /// Per-instruction fetch clock before stalls: cumulative bytes / 16.
    fetch_base: Vec<u64>,
    /// L1I line probes as `(instruction index, line address)`, in program
    /// order with consecutive duplicates removed.
    probes: Vec<(u32, u64)>,
    // Prepare-time scratch, reused across prepares; dead weight to
    // `simulate_with`.
    stores: ChunkTable,
    reg_deps: Vec<u32>,
    addr_deps: Vec<u32>,
    use_cursor: Vec<u32>,
}

impl PreparedTrace {
    /// Number of prepared dynamic instructions.
    pub fn len(&self) -> usize {
        self.inst_first.len()
    }

    /// True if nothing is prepared.
    pub fn is_empty(&self) -> bool {
        self.inst_first.is_empty()
    }

    /// Number of unfused uops in the prepared stream.
    pub fn uop_count(&self) -> usize {
        self.ports.len()
    }
}

/// Reusable per-simulation state (completion times, RS contents,
/// readiness scoreboard, fetch and rename cycles). Owning one and passing
/// it to [`TimingModel::simulate_with`] makes repeated simulations
/// allocation-free.
#[derive(Debug, Default)]
pub struct SimScratch {
    completion: Vec<u64>,
    fetch_cycle: Vec<u64>,
    rename_cycle: Vec<u64>,
    /// Per-uop wake-up countdown (packed: running max of resolved
    /// producers' completion cycles + producers not yet issued, so one
    /// wake-up edge costs one cache-line touch).
    wake: Vec<WakeState>,
    /// Per-instruction retire state (packed for the same reason).
    inst_state: Vec<InstState>,
    /// The ready set: bit per uop id, set while the uop's operands are
    /// available and it has not issued. Seeded from
    /// `PreparedTrace::ready0_mask`; wake-ups land here through the
    /// pending calendar below. Bits past the rename frontier are
    /// invisible to the issue scan until their instruction renames.
    ready_bits: Vec<u64>,
    /// Pending wake-up calendar: `(cycle << PEND_SHIFT) | uop_id` keys
    /// for uops whose operands resolve at a known future cycle. Drained
    /// into `ready_bits` once that cycle arrives.
    pend: Vec<u64>,
}

/// Bit position splitting a pending-calendar key into `(cycle, uop id)`:
/// `key = (ready_cycle << PEND_SHIFT) | uop_id`. Keys order by ready
/// cycle first, so the calendar minimum *is* the earliest wake-up, and
/// one comparison against `(cycle + 1) << PEND_SHIFT` tests maturity.
/// 24 id bits cap prepared traces at 16M uops (asserted in prepare);
/// cycle values are bounded by the convergence budget, far below the
/// remaining 40 bits.
const PEND_SHIFT: u32 = 24;

/// The earliest value in `completion` strictly after `cycle`, or
/// `u64::MAX` when there is none. Unissued uops hold `u64::MAX` and
/// completed ones hold a cycle `<= cycle`, so neither counts: what is
/// left is exactly the set of in-flight completion events.
fn min_future(completion: &[u64], cycle: u64) -> u64 {
    completion
        .iter()
        .fold(u64::MAX, |min, &v| if v > cycle { min.min(v) } else { min })
}

/// Wake-up countdown for one uop: the consumer side of the scoreboard.
#[derive(Debug, Clone, Copy, Default)]
struct WakeState {
    /// Running max of resolved producers' completion cycles.
    dep_ready: u64,
    /// Producers not yet issued.
    unresolved: u32,
    _pad: u32,
}

/// Frontend-facing columns of one dynamic instruction, packed so the
/// rename and retire loops load a single 12-byte record instead of
/// striding over four parallel arrays.
#[derive(Debug, Clone, Copy, Default)]
struct InstMeta {
    /// First uop id.
    first: u32,
    /// One past the last uop id.
    last: u32,
    /// Fused-domain rename/retire slots.
    slots: u16,
    /// Non-zero when eliminated at rename (no uops).
    elim: u16,
}

/// Retire-side state of one dynamic instruction.
#[derive(Debug, Clone, Copy, Default)]
struct InstState {
    /// Max completion cycle among issued uops.
    done_at: u64,
    /// Uops not yet issued.
    unissued: u32,
    _pad: u32,
}

/// How an eliminated instruction rewrites the producer scoreboard at
/// rename, precomputed per static instruction.
#[derive(Debug, Clone)]
enum Elim {
    /// Not eliminated.
    None,
    /// Zero idiom: dependency-break every listed slot.
    Zero(Box<[u8]>),
    /// Eliminated move: alias the destination slot to the source's
    /// producer.
    Move { dst: u8, src: u8 },
    /// Nothing to rewrite (e.g. `nop`).
    Inert,
}

/// Schedule-independent facts about one static instruction, precomputed
/// so the per-dynamic-instruction loop never calls the allocating
/// `gpr_reads()`/`vec_reads()`-style accessors.
#[derive(Debug, Clone)]
struct StaticInfo {
    /// Producer slots the instruction reads (registers, vectors, flags).
    reads: Box<[u8]>,
    /// Producer slots of the memory operand's address registers.
    addr_reads: Box<[u8]>,
    /// Producer slots the instruction's result broadcasts to.
    writes: Box<[u8]>,
    elim: Elim,
}

fn push_unique(out: &mut Vec<u8>, slot: u8) {
    if !out.contains(&slot) {
        out.push(slot);
    }
}

fn static_info(inst: &Inst, recipe: &Recipe) -> StaticInfo {
    if recipe.eliminated {
        let elim = if inst.is_zero_idiom() {
            let mut slots = Vec::new();
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
            Elim::Zero(slots.into_boxed_slice())
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
        return StaticInfo {
            reads: Box::default(),
            addr_reads: Box::default(),
            writes: Box::default(),
            elim,
        };
    }

    let mut reads = Vec::new();
    for reg in inst.gpr_reads() {
        push_unique(&mut reads, gpr_slot(reg.number()));
    }
    for vec in inst.vec_reads() {
        push_unique(&mut reads, vec_slot(vec.number()));
    }
    if crate::exec::flags_read(inst) {
        push_unique(&mut reads, FLAGS_SLOT);
    }
    let mut addr_reads = Vec::new();
    if let Some(m) = inst.mem_operand() {
        for reg in m.address_regs() {
            push_unique(&mut addr_reads, gpr_slot(reg.number()));
        }
    }
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
    StaticInfo {
        reads: reads.into_boxed_slice(),
        addr_reads: addr_reads.into_boxed_slice(),
        writes: writes.into_boxed_slice(),
        elim: Elim::None,
    }
}

/// The static (trace-independent) half of a [`TimingModel`]: the uop
/// decomposition of every instruction, the register-slot read/write
/// tables, and the macro-fusion flags. It depends only on the block's
/// instructions and the microarchitecture — never on a dynamic trace —
/// so a machine caches it alongside the lowered block and hands it back
/// to every retry attempt, monitor restart, and unroll factor (see
/// `Machine::take_timing_model`) instead of rebuilding it per attempt.
#[derive(Debug, Clone)]
pub struct StaticPrep {
    recipes: Vec<Recipe>,
    statics: Vec<StaticInfo>,
    /// Static instruction is macro-fused into its predecessor.
    fused_into_prev: Vec<bool>,
}

impl StaticPrep {
    /// Decomposes every static instruction (through the per-thread recipe
    /// memo) and precomputes macro-fusion and the register-slot tables.
    pub fn build(insts: &[Inst], uarch: &Uarch) -> StaticPrep {
        let recipes: Vec<Recipe> = insts
            .iter()
            .map(|inst| decompose_cached(inst, uarch))
            .collect();
        let statics = insts
            .iter()
            .zip(&recipes)
            .map(|(inst, recipe)| static_info(inst, recipe))
            .collect();
        let mut fused_into_prev = vec![false; insts.len()];
        for i in 1..insts.len() {
            if macro_fuses(&insts[i - 1], &insts[i], uarch) {
                fused_into_prev[i] = true;
            }
        }
        StaticPrep {
            recipes,
            statics,
            fused_into_prev,
        }
    }

    /// Number of static instructions this prep describes.
    pub fn len(&self) -> usize {
        self.recipes.len()
    }

    /// True if built from an empty block.
    pub fn is_empty(&self) -> bool {
        self.recipes.is_empty()
    }
}

/// The reusable timing model for a fixed static block on one
/// microarchitecture.
#[derive(Debug)]
pub struct TimingModel<'a> {
    uarch: &'a Uarch,
    insts: &'a [Inst],
    recipes: Vec<Recipe>,
    statics: Vec<StaticInfo>,
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
            recipes: sp.recipes,
            statics: sp.statics,
            fused_into_prev: sp.fused_into_prev,
        }
    }

    /// Releases the static half for reuse by a later
    /// [`TimingModel::with_static`] on the same block.
    pub fn into_static(self) -> StaticPrep {
        StaticPrep {
            recipes: self.recipes,
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

    /// Compiles `trace` into `prep`, reusing `prep`'s allocations. The
    /// prepared stream is valid for any [`TimingModel::simulate_with`]
    /// replay over caches with this model's uarch geometry.
    pub fn prepare_into(&self, prep: &mut PreparedTrace, trace: &[DynInst], layout: &CodeLayout) {
        let PreparedTrace {
            ports,
            latency: latencies,
            blocking: blockings,
            is_store,
            dep_start,
            dep_len,
            mem_addr,
            meta,
            ready0_mask,
            wake0,
            inst_state0,
            inst_meta,
            dep_pool,
            use_start,
            use_pool,
            inst_first,
            inst_last,
            inst_slots,
            inst_elim,
            fetch_base,
            probes,
            stores,
            reg_deps,
            addr_deps,
            use_cursor,
        } = prep;
        ports.clear();
        latencies.clear();
        blockings.clear();
        is_store.clear();
        dep_start.clear();
        dep_len.clear();
        mem_addr.clear();
        meta.clear();
        ready0_mask.clear();
        wake0.clear();
        inst_state0.clear();
        inst_meta.clear();
        dep_pool.clear();
        inst_first.clear();
        inst_last.clear();
        inst_slots.clear();
        inst_elim.clear();
        fetch_base.clear();
        probes.clear();
        stores.reset();
        ports.reserve(trace.len());
        inst_first.reserve(trace.len());
        fetch_base.reserve(trace.len());

        // ---- Frontend: fetch byte clock and the L1I probe schedule ----
        {
            let line = u64::from(self.uarch.l1i.line_bytes);
            let mut clock_bytes = 0u64; // 16 fetch bytes per cycle
            let mut last_line = u64::MAX;
            for (i, dyn_inst) in trace.iter().enumerate() {
                let (addr, len) = layout.addr(dyn_inst.copy, dyn_inst.static_idx);
                let mut probe = addr / line;
                let end_line = (addr + u64::from(len) - 1) / line;
                let i32 = u32::try_from(i).expect("trace length exceeds u32 range");
                while probe <= end_line {
                    if probe != last_line {
                        probes.push((i32, probe * line));
                        last_line = probe;
                    }
                    probe += 1;
                }
                clock_bytes += u64::from(len);
                fetch_base.push(clock_bytes / 16);
            }
        }

        // ---- Dynamic uops with dependencies ----
        let mut producers = [NO_UOP; PRODUCER_SLOTS];
        for (inst_idx, dyn_inst) in trace.iter().enumerate() {
            let inst_idx = u32::try_from(inst_idx).expect("trace length exceeds u32 range");
            let recipe = &self.recipes[dyn_inst.static_idx];
            let info = &self.statics[dyn_inst.static_idx];
            let fx = &dyn_inst.effects;
            let first = u32::try_from(ports.len()).expect("uop count exceeds u32 range");
            let mut frontend_slots = recipe.frontend_slots;
            if self.fused_into_prev[dyn_inst.static_idx] {
                frontend_slots = 0;
            }

            if recipe.eliminated {
                match &info.elim {
                    // Zero idiom: break dependencies on the destination.
                    Elim::Zero(slots) => {
                        for &slot in slots.iter() {
                            producers[slot as usize] = NO_UOP;
                        }
                    }
                    // Eliminated move: alias destination to source
                    // producer (NO_UOP propagates "no producer").
                    Elim::Move { dst, src } => {
                        producers[*dst as usize] = producers[*src as usize];
                    }
                    Elim::Inert | Elim::None => {}
                }
                inst_first.push(first);
                inst_last.push(first);
                inst_slots.push(frontend_slots);
                inst_elim.push(true);
                continue;
            }

            // Register/flag dependencies of the whole instruction.
            reg_deps.clear();
            for &slot in info.reads.iter() {
                let p = producers[slot as usize];
                if p != NO_UOP {
                    reg_deps.push(p);
                }
            }
            addr_deps.clear();
            for &slot in info.addr_reads.iter() {
                let p = producers[slot as usize];
                if p != NO_UOP {
                    addr_deps.push(p);
                }
            }

            let mut load_uop: u32 = NO_UOP;
            let mut last_compute: u32 = NO_UOP;
            for uop in &recipe.uops {
                let (latency, blocking) = self.resolve_latency(uop, fx);
                // The scheduler computes one readiness batch per cycle;
                // that is exact only because a uop issued at cycle `c`
                // can never complete before `c + 1`.
                debug_assert!(latency > 0, "zero-latency uop breaks readiness batching");
                let pool_start = dep_pool.len();
                let deps = &mut *dep_pool;
                let mut mem = None;
                match uop.kind {
                    UopKind::Load => {
                        deps.extend_from_slice(addr_deps);
                        if let Some(access) = fx.load {
                            mem = Some((access.vaddr, access.paddr, access.width));
                            // Store-to-load forwarding dependency.
                            for chunk in chunks(access.vaddr, access.width) {
                                if let Some(s) = stores.get(chunk) {
                                    deps.push(s);
                                }
                            }
                        }
                    }
                    UopKind::Compute => {
                        deps.extend_from_slice(reg_deps);
                        if load_uop != NO_UOP {
                            deps.push(load_uop);
                        }
                        if last_compute != NO_UOP {
                            deps.push(last_compute);
                        }
                    }
                    UopKind::StoreAddr => {
                        deps.extend_from_slice(addr_deps);
                    }
                    UopKind::StoreData => {
                        if last_compute != NO_UOP {
                            deps.push(last_compute);
                        } else if load_uop != NO_UOP {
                            deps.push(load_uop);
                        } else {
                            deps.extend_from_slice(reg_deps);
                        }
                        if let Some(access) = fx.store {
                            mem = Some((access.vaddr, access.paddr, access.width));
                        }
                    }
                }
                // Sort + dedup this uop's slice of the pool in place.
                let tail = &mut deps[pool_start..];
                tail.sort_unstable();
                let mut kept = usize::from(!tail.is_empty());
                for i in 1..tail.len() {
                    if tail[i] != tail[kept - 1] {
                        tail[kept] = tail[i];
                        kept += 1;
                    }
                }
                deps.truncate(pool_start + kept);
                let id = u32::try_from(ports.len()).expect("uop count exceeds u32 range");
                ports.push(uop.ports.mask());
                latencies.push(latency);
                blockings.push(blocking);
                is_store.push(uop.kind == UopKind::StoreData);
                dep_start
                    .push(u32::try_from(pool_start).expect("dependency pool exceeds u32 range"));
                dep_len.push(u16::try_from(kept).expect("per-uop dependency list exceeds u16"));
                let (vaddr, paddr, width) = mem.unwrap_or((0, 0, 0));
                mem_addr.push([vaddr, paddr]);
                meta.push(UopMeta {
                    latency,
                    blocking,
                    owner: inst_idx,
                    use_start: 0, // filled after the transpose below
                    ports: uop.ports.mask(),
                    mem_width: width,
                    is_store: u8::from(uop.kind == UopKind::StoreData),
                    _pad: 0,
                });
                match uop.kind {
                    UopKind::Load => load_uop = id,
                    UopKind::Compute => last_compute = id,
                    _ => {}
                }
            }

            // Record producers for later consumers.
            let result_uop = if last_compute != NO_UOP {
                last_compute
            } else {
                load_uop
            };
            if result_uop != NO_UOP {
                for &slot in info.writes.iter() {
                    producers[slot as usize] = result_uop;
                }
            }
            if let Some(access) = fx.store {
                let std_uop = (ports.len() - 1) as u32;
                for chunk in chunks(access.vaddr, access.width) {
                    stores.insert(chunk, std_uop);
                }
            }
            inst_first.push(first);
            inst_last.push(u32::try_from(ports.len()).expect("uop count exceeds u32 range"));
            inst_slots.push(frontend_slots);
            inst_elim.push(false);
        }

        // ---- Transpose the dependency edges into wake-up lists ----
        // Counting sort over `dep_pool` (which is exactly the
        // concatenation of every uop's deduped producer list).
        let n_uops = ports.len();
        assert!(
            n_uops < (1 << PEND_SHIFT),
            "prepared trace of {n_uops} uops exceeds the pending-calendar id space"
        );
        use_start.clear();
        use_start.resize(n_uops + 1, 0);
        for &d in dep_pool.iter() {
            use_start[d as usize + 1] += 1;
        }
        for i in 1..=n_uops {
            use_start[i] += use_start[i - 1];
        }
        use_pool.clear();
        use_pool.resize(dep_pool.len(), 0);
        use_cursor.clear();
        use_cursor.extend_from_slice(use_start);
        for q in 0..n_uops {
            let s = dep_start[q] as usize;
            for &d in &dep_pool[s..s + usize::from(dep_len[q])] {
                let c = &mut use_cursor[d as usize];
                use_pool[*c as usize] = q as u32;
                *c += 1;
            }
        }
        // Copy the consumer-list starts into the packed descriptors and
        // close them with the sentinel record.
        for (m, &s) in meta.iter_mut().zip(use_start.iter()) {
            m.use_start = s;
        }
        meta.push(UopMeta {
            use_start: use_start[n_uops],
            ..UopMeta::default()
        });
        ready0_mask.resize(n_uops.div_ceil(64), 0);
        for (id, &len) in dep_len.iter().enumerate() {
            ready0_mask[id >> 6] |= u64::from(len == 0) << (id & 63);
        }
        wake0.extend(dep_len.iter().map(|&d| WakeState {
            dep_ready: 0,
            unresolved: u32::from(d),
            _pad: 0,
        }));
        inst_state0.extend(
            inst_first
                .iter()
                .zip(inst_last.iter())
                .map(|(&f, &l)| InstState {
                    done_at: 0,
                    unissued: l - f,
                    _pad: 0,
                }),
        );
        for (((&first, &last), &slots), &elim) in inst_first
            .iter()
            .zip(inst_last.iter())
            .zip(inst_slots.iter())
            .zip(inst_elim.iter())
        {
            inst_meta.push(InstMeta {
                first,
                last,
                slots: u16::try_from(slots).expect("fused slot count exceeds u16"),
                elim: u16::from(elim),
            });
        }
    }

    /// Convenience wrapper: prepares `trace` into a fresh [`PreparedTrace`].
    pub fn prepare(&self, trace: &[DynInst], layout: &CodeLayout) -> PreparedTrace {
        let mut prep = PreparedTrace::default();
        self.prepare_into(&mut prep, trace, layout);
        prep
    }

    /// Replays a full prepared trace with one-shot scratch state. See
    /// [`TimingModel::simulate_with`].
    ///
    /// # Errors
    ///
    /// Returns [`NonConvergence`] if the schedule exhausts its cycle
    /// budget.
    pub fn simulate(
        &self,
        prep: &PreparedTrace,
        l1i: &mut Cache,
        l1d: &mut Cache,
    ) -> Result<TimingResult, NonConvergence> {
        let mut scratch = SimScratch::default();
        self.simulate_with(prep, prep.len(), l1i, l1d, &mut scratch)
    }

    /// Runs the first `n_insts` prepared dynamic instructions through the
    /// pipeline. `l1i`/`l1d` carry cache state across runs (the harness
    /// performs a warm-up run first, exactly like the paper's double
    /// execution); `scratch` is caller-owned so repeated runs allocate
    /// nothing.
    ///
    /// Prefix replay is exact: simulating `n` instructions of a longer
    /// preparation is bit-identical to preparing and simulating the
    /// `n`-instruction trace itself (the prepared stream is prefix-closed).
    ///
    /// # Errors
    ///
    /// Returns [`NonConvergence`] if the schedule exhausts its cycle
    /// budget — identically in debug and release builds.
    ///
    /// # Panics
    ///
    /// Panics if `n_insts` exceeds the prepared length.
    pub fn simulate_with(
        &self,
        prep: &PreparedTrace,
        n_insts: usize,
        l1i: &mut Cache,
        l1d: &mut Cache,
        scratch: &mut SimScratch,
    ) -> Result<TimingResult, NonConvergence> {
        assert!(
            n_insts <= prep.len(),
            "prefix of {n_insts} insts exceeds prepared trace of {}",
            prep.len()
        );
        let mut result = TimingResult::default();
        if n_insts == 0 {
            return Ok(result);
        }
        let uop_limit = prep.inst_last[n_insts - 1] as usize;
        let SimScratch {
            completion,
            fetch_cycle,
            rename_cycle,
            wake,
            inst_state,
            ready_bits,
            pend,
        } = scratch;
        // Hoisted column views: one slice bound per array instead of a
        // Vec deref on every random access in the cycle loop.
        let meta = &prep.meta[..];
        let mem_addr = &prep.mem_addr[..];
        let use_pool = &prep.use_pool[..];
        let imeta = &prep.inst_meta[..];

        // ---- Frontend replay: fetch cycles through the L1I ----
        fetch_cycle.clear();
        {
            let mut stall = 0u64;
            let mut p = 0usize;
            for (i, &base) in prep.fetch_base[..n_insts].iter().enumerate() {
                while p < prep.probes.len() && prep.probes[p].0 as usize == i {
                    let addr = prep.probes[p].1;
                    // Instruction fetch is VIPT too; code is identity
                    // mapped for tagging purposes.
                    if !l1i.access(addr, addr) {
                        stall += u64::from(self.uarch.l1i_miss_penalty);
                        result.l1i_misses += 1;
                    }
                    p += 1;
                }
                fetch_cycle.push(base + stall);
            }
        }

        // ---- Scoreboard state ----
        // Per-uop arrays span the *whole* preparation (not just the
        // prefix): wake-up edges out of the prefix may touch suffix
        // consumers, and unconditional writes there are cheaper than a
        // bounds branch per edge.
        let total_insts = n_insts;
        completion.clear();
        completion.resize(uop_limit, u64::MAX);
        ready_bits.clear();
        ready_bits.extend_from_slice(&prep.ready0_mask);
        pend.clear();
        // Exact minimum over the pending calendar's keys (`u64::MAX` =
        // empty): folded on insert, rebuilt on drain. Its cycle half
        // (`min_pend >> PEND_SHIFT`) feeds the issue side of the stall
        // fast-forward's event bound.
        let mut min_pend = u64::MAX;
        wake.clear();
        wake.extend_from_slice(&prep.wake0);
        inst_state.clear();
        inst_state.extend_from_slice(&prep.inst_state0[..total_insts]);
        rename_cycle.clear();
        rename_cycle.resize(total_insts, 0);
        let mut port_free = [0u64; 8];
        // Ports whose `port_free` lies in the future. Only uops with a
        // non-zero blocking interval (divisions and the like) ever set a
        // bit, so pruning this mask each cycle touches nothing in the
        // common all-free case — unlike rebuilding availability from all
        // eight `port_free` entries.
        let mut busy_mask: u8 = 0;
        // Pick keys `(free_cycle << 3) | port` kept in sync with
        // `port_free`: the scheduler minimizes the masked key, which
        // orders by earliest free cycle, lowest port index on ties.
        let mut port_key = [0u64; 8];
        for (p, k) in port_key.iter_mut().enumerate() {
            *k = p as u64;
        }
        // L1-miss handling serializes on the L2 interface (a coarse MSHR /
        // fill-bandwidth model): misses cannot complete back to back.
        let mut l2_free = 0u64;
        let l2_interval = u64::from(self.uarch.l1d_miss_penalty);
        let mut next_rename = 0usize; // inst index
        let mut next_retire = 0usize;
        let mut rob_used = 0u32;
        let mut rs_used = 0u32;
        let mut cycle = 0u64;
        // Safety valve against pathological schedules.
        let max_cycles = 1_000_000u64 + (uop_limit as u64) * 64;
        let issue_quota = self.uarch.issue_width * 2;

        while next_retire < total_insts {
            // Retire (fused-domain bandwidth). An instruction is done when
            // every uop has issued and the latest completion has passed —
            // the same predicate as the reference's per-uop completion
            // scan, folded into two scalars at issue time.
            let mut retired = 0;
            while next_retire < total_insts && retired < self.uarch.retire_width {
                // SAFETY: `next_retire < total_insts`, and `imeta`,
                // `inst_state`, and `rename_cycle` all span at least
                // `total_insts` entries (sized in the init above).
                debug_assert!(
                    next_retire < imeta.len()
                        && next_retire < inst_state.len()
                        && next_retire < rename_cycle.len()
                );
                let im = unsafe { *imeta.get_unchecked(next_retire) };
                let done = if im.elim != 0 {
                    (unsafe { *rename_cycle.get_unchecked(next_retire) }) <= cycle
                        && next_retire < next_rename
                } else {
                    let st = unsafe { *inst_state.get_unchecked(next_retire) };
                    next_retire < next_rename && st.unissued == 0 && st.done_at <= cycle
                };
                if !done {
                    break;
                }
                rob_used = rob_used.saturating_sub(u32::from(im.slots).max(1));
                next_retire += 1;
                retired += 1;
            }

            // Mature pending wake-ups into the ready set. Calendar
            // entries always carry strictly-future cycles (a uop issued
            // at `c` completes no earlier than `c + 1`), so a drain can
            // only happen on a later cycle than the insert, and `<=` here
            // agrees bit for bit with the per-scan compare it replaces.
            let pend_thresh = (cycle + 1) << PEND_SHIFT;
            if min_pend < pend_thresh {
                min_pend = u64::MAX;
                let n = pend.len();
                let mut kept = 0usize;
                // Branchless compact: matured keys set their ready bit (an
                // `|= 0` no-op otherwise) and are dropped by not advancing
                // the write cursor.
                for i in 0..n {
                    // SAFETY: `kept <= i < n = pend.len()`; uids were
                    // masked to PEND_SHIFT bits at insert and are
                    // `< uop_limit`, and `ready_bits` spans every
                    // prepared uop id.
                    debug_assert!(kept <= i && i < pend.len());
                    let key = unsafe { *pend.get_unchecked(i) };
                    let matured = key < pend_thresh;
                    let uid = (key & ((1 << PEND_SHIFT) - 1)) as usize;
                    debug_assert!(uid < uop_limit && uid >> 6 < ready_bits.len());
                    unsafe {
                        *ready_bits.get_unchecked_mut(uid >> 6) |= u64::from(matured) << (uid & 63);
                        *pend.get_unchecked_mut(kept) = key;
                    }
                    min_pend = min_pend.min(if matured { u64::MAX } else { key });
                    kept += usize::from(!matured);
                }
                pend.truncate(kept);
            }

            // Issue from the ready set: oldest first (lowest uop id —
            // exactly the reservation-station age order, since uops are
            // renamed in id order). The rename frontier masks uops whose
            // instruction has not renamed yet: a producer may resolve a
            // consumer that is still waiting on the frontend, and its
            // ready bit simply becomes visible once rename passes it.
            // Each uop is examined O(1) times overall — once per drain
            // plus once per issue attempt — instead of once per cycle
            // spent waiting in the station.
            let mut issued_this_cycle = 0u32;
            // Does any visible ready bit survive the issue scan? Exact
            // when the scan runs to completion, conservatively `true`
            // when it breaks early (quota or ports exhausted) — the flag
            // only feeds the stall fast-forward, where an overestimate
            // of readiness merely disables a skip. `rs_used == 0` proves
            // the visible ready set empty: every visible set bit is a
            // renamed, unissued uop, and those are exactly what
            // `rs_used` counts.
            let mut ready_leftover = false;
            'issue: {
                if rs_used == 0 {
                    break 'issue;
                }
                let mut bm = busy_mask;
                while bm != 0 {
                    let p = bm.trailing_zeros() as usize;
                    bm &= bm - 1;
                    if port_free[p] <= cycle {
                        busy_mask &= !(1 << p);
                    }
                }
                let mut avail: u8 = !busy_mask;
                if avail == 0 {
                    ready_leftover = true;
                    break 'issue;
                }
                let frontier = if next_rename < total_insts {
                    imeta[next_rename].first as usize
                } else {
                    uop_limit
                };
                let mut w = 0usize;
                while w * 64 < frontier {
                    // SAFETY: `w * 64 < frontier <= uop_limit`, and
                    // `ready_bits` holds one bit per prepared uop.
                    debug_assert!(w < ready_bits.len());
                    let mut bits = unsafe { *ready_bits.get_unchecked(w) };
                    let rel = frontier - w * 64;
                    if rel < 64 {
                        bits &= (1u64 << rel) - 1;
                    }
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        let slot_bit = 1u64 << b;
                        bits &= !slot_bit;
                        let uid = (w << 6) | b;
                        // SAFETY: `uid < frontier <= uop_limit`;
                        // `prepare_into` sizes `meta` at uop count + 1
                        // (trailing sentinel) and every per-uop column at
                        // the uop count, `completion` was resized to
                        // `uop_limit` above, consumer-list bounds are
                        // monotone prefix sums closing at
                        // `use_pool.len()`, consumer ids index `wake`
                        // (one entry per prepared uop), and `m.owner`
                        // names the uop's owning instruction, which lies
                        // inside the replayed prefix for `uid <
                        // uop_limit`. The differential suite pins this
                        // block bit-for-bit against the bounds-checked
                        // reference pipeline.
                        debug_assert!(
                            uid + 1 < meta.len() && uid < mem_addr.len() && uid < completion.len()
                        );
                        let m = unsafe { *meta.get_unchecked(uid) };
                        let cand = m.ports & avail;
                        if cand == 0 {
                            ready_leftover = true;
                            continue;
                        }
                        // Pick the candidate port with the earliest free
                        // cycle, lowest index on ties: minimize the
                        // precomputed `(free << 3) | port` key over the
                        // candidate bits (uops name 1-4 ports, so this
                        // beats a fixed 8-wide sweep).
                        let mut best_key = u64::MAX;
                        let mut c = cand;
                        while c != 0 {
                            let p = c.trailing_zeros() as usize;
                            c &= c - 1;
                            best_key = best_key.min(port_key[p]);
                        }
                        let port = (best_key & 7) as usize;
                        // Memory access latency adjustments.
                        let mut latency = m.latency;
                        let mut miss_delay = 0u64;
                        if m.mem_width != 0 {
                            let [vaddr, paddr] = unsafe { *mem_addr.get_unchecked(uid) };
                            let write = m.is_store != 0;
                            let hit = l1d.access(vaddr, paddr);
                            if !hit {
                                latency += self.uarch.l1d_miss_penalty;
                                let fill_start = l2_free.max(cycle);
                                miss_delay = fill_start - cycle;
                                l2_free = fill_start + l2_interval;
                                if write {
                                    result.l1d_write_misses += 1;
                                } else {
                                    result.l1d_read_misses += 1;
                                }
                            }
                            if l1d.splits_line(vaddr, m.mem_width) {
                                latency += self.uarch.split_access_penalty;
                                result.misaligned += 1;
                                // The second line is accessed as well.
                                let second = (vaddr / l1d.line_bytes() + 1) * l1d.line_bytes();
                                let poff = second - vaddr;
                                if !l1d.access(second, paddr + poff) {
                                    latency += self.uarch.l1d_miss_penalty;
                                    if write {
                                        result.l1d_write_misses += 1;
                                    } else {
                                        result.l1d_read_misses += 1;
                                    }
                                }
                            }
                        }
                        let done = cycle + miss_delay + u64::from(latency);
                        unsafe {
                            *completion.get_unchecked_mut(uid) = done;
                        }
                        // Wake consumers: resolve this producer in each
                        // consumer's countdown; the last resolution
                        // schedules the consumer on the pending calendar
                        // (its operand-ready cycle is strictly in the
                        // future). Consumers past the replayed prefix
                        // keep their countdown but never enter the
                        // calendar — they can never rename.
                        let use_lo = m.use_start as usize;
                        let use_hi = unsafe { meta.get_unchecked(uid + 1) }.use_start as usize;
                        debug_assert!(use_lo <= use_hi && use_hi <= use_pool.len());
                        for &q in unsafe { use_pool.get_unchecked(use_lo..use_hi) } {
                            debug_assert!((q as usize) < wake.len());
                            let wk = unsafe { wake.get_unchecked_mut(q as usize) };
                            wk.unresolved -= 1;
                            wk.dep_ready = wk.dep_ready.max(done);
                            if wk.unresolved == 0 && (q as usize) < uop_limit {
                                let key = (wk.dep_ready << PEND_SHIFT) | u64::from(q);
                                pend.push(key);
                                min_pend = min_pend.min(key);
                            }
                        }
                        debug_assert!((m.owner as usize) < inst_state.len());
                        let st = unsafe { inst_state.get_unchecked_mut(m.owner as usize) };
                        st.unissued -= 1;
                        st.done_at = st.done_at.max(done);
                        let free = cycle + u64::from(m.blocking);
                        port_free[port] = free;
                        port_key[port] = free << 3 | port as u64;
                        let block_bit = u8::from(m.blocking != 0) << port;
                        busy_mask |= block_bit;
                        avail &= !block_bit;
                        // SAFETY: `w` is the word loaded above.
                        debug_assert!(w < ready_bits.len());
                        unsafe {
                            *ready_bits.get_unchecked_mut(w) &= !slot_bit;
                        }
                        rs_used = rs_used.saturating_sub(1);
                        result.uops += 1;
                        issued_this_cycle += 1;
                        if issued_this_cycle >= issue_quota || avail == 0 {
                            ready_leftover = true;
                            break 'issue;
                        }
                    }
                    w += 1;
                }
            }

            // Rename/allocate (in order, fused-domain width).
            let rename_mark = next_rename;
            let mut slots_left = self.uarch.issue_width;
            let mut rename_quota_stop = false;
            while next_rename < total_insts && slots_left > 0 {
                // SAFETY: `next_rename < total_insts`; `fetch_cycle` and
                // `rename_cycle` were filled to `total_insts` entries in
                // the init above and `imeta` spans the whole preparation.
                debug_assert!(
                    next_rename < fetch_cycle.len()
                        && next_rename < rename_cycle.len()
                        && next_rename < imeta.len()
                );
                if (unsafe { *fetch_cycle.get_unchecked(next_rename) }) > cycle {
                    break;
                }
                let im = unsafe { *imeta.get_unchecked(next_rename) };
                let slots = u32::from(im.slots);
                let uop_count = im.last - im.first;
                if rob_used + slots.max(1) > self.uarch.rob_size
                    || rs_used + uop_count > self.uarch.rs_size
                {
                    break;
                }
                if slots > slots_left {
                    rename_quota_stop = true;
                    break;
                }
                unsafe {
                    *rename_cycle.get_unchecked_mut(next_rename) = cycle;
                }
                rob_used += slots.max(1);
                if im.elim == 0 {
                    rs_used += uop_count;
                }
                slots_left -= slots.min(slots_left);
                next_rename += 1;
            }

            cycle += 1;

            // Stall fast-forward: wake-ups publish `ready_at` at *issue*
            // time (the value is the future completion cycle), so the
            // scan bound `rs_min_ready` already names the earliest cycle
            // at which any RS slot can issue. Together with the retire
            // head's pending completion and the next fetch arrival that
            // pins down the earliest cycle where *any* stage can act:
            //
            //  * retire — in-order, so only the head matters: a pending
            //    completion at `done_at`, or "covered below" when its
            //    uops have not issued (they sit in the RS) or it is not
            //    renamed yet (the rename event). A width-limited retire
            //    or a just-renamed eliminated head can continue next
            //    cycle, which forbids skipping.
            //  * issue — nothing issues before `rs_min_ready`; the bound
            //    is conservative (a stale-low or invalidated bound only
            //    disables the skip, never overshoots). A ready slot that
            //    is merely port-blocked leaves the bound at or below the
            //    current cycle, so port events never need tracking here.
            //  * rename — the head's fetch arrival; width-limited stops
            //    resume next cycle; resource stops (ROB/RS full) resolve
            //    only through a retire or issue, which the other two
            //    events already bound.
            //
            // Every cycle strictly before the earliest event is provably
            // a no-op (no retire, no issue, no rename, and no state any
            // of them reads changes), so jumping straight there is
            // bit-identical to simulating the idle cycles one by one.
            // No event at all means nothing can ever happen again:
            // deadlock, surfaced through the budget check below exactly
            // as the reference discovers it cycle by cycle.
            // Computing the event bound costs a handful of branches, so
            // busy cycles (something issued and more work is queued) skip
            // it: they almost never fast-forward anyway, and the next
            // stall cycle recomputes the bound from scratch.
            let mut fast_forwarded = false;
            if next_retire < total_insts && (issued_this_cycle == 0 || rs_used == 0) {
                let prev = cycle - 1;
                let mut nxt = u64::MAX;
                if retired >= self.uarch.retire_width {
                    nxt = cycle;
                } else if next_retire < next_rename {
                    if imeta[next_retire].elim != 0 {
                        nxt = cycle;
                    } else {
                        let st = inst_state[next_retire];
                        if st.unissued == 0 {
                            nxt = st.done_at.max(cycle);
                        }
                    }
                }
                // Issue side: a surviving visible ready bit means a slot
                // may issue (or is only port-blocked) next cycle — no
                // skip. The scan's flag covers everything visible when it
                // ran; bits whose instructions renamed *afterwards* (this
                // very cycle) were not scanned, so probe that freshly
                // visible uop window directly. Beyond both, the
                // calendar's exact minimum is the earliest cycle any
                // wake-up can land, and hidden-ready uops further out
                // are bounded by the rename event below.
                if ready_leftover {
                    nxt = cycle;
                } else if next_rename > rename_mark {
                    let a = imeta[rename_mark].first as usize;
                    let b = if next_rename < total_insts {
                        imeta[next_rename].first as usize
                    } else {
                        uop_limit
                    };
                    let mut w = a >> 6;
                    while w * 64 < b {
                        let mut bits = ready_bits[w];
                        if w == a >> 6 {
                            bits &= !0u64 << (a & 63);
                        }
                        let rel = b - w * 64;
                        if rel < 64 {
                            bits &= (1u64 << rel) - 1;
                        }
                        if bits != 0 {
                            nxt = cycle;
                            break;
                        }
                        w += 1;
                    }
                }
                nxt = nxt.min((min_pend >> PEND_SHIFT).max(cycle));
                if next_rename < total_insts {
                    if fetch_cycle[next_rename] > prev {
                        nxt = nxt.min(fetch_cycle[next_rename]);
                    } else if rename_quota_stop || slots_left == 0 {
                        nxt = cycle;
                    }
                }
                if nxt == u64::MAX {
                    cycle = max_cycles + 1; // deadlock: nothing can ever happen
                    fast_forwarded = true;
                } else if nxt > cycle {
                    cycle = nxt;
                    fast_forwarded = true;
                }
            }

            // Dead-cycle skip: when a whole cycle passed with no retire,
            // no issue, and no rename, every following cycle is identical
            // until some scheduled event arrives — the next in-flight
            // completion (which drives retirement and wake-ups alike), a
            // port freeing up, or the frontend delivering the next
            // instruction. Jumping straight there is exactly equivalent
            // to simulating the no-op cycles one by one; if no event is
            // pending at all, the schedule is deadlocked and the budget
            // check below turns that into an error immediately.
            if !fast_forwarded
                && retired == 0
                && issued_this_cycle == 0
                && next_rename == rename_mark
            {
                let prev = cycle - 1;
                // In-flight completions all live in the renamed-but-not-
                // retired instruction window (anything older has
                // completed at or before its retire cycle ≤ prev;
                // anything younger has not issued and sits at u64::MAX,
                // which `min_future` ignores).
                let lo = imeta[next_retire].first as usize;
                let hi = if next_rename < total_insts {
                    imeta[next_rename].first as usize
                } else {
                    uop_limit
                };
                let mut next_event = min_future(&completion[lo..hi], prev);
                for &free in port_free.iter() {
                    if free > prev {
                        next_event = next_event.min(free);
                    }
                }
                if next_rename < total_insts && fetch_cycle[next_rename] > prev {
                    next_event = next_event.min(fetch_cycle[next_rename]);
                }
                if next_event == u64::MAX {
                    cycle = max_cycles + 1; // deadlock: nothing can ever happen
                } else if next_event > cycle {
                    cycle = next_event;
                }
            }

            if cycle > max_cycles {
                return Err(NonConvergence {
                    cycle_budget: max_cycles,
                    retired: next_retire,
                    total_insts,
                });
            }
        }
        result.insts = total_insts as u64;
        result.cycles = cycle;
        Ok(result)
    }

    /// Runs the trace through the pipeline by preparing and simulating it
    /// in one call. `l1i`/`l1d` carry cache state across runs. Hot paths
    /// should hold a [`PreparedTrace`]/[`SimScratch`] and call the split
    /// phases instead.
    ///
    /// # Errors
    ///
    /// Returns [`NonConvergence`] if the schedule exhausts its cycle
    /// budget.
    pub fn run(
        &self,
        trace: &[DynInst],
        layout: &CodeLayout,
        l1i: &mut Cache,
        l1d: &mut Cache,
    ) -> Result<TimingResult, NonConvergence> {
        let mut prep = PreparedTrace::default();
        self.prepare_into(&mut prep, trace, layout);
        self.simulate(&prep, l1i, l1d)
    }

    /// The original single-pass implementation, kept verbatim as the
    /// straight-line reference: differential tests pin
    /// `prepare` + `simulate` (including prefix replay) to this path bit
    /// for bit. Not used on hot paths.
    ///
    /// # Errors
    ///
    /// Returns [`NonConvergence`] if the schedule exhausts its cycle
    /// budget; the prepared path fails with a bit-identical error.
    pub fn run_reference(
        &self,
        trace: &[DynInst],
        layout: &CodeLayout,
        l1i: &mut Cache,
        l1d: &mut Cache,
    ) -> Result<TimingResult, NonConvergence> {
        let mut result = TimingResult::default();
        if trace.is_empty() {
            return Ok(result);
        }

        // ---- Pre-pass: frontend fetch cycles through the L1I ----
        let mut fetch_cycle = vec![0u64; trace.len()];
        {
            let mut clock_bytes = 0u64; // 16 fetch bytes per cycle
            let mut stall = 0u64;
            let line = l1i.line_bytes();
            let mut last_line = u64::MAX;
            for (i, dyn_inst) in trace.iter().enumerate() {
                let (addr, len) = layout.addr(dyn_inst.copy, dyn_inst.static_idx);
                let mut probe = addr / line;
                let end_line = (addr + u64::from(len) - 1) / line;
                while probe <= end_line {
                    if probe != last_line {
                        // Instruction fetch is VIPT too; code is identity
                        // mapped for tagging purposes.
                        if !l1i.access(probe * line, probe * line) {
                            stall += u64::from(self.uarch.l1i_miss_penalty);
                            result.l1i_misses += 1;
                        }
                        last_line = probe;
                    }
                    probe += 1;
                }
                clock_bytes += u64::from(len);
                fetch_cycle[i] = clock_bytes / 16 + stall;
            }
        }

        // ---- Pre-pass: build dynamic uops with dependencies ----
        let mut uops: Vec<DynUop> = Vec::with_capacity(trace.len() * 2);
        let mut dep_pool: Vec<u32> = Vec::with_capacity(trace.len() * 2);
        // inst_id -> (first_uop, last_uop+1, frontend_slots, eliminated)
        let mut inst_meta: Vec<(u32, u32, u32, bool)> = Vec::with_capacity(trace.len());
        let mut producers: HashMap<DepKey, u32> = HashMap::new();
        let mut store_chunks: HashMap<u64, u32> = HashMap::new();
        // Scratch, reused across trace instructions.
        let mut addr_regs: Vec<Gpr> = Vec::new();
        let mut reg_deps: Vec<u32> = Vec::new();
        let mut addr_deps: Vec<u32> = Vec::new();

        for dyn_inst in trace.iter() {
            let inst = &self.insts[dyn_inst.static_idx];
            let recipe = &self.recipes[dyn_inst.static_idx];
            let fx = &dyn_inst.effects;
            let first = u32::try_from(uops.len()).expect("uop count exceeds u32 range");
            let mut frontend_slots = recipe.frontend_slots;
            if self.fused_into_prev[dyn_inst.static_idx] {
                frontend_slots = 0;
            }

            if recipe.eliminated {
                // Zero idiom: break dependencies on the destination.
                // Eliminated move: alias destination to source producer.
                if inst.is_zero_idiom() {
                    for reg in inst.gpr_writes() {
                        producers.remove(&DepKey::Gpr(reg.number()));
                    }
                    for vec in inst.vec_writes() {
                        producers.remove(&DepKey::Vec(vec.number()));
                    }
                    // Scalar idioms (`xor r, r`) also set flags at rename:
                    // consumers must not wait on the previous flag writer.
                    if !inst.mnemonic().is_sse() {
                        producers.remove(&DepKey::Flags);
                    }
                } else if let (Some(dst), Some(src)) = (
                    inst.gpr_writes().first().copied(),
                    inst.gpr_reads().first().copied(),
                ) {
                    if let Some(&p) = producers.get(&DepKey::Gpr(src.number())) {
                        producers.insert(DepKey::Gpr(dst.number()), p);
                    } else {
                        producers.remove(&DepKey::Gpr(dst.number()));
                    }
                } else if let (Some(dst), Some(src)) = (
                    inst.vec_writes().first().copied(),
                    inst.vec_reads().first().copied(),
                ) {
                    if let Some(&p) = producers.get(&DepKey::Vec(src.number())) {
                        producers.insert(DepKey::Vec(dst.number()), p);
                    } else {
                        producers.remove(&DepKey::Vec(dst.number()));
                    }
                }
                inst_meta.push((first, first, frontend_slots, true));
                continue;
            }

            // Register/flag dependencies of the whole instruction.
            addr_regs.clear();
            if let Some(m) = inst.mem_operand() {
                addr_regs.extend(m.address_regs());
            }
            reg_deps.clear();
            for reg in inst.gpr_reads() {
                if let Some(&p) = producers.get(&DepKey::Gpr(reg.number())) {
                    reg_deps.push(p);
                }
            }
            for vec in inst.vec_reads() {
                if let Some(&p) = producers.get(&DepKey::Vec(vec.number())) {
                    reg_deps.push(p);
                }
            }
            if crate::exec::flags_read(inst) {
                if let Some(&p) = producers.get(&DepKey::Flags) {
                    reg_deps.push(p);
                }
            }
            addr_deps.clear();
            for reg in &addr_regs {
                if let Some(&p) = producers.get(&DepKey::Gpr(reg.number())) {
                    addr_deps.push(p);
                }
            }

            let mut load_uop: u32 = NO_UOP;
            let mut last_compute: u32 = NO_UOP;
            for uop in &recipe.uops {
                let (latency, blocking) = self.resolve_latency(uop, fx);
                let dep_start = dep_pool.len();
                let deps = &mut dep_pool;
                let mut mem = None;
                match uop.kind {
                    UopKind::Load => {
                        deps.extend_from_slice(&addr_deps);
                        if let Some(access) = fx.load {
                            mem = Some((access.vaddr, access.paddr, access.width));
                            // Store-to-load forwarding dependency.
                            for chunk in chunks(access.vaddr, access.width) {
                                if let Some(&s) = store_chunks.get(&chunk) {
                                    deps.push(s);
                                }
                            }
                        }
                    }
                    UopKind::Compute => {
                        deps.extend_from_slice(&reg_deps);
                        if load_uop != NO_UOP {
                            deps.push(load_uop);
                        }
                        if last_compute != NO_UOP {
                            deps.push(last_compute);
                        }
                    }
                    UopKind::StoreAddr => {
                        deps.extend_from_slice(&addr_deps);
                    }
                    UopKind::StoreData => {
                        if last_compute != NO_UOP {
                            deps.push(last_compute);
                        } else if load_uop != NO_UOP {
                            deps.push(load_uop);
                        } else {
                            deps.extend_from_slice(&reg_deps);
                        }
                        if let Some(access) = fx.store {
                            mem = Some((access.vaddr, access.paddr, access.width));
                        }
                    }
                }
                // Sort + dedup this uop's slice of the pool in place.
                let tail = &mut deps[dep_start..];
                tail.sort_unstable();
                let mut kept = usize::from(!tail.is_empty());
                for i in 1..tail.len() {
                    if tail[i] != tail[kept - 1] {
                        tail[kept] = tail[i];
                        kept += 1;
                    }
                }
                deps.truncate(dep_start + kept);
                let id = uops.len() as u32;
                uops.push(DynUop {
                    ports: uop.ports.mask(),
                    latency,
                    blocking,
                    kind: uop.kind,
                    dep_start: u32::try_from(dep_start).expect("dependency pool exceeds u32 range"),
                    dep_len: u16::try_from(kept).expect("per-uop dependency list exceeds u16"),
                    mem,
                });
                match uop.kind {
                    UopKind::Load => load_uop = id,
                    UopKind::Compute => last_compute = id,
                    _ => {}
                }
            }

            // Record producers for later consumers.
            let result_uop = if last_compute != NO_UOP {
                last_compute
            } else {
                load_uop
            };
            if result_uop != NO_UOP {
                for reg in inst.gpr_writes() {
                    producers.insert(DepKey::Gpr(reg.number()), result_uop);
                }
                for vec in inst.vec_writes() {
                    producers.insert(DepKey::Vec(vec.number()), result_uop);
                }
                if crate::exec::flags_written(inst) {
                    producers.insert(DepKey::Flags, result_uop);
                }
            }
            if let Some(access) = fx.store {
                let std_uop = (uops.len() - 1) as u32;
                for chunk in chunks(access.vaddr, access.width) {
                    store_chunks.insert(chunk, std_uop);
                }
            }
            inst_meta.push((first, uops.len() as u32, frontend_slots, false));
        }

        // ---- Cycle loop ----
        let total_insts = inst_meta.len();
        let mut completion = vec![u64::MAX; uops.len()];
        let mut waiting: Vec<u32> = Vec::new(); // uop ids in RS, age order
        let mut port_free = [0u64; 8];
        // L1-miss handling serializes on the L2 interface (a coarse MSHR /
        // fill-bandwidth model): misses cannot complete back to back.
        let mut l2_free = 0u64;
        let l2_interval = u64::from(self.uarch.l1d_miss_penalty);
        let mut next_rename = 0usize; // inst index
        let mut next_retire = 0usize;
        let mut rob_used = 0u32;
        let mut rs_used = 0u32;
        let mut rename_cycle = vec![0u64; total_insts];
        let mut cycle = 0u64;
        // Safety valve against pathological schedules.
        let max_cycles = 1_000_000u64 + (uops.len() as u64) * 64;

        while next_retire < total_insts {
            // Retire (fused-domain bandwidth).
            let mut retired = 0;
            while next_retire < total_insts && retired < self.uarch.retire_width {
                let (first, last, _slots, eliminated) = inst_meta[next_retire];
                let done = if eliminated {
                    rename_cycle[next_retire] <= cycle && next_retire < next_rename
                } else {
                    next_retire < next_rename
                        && (first..last).all(|u| completion[u as usize] <= cycle)
                };
                if !done {
                    break;
                }
                rob_used = rob_used.saturating_sub(inst_meta[next_retire].2.max(1));
                next_retire += 1;
                retired += 1;
                result.insts += 1;
            }

            // Issue from the RS: oldest first, compacting the RS in
            // place. Once the issue quota is spent, the rest of the RS is
            // kept wholesale without re-testing dependencies.
            let mut kept = 0usize;
            let mut examined = 0usize;
            let mut issued_this_cycle = 0u32;
            while examined < waiting.len() {
                if issued_this_cycle >= self.uarch.issue_width * 2 {
                    break;
                }
                let uid = waiting[examined];
                examined += 1;
                let u = &uops[uid as usize];
                let deps = &dep_pool[u.dep_start as usize..][..usize::from(u.dep_len)];
                let ready = deps.iter().all(|&d| completion[d as usize] <= cycle);
                if !ready {
                    waiting[kept] = uid;
                    kept += 1;
                    continue;
                }
                // Pick the available port with the earliest free cycle.
                let mut best: Option<usize> = None;
                for p in 0..8 {
                    if u.ports & (1 << p) != 0 && port_free[p] <= cycle {
                        best = match best {
                            Some(b) if port_free[b] <= port_free[p] => Some(b),
                            _ => Some(p),
                        };
                    }
                }
                let Some(port) = best else {
                    waiting[kept] = uid;
                    kept += 1;
                    continue;
                };
                // Memory access latency adjustments.
                let mut latency = u.latency;
                let mut miss_delay = 0u64;
                if let Some((vaddr, paddr, width)) = u.mem {
                    let write = u.kind == UopKind::StoreData;
                    let hit = l1d.access(vaddr, paddr);
                    if !hit {
                        latency += self.uarch.l1d_miss_penalty;
                        let fill_start = l2_free.max(cycle);
                        miss_delay = fill_start - cycle;
                        l2_free = fill_start + l2_interval;
                        if write {
                            result.l1d_write_misses += 1;
                        } else {
                            result.l1d_read_misses += 1;
                        }
                    }
                    if l1d.splits_line(vaddr, width) {
                        latency += self.uarch.split_access_penalty;
                        result.misaligned += 1;
                        // The second line is accessed as well.
                        let second = (vaddr / l1d.line_bytes() + 1) * l1d.line_bytes();
                        let poff = second - vaddr;
                        if !l1d.access(second, paddr + poff) {
                            latency += self.uarch.l1d_miss_penalty;
                            if write {
                                result.l1d_write_misses += 1;
                            } else {
                                result.l1d_read_misses += 1;
                            }
                        }
                    }
                }
                completion[uid as usize] = cycle + miss_delay + u64::from(latency);
                port_free[port] = cycle + u64::from(u.blocking);
                rs_used = rs_used.saturating_sub(1);
                result.uops += 1;
                issued_this_cycle += 1;
            }
            waiting.copy_within(examined.., kept);
            waiting.truncate(kept + waiting.len() - examined);

            // Rename/allocate (in order, fused-domain width).
            let mut slots_left = self.uarch.issue_width;
            while next_rename < total_insts && slots_left > 0 {
                let (first, last, slots, eliminated) = inst_meta[next_rename];
                if fetch_cycle[next_rename] > cycle {
                    break;
                }
                let uop_count = last - first;
                if rob_used + slots.max(1) > self.uarch.rob_size
                    || rs_used + uop_count > self.uarch.rs_size
                {
                    break;
                }
                if slots > slots_left {
                    break;
                }
                rename_cycle[next_rename] = cycle;
                rob_used += slots.max(1);
                if !eliminated {
                    for uid in first..last {
                        waiting.push(uid);
                    }
                    rs_used += uop_count;
                }
                slots_left -= slots.min(slots_left);
                next_rename += 1;
            }

            cycle += 1;
            if cycle > max_cycles {
                return Err(NonConvergence {
                    cycle_budget: max_cycles,
                    retired: next_retire,
                    total_insts,
                });
            }
        }

        result.cycles = cycle;
        Ok(result)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use bhive_asm::{parse_block, BasicBlock};
    use bhive_uarch::Uarch;

    /// Builds a synthetic trace with `copies` executions of the block and
    /// default (no-fault, no-load) effects.
    fn trace_for(n_insts: usize, copies: u32) -> Vec<DynInst> {
        let mut out = Vec::new();
        for copy in 0..copies {
            for idx in 0..n_insts {
                out.push(DynInst {
                    static_idx: idx,
                    copy,
                    effects: InstEffects::default(),
                });
            }
        }
        out
    }

    fn time(block_text: &str, copies: u32) -> TimingResult {
        let block = parse_block(block_text).unwrap();
        let uarch = Uarch::haswell();
        let model = TimingModel::new(block.insts(), uarch);
        let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
        let mut l1i = Cache::new(uarch.l1i);
        let mut l1d = Cache::new(uarch.l1d);
        let trace = trace_for(block.len(), copies);
        // Warm-up run, then measured run (the paper's double execution).
        model.run(&trace, &layout, &mut l1i, &mut l1d).unwrap();
        model.run(&trace, &layout, &mut l1i, &mut l1d).unwrap()
    }

    #[test]
    fn independent_adds_reach_alu_throughput() {
        // Four independent adds per iteration: limited by the four ALU
        // ports -> ~1 cycle per iteration of 4 adds.
        let tp = |text: &str| {
            let a = time(text, 100).cycles as f64;
            let b = time(text, 200).cycles as f64;
            (b - a) / 100.0
        };
        let four_adds = "add rax, 1\nadd rbx, 1\nadd rcx, 1\nadd rsi, 1";
        let t = tp(four_adds);
        assert!(
            (0.9..=1.6).contains(&t),
            "4 independent adds: {t} cycles/iter"
        );
    }

    #[test]
    fn dependent_chain_is_latency_bound() {
        // A dependent add chain retires 1 per cycle regardless of width.
        let block = "add rax, 1\nadd rax, 1\nadd rax, 1\nadd rax, 1";
        let a = time(block, 100).cycles as f64;
        let b = time(block, 200).cycles as f64;
        let per_iter = (b - a) / 100.0;
        assert!(
            (3.5..=4.5).contains(&per_iter),
            "chain of 4: {per_iter} cycles/iter"
        );
    }

    #[test]
    fn imul_chain_latency() {
        let block = "imul rax, rbx";
        let a = time(block, 100).cycles as f64;
        let b = time(block, 200).cycles as f64;
        let per_iter = (b - a) / 100.0;
        assert!(
            (2.5..=3.5).contains(&per_iter),
            "imul latency 3: {per_iter}"
        );
    }

    #[test]
    fn zero_idiom_breaks_chains() {
        // xor rax,rax between dependent adds removes the cross-iteration
        // dependency.
        let chained = "add rax, 1\nadd rax, 1\nadd rax, 1\nadd rax, 1";
        let broken = "xor eax, eax\nadd rax, 1\nadd rax, 1\nadd rax, 1";
        let t_chained = time(chained, 200).cycles;
        let t_broken = time(broken, 200).cycles;
        assert!(
            t_broken < t_chained,
            "zero idiom should help: {t_broken} !< {t_chained}"
        );
    }

    #[test]
    fn large_block_overflows_l1i() {
        // ~200 8-byte instructions = 1.6 KiB per copy. At unroll 100 the
        // footprint (160 KiB) blows the 32 KiB L1I.
        let mut text = String::new();
        for i in 0..200 {
            text.push_str(&format!("add rax, {}\n", 0x100 + i));
        }
        let small = time(&text, 4);
        assert_eq!(small.l1i_misses, 0, "4 copies fit after warm-up");
        let big = time(&text, 100);
        assert!(big.l1i_misses > 0, "100 copies must miss in the L1I");
    }

    #[test]
    fn cold_caches_miss_then_warm_hit() {
        let block = parse_block("mov rax, qword ptr [rbx]").unwrap();
        let uarch = Uarch::haswell();
        let model = TimingModel::new(block.insts(), uarch);
        let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
        let mut l1i = Cache::new(uarch.l1i);
        let mut l1d = Cache::new(uarch.l1d);
        let fx = InstEffects {
            load: Some(crate::exec::MemAccess {
                vaddr: 0x9000,
                paddr: 0x3000,
                width: 8,
                write: false,
            }),
            ..InstEffects::default()
        };
        let trace = vec![DynInst {
            static_idx: 0,
            copy: 0,
            effects: fx,
        }];
        let cold = model.run(&trace, &layout, &mut l1i, &mut l1d).unwrap();
        assert_eq!(cold.l1d_read_misses, 1);
        let warm = model.run(&trace, &layout, &mut l1i, &mut l1d).unwrap();
        assert_eq!(warm.l1d_read_misses, 0);
        assert!(warm.cycles < cold.cycles);
    }

    #[test]
    fn misaligned_access_counted_and_slow() {
        let block = parse_block("mov rax, qword ptr [rbx]").unwrap();
        let uarch = Uarch::haswell();
        let model = TimingModel::new(block.insts(), uarch);
        let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
        let mk = |vaddr: u64| {
            let fx = InstEffects {
                load: Some(crate::exec::MemAccess {
                    vaddr,
                    paddr: vaddr % 4096,
                    width: 8,
                    write: false,
                }),
                ..InstEffects::default()
            };
            vec![DynInst {
                static_idx: 0,
                copy: 0,
                effects: fx,
            }]
        };
        let mut l1i = Cache::new(uarch.l1i);
        let mut l1d = Cache::new(uarch.l1d);
        let aligned = model.run(&mk(0x9000), &layout, &mut l1i, &mut l1d).unwrap();
        assert_eq!(aligned.misaligned, 0);
        let split = model.run(&mk(0x903C), &layout, &mut l1i, &mut l1d).unwrap();
        assert_eq!(split.misaligned, 1);
    }

    #[test]
    fn subnormal_multiplies_latency() {
        let block = parse_block("mulps xmm0, xmm1").unwrap();
        let uarch = Uarch::haswell();
        let model = TimingModel::new(block.insts(), uarch);
        let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
        let fast_fx = InstEffects::default();
        let slow_fx = InstEffects {
            subnormal: true,
            ..InstEffects::default()
        };
        let mk = |fx: InstEffects| {
            (0..50)
                .map(|c| DynInst {
                    static_idx: 0,
                    copy: c,
                    effects: fx,
                })
                .collect::<Vec<_>>()
        };
        let mut l1i = Cache::new(uarch.l1i);
        let mut l1d = Cache::new(uarch.l1d);
        let fast = model
            .run(&mk(fast_fx), &layout, &mut l1i, &mut l1d)
            .unwrap();
        let slow = model
            .run(&mk(slow_fx), &layout, &mut l1i, &mut l1d)
            .unwrap();
        assert!(
            slow.cycles > fast.cycles * 5,
            "subnormals must be drastically slower: {} vs {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn macro_fusion_saves_a_slot() {
        let uarch = Uarch::haswell();
        let fused_block = parse_block("cmp rax, rbx\nje -0x10").unwrap();
        let model = TimingModel::new(fused_block.insts(), uarch);
        assert!(model.fused_into_prev[1]);
    }

    #[test]
    fn div_latency_fast_path() {
        // 64-bit divide with rdx=0 is far faster than with rdx!=0.
        let fast = div_latency(UarchKind::Haswell, 8, 10, true);
        let slow = div_latency(UarchKind::Haswell, 8, 10, false);
        assert!(slow > 2 * fast);
        // 32-bit div with tiny quotient is ~20-22 cycles on Haswell
        // (the paper's case study measures 21.62).
        let d32 = div_latency(UarchKind::Haswell, 4, 4, true);
        assert!((20..=24).contains(&d32));
    }

    #[test]
    fn chunk_table_tracks_latest_store() {
        let mut t = ChunkTable::default();
        t.reset();
        assert_eq!(t.get(3), None);
        t.insert(3, 7);
        t.insert(3, 9);
        assert_eq!(t.get(3), Some(9));
        // Force several growths and verify everything survives rehash.
        for i in 0..500u64 {
            t.insert(i * 0x1_0001, i as u32);
        }
        for i in 0..500u64 {
            assert_eq!(t.get(i * 0x1_0001), Some(i as u32));
        }
        t.reset();
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn from_spans_matches_from_block() {
        let block = parse_block("add rax, 1\nmov rbx, qword ptr [rcx]\nxor edx, edx").unwrap();
        let reference = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
        let layout = CodeLayout::from_spans(reference.inst_spans.clone(), 0x40_0000);
        assert_eq!(layout.block_len, reference.block_len);
        assert_eq!(layout.inst_spans, reference.inst_spans);
        assert_eq!(layout.base, reference.base);
    }

    /// Cold then warm on every shipped uarch: the prepared path must
    /// match the reference bit for bit, with cache state carried
    /// identically on both sides.
    fn assert_prepared_matches_reference(block: &BasicBlock, trace: &[DynInst]) {
        for uarch in [Uarch::ivy_bridge(), Uarch::haswell(), Uarch::skylake()] {
            let model = TimingModel::new(block.insts(), uarch);
            let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
            let mut l1i_a = Cache::new(uarch.l1i);
            let mut l1d_a = Cache::new(uarch.l1d);
            let mut l1i_b = Cache::new(uarch.l1i);
            let mut l1d_b = Cache::new(uarch.l1d);
            let prep = model.prepare(trace, &layout);
            let mut scratch = SimScratch::default();
            for pass in ["cold", "warm"] {
                let reference = model.run_reference(trace, &layout, &mut l1i_b, &mut l1d_b);
                let split =
                    model.simulate_with(&prep, trace.len(), &mut l1i_a, &mut l1d_a, &mut scratch);
                assert_eq!(split, reference, "{pass} pass on {:?}", uarch.kind);
            }
        }
    }

    #[test]
    fn prepared_path_matches_reference() {
        // Mixed block: zero idiom, eliminated move, flags, load + store
        // with forwarding, macro-fusable pair.
        let text = "xor eax, eax\n\
                    mov rbx, rcx\n\
                    add rax, rbx\n\
                    mov qword ptr [rsi], rax\n\
                    mov rdx, qword ptr [rsi]\n\
                    cmp rdx, rax\n\
                    je -0x10";
        let block = parse_block(text).unwrap();
        let mut trace = Vec::new();
        for copy in 0..40u32 {
            for (idx, _) in block.insts().iter().enumerate() {
                let access = crate::exec::MemAccess {
                    vaddr: 0x9000 + u64::from(copy) * 8,
                    paddr: 0x1000 + u64::from(copy) * 8 % 4096,
                    width: 8,
                    write: idx == 3,
                };
                let mut fx = InstEffects::default();
                match idx {
                    3 => fx.store = Some(access),
                    4 => fx.load = Some(access),
                    _ => {}
                }
                trace.push(DynInst {
                    static_idx: idx,
                    copy,
                    effects: fx,
                });
            }
        }
        assert_prepared_matches_reference(&block, &trace);

        // Deep wake-up calendar: three independent multiplies issue on
        // back-to-back cycles and each resolves 30 `lea`s at once, so
        // about 90 wake-ups (uop ids on both sides of a 64-bit
        // ready-set word) wait in the calendar together.
        let mut text = String::from("imul rax, rbx\nimul rdx, rbx\nimul rsi, rbx");
        for i in 0..90 {
            let src = ["rax", "rdx", "rsi"][i % 3];
            text.push_str(&format!("\nlea rcx, [{src} + {i}]"));
        }
        let block = parse_block(&text).unwrap();
        assert_prepared_matches_reference(&block, &trace_for(block.len(), 4));
    }

    #[test]
    fn prefix_replay_matches_prefix_preparation() {
        let text = "add rax, 1\nmov rbx, rax\nimul rbx, rcx\nxor edx, edx";
        let block = parse_block(text).unwrap();
        let uarch = Uarch::haswell();
        let model = TimingModel::new(block.insts(), uarch);
        let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
        let full = trace_for(block.len(), 16);
        let prep = model.prepare(&full, &layout);
        let mut scratch = SimScratch::default();
        for copies in [0u32, 1, 4, 16] {
            let n = block.len() * copies as usize;
            let mut l1i_a = Cache::new(uarch.l1i);
            let mut l1d_a = Cache::new(uarch.l1d);
            let mut l1i_b = Cache::new(uarch.l1i);
            let mut l1d_b = Cache::new(uarch.l1d);
            let split = model.simulate_with(&prep, n, &mut l1i_a, &mut l1d_a, &mut scratch);
            let reference = model.run_reference(&full[..n], &layout, &mut l1i_b, &mut l1d_b);
            assert_eq!(split, reference, "prefix of {copies} copies");
        }
    }

    /// A reservation station that can never hold a single uop deadlocks
    /// rename forever. Both paths must report the same hard error — in
    /// debug *and* release — instead of returning a truncated result.
    #[test]
    fn pathological_schedule_is_a_hard_error_on_both_paths() {
        let starved: &'static Uarch = Box::leak(Box::new(Uarch {
            rs_size: 0,
            ..Uarch::haswell().clone()
        }));
        let block = parse_block("add rax, 1\nadd rbx, 1").unwrap();
        let model = TimingModel::new(block.insts(), starved);
        let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
        let trace = trace_for(block.len(), 4);

        let mut l1i = Cache::new(starved.l1i);
        let mut l1d = Cache::new(starved.l1d);
        let reference = model.run_reference(&trace, &layout, &mut l1i, &mut l1d);
        let err = reference.expect_err("reference must fail to converge");
        assert_eq!(err.retired, 0);
        assert_eq!(err.total_insts, trace.len());
        assert!(err.cycle_budget >= 1_000_000);
        assert!(err.to_string().contains("failed to converge"));

        let prep = model.prepare(&trace, &layout);
        let mut scratch = SimScratch::default();
        let mut l1i = Cache::new(starved.l1i);
        let mut l1d = Cache::new(starved.l1d);
        let split = model.simulate_with(&prep, trace.len(), &mut l1i, &mut l1d, &mut scratch);
        assert_eq!(split, reference, "error parity");
    }
}
