//! Prepare: a dynamic trace compiled into its schedule-independent
//! form, the [`PreparedTrace`] the cycle loop replays.

use super::simulate::{InstState, WakeState, PEND_SHIFT};
use super::{
    chunks, split_second_line, CodeLayout, DynInst, Elim, TimingModel, NO_UOP, PRODUCER_SLOTS,
};
use crate::cache::Cache;
use crate::exec::InstEffects;
use bhive_uarch::{Uop, UopKind};

/// Open-addressed map from 8-byte address chunk to the uop id of the
/// latest store covering it (store-to-load forwarding scoreboard).
/// Replaces a `HashMap<u64, u32>`: no hasher state, no rehash-per-lookup,
/// and `reset` keeps the backing storage for the next trace.
#[derive(Debug, Default)]
pub(super) struct ChunkTable {
    keys: Vec<u64>,
    /// `NO_UOP` marks an empty slot (store uop ids are always < `NO_UOP`).
    vals: Vec<u32>,
    len: usize,
}

impl ChunkTable {
    pub(super) fn reset(&mut self) {
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

    pub(super) fn get(&self, chunk: u64) -> Option<u32> {
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

    pub(super) fn insert(&mut self, chunk: u64, uop: u32) {
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct UopMeta {
    /// Resolved result latency in cycles (≥ 1).
    pub(super) latency: u32,
    /// Cycles the chosen port stays busy.
    pub(super) blocking: u32,
    /// Owning dynamic-instruction index.
    pub(super) owner: u32,
    /// Start of the consumer wake-up list in `use_pool`.
    pub(super) use_start: u32,
    /// Candidate execution-port bitmask.
    pub(super) ports: u8,
    /// Memory access width in bytes; 0 = no access.
    pub(super) mem_width: u8,
    /// 1 for store-data uops (their memory access is a write).
    pub(super) is_store: u8,
    pub(super) _pad: u8,
}

/// A trace compiled into its schedule-independent form: the dynamic uop
/// stream with resolved latencies, dependency edges, memory addresses,
/// and the frontend fetch/L1I-probe schedule. Built once per attempt and
/// replayed by [`TimingModel::simulate_with`] for every measured (and
/// any simulated warm-up) run.
///
/// Per uop, the cycle loop reads one packed [`UopMeta`] record and, for
/// memory uops, one `mem_addr` entry; per instruction, one [`InstMeta`].
/// Forward dependency lists (`dep_*` into `dep_pool`) exist to build
/// their transpose (`use_*` into `use_pool`, the consumer wake-up lists
/// the scheduler walks at issue time) and the initial readiness state.
///
/// All contents are *prefix-closed*: because functional execution is
/// deterministic, the preparation of the first `n` dynamic instructions
/// equals the first `n` instructions' worth of the full preparation, so a
/// hi-factor preparation serves the lo-factor run as a prefix.
/// (Dependencies only ever point backwards, so every forward edge out of
/// a prefix lands in the suffix and is simply never consulted.)
#[derive(Debug, Default)]
pub struct PreparedTrace {
    // ---- Per-uop columns, indexed by uop id ----
    /// Producer list start: `dep_pool[dep_start..dep_start + dep_len]`.
    pub(super) dep_start: Vec<u32>,
    /// Producer list length.
    pub(super) dep_len: Vec<u16>,
    /// Memory access `[virtual, physical]` address pair (meaningful iff
    /// the uop's `meta.mem_width != 0`); one array so the issue path
    /// touches one cache line per access, not two.
    pub(super) mem_addr: Vec<[u64; 2]>,
    /// Packed issue-time descriptors, one per uop plus a trailing
    /// sentinel (for `use_start` range ends): the scheduler's issue
    /// block reads one 20-byte record per uop.
    pub(super) meta: Vec<UopMeta>,
    /// Bit per uop id: set iff the uop has no producers, i.e. its
    /// operands are ready from cycle 0. Copied wholesale into the
    /// scheduler's ready set at simulation start.
    pub(super) ready0_mask: Vec<u64>,
    /// Initial wake-up countdowns (`unresolved` = producer count),
    /// memcpy'd into the scratch at simulation start instead of being
    /// rebuilt element by element on every pass.
    pub(super) wake0: Vec<WakeState>,
    /// Initial retire-side state (`unissued` = uop count), memcpy'd the
    /// same way; `simulate_with` copies the replayed prefix only.
    pub(super) inst_state0: Vec<InstState>,
    /// Packed per-instruction rename/retire record (uop span, slots,
    /// elimination flag).
    pub(super) inst_meta: Vec<InstMeta>,
    /// All uop dependency lists, back to back (one allocation instead of
    /// a heap Vec per uop).
    pub(super) dep_pool: Vec<u32>,
    /// Transposed edges: uop `u`'s consumers are
    /// `use_pool[use_start[u]..use_start[u + 1]]`. Length `uops + 1`.
    pub(super) use_start: Vec<u32>,
    /// Consumer uop ids, grouped by producer.
    pub(super) use_pool: Vec<u32>,
    // ---- Per-instruction columns ----
    /// Per-instruction fetch clock before stalls: cumulative bytes / 16.
    pub(super) fetch_base: Vec<u64>,
    /// L1I line probes as `(instruction index, line address)`, in program
    /// order with consecutive duplicates removed.
    pub(super) probes: Vec<(u32, u64)>,
    // Prepare-time scratch, reused across prepares; dead weight to
    // `simulate_with`.
    stores: ChunkTable,
    reg_deps: Vec<u32>,
    addr_deps: Vec<u32>,
    // The copy template steady copies are stamped from (see
    // `TimingModel::prepare_into`), indexed relative to its copy.
    /// Register-side producer lists (no store-forwarding edges) of the
    /// last copy prepared from the scoreboard, back to back.
    tmpl_pool: Vec<u32>,
    /// `tmpl_pool[tmpl_start[j]..tmpl_start[j + 1]]` is the list of the
    /// copy's `j`-th uop.
    tmpl_start: Vec<u32>,
    /// Each uop's record with its static latency, no memory access and
    /// its instruction's index within the copy as `owner`.
    tmpl_meta: Vec<UopMeta>,
    /// Each instruction's record with its uop span relative to the copy.
    pub(super) tmpl_inst: Vec<InstMeta>,
    /// Per instruction: some uop has a memory access or a value-dependent
    /// latency, so it is resolved against each copy's effects.
    tmpl_effects: Vec<bool>,
}

impl PreparedTrace {
    /// Number of prepared dynamic instructions.
    pub fn len(&self) -> usize {
        self.inst_meta.len()
    }

    /// True if nothing is prepared.
    pub fn is_empty(&self) -> bool {
        self.inst_meta.is_empty()
    }

    /// Number of unfused uops in the prepared stream.
    pub fn uop_count(&self) -> usize {
        self.dep_len.len()
    }

    /// Number of unfused uops the first `n_insts` instructions own.
    pub(crate) fn prefix_uops(&self, n_insts: usize) -> usize {
        n_insts
            .checked_sub(1)
            .map_or(0, |last| self.inst_meta[last].last as usize)
    }

    /// Flushes `l1i`/`l1d` and replays the cache traffic of the first
    /// `n_insts` instructions into them in program order: the L1I line
    /// probes, then every memory uop's L1D access (split-line second
    /// halves included, exactly as [`TimingModel::simulate_with`]
    /// issues them). Returns `true` when no fill evicted a valid line.
    ///
    /// A simulated pass over the same prefix makes the same multiset of
    /// line accesses (each memory uop issues exactly once), only in
    /// issue order. Whether a set ever holds more distinct tags than it
    /// has ways does not depend on that order, so when the replay evicts
    /// nothing, a simulated warm-up evicts nothing either and both leave
    /// every touched line resident: the caches then hit on every access
    /// of the measured pass under either warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `n_insts` exceeds the prepared length.
    pub fn warm_by_replay(&self, n_insts: usize, l1i: &mut Cache, l1d: &mut Cache) -> bool {
        assert!(
            n_insts <= self.len(),
            "prefix of {n_insts} insts exceeds prepared trace of {}",
            self.len()
        );
        l1i.flush();
        l1d.flush();
        // Starting flushed, each miss fills an invalid way unless it
        // evicts, so the valid-line count equals the miss count exactly
        // when nothing was evicted.
        let mut l1i_misses = 0usize;
        for &(_, addr) in self.probes.iter().take_while(|p| (p.0 as usize) < n_insts) {
            l1i_misses += usize::from(!l1i.access(addr, addr));
        }
        let mut l1d_misses = 0usize;
        let uops = self.prefix_uops(n_insts);
        for (m, &[vaddr, paddr]) in self.meta[..uops].iter().zip(&self.mem_addr) {
            if m.mem_width == 0 {
                continue;
            }
            l1d_misses += usize::from(!l1d.access(vaddr, paddr));
            if l1d.splits_line(vaddr, m.mem_width) {
                let (second, second_paddr) = split_second_line(l1d, vaddr, paddr);
                l1d_misses += usize::from(!l1d.access(second, second_paddr));
            }
        }
        l1i.valid_lines() == l1i_misses && l1d.valid_lines() == l1d_misses
    }
}

/// A uop's record before any instruction effects apply: its static
/// latency and no memory access.
fn static_meta(uop: &Uop, owner: u32) -> UopMeta {
    UopMeta {
        latency: uop.latency,
        blocking: uop.blocking,
        owner,
        use_start: 0, // filled by `PreparedTrace::finish`
        ports: uop.ports.mask(),
        mem_width: 0,
        is_store: u8::from(uop.kind == UopKind::StoreData),
        _pad: 0,
    }
}

/// Sorts and dedups `pool[start..]` in place, truncating the pool to
/// the kept entries.
fn sort_dedup_tail(pool: &mut Vec<u32>, start: usize) {
    let tail = &mut pool[start..];
    tail.sort_unstable();
    let mut kept = usize::from(!tail.is_empty());
    for i in 1..tail.len() {
        if tail[i] != tail[kept - 1] {
            tail[kept] = tail[i];
            kept += 1;
        }
    }
    pool.truncate(start + kept);
}

/// Prepare-time construction (see [`TimingModel::prepare_into`]).
impl PreparedTrace {
    /// Empties every column, keeping the allocations.
    fn clear(&mut self) {
        self.dep_start.clear();
        self.dep_len.clear();
        self.mem_addr.clear();
        self.meta.clear();
        self.ready0_mask.clear();
        self.wake0.clear();
        self.inst_state0.clear();
        self.inst_meta.clear();
        self.dep_pool.clear();
        self.fetch_base.clear();
        self.probes.clear();
        self.stores.reset();
        self.tmpl_pool.clear();
        self.tmpl_start.clear();
        self.tmpl_meta.clear();
        self.tmpl_inst.clear();
        self.tmpl_effects.clear();
    }

    /// The id the next pushed uop receives.
    fn next_uop(&self) -> u32 {
        u32::try_from(self.meta.len()).expect("uop count exceeds u32 range")
    }

    /// Appends a uop of dynamic instruction `owner` as the template has
    /// it: static latency, no memory access. Its producer list is
    /// `dep_pool[pool_start..]`, sorted and deduped. Returns its id.
    fn push_static_uop(&mut self, uop: &Uop, owner: u32, pool_start: usize) -> u32 {
        let id = self.next_uop();
        self.dep_start
            .push(u32::try_from(pool_start).expect("dependency pool exceeds u32 range"));
        self.dep_len.push(
            u16::try_from(self.dep_pool.len() - pool_start)
                .expect("per-uop dependency list exceeds u16"),
        );
        self.mem_addr.push([0, 0]);
        self.meta.push(static_meta(uop, owner));
        id
    }

    /// Applies an instruction's effects to its uop `u`: the memory
    /// access, a load's store-to-load forwarding edges, and the resolved
    /// latency. A forwarding load's merged list replaces its list in
    /// place when that list ends the pool, and is appended otherwise
    /// (leaving the old list unreferenced).
    fn resolve_uop(&mut self, model: &TimingModel<'_>, u: usize, uop: &Uop, fx: &InstEffects) {
        let access = match uop.kind {
            UopKind::Load => fx.load,
            UopKind::StoreData => fx.store,
            UopKind::Compute | UopKind::StoreAddr => None,
        };
        if let Some(access) = access {
            self.mem_addr[u] = [access.vaddr, access.paddr];
            self.meta[u].mem_width = access.width;
        }
        if let (UopKind::Load, Some(access)) = (uop.kind, access) {
            let old = self.dep_start[u] as usize;
            let old_end = old + usize::from(self.dep_len[u]);
            let mut merged = None;
            for chunk in chunks(access.vaddr, access.width) {
                if let Some(store) = self.stores.get(chunk) {
                    let pool = &mut self.dep_pool;
                    merged.get_or_insert_with(|| {
                        if old_end == pool.len() {
                            old
                        } else {
                            pool.extend_from_within(old..old_end);
                            pool.len() - (old_end - old)
                        }
                    });
                    pool.push(store);
                }
            }
            if let Some(start) = merged {
                sort_dedup_tail(&mut self.dep_pool, start);
                self.dep_start[u] =
                    u32::try_from(start).expect("dependency pool exceeds u32 range");
                self.dep_len[u] = u16::try_from(self.dep_pool.len() - start)
                    .expect("per-uop dependency list exceeds u16");
            }
        }
        let (latency, blocking) = model.resolve_latency(uop, fx);
        // The scheduler computes one readiness batch per cycle; that is
        // exact only because a uop issued at cycle `c` can never complete
        // before `c + 1`.
        debug_assert!(latency > 0, "zero-latency uop breaks readiness batching");
        let m = &mut self.meta[u];
        m.latency = latency;
        m.blocking = blocking;
    }

    /// Records a store's chunks for later loads' forwarding edges. The
    /// store data is its instruction's last uop, the one before
    /// `end_uop`.
    fn record_store(&mut self, fx: &InstEffects, end_uop: u32) {
        if let Some(access) = fx.store {
            let std_uop = end_uop - 1;
            for chunk in chunks(access.vaddr, access.width) {
                self.stores.insert(chunk, std_uop);
            }
        }
    }

    /// Prepares one dynamic instruction from the register producer
    /// scoreboard. With `record`, also appends each uop's register-side
    /// producer list to the stamping template.
    fn push_generic(
        &mut self,
        model: &TimingModel<'_>,
        producers: &mut [u32; PRODUCER_SLOTS],
        inst_idx: usize,
        dyn_inst: &DynInst,
        record: bool,
    ) {
        let owner = u32::try_from(inst_idx).expect("trace length exceeds u32 range");
        let st = &model.statics[dyn_inst.static_idx];
        let fx = &dyn_inst.effects;
        let first = self.next_uop();
        let slots = model.frontend_slots(dyn_inst.static_idx);

        if st.eliminated() {
            match st.elim {
                // Zero idiom: break dependencies on the destination.
                Elim::Zero => {
                    for &slot in st.slots.iter() {
                        producers[slot as usize] = NO_UOP;
                    }
                }
                // Eliminated move: alias destination to source producer
                // (NO_UOP propagates "no producer").
                Elim::Move { dst, src } => {
                    producers[dst as usize] = producers[src as usize];
                }
                Elim::Inert | Elim::None => {}
            }
            self.inst_meta.push(InstMeta {
                first,
                last: first,
                slots,
                elim: 1,
            });
            return;
        }

        // Register/flag dependencies of the whole instruction.
        self.reg_deps.clear();
        for &slot in st.reads() {
            let p = producers[slot as usize];
            if p != NO_UOP {
                self.reg_deps.push(p);
            }
        }
        self.addr_deps.clear();
        for &slot in st.addr_reads() {
            let p = producers[slot as usize];
            if p != NO_UOP {
                self.addr_deps.push(p);
            }
        }

        let mut load_uop: u32 = NO_UOP;
        let mut last_compute: u32 = NO_UOP;
        for uop in st.uops.iter() {
            let pool_start = self.dep_pool.len();
            let deps = &mut self.dep_pool;
            match uop.kind {
                UopKind::Load | UopKind::StoreAddr => deps.extend_from_slice(&self.addr_deps),
                UopKind::Compute => {
                    deps.extend_from_slice(&self.reg_deps);
                    if load_uop != NO_UOP {
                        deps.push(load_uop);
                    }
                    if last_compute != NO_UOP {
                        deps.push(last_compute);
                    }
                }
                UopKind::StoreData => {
                    if last_compute != NO_UOP {
                        deps.push(last_compute);
                    } else if load_uop != NO_UOP {
                        deps.push(load_uop);
                    } else {
                        deps.extend_from_slice(&self.reg_deps);
                    }
                }
            }
            sort_dedup_tail(deps, pool_start);
            if record {
                let at =
                    u32::try_from(self.tmpl_pool.len()).expect("dependency pool exceeds u32 range");
                self.tmpl_start.push(at);
                self.tmpl_pool
                    .extend_from_slice(&self.dep_pool[pool_start..]);
            }
            let id = self.push_static_uop(uop, owner, pool_start);
            self.resolve_uop(model, id as usize, uop, fx);
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
            for &slot in st.writes() {
                producers[slot as usize] = result_uop;
            }
        }
        self.record_store(fx, self.next_uop());
        self.inst_meta.push(InstMeta {
            first,
            last: self.next_uop(),
            slots,
            elim: 0,
        });
    }

    /// Completes the copy template from the copy just prepared from the
    /// scoreboard (whose register-side lists `tmpl_pool` holds): every
    /// uop's and instruction's record as it is before the effects of any
    /// particular copy are applied.
    fn build_template(&mut self, model: &TimingModel<'_>) {
        self.tmpl_start
            .push(u32::try_from(self.tmpl_pool.len()).expect("dependency pool exceeds u32 range"));
        let mut first = 0u32;
        for (k, st) in model.statics.iter().enumerate() {
            let owner = u32::try_from(k).expect("block length exceeds u32 range");
            let slots = model.frontend_slots(k);
            let mut effects = false;
            for uop in st.uops.iter() {
                effects |= uop.kind == UopKind::Load
                    || uop.kind == UopKind::StoreData
                    || uop.var_lat.is_some();
                self.tmpl_meta.push(static_meta(uop, owner));
            }
            let last = first + u32::try_from(st.uops.len()).expect("uop count exceeds u32 range");
            self.tmpl_inst.push(InstMeta {
                first,
                last,
                slots,
                elim: u16::from(st.eliminated()),
            });
            self.tmpl_effects.push(effects);
            first = last;
        }
    }

    /// Prepares one whole copy of the block (`insts[k]` is static
    /// instruction `k`, dynamic instruction `inst_base + k`) from the
    /// template: its records and register-side producer lists, each
    /// producer plus `shift`, are appended wholesale, and then the uops of
    /// instructions with memory accesses, value-dependent latencies or
    /// subnormal inputs are resolved against this copy's effects. Valid
    /// once the scoreboard has repeated (see [`TimingModel::prepare_into`]).
    ///
    /// A load that forwards from a store gets a new producer list, the
    /// template's merged with the forwarding edges, at the end of
    /// `dep_pool`; its stamped list is left unreferenced.
    fn stamp_copy(
        &mut self,
        model: &TimingModel<'_>,
        insts: &[DynInst],
        inst_base: usize,
        shift: u32,
    ) {
        let first_uop = self.next_uop();
        let owner_base = u32::try_from(inst_base).expect("trace length exceeds u32 range");
        let pool_base =
            u32::try_from(self.dep_pool.len()).expect("dependency pool exceeds u32 range");
        // The trace's last copy may be partial.
        let n_uops = insts
            .len()
            .checked_sub(1)
            .map_or(0, |last| self.tmpl_inst[last].last as usize);
        let starts = &self.tmpl_start[..=n_uops];
        self.meta
            .extend(self.tmpl_meta[..n_uops].iter().map(|m| UopMeta {
                owner: m.owner + owner_base,
                ..*m
            }));
        self.mem_addr.resize(self.mem_addr.len() + n_uops, [0, 0]);
        self.dep_start
            .extend(starts[..n_uops].iter().map(|&s| s + pool_base));
        self.dep_len
            .extend(starts.windows(2).map(|w| (w[1] - w[0]) as u16));
        self.dep_pool.extend(
            self.tmpl_pool[..starts[n_uops] as usize]
                .iter()
                .map(|&p| p + shift),
        );
        self.inst_meta
            .extend(self.tmpl_inst[..insts.len()].iter().map(|im| InstMeta {
                first: im.first + first_uop,
                last: im.last + first_uop,
                ..*im
            }));
        for (k, dyn_inst) in insts.iter().enumerate() {
            let fx = &dyn_inst.effects;
            if self.tmpl_effects[k] || fx.subnormal {
                let first = (first_uop + self.tmpl_inst[k].first) as usize;
                for (u, uop) in (first..).zip(model.statics[k].uops.iter()) {
                    self.resolve_uop(model, u, uop, fx);
                }
            }
            self.record_store(fx, first_uop + self.tmpl_inst[k].last);
        }
    }

    /// Closes a preparation: transposes the dependency edges into the
    /// consumer wake-up lists and derives the initial readiness state.
    fn finish(&mut self) {
        // Counting sort over every uop's deduped producer list (stamped
        // copies may leave unreferenced lists in `dep_pool`): count each
        // producer's consumers, take inclusive prefix sums (each list's
        // end), then place consumers walking the uops downwards. Each
        // list comes out in ascending consumer order, and a producer's
        // start is final once the walk reaches it, because all of its
        // consumers have larger ids.
        let n_uops = self.meta.len();
        assert!(
            n_uops < (1 << PEND_SHIFT),
            "prepared trace of {n_uops} uops exceeds the pending-calendar id space"
        );
        let use_start = &mut self.use_start;
        use_start.clear();
        use_start.resize(n_uops + 1, 0);
        for (&s, &len) in self.dep_start.iter().zip(&self.dep_len) {
            for &d in &self.dep_pool[s as usize..][..usize::from(len)] {
                use_start[d as usize] += 1;
            }
        }
        let mut end = 0u32;
        for count in use_start.iter_mut() {
            end += *count;
            *count = end;
        }
        self.use_pool.clear();
        self.use_pool.resize(end as usize, 0);
        for q in (0..n_uops).rev() {
            self.meta[q].use_start = use_start[q];
            let s = self.dep_start[q] as usize;
            for &d in &self.dep_pool[s..][..usize::from(self.dep_len[q])] {
                use_start[d as usize] -= 1;
                self.use_pool[use_start[d as usize] as usize] = q as u32;
            }
        }
        // Close the consumer lists with the sentinel record.
        self.meta.push(UopMeta {
            use_start: use_start[n_uops],
            ..UopMeta::default()
        });
        self.ready0_mask.resize(n_uops.div_ceil(64), 0);
        for (id, &len) in self.dep_len.iter().enumerate() {
            self.ready0_mask[id >> 6] |= u64::from(len == 0) << (id & 63);
        }
        self.wake0.extend(self.dep_len.iter().map(|&d| WakeState {
            dep_ready: 0,
            unresolved: u32::from(d),
            _pad: 0,
        }));
        self.inst_state0
            .extend(self.inst_meta.iter().map(|im| InstState {
                done_at: 0,
                unissued: im.last - im.first,
                _pad: 0,
            }));
    }
}

/// Frontend-facing columns of one dynamic instruction, packed so the
/// rename and retire loops load a single 12-byte record instead of
/// striding over four parallel arrays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct InstMeta {
    /// First uop id.
    pub(super) first: u32,
    /// One past the last uop id.
    pub(super) last: u32,
    /// Fused-domain rename/retire slots.
    pub(super) slots: u16,
    /// Non-zero when eliminated at rename (no uops).
    pub(super) elim: u16,
}

impl TimingModel<'_> {
    /// Compiles `trace` into `prep`, reusing `prep`'s allocations. The
    /// prepared stream is valid for any [`TimingModel::simulate_with`]
    /// replay over caches with this model's uarch geometry.
    ///
    /// When `trace` is whole copies of the block in program order (the
    /// monitor's traces always are), copies are prepared one by one until
    /// the register producer scoreboard repeats, shifted by one copy's
    /// uop count U. The register side of dependency tracking is
    /// shift-equivariant, so from then on every copy's register and flag
    /// dependencies are the previous copy's plus U and are stamped from a
    /// template; only what depends on the copy's effects is computed per
    /// copy: memory addresses, store-to-load forwarding edges and
    /// value-dependent latencies. The result is identical to preparing
    /// every copy from scratch (pinned by the column-for-column test).
    pub fn prepare_into(&self, prep: &mut PreparedTrace, trace: &[DynInst], layout: &CodeLayout) {
        self.prepare_impl::<true>(prep, trace, layout);
    }

    /// [`TimingModel::prepare_into`] without stamping: every copy is
    /// prepared from the producer scoreboard. The oracle the stamped
    /// preparation is tested against.
    #[cfg(test)]
    pub(super) fn prepare_generic_into(
        &self,
        prep: &mut PreparedTrace,
        trace: &[DynInst],
        layout: &CodeLayout,
    ) {
        self.prepare_impl::<false>(prep, trace, layout);
    }

    fn prepare_impl<const STAMP: bool>(
        &self,
        prep: &mut PreparedTrace,
        trace: &[DynInst],
        layout: &CodeLayout,
    ) {
        prep.clear();
        prep.meta.reserve(trace.len() + 1);
        prep.inst_meta.reserve(trace.len());
        prep.fetch_base.reserve(trace.len());

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
                        prep.probes.push((i32, probe * line));
                        last_line = probe;
                    }
                    probe += 1;
                }
                clock_bytes += u64::from(len);
                prep.fetch_base.push(clock_bytes / 16);
            }
        }

        // ---- Dynamic uops with dependencies ----
        let n_static = self.statics.len();
        let stampable = STAMP
            && n_static > 0
            && trace
                .iter()
                .zip((0..n_static).cycle())
                .all(|(d, idx)| d.static_idx == idx);
        let copy_len = if stampable {
            n_static
        } else {
            trace.len().max(1)
        };
        let mut producers = [NO_UOP; PRODUCER_SLOTS];
        // `(template copy, uops per copy)` once the scoreboard repeats.
        let mut template: Option<(usize, u32)> = None;
        for (copy, insts) in trace.chunks(copy_len).enumerate() {
            let inst_base = copy * copy_len;
            if let Some((tmpl_copy, per_copy)) = template {
                let shift = u32::try_from(copy - tmpl_copy).expect("copy count exceeds u32 range")
                    * per_copy;
                prep.stamp_copy(self, insts, inst_base, shift);
                continue;
            }
            let start = producers;
            let first_uop = prep.meta.len();
            if stampable {
                prep.tmpl_pool.clear();
                prep.tmpl_start.clear();
            }
            for (k, dyn_inst) in insts.iter().enumerate() {
                prep.push_generic(self, &mut producers, inst_base + k, dyn_inst, stampable);
            }
            if stampable && insts.len() == n_static {
                let per_copy = u32::try_from(prep.meta.len() - first_uop)
                    .expect("uop count exceeds u32 range");
                let shifted = start.map(|p| if p == NO_UOP { NO_UOP } else { p + per_copy });
                if producers == shifted {
                    prep.build_template(self);
                    template = Some((copy, per_copy));
                }
            }
        }
        prep.finish();
    }

    /// Convenience wrapper: prepares `trace` into a fresh [`PreparedTrace`].
    pub fn prepare(&self, trace: &[DynInst], layout: &CodeLayout) -> PreparedTrace {
        let mut prep = PreparedTrace::default();
        self.prepare_into(&mut prep, trace, layout);
        prep
    }
}
