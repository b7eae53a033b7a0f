//! Simulate: the cycle loop that replays a [`PreparedTrace`] against
//! concrete cache state.

use super::prepare::PreparedTrace;
use super::{
    cycle_budget, split_second_line, CodeLayout, DynInst, NonConvergence, TimingModel, TimingResult,
};
use crate::cache::Cache;

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
pub(super) const PEND_SHIFT: u32 = 24;

/// Wake-up countdown for one uop: the consumer side of the scoreboard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct WakeState {
    /// Running max of resolved producers' completion cycles.
    pub(super) dep_ready: u64,
    /// Producers not yet issued.
    pub(super) unresolved: u32,
    pub(super) _pad: u32,
}

/// Retire-side state of one dynamic instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct InstState {
    /// Max completion cycle among issued uops.
    pub(super) done_at: u64,
    /// Uops not yet issued.
    pub(super) unissued: u32,
    pub(super) _pad: u32,
}

impl TimingModel<'_> {
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
    /// warms them first, like the paper's double execution; see
    /// [`PreparedTrace::warm_by_replay`]); `scratch` is caller-owned so
    /// repeated runs allocate nothing.
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
        let uop_limit = prep.prefix_uops(n_insts);
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
        let max_cycles = cycle_budget(uop_limit);
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
                // Start at the retire head's word: every older uop
                // belongs to a retired instruction, so it has issued,
                // and issue cleared its ready bit. The skipped words are
                // all zero, and the scan stays bounded by the in-flight
                // window instead of growing with the trace.
                let mut w = imeta[next_retire].first as usize >> 6;
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
                                let (second, second_paddr) = split_second_line(l1d, vaddr, paddr);
                                if !l1d.access(second, second_paddr) {
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
                } else if nxt > cycle {
                    cycle = nxt;
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
}
