//! The original single-pass timing pipeline, kept as the reference the
//! prepared path is tested against.

use super::{
    chunks, cycle_budget, CodeLayout, DynInst, NonConvergence, TimingModel, TimingResult, NO_UOP,
};
use crate::cache::Cache;
use bhive_asm::Gpr;
use bhive_uarch::UopKind;
use std::collections::HashMap;

/// Dependency-tracking key (reference path only; the prepared path uses
/// the flat producer scoreboard below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum DepKey {
    Gpr(u8),
    Vec(u8),
    Flags,
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

impl TimingModel<'_> {
    /// The original single-pass implementation, kept verbatim as the
    /// straight-line reference: differential tests pin
    /// `prepare` + `simulate` (including prefix replay) to this path bit
    /// for bit. Compiled only for tests.
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
            let st = &self.statics[dyn_inst.static_idx];
            let fx = &dyn_inst.effects;
            let first = u32::try_from(uops.len()).expect("uop count exceeds u32 range");
            let mut frontend_slots = st.frontend_slots;
            if self.fused_into_prev[dyn_inst.static_idx] {
                frontend_slots = 0;
            }

            if st.eliminated() {
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
            for uop in st.uops.iter() {
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
        let max_cycles = cycle_budget(uops.len());

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
