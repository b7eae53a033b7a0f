//! The static out-of-order port scheduler shared by the IACA-like and
//! llvm-mca-like models.
//!
//! Unlike the ground-truth machine in `bhive-sim`, a static analyzer has
//! no operand values: loads always cost the L1 latency, division costs a
//! fixed table value, memory never aliases, and there are no caches or
//! measurement noise. Those assumptions are exactly the modeling gaps the
//! paper quantifies.
//!
//! The core is flat: register facts are resolved once per static
//! instruction, producers live in a fixed array indexed by register
//! slot, and every dynamic uop's dependencies sit in one shared pool,
//! reversed into consumer lists. The cycle loop never rescans a waiting
//! uop: a dispatch wakes its consumers, which wait for their operands in
//! a heap and for a port in a ready list. [`simulate`] runs it once;
//! [`Run::throughput`] is all a prediction reads, and only
//! [`Run::schedule`] assembles a [`Schedule`].

use crate::schedule::{Schedule, ScheduledUop};
use bhive_asm::BasicBlock;
use bhive_uarch::{macro_fuses, Recipe, Uarch, UopKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Producer slots: the sixteen GPRs, then the sixteen vector registers,
/// then RFLAGS.
const VEC_SLOT: u8 = 16;
const FLAGS_SLOT: u8 = 32;
const SLOTS: usize = 33;

const NO_UOP: u32 = u32::MAX;

/// What renaming does with one static instruction.
enum Rename {
    /// Executes its recipe's uops.
    Execute,
    /// Zero idiom: its `writes` slots lose their producers.
    Zero,
    /// Eliminated move: `dst` takes `src`'s producer.
    Alias { dst: u8, src: u8 },
    /// Eliminated with nothing to rename (`nop`).
    Nothing,
}

/// Register facts of one static instruction, resolved once per block.
/// The ranges index the shared slot pool.
struct StaticInst {
    rename: Rename,
    /// Fused-domain slots (0 for a macro-fused branch).
    slots: u32,
    addr: Range<u32>,
    reads: Range<u32>,
    writes: Range<u32>,
}

/// One dynamic uop; `deps` indexes the shared dependency pool.
struct DynUop {
    ports: u8,
    latency: u32,
    blocking: u32,
    deps: Range<u32>,
}

/// One dynamic instruction: its uops `first..last`.
#[derive(Clone, Copy)]
struct DynInst {
    first: u32,
    last: u32,
    slots: u32,
    eliminated: bool,
}

/// The outcome of scheduling a block in a loop.
pub(crate) struct Run {
    n_insts: usize,
    warmup: u32,
    window: u32,
    insts: Vec<DynInst>,
    start: Vec<u64>,
    completion: Vec<u64>,
    port: Vec<u8>,
    rename_cycle: Vec<u64>,
    retire_cycle: Vec<u64>,
}

/// Resolves each instruction's register slots and rename behaviour, with
/// the slot lists packed into one pool.
///
/// This dependency tracking intentionally mirrors the one in
/// `bhive-sim::timing` rather than sharing code with it: the static
/// analyzers are a deliberately independent twin of the hardware (same
/// pipeline skeleton, different and imperfect inputs), and models must
/// not depend on the simulator crate. Flag semantics, however, are
/// instruction facts and come from `bhive-asm`.
fn static_insts(
    block: &BasicBlock,
    recipes: &[Recipe],
    uarch: &Uarch,
) -> (Vec<StaticInst>, Vec<u8>) {
    let insts = block.insts();
    let mut pool: Vec<u8> = Vec::new();
    fn range(pool: &mut Vec<u8>, slots: impl Iterator<Item = u8>) -> Range<u32> {
        let begin = pool.len() as u32;
        pool.extend(slots);
        begin..pool.len() as u32
    }
    let mut out = Vec::with_capacity(insts.len());
    for (idx, inst) in insts.iter().enumerate() {
        let recipe = &recipes[idx];
        // Macro-fusion: a fused branch consumes no extra slot.
        let fused = idx > 0 && macro_fuses(&insts[idx - 1], inst, uarch);
        let slots = if fused { 0 } else { recipe.frontend_slots };
        let gpr_writes = inst.gpr_writes();
        let vec_writes = inst.vec_writes();
        let write_slots = gpr_writes
            .iter()
            .map(|r| r.number())
            .chain(vec_writes.iter().map(|v| VEC_SLOT + v.number()));
        let empty = pool.len() as u32..pool.len() as u32;
        let static_inst = if !recipe.eliminated {
            let addr = match inst.mem_operand() {
                Some(m) => range(&mut pool, m.address_regs().map(|r| r.number())),
                None => empty,
            };
            let reads = range(
                &mut pool,
                inst.gpr_reads()
                    .iter()
                    .map(|r| r.number())
                    .chain(inst.vec_reads().iter().map(|v| VEC_SLOT + v.number()))
                    .chain(inst.reads_flags().then_some(FLAGS_SLOT)),
            );
            let writes = range(
                &mut pool,
                write_slots.chain(inst.writes_flags().then_some(FLAGS_SLOT)),
            );
            StaticInst {
                rename: Rename::Execute,
                slots,
                addr,
                reads,
                writes,
            }
        } else if inst.is_zero_idiom() {
            // Scalar idioms (`xor r, r`) also set flags at rename:
            // consumers must not wait on the previous flag writer.
            let flags = (!inst.mnemonic().is_sse()).then_some(FLAGS_SLOT);
            let writes = range(&mut pool, write_slots.chain(flags));
            StaticInst {
                rename: Rename::Zero,
                slots,
                addr: empty.clone(),
                reads: empty,
                writes,
            }
        } else {
            // Eliminated move: alias the destination to the source.
            let gpr_alias = gpr_writes
                .first()
                .zip(inst.gpr_reads().first())
                .map(|(dst, src)| (dst.number(), src.number()));
            let alias = gpr_alias.or_else(|| {
                vec_writes
                    .first()
                    .zip(inst.vec_reads().first())
                    .map(|(dst, src)| (VEC_SLOT + dst.number(), VEC_SLOT + src.number()))
            });
            StaticInst {
                rename: match alias {
                    Some((dst, src)) => Rename::Alias { dst, src },
                    None => Rename::Nothing,
                },
                slots,
                addr: empty.clone(),
                reads: empty.clone(),
                writes: empty,
            }
        };
        out.push(static_inst);
    }
    (out, pool)
}

/// Schedules the block in a loop: a warm-up window, then two measured
/// windows.
///
/// `recipes` must be parallel to `block.insts()` — each model supplies
/// its own (possibly perturbed or structurally wrong) recipes.
pub(crate) fn simulate(block: &BasicBlock, recipes: &[Recipe], uarch: &Uarch) -> Run {
    let n_insts = block.len().max(1);
    let window = (2048 / n_insts).clamp(4, 24) as u32;
    let warmup = window / 2 + 2;
    let total_iters = warmup + 2 * window;
    let (statics, slot_pool) = static_insts(block, recipes, uarch);
    let slots = |r: &Range<u32>| &slot_pool[r.start as usize..r.end as usize];

    // ---- Build the dynamic uop stream with register dependencies ----
    let uops_per_iter: usize = recipes.iter().map(|r| r.uops.len()).sum();
    let mut uops: Vec<DynUop> = Vec::with_capacity(total_iters as usize * uops_per_iter);
    let mut dep_pool: Vec<u32> = Vec::new();
    let mut insts: Vec<DynInst> = Vec::with_capacity(total_iters as usize * block.len());
    let mut producers = [NO_UOP; SLOTS];
    // The current instruction's address and register producers.
    let mut addr_deps: Vec<u32> = Vec::new();
    let mut reg_deps: Vec<u32> = Vec::new();

    for _ in 0..total_iters {
        for (stat, recipe) in statics.iter().zip(recipes) {
            let first = uops.len() as u32;
            match stat.rename {
                Rename::Execute => {}
                Rename::Zero => {
                    for &slot in slots(&stat.writes) {
                        producers[usize::from(slot)] = NO_UOP;
                    }
                }
                Rename::Alias { dst, src } => {
                    producers[usize::from(dst)] = producers[usize::from(src)];
                }
                Rename::Nothing => {}
            }
            if !matches!(stat.rename, Rename::Execute) {
                insts.push(DynInst {
                    first,
                    last: first,
                    slots: stat.slots,
                    eliminated: true,
                });
                continue;
            }

            let producer_of =
                |slot: &u8| Some(producers[usize::from(*slot)]).filter(|&p| p != NO_UOP);
            addr_deps.clear();
            addr_deps.extend(slots(&stat.addr).iter().filter_map(producer_of));
            reg_deps.clear();
            reg_deps.extend(slots(&stat.reads).iter().filter_map(producer_of));

            let mut load_uop = NO_UOP;
            let mut last_compute = NO_UOP;
            for uop in &recipe.uops {
                let begin = dep_pool.len();
                match uop.kind {
                    UopKind::Load | UopKind::StoreAddr => dep_pool.extend_from_slice(&addr_deps),
                    UopKind::Compute => {
                        dep_pool.extend_from_slice(&reg_deps);
                        dep_pool.extend(
                            [load_uop, last_compute]
                                .into_iter()
                                .filter(|&u| u != NO_UOP),
                        );
                    }
                    UopKind::StoreData => {
                        if last_compute != NO_UOP {
                            dep_pool.push(last_compute);
                        } else if load_uop != NO_UOP {
                            dep_pool.push(load_uop);
                        } else {
                            dep_pool.extend_from_slice(&reg_deps);
                        }
                    }
                }
                let id = uops.len() as u32;
                uops.push(DynUop {
                    ports: uop.ports.mask(),
                    latency: uop.latency,
                    blocking: uop.blocking,
                    deps: begin as u32..dep_pool.len() as u32,
                });
                match uop.kind {
                    UopKind::Load => load_uop = id,
                    UopKind::Compute => last_compute = id,
                    _ => {}
                }
            }

            let result_uop = if last_compute != NO_UOP {
                last_compute
            } else {
                load_uop
            };
            if result_uop != NO_UOP {
                for &slot in slots(&stat.writes) {
                    producers[usize::from(slot)] = result_uop;
                }
            }
            insts.push(DynInst {
                first,
                last: uops.len() as u32,
                slots: stat.slots,
                eliminated: false,
            });
        }
    }

    // ---- Dependency edges reversed: the consumers of each uop ----
    let mut consumer_start = vec![0u32; uops.len() + 1];
    for &dep in &dep_pool {
        consumer_start[dep as usize + 1] += 1;
    }
    for uid in 0..uops.len() {
        consumer_start[uid + 1] += consumer_start[uid];
    }
    let mut consumers = vec![0u32; dep_pool.len()];
    let mut filled = consumer_start.clone();
    for (uid, u) in uops.iter().enumerate() {
        for &dep in &dep_pool[u.deps.start as usize..u.deps.end as usize] {
            consumers[filled[dep as usize] as usize] = uid as u32;
            filled[dep as usize] += 1;
        }
    }
    // Operands not dispatched yet, and the cycle the dispatched ones
    // complete by.
    let mut pending: Vec<u32> = uops.iter().map(|u| u.deps.end - u.deps.start).collect();
    let mut ready_at = vec![0u64; uops.len()];

    // ---- Cycle loop (rename / issue / retire) ----
    //
    // A renamed uop whose operands have all dispatched waits in `timed`
    // until they complete, then in `ready` (uid order, oldest first)
    // until a port is free. A uop dispatched this cycle completes
    // no earlier than the next, so its consumers wake no earlier either.
    let total_insts = insts.len();
    let mut completion = vec![u64::MAX; uops.len()];
    let mut start = vec![0u64; uops.len()];
    let mut port = vec![255u8; uops.len()];
    let mut timed: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut ready: Vec<u32> = Vec::new();
    let mut still_ready: Vec<u32> = Vec::new();
    let mut renamed_uops = 0u32;
    let mut port_free = [0u64; 8];
    let mut next_rename = 0usize;
    let mut next_retire = 0usize;
    let mut rob_used = 0u32;
    let mut rs_used = 0u32;
    let mut rename_cycle = vec![0u64; total_insts];
    let mut retire_cycle = vec![0u64; total_insts];
    let mut cycle = 0u64;
    let max_cycles = 500_000u64 + uops.len() as u64 * 96;

    while next_retire < total_insts {
        let mut retired = 0;
        while next_retire < total_insts && retired < uarch.retire_width {
            let inst = insts[next_retire];
            let done = next_retire < next_rename
                && (inst.eliminated
                    || completion[inst.first as usize..inst.last as usize]
                        .iter()
                        .all(|&c| c <= cycle));
            if !done {
                break;
            }
            retire_cycle[next_retire] = cycle;
            rob_used = rob_used.saturating_sub(inst.slots.max(1));
            next_retire += 1;
            retired += 1;
        }

        let woken = ready.len();
        while let Some(&Reverse((at, uid))) = timed.peek() {
            if at > cycle {
                break;
            }
            timed.pop();
            ready.push(uid);
        }
        if ready.len() > woken {
            ready.sort_unstable();
        }
        still_ready.clear();
        let mut free_ports = (0..8u8)
            .filter(|&p| port_free[usize::from(p)] <= cycle)
            .fold(0u8, |mask, p| mask | 1 << p);
        for (idx, &uid) in ready.iter().enumerate() {
            if free_ports == 0 {
                still_ready.extend_from_slice(&ready[idx..]);
                break;
            }
            let u = &uops[uid as usize];
            // The free port that has been free longest; the lowest
            // number on a tie.
            let mut candidates = u.ports & free_ports;
            if candidates == 0 {
                still_ready.push(uid);
                continue;
            }
            let mut p = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            while candidates != 0 {
                let q = candidates.trailing_zeros() as usize;
                if port_free[q] < port_free[p] {
                    p = q;
                }
                candidates &= candidates - 1;
            }
            free_ports &= !(1 << p);
            let done = cycle + u64::from(u.latency.max(1));
            start[uid as usize] = cycle;
            completion[uid as usize] = done;
            port[uid as usize] = p as u8;
            port_free[p] = cycle + u64::from(u.blocking.max(1));
            rs_used = rs_used.saturating_sub(1);
            let edges = consumer_start[uid as usize]..consumer_start[uid as usize + 1];
            for &consumer in &consumers[edges.start as usize..edges.end as usize] {
                let c = consumer as usize;
                ready_at[c] = ready_at[c].max(done);
                pending[c] -= 1;
                if pending[c] == 0 && consumer < renamed_uops {
                    timed.push(Reverse((ready_at[c], consumer)));
                }
            }
        }
        std::mem::swap(&mut ready, &mut still_ready);

        let mut slots_left = uarch.issue_width;
        while next_rename < total_insts && slots_left > 0 {
            let inst = insts[next_rename];
            let uop_count = inst.last - inst.first;
            if rob_used + inst.slots.max(1) > uarch.rob_size
                || rs_used + uop_count > uarch.rs_size
                || inst.slots > slots_left
            {
                break;
            }
            rename_cycle[next_rename] = cycle;
            rob_used += inst.slots.max(1);
            if !inst.eliminated {
                for uid in inst.first..inst.last {
                    if pending[uid as usize] == 0 {
                        timed.push(Reverse((ready_at[uid as usize], uid)));
                    }
                }
                renamed_uops = inst.last;
                rs_used += uop_count;
            }
            slots_left -= inst.slots.min(slots_left);
            next_rename += 1;
        }

        cycle += 1;
        if cycle > max_cycles {
            break;
        }
    }

    Run {
        n_insts,
        warmup,
        window,
        insts,
        start,
        completion,
        port,
        rename_cycle,
        retire_cycle,
    }
}

impl Run {
    /// Steady-state cycles per iteration: the difference of the two
    /// measured windows' end retire times over the window length.
    pub(crate) fn throughput(&self) -> f64 {
        let iter_end = |iteration: u32| -> u64 {
            let last_inst = ((iteration + 1) as usize) * self.n_insts - 1;
            self.retire_cycle[last_inst.min(self.retire_cycle.len() - 1)]
        };
        let w1_end = iter_end(self.warmup + self.window - 1);
        let w2_end = iter_end(self.warmup + 2 * self.window - 1);
        (w2_end.saturating_sub(w1_end)) as f64 / f64::from(self.window)
    }

    /// The schedule of two steady-state iterations, with eliminated
    /// instructions as zero-width marks at rename.
    pub(crate) fn schedule(&self, block: &BasicBlock, model_name: &str) -> Schedule {
        let first_iter = (self.warmup + self.window) as usize;
        let window = first_iter * self.n_insts..(first_iter + 2) * self.n_insts;
        let mut uops: Vec<ScheduledUop> = Vec::new();
        for (dyn_idx, inst) in self
            .insts
            .iter()
            .enumerate()
            .take(window.end)
            .skip(window.start)
        {
            let inst_idx = dyn_idx % self.n_insts;
            let iteration = (dyn_idx / self.n_insts - first_iter) as u32;
            if inst.eliminated {
                uops.push(ScheduledUop {
                    inst_idx,
                    iteration,
                    start: self.rename_cycle[dyn_idx],
                    end: self.rename_cycle[dyn_idx],
                    port: 255,
                });
            }
            for uid in inst.first as usize..inst.last as usize {
                uops.push(ScheduledUop {
                    inst_idx,
                    iteration,
                    start: self.start[uid],
                    end: self.completion[uid],
                    port: self.port[uid],
                });
            }
        }
        uops.sort_by_key(|u| (u.iteration, u.inst_idx, u.start));
        Schedule {
            model: model_name.to_string(),
            throughput: self.throughput(),
            uops,
            inst_texts: block.insts().iter().map(|i| i.to_string()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhive_asm::parse_block;
    use bhive_uarch::{decompose, Uarch};

    fn run(text: &str) -> (BasicBlock, Run) {
        let block = parse_block(text).unwrap();
        let uarch = Uarch::haswell();
        let recipes: Vec<Recipe> = block.iter().map(|i| decompose(i, uarch)).collect();
        let run = simulate(&block, &recipes, uarch);
        (block, run)
    }

    fn tp(text: &str) -> f64 {
        run(text).1.throughput()
    }

    #[test]
    fn throughput_bounds() {
        // Four independent adds: port bound ~1/iter.
        let t = tp("add rax, 1\nadd rbx, 1\nadd rcx, 1\nadd rsi, 1");
        assert!((0.9..=1.3).contains(&t), "{t}");
        // Dependent chain: latency bound ~4/iter.
        let t = tp("add rax, 1\nadd rax, 1\nadd rax, 1\nadd rax, 1");
        assert!((3.7..=4.3).contains(&t), "{t}");
        // imul chain: 3/iter.
        let t = tp("imul rax, rbx");
        assert!((2.7..=3.3).contains(&t), "{t}");
    }

    #[test]
    fn zero_idiom_with_hardware_tables() {
        let t = tp("vxorps xmm2, xmm2, xmm2");
        assert!(t <= 0.5, "eliminated idiom: {t}");
    }

    #[test]
    fn schedule_window_is_steady() {
        let (block, run) = run("add rax, 1\nimul rbx, rax");
        let sched = run.schedule(&block, "t");
        assert!(sched.throughput > 0.0);
        // Both iterations of both instructions present.
        for inst in 0..2 {
            for it in 0..2 {
                assert!(
                    sched.dispatch_cycle(inst, it).is_some(),
                    "missing inst {inst} iter {it}"
                );
            }
        }
        // Iteration 1 dispatches after iteration 0.
        assert!(sched.dispatch_cycle(0, 1) >= sched.dispatch_cycle(0, 0));
    }
}
