//! Differential tests for the predecoded executor: running a block
//! through the lowered `ExecOp` path (`execute_unrolled_into`) must be
//! bit for bit identical to the retained reference interpreter
//! (`execute_unrolled_reference_into`) — the same dynamic trace, the
//! same fault (kind, address, and position), and the same architectural
//! state and memory afterwards. Exercised across random generated blocks
//! from every application profile, all three shipped microarchitectures,
//! fault-free and faulting executions, and both harness unroll factors.

use bhive_asm::fnv1a_64;
use bhive_corpus::{generate_block, Application};
use bhive_sim::{
    execute_inst, CpuState, DynInst, ExecFault, Machine, Memory, NoiseConfig, PhysPage, PAGE_SIZE,
};
use bhive_uarch::Uarch;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const FILL: u64 = 0x1234_5600;

fn uarches() -> [&'static Uarch; 3] {
    [Uarch::ivy_bridge(), Uarch::haswell(), Uarch::skylake()]
}

/// Re-initializes a machine exactly as the harness does before each
/// monitor (re-)execution: reset to the fill pattern, FTZ/DAZ per
/// config, refill every mapped page.
fn reinit(machine: &mut Machine, ftz_daz: bool) {
    machine.reset(FILL);
    machine.set_ftz_daz(ftz_daz);
    machine.memory_mut().refill_all(FILL);
}

/// Reads back the bytes of every store in `trace` — the only memory a
/// block execution can mutate — so two executions' memories can be
/// compared without a `Memory: PartialEq` impl.
fn stored_bytes(mem: &Memory, trace: &[DynInst]) -> Vec<u8> {
    let mut out = Vec::new();
    for dyn_inst in trace {
        if let Some(store) = dyn_inst.effects.store {
            let mut buf = vec![0u8; store.width as usize];
            mem.read(store.vaddr, &mut buf).expect("stored page mapped");
            out.extend_from_slice(&buf);
        }
    }
    out
}

/// The core comparison over two machines whose memories are already in
/// identical mapped states. Runs the paper's monitor loop (map each
/// faulting page, restart) on *both* paths simultaneously so the
/// differential property is checked on every restart, not just the final
/// fault-free execution.
fn drive_paths_agree(
    block: &bhive_asm::BasicBlock,
    lowered: &mut Machine,
    reference: &mut Machine,
    unroll: u32,
    ftz_daz: bool,
) -> Result<(), TestCaseError> {
    let mut low_shared: Option<PhysPage> = None;
    let mut ref_shared: Option<PhysPage> = None;
    for restart in 0..64 {
        reinit(lowered, ftz_daz);
        reinit(reference, ftz_daz);

        let mut low_trace = Vec::new();
        let mut ref_trace = Vec::new();
        let low = lowered.execute_unrolled_into(block.insts(), unroll, &mut low_trace);
        let r#ref =
            reference.execute_unrolled_reference_into(block.insts(), unroll, &mut ref_trace);

        // Identical faults (kind, address, success), identical partial or
        // complete traces, identical architectural state, identical
        // stored memory.
        prop_assert_eq!(
            low,
            r#ref,
            "fault divergence on {:?} restart {}",
            lowered.uarch().kind,
            restart
        );
        prop_assert_eq!(
            &low_trace,
            &ref_trace,
            "trace divergence on {:?} restart {}",
            lowered.uarch().kind,
            restart
        );
        prop_assert_eq!(
            lowered.state(),
            reference.state(),
            "architectural state divergence on {:?} restart {}",
            lowered.uarch().kind,
            restart
        );
        prop_assert_eq!(
            stored_bytes(lowered.memory(), &low_trace),
            stored_bytes(reference.memory(), &ref_trace),
            "stored-memory divergence on {:?} restart {}",
            lowered.uarch().kind,
            restart
        );

        match low {
            Ok(()) => return Ok(()),
            Err(ExecFault::Seg(fault)) => {
                if fault.vaddr < 0x1000 || fault.vaddr >= (1 << 47) {
                    // The monitor would reject this block; the paths
                    // already agreed on the rejection-triggering fault.
                    return Ok(());
                }
                let low_phys =
                    *low_shared.get_or_insert_with(|| lowered.memory_mut().alloc_page(FILL));
                lowered.memory_mut().map(fault.vaddr, low_phys);
                let ref_phys =
                    *ref_shared.get_or_insert_with(|| reference.memory_mut().alloc_page(FILL));
                reference.memory_mut().map(fault.vaddr, ref_phys);
            }
            // Non-mappable fault (#DE, #UD, #GP): both paths agreed on
            // it above, and the harness would reject the block.
            Err(_) => return Ok(()),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random blocks from every application profile, through the full
    /// fault-service loop, on all three uarches, at a random unroll
    /// factor, with and without gradual underflow.
    #[test]
    fn lowered_executor_equals_reference(
        seed in any::<u64>(),
        app_idx in 0usize..12,
        unroll in 1u32..24,
        ftz_daz in any::<bool>(),
    ) {
        let app = Application::ALL[app_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(app, &mut rng);
        let Ok(encoded) = block.encode() else { return Ok(()); };

        for uarch in uarches() {
            let machine_seed = fnv1a_64(&encoded);
            let mut lowered = Machine::new(uarch, machine_seed);
            let mut reference = Machine::new(uarch, machine_seed);
            lowered.recycle(machine_seed, NoiseConfig::quiet());
            reference.recycle(machine_seed, NoiseConfig::quiet());
            drive_paths_agree(&block, &mut lowered, &mut reference, unroll, ftz_daz)?;
        }
    }

    /// The harness's exact unroll pair (hi = 16 with a lo prefix) over
    /// one reused machine per path: the lowering cache must be
    /// transparent when the same machine re-executes the same block at a
    /// different factor, and when it moves on to a different block.
    #[test]
    fn unroll_factors_share_one_lowering(seed in any::<u64>(), app_idx in 0usize..12) {
        let app = Application::ALL[app_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let block_a = generate_block(app, &mut rng);
        let block_b = generate_block(app, &mut rng);
        if block_a.encode().is_err() || block_b.encode().is_err() { return Ok(()); }

        let uarch = Uarch::haswell();
        let mut lowered = Machine::new(uarch, 1);
        let mut reference = Machine::new(uarch, 1);
        for block in [&block_a, &block_b, &block_a] {
            for unroll in [16u32, 4] {
                drive_paths_agree(block, &mut lowered, &mut reference, unroll, true)?;
            }
        }
        // Two blocks interleaved at two factors each: the second factor
        // and the re-visit re-lowered nothing new except the A→B→A
        // switches.
        let stats = lowered.lower_stats();
        prop_assert_eq!(stats.misses >= 3, true, "expected >= 3 misses, got {:?}", stats);
        prop_assert_eq!(stats.hits >= 3, true, "expected >= 3 hits, got {:?}", stats);
    }
}

/// Hand-picked semantic corners where lowering is most likely to drift
/// from the reference: every faulting class, flag-preserving shifts,
/// division edge cases, and subnormal-producing FP — checked at both
/// unroll factors on all uarches.
#[test]
fn semantic_corner_blocks_agree() {
    let corners = [
        // Shift by zero preserves flags; rotates never write them.
        "add rax, rbx\nshl rcx, 0\nrol rdx, 1\nsar rax, 3",
        // Divide: quotient-bit latency inputs and the rdx fast path.
        "xor edx, edx\nmov eax, 1000\nmov ecx, 7\ndiv ecx",
        // Divide error (#DE) mid-block, second copy.
        "mov ecx, 2\nshr rcx, 1\ndiv ecx",
        // Push/pop against the unmapped-then-mapped stack page.
        "push rax\npop rbx\npush rcx",
        // Aligned vector access: #GP on the odd address.
        "movaps xmm0, xmmword ptr [rbx + 4]",
        // Subnormal FP with gradual underflow (FTZ/DAZ off in driver).
        "mulps xmm0, xmm1\naddps xmm2, xmm0",
        // Scalar FP merge semantics and conversions.
        "movss xmm0, dword ptr [rbx]\ncvtsi2ss xmm1, rax\ncvttss2si rdx, xmm1",
        // cmov reads its source even when the move is suppressed.
        "cmp rax, rbx\ncmove rcx, qword ptr [rbx]",
        // Packed integer widths and shifts at the immediate-count edge.
        "pslld xmm1, 33\npsrlq xmm2, 63\npmuludq xmm1, xmm2",
        // Memory-destination RMW with carry chains.
        "add qword ptr [rbx], 1\nadc rax, rax\nsbb rdx, 3",
    ];
    for text in corners {
        let block = bhive_asm::parse_block(text).unwrap();
        for uarch in uarches() {
            for unroll in [16u32, 4] {
                for ftz_daz in [false, true] {
                    let mut lowered = Machine::new(uarch, 0);
                    let mut reference = Machine::new(uarch, 0);
                    drive_paths_agree(&block, &mut lowered, &mut reference, unroll, ftz_daz)
                        .unwrap_or_else(|e| panic!("{text}: {e}"));
                }
            }
        }
    }
}

/// AVX2 gating: the lowered path must fault with `#UD` on Ivy Bridge
/// before executing anything, exactly like the reference scan — and must
/// execute normally on Haswell.
#[test]
fn avx2_gating_matches_reference() {
    let block = bhive_asm::parse_block("add rax, 1\nvfmadd231ps ymm0, ymm1, ymm2").unwrap();
    let mut lowered = Machine::new(Uarch::ivy_bridge(), 0);
    let mut reference = Machine::new(Uarch::ivy_bridge(), 0);
    drive_paths_agree(&block, &mut lowered, &mut reference, 8, true).unwrap();
    // Neither path may have executed the leading `add` before `#UD`.
    assert_eq!(lowered.state(), reference.state());

    let mut lowered = Machine::new(Uarch::haswell(), 0);
    let mut reference = Machine::new(Uarch::haswell(), 0);
    drive_paths_agree(&block, &mut lowered, &mut reference, 8, true).unwrap();
}

/// The `Machine::run` one-shot agrees with itself when its machine is
/// recycled (warm lowering cache) versus fresh (cold cache): the cache
/// must be invisible in every counter.
#[test]
fn lowering_cache_is_invisible_to_run() {
    let blocks = [
        bhive_asm::parse_block("add rax, rbx\nimul rcx, rdx").unwrap(),
        bhive_asm::parse_block("xorps xmm0, xmm1\naddps xmm0, xmm2").unwrap(),
    ];
    let mut reused = Machine::new(Uarch::skylake(), 3);
    for block in [&blocks[0], &blocks[1], &blocks[0]] {
        reused.recycle(3, NoiseConfig::quiet());
        reused.reset(FILL);
        let warm = reused.run(block.insts(), 16).unwrap();
        let mut fresh = Machine::new(Uarch::skylake(), 3);
        fresh.reset(FILL);
        let cold = fresh.run(block.insts(), 16).unwrap();
        assert_eq!(warm.counters, cold.counters);
        assert_eq!(warm.dynamic_insts, cold.dynamic_insts);
    }
    let stats = reused.lower_stats();
    assert!(
        stats.hits > 0,
        "run() never hit the lowering cache: {stats:?}"
    );
}

/// One memory-heavy instruction chosen by the bits of `pick`: stores and
/// loads near page boundaries, pushes and pops (with `pop m` addressing
/// through the raised RSP), read-modify-writes and vector accesses.
fn faulting_inst_text(pick: u64) -> String {
    let b = ["rbx", "rsi", "rsp", "rdi"][(pick >> 8) as usize % 4];
    let v = ["rax", "rcx", "rdx", "r9"][(pick >> 16) as usize % 4];
    let d = [
        "",
        " + 8",
        " - 8",
        " + 0xffc",
        " + 0xff9",
        " + 0x1000",
        " - 0x2000",
    ][(pick >> 24) as usize % 7];
    let m = format!("[{b}{d}]");
    match pick % 16 {
        0 => format!("mov {v}, qword ptr {m}"),
        1 => format!("mov qword ptr {m}, {v}"),
        2 => format!("push qword ptr {m}"),
        3 => format!("push {v}"),
        4 => format!("pop {v}"),
        5 => format!("pop qword ptr {m}"),
        6 => format!("add qword ptr {m}, {v}"),
        7 => format!("adc dword ptr {m}, 3"),
        8 => format!("shr qword ptr {m}, 1"),
        9 => format!("sub qword ptr {m}, {v}"),
        10 => format!("movups xmmword ptr {m}, xmm1"),
        11 => format!("addps xmm2, xmmword ptr {m}"),
        12 => format!("vmovdqu ymm3, ymmword ptr {m}"),
        13 => format!("cmovne {v}, qword ptr {m}"),
        14 => format!("setb byte ptr {m}"),
        _ => format!("add {b}, 0x800"),
    }
}

/// The bytes of every page in `pages`, in order.
fn mapped_bytes(mem: &Memory, pages: &[u64]) -> Vec<u8> {
    let mut out = vec![0u8; pages.len() * PAGE_SIZE as usize];
    for (&page, buf) in pages.iter().zip(out.chunks_exact_mut(PAGE_SIZE as usize)) {
        mem.read(page, buf).expect("mapped page");
    }
    out
}

/// Executes `unroll` copies of `block` one instruction at a time through
/// the reference interpreter and, alongside, through the lowered one by
/// resuming after each fault. At every page fault, both must have left
/// registers, flags and every mapped byte exactly as they were before
/// the faulting instruction; the page is then mapped and both resume.
fn seg_faults_are_precise_on(
    block: &bhive_asm::BasicBlock,
    unroll: u32,
) -> Result<(), TestCaseError> {
    let insts = block.insts();
    let total = insts.len() * unroll as usize;
    let mut state = CpuState::new();
    state.reset_with_fill(FILL);
    let mut mem = Memory::new();
    let mut lowered = Machine::new(Uarch::haswell(), 0);
    lowered.reset(FILL);
    let mut trace = Vec::new();
    let mut frames: Option<(PhysPage, PhysPage)> = None;
    let mut pages = Vec::new();
    let mut i = 0;
    while i < total {
        let inst = &insts[i % insts.len()];
        let before = (state.clone(), mem.clone());
        match execute_inst(inst, &mut state, &mut mem) {
            Ok(_) => i += 1,
            Err(ExecFault::Seg(fault)) => {
                prop_assert_eq!(
                    &state,
                    &before.0,
                    "reference state after `{}` faulted",
                    inst
                );
                prop_assert!(
                    mapped_bytes(&mem, &pages) == mapped_bytes(&before.1, &pages),
                    "reference memory after `{}` faulted",
                    inst
                );
                let low = lowered.resume_unrolled_into(insts, unroll, &mut trace);
                prop_assert_eq!(low, Err(ExecFault::Seg(fault)), "lowered fault at {}", i);
                prop_assert_eq!(trace.len(), i, "lowered fault position");
                prop_assert_eq!(
                    lowered.state(),
                    &before.0,
                    "lowered state after `{}` faulted",
                    inst
                );
                prop_assert!(
                    mapped_bytes(lowered.memory(), &pages) == mapped_bytes(&before.1, &pages),
                    "lowered memory after `{}` faulted",
                    inst
                );
                if !(0x1000..1 << 47).contains(&fault.vaddr) || pages.len() >= 64 {
                    return Ok(());
                }
                let (ref_frame, low_frame) = *frames.get_or_insert_with(|| {
                    (mem.alloc_page(FILL), lowered.memory_mut().alloc_page(FILL))
                });
                mem.map(fault.vaddr, ref_frame);
                lowered.memory_mut().map(fault.vaddr, low_frame);
                pages.push(fault.vaddr & !(PAGE_SIZE - 1));
            }
            // #DE, #GP: terminal for the monitor; only page faults resume.
            Err(_) => return Ok(()),
        }
    }
    prop_assert_eq!(
        lowered.resume_unrolled_into(insts, unroll, &mut trace),
        Ok(())
    );
    prop_assert_eq!(lowered.state(), &state);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Page faults are precise in both interpreters, over memory-heavy
    /// random blocks and generated corpus blocks: the monitor's
    /// resume-at-fault depends on it.
    #[test]
    fn seg_faults_are_precise(
        picks in proptest::collection::vec(any::<u64>(), 1..6),
        seed in any::<u64>(),
        app_idx in 0usize..12,
        unroll in 1u32..12,
    ) {
        let text = picks.iter().map(|&p| faulting_inst_text(p)).collect::<Vec<_>>().join("\n");
        let block = bhive_asm::parse_block(&text).unwrap();
        seg_faults_are_precise_on(&block, unroll)?;
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(Application::ALL[app_idx], &mut rng);
        seg_faults_are_precise_on(&block, unroll)?;
    }
}
