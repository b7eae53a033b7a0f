//! Property tests for the functional executor and timing model.

mod common;

use bhive_asm::{parse_block, BasicBlock, Gpr, OpSize};
use bhive_corpus::{generate_block, Application};
use bhive_sim::{
    Cache, CodeLayout, CpuState, ExecFault, Machine, Memory, NoiseConfig, PhysPage, TimingModel,
    PAGE_SIZE,
};
use bhive_uarch::Uarch;
use common::{
    faulting_inst_text, machine_with_pages, mappable, prefix_block, reinit, run_monitored, FILL,
    MAX_PAGES,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn machine_with_page() -> Machine {
    let mut machine = Machine::new(Uarch::haswell(), 0);
    machine.reset(0x1234_5600);
    let page = machine.memory_mut().alloc_page(0x1234_5600);
    machine.memory_mut().map(0x1234_5600, page);
    machine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Scalar arithmetic agrees with Rust's wrapping semantics, and the
    /// CF/ZF/SF flags agree with a reference computation.
    #[test]
    fn add_sub_match_reference(a in any::<u64>(), b in any::<u64>(), sub in any::<bool>()) {
        let mut machine = Machine::new(Uarch::haswell(), 0);
        machine.state_mut().set_gpr(Gpr::Rax, OpSize::Q, a);
        machine.state_mut().set_gpr(Gpr::Rbx, OpSize::Q, b);
        let block = parse_block(if sub { "sub rax, rbx" } else { "add rax, rbx" }).unwrap();
        machine.execute_unrolled(block.insts(), 1).unwrap();
        let expected = if sub { a.wrapping_sub(b) } else { a.wrapping_add(b) };
        prop_assert_eq!(machine.state().gpr64(Gpr::Rax), expected);
        let flags = machine.state().flags;
        prop_assert_eq!(flags.zf, expected == 0);
        prop_assert_eq!(flags.sf, (expected as i64) < 0);
        let carry = if sub { a.checked_sub(b).is_none() } else { a.checked_add(b).is_none() };
        prop_assert_eq!(flags.cf, carry);
        let signed_overflow = if sub {
            (a as i64).checked_sub(b as i64).is_none()
        } else {
            (a as i64).checked_add(b as i64).is_none()
        };
        prop_assert_eq!(flags.of, signed_overflow);
    }

    /// `mul` then `div` by the same value restores the accumulator.
    #[test]
    fn mul_div_inverse(a in 1u64..u64::MAX / 2, d in 1u64..u32::MAX as u64) {
        let mut machine = Machine::new(Uarch::haswell(), 0);
        machine.state_mut().set_gpr(Gpr::Rax, OpSize::Q, a);
        machine.state_mut().set_gpr(Gpr::Rcx, OpSize::Q, d);
        let block = parse_block("mul rcx\ndiv rcx").unwrap();
        machine.execute_unrolled(block.insts(), 1).unwrap();
        prop_assert_eq!(machine.state().gpr64(Gpr::Rax), a);
        prop_assert_eq!(machine.state().gpr64(Gpr::Rdx), 0);
    }

    /// Memory writes read back, through any alias of the same frame.
    #[test]
    fn store_load_round_trip(value in any::<u64>(), offset in 0u64..512) {
        let offset = offset * 8;
        let mut memory = Memory::new();
        let page = memory.alloc_page(0);
        memory.map(0x10_000, page);
        memory.map(0x20_000, page);
        memory.write_scalar(0x10_000 + offset, 8, value).unwrap();
        prop_assert_eq!(memory.read_scalar(0x20_000 + offset, 8).unwrap(), value);
    }

    /// Shifts match Rust for in-range counts.
    #[test]
    fn shifts_match_reference(a in any::<u64>(), count in 1u32..63) {
        let mut machine = Machine::new(Uarch::haswell(), 0);
        machine.state_mut().set_gpr(Gpr::Rax, OpSize::Q, a);
        machine.state_mut().set_gpr(Gpr::Rbx, OpSize::Q, a);
        let block = parse_block(&format!("shl rax, {count}\nshr rbx, {count}")).unwrap();
        machine.execute_unrolled(block.insts(), 1).unwrap();
        prop_assert_eq!(machine.state().gpr64(Gpr::Rax), a << count);
        prop_assert_eq!(machine.state().gpr64(Gpr::Rbx), a >> count);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cycle counts grow monotonically with the unroll factor, and the
    /// per-iteration marginal cost stabilizes (the premise of the paper's
    /// Eq. 2 two-unroll-factor derivation).
    #[test]
    fn timing_is_monotone_and_linear(seed in 0u64..500) {
        // A small deterministic register-only block derived from the seed.
        let ops = ["add r8, 1", "imul r9, r10", "xor r11, r12", "shl r13, 3"];
        let text: Vec<&str> =
            (0..4).map(|i| ops[((seed >> (2 * i)) % 4) as usize]).collect();
        let block = parse_block(&text.join("\n")).unwrap();
        let uarch = Uarch::haswell();
        let model = TimingModel::new(block.insts(), uarch);
        let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();

        let cycles = |unroll: u32| {
            let mut machine = Machine::new(uarch, 0);
            machine.reset(0x1234_5600);
            let trace = machine.execute_unrolled(block.insts(), unroll).unwrap();
            let mut l1i = Cache::new(uarch.l1i);
            let mut l1d = Cache::new(uarch.l1d);
            model.run(&trace, &layout, &mut l1i, &mut l1d).unwrap();
            model.run(&trace, &layout, &mut l1i, &mut l1d).unwrap().cycles
        };
        let c40 = cycles(40);
        let c80 = cycles(80);
        let c120 = cycles(120);
        prop_assert!(c40 < c80 && c80 < c120, "{c40} {c80} {c120}");
        // Two-factor estimates from disjoint windows agree closely.
        let tp_a = (c80 - c40) as f64 / 40.0;
        let tp_b = (c120 - c80) as f64 / 40.0;
        prop_assert!((tp_a - tp_b).abs() <= 0.25 * tp_a.max(1.0), "{tp_a} vs {tp_b}");
    }
}

#[test]
fn state_reset_is_complete() {
    let mut machine = machine_with_page();
    let block =
        parse_block("mov rax, qword ptr [rbx]\nadd rax, 7\nmov qword ptr [rbx], rax").unwrap();
    let trace_a = machine.execute_unrolled(block.insts(), 8).unwrap();
    // Re-initialize exactly like the harness does.
    machine.reset(0x1234_5600);
    machine.memory_mut().refill_all(0x1234_5600);
    let trace_b = machine.execute_unrolled(block.insts(), 8).unwrap();
    assert_eq!(trace_a.len(), trace_b.len());
    for (a, b) in trace_a.iter().zip(&trace_b) {
        assert_eq!(a.effects, b.effects, "address traces must be identical");
    }
}

#[test]
fn partial_register_writes_preserve_flags_invariants() {
    let mut state = CpuState::new();
    state.set_gpr(Gpr::Rax, OpSize::Q, u64::MAX);
    state.set_gpr(Gpr::Rax, OpSize::B, 0);
    assert_eq!(state.gpr64(Gpr::Rax), u64::MAX - 0xFF);
    state.set_gpr(Gpr::Rax, OpSize::D, 1);
    assert_eq!(state.gpr64(Gpr::Rax), 1, "32-bit writes zero-extend");
}

/// AVX2 gating: on Ivy Bridge the lowered path faults with `#UD` before
/// executing anything; on Haswell the block runs.
#[test]
fn avx2_gating() {
    let block = parse_block("add rax, 1\nvfmadd231ps ymm0, ymm1, ymm2").unwrap();
    let mut ivb = Machine::new(Uarch::ivy_bridge(), 0);
    let monitored = run_monitored(&mut ivb, block.insts(), 8, true);
    assert_eq!(monitored.result, Err(ExecFault::InvalidOpcode));
    assert!(monitored.trace.is_empty());
    // The leading `add` must not have run.
    let mut fresh = Machine::new(Uarch::ivy_bridge(), 0);
    reinit(&mut fresh, true);
    assert_eq!(ivb.state(), fresh.state());

    let mut hsw = Machine::new(Uarch::haswell(), 0);
    assert_eq!(
        run_monitored(&mut hsw, block.insts(), 8, true).result,
        Ok(())
    );
}

/// The `Machine::run` one-shot agrees with itself when its machine is
/// recycled (warm lowering cache) versus fresh (cold cache): the cache
/// must be invisible in every counter.
#[test]
fn lowering_cache_is_invisible_to_run() {
    let blocks = [
        parse_block("add rax, rbx\nimul rcx, rdx").unwrap(),
        parse_block("xorps xmm0, xmm1\naddps xmm0, xmm2").unwrap(),
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

/// The bytes of every page in `pages`, in order.
fn mapped_bytes(mem: &Memory, pages: &[u64]) -> Vec<u8> {
    let mut out = vec![0u8; pages.len() * PAGE_SIZE as usize];
    for (&page, buf) in pages.iter().zip(out.chunks_exact_mut(PAGE_SIZE as usize)) {
        mem.read(page, buf).expect("mapped page");
    }
    out
}

/// Runs `unroll` copies of `block` through the monitor's resume loop. At
/// each page fault, at dynamic position i, the machine's registers, flags
/// and mapped bytes must equal those of a fresh lowered run of the first
/// i dynamic instructions spelled out as one block: the faulting
/// instruction left no trace. The page is then mapped and the run resumes.
fn seg_faults_are_precise_on(block: &BasicBlock, unroll: u32) -> Result<(), TestCaseError> {
    let insts = block.insts();
    let mut machine = Machine::new(Uarch::haswell(), 0);
    machine.reset(FILL);
    let mut trace = Vec::new();
    let mut frame: Option<PhysPage> = None;
    let mut pages = Vec::new();
    loop {
        match machine.resume_unrolled_into(insts, unroll, &mut trace) {
            Ok(()) => return Ok(()),
            Err(ExecFault::Seg(fault)) => {
                let i = trace.len();
                let mut prefix = machine_with_pages(&pages, false);
                prop_assert!(prefix.execute_unrolled(&prefix_block(insts, i), 1).is_ok());
                prop_assert_eq!(machine.state(), prefix.state(), "state at fault {}", i);
                prop_assert!(
                    mapped_bytes(machine.memory(), &pages) == mapped_bytes(prefix.memory(), &pages),
                    "memory at fault {}",
                    i
                );
                if !mappable(fault.vaddr) || pages.len() >= MAX_PAGES {
                    return Ok(());
                }
                let frame = *frame.get_or_insert_with(|| machine.memory_mut().alloc_page(FILL));
                machine.memory_mut().map(fault.vaddr, frame);
                pages.push(fault.vaddr & !(PAGE_SIZE - 1));
            }
            // #DE, #GP: terminal for the monitor; only page faults resume.
            Err(_) => return Ok(()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Page faults are precise over memory-heavy random blocks and
    /// generated corpus blocks: the monitor's resume-at-fault depends on
    /// it.
    #[test]
    fn seg_faults_are_precise(
        picks in proptest::collection::vec(any::<u64>(), 1..6),
        seed in any::<u64>(),
        app_idx in 0usize..12,
        unroll in 1u32..12,
    ) {
        let text = picks.iter().map(|&p| faulting_inst_text(p)).collect::<Vec<_>>().join("\n");
        seg_faults_are_precise_on(&parse_block(&text).unwrap(), unroll)?;
        let mut rng = SmallRng::seed_from_u64(seed);
        seg_faults_are_precise_on(&generate_block(Application::ALL[app_idx], &mut rng), unroll)?;
    }

    /// The harness's unroll pair over one reused machine: the lowering
    /// cache is invisible when the machine re-executes a block at another
    /// factor and when it moves on to another block and back.
    #[test]
    fn unroll_factors_share_one_lowering(seed in any::<u64>(), app_idx in 0usize..12) {
        let app = Application::ALL[app_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let block_a = generate_block(app, &mut rng);
        let block_b = generate_block(app, &mut rng);

        let mut reused = Machine::new(Uarch::haswell(), 1);
        for block in [&block_a, &block_b, &block_a] {
            for unroll in [16u32, 4] {
                // As the harness does per attempt: fresh state and pages,
                // the lowering cache kept.
                reused.recycle(1, NoiseConfig::quiet());
                let warm = run_monitored(&mut reused, block.insts(), unroll, true);
                let mut fresh = Machine::new(Uarch::haswell(), 1);
                let cold = run_monitored(&mut fresh, block.insts(), unroll, true);
                prop_assert_eq!(warm.result, cold.result);
                prop_assert_eq!(&warm.trace, &cold.trace);
                prop_assert_eq!(&warm.pages, &cold.pages);
                prop_assert_eq!(reused.state(), fresh.state());
            }
        }
        // Two blocks interleaved at two factors each: only the A→B→A
        // switches lowered anew.
        let stats = reused.lower_stats();
        prop_assert!(stats.misses >= 3, "expected >= 3 misses, got {:?}", stats);
        prop_assert!(stats.hits >= 3, "expected >= 3 hits, got {:?}", stats);
    }
}
