//! Differential tests: the split `prepare` + `simulate` path must be bit
//! for bit identical to `run_reference`, the retained single-pass
//! implementation — across random generated blocks, unroll factors, all
//! shipped microarchitectures, cold and warm caches, prefix replay (the
//! lo-factor measurement reuses the hi-factor preparation).

use bhive_asm::fnv1a_64;
use bhive_corpus::{generate_block, Application};
use bhive_sim::{
    Cache, CodeLayout, DynInst, ExecFault, Machine, NoiseConfig, PhysPage, SimScratch, TimingModel,
    CODE_BASE,
};
use bhive_uarch::Uarch;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const FILL: u64 = 0x1234_5600;

/// Minimal stand-in for the harness monitor: executes `unroll` copies,
/// mapping every faulting page to one shared frame until the block runs
/// fault-free. Returns `None` for blocks the monitor would reject
/// (unmappable address or fault-budget blowout) — those are simply
/// skipped; the differential property is about timing, not mapping.
fn map_and_trace(
    machine: &mut Machine,
    block: &bhive_asm::BasicBlock,
    unroll: u32,
) -> Option<Vec<DynInst>> {
    let mut shared: Option<PhysPage> = None;
    for _ in 0..64 {
        machine.reset(FILL);
        machine.set_ftz_daz(true);
        machine.memory_mut().refill_all(FILL);
        match machine.execute_unrolled(block.insts(), unroll) {
            Ok(trace) => return Some(trace),
            Err(ExecFault::Seg(fault)) => {
                if fault.vaddr < 0x1000 || fault.vaddr >= (1 << 47) {
                    return None;
                }
                let phys = *shared.get_or_insert_with(|| machine.memory_mut().alloc_page(FILL));
                machine.memory_mut().map(fault.vaddr, phys);
            }
            Err(_) => return None,
        }
    }
    None
}

fn uarches() -> [&'static Uarch; 3] {
    [Uarch::ivy_bridge(), Uarch::haswell(), Uarch::skylake()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cold- and warm-cache double execution: prepared path == reference,
    /// on every uarch, for a random block at a random unroll factor.
    #[test]
    fn prepared_equals_reference(seed in any::<u64>(), app_idx in 0usize..12, unroll in 1u32..24) {
        let app = Application::ALL[app_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(app, &mut rng);
        let Ok(encoded) = block.encode() else { return Ok(()); };

        for uarch in uarches() {
            let mut machine = Machine::new(uarch, 0);
            machine.recycle(fnv1a_64(&encoded), NoiseConfig::quiet());
            let Some(trace) = map_and_trace(&mut machine, &block, unroll) else {
                return Ok(());
            };
            let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
            let model = TimingModel::new(block.insts(), uarch);

            // Reference: two back-to-back runs over cold caches.
            let mut ref_l1i = Cache::new(uarch.l1i);
            let mut ref_l1d = Cache::new(uarch.l1d);
            let ref_cold = model.run_reference(&trace, &layout, &mut ref_l1i, &mut ref_l1d);
            let ref_warm = model.run_reference(&trace, &layout, &mut ref_l1i, &mut ref_l1d);

            // Prepared path: one preparation, two simulations sharing one
            // scratch, as the profiler replays them.
            let prep = model.prepare(&trace, &layout);
            let mut l1i = Cache::new(uarch.l1i);
            let mut l1d = Cache::new(uarch.l1d);
            let mut scratch = SimScratch::default();
            let n = trace.len();
            let cold = model.simulate_with(&prep, n, &mut l1i, &mut l1d, &mut scratch);
            let warm = model.simulate_with(&prep, n, &mut l1i, &mut l1d, &mut scratch);

            prop_assert_eq!(cold, ref_cold, "cold divergence on {:?}", uarch.kind);
            prop_assert_eq!(warm, ref_warm, "warm divergence on {:?}", uarch.kind);
        }
    }

    /// Prefix replay: simulating the first `n` instructions of a prepared
    /// hi-factor trace must equal preparing and running the lo-factor
    /// trace from scratch — the property that lets `measure` reuse one
    /// preparation for both unroll factors.
    #[test]
    fn prefix_replay_equals_reference(seed in any::<u64>(), app_idx in 0usize..12) {
        let app = Application::ALL[app_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(app, &mut rng);
        let Ok(encoded) = block.encode() else { return Ok(()); };
        let uarch = Uarch::haswell();
        let mut machine = Machine::new(uarch, 0);
        machine.recycle(fnv1a_64(&encoded), NoiseConfig::quiet());
        let Some(trace) = map_and_trace(&mut machine, &block, 17) else {
            return Ok(());
        };
        let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
        let model = TimingModel::new(block.insts(), uarch);
        let prep = model.prepare(&trace, &layout);

        for lo in [1usize, 2, 5, 17] {
            let n = (lo * block.len()).min(trace.len());
            let mut ref_l1i = Cache::new(uarch.l1i);
            let mut ref_l1d = Cache::new(uarch.l1d);
            let reference = model.run_reference(&trace[..n], &layout, &mut ref_l1i, &mut ref_l1d);

            let mut l1i = Cache::new(uarch.l1i);
            let mut l1d = Cache::new(uarch.l1d);
            let mut scratch = SimScratch::default();
            let replayed = model.simulate_with(&prep, n, &mut l1i, &mut l1d, &mut scratch);
            prop_assert_eq!(replayed, reference, "prefix n={} diverged", n);
        }
    }
}

/// The empty trace is a fixed point of both paths.
#[test]
fn empty_trace_is_identical() {
    let block = bhive_asm::parse_block("add rax, 1").unwrap();
    let uarch = Uarch::haswell();
    let model = TimingModel::new(block.insts(), uarch);
    let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
    let mut l1i = Cache::new(uarch.l1i);
    let mut l1d = Cache::new(uarch.l1d);
    let reference = model.run_reference(&[], &layout, &mut l1i, &mut l1d);
    let prep = model.prepare(&[], &layout);
    let split = model.simulate(&prep, &mut l1i, &mut l1d);
    assert_eq!(split, reference);
}
