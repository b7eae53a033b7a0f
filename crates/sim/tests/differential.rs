//! Differential tests of `Machine::simulate_double`, which warms the
//! caches by replaying the prefix's cache traffic: it must equal its
//! definition — a flush, a simulated warm-up pass, then the measured
//! pass — across random generated blocks, unroll factors, all shipped
//! microarchitectures and tiny caches that force the fallback. (The
//! prepared path against the reference pipeline is pinned by the
//! `timing` unit tests.)

use bhive_asm::{fnv1a_64, BasicBlock};
use bhive_corpus::{generate_block, Application};
use bhive_sim::{
    Cache, CodeLayout, DynInst, ExecFault, Machine, NoiseConfig, NonConvergence, PhysPage,
    SimScratch, TimingModel, TimingResult, CODE_BASE,
};
use bhive_uarch::{CacheParams, Uarch};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::OnceLock;

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

/// A Haswell clone with a 2-line L1I and a 4-line L1D: the replay of
/// almost any unrolled block evicts, so `simulate_double` takes its
/// fallback, the simulated warm-up.
fn tiny_cache_uarch() -> &'static Uarch {
    static TINY: OnceLock<&'static Uarch> = OnceLock::new();
    TINY.get_or_init(|| {
        Uarch {
            l1i: CacheParams {
                size_bytes: 2 * 64,
                line_bytes: 64,
                ways: 2,
            },
            l1d: CacheParams {
                size_bytes: 4 * 64,
                line_bytes: 64,
                ways: 2,
            },
            ..Uarch::haswell().clone()
        }
        .leak()
    })
}

/// `simulate_double` over the first `n` instructions of `trace`, its
/// definition (flush, simulated warm-up, measured pass), and whether the
/// replay warm-up was exact (no fill evicted a line).
type DoubleOutcome = Result<TimingResult, NonConvergence>;

fn double_and_two_passes(
    uarch: &'static Uarch,
    block: &BasicBlock,
    trace: &[DynInst],
    n: usize,
) -> (DoubleOutcome, DoubleOutcome, bool) {
    let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
    let model = TimingModel::new(block.insts(), uarch);
    let prep = model.prepare(trace, &layout);
    let mut l1i = Cache::new(uarch.l1i);
    let mut l1d = Cache::new(uarch.l1d);
    let exact = prep.warm_by_replay(n, &mut l1i, &mut l1d);
    l1i.flush();
    l1d.flush();
    let mut scratch = SimScratch::default();
    let full = model
        .simulate_with(&prep, n, &mut l1i, &mut l1d, &mut scratch)
        .and_then(|_| model.simulate_with(&prep, n, &mut l1i, &mut l1d, &mut scratch));

    let mut machine = Machine::new(uarch, 0);
    machine.prepare_timing(&model, trace, &layout);
    let double = machine.simulate_double(&model, n);
    (double, full, exact)
}

/// A generated block and its mapped trace at `unroll` on `uarch`, or
/// `None` when the block does not encode or the monitor would reject it.
fn generated_trace(
    uarch: &'static Uarch,
    app_idx: usize,
    seed: u64,
    unroll: u32,
) -> Option<(BasicBlock, Vec<DynInst>)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let block = generate_block(Application::ALL[app_idx], &mut rng);
    let encoded = block.encode().ok()?;
    let mut machine = Machine::new(uarch, 0);
    machine.recycle(fnv1a_64(&encoded), NoiseConfig::quiet());
    let trace = map_and_trace(&mut machine, &block, unroll)?;
    Some((block, trace))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The replay warm-up is invisible: `simulate_double` equals a
    /// simulated warm-up followed by the measured pass, bit for bit and
    /// error for error, at the full trace and at a lo-factor prefix, on
    /// every shipped uarch and on one whose tiny caches force the
    /// fallback.
    #[test]
    fn double_equals_two_passes(
        seed in any::<u64>(),
        app_idx in 0usize..12,
        unroll in 2u32..24,
    ) {
        for uarch in uarches().into_iter().chain([tiny_cache_uarch()]) {
            let Some((block, trace)) = generated_trace(uarch, app_idx, seed, unroll) else {
                return Ok(());
            };
            let lo = (unroll / 2) as usize * block.len();
            for n in [trace.len(), lo] {
                let (double, full, _) = double_and_two_passes(uarch, &block, &trace, n);
                prop_assert_eq!(double, full, "n={} diverged on {:?}", n, uarch.kind);
            }
        }
    }
}

/// The fallback really runs: on tiny caches most replays evict, and
/// `simulate_double` still equals the two simulated passes.
#[test]
fn tiny_caches_take_the_fallback() {
    let uarch = tiny_cache_uarch();
    let (mut fallbacks, mut checked) = (0, 0);
    for seed in 0..24u64 {
        let Some((block, trace)) = generated_trace(uarch, (seed % 12) as usize, seed, 8) else {
            continue;
        };
        let (double, full, exact) = double_and_two_passes(uarch, &block, &trace, trace.len());
        assert_eq!(double, full, "seed {seed}");
        checked += 1;
        fallbacks += usize::from(!exact);
    }
    assert!(checked >= 12, "only {checked} blocks mapped");
    assert!(fallbacks > 0, "no replay evicted on 2-line caches");
}

/// A deadlocked schedule fails identically: the replay is exact, the
/// measured pass exhausts its budget, and the fallback reports the
/// simulated warm-up's `NonConvergence`, budget and retired count
/// included.
#[test]
fn nonconvergence_matches_the_simulated_warm_up() {
    let starved = Uarch {
        rs_size: 0,
        ..Uarch::haswell().clone()
    }
    .leak();
    for (asm, unroll) in [
        ("add rax, 1\nadd rbx, 1", 4),
        ("mov rax, [rsp]\nadd rbx, rax", 16),
    ] {
        let block = bhive_asm::parse_block(asm).unwrap();
        let mut machine = Machine::new(starved, 0);
        let trace = map_and_trace(&mut machine, &block, unroll).unwrap();
        let (double, full, exact) = double_and_two_passes(starved, &block, &trace, trace.len());
        assert!(exact, "{asm}: the replay itself cannot fail");
        let err = double.expect_err("a zero-entry RS cannot converge");
        assert_eq!(Err(err), full, "{asm}");
        assert_eq!(err.retired, 0);
        assert_eq!(err.total_insts, trace.len());
    }
}

/// A line-splitting access warms both of its lines: on a one-set, 2-way
/// L1D, a split load plus one more line is three tags and must report
/// an eviction, while two aligned loads fit.
#[test]
fn replay_counts_the_split_second_half() {
    let one_set = Uarch {
        l1d: CacheParams {
            size_bytes: 2 * 64,
            line_bytes: 64,
            ways: 2,
        },
        ..Uarch::haswell().clone()
    }
    .leak();
    for (asm, fits) in [
        ("mov rax, [rbx]\nmov rcx, [rbx + 128]", true),
        ("mov rax, [rbx + 60]\nmov rcx, [rbx + 128]", false),
    ] {
        let block = bhive_asm::parse_block(asm).unwrap();
        let mut machine = Machine::new(one_set, 0);
        let trace = map_and_trace(&mut machine, &block, 1).unwrap();
        let (double, full, exact) = double_and_two_passes(one_set, &block, &trace, trace.len());
        assert_eq!(exact, fits, "{asm}");
        assert_eq!(double, full, "{asm}");
    }
}
