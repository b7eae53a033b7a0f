//! The resuming monitor against the paper's restarting one.
//!
//! `monitor_observed` maps each faulting page and resumes at the faulting
//! instruction. The paper's Fig. 2 monitor instead re-initializes
//! registers, flags and memory after every fault and re-runs the block
//! from the top. This file keeps that restart loop as the oracle and
//! asserts that both produce the same trace, fault count, mapped pages,
//! `PageMapped` events, final register file and page bytes — or the same
//! failure — over random memory-heavy blocks and the generated corpus, on
//! all three uarches, under both page-mapping policies.

use bhive_asm::{fnv1a_64, parse_block, BasicBlock};
use bhive_corpus::{Corpus, Scale};
use bhive_harness::{
    monitor_observed, AttemptEvent, Machine, PageMapping, ProfileConfig, ProfileFailure,
};
use bhive_sim::{DynInst, ExecFault, NoiseConfig, PhysPage, PAGE_SIZE};
use bhive_uarch::Uarch;
use proptest::prelude::*;

const USER_SPACE_BOTTOM: u64 = 0x1000;
const USER_SPACE_TOP: u64 = 1 << 47;

fn uarches() -> [&'static Uarch; 3] {
    [Uarch::ivy_bridge(), Uarch::haswell(), Uarch::skylake()]
}

/// Trace, mapped-page count and faults serviced, or the failure.
type Outcome = Result<(Vec<DynInst>, usize, u32), ProfileFailure>;

/// The Fig. 2 loop: after every serviced fault, re-initialize and re-run
/// the whole unrolled block from the top.
fn restart_monitor(
    machine: &mut Machine,
    block: &BasicBlock,
    unroll: u32,
    config: &ProfileConfig,
    events: &mut Vec<AttemptEvent>,
) -> Outcome {
    let mut faults = 0u32;
    let mut shared_page: Option<PhysPage> = None;
    let fill = config.fill;
    let mut trace = Vec::new();
    loop {
        machine.reset(fill);
        machine.set_ftz_daz(config.disable_gradual_underflow);
        machine.memory_mut().refill_all(fill);
        match machine.execute_unrolled_into(block.insts(), unroll, &mut trace) {
            Ok(()) => return Ok((trace, machine.memory().mapped_page_count(), faults)),
            Err(ExecFault::Seg(fault)) => {
                if config.page_mapping == PageMapping::None {
                    return Err(crash(ExecFault::Seg(fault)));
                }
                if fault.vaddr < USER_SPACE_BOTTOM || fault.vaddr >= USER_SPACE_TOP {
                    return Err(ProfileFailure::InvalidAddress { vaddr: fault.vaddr });
                }
                faults += 1;
                if faults > config.max_faults {
                    return Err(ProfileFailure::TooManyFaults { faults });
                }
                let phys = match config.page_mapping {
                    PageMapping::SinglePage => {
                        *shared_page.get_or_insert_with(|| machine.memory_mut().alloc_page(fill))
                    }
                    _ => machine.memory_mut().alloc_page(fill),
                };
                machine.memory_mut().map(fault.vaddr, phys);
                events.push(AttemptEvent::PageMapped {
                    vaddr_page: fault.vaddr & !0xFFF,
                    fault: faults,
                });
            }
            Err(other) => return Err(crash(other)),
        }
    }
}

fn crash(fault: ExecFault) -> ProfileFailure {
    ProfileFailure::Crash {
        fault: fault.to_string(),
    }
}

/// A machine prepared the way `Profiler::profile_attempt` prepares one.
fn machine_for(uarch: &'static Uarch, block: &BasicBlock, config: &ProfileConfig) -> Machine {
    let seed = block.encode().map(|bytes| fnv1a_64(&bytes)).unwrap_or(0);
    let mut machine = Machine::new(uarch, seed);
    machine.recycle(seed, NoiseConfig::quiet());
    machine.set_ftz_daz(config.disable_gradual_underflow);
    machine
}

/// The bytes of every page either monitor mapped, read through the
/// machine's page table.
fn page_bytes(machine: &Machine, events: &[AttemptEvent]) -> Vec<u8> {
    let mut out = vec![0u8; events.len() * PAGE_SIZE as usize];
    for (event, page) in events.iter().zip(out.chunks_exact_mut(PAGE_SIZE as usize)) {
        if let AttemptEvent::PageMapped { vaddr_page, .. } = *event {
            machine
                .memory()
                .read(vaddr_page, page)
                .expect("mapped page is readable");
        }
    }
    out
}

/// Runs both monitors on fresh machines and compares everything.
fn monitors_agree(
    block: &BasicBlock,
    uarch: &'static Uarch,
    unroll: u32,
    config: &ProfileConfig,
) -> Result<(), TestCaseError> {
    let what = format!("{:?} {:?} unroll {unroll}", uarch.kind, config.page_mapping);

    let mut resumed = machine_for(uarch, block, config);
    let mut resumed_events = Vec::new();
    let resumed_outcome: Outcome =
        monitor_observed(&mut resumed, block.insts(), unroll, config, &mut |e| {
            resumed_events.push(e)
        })
        .map(|m| (m.trace, m.mapped_pages, m.faults));

    let mut restarted = machine_for(uarch, block, config);
    let mut restarted_events = Vec::new();
    let restarted_outcome =
        restart_monitor(&mut restarted, block, unroll, config, &mut restarted_events);

    prop_assert_eq!(&resumed_outcome, &restarted_outcome, "outcome: {}", what);
    prop_assert_eq!(&resumed_events, &restarted_events, "events: {}", what);
    if resumed_outcome.is_ok() {
        // A failed run's state is where each monitor gave up, and the
        // restart re-ran the prefix, so only a completed run's final
        // state is comparable.
        prop_assert_eq!(resumed.state(), restarted.state(), "state: {}", what);
        prop_assert_eq!(
            resumed.memory().distinct_phys_pages(),
            restarted.memory().distinct_phys_pages(),
            "frames: {}",
            what
        );
        prop_assert!(
            page_bytes(&resumed, &resumed_events) == page_bytes(&restarted, &restarted_events),
            "page bytes: {}",
            what
        );
    }
    Ok(())
}

/// Both mapping policies, with the monitor's default fault budget.
fn configs() -> [ProfileConfig; 2] {
    [
        ProfileConfig::bhive().quiet(),
        ProfileConfig::bhive()
            .quiet()
            .with_page_mapping(PageMapping::PerPage),
    ]
}

/// One memory-heavy instruction, chosen by the bits of `pick`: loads and
/// stores of every width, register pushes and pops,
/// read-modify-writes, page-crossing displacements, aligned vector
/// accesses, page walkers and 4-byte pointer chases.
fn inst_text(pick: u64) -> String {
    let b = ["rbx", "rsi", "rdi", "rsp", "rax"][(pick >> 8) as usize % 5];
    let v = ["rax", "rcx", "rdx", "r8"][(pick >> 16) as usize % 4];
    let d = [
        "",
        " + 8",
        " - 8",
        " + 0xffc",
        " + 0xff9",
        " + 0x1000",
        " - 0x1000",
        " + 0x3004",
    ][(pick >> 24) as usize % 8];
    let m = format!("[{b}{d}]");
    match pick % 20 {
        0 => format!("mov {v}, qword ptr {m}"),
        1 => format!("mov qword ptr {m}, {v}"),
        2 => format!("mov dword ptr {m}, 7"),
        3 => format!("movzx eax, word ptr {m}"),
        4 => format!("movsx rcx, byte ptr {m}"),
        5 => format!("push {v}"),
        6 => format!("pop {v}"),
        7 => format!("add qword ptr {m}, {v}"),
        8 => format!("inc dword ptr {m}"),
        9 => format!("neg qword ptr {m}"),
        10 => format!("shl qword ptr {m}, 3"),
        11 => format!("add {b}, 0x1000"),
        12 => format!("sub {b}, 0x18"),
        13 => format!("mov e{}, dword ptr {m}", &b[1..]),
        14 => format!("movups xmm1, xmmword ptr {m}"),
        15 => format!("movaps xmmword ptr {m}, xmm2"),
        16 => format!("vmovups ymm3, ymmword ptr {m}"),
        17 => format!("cmove {v}, qword ptr {m}"),
        18 => format!("sete byte ptr {m}"),
        _ => format!("lea {v}, {m}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resuming_equals_restarting_on_random_blocks(
        picks in proptest::collection::vec(any::<u64>(), 1..7),
        unroll in 1u32..24,
    ) {
        let text = picks.iter().map(|&p| inst_text(p)).collect::<Vec<_>>().join("\n");
        let Ok(block) = parse_block(&text) else { return Ok(()); };
        if block.validate().is_err() || block.encode().is_err() {
            return Ok(());
        }
        for uarch in uarches() {
            for config in configs() {
                monitors_agree(&block, uarch, unroll, &config)?;
            }
        }
    }
}

#[test]
fn resuming_equals_restarting_on_the_corpus() {
    let corpus = Corpus::generate(Scale::PerApp(6), 11);
    for cb in corpus.blocks() {
        let Ok(bytes) = cb.block.encode() else {
            continue;
        };
        for config in configs() {
            let (lo, hi) = config.unroll.factors(bytes.len() as u32);
            for uarch in uarches() {
                for unroll in [lo, hi] {
                    monitors_agree(&cb.block, uarch, unroll, &config)
                        .unwrap_or_else(|e| panic!("{}: {e}", cb.block));
                }
            }
        }
    }
}

/// Hand-picked corners: a push whose store faults (it used to move RSP
/// before its store), a split store across a page boundary, and a page
/// walker that exhausts the fault budget.
#[test]
fn resuming_equals_restarting_on_corners() {
    let corners = [
        "push rax\npush rcx\npop rdx",
        "mov qword ptr [rbx + 0xffc], rax\nadd rbx, 0x800",
        "mov rax, qword ptr [rbx]\nadd rbx, 0x1000",
        "mov eax, dword ptr [rbx]\nmov rcx, qword ptr [rax]\nmov qword ptr [rax + 8], rcx",
        "xor ebx, ebx\nmov rax, qword ptr [rbx]",
        "xor ecx, ecx\nxor edx, edx\nmov eax, dword ptr [rsi]\ndiv ecx",
    ];
    for text in corners {
        let block = parse_block(text).unwrap();
        for uarch in uarches() {
            for config in configs() {
                for unroll in [1, 4, 100] {
                    monitors_agree(&block, uarch, unroll, &config)
                        .unwrap_or_else(|e| panic!("{text}: {e}"));
                }
            }
        }
    }
}
