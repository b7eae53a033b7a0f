//! Helpers shared by the executor's integration tests: the harness's
//! monitor loop over a `Machine`, prefixes of an unrolled execution spelled
//! out as one block, and the memory-heavy instruction strategy.

use bhive_asm::Inst;
use bhive_sim::{DynInst, ExecFault, Machine, PhysPage, PAGE_SIZE};

/// The paper's register and memory fill.
pub const FILL: u64 = 0x1234_5600;

/// Pages the monitor maps before it gives a block up (the harness's
/// `max_faults`).
pub const MAX_PAGES: usize = 64;

/// True if the monitor would map a page at `vaddr` (the harness rejects
/// the null page and non-user addresses).
pub fn mappable(vaddr: u64) -> bool {
    (0x1000..1 << 47).contains(&vaddr)
}

/// Re-initializes a machine as the harness does before each monitor run:
/// registers to the fill, FTZ/DAZ per config, every mapped page refilled.
pub fn reinit(machine: &mut Machine, ftz_daz: bool) {
    machine.reset(FILL);
    machine.set_ftz_daz(ftz_daz);
    machine.memory_mut().refill_all(FILL);
}

/// The outcome of the monitor loop: the final execution's result and
/// trace, and every page mapped along the way, in mapping order. The
/// machine holds the final execution's state and memory.
pub struct Monitored {
    pub result: Result<(), ExecFault>,
    pub trace: Vec<DynInst>,
    pub pages: Vec<u64>,
}

/// The paper's monitor loop: run `unroll` copies from the fill, map each
/// faulting page onto one shared frame, and restart, until the block runs
/// through, raises a fault no page can fix, or has mapped [`MAX_PAGES`].
pub fn run_monitored(
    machine: &mut Machine,
    insts: &[Inst],
    unroll: u32,
    ftz_daz: bool,
) -> Monitored {
    let mut frame: Option<PhysPage> = None;
    let mut pages = Vec::new();
    let mut trace = Vec::new();
    loop {
        reinit(machine, ftz_daz);
        let result = machine.execute_unrolled_into(insts, unroll, &mut trace);
        match result {
            Err(ExecFault::Seg(fault)) if mappable(fault.vaddr) && pages.len() < MAX_PAGES => {
                let frame = *frame.get_or_insert_with(|| machine.memory_mut().alloc_page(FILL));
                machine.memory_mut().map(fault.vaddr, frame);
                pages.push(fault.vaddr & !(PAGE_SIZE - 1));
            }
            _ => {
                return Monitored {
                    result,
                    trace,
                    pages,
                }
            }
        }
    }
}

/// A fresh machine with `pages` mapped onto one shared frame, reset to the
/// fill: the starting point of every monitor run after the last fault.
pub fn machine_with_pages(pages: &[u64], ftz_daz: bool) -> Machine {
    let mut machine = Machine::new(bhive_uarch::Uarch::haswell(), 0);
    if !pages.is_empty() {
        let frame = machine.memory_mut().alloc_page(FILL);
        for &page in pages {
            machine.memory_mut().map(page, frame);
        }
    }
    reinit(&mut machine, ftz_daz);
    machine
}

/// The first `n` dynamic instructions of an unrolled execution of
/// `insts`, spelled out as one block.
pub fn prefix_block(insts: &[Inst], n: usize) -> Vec<Inst> {
    insts.iter().cycle().take(n).cloned().collect()
}

/// One memory-heavy instruction chosen by the bits of `pick`: stores and
/// loads near page boundaries, register pushes and pops, read-modify-writes
/// and vector accesses.
pub fn faulting_inst_text(pick: u64) -> String {
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
    match pick % 14 {
        0 => format!("mov {v}, qword ptr {m}"),
        1 => format!("mov qword ptr {m}, {v}"),
        2 => format!("push {v}"),
        3 => format!("pop {v}"),
        4 => format!("add qword ptr {m}, {v}"),
        5 => format!("adc dword ptr {m}, 3"),
        6 => format!("shr qword ptr {m}, 1"),
        7 => format!("sub qword ptr {m}, {v}"),
        8 => format!("movups xmmword ptr {m}, xmm1"),
        9 => format!("addps xmm2, xmmword ptr {m}"),
        10 => format!("vmovdqu ymm3, ymmword ptr {m}"),
        11 => format!("cmovne {v}, qword ptr {m}"),
        12 => format!("setb byte ptr {m}"),
        _ => format!("add {b}, 0x800"),
    }
}
