//! The mapping monitor — the paper's Fig. 2 `monitor`/`measure` protocol.
//!
//! The real framework runs the block in a forked child under `ptrace`; the
//! parent intercepts each SIGSEGV, maps the faulting page, resets the
//! child's registers and memory, and restarts the measure routine from the
//! top. Here the "child" is the simulated machine and the fault arrives as
//! an [`ExecFault::Seg`].
//!
//! One deviation: after mapping the page, this monitor resumes at the
//! faulting instruction instead of restarting from the top, so an attempt
//! costs one execution of the block rather than one per fault. The final
//! trace, the fault count, the mapped pages and the `PageMapped` events are
//! the ones a restarting monitor produces, because:
//!
//! * the completed prefix touched only pages that were already mapped, so a
//!   restart would re-execute it access for access and leave the same
//!   registers and page bytes;
//! * mapping a new page changes no byte those accesses read: `PerPage`
//!   maps a freshly filled frame, and `SinglePage` maps the frame the
//!   prefix already wrote, as the restart's re-executed prefix would have;
//! * a faulting instruction leaves no architectural effect (precise faults,
//!   as on x86), so resuming at it sees the state a restart reaches there.

use crate::config::{PageMapping, ProfileConfig};
use crate::failure::ProfileFailure;
use crate::obs::AttemptEvent;
use bhive_asm::Inst;
use bhive_sim::{DynInst, ExecFault, Machine, PhysPage};

/// Highest mappable user-space virtual address (48-bit canonical space).
const USER_SPACE_TOP: u64 = 1 << 47;
/// Lowest mappable address: the null page is never mapped.
const USER_SPACE_BOTTOM: u64 = 0x1000;

/// Result of a successful mapping stage.
#[derive(Debug)]
pub struct MappingOutcome {
    /// The dynamic trace of the final (fault-free) execution.
    pub trace: Vec<DynInst>,
    /// Number of distinct virtual pages mapped for the block.
    pub mapped_pages: usize,
    /// Page faults serviced before the block ran to completion.
    pub faults: u32,
}

/// Runs the mapping stage: executes `unroll` copies of the block,
/// servicing page faults until the block runs fault-free (or a
/// non-recoverable fault / the fault budget kills it).
///
/// On success the machine's memory holds the final page mapping and the
/// machine state holds the post-run register file. The trace equals that
/// of one fault-free run from the initial state, which is what the paper's
/// `measure` routine re-creates, so callers time it directly.
///
/// # Errors
///
/// * [`ProfileFailure::Crash`] for non-recoverable faults (divide error,
///   alignment, or any fault when mapping is disabled);
/// * [`ProfileFailure::InvalidAddress`] when the faulting address cannot
///   be mapped (null page or non-canonical);
/// * [`ProfileFailure::TooManyFaults`] when the fault budget is exhausted.
pub fn monitor(
    machine: &mut Machine,
    insts: &[Inst],
    unroll: u32,
    config: &ProfileConfig,
) -> Result<MappingOutcome, ProfileFailure> {
    monitor_observed(machine, insts, unroll, config, &mut |_| {})
}

/// [`monitor`] with an observability sink: every successfully serviced
/// page fault is reported as [`AttemptEvent::PageMapped`] before the
/// block resumes. The sink receives only deterministic,
/// cycle/ordinal-valued data — never the wall clock — so traces built
/// from it are bit-identical across thread counts.
pub fn monitor_observed(
    machine: &mut Machine,
    insts: &[Inst],
    unroll: u32,
    config: &ProfileConfig,
    sink: &mut dyn FnMut(AttemptEvent),
) -> Result<MappingOutcome, ProfileFailure> {
    // The trace lands in the machine's reusable buffer; the outcome takes
    // it over on success, and the profiler hands it back once measurement
    // is done. On failure it goes straight back.
    let mut trace = machine.take_trace_buffer();
    match monitor_into(machine, insts, unroll, config, &mut trace, sink) {
        Ok((mapped_pages, faults)) => Ok(MappingOutcome {
            trace,
            mapped_pages,
            faults,
        }),
        Err(failure) => {
            machine.put_trace_buffer(trace);
            Err(failure)
        }
    }
}

/// The mapping loop proper, filling a caller-owned trace buffer. Returns
/// `(mapped_pages, faults)` on success.
fn monitor_into(
    machine: &mut Machine,
    insts: &[Inst],
    unroll: u32,
    config: &ProfileConfig,
    trace: &mut Vec<DynInst>,
    sink: &mut dyn FnMut(AttemptEvent),
) -> Result<(usize, u32), ProfileFailure> {
    let mut faults = 0u32;
    let mut shared_page: Option<PhysPage> = None;
    let fill = config.fill;

    // Full initialization (Fig. 2: registers, memory values and flags are
    // set so the memory-address trace reproduces exactly). Each serviced
    // fault then resumes at the faulting instruction (see the module doc).
    machine.reset(fill);
    machine.set_ftz_daz(config.disable_gradual_underflow);
    machine.memory_mut().refill_all(fill);
    trace.clear();
    loop {
        match machine.resume_unrolled_into(insts, unroll, trace) {
            Ok(()) => {
                return Ok((machine.memory().mapped_page_count(), faults));
            }
            Err(ExecFault::Seg(fault)) => {
                if config.page_mapping == PageMapping::None {
                    return Err(ProfileFailure::from_fault(ExecFault::Seg(fault)));
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
                    PageMapping::PerPage => machine.memory_mut().alloc_page(fill),
                    PageMapping::None => unreachable!("handled above"),
                };
                machine.memory_mut().map(fault.vaddr, phys);
                sink(AttemptEvent::PageMapped {
                    vaddr_page: fault.vaddr & !0xFFF,
                    fault: faults,
                });
            }
            Err(other) => return Err(ProfileFailure::from_fault(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhive_asm::parse_block;
    use bhive_uarch::Uarch;

    fn machine() -> Machine {
        Machine::new(Uarch::haswell(), 7)
    }

    #[test]
    fn maps_the_updcrc_block() {
        // The motivating example: a load through rdi and an indirect
        // table load through rax.
        let block = parse_block(
            "add rdi, 1\n\
             mov eax, edx\n\
             shr rdx, 8\n\
             xor al, byte ptr [rdi - 1]\n\
             movzx eax, al\n\
             xor rdx, qword ptr [8*rax + 0x4110a]\n\
             cmp rdi, rcx",
        )
        .unwrap();
        let config = ProfileConfig::bhive().quiet();
        let mut m = machine();
        let outcome = monitor(&mut m, block.insts(), 16, &config).unwrap();
        assert!(outcome.faults >= 2, "at least two distinct pages fault");
        assert!(outcome.mapped_pages >= 2);
        assert_eq!(
            m.memory().distinct_phys_pages(),
            1,
            "single-page policy backs every virtual page with one frame"
        );
        assert_eq!(outcome.trace.len(), block.len() * 16);
    }

    #[test]
    fn observed_monitor_reports_each_mapped_page() {
        let block =
            parse_block("mov rax, qword ptr [rbx]\nmov rcx, qword ptr [rbx + 0x2000]").unwrap();
        let config = ProfileConfig::bhive().quiet();
        let mut m = machine();
        let mut events = Vec::new();
        let outcome =
            monitor_observed(&mut m, block.insts(), 4, &config, &mut |e| events.push(e)).unwrap();
        assert_eq!(
            events.len(),
            outcome.faults as usize,
            "one PageMapped event per serviced fault"
        );
        for (i, event) in events.iter().enumerate() {
            match event {
                AttemptEvent::PageMapped { vaddr_page, fault } => {
                    assert_eq!(vaddr_page % 0x1000, 0, "page-aligned address");
                    assert_eq!(*fault, i as u32 + 1, "fault ordinals count from 1");
                }
                other => panic!("expected PageMapped, got {other:?}"),
            }
        }
    }

    #[test]
    fn per_page_policy_allocates_many_frames() {
        let block =
            parse_block("mov rax, qword ptr [rbx]\nmov rcx, qword ptr [rbx + 0x2000]").unwrap();
        let config = ProfileConfig::bhive()
            .quiet()
            .with_page_mapping(PageMapping::PerPage);
        let mut m = machine();
        monitor(&mut m, block.insts(), 4, &config).unwrap();
        assert!(m.memory().distinct_phys_pages() >= 2);
    }

    #[test]
    fn no_mapping_crashes() {
        let block = parse_block("mov rax, qword ptr [rbx]").unwrap();
        let config = ProfileConfig::agner().quiet();
        let err = monitor(&mut machine(), block.insts(), 4, &config).unwrap_err();
        assert_eq!(err.category(), "crash");
    }

    #[test]
    fn invalid_address_rejected() {
        // Clear rbx to zero: the load hits the null page, which is never
        // mapped.
        let block = parse_block("xor ebx, ebx\nmov rax, qword ptr [rbx]").unwrap();
        let config = ProfileConfig::bhive().quiet();
        let err = monitor(&mut machine(), block.insts(), 4, &config).unwrap_err();
        match err {
            ProfileFailure::InvalidAddress { vaddr } => assert!(vaddr < 0x1000),
            other => panic!("expected invalid address, got {other:?}"),
        }
    }

    #[test]
    fn fault_budget_kills_page_walkers() {
        // Each iteration advances rbx by one page: unroll 100 needs ~100
        // mappings, which blows the budget of 64.
        let block = parse_block("mov rax, qword ptr [rbx]\nadd rbx, 0x1000").unwrap();
        let config = ProfileConfig::bhive().quiet();
        let err = monitor(&mut machine(), block.insts(), 100, &config).unwrap_err();
        match err {
            ProfileFailure::TooManyFaults { faults } => assert!(faults > 64),
            other => panic!("expected fault-budget kill, got {other:?}"),
        }
    }

    #[test]
    fn divide_error_is_not_recoverable() {
        let block = parse_block("xor ecx, ecx\nxor edx, edx\ndiv ecx").unwrap();
        let config = ProfileConfig::bhive().quiet();
        let err = monitor(&mut machine(), block.insts(), 4, &config).unwrap_err();
        assert_eq!(err.category(), "crash");
    }

    #[test]
    fn pointer_chase_fails_like_real_bhive() {
        // An 8-byte pointer loaded from fill-patterned memory is
        // 0x1234560012345600 — beyond the 47-bit user-space limit, so the
        // monitor refuses to map the dereference (such blocks are part of
        // the unprofilable tail, as on the real framework).
        let block = parse_block("mov rax, qword ptr [rbx]\nmov rcx, qword ptr [rax]").unwrap();
        let config = ProfileConfig::bhive().quiet();
        let err = monitor(&mut machine(), block.insts(), 4, &config).unwrap_err();
        assert!(matches!(err, ProfileFailure::InvalidAddress { .. }));
    }

    #[test]
    fn four_byte_pointer_chase_succeeds() {
        // A 32-bit index loaded from memory is the mappable constant.
        let block = parse_block("mov eax, dword ptr [rbx]\nmov rcx, qword ptr [rax]").unwrap();
        let config = ProfileConfig::bhive().quiet();
        let mut m = machine();
        let outcome = monitor(&mut m, block.insts(), 4, &config).unwrap();
        assert!(outcome.mapped_pages >= 1);
    }
}
