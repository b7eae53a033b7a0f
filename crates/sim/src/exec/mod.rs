//! Functional execution of the supported instruction subset.
//!
//! Functional execution serves two purposes in the measurement framework:
//! it produces the *memory-address trace* that the page-mapping monitor
//! needs (which virtual pages does the block touch?), and it resolves the
//! value-dependent behaviours the timing model consumes — division
//! latencies, subnormal slow-downs, and faults.

pub(crate) mod lower;
pub(crate) mod ops;
mod scalar;
mod scalar_ops;
mod vector;
mod vector_ops;

use crate::mem::{Memory, SegFault};
use crate::state::CpuState;
use bhive_asm::{Inst, MemRef, Operand};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A single memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Virtual address.
    pub vaddr: u64,
    /// Physical address (for cache tagging).
    pub paddr: u64,
    /// Access width in bytes.
    pub width: u8,
    /// True for stores.
    pub write: bool,
}

/// Value-dependent effects of one dynamic instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstEffects {
    /// The load performed, if any.
    pub load: Option<MemAccess>,
    /// The store performed, if any.
    pub store: Option<MemAccess>,
    /// An FP operation saw a subnormal input or produced a subnormal
    /// result while gradual underflow was enabled.
    pub subnormal: bool,
    /// For scalar division: significant bits of the quotient (drives the
    /// variable latency).
    pub div_quotient_bits: Option<u32>,
    /// For 64-bit division: the upper dividend half (`rdx`) was zero,
    /// enabling the hardware fast path.
    pub div_rdx_zero: bool,
}

/// Faults raised by functional execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecFault {
    /// Page fault (simulated SIGSEGV).
    Seg(SegFault),
    /// Integer divide error (#DE): divide by zero or quotient overflow.
    DivideError,
    /// The instruction is not executable on this machine
    /// (e.g. AVX2 on Ivy Bridge — simulated SIGILL).
    InvalidOpcode,
    /// Alignment violation (#GP) from an aligned vector access
    /// (`movaps`/`movdqa`) to an unaligned address.
    GeneralProtection {
        /// The misaligned address.
        vaddr: u64,
    },
}

impl fmt::Display for ExecFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecFault::Seg(s) => {
                write!(
                    f,
                    "segmentation fault at {:#x} ({})",
                    s.vaddr,
                    if s.write { "write" } else { "read" }
                )
            }
            ExecFault::DivideError => f.write_str("integer divide error"),
            ExecFault::InvalidOpcode => f.write_str("invalid opcode"),
            ExecFault::GeneralProtection { vaddr } => {
                write!(f, "alignment violation at {vaddr:#x}")
            }
        }
    }
}

impl Error for ExecFault {}

impl From<SegFault> for ExecFault {
    fn from(fault: SegFault) -> ExecFault {
        ExecFault::Seg(fault)
    }
}

/// Computes the effective address of a memory operand.
pub fn effective_addr(mem: &MemRef, state: &CpuState) -> u64 {
    let base = mem.base.map(|r| state.gpr64(r)).unwrap_or(0);
    let index = mem
        .index
        .map(|(r, scale)| state.gpr64(r).wrapping_mul(u64::from(scale.factor())))
        .unwrap_or(0);
    base.wrapping_add(index)
        .wrapping_add(mem.disp as i64 as u64)
}

/// Executes one instruction, mutating `state` and `mem`.
///
/// # Errors
///
/// Returns an [`ExecFault`] on unmapped memory, divide error, or an
/// unsupported operation. Page faults are precise: an instruction that
/// raises [`ExecFault::Seg`] leaves state and memory exactly as they were
/// before it, so the monitor can map the page and resume at it.
pub fn execute_inst(
    inst: &Inst,
    state: &mut CpuState,
    mem: &mut Memory,
) -> Result<InstEffects, ExecFault> {
    let mut fx = InstEffects::default();
    if inst.mnemonic().is_sse() {
        vector::execute(inst, state, mem, &mut fx)?;
    } else {
        scalar::execute(inst, state, mem, &mut fx)?;
    }
    Ok(fx)
}

/// Reads a scalar operand value (GPR, immediate, or memory load).
fn read_scalar_operand(
    op: &Operand,
    state: &CpuState,
    mem: &Memory,
    fx: &mut InstEffects,
) -> Result<u64, ExecFault> {
    match op {
        Operand::Gpr { reg, size } => Ok(state.gpr(*reg, *size)),
        Operand::Imm(v) => Ok(*v as u64),
        Operand::Mem(m) => {
            let vaddr = effective_addr(m, state);
            let value = mem.read_scalar(vaddr, m.width)?;
            let paddr = mem.phys_addr(vaddr, false)?;
            fx.load = Some(MemAccess {
                vaddr,
                paddr,
                width: m.width,
                write: false,
            });
            Ok(value)
        }
        Operand::Vec(_) => unreachable!("vector operand in scalar context"),
    }
}

/// Writes a scalar result to a GPR or memory destination.
fn write_scalar_operand(
    op: &Operand,
    value: u64,
    state: &mut CpuState,
    mem: &mut Memory,
    fx: &mut InstEffects,
) -> Result<(), ExecFault> {
    match op {
        Operand::Gpr { reg, size } => {
            state.set_gpr(*reg, *size, value);
            Ok(())
        }
        Operand::Mem(m) => {
            let vaddr = effective_addr(m, state);
            mem.write_scalar(vaddr, m.width, value)?;
            let paddr = mem.phys_addr(vaddr, true)?;
            fx.store = Some(MemAccess {
                vaddr,
                paddr,
                width: m.width,
                write: true,
            });
            Ok(())
        }
        _ => unreachable!("immediate/vector destination"),
    }
}

/// Operand width in bytes for the instruction's primary operation.
fn op_width(inst: &Inst) -> u8 {
    inst.width_bytes()
}

pub(crate) use scalar::flags_read;
#[allow(unused_imports)]
pub(crate) use scalar::flags_written;

#[cfg(test)]
mod tests {
    use super::*;
    use bhive_asm::parse_inst;
    use bhive_asm::{Gpr, OpSize};

    fn setup() -> (CpuState, Memory) {
        let mut state = CpuState::new();
        state.reset_with_fill(0x1234_5600);
        let mut mem = Memory::new();
        let page = mem.alloc_page(0x1234_5600);
        // Map the page the fill pattern points into.
        mem.map(0x1234_5600, page);
        (state, mem)
    }

    fn run(text: &str, state: &mut CpuState, mem: &mut Memory) -> InstEffects {
        execute_inst(&parse_inst(text).unwrap(), state, mem)
            .unwrap_or_else(|e| panic!("{text}: {e}"))
    }

    #[test]
    fn effective_addresses() {
        let (mut state, _mem) = setup();
        state.set_gpr(Gpr::Rbx, OpSize::Q, 0x1000);
        state.set_gpr(Gpr::Rcx, OpSize::Q, 0x10);
        let m = parse_inst("lea rax, [rbx + 4*rcx - 8]").unwrap();
        let mem_ref = m.operands()[1].as_mem().unwrap();
        assert_eq!(effective_addr(mem_ref, &state), 0x1000 + 0x40 - 8);
    }

    #[test]
    fn load_records_access() {
        let (mut state, mut mem) = setup();
        let fx = run("mov rax, qword ptr [rbx]", &mut state, &mut mem);
        let load = fx.load.unwrap();
        assert_eq!(load.vaddr, 0x1234_5600);
        assert!(!load.write);
        assert_eq!(state.gpr64(Gpr::Rax), 0x1234_5600_1234_5600);
    }

    #[test]
    fn segfault_reports_address() {
        let (mut state, mut mem) = setup();
        state.set_gpr(Gpr::Rdi, OpSize::Q, 0xDEAD_0000);
        let err = execute_inst(
            &parse_inst("mov eax, dword ptr [rdi]").unwrap(),
            &mut state,
            &mut mem,
        )
        .unwrap_err();
        match err {
            ExecFault::Seg(s) => assert_eq!(s.vaddr, 0xDEAD_0000),
            other => panic!("expected segfault, got {other:?}"),
        }
    }
}
