//! Functional execution of the supported instruction subset.
//!
//! Functional execution serves two purposes in the measurement framework:
//! it produces the *memory-address trace* that the page-mapping monitor
//! needs (which virtual pages does the block touch?), and it resolves the
//! value-dependent behaviours the timing model consumes — division
//! latencies, subnormal slow-downs, and faults.

pub(crate) mod lower;
pub(crate) mod ops;
mod scalar_ops;
mod vector_ops;

use crate::mem::SegFault;
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

pub(crate) use scalar_ops::{flags_read, flags_written};

/// Unit tests of the executor: each instruction runs as a one-instruction
/// block through a [`crate::Machine`]'s lowered path.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;
    use bhive_asm::{parse_block, Gpr, OpSize};
    use bhive_uarch::Uarch;

    /// A Haswell machine with zeroed registers and no mapped pages.
    pub(super) fn machine() -> Machine {
        Machine::new(Uarch::haswell(), 0)
    }

    /// Runs one instruction; its effects, or the fault it raised.
    pub(super) fn try_run(text: &str, machine: &mut Machine) -> Result<InstEffects, ExecFault> {
        let block = parse_block(text).unwrap();
        Ok(machine.execute_unrolled(block.insts(), 1)?[0].effects)
    }

    /// Runs one instruction that must not fault.
    pub(super) fn run(text: &str, machine: &mut Machine) -> InstEffects {
        try_run(text, machine).unwrap_or_else(|e| panic!("{text}: {e}"))
    }

    /// Registers at the fill, with the page the fill points into mapped.
    fn setup() -> Machine {
        let mut machine = machine();
        machine.reset(0x1234_5600);
        let page = machine.memory_mut().alloc_page(0x1234_5600);
        machine.memory_mut().map(0x1234_5600, page);
        machine
    }

    #[test]
    fn effective_addresses() {
        let mut m = setup();
        m.state_mut().set_gpr(Gpr::Rbx, OpSize::Q, 0x1000);
        m.state_mut().set_gpr(Gpr::Rcx, OpSize::Q, 0x10);
        run("lea rax, [rbx + 4*rcx - 8]", &mut m);
        assert_eq!(m.state().gpr64(Gpr::Rax), 0x1000 + 0x40 - 8);
    }

    #[test]
    fn load_records_access() {
        let mut m = setup();
        let fx = run("mov rax, qword ptr [rbx]", &mut m);
        let load = fx.load.unwrap();
        assert_eq!(load.vaddr, 0x1234_5600);
        assert_eq!(load.width, 8);
        assert!(!load.write);
        assert_eq!(m.state().gpr64(Gpr::Rax), 0x1234_5600_1234_5600);
    }

    #[test]
    fn segfault_reports_address() {
        let mut m = setup();
        m.state_mut().set_gpr(Gpr::Rdi, OpSize::Q, 0xDEAD_0000);
        match try_run("mov eax, dword ptr [rdi]", &mut m) {
            Err(ExecFault::Seg(s)) => assert_eq!(s.vaddr, 0xDEAD_0000),
            other => panic!("expected segfault, got {other:?}"),
        }
    }
}

/// The scalar kernels' semantics.
#[cfg(test)]
mod scalar {
    mod tests {
        use super::super::tests::{machine, run, try_run};
        use super::super::ExecFault;
        use bhive_asm::{Gpr, OpSize};

        #[test]
        fn add_sets_flags() {
            let mut m = machine();
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, u64::MAX);
            run("add rax, 1", &mut m);
            let s = m.state();
            assert_eq!(s.gpr64(Gpr::Rax), 0);
            assert!(s.flags.cf && s.flags.zf && !s.flags.of);
            // Signed overflow: 0x7FFF...F + 1.
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, i64::MAX as u64);
            run("add rax, 1", &mut m);
            let f = m.state().flags;
            assert!(f.of && f.sf && !f.cf);
        }

        #[test]
        fn sub_cmp_flags() {
            let mut m = machine();
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, 3);
            m.state_mut().set_gpr(Gpr::Rbx, OpSize::Q, 5);
            run("cmp rax, rbx", &mut m);
            let s = m.state();
            assert!(s.flags.cf, "3 < 5 unsigned");
            assert!(s.flags.sf != s.flags.of, "3 < 5 signed");
            assert_eq!(s.gpr64(Gpr::Rax), 3, "cmp does not write");
        }

        #[test]
        fn adc_carry_out_at_wraparound() {
            // rax + 0xFFFF..FF + CF(1) == rax exactly: carry-out must
            // still be set (the 64-bit sum wraps onto the original value).
            let mut m = machine();
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, u64::MAX);
            run("add rax, 1", &mut m); // CF=1, rax=0
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, 5);
            run("adc rax, -1", &mut m);
            let s = m.state();
            assert_eq!(s.gpr64(Gpr::Rax), 5, "5 + (2^64-1) + 1 wraps to 5");
            assert!(s.flags.cf, "carry-out must survive the wrap");
            assert!(!s.flags.zf);
        }

        #[test]
        fn sbb_borrow_at_wraparound() {
            let mut m = machine();
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, u64::MAX);
            run("add rax, 1", &mut m); // CF=1
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, 5);
            run("sbb rax, -1", &mut m); // 5 - (2^64-1) - 1 = 5 with borrow
            assert_eq!(m.state().gpr64(Gpr::Rax), 5);
            assert!(m.state().flags.cf, "borrow-out must survive the wrap");
        }

        #[test]
        fn adc_sbb_chain() {
            let mut m = machine();
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, u64::MAX);
            run("add rax, 1", &mut m); // CF=1
            run("adc rdx, 0", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rdx), 1);
        }

        #[test]
        fn inc_preserves_cf() {
            let mut m = machine();
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, u64::MAX);
            run("add rax, 1", &mut m); // CF=1
            run("inc rax", &mut m);
            assert!(m.state().flags.cf, "inc must not clobber CF");
            assert_eq!(m.state().gpr64(Gpr::Rax), 1);
        }

        #[test]
        fn shifts() {
            let mut m = machine();
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, 0b1011);
            run("shl rax, 4", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rax), 0b1011_0000);
            run("shr rax, 5", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rax), 0b101);
            m.state_mut().set_gpr(Gpr::Rax, OpSize::D, 0x8000_0000);
            run("sar eax, 4", &mut m);
            assert_eq!(m.state().gpr(Gpr::Rax, OpSize::D), 0xF800_0000);
            m.state_mut().set_gpr(Gpr::Rbx, OpSize::D, 0x8000_0001);
            run("ror ebx, 1", &mut m);
            assert_eq!(m.state().gpr(Gpr::Rbx, OpSize::D), 0xC000_0000);
            assert!(m.state().flags.cf, "ror copies the new MSB into CF");
        }

        #[test]
        fn mul_div_round_trip() {
            let mut m = machine();
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, 123_456_789);
            m.state_mut().set_gpr(Gpr::Rcx, OpSize::Q, 987_654_321);
            run("mul rcx", &mut m);
            run("div rcx", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rax), 123_456_789);
            assert_eq!(m.state().gpr64(Gpr::Rdx), 0);
        }

        #[test]
        fn div_records_fast_path_info() {
            let mut m = machine();
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, 100);
            m.state_mut().set_gpr(Gpr::Rcx, OpSize::Q, 7);
            let fx = run("div rcx", &mut m);
            assert!(fx.div_rdx_zero);
            assert_eq!(fx.div_quotient_bits, Some(4)); // 14 = 0b1110
            assert_eq!(m.state().gpr64(Gpr::Rax), 14);
            assert_eq!(m.state().gpr64(Gpr::Rdx), 2);
        }

        #[test]
        fn divide_errors() {
            let mut m = machine();
            let err = try_run("div rcx", &mut m).unwrap_err();
            assert_eq!(err, ExecFault::DivideError);
            // Quotient overflow: rdx:rax / 1 with rdx != 0.
            m.state_mut().set_gpr(Gpr::Rdx, OpSize::Q, 5);
            m.state_mut().set_gpr(Gpr::Rcx, OpSize::Q, 1);
            let err = try_run("div rcx", &mut m).unwrap_err();
            assert_eq!(err, ExecFault::DivideError);
            // A byte divide overflows when the quotient of AX exceeds AL.
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, 0x1000);
            let err = try_run("div cl", &mut m).unwrap_err();
            assert_eq!(err, ExecFault::DivideError);
        }

        #[test]
        fn idiv_signed() {
            let mut m = machine();
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, (-100i64) as u64);
            run("cqo", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rdx), u64::MAX);
            m.state_mut().set_gpr(Gpr::Rcx, OpSize::Q, 7);
            run("idiv rcx", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rax) as i64, -14);
            assert_eq!(m.state().gpr64(Gpr::Rdx) as i64, -2);
        }

        #[test]
        fn bit_counts() {
            let mut m = machine();
            m.state_mut().set_gpr(Gpr::Rbx, OpSize::Q, 0xF0F0);
            run("popcnt rax, rbx", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rax), 8);
            run("tzcnt rax, rbx", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rax), 4);
            m.state_mut().set_gpr(Gpr::Rbx, OpSize::D, 1);
            run("lzcnt eax, ebx", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rax), 31);
        }

        #[test]
        fn setcc_cmovcc() {
            let mut m = machine();
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, 5);
            run("cmp rax, 5", &mut m);
            run("sete bl", &mut m);
            assert_eq!(m.state().gpr(Gpr::Rbx, OpSize::B), 1);
            m.state_mut().set_gpr(Gpr::Rcx, OpSize::Q, 111);
            m.state_mut().set_gpr(Gpr::Rdx, OpSize::Q, 222);
            run("cmove rcx, rdx", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rcx), 222);
            run("cmovne rcx, rax", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rcx), 222, "condition false: no write");
        }

        #[test]
        fn push_pop_stack() {
            let mut m = machine();
            let page = m.memory_mut().alloc_page(0);
            m.memory_mut().map(0x8000_0000, page);
            m.state_mut().set_gpr(Gpr::Rsp, OpSize::Q, 0x8000_0800);
            m.state_mut().set_gpr(Gpr::Rbx, OpSize::Q, 0xCAFE);
            let fx = run("push rbx", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rsp), 0x8000_07F8);
            assert_eq!(fx.store.map(|s| (s.vaddr, s.width)), Some((0x8000_07F8, 8)));
            run("pop rcx", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rcx), 0xCAFE);
            assert_eq!(m.state().gpr64(Gpr::Rsp), 0x8000_0800);
        }

        #[test]
        fn movsx_movzx() {
            let mut m = machine();
            m.state_mut().set_gpr(Gpr::Rbx, OpSize::B, 0x80);
            run("movzx eax, bl", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rax), 0x80);
            run("movsx eax, bl", &mut m);
            assert_eq!(m.state().gpr(Gpr::Rax, OpSize::D), 0xFFFF_FF80);
            m.state_mut().set_gpr(Gpr::Rcx, OpSize::D, 0x8000_0000);
            run("movsxd rdx, ecx", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rdx), 0xFFFF_FFFF_8000_0000);
        }

        #[test]
        fn bswap_widths() {
            let mut m = machine();
            m.state_mut()
                .set_gpr(Gpr::Rax, OpSize::Q, 0x1122_3344_5566_7788);
            run("bswap rax", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rax), 0x8877_6655_4433_2211);
            m.state_mut().set_gpr(Gpr::Rbx, OpSize::D, 0x1122_3344);
            run("bswap ebx", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rbx), 0x4433_2211);
        }
    }
}

/// The vector kernels' semantics.
#[cfg(test)]
mod vector {
    mod tests {
        use super::super::tests::{machine, run, try_run};
        use super::super::ExecFault;
        use crate::Machine;
        use bhive_asm::{Gpr, OpSize, VecReg};

        fn set_f32_reg(m: &mut Machine, reg: u8, values: &[f32]) {
            let mut bytes = [0u8; 32];
            for (i, v) in values.iter().enumerate() {
                bytes[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
            }
            m.state_mut().set_vec(VecReg::ymm(reg), &bytes, false);
        }

        fn lane_u32(m: &Machine, reg: u8, lane: usize) -> u32 {
            let bytes = m.state().vec_raw(reg);
            u32::from_le_bytes(bytes[lane * 4..lane * 4 + 4].try_into().unwrap())
        }

        fn lane_f32(m: &Machine, reg: u8, lane: usize) -> f32 {
            f32::from_bits(lane_u32(m, reg, lane))
        }

        #[test]
        fn packed_add() {
            let mut m = machine();
            set_f32_reg(&mut m, 0, &[1.0, 2.0, 3.0, 4.0]);
            set_f32_reg(&mut m, 1, &[10.0, 20.0, 30.0, 40.0]);
            run("addps xmm0, xmm1", &mut m);
            assert_eq!(lane_f32(&m, 0, 0), 11.0);
            assert_eq!(lane_f32(&m, 0, 3), 44.0);
        }

        #[test]
        fn vex_three_operand_and_ymm() {
            let mut m = machine();
            set_f32_reg(&mut m, 1, &[1.0; 8]);
            set_f32_reg(&mut m, 2, &[2.0; 8]);
            run("vmulps ymm0, ymm1, ymm2", &mut m);
            for lane in 0..8 {
                assert_eq!(lane_f32(&m, 0, lane), 2.0);
            }
            // Source registers unchanged.
            assert_eq!(lane_f32(&m, 1, 0), 1.0);
        }

        #[test]
        fn fma_231_order() {
            let mut m = machine();
            set_f32_reg(&mut m, 0, &[100.0; 4]); // accumulator
            set_f32_reg(&mut m, 1, &[3.0; 4]);
            set_f32_reg(&mut m, 2, &[4.0; 4]);
            run("vfmadd231ps xmm0, xmm1, xmm2", &mut m);
            assert_eq!(lane_f32(&m, 0, 0), 112.0);
        }

        #[test]
        fn subnormal_event_depends_on_mxcsr() {
            let mut m = machine();
            let tiny = f32::MIN_POSITIVE / 2.0; // subnormal
            set_f32_reg(&mut m, 0, &[tiny; 4]);
            set_f32_reg(&mut m, 1, &[1.0; 4]);
            let fx = run("mulps xmm0, xmm1", &mut m);
            assert!(fx.subnormal, "gradual underflow enabled: event recorded");
            // With FTZ+DAZ the event disappears and the value flushes to zero.
            m.set_ftz_daz(true);
            set_f32_reg(&mut m, 0, &[tiny; 4]);
            let fx = run("mulps xmm0, xmm1", &mut m);
            assert!(!fx.subnormal);
            assert_eq!(lane_f32(&m, 0, 0), 0.0);
        }

        #[test]
        fn zero_idiom_result() {
            let mut m = machine();
            set_f32_reg(&mut m, 2, &[123.0; 8]);
            run("vxorps xmm2, xmm2, xmm2", &mut m);
            for lane in 0..8 {
                assert_eq!(lane_f32(&m, 2, lane), 0.0, "VEX-128 zeroes upper too");
            }
        }

        #[test]
        fn movaps_alignment_fault() {
            let mut m = machine();
            let page = m.memory_mut().alloc_page(0);
            m.memory_mut().map(0x1000, page);
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, 0x1008);
            let err = try_run("movaps xmm0, xmmword ptr [rax]", &mut m).unwrap_err();
            assert!(matches!(
                err,
                ExecFault::GeneralProtection { vaddr: 0x1008 }
            ));
            // Legacy-SSE arithmetic needs alignment too; movups and VEX
            // forms do not.
            let err = try_run("addps xmm0, xmmword ptr [rax]", &mut m).unwrap_err();
            assert!(matches!(err, ExecFault::GeneralProtection { .. }));
            run("movups xmm0, xmmword ptr [rax]", &mut m);
            run("vaddps xmm0, xmm0, xmmword ptr [rax]", &mut m);
        }

        #[test]
        fn pshufd_and_pmovmskb() {
            let mut m = machine();
            let mut bytes = [0u8; 16];
            for (i, chunk) in bytes.chunks_exact_mut(4).enumerate() {
                chunk.copy_from_slice(&(i as u32).to_le_bytes());
            }
            m.state_mut().set_vec(VecReg::xmm(1), &bytes, false);
            run("pshufd xmm0, xmm1, 0x1b", &mut m); // reverse dwords
            assert_eq!(lane_u32(&m, 0, 0), 3);
            assert_eq!(lane_u32(&m, 0, 3), 0);
            // pmovmskb: set top bits of some bytes.
            let mask_bytes = [0x80u8, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80];
            m.state_mut().set_vec(VecReg::xmm(3), &mask_bytes, false);
            run("pmovmskb eax, xmm3", &mut m);
            assert_eq!(m.state().gpr64(Gpr::Rax), 0b1000_0000_0000_0101);
        }

        #[test]
        fn packed_int_mul_and_cmp() {
            let mut m = machine();
            let mut a = [0u8; 16];
            let mut b = [0u8; 16];
            for lane in 0..4 {
                a[lane * 4..lane * 4 + 4].copy_from_slice(&(lane as u32 + 1).to_le_bytes());
                b[lane * 4..lane * 4 + 4].copy_from_slice(&3u32.to_le_bytes());
            }
            m.state_mut().set_vec(VecReg::xmm(0), &a, false);
            m.state_mut().set_vec(VecReg::xmm(1), &b, false);
            run("pmulld xmm0, xmm1", &mut m);
            assert_eq!(lane_u32(&m, 0, 0), 3);
            assert_eq!(lane_u32(&m, 0, 3), 12);
            run("pcmpeqd xmm0, xmm0", &mut m);
            assert_eq!(lane_u32(&m, 0, 2), u32::MAX);
        }

        #[test]
        fn movss_merge_vs_load() {
            let mut m = machine();
            set_f32_reg(&mut m, 0, &[9.0; 8]);
            set_f32_reg(&mut m, 1, &[5.0, 1.0, 1.0, 1.0]);
            run("movss xmm0, xmm1", &mut m);
            assert_eq!(lane_f32(&m, 0, 0), 5.0);
            assert_eq!(lane_f32(&m, 0, 1), 9.0, "reg-reg movss merges");
            // Load zeroes the rest of the xmm register, not the ymm half.
            let page = m.memory_mut().alloc_page(0);
            m.memory_mut().map(0x1000, page);
            m.memory_mut().write(0x1000, &7.5f32.to_le_bytes()).unwrap();
            m.state_mut().set_gpr(Gpr::Rax, OpSize::Q, 0x1000);
            run("movss xmm0, dword ptr [rax]", &mut m);
            assert_eq!(lane_f32(&m, 0, 0), 7.5);
            assert_eq!(lane_f32(&m, 0, 1), 0.0, "movss load zeroes upper");
            assert_eq!(lane_f32(&m, 0, 4), 9.0, "legacy SSE keeps the ymm half");
        }

        #[test]
        fn shufps_selects() {
            let mut m = machine();
            set_f32_reg(&mut m, 0, &[0.0, 1.0, 2.0, 3.0]);
            set_f32_reg(&mut m, 1, &[10.0, 11.0, 12.0, 13.0]);
            // imm 0b01_00_11_10: dst = [a2, a3, b0, b1]
            run("shufps xmm0, xmm1, 0x4e", &mut m);
            assert_eq!(lane_f32(&m, 0, 0), 2.0);
            assert_eq!(lane_f32(&m, 0, 1), 3.0);
            assert_eq!(lane_f32(&m, 0, 2), 10.0);
            assert_eq!(lane_f32(&m, 0, 3), 11.0);
        }
    }
}
