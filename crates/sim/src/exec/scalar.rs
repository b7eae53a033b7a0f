//! Scalar (general-purpose) instruction semantics.

use super::{
    effective_addr, op_width, read_scalar_operand, write_scalar_operand, ExecFault, InstEffects,
    MemAccess,
};
use crate::mem::Memory;
use crate::state::{CpuState, Flags};
use bhive_asm::{Gpr, Inst, MemRef, Mnemonic, OpSize};

/// Sign-extends `value` from `width` bytes to 64 bits.
pub(super) fn sext(value: u64, width: u8) -> i64 {
    let shift = 64 - u32::from(width) * 8;
    ((value << shift) as i64) >> shift
}

/// True if the low byte of `value` has even parity (x86 PF).
pub(super) fn parity(value: u64) -> bool {
    (value as u8).count_ones().is_multiple_of(2)
}

pub(super) fn logic_flags(result: u64, width: u8) -> Flags {
    let masked = result & width_mask(width);
    Flags {
        cf: false,
        of: false,
        zf: masked == 0,
        sf: masked >> (width * 8 - 1) & 1 == 1,
        pf: parity(masked),
    }
}

pub(super) fn width_mask(width: u8) -> u64 {
    match width {
        1 => 0xFF,
        2 => 0xFFFF,
        4 => 0xFFFF_FFFF,
        _ => u64::MAX,
    }
}

/// Computes `a + b + carry_in` with full flag generation. The sum is
/// formed in 128-bit arithmetic so carry-out is exact even at the
/// wrap-around corner (`b == mask` with carry-in, where the 64-bit sum
/// lands back on `a`).
pub(super) fn add_with_flags(a: u64, b: u64, carry_in: bool, width: u8) -> (u64, Flags) {
    let mask = width_mask(width);
    let (a, b) = (a & mask, b & mask);
    let wide = u128::from(a) + u128::from(b) + u128::from(carry_in);
    let result = (wide as u64) & mask;
    let sign_bit = 1u64 << (width * 8 - 1);
    let cf = wide > u128::from(mask);
    let of = ((a ^ result) & (b ^ result) & sign_bit) != 0;
    (
        result,
        Flags {
            cf,
            of,
            zf: result == 0,
            sf: result & sign_bit != 0,
            pf: parity(result),
        },
    )
}

/// Computes `a - b - borrow_in` with full flag generation (exact borrow
/// via 128-bit arithmetic).
pub(super) fn sub_with_flags(a: u64, b: u64, borrow_in: bool, width: u8) -> (u64, Flags) {
    let mask = width_mask(width);
    let (a, b) = (a & mask, b & mask);
    let rhs = u128::from(b) + u128::from(borrow_in);
    let result = (u128::from(a).wrapping_sub(rhs) as u64) & mask;
    let sign_bit = 1u64 << (width * 8 - 1);
    let cf = u128::from(a) < rhs;
    let of = ((a ^ b) & (a ^ result) & sign_bit) != 0;
    (
        result,
        Flags {
            cf,
            of,
            zf: result == 0,
            sf: result & sign_bit != 0,
            pf: parity(result),
        },
    )
}

/// Which flags an instruction writes (used for dependency tracking in the
/// timing model). Delegates to the shared semantics on [`Inst`].
pub(crate) fn flags_written(inst: &Inst) -> bool {
    inst.writes_flags()
}

/// Whether the instruction reads flags.
pub(crate) fn flags_read(inst: &Inst) -> bool {
    inst.reads_flags()
}

pub(super) fn execute(
    inst: &Inst,
    state: &mut CpuState,
    mem: &mut Memory,
    fx: &mut InstEffects,
) -> Result<(), ExecFault> {
    use Mnemonic::*;
    let width = op_width(inst);
    let ops = inst.operands();

    match inst.mnemonic() {
        Nop | Jcc => {}
        Mov => {
            let src = read_scalar_operand(&ops[1], state, mem, fx)?;
            write_scalar_operand(&ops[0], src, state, mem, fx)?;
        }
        Movzx => {
            let src = read_scalar_operand(&ops[1], state, mem, fx)?;
            write_scalar_operand(&ops[0], src, state, mem, fx)?;
        }
        Movsx | Movsxd => {
            let src_width = ops[1].width_bytes().unwrap_or(4);
            let src = read_scalar_operand(&ops[1], state, mem, fx)?;
            write_scalar_operand(&ops[0], sext(src, src_width) as u64, state, mem, fx)?;
        }
        Bswap => {
            let v = read_scalar_operand(&ops[0], state, mem, fx)?;
            let swapped = match width {
                4 => u64::from((v as u32).swap_bytes()),
                _ => v.swap_bytes(),
            };
            write_scalar_operand(&ops[0], swapped, state, mem, fx)?;
        }
        Lea => {
            let mem_ref = ops[1].as_mem().expect("lea memory operand");
            let addr = effective_addr(mem_ref, state);
            write_scalar_operand(&ops[0], addr, state, mem, fx)?;
        }
        Push => {
            // Store first, then lower RSP: a faulting push leaves RSP
            // untouched (precise faults).
            let value = read_scalar_operand(&ops[0], state, mem, fx)?;
            let rsp = state.gpr64(Gpr::Rsp).wrapping_sub(8);
            store_to(rsp, 8, value, state, mem, fx)?;
            state.set_gpr(Gpr::Rsp, OpSize::Q, rsp);
        }
        Pop => {
            let rsp = state.gpr64(Gpr::Rsp);
            let value = load_from(rsp, 8, state, mem, fx)?;
            // A memory destination addresses through the raised RSP (as
            // on x86), but a faulting store must leave RSP untouched.
            state.set_gpr(Gpr::Rsp, OpSize::Q, rsp.wrapping_add(8));
            if let Err(fault) = write_scalar_operand(&ops[0], value, state, mem, fx) {
                state.set_gpr(Gpr::Rsp, OpSize::Q, rsp);
                return Err(fault);
            }
        }
        Add | Adc | Sub | Sbb | Cmp => {
            let a = read_scalar_operand(&ops[0], state, mem, fx)?;
            let b = read_scalar_operand(&ops[1], state, mem, fx)?;
            let carry = state.flags.cf;
            let (result, flags) = match inst.mnemonic() {
                Add => add_with_flags(a, b, false, width),
                Adc => add_with_flags(a, b, carry, width),
                Sub | Cmp => sub_with_flags(a, b, false, width),
                Sbb => sub_with_flags(a, b, carry, width),
                _ => unreachable!(),
            };
            state.flags = flags;
            if inst.mnemonic() != Cmp {
                write_scalar_operand(&ops[0], result, state, mem, fx)?;
            }
        }
        And | Or | Xor | Test => {
            let a = read_scalar_operand(&ops[0], state, mem, fx)?;
            let b = read_scalar_operand(&ops[1], state, mem, fx)?;
            let result = match inst.mnemonic() {
                And | Test => a & b,
                Or => a | b,
                Xor => a ^ b,
                _ => unreachable!(),
            };
            state.flags = logic_flags(result, width);
            if inst.mnemonic() != Test {
                write_scalar_operand(&ops[0], result, state, mem, fx)?;
            }
        }
        Inc | Dec => {
            let a = read_scalar_operand(&ops[0], state, mem, fx)?;
            let cf = state.flags.cf; // inc/dec preserve CF
            let (result, mut flags) = if inst.mnemonic() == Inc {
                add_with_flags(a, 1, false, width)
            } else {
                sub_with_flags(a, 1, false, width)
            };
            flags.cf = cf;
            state.flags = flags;
            write_scalar_operand(&ops[0], result, state, mem, fx)?;
        }
        Neg => {
            let a = read_scalar_operand(&ops[0], state, mem, fx)?;
            let (result, mut flags) = sub_with_flags(0, a, false, width);
            flags.cf = a & width_mask(width) != 0;
            state.flags = flags;
            write_scalar_operand(&ops[0], result, state, mem, fx)?;
        }
        Not => {
            let a = read_scalar_operand(&ops[0], state, mem, fx)?;
            write_scalar_operand(&ops[0], !a, state, mem, fx)?;
        }
        Shl | Shr | Sar | Rol | Ror => {
            let a = read_scalar_operand(&ops[0], state, mem, fx)?;
            let count_raw = read_scalar_operand(&ops[1], state, mem, fx)?;
            let count = (count_raw & if width == 8 { 63 } else { 31 }) as u32;
            let bits = u32::from(width) * 8;
            let mask = width_mask(width);
            let a = a & mask;
            let result = if count == 0 {
                a
            } else {
                match inst.mnemonic() {
                    Shl => a.wrapping_shl(count) & mask,
                    Shr => a.wrapping_shr(count),
                    Sar => (sext(a, width) >> count.min(bits - 1)) as u64 & mask,
                    Rol => {
                        let c = count % bits;
                        ((a << c) | (a >> (bits - c).min(63))) & mask
                    }
                    Ror => {
                        let c = count % bits;
                        ((a >> c) | (a << (bits - c).min(63))) & mask
                    }
                    _ => unreachable!(),
                }
            };
            if count != 0 && matches!(inst.mnemonic(), Shl | Shr | Sar) {
                let cf = match inst.mnemonic() {
                    Shl => count <= bits && (a >> (bits - count)) & 1 == 1,
                    _ => count <= bits && (a >> (count - 1)) & 1 == 1,
                };
                let mut flags = logic_flags(result, width);
                flags.cf = cf;
                state.flags = flags;
            }
            write_scalar_operand(&ops[0], result, state, mem, fx)?;
        }
        Imul => match ops.len() {
            1 => {
                let src = sext(read_scalar_operand(&ops[0], state, mem, fx)?, width) as i128;
                let acc = sext(state.gpr(Gpr::Rax, size_of(width)), width) as i128;
                let product = acc * src;
                write_mul_result(product as u128, width, state);
                // CF/OF set when the product does not fit the low half,
                // at the operand width.
                let low = (product as u64) & width_mask(width);
                let overflow = product != i128::from(sext(low, width));
                state.flags.cf = overflow;
                state.flags.of = overflow;
            }
            _ => {
                let (a, b) = if ops.len() == 2 {
                    (
                        sext(read_scalar_operand(&ops[0], state, mem, fx)?, width),
                        sext(read_scalar_operand(&ops[1], state, mem, fx)?, width),
                    )
                } else {
                    (
                        sext(read_scalar_operand(&ops[1], state, mem, fx)?, width),
                        read_scalar_operand(&ops[2], state, mem, fx)? as i64,
                    )
                };
                let wide = i128::from(a) * i128::from(b);
                let result = (wide as u64) & width_mask(width);
                let overflow = wide != (sext(result, width) as i128);
                state.flags.cf = overflow;
                state.flags.of = overflow;
                state.flags.zf = result == 0;
                state.flags.sf = result >> (width * 8 - 1) & 1 == 1;
                write_scalar_operand(&ops[0], result, state, mem, fx)?;
            }
        },
        Mul => {
            let src = read_scalar_operand(&ops[0], state, mem, fx)? & width_mask(width);
            let acc = state.gpr(Gpr::Rax, size_of(width));
            let product = u128::from(acc) * u128::from(src);
            write_mul_result(product, width, state);
            let high_set = product >> (width * 8) != 0;
            state.flags.cf = high_set;
            state.flags.of = high_set;
        }
        Div | Idiv => {
            let divisor_raw = read_scalar_operand(&ops[0], state, mem, fx)? & width_mask(width);
            if divisor_raw == 0 {
                return Err(ExecFault::DivideError);
            }
            let size = size_of(width);
            let lo = state.gpr(Gpr::Rax, size);
            let hi = state.gpr(Gpr::Rdx, size);
            fx.div_rdx_zero = hi == 0;
            let (quotient, remainder) = if inst.mnemonic() == Div {
                let dividend = (u128::from(hi) << (width * 8)) | u128::from(lo);
                let q = dividend / u128::from(divisor_raw);
                if q > u128::from(width_mask(width)) {
                    return Err(ExecFault::DivideError);
                }
                (q as u64, (dividend % u128::from(divisor_raw)) as u64)
            } else {
                let dividend =
                    ((i128::from(sext(hi, width)) << (width * 8)) as u128 | u128::from(lo)) as i128;
                let divisor = i128::from(sext(divisor_raw, width));
                let q = dividend / divisor;
                let limit = i128::from(width_mask(width) >> 1);
                if q > limit || q < -limit - 1 {
                    return Err(ExecFault::DivideError);
                }
                (q as u64, (dividend % divisor) as u64)
            };
            fx.div_quotient_bits = Some(64 - quotient.leading_zeros());
            state.set_gpr(Gpr::Rax, size, quotient);
            state.set_gpr(Gpr::Rdx, size, remainder);
        }
        Cdq => {
            let sign = if state.gpr(Gpr::Rax, OpSize::D) >> 31 & 1 == 1 {
                u64::MAX
            } else {
                0
            };
            state.set_gpr(Gpr::Rdx, OpSize::D, sign);
        }
        Cqo => {
            let sign = if state.gpr64(Gpr::Rax) >> 63 & 1 == 1 {
                u64::MAX
            } else {
                0
            };
            state.set_gpr(Gpr::Rdx, OpSize::Q, sign);
        }
        Popcnt | Lzcnt | Tzcnt => {
            let src = read_scalar_operand(&ops[1], state, mem, fx)? & width_mask(width);
            let bits = u32::from(width) * 8;
            let result = match inst.mnemonic() {
                Popcnt => u64::from(src.count_ones()),
                Lzcnt => u64::from(src.leading_zeros().saturating_sub(64 - bits)),
                Tzcnt => u64::from(src.trailing_zeros().min(bits)),
                _ => unreachable!(),
            };
            state.flags.zf = result == 0;
            // POPCNT clears CF; LZCNT/TZCNT set CF when the source is 0.
            state.flags.cf = inst.mnemonic() != Popcnt && src == 0;
            write_scalar_operand(&ops[0], result, state, mem, fx)?;
        }
        Set => {
            let cond = inst.cond().expect("setcc condition");
            let f = state.flags;
            let value = u64::from(cond.eval(f.cf, f.zf, f.sf, f.of, f.pf));
            write_scalar_operand(&ops[0], value, state, mem, fx)?;
        }
        Cmov => {
            let cond = inst.cond().expect("cmovcc condition");
            let f = state.flags;
            let src = read_scalar_operand(&ops[1], state, mem, fx)?;
            if cond.eval(f.cf, f.zf, f.sf, f.of, f.pf) {
                write_scalar_operand(&ops[0], src, state, mem, fx)?;
            }
        }
        other => unreachable!("scalar executor got {other:?}"),
    }
    Ok(())
}

pub(super) fn size_of(width: u8) -> OpSize {
    OpSize::from_bytes(width).unwrap_or(OpSize::Q)
}

pub(super) fn write_mul_result(product: u128, width: u8, state: &mut CpuState) {
    if width == 1 {
        // Byte multiply: AX = AL * src; RDX is untouched.
        state.set_gpr(Gpr::Rax, OpSize::W, product as u64 & 0xFFFF);
        return;
    }
    let size = size_of(width);
    state.set_gpr(Gpr::Rax, size, product as u64);
    state.set_gpr(Gpr::Rdx, size, (product >> (width * 8)) as u64);
}

pub(super) fn store_to(
    vaddr: u64,
    width: u8,
    value: u64,
    _state: &CpuState,
    mem: &mut Memory,
    fx: &mut InstEffects,
) -> Result<(), ExecFault> {
    mem.write_scalar(vaddr, width, value)?;
    let paddr = mem.phys_addr(vaddr, true)?;
    fx.store = Some(MemAccess {
        vaddr,
        paddr,
        width,
        write: true,
    });
    Ok(())
}

pub(super) fn load_from(
    vaddr: u64,
    width: u8,
    _state: &CpuState,
    mem: &Memory,
    fx: &mut InstEffects,
) -> Result<u64, ExecFault> {
    let value = mem.read_scalar(vaddr, width)?;
    let paddr = mem.phys_addr(vaddr, false)?;
    fx.load = Some(MemAccess {
        vaddr,
        paddr,
        width,
        write: false,
    });
    Ok(value)
}

/// Suppress an unused-import warning: `MemRef` is used in signatures above
/// via `effective_addr`.
#[allow(dead_code)]
fn _touch(_: &MemRef) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_inst;
    use bhive_asm::parse_inst;

    fn fresh() -> (CpuState, Memory) {
        (CpuState::new(), Memory::new())
    }

    fn run(text: &str, state: &mut CpuState, mem: &mut Memory) {
        execute_inst(&parse_inst(text).unwrap(), state, mem)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
    }

    #[test]
    fn add_sets_flags() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rax, OpSize::Q, u64::MAX);
        run("add rax, 1", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rax), 0);
        assert!(s.flags.cf && s.flags.zf && !s.flags.of);
        // Signed overflow: 0x7FFF...F + 1.
        s.set_gpr(Gpr::Rax, OpSize::Q, i64::MAX as u64);
        run("add rax, 1", &mut s, &mut m);
        assert!(s.flags.of && s.flags.sf && !s.flags.cf);
    }

    #[test]
    fn sub_cmp_flags() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rax, OpSize::Q, 3);
        s.set_gpr(Gpr::Rbx, OpSize::Q, 5);
        run("cmp rax, rbx", &mut s, &mut m);
        assert!(s.flags.cf, "3 < 5 unsigned");
        assert!(s.flags.sf != s.flags.of, "3 < 5 signed");
        assert_eq!(s.gpr64(Gpr::Rax), 3, "cmp does not write");
    }

    #[test]
    fn adc_carry_out_at_wraparound() {
        // rax + 0xFFFF..FF + CF(1) == rax exactly: carry-out must still
        // be set (the 64-bit sum wraps onto the original value).
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rax, OpSize::Q, u64::MAX);
        run("add rax, 1", &mut s, &mut m); // CF=1, rax=0
        s.set_gpr(Gpr::Rax, OpSize::Q, 5);
        run("adc rax, -1", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rax), 5, "5 + (2^64-1) + 1 wraps to 5");
        assert!(s.flags.cf, "carry-out must survive the wrap");
        assert!(!s.flags.zf);
    }

    #[test]
    fn sbb_borrow_at_wraparound() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rax, OpSize::Q, 0);
        run("add rax, 0", &mut s, &mut m); // CF=0
        s.set_gpr(Gpr::Rax, OpSize::Q, u64::MAX);
        run("add rax, 1", &mut s, &mut m); // CF=1
        s.set_gpr(Gpr::Rax, OpSize::Q, 5);
        run("sbb rax, -1", &mut s, &mut m); // 5 - (2^64-1) - 1 = 5 with borrow
        assert_eq!(s.gpr64(Gpr::Rax), 5);
        assert!(s.flags.cf, "borrow-out must survive the wrap");
    }

    #[test]
    fn adc_sbb_chain() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rax, OpSize::Q, u64::MAX);
        s.set_gpr(Gpr::Rdx, OpSize::Q, 0);
        run("add rax, 1", &mut s, &mut m); // CF=1
        run("adc rdx, 0", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rdx), 1);
    }

    #[test]
    fn inc_preserves_cf() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rax, OpSize::Q, u64::MAX);
        run("add rax, 1", &mut s, &mut m); // CF=1
        run("inc rax", &mut s, &mut m);
        assert!(s.flags.cf, "inc must not clobber CF");
        assert_eq!(s.gpr64(Gpr::Rax), 1);
    }

    #[test]
    fn shifts() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rax, OpSize::Q, 0b1011);
        run("shl rax, 4", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rax), 0b1011_0000);
        run("shr rax, 5", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rax), 0b101);
        s.set_gpr(Gpr::Rax, OpSize::D, 0x8000_0000);
        run("sar eax, 4", &mut s, &mut m);
        assert_eq!(s.gpr(Gpr::Rax, OpSize::D), 0xF800_0000);
        s.set_gpr(Gpr::Rbx, OpSize::D, 0x8000_0001);
        run("ror ebx, 1", &mut s, &mut m);
        assert_eq!(s.gpr(Gpr::Rbx, OpSize::D), 0xC000_0000);
    }

    #[test]
    fn mul_div_round_trip() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rax, OpSize::Q, 123_456_789);
        s.set_gpr(Gpr::Rcx, OpSize::Q, 987_654_321);
        run("mul rcx", &mut s, &mut m);
        // Now divide back.
        run("div rcx", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rax), 123_456_789);
        assert_eq!(s.gpr64(Gpr::Rdx), 0);
    }

    #[test]
    fn div_records_fast_path_info() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rdx, OpSize::Q, 0);
        s.set_gpr(Gpr::Rax, OpSize::Q, 100);
        s.set_gpr(Gpr::Rcx, OpSize::Q, 7);
        let fx = execute_inst(&parse_inst("div rcx").unwrap(), &mut s, &mut m).unwrap();
        assert!(fx.div_rdx_zero);
        assert_eq!(fx.div_quotient_bits, Some(4)); // 14 = 0b1110
        assert_eq!(s.gpr64(Gpr::Rax), 14);
        assert_eq!(s.gpr64(Gpr::Rdx), 2);
    }

    #[test]
    fn divide_errors() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rcx, OpSize::Q, 0);
        let err = execute_inst(&parse_inst("div rcx").unwrap(), &mut s, &mut m).unwrap_err();
        assert_eq!(err, ExecFault::DivideError);
        // Quotient overflow: rdx:rax / 1 with rdx != 0.
        s.set_gpr(Gpr::Rdx, OpSize::Q, 5);
        s.set_gpr(Gpr::Rcx, OpSize::Q, 1);
        let err = execute_inst(&parse_inst("div rcx").unwrap(), &mut s, &mut m).unwrap_err();
        assert_eq!(err, ExecFault::DivideError);
    }

    #[test]
    fn idiv_signed() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rax, OpSize::Q, (-100i64) as u64);
        run("cqo", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rdx), u64::MAX);
        s.set_gpr(Gpr::Rcx, OpSize::Q, 7);
        run("idiv rcx", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rax) as i64, -14);
        assert_eq!(s.gpr64(Gpr::Rdx) as i64, -2);
    }

    #[test]
    fn bit_counts() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rbx, OpSize::Q, 0xF0F0);
        run("popcnt rax, rbx", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rax), 8);
        run("tzcnt rax, rbx", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rax), 4);
        s.set_gpr(Gpr::Rbx, OpSize::D, 1);
        run("lzcnt eax, ebx", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rax), 31);
    }

    #[test]
    fn setcc_cmovcc() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rax, OpSize::Q, 5);
        run("cmp rax, 5", &mut s, &mut m);
        run("sete bl", &mut s, &mut m);
        assert_eq!(s.gpr(Gpr::Rbx, OpSize::B), 1);
        s.set_gpr(Gpr::Rcx, OpSize::Q, 111);
        s.set_gpr(Gpr::Rdx, OpSize::Q, 222);
        run("cmove rcx, rdx", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rcx), 222);
        run("cmovne rcx, rax", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rcx), 222, "condition false: no write");
    }

    #[test]
    fn push_pop_stack() {
        let (mut s, mut m) = fresh();
        let page = m.alloc_page(0);
        m.map(0x8000_0000, page);
        s.set_gpr(Gpr::Rsp, OpSize::Q, 0x8000_0800);
        s.set_gpr(Gpr::Rbx, OpSize::Q, 0xCAFE);
        run("push rbx", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rsp), 0x8000_07F8);
        run("pop rcx", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rcx), 0xCAFE);
        assert_eq!(s.gpr64(Gpr::Rsp), 0x8000_0800);
    }

    #[test]
    fn movsx_movzx() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rbx, OpSize::B, 0x80);
        run("movzx eax, bl", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rax), 0x80);
        run("movsx eax, bl", &mut s, &mut m);
        assert_eq!(s.gpr(Gpr::Rax, OpSize::D), 0xFFFF_FF80);
        s.set_gpr(Gpr::Rcx, OpSize::D, 0x8000_0000);
        run("movsxd rdx, ecx", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rdx), 0xFFFF_FFFF_8000_0000);
    }

    #[test]
    fn bswap_widths() {
        let (mut s, mut m) = fresh();
        s.set_gpr(Gpr::Rax, OpSize::Q, 0x1122_3344_5566_7788);
        run("bswap rax", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rax), 0x8877_6655_4433_2211);
        s.set_gpr(Gpr::Rbx, OpSize::D, 0x1122_3344);
        run("bswap ebx", &mut s, &mut m);
        assert_eq!(s.gpr64(Gpr::Rbx), 0x4433_2211);
    }
}
