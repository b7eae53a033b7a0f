//! Scalar kernels over the predecoded IR, with the flag arithmetic they
//! share. Operand shapes, widths, and condition codes were resolved once
//! at lower time.
//!
//! The host CPU referees these semantics: `sim/tests/native_oracle.rs`
//! runs each block natively and compares the GPRs, the flags (masking
//! those the SDM leaves undefined after `mul`/`imul`, `div`, multi-bit
//! shifts and rotates, and `lzcnt`/`tzcnt`), memory and the fault class.

use super::ops::{ArithSel, BitCountSel, ExecOp, LogicSel, SOp, ShiftSel};
use super::{ExecFault, InstEffects, MemAccess};
use crate::mem::Memory;
use crate::state::{CpuState, Flags};
use bhive_asm::{Gpr, Inst, OpSize};

/// Sign-extends `value` from `width` bytes to 64 bits.
fn sext(value: u64, width: u8) -> i64 {
    let shift = 64 - u32::from(width) * 8;
    ((value << shift) as i64) >> shift
}

/// True if the low byte of `value` has even parity (x86 PF).
fn parity(value: u64) -> bool {
    (value as u8).count_ones().is_multiple_of(2)
}

fn logic_flags(result: u64, width: u8) -> Flags {
    let masked = result & width_mask(width);
    Flags {
        cf: false,
        of: false,
        zf: masked == 0,
        sf: masked >> (width * 8 - 1) & 1 == 1,
        pf: parity(masked),
    }
}

fn width_mask(width: u8) -> u64 {
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
fn add_with_flags(a: u64, b: u64, carry_in: bool, width: u8) -> (u64, Flags) {
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
fn sub_with_flags(a: u64, b: u64, borrow_in: bool, width: u8) -> (u64, Flags) {
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

fn size_of(width: u8) -> OpSize {
    OpSize::from_bytes(width).unwrap_or(OpSize::Q)
}

fn write_mul_result(product: u128, width: u8, state: &mut CpuState) {
    if width == 1 {
        // Byte multiply: AX = AL * src; RDX is untouched.
        state.set_gpr(Gpr::Rax, OpSize::W, product as u64 & 0xFFFF);
        return;
    }
    let size = size_of(width);
    state.set_gpr(Gpr::Rax, size, product as u64);
    state.set_gpr(Gpr::Rdx, size, (product >> (width * 8)) as u64);
}

/// Reads a pre-resolved scalar operand (memory loads use the operand's
/// own width and record the access in `fx`).
#[inline]
pub(super) fn read_sop(
    op: SOp,
    state: &CpuState,
    mem: &Memory,
    fx: &mut InstEffects,
) -> Result<u64, ExecFault> {
    match op {
        SOp::Gpr(reg, size) => Ok(state.gpr(reg, size)),
        SOp::Imm(v) => Ok(v as u64),
        SOp::Mem(ea) => {
            let vaddr = ea.resolve(state);
            let (value, paddr) = mem.read_scalar_paddr(vaddr, ea.width)?;
            fx.load = Some(MemAccess {
                vaddr,
                paddr,
                width: ea.width,
                write: false,
            });
            Ok(value)
        }
    }
}

/// Writes a pre-resolved scalar destination (memory stores record the
/// access in `fx`).
#[inline]
pub(super) fn write_sop(
    op: SOp,
    value: u64,
    state: &mut CpuState,
    mem: &mut Memory,
    fx: &mut InstEffects,
) -> Result<(), ExecFault> {
    match op {
        SOp::Gpr(reg, size) => {
            state.set_gpr(reg, size, value);
            Ok(())
        }
        SOp::Mem(ea) => {
            let vaddr = ea.resolve(state);
            let paddr = mem.write_scalar_paddr(vaddr, ea.width, value)?;
            fx.store = Some(MemAccess {
                vaddr,
                paddr,
                width: ea.width,
                write: true,
            });
            Ok(())
        }
        SOp::Imm(_) => unreachable!("immediate destination"),
    }
}

/// Executes a scalar op. Returns `Ok(true)` when the op was scalar and
/// handled here, `Ok(false)` when it belongs to the vector kernel.
pub(super) fn execute(
    op: &ExecOp,
    state: &mut CpuState,
    mem: &mut Memory,
    fx: &mut InstEffects,
) -> Result<bool, ExecFault> {
    match *op {
        ExecOp::Nop => {}
        ExecOp::Mov { dst, src } => {
            let v = read_sop(src, state, mem, fx)?;
            write_sop(dst, v, state, mem, fx)?;
        }
        ExecOp::Movsx {
            dst,
            src,
            src_width,
        } => {
            let v = read_sop(src, state, mem, fx)?;
            write_sop(dst, sext(v, src_width) as u64, state, mem, fx)?;
        }
        ExecOp::Bswap { dst, width } => {
            let v = read_sop(dst, state, mem, fx)?;
            let swapped = match width {
                4 => u64::from((v as u32).swap_bytes()),
                _ => v.swap_bytes(),
            };
            write_sop(dst, swapped, state, mem, fx)?;
        }
        ExecOp::Lea { dst, ea } => {
            let addr = ea.resolve(state);
            write_sop(dst, addr, state, mem, fx)?;
        }
        ExecOp::Push { src } => {
            // Store first, then lower RSP: a faulting push leaves RSP
            // untouched (precise faults).
            let value = read_sop(src, state, mem, fx)?;
            let rsp = state.gpr64(Gpr::Rsp).wrapping_sub(8);
            let paddr = mem.write_scalar_paddr(rsp, 8, value)?;
            fx.store = Some(MemAccess {
                vaddr: rsp,
                paddr,
                width: 8,
                write: true,
            });
            state.set_gpr(Gpr::Rsp, OpSize::Q, rsp);
        }
        ExecOp::Pop { dst } => {
            let rsp = state.gpr64(Gpr::Rsp);
            let (value, paddr) = mem.read_scalar_paddr(rsp, 8)?;
            fx.load = Some(MemAccess {
                vaddr: rsp,
                paddr,
                width: 8,
                write: false,
            });
            // Raise RSP before writing the register, so `pop rsp` keeps
            // the popped value.
            state.set_gpr(Gpr::Rsp, OpSize::Q, rsp.wrapping_add(8));
            write_sop(dst, value, state, mem, fx)?;
        }
        ExecOp::Arith {
            sel,
            dst,
            src,
            width,
        } => {
            let a = read_sop(dst, state, mem, fx)?;
            let b = read_sop(src, state, mem, fx)?;
            let carry = state.flags.cf;
            let (result, flags) = match sel {
                ArithSel::Add => add_with_flags(a, b, false, width),
                ArithSel::Adc => add_with_flags(a, b, carry, width),
                ArithSel::Sub | ArithSel::Cmp => sub_with_flags(a, b, false, width),
                ArithSel::Sbb => sub_with_flags(a, b, carry, width),
            };
            state.flags = flags;
            if sel != ArithSel::Cmp {
                write_sop(dst, result, state, mem, fx)?;
            }
        }
        ExecOp::Logic {
            sel,
            dst,
            src,
            width,
        } => {
            let a = read_sop(dst, state, mem, fx)?;
            let b = read_sop(src, state, mem, fx)?;
            let result = match sel {
                LogicSel::And | LogicSel::Test => a & b,
                LogicSel::Or => a | b,
                LogicSel::Xor => a ^ b,
            };
            state.flags = logic_flags(result, width);
            if sel != LogicSel::Test {
                write_sop(dst, result, state, mem, fx)?;
            }
        }
        ExecOp::IncDec { inc, dst, width } => {
            let a = read_sop(dst, state, mem, fx)?;
            let cf = state.flags.cf; // inc/dec preserve CF
            let (result, mut flags) = if inc {
                add_with_flags(a, 1, false, width)
            } else {
                sub_with_flags(a, 1, false, width)
            };
            flags.cf = cf;
            state.flags = flags;
            write_sop(dst, result, state, mem, fx)?;
        }
        ExecOp::Neg { dst, width } => {
            let a = read_sop(dst, state, mem, fx)?;
            let (result, mut flags) = sub_with_flags(0, a, false, width);
            flags.cf = a & width_mask(width) != 0;
            state.flags = flags;
            write_sop(dst, result, state, mem, fx)?;
        }
        ExecOp::Not { dst } => {
            let a = read_sop(dst, state, mem, fx)?;
            write_sop(dst, !a, state, mem, fx)?;
        }
        ExecOp::Shift {
            sel,
            dst,
            count,
            width,
        } => {
            let a = read_sop(dst, state, mem, fx)?;
            let count_raw = read_sop(count, state, mem, fx)?;
            let count = (count_raw & if width == 8 { 63 } else { 31 }) as u32;
            let bits = u32::from(width) * 8;
            let mask = width_mask(width);
            let a = a & mask;
            let result = if count == 0 {
                a
            } else {
                match sel {
                    ShiftSel::Shl => a.wrapping_shl(count) & mask,
                    ShiftSel::Shr => a.wrapping_shr(count),
                    ShiftSel::Sar => (sext(a, width) >> count.min(bits - 1)) as u64 & mask,
                    ShiftSel::Rol => {
                        let c = count % bits;
                        ((a << c) | (a >> (bits - c).min(63))) & mask
                    }
                    ShiftSel::Ror => {
                        let c = count % bits;
                        ((a >> c) | (a << (bits - c).min(63))) & mask
                    }
                }
            };
            // A masked count of zero leaves the flags alone. Otherwise
            // shifts write all five and rotates only CF and OF; OF is
            // defined for a count of one and kept to the same formula
            // beyond it.
            let msb = |v: u64| (v >> (bits - 1)) & 1 == 1;
            if count != 0 {
                match sel {
                    ShiftSel::Shl | ShiftSel::Shr | ShiftSel::Sar => {
                        let cf = match sel {
                            ShiftSel::Shl => count <= bits && (a >> (bits - count)) & 1 == 1,
                            ShiftSel::Shr => count <= bits && (a >> (count - 1)) & 1 == 1,
                            // Past the width, SAR keeps shifting out sign bits.
                            _ => (a >> (count.min(bits) - 1)) & 1 == 1,
                        };
                        let mut flags = logic_flags(result, width);
                        flags.cf = cf;
                        flags.of = match sel {
                            ShiftSel::Shl => msb(result) != cf,
                            ShiftSel::Shr => msb(a),
                            _ => false,
                        };
                        state.flags = flags;
                    }
                    ShiftSel::Rol => {
                        state.flags.cf = result & 1 == 1;
                        state.flags.of = msb(result) != state.flags.cf;
                    }
                    ShiftSel::Ror => {
                        state.flags.cf = msb(result);
                        state.flags.of = msb(result) != msb(result << 1);
                    }
                }
            }
            write_sop(dst, result, state, mem, fx)?;
        }
        ExecOp::Imul1 { src, width } => {
            let src = sext(read_sop(src, state, mem, fx)?, width) as i128;
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
        ExecOp::Imul2 { dst, src, width } => {
            let a = sext(read_sop(dst, state, mem, fx)?, width);
            let b = sext(read_sop(src, state, mem, fx)?, width);
            imul_wide(dst, a, b, width, state, mem, fx)?;
        }
        ExecOp::Imul3 {
            dst,
            src1,
            src2,
            width,
        } => {
            let a = sext(read_sop(src1, state, mem, fx)?, width);
            let b = read_sop(src2, state, mem, fx)? as i64;
            imul_wide(dst, a, b, width, state, mem, fx)?;
        }
        ExecOp::Mul { src, width } => {
            let src = read_sop(src, state, mem, fx)? & width_mask(width);
            let acc = state.gpr(Gpr::Rax, size_of(width));
            let product = u128::from(acc) * u128::from(src);
            write_mul_result(product, width, state);
            let high_set = product >> (width * 8) != 0;
            state.flags.cf = high_set;
            state.flags.of = high_set;
        }
        ExecOp::Div { signed, src, width } => {
            let divisor_raw = read_sop(src, state, mem, fx)? & width_mask(width);
            if divisor_raw == 0 {
                return Err(ExecFault::DivideError);
            }
            let size = size_of(width);
            // The dividend is RDX:RAX at the operand width, or AH:AL for
            // a byte divide.
            let (lo, hi) = if width == 1 {
                let ax = state.gpr(Gpr::Rax, OpSize::W);
                (ax & 0xFF, ax >> 8)
            } else {
                (state.gpr(Gpr::Rax, size), state.gpr(Gpr::Rdx, size))
            };
            fx.div_rdx_zero = hi == 0;
            let (quotient, remainder) = if !signed {
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
            if width == 1 {
                let ax = (remainder & 0xFF) << 8 | quotient & 0xFF;
                state.set_gpr(Gpr::Rax, OpSize::W, ax);
            } else {
                state.set_gpr(Gpr::Rax, size, quotient);
                state.set_gpr(Gpr::Rdx, size, remainder);
            }
        }
        ExecOp::Cdq => {
            let sign = if state.gpr(Gpr::Rax, OpSize::D) >> 31 & 1 == 1 {
                u64::MAX
            } else {
                0
            };
            state.set_gpr(Gpr::Rdx, OpSize::D, sign);
        }
        ExecOp::Cqo => {
            let sign = if state.gpr64(Gpr::Rax) >> 63 & 1 == 1 {
                u64::MAX
            } else {
                0
            };
            state.set_gpr(Gpr::Rdx, OpSize::Q, sign);
        }
        ExecOp::BitCount {
            sel,
            dst,
            src,
            width,
        } => {
            let src = read_sop(src, state, mem, fx)? & width_mask(width);
            let bits = u32::from(width) * 8;
            let result = match sel {
                BitCountSel::Popcnt => u64::from(src.count_ones()),
                BitCountSel::Lzcnt => u64::from(src.leading_zeros().saturating_sub(64 - bits)),
                BitCountSel::Tzcnt => u64::from(src.trailing_zeros().min(bits)),
            };
            if sel == BitCountSel::Popcnt {
                // POPCNT clears every flag but ZF.
                state.flags = Flags::default();
            }
            state.flags.zf = result == 0;
            // LZCNT/TZCNT set CF when the source is 0.
            state.flags.cf = sel != BitCountSel::Popcnt && src == 0;
            write_sop(dst, result, state, mem, fx)?;
        }
        ExecOp::SetCc { dst, cond } => {
            let f = state.flags;
            let value = u64::from(cond.eval(f.cf, f.zf, f.sf, f.of, f.pf));
            write_sop(dst, value, state, mem, fx)?;
        }
        ExecOp::CmovCc { dst, src, cond } => {
            let f = state.flags;
            let src = read_sop(src, state, mem, fx)?;
            if cond.eval(f.cf, f.zf, f.sf, f.of, f.pf) {
                write_sop(dst, src, state, mem, fx)?;
            } else if let SOp::Gpr(reg, OpSize::D) = dst {
                // A 32-bit cmov zero-extends its destination even when
                // the condition fails.
                state.set_gpr(reg, OpSize::D, state.gpr(reg, OpSize::D));
            }
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Shared tail of the 2- and 3-operand `imul` forms.
#[inline]
fn imul_wide(
    dst: SOp,
    a: i64,
    b: i64,
    width: u8,
    state: &mut CpuState,
    mem: &mut Memory,
    fx: &mut InstEffects,
) -> Result<(), ExecFault> {
    let wide = i128::from(a) * i128::from(b);
    let result = (wide as u64) & width_mask(width);
    let overflow = wide != (sext(result, width) as i128);
    state.flags.cf = overflow;
    state.flags.of = overflow;
    state.flags.zf = result == 0;
    state.flags.sf = result >> (width * 8 - 1) & 1 == 1;
    write_sop(dst, result, state, mem, fx)
}
