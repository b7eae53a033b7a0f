//! SSE/AVX kernels over the predecoded IR, with their DAZ/FTZ and lane
//! helpers. Operand shapes, lane widths, VEX-ness, and shuffle/shift
//! immediates were resolved once at lower time.
//!
//! The host CPU referees these semantics: `sim/tests/native_oracle.rs`
//! runs each block natively, FTZ/DAZ on and off, and compares all 16 YMM
//! registers at 32 bytes, memory and the fault class.

use super::ops::{
    BitwiseSel, ExecOp, PackedCmpSel, PackedMulSel, PackedSel, PackedShiftSel, SOp, VOp,
};
use super::scalar_ops::{read_sop, write_sop};
use super::{ExecFault, InstEffects, MemAccess};
use crate::mem::Memory;
use crate::state::{CpuState, Mxcsr};
use bhive_asm::VecWidth;

/// A 32-byte operand value (vector register or memory contents, padded).
type VBytes = [u8; 32];

fn is_sub_f32(x: f32) -> bool {
    x != 0.0 && x.is_finite() && x.abs() < f32::MIN_POSITIVE
}

fn is_sub_f64(x: f64) -> bool {
    x != 0.0 && x.is_finite() && x.abs() < f64::MIN_POSITIVE
}

/// Applies DAZ to an input lane; records a subnormal event when gradual
/// underflow is still enabled.
fn daz32(x: f32, mxcsr: Mxcsr, subnormal: &mut bool) -> f32 {
    if is_sub_f32(x) {
        if mxcsr.daz {
            return if x.is_sign_negative() { -0.0 } else { 0.0 };
        }
        *subnormal = true;
    }
    x
}

fn daz64(x: f64, mxcsr: Mxcsr, subnormal: &mut bool) -> f64 {
    if is_sub_f64(x) {
        if mxcsr.daz {
            return if x.is_sign_negative() { -0.0 } else { 0.0 };
        }
        *subnormal = true;
    }
    x
}

/// Applies FTZ to a result lane; records a subnormal event when gradual
/// underflow produced a subnormal result.
fn ftz32(x: f32, mxcsr: Mxcsr, subnormal: &mut bool) -> f32 {
    if is_sub_f32(x) {
        if mxcsr.ftz {
            return if x.is_sign_negative() { -0.0 } else { 0.0 };
        }
        *subnormal = true;
    }
    x
}

fn ftz64(x: f64, mxcsr: Mxcsr, subnormal: &mut bool) -> f64 {
    if is_sub_f64(x) {
        if mxcsr.ftz {
            return if x.is_sign_negative() { -0.0 } else { 0.0 };
        }
        *subnormal = true;
    }
    x
}

fn get_f32(bytes: &VBytes, lane: usize) -> f32 {
    f32::from_le_bytes(bytes[lane * 4..lane * 4 + 4].try_into().expect("lane"))
}

fn set_f32(bytes: &mut VBytes, lane: usize, v: f32) {
    bytes[lane * 4..lane * 4 + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_f64(bytes: &VBytes, lane: usize) -> f64 {
    f64::from_le_bytes(bytes[lane * 8..lane * 8 + 8].try_into().expect("lane"))
}

fn set_f64(bytes: &mut VBytes, lane: usize, v: f64) {
    bytes[lane * 8..lane * 8 + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &VBytes, lane: usize) -> u32 {
    u32::from_le_bytes(bytes[lane * 4..lane * 4 + 4].try_into().expect("lane"))
}

fn set_u32(bytes: &mut VBytes, lane: usize, v: u32) {
    bytes[lane * 4..lane * 4 + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(bytes: &VBytes, lane: usize) -> u64 {
    u64::from_le_bytes(bytes[lane * 8..lane * 8 + 8].try_into().expect("lane"))
}

fn set_u64(bytes: &mut VBytes, lane: usize, v: u64) {
    bytes[lane * 8..lane * 8 + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u16(bytes: &VBytes, lane: usize) -> u16 {
    u16::from_le_bytes(bytes[lane * 2..lane * 2 + 2].try_into().expect("lane"))
}

fn set_u16(bytes: &mut VBytes, lane: usize, v: u16) {
    bytes[lane * 2..lane * 2 + 2].copy_from_slice(&v.to_le_bytes());
}

struct VCtx<'a> {
    state: &'a mut CpuState,
    mem: &'a mut Memory,
    fx: &'a mut InstEffects,
}

impl VCtx<'_> {
    /// Reads a pre-resolved vector operand into a padded 32-byte buffer:
    /// vector registers contribute their own width, memory reads use the
    /// *argument* width (and record it in `fx`), GPRs fill the low 8
    /// bytes. An `aligned` memory read of a misaligned address raises
    /// #GP: `movaps`/`movdqa`, and every legacy-SSE packed operand.
    #[inline(always)]
    fn read(&mut self, op: VOp, width: u8, aligned: bool) -> Result<VBytes, ExecFault> {
        let mut out = [0u8; 32];
        match op {
            VOp::Vec(v) => {
                let w = v.width().bytes() as usize;
                out[..w].copy_from_slice(&self.state.vec_raw(v.number())[..w]);
            }
            VOp::Mem(ea) => {
                let vaddr = ea.resolve(self.state);
                if aligned && !vaddr.is_multiple_of(u64::from(width)) {
                    return Err(ExecFault::GeneralProtection { vaddr });
                }
                let paddr = self.mem.read_paddr(vaddr, &mut out[..width as usize])?;
                self.fx.load = Some(MemAccess {
                    vaddr,
                    paddr,
                    width,
                    write: false,
                });
            }
            VOp::Gpr(reg, size) => {
                let v = self.state.gpr(reg, size);
                out[..8].copy_from_slice(&v.to_le_bytes());
            }
        }
        Ok(out)
    }

    /// Writes a result to a vector register or memory destination.
    #[inline(always)]
    fn write(
        &mut self,
        op: VOp,
        bytes: &VBytes,
        width: u8,
        vex: bool,
        aligned: bool,
    ) -> Result<(), ExecFault> {
        match op {
            VOp::Vec(v) => {
                let w = v.width().bytes() as usize;
                self.state.set_vec(v, &bytes[..w], vex);
                Ok(())
            }
            VOp::Mem(ea) => {
                let vaddr = ea.resolve(self.state);
                if aligned && !vaddr.is_multiple_of(u64::from(width)) {
                    return Err(ExecFault::GeneralProtection { vaddr });
                }
                let paddr = self.mem.write_paddr(vaddr, &bytes[..width as usize])?;
                self.fx.store = Some(MemAccess {
                    vaddr,
                    paddr,
                    width,
                    write: true,
                });
                Ok(())
            }
            VOp::Gpr(..) => unreachable!("scalar destination in vector context"),
        }
    }
}

/// Expands a lane loop with its trip count dispatched to a fixed value
/// when it matches one of the real vector shapes, so LLVM fully unrolls
/// the body (and proves the per-lane buffer indexing in bounds) instead
/// of emitting a runtime-bound loop.
macro_rules! unrolled {
    ($n:expr, $lane:ident, $body:block) => {
        match $n {
            2 => for $lane in 0..2usize $body,
            4 => for $lane in 0..4usize $body,
            8 => for $lane in 0..8usize $body,
            16 => for $lane in 0..16usize $body,
            n => for $lane in 0..n $body,
        }
    };
}

/// Executes a vector op. Called only for ops the scalar kernel declined.
pub(super) fn execute(
    op: &ExecOp,
    state: &mut CpuState,
    mem: &mut Memory,
    fx: &mut InstEffects,
) -> Result<(), ExecFault> {
    let mxcsr = state.mxcsr;
    let mut ctx = VCtx { state, mem, fx };

    match *op {
        // ---- moves ----
        ExecOp::MovssMerge {
            dst,
            src,
            lane,
            vex,
        } => {
            // Register-register: merge the low lane.
            let src_bytes = ctx.read(VOp::Vec(src), lane, false)?;
            let mut out = [0u8; 32];
            let w = dst.width().bytes() as usize;
            out[..w].copy_from_slice(&ctx.state.vec_raw(dst.number())[..w]);
            out[..lane as usize].copy_from_slice(&src_bytes[..lane as usize]);
            ctx.write(VOp::Vec(dst), &out, lane, vex, false)?;
        }
        ExecOp::MovssLoad { dst, ea, lane, vex } => {
            // Load: zero the rest of the xmm register (and, VEX-encoded,
            // the upper ymm half).
            let out = ctx.read(VOp::Mem(ea), lane, false)?;
            ctx.state
                .set_vec(dst.with_width(VecWidth::Xmm), &out[..16], vex);
        }
        ExecOp::MovssStore { ea, src, lane, vex } => {
            let out = ctx.read(VOp::Vec(src), lane, false)?;
            ctx.write(VOp::Mem(ea), &out, lane, vex, false)?;
        }
        ExecOp::VMov {
            dst,
            src,
            width,
            vex,
            aligned,
        } => {
            let v = ctx.read(src, width, aligned)?;
            ctx.write(dst, &v, width, vex, aligned)?;
        }
        ExecOp::MovdToVec {
            dst,
            src,
            lane,
            vex,
        } => {
            let src = ctx.read(src, lane, false)?;
            let mut out = [0u8; 32];
            out[..lane as usize].copy_from_slice(&src[..lane as usize]);
            ctx.write(dst, &out, lane, vex, false)?;
        }
        ExecOp::MovdFromVec { dst, src, lane } => {
            let value = match lane {
                4 => u64::from(get_u32(ctx.state.vec_raw(src.number()), 0)),
                _ => get_u64(ctx.state.vec_raw(src.number()), 0),
            };
            write_sop(dst, value, ctx.state, ctx.mem, ctx.fx)?;
        }
        ExecOp::Vbroadcastss { dst, src, width } => {
            let src = ctx.read(src, 4, false)?;
            let mut out = [0u8; 32];
            unrolled!((width / 4) as usize, lane, {
                out[lane * 4..lane * 4 + 4].copy_from_slice(&src[..4]);
            });
            ctx.write(dst, &out, width, true, false)?;
        }
        // ---- scalar float arithmetic ----
        ExecOp::FpScalar {
            sel,
            wide,
            dst,
            a,
            b,
            vex,
        } => {
            let lane = if wide { 8 } else { 4 };
            let a = ctx.read(a, lane, false)?;
            let b = ctx.read(b, lane, false)?;
            let mut sub = false;
            let mut out = a;
            if wide {
                let x = daz64(get_f64(&a, 0), mxcsr, &mut sub);
                let y = daz64(get_f64(&b, 0), mxcsr, &mut sub);
                let r = scalar_fp64(sel, x, y);
                set_f64(&mut out, 0, ftz64(r, mxcsr, &mut sub));
            } else {
                let x = daz32(get_f32(&a, 0), mxcsr, &mut sub);
                let y = daz32(get_f32(&b, 0), mxcsr, &mut sub);
                let r = scalar_fp32(sel, x, y);
                set_f32(&mut out, 0, ftz32(r, mxcsr, &mut sub));
            }
            ctx.fx.subnormal |= sub;
            ctx.write(dst, &out, lane, vex, false)?;
        }
        ExecOp::Ucomis { wide, a, b } => {
            let lane = if wide { 8 } else { 4 };
            let a = ctx.read(a, lane, false)?;
            let b = ctx.read(b, lane, false)?;
            let (x, y) = if wide {
                (get_f64(&a, 0), get_f64(&b, 0))
            } else {
                (f64::from(get_f32(&a, 0)), f64::from(get_f32(&b, 0)))
            };
            let flags = &mut ctx.state.flags;
            flags.of = false;
            flags.sf = false;
            if x.is_nan() || y.is_nan() {
                flags.zf = true;
                flags.pf = true;
                flags.cf = true;
            } else {
                flags.zf = x == y;
                flags.pf = false;
                flags.cf = x < y;
            }
        }
        ExecOp::CvtSi2Fp {
            wide,
            dst,
            src,
            src_width,
            vex,
        } => {
            let int = read_sop(src, ctx.state, ctx.mem, ctx.fx)?;
            let signed = match src_width {
                8 => int as i64,
                _ => i64::from(int as i32),
            };
            let out_width = if wide { 8 } else { 4 };
            let mut out = [0u8; 32];
            let w = dst.width().bytes() as usize;
            out[..w].copy_from_slice(&ctx.state.vec_raw(dst.number())[..w]);
            if wide {
                set_f64(&mut out, 0, signed as f64);
            } else {
                set_f32(&mut out, 0, signed as f32);
            }
            ctx.write(VOp::Vec(dst), &out, out_width, vex, false)?;
        }
        ExecOp::CvtFp2Si { wide, dst, src } => {
            let lane = if wide { 8 } else { 4 };
            let src = ctx.read(src, lane, false)?;
            let x = if wide {
                get_f64(&src, 0)
            } else {
                f64::from(get_f32(&src, 0))
            };
            // NaN, or a truncation outside the destination's range, gives
            // the integer indefinite: the sign bit alone.
            let bits = match dst {
                SOp::Gpr(_, size) => size.bits(),
                _ => 64,
            };
            let limit = 2f64.powi(bits as i32 - 1);
            let value = if (-limit..limit).contains(&x.trunc()) {
                x as i64 as u64
            } else {
                1 << (bits - 1)
            };
            write_sop(dst, value, ctx.state, ctx.mem, ctx.fx)?;
        }
        ExecOp::Cvtdq2ps {
            dst,
            src,
            width,
            vex,
        } => {
            let src = ctx.read(src, width, !vex)?;
            let mut out = [0u8; 32];
            unrolled!((width / 4) as usize, lane, {
                set_f32(&mut out, lane, get_u32(&src, lane) as i32 as f32);
            });
            ctx.write(dst, &out, width, vex, false)?;
        }
        // ---- packed float arithmetic ----
        ExecOp::FpPackedF32 {
            sel,
            dst,
            a,
            b,
            width,
            vex,
        } => {
            let a = ctx.read(a, width, !vex)?;
            let b = ctx.read(b, width, !vex)?;
            let mut out = [0u8; 32];
            let mut sub = false;
            unrolled!((width / 4) as usize, lane, {
                let x = daz32(get_f32(&a, lane), mxcsr, &mut sub);
                let y = daz32(get_f32(&b, lane), mxcsr, &mut sub);
                let r = match sel {
                    PackedSel::Add => x + y,
                    PackedSel::Sub => x - y,
                    PackedSel::Mul => x * y,
                    PackedSel::Div => x / y,
                    PackedSel::Min => {
                        if x < y {
                            x
                        } else {
                            y
                        }
                    }
                    PackedSel::Max => {
                        if x > y {
                            x
                        } else {
                            y
                        }
                    }
                    PackedSel::Sqrt => y.sqrt(),
                };
                set_f32(&mut out, lane, ftz32(r, mxcsr, &mut sub));
            });
            ctx.fx.subnormal |= sub;
            ctx.write(dst, &out, width, vex, false)?;
        }
        ExecOp::FpPackedF64 {
            sel,
            dst,
            a,
            b,
            width,
            vex,
        } => {
            let a = ctx.read(a, width, !vex)?;
            let b = ctx.read(b, width, !vex)?;
            let mut out = [0u8; 32];
            let mut sub = false;
            unrolled!((width / 8) as usize, lane, {
                let x = daz64(get_f64(&a, lane), mxcsr, &mut sub);
                let y = daz64(get_f64(&b, lane), mxcsr, &mut sub);
                let r = match sel {
                    PackedSel::Add => x + y,
                    PackedSel::Sub => x - y,
                    PackedSel::Mul => x * y,
                    PackedSel::Div => x / y,
                    _ => unreachable!(),
                };
                set_f64(&mut out, lane, ftz64(r, mxcsr, &mut sub));
            });
            ctx.fx.subnormal |= sub;
            ctx.write(dst, &out, width, vex, false)?;
        }
        ExecOp::Fma {
            wide,
            acc,
            a,
            b,
            width,
        } => {
            // dst = src1 * src2 + dst (the `231` operand order).
            let acc_bytes = ctx.read(acc, width, false)?;
            let a_bytes = ctx.read(a, width, false)?;
            let b_bytes = ctx.read(b, width, false)?;
            let mut out = [0u8; 32];
            let mut sub = false;
            if wide {
                unrolled!((width / 8) as usize, lane, {
                    let x = daz64(get_f64(&a_bytes, lane), mxcsr, &mut sub);
                    let y = daz64(get_f64(&b_bytes, lane), mxcsr, &mut sub);
                    let c = daz64(get_f64(&acc_bytes, lane), mxcsr, &mut sub);
                    set_f64(&mut out, lane, ftz64(x.mul_add(y, c), mxcsr, &mut sub));
                });
            } else {
                unrolled!((width / 4) as usize, lane, {
                    let x = daz32(get_f32(&a_bytes, lane), mxcsr, &mut sub);
                    let y = daz32(get_f32(&b_bytes, lane), mxcsr, &mut sub);
                    let c = daz32(get_f32(&acc_bytes, lane), mxcsr, &mut sub);
                    set_f32(&mut out, lane, ftz32(x.mul_add(y, c), mxcsr, &mut sub));
                });
            }
            ctx.fx.subnormal |= sub;
            ctx.write(acc, &out, width, true, false)?;
        }
        // ---- bitwise ----
        ExecOp::VBitwise {
            sel,
            dst,
            a,
            b,
            width,
            vex,
        } => {
            let a = ctx.read(a, width, !vex)?;
            let b = ctx.read(b, width, !vex)?;
            let mut out = [0u8; 32];
            for i in 0..32 {
                out[i] = match sel {
                    BitwiseSel::Xor => a[i] ^ b[i],
                    BitwiseSel::And => a[i] & b[i],
                    BitwiseSel::Or => a[i] | b[i],
                    BitwiseSel::AndNot => !a[i] & b[i],
                };
            }
            ctx.write(dst, &out, width, vex, false)?;
        }
        // ---- packed integer arithmetic ----
        ExecOp::PackedIntAddSub {
            lane_bytes,
            add,
            dst,
            a,
            b,
            width,
            vex,
        } => {
            let a = ctx.read(a, width, !vex)?;
            let b = ctx.read(b, width, !vex)?;
            let mut out = [0u8; 32];
            let lane_bytes = lane_bytes as usize;
            unrolled!(width as usize / lane_bytes, lane, {
                match lane_bytes {
                    1 => {
                        out[lane] = if add {
                            a[lane].wrapping_add(b[lane])
                        } else {
                            a[lane].wrapping_sub(b[lane])
                        }
                    }
                    2 => {
                        let (x, y) = (get_u16(&a, lane), get_u16(&b, lane));
                        set_u16(
                            &mut out,
                            lane,
                            if add {
                                x.wrapping_add(y)
                            } else {
                                x.wrapping_sub(y)
                            },
                        );
                    }
                    4 => {
                        let (x, y) = (get_u32(&a, lane), get_u32(&b, lane));
                        set_u32(
                            &mut out,
                            lane,
                            if add {
                                x.wrapping_add(y)
                            } else {
                                x.wrapping_sub(y)
                            },
                        );
                    }
                    _ => {
                        let (x, y) = (get_u64(&a, lane), get_u64(&b, lane));
                        set_u64(
                            &mut out,
                            lane,
                            if add {
                                x.wrapping_add(y)
                            } else {
                                x.wrapping_sub(y)
                            },
                        );
                    }
                }
            });
            ctx.write(dst, &out, width, vex, false)?;
        }
        ExecOp::PackedMul {
            sel,
            dst,
            a,
            b,
            width,
            vex,
        } => {
            let a = ctx.read(a, width, !vex)?;
            let b = ctx.read(b, width, !vex)?;
            let mut out = [0u8; 32];
            match sel {
                PackedMulSel::Mullw => {
                    unrolled!((width / 2) as usize, lane, {
                        let p = i32::from(get_u16(&a, lane) as i16)
                            * i32::from(get_u16(&b, lane) as i16);
                        set_u16(&mut out, lane, p as u16);
                    });
                }
                PackedMulSel::Mulld => {
                    unrolled!((width / 4) as usize, lane, {
                        let p = i64::from(get_u32(&a, lane) as i32)
                            * i64::from(get_u32(&b, lane) as i32);
                        set_u32(&mut out, lane, p as u32);
                    });
                }
                PackedMulSel::Muludq => {
                    unrolled!((width / 16) as usize * 2, lane, {
                        let p = u64::from(get_u32(&a, lane * 2)) * u64::from(get_u32(&b, lane * 2));
                        set_u64(&mut out, lane, p);
                    });
                }
                PackedMulSel::Maddwd => {
                    unrolled!((width / 4) as usize, lane, {
                        let p1 = i32::from(get_u16(&a, lane * 2) as i16)
                            * i32::from(get_u16(&b, lane * 2) as i16);
                        let p2 = i32::from(get_u16(&a, lane * 2 + 1) as i16)
                            * i32::from(get_u16(&b, lane * 2 + 1) as i16);
                        set_u32(&mut out, lane, p1.wrapping_add(p2) as u32);
                    });
                }
            }
            ctx.write(dst, &out, width, vex, false)?;
        }
        ExecOp::PackedShift {
            sel,
            dst,
            src,
            count,
            width,
            vex,
        } => {
            let a = ctx.read(src, width, !vex)?;
            let mut out = [0u8; 32];
            match sel {
                PackedShiftSel::Slld | PackedShiftSel::Srld | PackedShiftSel::Srad => {
                    unrolled!((width / 4) as usize, lane, {
                        let x = get_u32(&a, lane);
                        let r = if count >= 32 {
                            if sel == PackedShiftSel::Srad {
                                ((x as i32) >> 31) as u32
                            } else {
                                0
                            }
                        } else {
                            match sel {
                                PackedShiftSel::Slld => x << count,
                                PackedShiftSel::Srld => x >> count,
                                PackedShiftSel::Srad => ((x as i32) >> count) as u32,
                                _ => unreachable!(),
                            }
                        };
                        set_u32(&mut out, lane, r);
                    });
                }
                _ => {
                    unrolled!((width / 8) as usize, lane, {
                        let x = get_u64(&a, lane);
                        let r = if count >= 64 {
                            0
                        } else if sel == PackedShiftSel::Sllq {
                            x << count
                        } else {
                            x >> count
                        };
                        set_u64(&mut out, lane, r);
                    });
                }
            }
            ctx.write(dst, &out, width, vex, false)?;
        }
        ExecOp::PackedCmp {
            sel,
            dst,
            a,
            b,
            width,
            vex,
        } => {
            let a = ctx.read(a, width, !vex)?;
            let b = ctx.read(b, width, !vex)?;
            let mut out = [0u8; 32];
            match sel {
                PackedCmpSel::Eqb => {
                    unrolled!(width as usize, lane, {
                        out[lane] = if a[lane] == b[lane] { 0xFF } else { 0 };
                    });
                }
                PackedCmpSel::Eqd => {
                    unrolled!((width / 4) as usize, lane, {
                        let eq = get_u32(&a, lane) == get_u32(&b, lane);
                        set_u32(&mut out, lane, if eq { u32::MAX } else { 0 });
                    });
                }
                PackedCmpSel::Gtd => {
                    unrolled!((width / 4) as usize, lane, {
                        let gt = (get_u32(&a, lane) as i32) > (get_u32(&b, lane) as i32);
                        set_u32(&mut out, lane, if gt { u32::MAX } else { 0 });
                    });
                }
            }
            ctx.write(dst, &out, width, vex, false)?;
        }
        // ---- shuffles ----
        ExecOp::Shufps {
            imm,
            dst,
            a,
            b,
            width,
            vex,
        } => {
            let a = ctx.read(a, width, !vex)?;
            let b = ctx.read(b, width, !vex)?;
            let mut out = [0u8; 32];
            for half in 0..(width / 16) as usize {
                let base = half * 4;
                for (slot, src) in [(0usize, &a), (1, &a), (2, &b), (3, &b)] {
                    let sel = ((imm >> (slot * 2)) & 3) as usize;
                    set_u32(&mut out, base + slot, get_u32(src, base + sel));
                }
            }
            ctx.write(dst, &out, width, vex, false)?;
        }
        ExecOp::Pshufd {
            imm,
            dst,
            src,
            width,
            vex,
        } => {
            let src = ctx.read(src, width, !vex)?;
            let mut out = [0u8; 32];
            for half in 0..(width / 16) as usize {
                let base = half * 4;
                for slot in 0..4usize {
                    let sel = ((imm >> (slot * 2)) & 3) as usize;
                    set_u32(&mut out, base + slot, get_u32(&src, base + sel));
                }
            }
            ctx.write(dst, &out, width, vex, false)?;
        }
        ExecOp::Pshufb {
            dst,
            a,
            b,
            width,
            vex,
        } => {
            let a = ctx.read(a, width, !vex)?;
            let b = ctx.read(b, width, !vex)?;
            let mut out = [0u8; 32];
            for half in 0..(width / 16) as usize {
                let base = half * 16;
                for i in 0..16usize {
                    let sel = b[base + i];
                    out[base + i] = if sel & 0x80 != 0 {
                        0
                    } else {
                        a[base + (sel & 0xF) as usize]
                    };
                }
            }
            ctx.write(dst, &out, width, vex, false)?;
        }
        ExecOp::Unpck {
            dst,
            a,
            b,
            width,
            vex,
        } => {
            let a = ctx.read(a, width, !vex)?;
            let b = ctx.read(b, width, !vex)?;
            let mut out = [0u8; 32];
            for half in 0..(width / 16) as usize {
                let base = half * 4;
                set_u32(&mut out, base, get_u32(&a, base));
                set_u32(&mut out, base + 1, get_u32(&b, base));
                set_u32(&mut out, base + 2, get_u32(&a, base + 1));
                set_u32(&mut out, base + 3, get_u32(&b, base + 1));
            }
            ctx.write(dst, &out, width, vex, false)?;
        }
        ExecOp::Pmovmskb { dst, src } => {
            let bytes = ctx.state.vec_raw(src.number());
            let mut mask = 0u64;
            for (i, byte) in bytes[..src.width().bytes() as usize].iter().enumerate() {
                mask |= u64::from(byte >> 7) << i;
            }
            write_sop(dst, mask, ctx.state, ctx.mem, ctx.fx)?;
        }
        ref other => unreachable!("vector kernel got scalar op {other:?}"),
    }
    Ok(())
}

#[inline]
fn scalar_fp32(sel: super::ops::FpSel, x: f32, y: f32) -> f32 {
    use super::ops::FpSel;
    match sel {
        FpSel::Add => x + y,
        FpSel::Sub => x - y,
        FpSel::Mul => x * y,
        FpSel::Div => x / y,
        FpSel::Sqrt => y.sqrt(),
    }
}

#[inline]
fn scalar_fp64(sel: super::ops::FpSel, x: f64, y: f64) -> f64 {
    use super::ops::FpSel;
    match sel {
        FpSel::Add => x + y,
        FpSel::Sub => x - y,
        FpSel::Mul => x * y,
        FpSel::Div => x / y,
        FpSel::Sqrt => y.sqrt(),
    }
}
