//! Lowering from [`Inst`] to the predecoded IR.
//!
//! Runs once per block (the machine caches the result keyed by block
//! content), taking every decode decision an interpreter would take per
//! dynamic instruction: the SSE/scalar split, operand shapes, lane
//! and operand widths, VEX-ness, shuffle/shift immediates, and the
//! block-level AVX2 requirement the executor used to rescan on every
//! monitor restart.

use super::ops::{
    ArithSel, BitCountSel, BitwiseSel, EaRecipe, ExecOp, FpSel, LogicSel, LoweredBlock,
    PackedCmpSel, PackedMulSel, PackedSel, PackedShiftSel, SOp, ShiftSel, VOp,
};
use bhive_asm::{Inst, Mnemonic, Operand, VecWidth};

/// Lowers a block and computes its block-level facts.
pub(crate) fn lower_block(insts: &[Inst]) -> LoweredBlock {
    let uses_avx2 = insts.iter().any(|inst| {
        inst.mnemonic().is_vex_only()
            || inst
                .operands()
                .iter()
                .any(|op| matches!(op, Operand::Vec(v) if v.width() == VecWidth::Ymm))
    });
    LoweredBlock {
        ops: insts.iter().map(lower_inst).collect(),
        uses_avx2,
    }
}

/// Lowers one instruction to the scalar or the vector kernel.
pub(crate) fn lower_inst(inst: &Inst) -> ExecOp {
    if inst.mnemonic().is_sse() {
        lower_vector(inst)
    } else {
        lower_scalar(inst)
    }
}

fn sop(op: &Operand) -> SOp {
    match op {
        Operand::Gpr { reg, size } => SOp::Gpr(*reg, *size),
        Operand::Imm(v) => SOp::Imm(*v),
        Operand::Mem(m) => SOp::Mem(EaRecipe::from_mem(m)),
        Operand::Vec(_) => unreachable!("vector operand in scalar context"),
    }
}

fn vop(op: &Operand) -> VOp {
    match op {
        Operand::Vec(v) => VOp::Vec(*v),
        Operand::Gpr { reg, size } => VOp::Gpr(*reg, *size),
        Operand::Mem(m) => VOp::Mem(EaRecipe::from_mem(m)),
        Operand::Imm(_) => unreachable!("immediate as vector source"),
    }
}

fn lower_scalar(inst: &Inst) -> ExecOp {
    use Mnemonic::*;
    let width = inst.width_bytes();
    let ops = inst.operands();

    match inst.mnemonic() {
        Nop | Jcc => ExecOp::Nop,
        Mov | Movzx => ExecOp::Mov {
            dst: sop(&ops[0]),
            src: sop(&ops[1]),
        },
        Movsx | Movsxd => ExecOp::Movsx {
            dst: sop(&ops[0]),
            src: sop(&ops[1]),
            src_width: ops[1].width_bytes().unwrap_or(4),
        },
        Bswap => ExecOp::Bswap {
            dst: sop(&ops[0]),
            width,
        },
        Lea => ExecOp::Lea {
            dst: sop(&ops[0]),
            ea: EaRecipe::from_mem(ops[1].as_mem().expect("lea memory operand")),
        },
        Push => ExecOp::Push { src: sop(&ops[0]) },
        Pop => ExecOp::Pop { dst: sop(&ops[0]) },
        Add | Adc | Sub | Sbb | Cmp => ExecOp::Arith {
            sel: match inst.mnemonic() {
                Add => ArithSel::Add,
                Adc => ArithSel::Adc,
                Sub => ArithSel::Sub,
                Sbb => ArithSel::Sbb,
                _ => ArithSel::Cmp,
            },
            dst: sop(&ops[0]),
            src: sop(&ops[1]),
            width,
        },
        And | Or | Xor | Test => ExecOp::Logic {
            sel: match inst.mnemonic() {
                And => LogicSel::And,
                Or => LogicSel::Or,
                Xor => LogicSel::Xor,
                _ => LogicSel::Test,
            },
            dst: sop(&ops[0]),
            src: sop(&ops[1]),
            width,
        },
        Inc | Dec => ExecOp::IncDec {
            inc: inst.mnemonic() == Inc,
            dst: sop(&ops[0]),
            width,
        },
        Neg => ExecOp::Neg {
            dst: sop(&ops[0]),
            width,
        },
        Not => ExecOp::Not { dst: sop(&ops[0]) },
        Shl | Shr | Sar | Rol | Ror => ExecOp::Shift {
            sel: match inst.mnemonic() {
                Shl => ShiftSel::Shl,
                Shr => ShiftSel::Shr,
                Sar => ShiftSel::Sar,
                Rol => ShiftSel::Rol,
                _ => ShiftSel::Ror,
            },
            dst: sop(&ops[0]),
            count: sop(&ops[1]),
            width,
        },
        Imul => match ops.len() {
            1 => ExecOp::Imul1 {
                src: sop(&ops[0]),
                width,
            },
            2 => ExecOp::Imul2 {
                dst: sop(&ops[0]),
                src: sop(&ops[1]),
                width,
            },
            _ => ExecOp::Imul3 {
                dst: sop(&ops[0]),
                src1: sop(&ops[1]),
                src2: sop(&ops[2]),
                width,
            },
        },
        Mul => ExecOp::Mul {
            src: sop(&ops[0]),
            width,
        },
        Div | Idiv => ExecOp::Div {
            signed: inst.mnemonic() == Idiv,
            src: sop(&ops[0]),
            width,
        },
        Cdq => ExecOp::Cdq,
        Cqo => ExecOp::Cqo,
        Popcnt | Lzcnt | Tzcnt => ExecOp::BitCount {
            sel: match inst.mnemonic() {
                Popcnt => BitCountSel::Popcnt,
                Lzcnt => BitCountSel::Lzcnt,
                _ => BitCountSel::Tzcnt,
            },
            dst: sop(&ops[0]),
            src: sop(&ops[1]),
            width,
        },
        Set => ExecOp::SetCc {
            dst: sop(&ops[0]),
            cond: inst.cond().expect("setcc condition"),
        },
        Cmov => ExecOp::CmovCc {
            dst: sop(&ops[0]),
            src: sop(&ops[1]),
            cond: inst.cond().expect("cmovcc condition"),
        },
        other => unreachable!("scalar lowering got {other:?}"),
    }
}

/// `(dst, srcs)` for both legacy (`dst = op(dst, src)`) and VEX
/// (`dst = op(src1, src2)`) conventions.
fn split_ops(inst: &Inst) -> (&Operand, &Operand, &Operand) {
    let ops = inst.operands();
    match ops.len() {
        2 => (&ops[0], &ops[0], &ops[1]),
        3 if ops[2].as_imm().is_some() => (&ops[0], &ops[0], &ops[1]),
        3 => (&ops[0], &ops[1], &ops[2]),
        4 => (&ops[0], &ops[1], &ops[2]),
        _ => (&ops[0], &ops[0], &ops[0]),
    }
}

/// The width of the first vector operand (16 bytes without one).
fn vec_width_of(inst: &Inst) -> u8 {
    inst.operands()
        .iter()
        .find_map(|op| match op {
            Operand::Vec(v) => Some(v.width().bytes()),
            _ => None,
        })
        .unwrap_or(16)
}

fn lower_vector(inst: &Inst) -> ExecOp {
    use Mnemonic::*;
    let vex = inst.is_vex();
    let width = vec_width_of(inst);
    let ops = inst.operands();
    let m = inst.mnemonic();

    match m {
        Movss | Movsd => {
            let lane = if m == Movss { 4 } else { 8 };
            match (&ops[0], &ops[1]) {
                (Operand::Vec(dst), Operand::Vec(src)) => ExecOp::MovssMerge {
                    dst: *dst,
                    src: *src,
                    lane,
                    vex,
                },
                (Operand::Vec(dst), Operand::Mem(mm)) => ExecOp::MovssLoad {
                    dst: *dst,
                    ea: EaRecipe::from_mem(mm),
                    lane,
                    vex,
                },
                (Operand::Mem(mm), Operand::Vec(src)) => ExecOp::MovssStore {
                    ea: EaRecipe::from_mem(mm),
                    src: *src,
                    lane,
                    vex,
                },
                _ => unreachable!("movss operand shapes"),
            }
        }
        Movaps | Movdqa => ExecOp::VMov {
            dst: vop(&ops[0]),
            src: vop(&ops[1]),
            width,
            vex,
            aligned: true,
        },
        Movups | Movdqu => ExecOp::VMov {
            dst: vop(&ops[0]),
            src: vop(&ops[1]),
            width,
            vex,
            aligned: false,
        },
        Movd | Movq => {
            let lane = if m == Movd { 4 } else { 8 };
            match (&ops[0], &ops[1]) {
                (Operand::Vec(_), _) => ExecOp::MovdToVec {
                    dst: vop(&ops[0]),
                    src: vop(&ops[1]),
                    lane,
                    vex,
                },
                (_, Operand::Vec(v)) => ExecOp::MovdFromVec {
                    dst: sop(&ops[0]),
                    src: *v,
                    lane,
                },
                _ => unreachable!("movd operand shapes"),
            }
        }
        Vbroadcastss => ExecOp::Vbroadcastss {
            dst: vop(&ops[0]),
            src: vop(&ops[1]),
            width,
        },
        Addss | Subss | Mulss | Divss | Sqrtss | Addsd | Subsd | Mulsd | Divsd | Sqrtsd => {
            let (dst, a, b) = split_ops(inst);
            ExecOp::FpScalar {
                sel: match m {
                    Addss | Addsd => FpSel::Add,
                    Subss | Subsd => FpSel::Sub,
                    Mulss | Mulsd => FpSel::Mul,
                    Divss | Divsd => FpSel::Div,
                    _ => FpSel::Sqrt,
                },
                wide: matches!(m, Addsd | Subsd | Mulsd | Divsd | Sqrtsd),
                dst: vop(dst),
                a: vop(a),
                b: vop(b),
                vex,
            }
        }
        Ucomiss | Ucomisd => ExecOp::Ucomis {
            wide: m == Ucomisd,
            a: vop(&ops[0]),
            b: vop(&ops[1]),
        },
        Cvtsi2ss | Cvtsi2sd => ExecOp::CvtSi2Fp {
            wide: m == Cvtsi2sd,
            dst: ops[0].as_vec().expect("cvt destination register"),
            src: sop(&ops[1]),
            src_width: ops[1].width_bytes().unwrap_or(4),
            vex,
        },
        Cvttss2si | Cvttsd2si => ExecOp::CvtFp2Si {
            wide: m == Cvttsd2si,
            dst: sop(&ops[0]),
            src: vop(&ops[1]),
        },
        Cvtdq2ps => ExecOp::Cvtdq2ps {
            dst: vop(&ops[0]),
            src: vop(&ops[ops.len() - 1]),
            width,
            vex,
        },
        Addps | Subps | Mulps | Divps | Minps | Maxps | Sqrtps => {
            let (dst, a, b) = split_ops(inst);
            ExecOp::FpPackedF32 {
                sel: match m {
                    Addps => PackedSel::Add,
                    Subps => PackedSel::Sub,
                    Mulps => PackedSel::Mul,
                    Divps => PackedSel::Div,
                    Minps => PackedSel::Min,
                    Maxps => PackedSel::Max,
                    _ => PackedSel::Sqrt,
                },
                dst: vop(dst),
                a: vop(a),
                b: vop(b),
                width,
                vex,
            }
        }
        Addpd | Subpd | Mulpd | Divpd => {
            let (dst, a, b) = split_ops(inst);
            ExecOp::FpPackedF64 {
                sel: match m {
                    Addpd => PackedSel::Add,
                    Subpd => PackedSel::Sub,
                    Mulpd => PackedSel::Mul,
                    _ => PackedSel::Div,
                },
                dst: vop(dst),
                a: vop(a),
                b: vop(b),
                width,
                vex,
            }
        }
        Vfmadd231ps | Vfmadd231pd => ExecOp::Fma {
            wide: m == Vfmadd231pd,
            acc: vop(&ops[0]),
            a: vop(&ops[1]),
            b: vop(&ops[2]),
            width,
        },
        Xorps | Xorpd | Andps | Orps | Pand | Por | Pxor | Pandn => {
            let (dst, a, b) = split_ops(inst);
            ExecOp::VBitwise {
                sel: match m {
                    Xorps | Xorpd | Pxor => BitwiseSel::Xor,
                    Andps | Pand => BitwiseSel::And,
                    Orps | Por => BitwiseSel::Or,
                    _ => BitwiseSel::AndNot,
                },
                dst: vop(dst),
                a: vop(a),
                b: vop(b),
                width,
                vex,
            }
        }
        Paddb | Paddw | Paddd | Paddq | Psubb | Psubw | Psubd | Psubq => {
            let (dst, a, b) = split_ops(inst);
            ExecOp::PackedIntAddSub {
                lane_bytes: match m {
                    Paddb | Psubb => 1,
                    Paddw | Psubw => 2,
                    Paddd | Psubd => 4,
                    _ => 8,
                },
                add: matches!(m, Paddb | Paddw | Paddd | Paddq),
                dst: vop(dst),
                a: vop(a),
                b: vop(b),
                width,
                vex,
            }
        }
        Pmullw | Pmulld | Pmuludq | Pmaddwd => {
            let (dst, a, b) = split_ops(inst);
            ExecOp::PackedMul {
                sel: match m {
                    Pmullw => PackedMulSel::Mullw,
                    Pmulld => PackedMulSel::Mulld,
                    Pmuludq => PackedMulSel::Muludq,
                    _ => PackedMulSel::Maddwd,
                },
                dst: vop(dst),
                a: vop(a),
                b: vop(b),
                width,
                vex,
            }
        }
        Pslld | Psrld | Psrad | Psllq | Psrlq => {
            let (dst, src, count_op) = match ops.len() {
                // Legacy: pslld xmm, imm.
                2 => (&ops[0], &ops[0], &ops[1]),
                // VEX: vpslld dst, src, imm.
                _ => (&ops[0], &ops[1], &ops[2]),
            };
            ExecOp::PackedShift {
                sel: match m {
                    Pslld => PackedShiftSel::Slld,
                    Psrld => PackedShiftSel::Srld,
                    Psrad => PackedShiftSel::Srad,
                    Psllq => PackedShiftSel::Sllq,
                    _ => PackedShiftSel::Srlq,
                },
                dst: vop(dst),
                src: vop(src),
                count: count_op.as_imm().unwrap_or(0) as u32,
                width,
                vex,
            }
        }
        Pcmpeqb | Pcmpeqd | Pcmpgtd => {
            let (dst, a, b) = split_ops(inst);
            ExecOp::PackedCmp {
                sel: match m {
                    Pcmpeqb => PackedCmpSel::Eqb,
                    Pcmpeqd => PackedCmpSel::Eqd,
                    _ => PackedCmpSel::Gtd,
                },
                dst: vop(dst),
                a: vop(a),
                b: vop(b),
                width,
                vex,
            }
        }
        Shufps => {
            let imm = ops.last().and_then(Operand::as_imm).unwrap_or(0) as u32;
            let (dst, a, b) = split_ops(inst);
            ExecOp::Shufps {
                imm,
                dst: vop(dst),
                a: vop(a),
                b: vop(b),
                width,
                vex,
            }
        }
        Pshufd => ExecOp::Pshufd {
            imm: ops.last().and_then(Operand::as_imm).unwrap_or(0) as u32,
            dst: vop(&ops[0]),
            src: vop(&ops[1]),
            width,
            vex,
        },
        Pshufb => {
            let (dst, a, b) = split_ops(inst);
            ExecOp::Pshufb {
                dst: vop(dst),
                a: vop(a),
                b: vop(b),
                width,
                vex,
            }
        }
        Unpcklps | Punpckldq => {
            let (dst, a, b) = split_ops(inst);
            ExecOp::Unpck {
                dst: vop(dst),
                a: vop(a),
                b: vop(b),
                width,
                vex,
            }
        }
        Pmovmskb => ExecOp::Pmovmskb {
            dst: sop(&ops[0]),
            src: ops[1].as_vec().expect("pmovmskb source register"),
        },
        other => unreachable!("vector lowering got {other:?}"),
    }
}
