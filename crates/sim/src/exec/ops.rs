//! The predecoded execution IR.
//!
//! [`super::lower::lower_block`] turns each [`bhive_asm::Inst`] into one
//! flat [`ExecOp`]: a compact op tag for direct dispatch, pre-resolved
//! register references, folded immediates, and a precomputed
//! effective-address recipe. The unrolled executor then iterates over the
//! lowered array without ever re-matching `Mnemonic`/`Operand` enums:
//! decoding is paid once per block and cached in the machine's timing
//! arena, not on every copy, monitor restart, and retry attempt.
//!
//! The kernels that interpret these ops live in [`super::scalar_ops`] and
//! [`super::vector_ops`]. The host CPU referees them:
//! `sim/tests/native_oracle.rs` runs each block natively and compares
//! registers, flags the SDM defines, memory, and the fault class.

use super::{ExecFault, InstEffects};
use crate::mem::Memory;
use crate::state::CpuState;
use bhive_asm::{Cond, Gpr, MemRef, OpSize, VecReg};

/// Sentinel register number meaning "absent" in an [`EaRecipe`].
pub(crate) const NO_REG: u8 = 0xFF;

/// A precomputed effective-address recipe: `base + index*scale + disp`,
/// flattened from [`MemRef`]'s `Option`s into sentinel-tagged register
/// numbers so address resolution is straight-line arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EaRecipe {
    /// Base register number, or [`NO_REG`].
    pub base: u8,
    /// Index register number, or [`NO_REG`].
    pub index: u8,
    /// Index scale factor (1, 2, 4, 8); meaningless without an index.
    pub scale: u8,
    /// Access width in bytes (from the memory operand).
    pub width: u8,
    /// Signed 32-bit displacement.
    pub disp: i32,
}

impl EaRecipe {
    pub(crate) fn from_mem(m: &MemRef) -> EaRecipe {
        EaRecipe {
            base: m.base.map_or(NO_REG, Gpr::number),
            index: m.index.map_or(NO_REG, |(reg, _)| reg.number()),
            scale: m.index.map_or(1, |(_, scale)| scale.factor()),
            width: m.width,
            disp: m.disp,
        }
    }

    /// Resolves the address: wrapping adds of base, scaled index, and
    /// sign-extended displacement.
    #[inline]
    pub(crate) fn resolve(&self, state: &CpuState) -> u64 {
        let mut addr = self.disp as i64 as u64;
        if self.base != NO_REG {
            addr = addr.wrapping_add(state.gpr64(Gpr::from_number(self.base)));
        }
        if self.index != NO_REG {
            addr = addr.wrapping_add(
                state
                    .gpr64(Gpr::from_number(self.index))
                    .wrapping_mul(u64::from(self.scale)),
            );
        }
        addr
    }
}

/// A pre-resolved scalar operand (GPR, folded immediate, or memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SOp {
    Gpr(Gpr, OpSize),
    Imm(i64),
    Mem(EaRecipe),
}

/// A pre-resolved vector-context operand (vector register at its own
/// width, GPR, or memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VOp {
    Vec(VecReg),
    Gpr(Gpr, OpSize),
    Mem(EaRecipe),
}

/// Selector for the scalar add/sub family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArithSel {
    Add,
    Adc,
    Sub,
    Sbb,
    Cmp,
}

/// Selector for the scalar bitwise family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LogicSel {
    And,
    Or,
    Xor,
    Test,
}

/// Selector for scalar shifts and rotates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShiftSel {
    Shl,
    Shr,
    Sar,
    Rol,
    Ror,
}

/// Selector for bit-count instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BitCountSel {
    Popcnt,
    Lzcnt,
    Tzcnt,
}

/// Selector for scalar-FP arithmetic (`addss`-family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FpSel {
    Add,
    Sub,
    Mul,
    Div,
    Sqrt,
}

/// Selector for packed-FP arithmetic (`addps`-family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PackedSel {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
    Sqrt,
}

/// Selector for vector bitwise ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BitwiseSel {
    Xor,
    And,
    Or,
    AndNot,
}

/// Selector for packed integer multiplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PackedMulSel {
    Mullw,
    Mulld,
    Muludq,
    Maddwd,
}

/// Selector for packed shifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PackedShiftSel {
    Slld,
    Srld,
    Srad,
    Sllq,
    Srlq,
}

/// Selector for packed compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PackedCmpSel {
    Eqb,
    Eqd,
    Gtd,
}

/// One predecoded instruction, with every decode decision (operand
/// shapes, widths, VEX, the SSE/scalar split) already taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ExecOp {
    // ---- scalar ----
    Nop,
    Mov {
        dst: SOp,
        src: SOp,
    },
    Movsx {
        dst: SOp,
        src: SOp,
        src_width: u8,
    },
    Bswap {
        dst: SOp,
        width: u8,
    },
    Lea {
        dst: SOp,
        ea: EaRecipe,
    },
    Push {
        src: SOp,
    },
    Pop {
        dst: SOp,
    },
    Arith {
        sel: ArithSel,
        dst: SOp,
        src: SOp,
        width: u8,
    },
    Logic {
        sel: LogicSel,
        dst: SOp,
        src: SOp,
        width: u8,
    },
    IncDec {
        inc: bool,
        dst: SOp,
        width: u8,
    },
    Neg {
        dst: SOp,
        width: u8,
    },
    Not {
        dst: SOp,
    },
    Shift {
        sel: ShiftSel,
        dst: SOp,
        count: SOp,
        width: u8,
    },
    Imul1 {
        src: SOp,
        width: u8,
    },
    Imul2 {
        dst: SOp,
        src: SOp,
        width: u8,
    },
    Imul3 {
        dst: SOp,
        src1: SOp,
        src2: SOp,
        width: u8,
    },
    Mul {
        src: SOp,
        width: u8,
    },
    Div {
        signed: bool,
        src: SOp,
        width: u8,
    },
    Cdq,
    Cqo,
    BitCount {
        sel: BitCountSel,
        dst: SOp,
        src: SOp,
        width: u8,
    },
    SetCc {
        dst: SOp,
        cond: Cond,
    },
    CmovCc {
        dst: SOp,
        src: SOp,
        cond: Cond,
    },
    // ---- vector ----
    MovssMerge {
        dst: VecReg,
        src: VecReg,
        lane: u8,
        vex: bool,
    },
    MovssLoad {
        dst: VecReg,
        ea: EaRecipe,
        lane: u8,
        vex: bool,
    },
    MovssStore {
        ea: EaRecipe,
        src: VecReg,
        lane: u8,
        vex: bool,
    },
    VMov {
        dst: VOp,
        src: VOp,
        width: u8,
        vex: bool,
        aligned: bool,
    },
    MovdToVec {
        dst: VOp,
        src: VOp,
        lane: u8,
        vex: bool,
    },
    MovdFromVec {
        dst: SOp,
        src: VecReg,
        lane: u8,
    },
    Vbroadcastss {
        dst: VOp,
        src: VOp,
        width: u8,
    },
    FpScalar {
        sel: FpSel,
        wide: bool,
        dst: VOp,
        a: VOp,
        b: VOp,
        vex: bool,
    },
    Ucomis {
        wide: bool,
        a: VOp,
        b: VOp,
    },
    CvtSi2Fp {
        wide: bool,
        dst: VecReg,
        src: SOp,
        src_width: u8,
        vex: bool,
    },
    CvtFp2Si {
        wide: bool,
        dst: SOp,
        src: VOp,
    },
    Cvtdq2ps {
        dst: VOp,
        src: VOp,
        width: u8,
        vex: bool,
    },
    FpPackedF32 {
        sel: PackedSel,
        dst: VOp,
        a: VOp,
        b: VOp,
        width: u8,
        vex: bool,
    },
    FpPackedF64 {
        sel: PackedSel,
        dst: VOp,
        a: VOp,
        b: VOp,
        width: u8,
        vex: bool,
    },
    Fma {
        wide: bool,
        acc: VOp,
        a: VOp,
        b: VOp,
        width: u8,
    },
    VBitwise {
        sel: BitwiseSel,
        dst: VOp,
        a: VOp,
        b: VOp,
        width: u8,
        vex: bool,
    },
    PackedIntAddSub {
        lane_bytes: u8,
        add: bool,
        dst: VOp,
        a: VOp,
        b: VOp,
        width: u8,
        vex: bool,
    },
    PackedMul {
        sel: PackedMulSel,
        dst: VOp,
        a: VOp,
        b: VOp,
        width: u8,
        vex: bool,
    },
    PackedShift {
        sel: PackedShiftSel,
        dst: VOp,
        src: VOp,
        count: u32,
        width: u8,
        vex: bool,
    },
    PackedCmp {
        sel: PackedCmpSel,
        dst: VOp,
        a: VOp,
        b: VOp,
        width: u8,
        vex: bool,
    },
    Shufps {
        imm: u32,
        dst: VOp,
        a: VOp,
        b: VOp,
        width: u8,
        vex: bool,
    },
    Pshufd {
        imm: u32,
        dst: VOp,
        src: VOp,
        width: u8,
        vex: bool,
    },
    Pshufb {
        dst: VOp,
        a: VOp,
        b: VOp,
        width: u8,
        vex: bool,
    },
    Unpck {
        dst: VOp,
        a: VOp,
        b: VOp,
        width: u8,
        vex: bool,
    },
    Pmovmskb {
        dst: SOp,
        src: VecReg,
    },
}

impl ExecOp {
    /// Whether this op belongs to the vector kernel. The vector variants
    /// are declared contiguously, so this compiles to one discriminant
    /// range check — the lowered form of `Inst::is_sse` — sparing vector
    /// ops a walk through the scalar kernel's match.
    #[inline]
    pub(crate) fn is_vector(&self) -> bool {
        matches!(
            self,
            ExecOp::MovssMerge { .. }
                | ExecOp::MovssLoad { .. }
                | ExecOp::MovssStore { .. }
                | ExecOp::VMov { .. }
                | ExecOp::MovdToVec { .. }
                | ExecOp::MovdFromVec { .. }
                | ExecOp::Vbroadcastss { .. }
                | ExecOp::FpScalar { .. }
                | ExecOp::Ucomis { .. }
                | ExecOp::CvtSi2Fp { .. }
                | ExecOp::CvtFp2Si { .. }
                | ExecOp::Cvtdq2ps { .. }
                | ExecOp::FpPackedF32 { .. }
                | ExecOp::FpPackedF64 { .. }
                | ExecOp::Fma { .. }
                | ExecOp::VBitwise { .. }
                | ExecOp::PackedIntAddSub { .. }
                | ExecOp::PackedMul { .. }
                | ExecOp::PackedShift { .. }
                | ExecOp::PackedCmp { .. }
                | ExecOp::Shufps { .. }
                | ExecOp::Pshufd { .. }
                | ExecOp::Pshufb { .. }
                | ExecOp::Unpck { .. }
                | ExecOp::Pmovmskb { .. }
        )
    }
}

/// A block lowered once into the flat IR, plus the block-level facts the
/// executor needs (whether any instruction requires AVX2).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct LoweredBlock {
    /// One op per static instruction, in block order (`static_idx` of the
    /// emitted `DynInst` is the index here).
    pub ops: Vec<ExecOp>,
    /// The block uses a VEX-only mnemonic or a ymm operand; machines
    /// without AVX2 must fault with `#UD` before executing anything.
    pub uses_avx2: bool,
}

/// Executes one predecoded op, mutating `state` and `mem`, recording its
/// effects into the caller-provided (default-initialized) `fx` — usually
/// the trace slot itself, so effects are written once instead of bounced
/// through return-value copies. Faults are precise: a faulting op leaves
/// `state` and `mem` as they were.
///
/// Kept out of line so the unroll loop in `execute_unrolled_into` stays a
/// few cache lines of code calling one dispatch function — inlining the
/// full kernel match into the loop body measurably regresses it.
#[inline(never)]
pub(crate) fn execute_op(
    op: &ExecOp,
    state: &mut CpuState,
    mem: &mut Memory,
    fx: &mut InstEffects,
) -> Result<(), ExecFault> {
    if op.is_vector() {
        super::vector_ops::execute(op, state, mem, fx)?;
    } else {
        let handled = super::scalar_ops::execute(op, state, mem, fx)?;
        debug_assert!(handled, "scalar kernel declined a non-vector op: {op:?}");
    }
    Ok(())
}
