//! Instruction mnemonics and the [`Inst`] type.

use crate::cond::Cond;
use crate::operand::{MemRef, Operand};
use crate::reg::{Gpr, VecReg};
use serde::{Deserialize, Serialize};

/// Coarse functional class of a mnemonic.
///
/// The class determines which micro-op recipe `bhive-uarch` applies and is
/// the main axis of the corpus instruction-mix generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MnemonicClass {
    /// Scalar register/memory moves, zero/sign extensions, `bswap`.
    DataMove,
    /// Scalar integer ALU (`add`, `xor`, `cmp`, ...).
    Alu,
    /// Address computation (`lea`).
    Lea,
    /// Shifts and rotates.
    Shift,
    /// Scalar integer multiply.
    Mul,
    /// Scalar integer divide (variable latency).
    Div,
    /// Bit counting (`popcnt`, `lzcnt`, `tzcnt`).
    BitCount,
    /// Conditional move.
    CondMove,
    /// Conditional set.
    CondSet,
    /// Conditional branch (allowed only as block terminator; never taken).
    Branch,
    /// Stack push/pop.
    Stack,
    /// Sign-extension of the accumulator (`cdq`, `cqo`).
    SignExtendAcc,
    /// No-operation.
    Nop,
    /// Scalar/packed FP moves (`movss`, `movaps`, `movdqu`, ...).
    FpMove,
    /// FP add/sub (scalar or packed).
    FpAdd,
    /// FP multiply.
    FpMul,
    /// Fused multiply-add.
    Fma,
    /// FP divide (variable latency).
    FpDiv,
    /// FP square root (variable latency).
    FpSqrt,
    /// FP min/max.
    FpMinMax,
    /// FP compare (`ucomiss`, ...).
    FpCmp,
    /// Int<->FP conversions.
    FpCvt,
    /// Bitwise ops on FP registers (`xorps`, `pand`, ...).
    VecLogic,
    /// Packed integer add/sub/compare.
    VecIntAlu,
    /// Packed integer multiply.
    VecIntMul,
    /// Packed shifts.
    VecShift,
    /// Shuffles, unpacks, broadcasts, permutes.
    VecShuffle,
    /// Vector-to-GPR mask extraction (`pmovmskb`).
    VecMask,
}

macro_rules! mnemonics {
    ($(($variant:ident, $name:literal, $class:ident)),+ $(,)?) => {
        /// Every instruction family understood by the suite.
        ///
        /// Condition-code families (`SETcc`, `CMOVcc`, `Jcc`) are single
        /// variants here; the condition lives in [`Inst::cond`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        #[allow(missing_docs)]
        pub enum Mnemonic {
            $($variant),+
        }

        impl Mnemonic {
            /// All supported mnemonics.
            pub const ALL: &'static [Mnemonic] = &[$(Mnemonic::$variant),+];

            /// The base Intel-syntax name (without condition suffix or
            /// AVX `v` prefix).
            pub fn name(self) -> &'static str {
                match self {
                    $(Mnemonic::$variant => $name),+
                }
            }

            /// The functional class of the mnemonic.
            pub fn class(self) -> MnemonicClass {
                match self {
                    $(Mnemonic::$variant => MnemonicClass::$class),+
                }
            }

            /// Looks a mnemonic up by its base name.
            pub fn from_name(name: &str) -> Option<Mnemonic> {
                match name {
                    $($name => Some(Mnemonic::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

mnemonics! {
    // Scalar moves and extensions.
    (Mov, "mov", DataMove),
    (Movzx, "movzx", DataMove),
    (Movsx, "movsx", DataMove),
    (Movsxd, "movsxd", DataMove),
    (Bswap, "bswap", DataMove),
    (Lea, "lea", Lea),
    (Push, "push", Stack),
    (Pop, "pop", Stack),
    // Scalar ALU.
    (Add, "add", Alu),
    (Sub, "sub", Alu),
    (Adc, "adc", Alu),
    (Sbb, "sbb", Alu),
    (And, "and", Alu),
    (Or, "or", Alu),
    (Xor, "xor", Alu),
    (Cmp, "cmp", Alu),
    (Test, "test", Alu),
    (Inc, "inc", Alu),
    (Dec, "dec", Alu),
    (Neg, "neg", Alu),
    (Not, "not", Alu),
    // Shifts and rotates.
    (Shl, "shl", Shift),
    (Shr, "shr", Shift),
    (Sar, "sar", Shift),
    (Rol, "rol", Shift),
    (Ror, "ror", Shift),
    // Multiply / divide.
    (Imul, "imul", Mul),
    (Mul, "mul", Mul),
    (Div, "div", Div),
    (Idiv, "idiv", Div),
    (Cdq, "cdq", SignExtendAcc),
    (Cqo, "cqo", SignExtendAcc),
    // Bit counting.
    (Popcnt, "popcnt", BitCount),
    (Lzcnt, "lzcnt", BitCount),
    (Tzcnt, "tzcnt", BitCount),
    // Conditionals.
    (Set, "set", CondSet),
    (Cmov, "cmov", CondMove),
    (Jcc, "j", Branch),
    (Nop, "nop", Nop),
    // Scalar FP.
    (Movss, "movss", FpMove),
    (Movsd, "movsd", FpMove),
    (Addss, "addss", FpAdd),
    (Addsd, "addsd", FpAdd),
    (Subss, "subss", FpAdd),
    (Subsd, "subsd", FpAdd),
    (Mulss, "mulss", FpMul),
    (Mulsd, "mulsd", FpMul),
    (Divss, "divss", FpDiv),
    (Divsd, "divsd", FpDiv),
    (Sqrtss, "sqrtss", FpSqrt),
    (Sqrtsd, "sqrtsd", FpSqrt),
    (Ucomiss, "ucomiss", FpCmp),
    (Ucomisd, "ucomisd", FpCmp),
    (Cvtsi2ss, "cvtsi2ss", FpCvt),
    (Cvtsi2sd, "cvtsi2sd", FpCvt),
    (Cvttss2si, "cvttss2si", FpCvt),
    (Cvttsd2si, "cvttsd2si", FpCvt),
    // Packed FP.
    (Movaps, "movaps", FpMove),
    (Movups, "movups", FpMove),
    (Addps, "addps", FpAdd),
    (Addpd, "addpd", FpAdd),
    (Subps, "subps", FpAdd),
    (Subpd, "subpd", FpAdd),
    (Mulps, "mulps", FpMul),
    (Mulpd, "mulpd", FpMul),
    (Divps, "divps", FpDiv),
    (Divpd, "divpd", FpDiv),
    (Sqrtps, "sqrtps", FpSqrt),
    (Minps, "minps", FpMinMax),
    (Maxps, "maxps", FpMinMax),
    (Xorps, "xorps", VecLogic),
    (Xorpd, "xorpd", VecLogic),
    (Andps, "andps", VecLogic),
    (Orps, "orps", VecLogic),
    (Shufps, "shufps", VecShuffle),
    (Unpcklps, "unpcklps", VecShuffle),
    (Cvtdq2ps, "cvtdq2ps", FpCvt),
    // FMA (VEX-only, Haswell+).
    (Vfmadd231ps, "vfmadd231ps", Fma),
    (Vfmadd231pd, "vfmadd231pd", Fma),
    (Vbroadcastss, "vbroadcastss", VecShuffle),
    // Packed integer.
    (Movdqa, "movdqa", FpMove),
    (Movdqu, "movdqu", FpMove),
    (Paddb, "paddb", VecIntAlu),
    (Paddw, "paddw", VecIntAlu),
    (Paddd, "paddd", VecIntAlu),
    (Paddq, "paddq", VecIntAlu),
    (Psubb, "psubb", VecIntAlu),
    (Psubw, "psubw", VecIntAlu),
    (Psubd, "psubd", VecIntAlu),
    (Psubq, "psubq", VecIntAlu),
    (Pmullw, "pmullw", VecIntMul),
    (Pmulld, "pmulld", VecIntMul),
    (Pmuludq, "pmuludq", VecIntMul),
    (Pmaddwd, "pmaddwd", VecIntMul),
    (Pand, "pand", VecLogic),
    (Por, "por", VecLogic),
    (Pxor, "pxor", VecLogic),
    (Pandn, "pandn", VecLogic),
    (Pslld, "pslld", VecShift),
    (Psllq, "psllq", VecShift),
    (Psrld, "psrld", VecShift),
    (Psrlq, "psrlq", VecShift),
    (Psrad, "psrad", VecShift),
    (Pcmpeqb, "pcmpeqb", VecIntAlu),
    (Pcmpeqd, "pcmpeqd", VecIntAlu),
    (Pcmpgtd, "pcmpgtd", VecIntAlu),
    (Pshufd, "pshufd", VecShuffle),
    (Pshufb, "pshufb", VecShuffle),
    (Punpckldq, "punpckldq", VecShuffle),
    (Pmovmskb, "pmovmskb", VecMask),
    (Movd, "movd", FpMove),
    (Movq, "movq", FpMove),
}

impl Mnemonic {
    /// True if this mnemonic carries a condition code
    /// (`set`/`cmov`/`j` families).
    pub fn takes_cond(self) -> bool {
        matches!(self, Mnemonic::Set | Mnemonic::Cmov | Mnemonic::Jcc)
    }

    /// True for SSE/AVX mnemonics (operate on vector registers).
    pub fn is_sse(self) -> bool {
        use MnemonicClass::*;
        matches!(
            self.class(),
            FpMove
                | FpAdd
                | FpMul
                | Fma
                | FpDiv
                | FpSqrt
                | FpMinMax
                | FpCmp
                | FpCvt
                | VecLogic
                | VecIntAlu
                | VecIntMul
                | VecShift
                | VecShuffle
                | VecMask
        )
    }

    /// True for mnemonics that only exist in VEX (AVX) form.
    pub fn is_vex_only(self) -> bool {
        matches!(
            self,
            Mnemonic::Vfmadd231ps | Mnemonic::Vfmadd231pd | Mnemonic::Vbroadcastss
        )
    }

    /// True if the mnemonic's memory operand is address-only: the
    /// address is computed but never accessed, so it carries no
    /// meaningful access width. Everything keyed on this property —
    /// width canonicalization in [`Inst::new`], [`Inst::touches_memory`],
    /// [`Inst::loads_memory`] — follows automatically when a new
    /// address-only mnemonic (e.g. a prefetch hint) is added here.
    pub fn mem_is_address_only(self) -> bool {
        self == Mnemonic::Lea
    }

    /// The memory-access width a scalar-FP mnemonic fixes by name
    /// (`..ss`/`vbroadcastss` → 4 bytes, `..sd` → 8), independent of any
    /// register operand. `None` for everything else.
    pub fn scalar_fp_mem_width(self) -> Option<u8> {
        // Integer-source converts read a GPR-sized memory operand; the
        // width comes from the size keyword, not the mnemonic.
        if matches!(self, Mnemonic::Cvtsi2ss | Mnemonic::Cvtsi2sd) {
            return None;
        }
        if !self.is_sse() {
            return None;
        }
        let name = self.name();
        if name.ends_with("ss") || self == Mnemonic::Vbroadcastss || self == Mnemonic::Cvttss2si {
            Some(4)
        } else if name.ends_with("sd") || self == Mnemonic::Cvttsd2si {
            Some(8)
        } else {
            None
        }
    }
}

/// The shared VEX-inference rule used by the constructors and both
/// parsers: a mnemonic that only exists in VEX form, or any 256-bit
/// operand, forces a VEX encoding.
pub(crate) fn infer_vex(mnemonic: Mnemonic, operands: &[Operand]) -> bool {
    mnemonic.is_vex_only()
        || operands
            .iter()
            .any(|op| matches!(op, Operand::Vec(v) if v.width() == crate::reg::VecWidth::Ymm))
}

/// A single decoded instruction.
///
/// `Inst` is the unit the parser, encoder, simulator and every cost model
/// exchange. Construction goes through [`Inst::new`] or the convenience
/// constructors; the parser and decoder produce `Inst`s from text and bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Inst {
    mnemonic: Mnemonic,
    cond: Option<Cond>,
    /// Encoded/printed with a VEX prefix (`v` prefix in assembly).
    vex: bool,
    operands: Vec<Operand>,
}

impl Inst {
    /// Creates an instruction.
    ///
    /// # Panics
    ///
    /// Panics if a condition is supplied for a mnemonic that does not take
    /// one (or omitted for one that does), or if more than four operands
    /// are supplied.
    pub fn new(mnemonic: Mnemonic, cond: Option<Cond>, vex: bool, operands: Vec<Operand>) -> Inst {
        assert_eq!(
            mnemonic.takes_cond(),
            cond.is_some(),
            "condition mismatch for {mnemonic:?}"
        );
        assert!(operands.len() <= 4, "too many operands for {mnemonic:?}");
        // Address-only operands (`lea`) have no meaningful width;
        // canonicalize to the destination width so that text/byte round
        // trips are exact.
        let mut operands = operands;
        if mnemonic.mem_is_address_only() {
            let dst_width = operands.first().and_then(Operand::width_bytes);
            if let (Some(width), Some(Operand::Mem(mem))) = (dst_width, operands.get_mut(1)) {
                mem.width = width;
            }
        }
        Inst {
            mnemonic,
            cond,
            vex,
            operands,
        }
    }

    /// A legacy-encoded (non-VEX) instruction without condition.
    pub fn basic(mnemonic: Mnemonic, operands: Vec<Operand>) -> Inst {
        let vex = infer_vex(mnemonic, &operands);
        Inst::new(mnemonic, None, vex, operands)
    }

    /// A VEX-encoded (AVX) instruction without condition.
    pub fn vex(mnemonic: Mnemonic, operands: Vec<Operand>) -> Inst {
        Inst::new(mnemonic, None, true, operands)
    }

    /// A conditional instruction (`set`/`cmov`/`j`).
    pub fn with_cond(mnemonic: Mnemonic, cond: Cond, operands: Vec<Operand>) -> Inst {
        Inst::new(mnemonic, Some(cond), false, operands)
    }

    /// The mnemonic.
    #[inline]
    pub fn mnemonic(&self) -> Mnemonic {
        self.mnemonic
    }

    /// The condition code, for `set`/`cmov`/`j` families.
    #[inline]
    pub fn cond(&self) -> Option<Cond> {
        self.cond
    }

    /// Whether the instruction uses a VEX (AVX) encoding.
    #[inline]
    pub fn is_vex(&self) -> bool {
        self.vex
    }

    /// The operand list, destination first.
    #[inline]
    pub fn operands(&self) -> &[Operand] {
        &self.operands
    }

    /// The memory operand, if the instruction has one.
    ///
    /// The supported subset never has more than one memory operand.
    pub fn mem_operand(&self) -> Option<&MemRef> {
        self.operands.iter().find_map(Operand::as_mem)
    }

    /// True if the instruction reads or writes memory.
    ///
    /// `lea` computes an address but performs no access, so it returns
    /// `false`; stack ops implicitly access memory, so they return `true`.
    pub fn touches_memory(&self) -> bool {
        if self.mnemonic.mem_is_address_only() {
            return false;
        }
        if self.mnemonic.class() == MnemonicClass::Stack {
            return true;
        }
        self.mem_operand().is_some()
    }

    /// True if the memory operand (if any) is loaded from.
    ///
    /// The destination (first) operand of a plain store is written, not
    /// read; read-modify-write forms (e.g. `add [rbx], 1`) both load and
    /// store.
    pub fn loads_memory(&self) -> bool {
        if self.mnemonic.mem_is_address_only() {
            return false;
        }
        if self.mnemonic == Mnemonic::Pop {
            return true;
        }
        match self.mem_operand_index() {
            Some(0) => self.is_rmw() || self.reads_dst(),
            Some(_) => true,
            None => false,
        }
    }

    /// True if the memory operand (if any) is stored to.
    pub fn stores_memory(&self) -> bool {
        if self.mnemonic == Mnemonic::Push {
            return true;
        }
        match self.mem_operand_index() {
            Some(0) => self.writes_dst(),
            _ => false,
        }
    }

    /// Index of the memory operand in [`Inst::operands`], if any.
    pub fn mem_operand_index(&self) -> Option<usize> {
        self.operands.iter().position(Operand::is_mem)
    }

    /// True for read-modify-write instructions when the destination is
    /// memory (e.g. `add [rbx], 1`, `inc byte ptr [rax]`).
    pub fn is_rmw(&self) -> bool {
        use Mnemonic::*;
        self.mem_operand_index() == Some(0)
            && matches!(
                self.mnemonic,
                Add | Sub
                    | Adc
                    | Sbb
                    | And
                    | Or
                    | Xor
                    | Inc
                    | Dec
                    | Neg
                    | Not
                    | Shl
                    | Shr
                    | Sar
                    | Rol
                    | Ror
            )
    }

    /// True when instruction semantics read the first operand
    /// (e.g. `add dst, src` reads `dst`; `mov dst, src` does not).
    pub fn reads_dst(&self) -> bool {
        use Mnemonic::*;
        match self.mnemonic {
            Mov | Movzx | Movsx | Movsxd | Lea | Pop | Set | Movss | Movsd | Movaps | Movups
            | Movdqa | Movdqu | Movd | Movq | Vbroadcastss | Pshufd | Cvtsi2ss | Cvtsi2sd
            | Cvttss2si | Cvttsd2si | Cvtdq2ps | Sqrtss | Sqrtsd | Sqrtps | Pmovmskb | Nop
            | Jcc | Cdq | Cqo => false,
            // Cmp/test/ucomis read but do not write; they still "read dst".
            _ => true,
        }
    }

    /// True when the first operand is written.
    pub fn writes_dst(&self) -> bool {
        use Mnemonic::*;
        !matches!(
            self.mnemonic,
            Cmp | Test | Ucomiss | Ucomisd | Push | Jcc | Nop | Cdq | Cqo
        ) && !self.operands.is_empty()
    }

    /// General-purpose registers read by the instruction (explicit operands
    /// plus addressing registers; implicit accumulator registers for
    /// `mul`/`div`/`cdq` families and `cl` for variable shifts).
    pub fn gpr_reads(&self) -> Vec<Gpr> {
        use Mnemonic::*;
        let mut regs = Vec::new();
        // Addressing registers of a memory operand are always read.
        if let Some(mem) = self.mem_operand() {
            regs.extend(mem.address_regs());
        }
        // Implicit reads.
        match self.mnemonic {
            Mul | Imul if self.operands.len() == 1 => regs.push(Gpr::Rax),
            Div | Idiv => {
                regs.push(Gpr::Rax);
                regs.push(Gpr::Rdx);
            }
            Cdq | Cqo => regs.push(Gpr::Rax),
            Push | Pop => regs.push(Gpr::Rsp),
            _ => {}
        }
        for (idx, op) in self.operands.iter().enumerate() {
            if let Operand::Gpr { reg, .. } = op {
                let read = if idx == 0 {
                    self.reads_dst() || !self.writes_dst()
                } else {
                    true
                };
                if read {
                    regs.push(*reg);
                }
            }
        }
        regs
    }

    /// General-purpose registers written by the instruction.
    pub fn gpr_writes(&self) -> Vec<Gpr> {
        use Mnemonic::*;
        let mut regs = Vec::new();
        match self.mnemonic {
            Mul | Imul if self.operands.len() == 1 => {
                regs.push(Gpr::Rax);
                regs.push(Gpr::Rdx);
            }
            Div | Idiv => {
                regs.push(Gpr::Rax);
                regs.push(Gpr::Rdx);
            }
            Cdq | Cqo => regs.push(Gpr::Rdx),
            Push | Pop => regs.push(Gpr::Rsp),
            _ => {}
        }
        if self.writes_dst() {
            if let Some(Operand::Gpr { reg, .. }) = self.operands.first() {
                regs.push(*reg);
            }
        }
        regs
    }

    /// Vector registers read by the instruction.
    pub fn vec_reads(&self) -> Vec<VecReg> {
        let mut regs = Vec::new();
        for (idx, op) in self.operands.iter().enumerate() {
            if let Operand::Vec(v) = op {
                let read = if idx == 0 {
                    self.reads_dst() || !self.writes_dst()
                } else {
                    true
                };
                if read {
                    regs.push(*v);
                }
            }
        }
        regs
    }

    /// Vector registers written by the instruction.
    pub fn vec_writes(&self) -> Vec<VecReg> {
        if self.writes_dst() {
            if let Some(Operand::Vec(v)) = self.operands.first() {
                return vec![*v];
            }
        }
        Vec::new()
    }

    /// True if the instruction architecturally writes RFLAGS.
    ///
    /// `not` is the one ALU-class instruction that leaves flags alone.
    pub fn writes_flags(&self) -> bool {
        use MnemonicClass::*;
        if self.mnemonic() == Mnemonic::Not {
            return false;
        }
        matches!(
            self.mnemonic().class(),
            Alu | Shift | Mul | BitCount | FpCmp
        )
    }

    /// True if the instruction reads RFLAGS (`adc`/`sbb`, conditionals,
    /// rotates through carry).
    pub fn reads_flags(&self) -> bool {
        matches!(
            self.mnemonic(),
            Mnemonic::Adc
                | Mnemonic::Sbb
                | Mnemonic::Cmov
                | Mnemonic::Set
                | Mnemonic::Jcc
                | Mnemonic::Rol
                | Mnemonic::Ror
        )
    }

    /// True for dependency-breaking zero idioms: `xor r, r`, `sub r, r`,
    /// `pxor x, x`, `xorps x, x`, `pcmpeq x, x` (ones idiom counted too),
    /// and their VEX forms with identical sources.
    pub fn is_zero_idiom(&self) -> bool {
        use Mnemonic::*;
        match self.mnemonic {
            Xor | Sub => matches!(
                (self.operands.first(), self.operands.get(1)),
                (Some(Operand::Gpr { reg: a, .. }), Some(Operand::Gpr { reg: b, .. })) if a == b
            ),
            Pxor | Xorps | Xorpd | Psubb | Psubw | Psubd | Psubq | Pcmpeqb | Pcmpeqd => {
                let srcs: Vec<VecReg> = self
                    .operands
                    .iter()
                    .skip(if self.operands.len() == 3 { 1 } else { 0 })
                    .filter_map(Operand::as_vec)
                    .collect();
                srcs.len() >= 2 && srcs.windows(2).all(|w| w[0].number() == w[1].number())
                    // Legacy two-operand form: dst is also a source.
                    && (self.operands.len() == 3
                        || self.operands.first().and_then(Operand::as_vec).map(|d| d.number())
                            == srcs.first().map(|s| s.number()))
            }
            _ => false,
        }
    }

    /// The nominal operand width of the instruction in bytes, derived from
    /// the first sized operand (used for REX.W decisions and statistics).
    pub fn width_bytes(&self) -> u8 {
        self.operands
            .iter()
            .find_map(Operand::width_bytes)
            .unwrap_or(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::Scale;
    use crate::reg::{OpSize, VecWidth};

    fn rax_d() -> Operand {
        Operand::gpr(Gpr::Rax, OpSize::D)
    }

    #[test]
    fn mnemonic_names_round_trip() {
        for &m in Mnemonic::ALL {
            assert_eq!(Mnemonic::from_name(m.name()), Some(m), "{m:?}");
        }
    }

    #[test]
    fn zero_idiom_detection() {
        let zi = Inst::basic(Mnemonic::Xor, vec![rax_d(), rax_d()]);
        assert!(zi.is_zero_idiom());
        let not_zi = Inst::basic(
            Mnemonic::Xor,
            vec![rax_d(), Operand::gpr(Gpr::Rbx, OpSize::D)],
        );
        assert!(!not_zi.is_zero_idiom());
        // vxorps xmm2, xmm2, xmm2 — the paper's case-study block.
        let v = VecReg::xmm(2);
        let vz = Inst::vex(Mnemonic::Xorps, vec![v.into(), v.into(), v.into()]);
        assert!(vz.is_zero_idiom());
        let vnz = Inst::vex(
            Mnemonic::Xorps,
            vec![v.into(), v.into(), VecReg::xmm(3).into()],
        );
        assert!(!vnz.is_zero_idiom());
        // Legacy pxor xmm1, xmm1.
        let p = Inst::basic(
            Mnemonic::Pxor,
            vec![VecReg::xmm(1).into(), VecReg::xmm(1).into()],
        );
        assert!(p.is_zero_idiom());
    }

    #[test]
    fn memory_direction_flags() {
        let mem = MemRef::base(Gpr::Rbx, 4);
        let load = Inst::basic(Mnemonic::Mov, vec![rax_d(), mem.into()]);
        assert!(load.loads_memory() && !load.stores_memory());
        let store = Inst::basic(Mnemonic::Mov, vec![mem.into(), rax_d()]);
        assert!(!store.loads_memory() && store.stores_memory());
        let rmw = Inst::basic(Mnemonic::Add, vec![mem.into(), Operand::Imm(1)]);
        assert!(rmw.loads_memory() && rmw.stores_memory() && rmw.is_rmw());
        let cmp = Inst::basic(Mnemonic::Cmp, vec![mem.into(), Operand::Imm(0)]);
        assert!(cmp.loads_memory() && !cmp.stores_memory());
        let lea = Inst::basic(Mnemonic::Lea, vec![rax_d(), mem.into()]);
        assert!(!lea.touches_memory());
    }

    #[test]
    fn implicit_registers_div() {
        let div = Inst::basic(Mnemonic::Div, vec![Operand::gpr(Gpr::Rcx, OpSize::D)]);
        let reads = div.gpr_reads();
        assert!(reads.contains(&Gpr::Rax) && reads.contains(&Gpr::Rdx));
        assert!(reads.contains(&Gpr::Rcx));
        let writes = div.gpr_writes();
        assert!(writes.contains(&Gpr::Rax) && writes.contains(&Gpr::Rdx));
    }

    #[test]
    fn addressing_registers_counted_as_reads() {
        let mem = MemRef::base_index(Gpr::Rsi, Gpr::Rcx, Scale::S4, 0, 4);
        let inst = Inst::basic(Mnemonic::Mov, vec![rax_d(), mem.into()]);
        let reads = inst.gpr_reads();
        assert!(reads.contains(&Gpr::Rsi) && reads.contains(&Gpr::Rcx));
        assert_eq!(inst.gpr_writes(), vec![Gpr::Rax]);
    }

    #[test]
    fn ymm_operand_implies_vex() {
        let y = VecReg::new(0, VecWidth::Ymm);
        let inst = Inst::basic(Mnemonic::Addps, vec![y.into(), y.into(), y.into()]);
        assert!(inst.is_vex());
    }

    #[test]
    #[should_panic(expected = "condition mismatch")]
    fn cond_mismatch_panics() {
        let _ = Inst::new(Mnemonic::Add, Some(Cond::E), false, vec![]);
    }
}
