//! [`BasicBlock`]: the unit of profiling and model evaluation.

use crate::decode::decode_stream;
use crate::encode::encode_inst;
use crate::error::AsmError;
use crate::inst::{Inst, MnemonicClass};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One instruction's `(offset, len)` within its block's encoding.
type Span = (u32, u32);

/// A straight-line sequence of instructions.
///
/// As in the published BHive suite, blocks contain no control flow: a
/// trailing conditional branch is permitted (it participates in
/// macro-fusion modeling) but is never taken.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), bhive_asm::AsmError> {
/// use bhive_asm::BasicBlock;
///
/// let block = bhive_asm::parse_block("xor eax, eax\nadd rbx, 8")?;
/// let hex = block.to_hex()?;
/// assert_eq!(BasicBlock::from_hex(&hex)?, block);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct BasicBlock {
    insts: Vec<Inst>,
}

impl BasicBlock {
    /// Creates a block from instructions.
    pub fn new(insts: Vec<Inst>) -> BasicBlock {
        BasicBlock { insts }
    }

    /// The instructions of the block, in program order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the block contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Inst> {
        self.insts.iter()
    }

    /// Encodes the whole block to machine code.
    ///
    /// # Errors
    ///
    /// Propagates the first [`AsmError`] from [`crate::encode_inst`].
    pub fn encode(&self) -> Result<Vec<u8>, AsmError> {
        let mut out = Vec::with_capacity(self.insts.len() * 4);
        for inst in &self.insts {
            encode_inst(inst, &mut out)?;
        }
        Ok(out)
    }

    /// Encodes the block and records each instruction's `(offset, len)`
    /// span in the same pass, so callers that also need a code layout
    /// (e.g. the profiler's `CodeLayout::from_spans`) never encode twice.
    ///
    /// # Errors
    ///
    /// Propagates the first [`AsmError`] from [`crate::encode_inst`].
    pub fn encode_spanned(&self) -> Result<(Vec<u8>, Vec<Span>), AsmError> {
        let mut out = Vec::with_capacity(self.insts.len() * 4);
        let mut spans = Vec::with_capacity(self.insts.len());
        for inst in &self.insts {
            let start = out.len() as u32;
            encode_inst(inst, &mut out)?;
            spans.push((start, out.len() as u32 - start));
        }
        Ok((out, spans))
    }

    /// Total encoded size in bytes.
    ///
    /// # Errors
    ///
    /// Propagates the first [`AsmError`] from [`crate::encode_inst`].
    pub fn encoded_len(&self) -> Result<usize, AsmError> {
        Ok(self.encode()?.len())
    }

    /// Decodes a block from machine code.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::Decode`] when the bytes are not a supported
    /// instruction stream.
    pub fn decode(bytes: &[u8]) -> Result<BasicBlock, AsmError> {
        Ok(BasicBlock::new(decode_stream(bytes)?))
    }

    /// Encodes the block to the lowercase-hex wire format used by the
    /// published BHive CSV files.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    pub fn to_hex(&self) -> Result<String, AsmError> {
        let bytes = self.encode()?;
        let mut out = String::with_capacity(bytes.len() * 2);
        for byte in bytes {
            use std::fmt::Write;
            write!(out, "{byte:02x}").expect("writing to String cannot fail");
        }
        Ok(out)
    }

    /// Decodes a block from the lowercase-hex wire format.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::InvalidHex`] for malformed hex and
    /// [`AsmError::Decode`] for unsupported machine code.
    pub fn from_hex(hex: &str) -> Result<BasicBlock, AsmError> {
        let hex = hex.trim();
        if !hex.len().is_multiple_of(2) {
            return Err(AsmError::InvalidHex {
                message: "odd number of hex digits".into(),
            });
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for chunk in hex.as_bytes().chunks(2) {
            // A non-ASCII character can straddle two pairs, so a pair is
            // not always valid UTF-8 on its own.
            let byte = std::str::from_utf8(chunk)
                .ok()
                .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                .ok_or_else(|| AsmError::InvalidHex {
                    message: format!("invalid hex pair `{}`", String::from_utf8_lossy(chunk)),
                })?;
            bytes.push(byte);
        }
        BasicBlock::decode(&bytes)
    }

    /// Validates BHive block structure: a branch may appear only as the
    /// final instruction, and at most one memory operand per instruction
    /// (guaranteed by construction for the supported subset).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (idx, inst) in self.insts.iter().enumerate() {
            if inst.mnemonic().class() == MnemonicClass::Branch && idx + 1 != self.insts.len() {
                return Err(format!(
                    "branch `{inst}` at position {idx} is not the final instruction"
                ));
            }
        }
        Ok(())
    }

    /// True if the block uses any 256-bit (`ymm`) operand or an AVX2/FMA
    /// mnemonic — such blocks are excluded from Ivy Bridge evaluation, as
    /// in the paper.
    pub fn uses_avx2(&self) -> bool {
        self.insts.iter().any(|inst| {
            inst.mnemonic().is_vex_only()
                || inst.operands().iter().any(|op| {
                    matches!(op, crate::operand::Operand::Vec(v)
                        if v.width() == crate::reg::VecWidth::Ymm)
                })
        })
    }

    /// Count of instructions touching memory.
    pub fn memory_inst_count(&self) -> usize {
        self.insts
            .iter()
            .filter(|inst| inst.touches_memory())
            .count()
    }
}

impl fmt::Display for BasicBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (idx, inst) in self.insts.iter().enumerate() {
            if idx > 0 {
                writeln!(f)?;
            }
            write!(f, "{inst}")?;
        }
        Ok(())
    }
}

impl FromIterator<Inst> for BasicBlock {
    fn from_iter<T: IntoIterator<Item = Inst>>(iter: T) -> Self {
        BasicBlock::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a BasicBlock {
    type Item = &'a Inst;
    type IntoIter = std::slice::Iter<'a, Inst>;

    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

/// FNV-1a over a byte slice: the stable content hash used for block
/// identity throughout the suite (noise seeding, dedup cache keys,
/// corpus fingerprints).
///
/// Chosen over `std::hash::Hash` because its output is fixed by the
/// algorithm — independent of compiler release, platform, and hasher
/// seeding — so hashes can be persisted and compared across runs.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Incremental builder for [`BasicBlock`]s (used heavily by the corpus
/// generators).
#[derive(Debug, Default, Clone)]
pub struct BlockBuilder {
    insts: Vec<Inst>,
}

impl BlockBuilder {
    /// Creates an empty builder.
    pub fn new() -> BlockBuilder {
        BlockBuilder::default()
    }

    /// Appends an instruction.
    pub fn push(&mut self, inst: Inst) -> &mut BlockBuilder {
        self.insts.push(inst);
        self
    }

    /// Appends every instruction of another block.
    pub fn extend(&mut self, block: &BasicBlock) -> &mut BlockBuilder {
        self.insts.extend(block.insts().iter().cloned());
        self
    }

    /// Number of instructions so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if no instructions have been pushed.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Finishes the block.
    pub fn build(&self) -> BasicBlock {
        BasicBlock::new(self.insts.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Cond;
    use crate::inst::Mnemonic;
    use crate::operand::Operand;
    use crate::parse::parse_block;
    use crate::reg::{Gpr, OpSize};

    #[test]
    fn hex_round_trip() {
        let block = parse_block("xor eax, eax\nadd rbx, 0x10").unwrap();
        let hex = block.to_hex().unwrap();
        assert_eq!(hex, "31c04883c310");
        assert_eq!(BasicBlock::from_hex(&hex).unwrap(), block);
    }

    #[test]
    fn from_hex_rejects_malformed() {
        assert!(matches!(
            BasicBlock::from_hex("31c"),
            Err(AsmError::InvalidHex { .. })
        ));
        assert!(matches!(
            BasicBlock::from_hex("zz"),
            Err(AsmError::InvalidHex { .. })
        ));
    }

    #[test]
    fn validate_rejects_mid_block_branch() {
        let mut insts = vec![
            Inst::with_cond(Mnemonic::Jcc, Cond::E, vec![Operand::Imm(0)]),
            Inst::basic(Mnemonic::Nop, vec![]),
        ];
        let block = BasicBlock::new(insts.clone());
        assert!(block.validate().is_err());
        insts.reverse();
        assert!(BasicBlock::new(insts).validate().is_ok());
    }

    #[test]
    fn fnv1a_64_is_fixed() {
        // Fixed by the FNV-1a algorithm: must never change across
        // releases, or persisted dedup keys go stale.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn avx2_detection() {
        let block = parse_block("vaddps ymm0, ymm1, ymm2").unwrap();
        assert!(block.uses_avx2());
        let block = parse_block("vaddps xmm0, xmm1, xmm2").unwrap();
        assert!(!block.uses_avx2());
        let block = parse_block("vfmadd231ps xmm0, xmm1, xmm2").unwrap();
        assert!(block.uses_avx2());
    }

    #[test]
    fn builder_accumulates() {
        let mut builder = BlockBuilder::new();
        assert!(builder.is_empty());
        builder
            .push(Inst::basic(Mnemonic::Nop, vec![]))
            .push(Inst::basic(
                Mnemonic::Add,
                vec![Operand::gpr(Gpr::Rax, OpSize::Q), Operand::Imm(1)],
            ));
        assert_eq!(builder.len(), 2);
        let block = builder.build();
        assert_eq!(block.len(), 2);
        assert_eq!(block.memory_inst_count(), 0);
    }

    #[test]
    fn display_is_parseable() {
        let block = parse_block("xor eax, eax\nadd rbx, 16\nmov rcx, qword ptr [rbx]").unwrap();
        let text = block.to_string();
        assert_eq!(parse_block(&text).unwrap(), block);
    }
}
