//! AT&T syntax support (the notation the paper's Fig. 1 uses).
//!
//! Covers the subset's needs: `%reg` registers, `$imm` immediates,
//! `disp(base, index, scale)` memory operands, operand order reversed
//! relative to Intel syntax, and optional `b`/`w`/`l`/`q` mnemonic
//! suffixes.

use crate::cond::Cond;
use crate::error::AsmError;
use crate::inst::{Inst, Mnemonic};
use crate::operand::{MemRef, Operand, Scale};
use crate::parse::{check_stack_operand, parse_int, strip_comment};
use crate::reg::{Gpr, OpSize, VecReg};
use crate::BasicBlock;
use std::fmt::Write as _;

impl Inst {
    /// Renders the instruction in AT&T syntax.
    ///
    /// ```
    /// # fn main() -> Result<(), bhive_asm::AsmError> {
    /// let inst = bhive_asm::parse_inst("xor rdx, qword ptr [8*rax + 0x41108]")?;
    /// assert_eq!(inst.to_att_string(), "xorq 0x41108(,%rax,8), %rdx");
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_att_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.full_mnemonic());
        // Width suffix for scalar mnemonics whose operands are ambiguous
        // in AT&T (memory or immediate-only operands).
        if att_wants_suffix(self) {
            out.push(att_suffix(self.width_bytes()));
        }
        let ops = self.operands();
        for (position, op) in ops.iter().enumerate().rev() {
            if position == ops.len() - 1 {
                out.push(' ');
            } else {
                out.push_str(", ");
            }
            match op {
                Operand::Gpr { reg, size } => {
                    let _ = write!(out, "%{}", reg.name(*size));
                }
                Operand::Vec(v) => {
                    let _ = write!(out, "%{v}");
                }
                Operand::Imm(v) => {
                    if self.mnemonic() == Mnemonic::Jcc {
                        let _ = write!(out, "{v:#x}");
                    } else if *v < 0 {
                        let _ = write!(out, "$-{:#x}", v.unsigned_abs());
                    } else {
                        let _ = write!(out, "${v:#x}");
                    }
                }
                Operand::Mem(mem) => out.push_str(&att_mem(mem)),
            }
        }
        out
    }
}

impl BasicBlock {
    /// Renders the whole block in AT&T syntax, one instruction per line.
    pub fn to_att_string(&self) -> String {
        self.insts()
            .iter()
            .map(Inst::to_att_string)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

fn att_suffix(width: u8) -> char {
    match width {
        1 => 'b',
        2 => 'w',
        4 => 'l',
        _ => 'q',
    }
}

/// Suffixes are emitted for scalar-integer mnemonics (the common AT&T
/// style); SSE mnemonics carry their width in the name.
fn att_wants_suffix(inst: &Inst) -> bool {
    !inst.mnemonic().is_sse()
        && !matches!(
            inst.mnemonic(),
            Mnemonic::Jcc
                | Mnemonic::Nop
                | Mnemonic::Cdq
                | Mnemonic::Cqo
                | Mnemonic::Movzx
                | Mnemonic::Movsx
                | Mnemonic::Movsxd
        )
}

fn att_mem(mem: &MemRef) -> String {
    let mut out = String::new();
    if mem.disp != 0 || (mem.base.is_none() && mem.index.is_none()) {
        if mem.disp < 0 {
            let _ = write!(out, "-{:#x}", i64::from(mem.disp).unsigned_abs());
        } else {
            let _ = write!(out, "{:#x}", mem.disp);
        }
    }
    if mem.base.is_none() && mem.index.is_none() {
        return out;
    }
    out.push('(');
    if let Some(base) = mem.base {
        let _ = write!(out, "%{base}");
    }
    if let Some((index, scale)) = mem.index {
        let _ = write!(out, ",%{index},{}", scale.factor());
    }
    out.push(')');
    out
}

/// Parses a whole basic block written in AT&T syntax.
///
/// # Errors
///
/// Returns [`AsmError::Parse`] with the offending line number.
///
/// ```
/// # fn main() -> Result<(), bhive_asm::AsmError> {
/// // The paper's Fig. 1, verbatim AT&T notation.
/// let block = bhive_asm::parse_block_att(
///     "add $1, %rdi\n\
///      mov %edx, %eax\n\
///      shr $8, %rdx\n\
///      xor -1(%rdi), %al\n\
///      movzx %al, %eax\n\
///      xor 0x41108(, %rax, 8), %rdx\n\
///      cmp %rcx, %rdi",
/// )?;
/// assert_eq!(block.len(), 7);
/// # Ok(())
/// # }
/// ```
pub fn parse_block_att(text: &str) -> Result<BasicBlock, AsmError> {
    let mut insts = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        insts.push(parse_att_line(line, idx + 1)?);
    }
    Ok(BasicBlock::new(insts))
}

/// Parses a single AT&T-syntax instruction.
///
/// # Errors
///
/// Returns [`AsmError::Parse`] on unsupported syntax.
pub fn parse_inst_att(text: &str) -> Result<Inst, AsmError> {
    parse_att_line(strip_comment(text).trim(), 1)
}

fn parse_att_line(line: &str, lineno: usize) -> Result<Inst, AsmError> {
    let (mnemonic_text, rest) = match line.find(char::is_whitespace) {
        Some(pos) => (&line[..pos], line[pos..].trim()),
        None => (line, ""),
    };
    let mnemonic_text = mnemonic_text.to_ascii_lowercase();

    // Split at top-level commas (commas inside parentheses belong to
    // memory operands).
    let mut operands: Vec<Operand> = Vec::new();
    if !rest.is_empty() {
        let mut depth = 0usize;
        let mut start = 0usize;
        let bytes = rest.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'(' => depth += 1,
                b')' => depth = depth.saturating_sub(1),
                b',' if depth == 0 => {
                    operands.push(parse_att_operand(rest[start..i].trim(), lineno)?);
                    start = i + 1;
                }
                _ => {}
            }
        }
        operands.push(parse_att_operand(rest[start..].trim(), lineno)?);
    }
    // AT&T lists sources first: reverse to Intel's destination-first.
    operands.reverse();

    // Resolve the mnemonic with operand knowledge: `movq %rbp, 8(%rsp)`
    // is scalar `mov` with a `q` suffix, while `movq %rax, %xmm0` is the
    // SSE cross-register move.
    let has_vec = operands.iter().any(|op| matches!(op, Operand::Vec(_)));
    let (mnemonic, cond, vex, suffix_width) = resolve_att_mnemonic(&mnemonic_text, has_vec)
        .ok_or_else(|| {
            AsmError::parse(lineno, format!("unknown AT&T mnemonic `{mnemonic_text}`"))
        })?;

    // Resolve memory widths: explicit suffix first, then a sized register.
    let inferred = suffix_width.or_else(|| {
        operands.iter().find_map(|op| match op {
            Operand::Gpr { size, .. } => Some(size.bytes()),
            Operand::Vec(v) => Some(v.width().bytes()),
            _ => None,
        })
    });
    for op in &mut operands {
        if let Operand::Mem(mem) = op {
            if mem.width == 0 {
                mem.width = inferred
                    .ok_or_else(|| AsmError::parse(lineno, "cannot infer memory operand width"))?;
            }
        }
    }
    // SSE memory widths follow the mnemonic: scalar-FP forms have a
    // fixed width; packed forms take the vector operand's width.
    if mnemonic.is_sse() {
        let fixed = mnemonic.scalar_fp_mem_width();
        let vec_width = operands.iter().find_map(|op| match op {
            Operand::Vec(v) => Some(v.width().bytes()),
            _ => None,
        });
        for op in &mut operands {
            if let Operand::Mem(mem) = op {
                if let Some(width) = fixed.or(vec_width) {
                    mem.width = width;
                }
            }
        }
    }

    check_stack_operand(mnemonic, &operands, lineno)?;
    let vex = vex || crate::inst::infer_vex(mnemonic, &operands);
    Ok(Inst::new(mnemonic, cond, vex, operands))
}

/// Resolves an AT&T mnemonic: strips the width suffix if present.
/// `has_vec` disambiguates names like `movq` that exist both as an SSE
/// mnemonic and as suffixed scalar `mov`.
fn resolve_att_mnemonic(
    text: &str,
    has_vec: bool,
) -> Option<(Mnemonic, Option<Cond>, bool, Option<u8>)> {
    let exact = resolve_plain(text);
    let suffixed = if text.len() > 1 {
        // Matched on the last byte: the text may end in a multi-byte
        // character, and only an ASCII suffix is split off.
        let width = match text.as_bytes()[text.len() - 1] {
            b'b' => Some(1u8),
            b'w' => Some(2),
            b'l' => Some(4),
            b'q' => Some(8),
            _ => None,
        };
        width.and_then(|w| {
            resolve_plain(&text[..text.len() - 1])
                .filter(|(m, _, _)| !m.is_sse())
                .map(|(m, cond, vex)| (m, cond, vex, Some(w)))
        })
    } else {
        None
    };
    match (exact, suffixed) {
        // An SSE exact match without any vector operand is really the
        // suffixed scalar form.
        (Some((m, _, _)), Some(suf)) if m.is_sse() && !has_vec => Some(suf),
        (Some((m, cond, vex)), _) => Some((m, cond, vex, None)),
        (None, suf) => suf,
    }
}

fn resolve_plain(text: &str) -> Option<(Mnemonic, Option<Cond>, bool)> {
    if let Some(m) = Mnemonic::from_name(text) {
        if !m.takes_cond() {
            return Some((m, None, m.is_vex_only()));
        }
    }
    if let Some(base) = text.strip_prefix('v') {
        if let Some(m) = Mnemonic::from_name(base) {
            if m.is_sse() {
                return Some((m, None, true));
            }
        }
    }
    for (prefix, mnemonic) in [
        ("set", Mnemonic::Set),
        ("cmov", Mnemonic::Cmov),
        ("j", Mnemonic::Jcc),
    ] {
        if let Some(suffix) = text.strip_prefix(prefix) {
            if let Some(cond) = Cond::parse_suffix(suffix) {
                return Some((mnemonic, Some(cond), false));
            }
        }
    }
    if text == "movabs" {
        return Some((Mnemonic::Mov, None, false));
    }
    None
}

fn parse_att_operand(text: &str, lineno: usize) -> Result<Operand, AsmError> {
    let err = |msg: String| AsmError::parse(lineno, msg);
    if let Some(imm) = text.strip_prefix('$') {
        return parse_int(imm)
            .map(Operand::Imm)
            .ok_or_else(|| err(format!("bad immediate `{text}`")));
    }
    if let Some(reg) = text.strip_prefix('%') {
        let lower = reg.to_ascii_lowercase();
        if let Some((gpr, size)) = Gpr::parse(&lower) {
            return Ok(Operand::gpr(gpr, size));
        }
        if let Some(vec) = VecReg::parse(&lower) {
            return Ok(Operand::Vec(vec));
        }
        return Err(err(format!("unknown register `{text}`")));
    }
    // Memory: disp(base, index, scale) in any partial form, or a bare
    // displacement used by branches.
    if let Some(open) = text.find('(') {
        let close = text
            .rfind(')')
            .ok_or_else(|| err("missing `)` in memory operand".into()))?;
        let disp_text = text[..open].trim();
        let disp = if disp_text.is_empty() {
            0
        } else {
            parse_int(disp_text).ok_or_else(|| err(format!("bad displacement `{disp_text}`")))?
        };
        let inner = &text[open + 1..close];
        let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
        let parse_gpr = |t: &str| -> Result<Gpr, AsmError> {
            let name = t
                .strip_prefix('%')
                .ok_or_else(|| err(format!("expected register, got `{t}`")))?;
            Gpr::parse(&name.to_ascii_lowercase())
                .filter(|(_, size)| *size == OpSize::Q)
                .map(|(g, _)| g)
                .ok_or_else(|| err(format!("bad 64-bit register `{t}`")))
        };
        let base = match parts.first() {
            Some(&"") | None => None,
            Some(&t) => Some(parse_gpr(t)?),
        };
        let index = match parts.get(1) {
            Some(&"") | None => None,
            Some(&t) => {
                let reg = parse_gpr(t)?;
                let scale = match parts.get(2) {
                    Some(&"") | None => Scale::S1,
                    Some(&s) => {
                        let factor: u8 = s.parse().map_err(|_| err(format!("bad scale `{s}`")))?;
                        Scale::from_factor(factor)
                            .ok_or_else(|| err(format!("scale must be 1/2/4/8, got {s}")))?
                    }
                };
                Some((reg, scale))
            }
        };
        let disp = i32::try_from(disp)
            .or_else(|_| u32::try_from(disp).map(|v| v as i32))
            .map_err(|_| err(format!("displacement {disp} exceeds 32 bits")))?;
        return Ok(Operand::Mem(MemRef {
            base,
            index,
            disp,
            width: 0,
        }));
    }
    // Bare number: branch target or absolute memory reference.
    if let Some(value) = parse_int(text) {
        return Ok(Operand::Imm(value));
    }
    Err(err(format!("cannot parse AT&T operand `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_block;

    #[test]
    fn fig1_att_matches_intel() {
        // The paper prints Fig. 1 in AT&T; both notations must produce
        // the identical instruction sequence.
        let att = parse_block_att(
            "add $1, %rdi\n\
             mov %edx, %eax\n\
             shr $8, %rdx\n\
             xor -1(%rdi), %al\n\
             movzx %al, %eax\n\
             xor 0x41108(, %rax, 8), %rdx\n\
             cmp %rcx, %rdi",
        )
        .unwrap();
        let intel = parse_block(
            "add rdi, 1\n\
             mov eax, edx\n\
             shr rdx, 8\n\
             xor al, byte ptr [rdi - 1]\n\
             movzx eax, al\n\
             xor rdx, qword ptr [8*rax + 0x41108]\n\
             cmp rdi, rcx",
        )
        .unwrap();
        assert_eq!(att, intel);
    }

    #[test]
    fn att_round_trip() {
        for text in [
            "add rdi, 0x1",
            "mov eax, edx",
            "xor al, byte ptr [rdi - 0x1]",
            "xor rdx, qword ptr [8*rax + 0x41108]",
            "vxorps xmm2, xmm2, xmm2",
            "movups xmm1, xmmword ptr [rsi + 0x10]",
            "mov qword ptr [rsp + 0x8], rbp",
            "imul rax, rbx, 0x64",
            "setne al",
            "div ecx",
            "cqo",
            "movss xmm0, dword ptr [rax]",
            "lea rax, [rbx + 4*rcx + 0x10]",
        ] {
            let inst = crate::parse::parse_inst(text).unwrap();
            let att = inst.to_att_string();
            let back =
                parse_inst_att(&att).unwrap_or_else(|e| panic!("`{att}` (from `{text}`): {e}"));
            assert_eq!(back, inst, "AT&T round trip of `{text}` via `{att}`");
        }
    }

    #[test]
    fn att_suffix_widths() {
        let inst = parse_inst_att("movl $7, 16(%rbx)").unwrap();
        assert_eq!(inst.mem_operand().unwrap().width, 4);
        let inst = parse_inst_att("addq $1, (%rbx)").unwrap();
        assert_eq!(inst.mem_operand().unwrap().width, 8);
        let inst = parse_inst_att("xorb -1(%rdi), %al").unwrap();
        assert_eq!(inst.mem_operand().unwrap().width, 1);
    }

    #[test]
    fn att_rendering_examples() {
        let inst = crate::parse::parse_inst("add rdi, 1").unwrap();
        assert_eq!(inst.to_att_string(), "addq $0x1, %rdi");
        let inst = crate::parse::parse_inst("mov dword ptr [rbx + 4*rcx], eax").unwrap();
        assert_eq!(inst.to_att_string(), "movl %eax, (%rbx,%rcx,4)");
        let inst = crate::parse::parse_inst("vaddps ymm0, ymm1, ymm2").unwrap();
        assert_eq!(inst.to_att_string(), "vaddps %ymm2, %ymm1, %ymm0");
    }

    #[test]
    fn whole_block_att_round_trip() {
        let block =
            parse_block("mov rax, qword ptr [rbx]\nadd rax, 8\nmov qword ptr [rbx], rax").unwrap();
        let att = block.to_att_string();
        assert_eq!(parse_block_att(&att).unwrap(), block);
    }

    #[test]
    fn att_push_pop_take_only_a_64_bit_register() {
        assert!(parse_inst_att("pushq %r15").is_ok());
        assert!(parse_inst_att("popq %rbx").is_ok());
        for text in ["popq 8(%rsp)", "pushq (%rbx)", "pushq $5", "pushl %eax"] {
            let err = parse_inst_att(text).unwrap_err();
            assert!(err.to_string().contains("64-bit register"), "{text}: {err}");
        }
    }

    #[test]
    fn att_errors() {
        assert!(parse_inst_att("bogus %rax").is_err());
        assert!(parse_inst_att("add %zz, %rax").is_err());
        assert!(parse_inst_att("add $1, 8(%rbx").is_err());
    }
}
