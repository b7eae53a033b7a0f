//! Intel-syntax assembly parser.

use crate::cond::Cond;
use crate::error::AsmError;
use crate::inst::{Inst, Mnemonic};
use crate::operand::{MemRef, Operand, Scale};
use crate::reg::{Gpr, OpSize, VecReg};
use crate::BasicBlock;

/// Parses a whole basic block, one instruction per line.
///
/// Blank lines and comments (`#`, `;`, `//`) are ignored.
///
/// # Errors
///
/// Returns [`AsmError::Parse`] with the offending 1-based line number.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), bhive_asm::AsmError> {
/// let block = bhive_asm::parse_block("xor eax, eax\nadd rbx, 8")?;
/// assert_eq!(block.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_block(text: &str) -> Result<BasicBlock, AsmError> {
    let mut insts = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        insts.push(parse_line(line, idx + 1)?);
    }
    Ok(BasicBlock::new(insts))
}

/// Parses a single instruction.
///
/// # Errors
///
/// Returns [`AsmError::Parse`] if the text is not a supported instruction.
pub fn parse_inst(text: &str) -> Result<Inst, AsmError> {
    parse_line(strip_comment(text).trim(), 1)
}

pub(crate) fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for marker in ["#", ";", "//"] {
        if let Some(pos) = line.find(marker) {
            end = end.min(pos);
        }
    }
    &line[..end]
}

fn parse_line(line: &str, lineno: usize) -> Result<Inst, AsmError> {
    let (mnemonic_text, rest) = match line.find(char::is_whitespace) {
        Some(pos) => (&line[..pos], line[pos..].trim()),
        None => (line, ""),
    };
    let mnemonic_text = mnemonic_text.to_ascii_lowercase();
    let (mnemonic, cond, vex) = resolve_mnemonic(&mnemonic_text)
        .ok_or_else(|| AsmError::parse(lineno, format!("unknown mnemonic `{mnemonic_text}`")))?;

    let mut operands = Vec::new();
    if !rest.is_empty() {
        for part in rest.split(',') {
            operands.push(parse_operand(part.trim(), lineno)?);
        }
    }

    // Infer missing memory widths from a sized register operand
    // (`mov eax, [rbx]` → dword access). `lea` uses the destination width.
    let inferred = operands.iter().find_map(|op| match op {
        Operand::Gpr { size, .. } => Some(size.bytes()),
        Operand::Vec(v) => Some(v.width().bytes()),
        _ => None,
    });
    for op in &mut operands {
        if let Operand::Mem(mem) = op {
            if mem.width == 0 {
                let width = inferred.ok_or_else(|| {
                    AsmError::parse(
                        lineno,
                        "memory operand needs an explicit size (e.g. `dword ptr`)",
                    )
                })?;
                mem.width = width;
            }
        }
    }

    // Scalar-FP memory widths are fixed by the mnemonic, not the register.
    if let Some(width) = mnemonic.scalar_fp_mem_width() {
        for op in &mut operands {
            if let Operand::Mem(mem) = op {
                mem.width = width;
            }
        }
    }

    check_stack_operand(mnemonic, &operands, lineno)?;
    let vex = vex || crate::inst::infer_vex(mnemonic, &operands);
    Ok(Inst::new(mnemonic, cond, vex, operands))
}

/// `push` and `pop` are encodable only with one 64-bit register, so a
/// memory, immediate or narrower operand is rejected at parse time rather
/// than yielding a block that can never be encoded or measured.
pub(crate) fn check_stack_operand(
    mnemonic: Mnemonic,
    operands: &[Operand],
    lineno: usize,
) -> Result<(), AsmError> {
    let one_qword_register = matches!(
        operands,
        [Operand::Gpr {
            size: OpSize::Q,
            ..
        }]
    );
    if matches!(mnemonic, Mnemonic::Push | Mnemonic::Pop) && !one_qword_register {
        return Err(AsmError::parse(
            lineno,
            "`push`/`pop` take exactly one 64-bit register operand",
        ));
    }
    Ok(())
}

/// Resolves mnemonic text to `(mnemonic, condition, vex)`.
fn resolve_mnemonic(text: &str) -> Option<(Mnemonic, Option<Cond>, bool)> {
    // Exact names first (covers `vfmadd231ps` and friends). Condition
    // families (`j`, `set`, `cmov`) are only valid with a suffix.
    if let Some(m) = Mnemonic::from_name(text) {
        if !m.takes_cond() {
            return Some((m, None, m.is_vex_only()));
        }
    }
    // AVX `v` prefix.
    if let Some(base) = text.strip_prefix('v') {
        if let Some(m) = Mnemonic::from_name(base) {
            if m.is_sse() {
                return Some((m, None, true));
            }
        }
    }
    // Condition-code families.
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
    // `movabs` is an alias for a 64-bit `mov`.
    if text == "movabs" {
        return Some((Mnemonic::Mov, None, false));
    }
    None
}

fn parse_operand(text: &str, lineno: usize) -> Result<Operand, AsmError> {
    let lower = text.to_ascii_lowercase();
    // Memory operand, with optional size keyword.
    if let Some(bracket) = lower.find('[') {
        let prefix = lower[..bracket].trim();
        let width = match prefix {
            "" => 0u8,
            "byte ptr" | "byte" => 1,
            "word ptr" | "word" => 2,
            "dword ptr" | "dword" => 4,
            "qword ptr" | "qword" => 8,
            "xmmword ptr" | "xmmword" | "oword ptr" => 16,
            "ymmword ptr" | "ymmword" => 32,
            other => {
                return Err(AsmError::parse(
                    lineno,
                    format!("bad size keyword `{other}`"),
                ))
            }
        };
        let close = lower
            .rfind(']')
            .ok_or_else(|| AsmError::parse(lineno, "missing `]` in memory operand"))?;
        let mem = parse_mem(&lower[bracket + 1..close], width, lineno)?;
        return Ok(Operand::Mem(mem));
    }
    // Registers.
    if let Some((reg, size)) = Gpr::parse(&lower) {
        return Ok(Operand::gpr(reg, size));
    }
    if let Some(vec) = VecReg::parse(&lower) {
        return Ok(Operand::Vec(vec));
    }
    // Immediate.
    parse_int(&lower)
        .map(Operand::Imm)
        .ok_or_else(|| AsmError::parse(lineno, format!("cannot parse operand `{text}`")))
}

pub(crate) fn parse_int(text: &str) -> Option<i64> {
    let (neg, body) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text),
    };
    let value = if let Some(hex) = body.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<u64>().ok()?
    };
    let signed = i64::try_from(value).ok().or_else(|| {
        // Allow full-range 64-bit hex literals (e.g. 0xFFFFFFFFFFFFFFFF).
        (!neg).then_some(value as i64)
    })?;
    Some(if neg { -signed } else { signed })
}

/// Parses the inside of `[...]`: terms of the form `reg`, `N*reg`, `reg*N`
/// or a displacement, joined by `+`/`-`.
fn parse_mem(body: &str, width: u8, lineno: usize) -> Result<MemRef, AsmError> {
    let mut base: Option<Gpr> = None;
    let mut index: Option<(Gpr, Scale)> = None;
    let mut disp: i64 = 0;

    let err = |msg: String| AsmError::parse(lineno, msg);

    // Tokenize into (+/-, term) pairs.
    let mut terms: Vec<(bool, String)> = Vec::new();
    let mut current = String::new();
    let mut negative = false;
    for ch in body.chars() {
        match ch {
            '+' | '-' => {
                if !current.trim().is_empty() {
                    terms.push((negative, current.trim().to_string()));
                }
                current = String::new();
                negative = ch == '-';
            }
            _ => current.push(ch),
        }
    }
    if !current.trim().is_empty() {
        terms.push((negative, current.trim().to_string()));
    }

    for (neg, term) in terms {
        if let Some(star) = term.find('*') {
            let (lhs, rhs) = (term[..star].trim(), term[star + 1..].trim());
            let (scale_txt, reg_txt) = if lhs.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                (lhs, rhs)
            } else {
                (rhs, lhs)
            };
            let factor: u8 = scale_txt
                .parse()
                .map_err(|_| err(format!("bad scale `{scale_txt}`")))?;
            let scale = Scale::from_factor(factor)
                .ok_or_else(|| err(format!("scale must be 1/2/4/8, got {factor}")))?;
            let (reg, size) =
                Gpr::parse(reg_txt).ok_or_else(|| err(format!("bad index `{reg_txt}`")))?;
            if size != OpSize::Q {
                return Err(err("index registers must be 64-bit".into()));
            }
            if neg {
                return Err(err("index term cannot be negative".into()));
            }
            if index.is_some() {
                return Err(err("multiple index terms".into()));
            }
            index = Some((reg, scale));
        } else if let Some((reg, size)) = Gpr::parse(&term) {
            if size != OpSize::Q {
                return Err(err("address registers must be 64-bit".into()));
            }
            if neg {
                return Err(err("register term cannot be negative".into()));
            }
            if base.is_none() {
                base = Some(reg);
            } else if index.is_none() {
                index = Some((reg, Scale::S1));
            } else {
                return Err(err("too many registers in address".into()));
            }
        } else if let Some(value) = parse_int(&term) {
            disp += if neg { -value } else { value };
        } else {
            return Err(err(format!("cannot parse address term `{term}`")));
        }
    }

    // Accept either signed-32 range or the unsigned-hex spelling of a
    // negative displacement (e.g. `[0xffffffff]` printed for disp -1).
    let disp = i32::try_from(disp)
        .or_else(|_| u32::try_from(disp).map(|v| v as i32))
        .map_err(|_| err(format!("displacement {disp} exceeds 32 bits")))?;
    Ok(MemRef {
        base,
        index,
        disp,
        width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::VecWidth;

    #[test]
    fn parses_the_updcrc_block() {
        let block = parse_block(
            "add rdi, 1\n\
             mov eax, edx\n\
             shr rdx, 8\n\
             xor al, byte ptr [rdi - 1]\n\
             movzx eax, al\n\
             xor rdx, qword ptr [8*rax + 0x4110a]\n\
             cmp rdi, rcx",
        )
        .unwrap();
        assert_eq!(block.len(), 7);
        let xor_mem = &block.insts()[5];
        assert_eq!(xor_mem.mnemonic(), Mnemonic::Xor);
        let mem = xor_mem.mem_operand().unwrap();
        assert_eq!(mem.base, None);
        assert_eq!(mem.index, Some((Gpr::Rax, Scale::S8)));
        assert_eq!(mem.disp, 0x4110a);
        assert_eq!(mem.width, 8);
    }

    #[test]
    fn print_parse_round_trip() {
        for text in [
            "add rdi, 0x1",
            "xor al, byte ptr [rdi - 0x1]",
            "vxorps xmm2, xmm2, xmm2",
            "vfmadd231ps ymm0, ymm1, ymmword ptr [rsi]",
            "setne al",
            "cmovle rax, rbx",
            "jne -0x40",
            "movss xmm0, dword ptr [rax]",
            "mov qword ptr [rsp + 0x8], rbp",
            "pslld xmm1, 0x4",
            "div ecx",
            "cqo",
            "movaps xmmword ptr [rdi + 0x40], xmm3",
            "lea rax, [rbx + 4*rcx + 0x10]",
        ] {
            let inst = parse_inst(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(inst.to_string(), text);
        }
    }

    #[test]
    fn width_inference() {
        let inst = parse_inst("mov eax, [rbx]").unwrap();
        assert_eq!(inst.mem_operand().unwrap().width, 4);
        let inst = parse_inst("movups xmm1, [rbx]").unwrap();
        assert_eq!(inst.mem_operand().unwrap().width, 16);
        // No sized operand and no keyword: error.
        assert!(parse_inst("inc [rax]").is_err());
        let inst = parse_inst("inc dword ptr [rax]").unwrap();
        assert_eq!(inst.mem_operand().unwrap().width, 4);
    }

    #[test]
    fn scalar_fp_mem_width_from_mnemonic() {
        let inst = parse_inst("addsd xmm0, [rax]").unwrap();
        assert_eq!(inst.mem_operand().unwrap().width, 8);
        let inst = parse_inst("mulss xmm0, [rax]").unwrap();
        assert_eq!(inst.mem_operand().unwrap().width, 4);
    }

    #[test]
    fn vex_detection() {
        assert!(parse_inst("vaddps xmm0, xmm1, xmm2").unwrap().is_vex());
        assert!(!parse_inst("addps xmm0, xmm1").unwrap().is_vex());
        assert!(parse_inst("addps ymm0, ymm1, ymm2").unwrap().is_vex());
        assert!(parse_inst("vbroadcastss xmm0, dword ptr [rax]")
            .unwrap()
            .is_vex());
    }

    #[test]
    fn comments_and_blanks() {
        let block = parse_block(
            "# leading comment\n\
             xor eax, eax ; trailing\n\
             \n\
             add rbx, 1 // c++ style\n",
        )
        .unwrap();
        assert_eq!(block.len(), 2);
    }

    #[test]
    fn condition_aliases() {
        assert_eq!(parse_inst("setz al").unwrap().cond(), Some(Cond::E));
        assert_eq!(parse_inst("jnz 0x10").unwrap().cond(), Some(Cond::Ne));
        assert_eq!(
            parse_inst("cmovnb rax, rbx").unwrap().cond(),
            Some(Cond::Ae)
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_block("xor eax, eax\nbogus rax, 1").unwrap_err();
        match err {
            AsmError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn push_pop_take_only_a_64_bit_register() {
        assert!(parse_inst("push r15").is_ok());
        assert!(parse_inst("pop rbx").is_ok());
        for text in [
            "pop qword ptr [rsp + 8]",
            "push qword ptr [rbx]",
            "push 5",
            "push eax",
            "pop ax",
            "pop",
        ] {
            let err = parse_inst(text).unwrap_err();
            assert!(err.to_string().contains("64-bit register"), "{text}: {err}");
        }
    }

    #[test]
    fn ymm_memory_operand() {
        let inst = parse_inst("vmovups ymm0, ymmword ptr [rdi]").unwrap();
        assert_eq!(inst.mem_operand().unwrap().width, 32);
        assert_eq!(
            inst.operands()[0].as_vec().map(|v| v.width()),
            Some(VecWidth::Ymm)
        );
    }
}
