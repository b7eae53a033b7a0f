//! Per-microarchitecture micro-op decomposition tables.
//!
//! These tables play the role of Abel & Reineke's reverse-engineered port
//! mappings in the paper: they assign every instruction a list of micro-ops
//! with port combinations and latencies. The three microarchitectures
//! differ in real, documented ways (Ivy Bridge has six ports and no FMA;
//! Skylake reworked FP latencies to 4 cycles and sped up 64-bit division;
//! `cmov` is two uops before Skylake, one after).

use crate::desc::{Uarch, UarchKind};
use crate::ports;
use crate::ports::PortSet;
use crate::uop::{Recipe, Uop, UopKind, VarLat};
use bhive_asm::{Inst, Mnemonic, MnemonicClass, Operand, VecWidth};

/// Decomposes an instruction into its micro-op recipe on `uarch`.
///
/// This is the *hardware* table: the simulated machine in `bhive-sim`
/// executes exactly these recipes. The cost models copy and perturb them.
pub fn decompose(inst: &Inst, uarch: &Uarch) -> Recipe {
    use MnemonicClass::*;
    let class = inst.mnemonic().class();

    // Rename-time eliminations.
    if class == Nop {
        return Recipe::eliminated();
    }
    if uarch.zero_idiom_elimination && inst.is_zero_idiom() {
        return Recipe::eliminated();
    }
    if uarch.move_elimination && is_eliminable_move(inst) {
        return Recipe::eliminated();
    }

    let mut uops: Vec<Uop> = Vec::with_capacity(4);

    // Implicit/explicit load.
    if inst.loads_memory() {
        uops.push(Uop::load(uarch.load_ports, uarch.l1d_latency));
    }

    // Compute core.
    let is_pure_move = matches!(class, DataMove | FpMove)
        || inst.mnemonic() == Mnemonic::Vbroadcastss
        || class == Stack;
    let skip_compute = is_pure_move && inst.touches_memory() && !inst.is_rmw();
    if !skip_compute {
        uops.extend(compute_uops(inst, uarch));
    }

    // Store.
    if inst.stores_memory() {
        uops.push(Uop::store_addr(uarch.store_addr_ports));
        uops.push(Uop::store_data(uarch.store_data_ports));
    }

    // Micro-fusion: a load fuses with the first compute uop; the
    // store-address/store-data pair fuses into one slot.
    let mut slots = uops.len() as u32;
    let has_load = uops.iter().any(|u| u.kind == UopKind::Load);
    let has_compute = uops.iter().any(|u| u.kind == UopKind::Compute);
    let has_store = uops.iter().any(|u| u.kind == UopKind::StoreData);
    if has_load && has_compute {
        slots -= 1;
    }
    if has_store {
        slots -= 1;
    }
    let frontend_slots = slots.max(1);

    // Fitted-table overrides: patch the compute uop of overridable
    // (single-compute-uop, fixed-latency) rows. See [`entry_key`].
    if let Some(overrides) = &uarch.overrides {
        if let Some(entry) = entry_key(inst).and_then(|key| overrides.get(key)) {
            let mut computes = uops.iter_mut().filter(|u| u.kind == UopKind::Compute);
            if let (Some(uop), None) = (computes.next(), computes.next()) {
                uop.ports = PortSet::from_mask(entry.ports);
                uop.latency = entry.latency;
            }
        }
    }

    Recipe {
        uops,
        frontend_slots,
        eliminated: false,
    }
}

/// The override key of the decomposition-table row `inst` resolves to,
/// or `None` when the row is not overridable.
///
/// A row is overridable when its compute core is a single fixed-latency
/// uop on every microarchitecture: those are the rows `bhive calibrate`
/// can pin with throughput/latency/port-pressure probes. Variable
/// latency rows (division, square root), multi-uop recipes (widening
/// multiplies, shifts by `cl`, conversions), and rename-eliminated
/// shapes keep their shipped definitions.
pub fn entry_key(inst: &Inst) -> Option<&'static str> {
    use MnemonicClass::*;
    let m = inst.mnemonic();
    Some(match m.class() {
        Alu => "alu",
        DataMove if m == Mnemonic::Bswap => "bswap",
        Lea => {
            let mem = inst.mem_operand()?;
            if mem.index.is_some() && (mem.base.is_some() || mem.disp != 0) {
                "lea.complex"
            } else {
                "lea.simple"
            }
        }
        Shift => {
            let by_cl = matches!(
                inst.operands().get(1),
                Some(Operand::Gpr {
                    reg: bhive_asm::Gpr::Rcx,
                    ..
                })
            );
            if by_cl {
                return None;
            }
            "shift"
        }
        Mul if inst.operands().len() != 1 => "mul",
        BitCount => "bitcount",
        CondSet => "setcc",
        FpAdd => "fp.add",
        FpMul => "fp.mul",
        Fma => "fp.fma",
        FpMinMax => "fp.minmax",
        FpCmp => "fp.cmp",
        VecLogic => "vec.logic",
        VecIntAlu => "vec.int",
        VecIntMul if m != Mnemonic::Pmulld => "vec.mul",
        VecShift => "vec.shift",
        VecShuffle => "vec.shuffle",
        VecMask => "vec.mask",
        FpMove if matches!(m, Mnemonic::Movd | Mnemonic::Movq) => {
            if matches!(inst.operands().first(), Some(Operand::Vec(_))) {
                "movd.to_vec"
            } else {
                "movd.from_vec"
            }
        }
        _ => return None,
    })
}

/// True for register-to-register moves eliminated at rename (Haswell+).
fn is_eliminable_move(inst: &Inst) -> bool {
    use Mnemonic::*;
    let reg_reg = inst.operands().len() == 2 && !inst.operands().iter().any(Operand::is_mem);
    if !reg_reg {
        return false;
    }
    match inst.mnemonic() {
        // 32/64-bit GPR moves are eliminable; 8/16-bit merges are not.
        Mov => matches!(
            inst.operands()[0],
            Operand::Gpr { size, .. } if size.bytes() >= 4
        ),
        Movaps | Movups | Movdqa | Movdqu => true,
        _ => false,
    }
}

/// The computation uops of an instruction, ignoring its memory accesses.
fn compute_uops(inst: &Inst, uarch: &Uarch) -> Vec<Uop> {
    use MnemonicClass::*;
    use UarchKind::*;
    let kind = uarch.kind;
    let m = inst.mnemonic();
    let ymm = is_ymm(inst);

    // Frequently used port groups.
    let alu = match kind {
        IvyBridge => ports!(0, 1, 5),
        Haswell | Skylake => ports!(0, 1, 5, 6),
    };
    let shift = match kind {
        IvyBridge => ports!(0, 5),
        Haswell | Skylake => ports!(0, 6),
    };
    let branch = match kind {
        IvyBridge => ports!(5),
        Haswell | Skylake => ports!(6),
    };
    let vec_logic = ports!(0, 1, 5);
    let vec_int = match kind {
        IvyBridge | Haswell => ports!(1, 5),
        Skylake => ports!(0, 1, 5),
    };
    let shuffle = ports!(5);

    match m.class() {
        Nop => vec![],
        DataMove => match m {
            Mnemonic::Bswap => vec![Uop::compute(ports!(1, 5), 1)],
            _ => vec![Uop::compute(alu, 1)],
        },
        Alu => vec![Uop::compute(alu, 1)],
        Lea => {
            let mem = inst.mem_operand().expect("lea has a memory operand");
            let complex = mem.index.is_some() && (mem.base.is_some() || mem.disp != 0);
            if complex {
                vec![Uop::compute(ports!(1), 3)]
            } else {
                let simple_lea = match kind {
                    IvyBridge => ports!(0, 1),
                    Haswell | Skylake => ports!(1, 5),
                };
                vec![Uop::compute(simple_lea, 1)]
            }
        }
        Shift => {
            let by_cl = matches!(
                inst.operands().get(1),
                Some(Operand::Gpr {
                    reg: bhive_asm::Gpr::Rcx,
                    ..
                })
            );
            if by_cl {
                vec![Uop::compute(shift, 1), Uop::compute(shift, 1)]
            } else {
                vec![Uop::compute(shift, 1)]
            }
        }
        Mul => {
            if inst.operands().len() == 1 {
                // Widening `mul`/`imul r/m`: produces rdx:rax.
                vec![Uop::compute(ports!(1), 4), Uop::compute(alu, 1)]
            } else {
                vec![Uop::compute(ports!(1), 3)]
            }
        }
        Div => {
            let width = inst.width_bytes();
            let nominal = div_nominal_latency(kind, width);
            vec![
                Uop::compute(ports!(0), nominal).with_var_lat(VarLat::DivGpr { width }, nominal),
                Uop::compute(alu, 1),
            ]
        }
        SignExtendAcc => vec![Uop::compute(shift, 1)],
        BitCount => vec![Uop::compute(ports!(1), 3)],
        CondMove => match kind {
            IvyBridge | Haswell => {
                vec![Uop::compute(alu, 1), Uop::compute(alu, 1)]
            }
            Skylake => vec![Uop::compute(shift, 1)],
        },
        CondSet => vec![Uop::compute(shift, 1)],
        Branch => vec![Uop::compute(branch, 1)],
        Stack => vec![Uop::compute(alu, 1)],
        FpMove => match m {
            // GPR <-> XMM crossings.
            Mnemonic::Movd | Mnemonic::Movq => {
                let to_vec = matches!(inst.operands().first(), Some(Operand::Vec(_)));
                if to_vec {
                    vec![Uop::compute(ports!(5), 1)]
                } else {
                    vec![Uop::compute(ports!(0), 2)]
                }
            }
            // Non-eliminated FP register moves (IVB, or `movss` merges).
            _ => vec![Uop::compute(vec_logic, 1)],
        },
        FpAdd => match kind {
            IvyBridge | Haswell => vec![Uop::compute(ports!(1), 3)],
            Skylake => vec![Uop::compute(ports!(0, 1), 4)],
        },
        FpMul => match kind {
            IvyBridge => vec![Uop::compute(ports!(0), 5)],
            Haswell => vec![Uop::compute(ports!(0, 1), 5)],
            Skylake => vec![Uop::compute(ports!(0, 1), 4)],
        },
        Fma => {
            debug_assert!(uarch.supports_avx2, "FMA requires AVX2-era hardware");
            let lat = if kind == Skylake { 4 } else { 5 };
            vec![Uop::compute(ports!(0, 1), lat)]
        }
        FpDiv => {
            let double = matches!(m, Mnemonic::Divsd | Mnemonic::Divpd);
            let (lat, blk) = fp_div_latency(kind, double, ymm);
            vec![Uop {
                blocking: blk,
                ..Uop::compute(ports!(0), lat)
            }
            .with_var_lat_keep(VarLat::FpDiv)]
        }
        FpSqrt => {
            let (lat, blk) = fp_sqrt_latency(kind, ymm);
            vec![Uop {
                blocking: blk,
                ..Uop::compute(ports!(0), lat)
            }
            .with_var_lat_keep(VarLat::FpSqrt)]
        }
        FpMinMax => match kind {
            IvyBridge | Haswell => vec![Uop::compute(ports!(1), 3)],
            Skylake => vec![Uop::compute(ports!(0, 1), 4)],
        },
        FpCmp => vec![Uop::compute(ports!(1), 2)],
        FpCvt => vec![Uop::compute(ports!(1), 4), Uop::compute(ports!(5), 1)],
        VecLogic => vec![Uop::compute(vec_logic, 1)],
        VecIntAlu => vec![Uop::compute(vec_int, 1)],
        VecIntMul => {
            if m == Mnemonic::Pmulld {
                // Double-pumped multiply.
                vec![Uop::compute(ports!(0), 5), Uop::compute(ports!(0), 5)]
            } else {
                let lat = if kind == Skylake { 4 } else { 5 };
                let port = if kind == Skylake {
                    ports!(0, 1)
                } else {
                    ports!(0)
                };
                vec![Uop::compute(port, lat)]
            }
        }
        VecShift => {
            let port = if kind == Skylake {
                ports!(0, 1)
            } else {
                ports!(0)
            };
            vec![Uop::compute(port, 1)]
        }
        VecShuffle => vec![Uop::compute(shuffle, 1)],
        VecMask => vec![Uop::compute(ports!(0), 2)],
    }
}

impl Uop {
    /// Attaches a variable-latency class without touching latency/blocking
    /// (those were already set by the caller).
    fn with_var_lat_keep(mut self, var: VarLat) -> Uop {
        self.var_lat = Some(var);
        self
    }
}

fn is_ymm(inst: &Inst) -> bool {
    inst.operands()
        .iter()
        .any(|op| matches!(op, Operand::Vec(v) if v.width() == VecWidth::Ymm))
}

/// Nominal (value-independent estimate) scalar division latency.
///
/// 64-bit division before Skylake is the radix-4 slow path (~90 cycles);
/// Skylake's radix-16 divider brought it to ~36. The simulated hardware
/// additionally applies the zero-`rdx` fast path and quotient-bit scaling;
/// see `bhive-sim`.
pub(crate) fn div_nominal_latency(kind: UarchKind, width: u8) -> u32 {
    match (kind, width) {
        (_, 1) | (_, 2) => 17,
        (UarchKind::IvyBridge, 4) => 23,
        (UarchKind::Haswell, 4) => 22,
        (UarchKind::Skylake, 4) => 21,
        (UarchKind::IvyBridge, 8) => 92,
        (UarchKind::Haswell, 8) => 90,
        (UarchKind::Skylake, 8) => 36,
        _ => 22,
    }
}

fn fp_div_latency(kind: UarchKind, double: bool, ymm: bool) -> (u32, u32) {
    let (mut lat, mut blk) = match kind {
        UarchKind::IvyBridge => (14, 14),
        UarchKind::Haswell => (13, 7),
        UarchKind::Skylake => (11, 3),
    };
    if double {
        lat += 6;
        blk += 4;
    }
    if ymm {
        lat += 4;
        blk *= 2;
    }
    (lat, blk)
}

fn fp_sqrt_latency(kind: UarchKind, ymm: bool) -> (u32, u32) {
    let (mut lat, mut blk) = match kind {
        UarchKind::IvyBridge => (19, 13),
        UarchKind::Haswell => (19, 13),
        UarchKind::Skylake => (12, 6),
    };
    if ymm {
        lat += 4;
        blk *= 2;
    }
    (lat, blk)
}

/// The distinct port combinations the tables can produce on a
/// microarchitecture — the vocabulary of the LDA basic-block classifier
/// (13 combinations on Haswell in the paper's data; our tables yield a
/// comparable set).
pub fn port_vocabulary(uarch: &Uarch) -> Vec<PortSet> {
    use UarchKind::*;
    let mut combos = match uarch.kind {
        IvyBridge => vec![
            ports!(0),
            ports!(1),
            ports!(5),
            ports!(0, 1),
            ports!(0, 5),
            ports!(1, 5),
            ports!(0, 1, 5),
            ports!(2, 3),
            ports!(4),
        ],
        Haswell => vec![
            ports!(0),
            ports!(1),
            ports!(5),
            ports!(6),
            ports!(0, 1),
            ports!(0, 6),
            ports!(1, 5),
            ports!(0, 1, 5),
            ports!(0, 1, 5, 6),
            ports!(2, 3),
            ports!(2, 3, 7),
            ports!(4),
        ],
        Skylake => vec![
            ports!(0),
            ports!(1),
            ports!(5),
            ports!(6),
            ports!(0, 1),
            ports!(0, 6),
            ports!(1, 5),
            ports!(0, 1, 5),
            ports!(0, 1, 5, 6),
            ports!(2, 3),
            ports!(2, 3, 7),
            ports!(4),
        ],
    };
    combos.sort();
    combos.dedup();
    combos
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhive_asm::parse_inst;

    fn hsw() -> &'static Uarch {
        Uarch::haswell()
    }

    fn recipe(text: &str, uarch: &Uarch) -> Recipe {
        decompose(&parse_inst(text).unwrap(), uarch)
    }

    #[test]
    fn simple_alu_is_one_uop() {
        let r = recipe("add rax, rbx", hsw());
        assert_eq!(r.uops.len(), 1);
        assert_eq!(r.uops[0].ports, ports!(0, 1, 5, 6));
        assert_eq!(r.frontend_slots, 1);
    }

    #[test]
    fn load_op_micro_fuses() {
        let r = recipe("add rax, qword ptr [rbx]", hsw());
        assert_eq!(r.uops.len(), 2);
        assert_eq!(r.uops[0].kind, UopKind::Load);
        assert_eq!(r.frontend_slots, 1);
    }

    #[test]
    fn rmw_is_four_uops_two_slots() {
        let r = recipe("add dword ptr [rbx], 1", hsw());
        assert_eq!(r.uops.len(), 4);
        assert_eq!(r.frontend_slots, 2);
        assert!(r.has_load() && r.has_store());
    }

    #[test]
    fn pure_store_is_one_slot() {
        let r = recipe("mov qword ptr [rbx], rax", hsw());
        assert_eq!(r.uops.len(), 2);
        assert_eq!(r.frontend_slots, 1);
        assert!(!r.has_load());
    }

    #[test]
    fn pure_load_is_single_uop() {
        let r = recipe("mov rax, qword ptr [rbx]", hsw());
        assert_eq!(r.uops.len(), 1);
        assert_eq!(r.uops[0].kind, UopKind::Load);
    }

    #[test]
    fn zero_idiom_eliminated() {
        let r = recipe("xor eax, eax", hsw());
        assert!(r.eliminated);
        assert!(r.uops.is_empty());
        let r = recipe("vxorps xmm2, xmm2, xmm2", hsw());
        assert!(r.eliminated);
        // Not a zero idiom: executes normally.
        let r = recipe("vxorps xmm2, xmm2, xmm3", hsw());
        assert!(!r.eliminated);
        assert_eq!(r.uops.len(), 1);
    }

    #[test]
    fn move_elimination_differs_by_uarch() {
        let r = recipe("mov rax, rbx", hsw());
        assert!(r.eliminated, "Haswell eliminates GPR moves");
        let r = recipe("mov rax, rbx", Uarch::ivy_bridge());
        assert!(!r.eliminated, "Ivy Bridge executes GPR moves");
        // Byte moves merge and cannot be eliminated anywhere.
        let r = recipe("mov al, bl", hsw());
        assert!(!r.eliminated);
    }

    #[test]
    fn division_is_variable_latency_and_blocking() {
        let r = recipe("div ecx", hsw());
        let div_uop = r.uops.iter().find(|u| u.var_lat.is_some()).unwrap();
        assert_eq!(div_uop.var_lat, Some(VarLat::DivGpr { width: 4 }));
        assert!(div_uop.blocking > 10, "divider is not pipelined");
        // Skylake's 64-bit divider is far faster than Haswell's.
        let hsw64 = recipe("div rcx", hsw());
        let skl64 = recipe("div rcx", Uarch::skylake());
        let lat = |r: &Recipe| r.uops.iter().find(|u| u.var_lat.is_some()).unwrap().latency;
        assert!(lat(&hsw64) > 2 * lat(&skl64));
    }

    #[test]
    fn fp_latency_differs_by_uarch() {
        let lat = |u: &Uarch, text: &str| recipe(text, u).uops[0].latency;
        assert_eq!(lat(hsw(), "addps xmm0, xmm1"), 3);
        assert_eq!(lat(Uarch::skylake(), "addps xmm0, xmm1"), 4);
        assert_eq!(lat(Uarch::ivy_bridge(), "mulps xmm0, xmm1"), 5);
        assert_eq!(lat(Uarch::skylake(), "mulps xmm0, xmm1"), 4);
    }

    #[test]
    fn cmov_uop_count_differs_by_uarch() {
        assert_eq!(recipe("cmovne rax, rbx", hsw()).uops.len(), 2);
        assert_eq!(recipe("cmovne rax, rbx", Uarch::skylake()).uops.len(), 1);
    }

    #[test]
    fn lea_complexity() {
        let simple = recipe("lea rax, [rbx + 8]", hsw());
        assert_eq!(simple.uops[0].latency, 1);
        let complex = recipe("lea rax, [rbx + 4*rcx + 0x10]", hsw());
        assert_eq!(complex.uops[0].latency, 3);
        // `lea` never emits a load uop.
        assert!(!complex.has_load());
    }

    #[test]
    fn push_pop_shapes() {
        let push = recipe("push rbx", hsw());
        assert!(push.has_store() && !push.has_load());
        let pop = recipe("pop rbx", hsw());
        assert!(pop.has_load() && !pop.has_store());
    }

    #[test]
    fn every_recipe_stays_in_vocabulary() {
        // All port combinations produced by representative instructions
        // must come from the declared vocabulary.
        let samples = [
            "add rax, rbx",
            "mov rax, qword ptr [rbx]",
            "mov qword ptr [rbx], rax",
            "add dword ptr [rbx], 1",
            "imul rax, rbx",
            "div ecx",
            "shl rax, 3",
            "shl rax, cl",
            "setne al",
            "cmovne rax, rbx",
            "jne -0x10",
            "lea rax, [rbx + 4*rcx + 1]",
            "lea rax, [rbx]",
            "popcnt rax, rbx",
            "bswap eax",
            "cqo",
            "push rbx",
            "pop rbx",
            "movss xmm0, dword ptr [rax]",
            "addss xmm0, xmm1",
            "mulps xmm0, xmm1",
            "divps xmm0, xmm1",
            "sqrtps xmm0, xmm1",
            "minps xmm0, xmm1",
            "ucomiss xmm0, xmm1",
            "cvtsi2ss xmm0, eax",
            "xorps xmm0, xmm1",
            "paddd xmm0, xmm1",
            "pmulld xmm0, xmm1",
            "pslld xmm0, 4",
            "pshufd xmm0, xmm1, 0x1b",
            "pmovmskb eax, xmm0",
            "movd xmm0, eax",
            "movd eax, xmm0",
            "movsd xmm1, xmm0",
            "movzx eax, bl",
        ];
        for uarch in [Uarch::ivy_bridge(), hsw(), Uarch::skylake()] {
            let vocab = port_vocabulary(uarch);
            for text in samples {
                let r = recipe(text, uarch);
                for uop in &r.uops {
                    assert!(
                        vocab.contains(&uop.ports),
                        "{text}: {} not in {:?} vocabulary",
                        uop.ports,
                        uarch.kind
                    );
                }
            }
        }
    }

    #[test]
    fn entry_keys_cover_single_compute_rows() {
        let cases = [
            ("add rax, rbx", Some("alu")),
            ("bswap eax", Some("bswap")),
            ("lea rax, [rbx + 8]", Some("lea.simple")),
            ("lea rax, [rbx + 4*rcx + 1]", Some("lea.complex")),
            ("shl rax, 3", Some("shift")),
            ("shl rax, cl", None),
            ("imul rax, rbx", Some("mul")),
            ("popcnt rax, rbx", Some("bitcount")),
            ("setne al", Some("setcc")),
            ("addps xmm0, xmm1", Some("fp.add")),
            ("mulps xmm0, xmm1", Some("fp.mul")),
            ("minps xmm0, xmm1", Some("fp.minmax")),
            ("ucomiss xmm0, xmm1", Some("fp.cmp")),
            ("xorps xmm0, xmm1", Some("vec.logic")),
            ("paddd xmm0, xmm1", Some("vec.int")),
            ("pmullw xmm0, xmm1", Some("vec.mul")),
            ("pmulld xmm0, xmm1", None),
            ("pslld xmm0, 4", Some("vec.shift")),
            ("pshufd xmm0, xmm1, 0x1b", Some("vec.shuffle")),
            ("pmovmskb eax, xmm0", Some("vec.mask")),
            ("movd xmm0, eax", Some("movd.to_vec")),
            ("movd eax, xmm0", Some("movd.from_vec")),
            // Non-overridable rows.
            ("div ecx", None),
            ("cmovne rax, rbx", None),
            ("cvtsi2ss xmm0, eax", None),
            ("jne -0x10", None),
        ];
        for (text, want) in cases {
            let inst = parse_inst(text).unwrap();
            assert_eq!(entry_key(&inst), want, "{text}");
        }
    }

    #[test]
    fn overrides_patch_the_compute_uop() {
        let mut ov = crate::TableOverrides::new();
        ov.set("mul", 5, ports!(0, 5));
        let patched = hsw().with_overrides(ov);
        let r = recipe("imul rax, rbx", &patched);
        assert_eq!(r.uops[0].ports, ports!(0, 5));
        assert_eq!(r.uops[0].latency, 5);
        // Memory forms of the same row are patched identically.
        let r = recipe("imul rax, qword ptr [rbx]", &patched);
        let compute = r.uops.iter().find(|u| u.kind == UopKind::Compute).unwrap();
        assert_eq!(compute.ports, ports!(0, 5));
        assert_eq!(compute.latency, 5);
        // Other rows and the shipped description are untouched.
        assert_eq!(recipe("add rax, rbx", &patched).uops[0].latency, 1);
        assert_eq!(recipe("imul rax, rbx", hsw()).uops[0].ports, ports!(1));
    }

    #[test]
    fn vocabulary_size_is_paper_scale() {
        // The paper reports 13 port combinations on Haswell; our tables
        // produce a comparable vocabulary.
        let n = port_vocabulary(hsw()).len();
        assert!((9..=16).contains(&n), "unexpected vocabulary size {n}");
    }
}
