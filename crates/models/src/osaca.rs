//! The OSACA-like analyzer.

use crate::perturb::{mix, perturb_recipe};
use crate::{isa_unsupported, ThroughputModel};
use bhive_asm::{BasicBlock, Inst, MnemonicClass, Operand};
use bhive_uarch::{decompose, UarchKind, VarLat};

/// OSACA: an open-source port-pressure analyzer driven by measured
/// per-instruction tables.
///
/// Modeled faults, as reported in the paper ("we found and reported five
/// bugs related to OSACA's instruction parser"):
///
/// * instructions with an immediate operand and a memory destination
///   (`add [rbx], 1`) are silently treated as **nops**, under-reporting
///   throughput;
/// * byte-wide memory ALU forms (`xor al, [rdi-1]`) crash the parser —
///   the tool returns no prediction at all (the "-" entries in the
///   case-study table);
/// * throughput is pure *port pressure*: dependency chains are invisible,
///   so latency-bound blocks are badly under-predicted (12.25 vs 21.62 on
///   the division block);
/// * its community-measured tables carry the largest systematic error of
///   the four tools.

#[derive(Debug, Clone)]
pub struct OsacaModel {
    kind: UarchKind,
    strength: f64,
    seed: u64,
}

impl OsacaModel {
    /// OSACA targeting `kind`, with calibrated default table noise.
    pub fn new(kind: UarchKind) -> OsacaModel {
        OsacaModel {
            kind,
            strength: 0.95,
            seed: 0x05AC,
        }
    }

    /// The parser gap: immediate-to-memory forms parse as nops.
    fn parses_as_nop(inst: &Inst) -> bool {
        inst.mem_operand_index() == Some(0)
            && inst
                .operands()
                .iter()
                .any(|op| matches!(op, Operand::Imm(_)))
            && inst.stores_memory()
    }

    /// The parser crash: byte-wide memory ALU forms.
    fn parser_crashes(inst: &Inst) -> bool {
        matches!(
            inst.mnemonic().class(),
            MnemonicClass::Alu | MnemonicClass::Shift
        ) && inst.mem_operand().map(|m| m.width == 1).unwrap_or(false)
    }
}

impl ThroughputModel for OsacaModel {
    fn name(&self) -> &'static str {
        "osaca"
    }

    fn uarch(&self) -> UarchKind {
        self.kind
    }

    fn predict(&self, block: &BasicBlock) -> Option<f64> {
        if block.is_empty() || isa_unsupported(block, self.kind) {
            return None;
        }
        if block.iter().any(Self::parser_crashes) {
            return None;
        }
        let uarch = self.kind.desc();
        let mut pressure = [0f64; 8];
        for inst in block.iter() {
            if Self::parses_as_nop(inst) {
                continue;
            }
            let mut recipe = decompose(inst, uarch);
            // OSACA's tables do not know rename-time elimination: a zero
            // idiom is charged like a regular (single-port) vector XOR —
            // the paper's case study shows it reporting 1.00 for
            // `vxorps xmm2, xmm2, xmm2`.
            if recipe.eliminated {
                if inst.mnemonic().is_sse() {
                    pressure[5] += 1.0;
                } else {
                    pressure[0] += 0.25;
                }
                continue;
            }
            perturb_recipe(&mut recipe, inst, self.seed, self.strength);
            for uop in &mut recipe.uops {
                // Its table lists a *reciprocal throughput* for division
                // far below the true non-pipelined occupancy (applied
                // after the generic table noise so it stays low).
                if matches!(uop.var_lat, Some(VarLat::DivGpr { .. })) {
                    uop.blocking = 10;
                }
            }
            // The community-measured reciprocal-throughput tables carry a
            // wide systematic miscalibration per instruction form.
            let h =
                mix(self.seed ^ ((inst.mnemonic() as u64) << 16) ^ u64::from(inst.width_bytes()));
            let miscal = 1.0 + self.strength * ((h & 0xFFFF) as f64 / 65536.0 - 0.5);
            for uop in &recipe.uops {
                let ports: Vec<_> = uop.ports.iter().collect();
                let share = miscal * f64::from(uop.blocking.max(1)) / ports.len() as f64;
                for port in ports {
                    pressure[port.index() as usize] += share;
                }
            }
        }
        let tp = pressure.iter().copied().fold(0.0f64, f64::max);
        // An all-nop parse still reports the frontend minimum.
        Some(tp.max(block.len() as f64 / f64::from(uarch.issue_width) * 0.25))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhive_asm::parse_block;

    #[test]
    fn underpredicts_latency_bound_division() {
        let block = parse_block("xor edx, edx\ndiv ecx\ntest edx, edx").unwrap();
        let tp = OsacaModel::new(UarchKind::Haswell).predict(&block).unwrap();
        // Paper: OSACA predicts 12.25 vs measured 21.62.
        assert!((5.0..=17.0).contains(&tp), "pressure-only estimate: {tp}");
    }

    #[test]
    fn imm_to_memory_is_a_nop() {
        let with_rmw = parse_block("add qword ptr [rbx], 1\nimul rax, rcx").unwrap();
        let without = parse_block("imul rax, rcx").unwrap();
        let model = OsacaModel::new(UarchKind::Haswell);
        let a = model.predict(&with_rmw).unwrap();
        let b = model.predict(&without).unwrap();
        // The RMW contributes (almost) nothing.
        assert!(a - b < 0.6, "rmw treated as nop: {a} vs {b}");
    }

    #[test]
    fn byte_memory_alu_crashes_parser() {
        let block = parse_block("xor al, byte ptr [rdi - 1]").unwrap();
        assert!(OsacaModel::new(UarchKind::Haswell)
            .predict(&block)
            .is_none());
    }

    #[test]
    fn treats_zero_idiom_as_cheap_but_not_free() {
        let block = parse_block("vxorps xmm2, xmm2, xmm2").unwrap();
        let tp = OsacaModel::new(UarchKind::Haswell).predict(&block).unwrap();
        // Paper: OSACA reports 1.00.
        assert!((0.9..=1.2).contains(&tp), "{tp}");
    }
}
