//! The llvm-mca-like analyzer.

use crate::perturb::perturb_recipe;
use crate::schedule::Schedule;
use crate::scheduler::{simulate, Run};
use crate::{isa_unsupported, ThroughputModel};
use bhive_asm::{BasicBlock, Inst, Mnemonic};
use bhive_uarch::{decompose, ports, Recipe, UarchKind, Uop, UopKind, VarLat};

/// llvm-mca: an out-of-order simulator parameterized by LLVM's backend
/// scheduling model.
///
/// Its modeled blind spots, all documented in the paper:
///
/// * **no zero-idiom knowledge** — `vxorps xmm2, xmm2, xmm2` is costed as
///   a regular vector XOR (case-study block 2: predicts 1.00 vs measured
///   0.25);
/// * **load-op collapse** — a memory-source ALU instruction is modeled as
///   a single uop whose inputs include the destination register, so the
///   independent load cannot be hoisted (the Fig. "scheduling"
///   mis-scheduling: predicts 13.04 vs measured 8.25 on the `updcrc`
///   block);
/// * **the same division mix-up as IACA** (predicts 99 vs measured 21.62);
/// * **less-tuned Skylake tables** — the paper attributes llvm-mca's
///   Skylake regression to the scheduling model lagging behind new
///   hardware.
#[derive(Debug, Clone)]
pub struct McaModel {
    kind: UarchKind,
    strength: f64,
    seed: u64,
}

impl McaModel {
    /// llvm-mca targeting `kind`, with calibrated default table noise.
    pub fn new(kind: UarchKind) -> McaModel {
        let strength = match kind {
            // "We suspect the decrease in performance in Skylake is a
            // result of LLVM developers having less time updating the
            // cost models for the relatively new microarchitecture."
            // Calibrated so the Skylake regression matches Table 5's
            // shape (~0.18 -> ~0.23 overall error vs Haswell).
            UarchKind::Skylake => 0.70,
            _ => 0.35,
        };
        McaModel {
            kind,
            strength,
            seed: 0x11CA,
        }
    }

    /// Overrides the table-noise strength (used by calibration tests).
    pub fn with_strength(mut self, strength: f64) -> McaModel {
        self.strength = strength;
        self
    }

    /// Schedules `block` on this model's recipes, or `None` when the
    /// tool cannot analyze it.
    fn run(&self, block: &BasicBlock) -> Option<Run> {
        if block.is_empty() || isa_unsupported(block, self.kind) {
            return None;
        }
        Some(simulate(block, &self.recipes(block), self.kind.desc()))
    }

    fn recipes(&self, block: &BasicBlock) -> Vec<Recipe> {
        let uarch = self.kind.desc();
        block
            .iter()
            .map(|inst| {
                let mut recipe = decompose(inst, uarch);
                // No rename-time tricks in the scheduling model: zero
                // idioms and register moves execute as plain uops.
                if recipe.eliminated && inst.mnemonic() != Mnemonic::Nop {
                    recipe = un_eliminated(inst, self.kind);
                }
                // The division mix-up.
                if matches!(inst.mnemonic(), Mnemonic::Div | Mnemonic::Idiv) {
                    for uop in &mut recipe.uops {
                        if matches!(uop.var_lat, Some(VarLat::DivGpr { .. })) {
                            let slow = match self.kind {
                                UarchKind::Skylake => 44,
                                _ => 96,
                            };
                            uop.latency = slow;
                            uop.blocking = slow;
                        }
                    }
                    return recipe;
                }
                // Load-op collapse: the load micro-op is serialized
                // behind *all* the instruction's sources.
                recipe = serialize_load_op(recipe);
                perturb_recipe(&mut recipe, inst, self.seed, self.strength);
                recipe
            })
            .collect()
    }
}

/// Rebuilds an eliminated-instruction recipe as a real executed uop.
fn un_eliminated(inst: &Inst, kind: UarchKind) -> Recipe {
    let ports = if inst.mnemonic().is_sse() || kind == UarchKind::IvyBridge {
        ports!(0, 1, 5)
    } else {
        ports!(0, 1, 5, 6)
    };
    Recipe::unfused(vec![Uop::compute(ports, 1)])
}

/// The load-op collapse bug: the load micro-op keeps its ports and
/// latency (llvm-mca's scheduling model does know the port usage) but is
/// downgraded to a Compute-kind uop, which the scheduler makes dependent
/// on *all* of the instruction's register sources — so the independent
/// address-only load can no longer be hoisted ahead of the data chain.
fn serialize_load_op(mut recipe: Recipe) -> Recipe {
    let load_pos = recipe.uops.iter().position(|u| u.kind == UopKind::Load);
    let has_compute = recipe.uops.iter().any(|u| u.kind == UopKind::Compute);
    if let (Some(load), true) = (load_pos, has_compute) {
        recipe.uops[load].kind = UopKind::Compute;
        // Keep the load first so the real compute uop still chains
        // behind it via the last-compute edge.
    }
    recipe
}

impl ThroughputModel for McaModel {
    fn name(&self) -> &'static str {
        "llvm-mca"
    }

    fn uarch(&self) -> UarchKind {
        self.kind
    }

    fn predict(&self, block: &BasicBlock) -> Option<f64> {
        Some(self.run(block)?.throughput())
    }

    fn schedule(&self, block: &BasicBlock) -> Option<Schedule> {
        Some(self.run(block)?.schedule(block, self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhive_asm::parse_block;

    #[test]
    fn misses_zero_idiom() {
        // Paper case study: llvm-mca predicts 1.00 for the idiom.
        let block = parse_block("vxorps xmm2, xmm2, xmm2").unwrap();
        let tp = McaModel::new(UarchKind::Haswell).predict(&block).unwrap();
        assert!(
            (0.8..=1.4).contains(&tp),
            "mca treats the idiom as a regular XOR: {tp}"
        );
    }

    #[test]
    fn load_op_collapse_slows_updcrc() {
        let block = bhive_corpus_updcrc();
        let mca = McaModel::new(UarchKind::Haswell).predict(&block).unwrap();
        let iaca = crate::IacaModel::new(UarchKind::Haswell)
            .predict(&block)
            .unwrap();
        // Paper: measured 8.25, IACA 8.00, llvm-mca 13.04. The shape to
        // preserve: mca substantially overpredicts relative to IACA.
        assert!(
            mca > iaca + 2.0,
            "collapse must slow the chain: mca {mca} vs iaca {iaca}"
        );
    }

    /// Local copy of the Fig. 1 block (crate cannot depend on
    /// bhive-corpus).
    fn bhive_corpus_updcrc() -> BasicBlock {
        bhive_asm::parse_block(
            "add rdi, 1\n\
             mov eax, edx\n\
             shr rdx, 8\n\
             xor al, byte ptr [rdi - 1]\n\
             movzx eax, al\n\
             xor rdx, qword ptr [8*rax + 0x41108]\n\
             cmp rdi, rcx",
        )
        .unwrap()
    }

    #[test]
    fn division_overpredicted_like_iaca() {
        let block = parse_block("xor edx, edx\ndiv ecx\ntest edx, edx").unwrap();
        let tp = McaModel::new(UarchKind::Haswell).predict(&block).unwrap();
        assert!(tp > 60.0, "{tp}");
    }

    #[test]
    fn skylake_tables_are_noisier() {
        assert!(
            McaModel::new(UarchKind::Skylake).strength > McaModel::new(UarchKind::Haswell).strength
        );
    }
}
