//! The IACA-like analyzer.

use crate::perturb::perturb_recipe;
use crate::schedule::Schedule;
use crate::scheduler::{simulate, Run};
use crate::{isa_unsupported, ThroughputModel};
use bhive_asm::{BasicBlock, Mnemonic};
use bhive_uarch::{decompose, Recipe, UarchKind, VarLat};

/// Intel Architecture Code Analyzer.
///
/// IACA's defining property in the paper is *insider knowledge*: it
/// models the proprietary zero-idiom and fusion optimizations, which is
/// why it is "generally recognized as the more accurate analyzer". Its
/// defining bug (case-study block 1) is costing `div r32` like the
/// 128-by-64-bit `div r64` — and missing the zeroed-`rdx` fast path
/// either way.
#[derive(Debug, Clone)]
pub struct IacaModel {
    kind: UarchKind,
    /// Table-error magnitude (calibrated against Table 5).
    strength: f64,
    seed: u64,
}

impl IacaModel {
    /// IACA targeting `kind`, with calibrated default table noise.
    /// Intel's own tool tracks its newest microarchitecture best
    /// (the paper's Table 5: IACA's Skylake error is its lowest).
    pub fn new(kind: UarchKind) -> IacaModel {
        let strength = match kind {
            UarchKind::Skylake => 0.2,
            _ => 0.28,
        };
        IacaModel {
            kind,
            strength,
            seed: 0x1ACA,
        }
    }

    /// Overrides the table-noise strength (used by calibration tests).
    pub fn with_strength(mut self, strength: f64) -> IacaModel {
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
                // The division confusion: every GPR divide is costed as
                // the slowest 64-bit form, fast path ignored.
                if matches!(inst.mnemonic(), Mnemonic::Div | Mnemonic::Idiv) {
                    for uop in &mut recipe.uops {
                        if matches!(uop.var_lat, Some(VarLat::DivGpr { .. })) {
                            let slow = match self.kind {
                                UarchKind::Skylake => 42,
                                _ => 95,
                            };
                            uop.latency = slow;
                            uop.blocking = slow;
                        }
                    }
                } else {
                    perturb_recipe(&mut recipe, inst, self.seed, self.strength);
                }
                recipe
            })
            .collect()
    }
}

impl ThroughputModel for IacaModel {
    fn name(&self) -> &'static str {
        "iaca"
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
    fn recognizes_zero_idiom() {
        let block = parse_block("vxorps xmm2, xmm2, xmm2").unwrap();
        let model = IacaModel::new(UarchKind::Haswell);
        let tp = model.predict(&block).unwrap();
        // Paper case study: IACA predicts 0.24 (measured 0.25).
        assert!(tp <= 0.5, "IACA should see the idiom: {tp}");
    }

    #[test]
    fn division_grossly_overpredicted() {
        let block = parse_block("xor edx, edx\ndiv ecx\ntest edx, edx").unwrap();
        let model = IacaModel::new(UarchKind::Haswell);
        let tp = model.predict(&block).unwrap();
        // Paper: measured 21.62, IACA predicts 98.
        assert!(tp > 60.0, "div confusion must overpredict: {tp}");
    }

    #[test]
    fn refuses_avx2_on_ivb() {
        let block = parse_block("vfmadd231ps ymm0, ymm1, ymm2").unwrap();
        assert!(IacaModel::new(UarchKind::IvyBridge)
            .predict(&block)
            .is_none());
        assert!(IacaModel::new(UarchKind::Haswell).predict(&block).is_some());
    }

    #[test]
    fn produces_schedules() {
        let block = parse_block("add rax, 1\nimul rbx, rax").unwrap();
        let model = IacaModel::new(UarchKind::Haswell);
        let schedule = model.schedule(&block).unwrap();
        assert_eq!(schedule.model, "iaca");
        assert!(!schedule.uops.is_empty());
    }
}
