//! The cheap warm-up path fires where it matters. `simulate_double`
//! warms the L1s by replaying a prefix's cache traffic and falls back to
//! a simulated warm-up pass only when the replay evicts a line. Every
//! measured prefix the harness produces, at both unroll factors, over a
//! generated corpus and over calibration's probe battery, must replay
//! without an eviction on every shipped microarchitecture, so a later
//! change cannot quietly send production down the slow path.

use bhive_asm::BasicBlock;
use bhive_corpus::probe::probe_battery;
use bhive_corpus::{Corpus, Scale};
use bhive_harness::{monitor, ProfileConfig};
use bhive_learn::calibrate::calib_config;
use bhive_sim::{Cache, CodeLayout, Machine, TimingModel, CODE_BASE};
use bhive_uarch::{builtin, UarchKind};

/// Replays the hi- and lo-factor prefixes `config` would measure for
/// `block` on `kind`. `None` when the block never reaches measurement
/// (unsupported ISA, unencodable, or rejected by the monitor); otherwise
/// whether both replays were eviction-free.
fn replays_exactly(kind: UarchKind, config: &ProfileConfig, block: &BasicBlock) -> Option<bool> {
    let uarch = builtin(kind);
    if !uarch.supports_avx2 && block.uses_avx2() {
        return None;
    }
    let (encoded, spans) = block.encode_spanned().ok()?;
    let (lo, hi) = config.unroll.factors(encoded.len() as u32);
    let mut machine = Machine::new(uarch, 0);
    let mapping = monitor(&mut machine, block.insts(), hi, config).ok()?;
    let layout = CodeLayout::from_spans(spans, CODE_BASE);
    let model = TimingModel::new(block.insts(), uarch);
    let prep = model.prepare(&mapping.trace, &layout);
    let mut l1i = Cache::new(uarch.l1i);
    let mut l1d = Cache::new(uarch.l1d);
    let prefixes = [mapping.trace.len(), lo as usize * block.len()];
    Some(
        prefixes
            .into_iter()
            .all(|n| prep.warm_by_replay(n, &mut l1i, &mut l1d)),
    )
}

#[test]
fn corpus_prefixes_replay_without_eviction() {
    let corpus = Corpus::generate(Scale::PerApp(8), 5);
    let config = ProfileConfig::bhive();
    for kind in UarchKind::ALL {
        let mut measured = 0;
        for cb in corpus.blocks() {
            if let Some(exact) = replays_exactly(kind, &config, &cb.block) {
                assert!(exact, "{kind:?}: replay evicted for {:?}", cb.block);
                measured += 1;
            }
        }
        assert!(measured >= 50, "{kind:?}: only {measured} blocks measured");
    }
}

#[test]
fn probe_battery_prefixes_replay_without_eviction() {
    let config = calib_config();
    for kind in UarchKind::ALL {
        let battery = probe_battery(builtin(kind).supports_avx2, false);
        let mut measured = 0;
        for probe in &battery.probes {
            if let Some(exact) = replays_exactly(kind, &config, &probe.block) {
                assert!(exact, "{kind:?}: replay evicted for probe {}", probe.id);
                measured += 1;
            }
        }
        assert_eq!(measured, battery.len(), "{kind:?}: every probe is measured");
    }
}
