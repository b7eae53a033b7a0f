//! Property tests over all models: robustness, determinism, and sane
//! output envelopes on arbitrary corpus blocks.

use bhive_corpus::{generate_block, Application, Corpus, Scale};
use bhive_models::{
    BaselineTableModel, IacaModel, IthemalConfig, IthemalModel, McaModel, OsacaModel,
    ThroughputModel,
};
use bhive_uarch::UarchKind;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn static_models(kind: UarchKind) -> Vec<Box<dyn ThroughputModel>> {
    vec![
        Box::new(IacaModel::new(kind)),
        Box::new(McaModel::new(kind)),
        Box::new(OsacaModel::new(kind)),
        Box::new(BaselineTableModel::new(kind)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every model yields a positive, finite prediction (or a clean None)
    /// on every generated block, on every microarchitecture.
    #[test]
    fn predictions_are_finite_positive(seed in any::<u64>(), app_idx in 0usize..12) {
        let app = Application::ALL[app_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(app, &mut rng);
        for kind in UarchKind::ALL {
            for model in static_models(kind) {
                if let Some(tp) = model.predict(&block) {
                    prop_assert!(
                        tp.is_finite() && tp >= 0.0,
                        "{} on {kind:?} returned {tp} for\n{block}",
                        model.name()
                    );
                    // A block cannot retire faster than the rename width
                    // allows, minus eliminated instructions.
                    prop_assert!(
                        tp < 1_000_000.0,
                        "{} runaway prediction {tp}",
                        model.name()
                    );
                }
            }
        }
    }

    /// Model predictions are deterministic.
    #[test]
    fn predictions_are_deterministic(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(Application::Llvm, &mut rng);
        for model in static_models(UarchKind::Haswell) {
            prop_assert_eq!(model.predict(&block), model.predict(&block));
        }
    }

    /// The scheduler models' schedules agree with their predictions:
    /// `predict` and `schedule()` share one scheduling core, so the
    /// schedule's throughput is the prediction bit for bit, on every
    /// microarchitecture.
    #[test]
    fn schedule_matches_throughput(seed in 0u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(Application::Redis, &mut rng);
        for kind in UarchKind::ALL {
            for model in scheduler_models(kind) {
                let (Some(tp), Some(schedule)) = (model.predict(&block), model.schedule(&block))
                else {
                    prop_assert!(model.predict(&block).is_none() && model.schedule(&block).is_none());
                    continue;
                };
                prop_assert_eq!(schedule.throughput.to_bits(), tp.to_bits());
                prop_assert_eq!(schedule.model.as_str(), model.name());
                let all_eliminated = block
                    .iter()
                    .all(|i| bhive_uarch::decompose(i, kind.desc()).eliminated);
                prop_assert!(!schedule.uops.is_empty() || all_eliminated);
            }
        }
    }
}

fn scheduler_models(kind: UarchKind) -> Vec<Box<dyn ThroughputModel>> {
    vec![
        Box::new(IacaModel::new(kind)),
        Box::new(McaModel::new(kind)),
    ]
}

/// FNV-1a over every prediction's bits, with a `None` hashed as one
/// marker byte so a refusal cannot collide with a prediction.
fn prediction_hash(model: &dyn ThroughputModel, corpus: &Corpus) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    };
    for cb in corpus.blocks() {
        match model.predict(&cb.block).map(f64::to_bits) {
            Some(bits) => bits.to_le_bytes().into_iter().for_each(&mut feed),
            None => feed(0xff),
        }
    }
    hash
}

/// The IACA and llvm-mca predictions over a generated corpus, pinned bit
/// for bit: any change to the static scheduler that moves a single
/// prediction by one ulp on any microarchitecture fails here.
#[test]
fn scheduler_predictions_are_pinned() {
    let corpus = Corpus::generate(Scale::PerApp(8), 5);
    assert_eq!(corpus.blocks().len(), 80);
    let expected: [(UarchKind, u64, u64); 3] = [
        (
            UarchKind::IvyBridge,
            0x487b_9ffd_e736_e583,
            0x03a0_6543_3723_a011,
        ),
        (
            UarchKind::Haswell,
            0x3615_a969_dc4f_4c82,
            0x4162_2570_1050_097d,
        ),
        (
            UarchKind::Skylake,
            0x523e_3c20_9023_0282,
            0xc892_6252_64bf_8b57,
        ),
    ];
    for (kind, iaca, mca) in expected {
        let got = prediction_hash(&IacaModel::new(kind), &corpus);
        assert_eq!(got, iaca, "iaca on {kind:?}: {got:#x}");
        let got = prediction_hash(&McaModel::new(kind), &corpus);
        assert_eq!(got, mca, "llvm-mca on {kind:?}: {got:#x}");
    }
}

#[test]
fn ithemal_generalizes_across_apps() {
    // Train on one mix, predict on another: predictions stay in the
    // sanity envelope even off-distribution.
    let mut rng = SmallRng::seed_from_u64(42);
    let train: Vec<_> = (0..200)
        .map(|_| {
            let block = generate_block(Application::Llvm, &mut rng);
            let target = (block.len() as f64 * 0.6).max(0.3);
            (block, target)
        })
        .collect();
    let model = IthemalModel::train(&train, UarchKind::Haswell, IthemalConfig::default());
    for app in [
        Application::OpenBlas,
        Application::Ffmpeg,
        Application::Spanner,
    ] {
        for _ in 0..50 {
            let block = generate_block(app, &mut rng);
            if let Some(tp) = model.predict(&block) {
                assert!(tp.is_finite() && tp > 0.0, "{app}: {tp}");
                assert!(tp < 10_000.0, "{app}: runaway {tp}");
            }
        }
    }
}

#[test]
fn avx2_refusal_is_uniform() {
    let block = bhive_asm::parse_block("vfmadd231ps ymm0, ymm1, ymm2").unwrap();
    for model in static_models(UarchKind::IvyBridge) {
        assert!(
            model.predict(&block).is_none(),
            "{} must refuse AVX2 on Ivy Bridge",
            model.name()
        );
    }
    for model in static_models(UarchKind::Haswell) {
        assert!(
            model.predict(&block).is_some(),
            "{} handles AVX2 on Haswell",
            model.name()
        );
    }
}
