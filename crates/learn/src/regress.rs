//! Stochastic-gradient-descent regression.
//!
//! The learning core of the Ithemal-like throughput predictor: a linear
//! model over engineered features, trained with mini-batch SGD on a
//! relative-error-style loss (predicting log-throughput makes relative
//! error symmetric, which matches how Ithemal is trained and evaluated).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Epochs over the training set.
    pub epochs: usize,
    /// Initial learning rate (decays harmonically per epoch).
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Shuffle/initialization seed.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            epochs: 40,
            learning_rate: 0.05,
            l2: 1e-5,
            seed: 1,
        }
    }
}

/// A trained linear regressor `y ≈ w·x + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SgdRegressor {
    weights: Vec<f64>,
    bias: f64,
    /// Per-feature scale estimated from the training data
    /// (features are divided by this before the dot product).
    scales: Vec<f64>,
}

impl SgdRegressor {
    /// Trains on `(features, target)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the feature vectors are empty or of inconsistent length.
    pub fn train(xs: &[Vec<f64>], ys: &[f64], config: SgdConfig) -> SgdRegressor {
        assert!(!xs.is_empty(), "empty training set");
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        let dims = xs[0].len();
        assert!(xs.iter().all(|x| x.len() == dims), "ragged features");

        // Feature scaling: robust against large count features.
        let mut scales = vec![0f64; dims];
        for x in xs {
            for (s, &v) in scales.iter_mut().zip(x) {
                *s = s.max(v.abs());
            }
        }
        for s in &mut scales {
            if *s == 0.0 {
                *s = 1.0;
            }
        }

        // Scale every feature once, into one row-major matrix. The epochs
        // then read the same quotients they would compute afresh.
        let scaled: Vec<f64> = xs
            .iter()
            .flat_map(|x| x.iter().zip(&scales).map(|(&v, s)| v / s))
            .collect();

        let mut weights = vec![0f64; dims];
        let mut bias = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut rng = SmallRng::seed_from_u64(config.seed);

        for epoch in 0..config.epochs {
            let lr = config.learning_rate / (1.0 + epoch as f64 * 0.15);
            order.shuffle(&mut rng);
            for &i in &order {
                let row = &scaled[i * dims..(i + 1) * dims];
                let mut pred = bias;
                for (w, &v) in weights.iter().zip(row) {
                    pred += w * v;
                }
                let err = pred - ys[i];
                bias -= lr * err;
                for (w, &v) in weights.iter_mut().zip(row) {
                    *w -= lr * (err * v + config.l2 * *w);
                }
            }
        }
        SgdRegressor {
            weights,
            bias,
            scales,
        }
    }

    /// Predicts the target for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionality differs from training.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "dimension mismatch");
        let mut out = self.bias;
        for ((w, s), &v) in self.weights.iter().zip(&self.scales).zip(x) {
            out += w * (v / s);
        }
        out
    }

    /// Number of input features.
    pub fn dims(&self) -> usize {
        self.weights.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// Training as it was before the features were scaled up front: the
    /// same epochs and shuffles, dividing every feature by its scale at
    /// each use. `train` must match it bit for bit.
    fn train_dividing_every_step(
        xs: &[Vec<f64>],
        ys: &[f64],
        config: SgdConfig,
    ) -> (Vec<f64>, f64) {
        let dims = xs[0].len();
        let mut scales = vec![0f64; dims];
        for x in xs {
            for (s, &v) in scales.iter_mut().zip(x) {
                *s = s.max(v.abs());
            }
        }
        for s in &mut scales {
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        let mut weights = vec![0f64; dims];
        let mut bias = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        for epoch in 0..config.epochs {
            let lr = config.learning_rate / (1.0 + epoch as f64 * 0.15);
            order.shuffle(&mut rng);
            for &i in &order {
                let mut pred = bias;
                for ((w, s), &v) in weights.iter().zip(&scales).zip(&xs[i]) {
                    pred += w * (v / s);
                }
                let err = pred - ys[i];
                bias -= lr * err;
                for ((w, s), &v) in weights.iter_mut().zip(&scales).zip(&xs[i]) {
                    *w -= lr * (err * (v / s) + config.l2 * *w);
                }
            }
        }
        (weights, bias)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn scaling_once_matches_dividing_every_step(
            dims in 0usize..9,
            samples in 1usize..40,
            epochs in 0usize..30,
            lr_milli in 1u32..300,
            l2_exp in 0u32..8,
            seed in any::<u64>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            // Mixed magnitudes and signs, with some all-zero columns so
            // the unit-scale fallback is exercised too.
            let zero_col = rng.gen_range(0..dims.max(1) + 2);
            let xs: Vec<Vec<f64>> = (0..samples)
                .map(|_| {
                    (0..dims)
                        .map(|d| if d == zero_col { 0.0 } else { rng.gen_range(-1e3..1e3) * rng.gen::<f64>() })
                        .collect()
                })
                .collect();
            let ys: Vec<f64> = (0..samples).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let config = SgdConfig {
                epochs,
                learning_rate: f64::from(lr_milli) / 1000.0,
                l2: 10f64.powi(-(l2_exp as i32)),
                seed,
            };
            let model = SgdRegressor::train(&xs, &ys, config);
            let (weights, bias) = train_dividing_every_step(&xs, &ys, config);
            let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&model.weights), bits(&weights));
            prop_assert_eq!(model.bias.to_bits(), bias.to_bits());
        }
    }

    #[test]
    fn learns_linear_function() {
        let mut rng = SmallRng::seed_from_u64(2);
        let xs: Vec<Vec<f64>> = (0..400)
            .map(|_| vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..5.0)])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] - 2.0 * x[1] + 1.0).collect();
        let model = SgdRegressor::train(&xs, &ys, SgdConfig::default());
        for (x, y) in xs.iter().zip(&ys).take(50) {
            let pred = model.predict(x);
            assert!((pred - y).abs() < 0.5, "pred {pred} vs {y}");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let xs = vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![0.5, 0.5]];
        let ys = vec![3.0, 4.0, 1.0];
        let a = SgdRegressor::train(&xs, &ys, SgdConfig::default());
        let b = SgdRegressor::train(&xs, &ys, SgdConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn handles_constant_features() {
        let xs = vec![vec![0.0, 1.0], vec![0.0, 2.0], vec![0.0, 3.0]];
        let ys = vec![2.0, 4.0, 6.0];
        // A tiny training set needs more epochs to converge.
        let config = SgdConfig {
            epochs: 600,
            learning_rate: 0.2,
            ..SgdConfig::default()
        };
        let model = SgdRegressor::train(&xs, &ys, config);
        let pred = model.predict(&[0.0, 2.5]);
        assert!((pred - 5.0).abs() < 0.5, "pred {pred}");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn predict_checks_dims() {
        let model = SgdRegressor::train(&[vec![1.0]], &[1.0], SgdConfig::default());
        let _ = model.predict(&[1.0, 2.0]);
    }
}
