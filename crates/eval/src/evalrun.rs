//! Running a model against measured ground truth.

use crate::classify::{Category, Classifier};
use crate::dataset::MeasuredCorpus;
use bhive_corpus::Application;
use bhive_learn::stats;
use bhive_models::ThroughputModel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One block's prediction record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Source application.
    pub app: Application,
    /// LDA category of the block.
    pub category: Category,
    /// Execution-frequency weight.
    pub weight: f64,
    /// Measured throughput (ground truth).
    pub measured: f64,
    /// Model prediction, or `None` when the tool failed on the block.
    pub predicted: Option<f64>,
}

/// A model's predictions over a measured corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalRun {
    /// Model name.
    pub model: String,
    /// Per-block records.
    pub preds: Vec<Prediction>,
}

impl EvalRun {
    /// Classifies every block of a measured corpus once, for reuse
    /// across [`EvalRun::evaluate_classified`] calls — the category
    /// depends only on the block, not on the model being evaluated.
    pub fn classify_corpus(data: &MeasuredCorpus, classifier: &Classifier) -> Vec<Category> {
        data.blocks
            .iter()
            .map(|m| classifier.classify(&m.block))
            .collect()
    }

    /// Runs `model` on every measured block.
    ///
    /// Classifies each block as it goes; when evaluating several models
    /// on the same corpus, classify once with
    /// [`EvalRun::classify_corpus`] and use
    /// [`EvalRun::evaluate_classified`] instead.
    pub fn evaluate(
        model: &dyn ThroughputModel,
        data: &MeasuredCorpus,
        classifier: &Classifier,
    ) -> EvalRun {
        Self::evaluate_classified(model, data, &Self::classify_corpus(data, classifier))
    }

    /// Runs `model` on every measured block, reusing precomputed
    /// per-block categories.
    ///
    /// # Panics
    ///
    /// Panics if `categories` does not have one entry per block.
    pub fn evaluate_classified(
        model: &dyn ThroughputModel,
        data: &MeasuredCorpus,
        categories: &[Category],
    ) -> EvalRun {
        assert_eq!(
            categories.len(),
            data.blocks.len(),
            "one category per block"
        );
        let preds = data
            .blocks
            .iter()
            .zip(categories)
            .map(|(m, &category)| Prediction {
                app: m.app,
                category,
                weight: m.weight,
                measured: m.throughput,
                predicted: model.predict(&m.block),
            })
            .collect();
        EvalRun {
            model: model.name().to_string(),
            preds,
        }
    }

    fn predicted_pairs(&self) -> impl Iterator<Item = (&Prediction, f64)> {
        self.preds
            .iter()
            .filter_map(|p| p.predicted.map(|v| (p, v)))
    }

    /// Unweighted mean relative error over the blocks the model handled.
    pub fn overall_error(&self) -> f64 {
        stats::mean_relative_error(self.predicted_pairs().map(|(p, v)| (v, p.measured)))
    }

    /// [`EvalRun::overall_error`] of `model` on `data`, computed without
    /// categories or per-block records: the same figure, for callers that
    /// read nothing else.
    pub(crate) fn overall_error_of(model: &dyn ThroughputModel, data: &MeasuredCorpus) -> f64 {
        stats::mean_relative_error(
            data.blocks
                .iter()
                .filter_map(|m| model.predict(&m.block).map(|v| (v, m.throughput))),
        )
    }

    /// Frequency-weighted mean relative error.
    pub fn weighted_error(&self) -> f64 {
        stats::weighted_relative_error(
            self.predicted_pairs()
                .map(|(p, v)| (v, p.measured, p.weight)),
        )
    }

    /// Kendall's tau between predictions and measurements.
    pub fn kendall_tau(&self) -> f64 {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for (p, v) in self.predicted_pairs() {
            a.push(v);
            b.push(p.measured);
        }
        stats::kendall_tau(&a, &b)
    }

    /// Fraction of blocks the tool produced a prediction for.
    pub fn coverage(&self) -> f64 {
        if self.preds.is_empty() {
            return 0.0;
        }
        self.preds.iter().filter(|p| p.predicted.is_some()).count() as f64 / self.preds.len() as f64
    }

    /// Frequency-weighted error per application (the per-application
    /// figures weight each block by its sampled frequency).
    pub fn per_app_weighted_error(&self) -> BTreeMap<Application, f64> {
        let mut grouped: BTreeMap<Application, Vec<(f64, f64, f64)>> = BTreeMap::new();
        for (p, v) in self.predicted_pairs() {
            grouped
                .entry(p.app)
                .or_default()
                .push((v, p.measured, p.weight));
        }
        grouped
            .into_iter()
            .map(|(app, triples)| (app, stats::weighted_relative_error(triples)))
            .collect()
    }

    /// Unweighted error per LDA category.
    pub fn per_category_error(&self) -> BTreeMap<Category, f64> {
        let mut grouped: BTreeMap<Category, Vec<(f64, f64)>> = BTreeMap::new();
        for (p, v) in self.predicted_pairs() {
            grouped.entry(p.category).or_default().push((v, p.measured));
        }
        grouped
            .into_iter()
            .map(|(cat, pairs)| (cat, stats::mean_relative_error(pairs)))
            .collect()
    }

    /// Number of handled blocks per category (for significance notes).
    pub fn per_category_count(&self) -> BTreeMap<Category, usize> {
        let mut out = BTreeMap::new();
        for (p, _) in self.predicted_pairs() {
            *out.entry(p.category).or_insert(0) += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhive_corpus::{Corpus, Scale};
    use bhive_harness::ProfileConfig;
    use bhive_models::BaselineTableModel;
    use bhive_uarch::UarchKind;

    #[test]
    fn end_to_end_evaluation() {
        let corpus = Corpus::generate(Scale::PerApp(6), 21);
        let data = crate::dataset::MeasuredCorpus::measure(
            &corpus,
            UarchKind::Haswell,
            &ProfileConfig::bhive().quiet(),
            2,
        );
        assert!(!data.blocks.is_empty());
        let classifier = crate::classify::Classifier::fit(
            &data
                .blocks
                .iter()
                .map(|m| m.block.clone())
                .collect::<Vec<_>>(),
            UarchKind::Haswell,
        );
        let model = BaselineTableModel::new(UarchKind::Haswell);
        let run = EvalRun::evaluate(&model, &data, &classifier);
        assert_eq!(run.preds.len(), data.blocks.len());
        assert!(run.coverage() > 0.95);
        let err = run.overall_error();
        assert!(err.is_finite() && err >= 0.0);
        let tau = run.kendall_tau();
        assert!(
            tau > 0.2,
            "even the baseline ranks better than chance: {tau}"
        );
        assert!(!run.per_app_weighted_error().is_empty());
    }
}
