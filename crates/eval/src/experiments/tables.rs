//! Tables 1–6.

use crate::report::{fmt_f, fmt_pct, Report};
use crate::{Category, CorpusKind, EvalRun, Pipeline, ITHEMAL_INDEX, MODEL_COUNT};
use bhive_corpus::{special, Application};
use bhive_harness::{profile_corpus, PageMapping, ProfileConfig, Profiler, UnrollStrategy};
use bhive_uarch::UarchKind;

/// **Table 1** — ablation of the measurement techniques: percentage of
/// the suite successfully profiled as techniques are added.
pub fn table1(pipeline: &Pipeline) -> Report {
    let corpus = pipeline.corpus(CorpusKind::Main);
    let blocks = corpus.basic_blocks();
    let mut report = Report::new(
        "table1",
        "Ablation study: percent of basic blocks profiled (paper Table 1)",
        vec![
            "(Additional) Technique".into(),
            "Profiled".into(),
            "Paper".into(),
        ],
    );
    let configs = [
        ("None", ProfileConfig::agner(), "16.65%"),
        (
            "Mapping all accessed pages",
            ProfileConfig::with_page_mapping_only(),
            "91.28%",
        ),
        (
            "More intelligent unrolling",
            ProfileConfig::bhive(),
            "94.24%",
        ),
    ];
    for (name, config, paper) in configs {
        let profiler = Profiler::new(UarchKind::Haswell.desc(), config);
        let run = profile_corpus(&profiler, &blocks, pipeline.threads());
        report.push_row(vec![name.into(), fmt_pct(run.success_rate()), paper.into()]);
        report.note(format!("{name}: {}", run.stats));
    }
    report.note(format!(
        "{} blocks, Haswell, seed {}",
        blocks.len(),
        pipeline.seed()
    ));
    report
}

/// **Table 2** — incremental measurement optimizations on the large
/// vectorized TensorFlow CNN inner-loop block.
pub fn table2(_pipeline: &Pipeline) -> Report {
    let block = special::tensorflow_cnn_block();
    let mut report = Report::new(
        "table2",
        "Measured throughput of the TensorFlow CNN block as optimizations \
         are applied (paper Table 2)",
        vec![
            "(Additional) Optimizations".into(),
            "Measured Throughput".into(),
            "L1 D-Cache Misses".into(),
            "L1 I-Cache Misses".into(),
            "Paper".into(),
        ],
    );
    // Every row reports rather than rejects invariant violations, like
    // the paper's table.
    let base = ProfileConfig::bhive()
        .quiet()
        .without_invariant_enforcement()
        .with_unroll(UnrollStrategy::Naive { factor: 100 });
    let rows: [(&str, Option<ProfileConfig>, &str); 5] = [
        ("None", Some(ProfileConfig::agner().quiet()), "Crashed"),
        (
            "Page mapping",
            Some(
                base.clone()
                    .with_page_mapping(PageMapping::PerPage)
                    .with_gradual_underflow(),
            ),
            "6377.0",
        ),
        (
            "Single physical page",
            Some(base.clone().with_gradual_underflow()),
            "2273.7",
        ),
        ("Disabling gradual underflow", Some(base.clone()), "65.0"),
        (
            "Using smaller unroll factor",
            Some(
                ProfileConfig::bhive()
                    .quiet()
                    .without_invariant_enforcement(),
            ),
            "59.0",
        ),
    ];
    for (name, config, paper) in rows {
        let Some(config) = config else { continue };
        let profiler = Profiler::new(UarchKind::Haswell.desc(), config);
        match profiler.profile(&block) {
            Ok(m) => {
                let counters = m.hi.counters;
                report.push_row(vec![
                    name.into(),
                    format!("{:.1}", m.throughput),
                    (counters.l1d_read_misses + counters.l1d_write_misses).to_string(),
                    counters.l1i_misses.to_string(),
                    paper.into(),
                ]);
            }
            Err(failure) => {
                report.push_row(vec![
                    name.into(),
                    "Crashed".into(),
                    "N/A".into(),
                    "N/A".into(),
                    paper.into(),
                ]);
                report.note(format!("{name}: {failure}"));
            }
        }
    }
    report.note(
        "absolute cycle counts differ from the paper's Haswell silicon; \
         the shape (crash -> D-misses -> subnormal stalls -> I-misses -> clean) reproduces",
    );
    report
}

/// **Table 3** — source applications and block counts.
pub fn table3(pipeline: &Pipeline) -> Report {
    let corpus = pipeline.corpus(CorpusKind::Main);
    let census = corpus.census();
    let mut report = Report::new(
        "table3",
        "Source applications of basic blocks (paper Table 3)",
        vec![
            "Application".into(),
            "Domain".into(),
            "# Basic Blocks".into(),
            "Paper".into(),
        ],
    );
    let mut total = 0usize;
    for app in Application::TABLE3 {
        let count = census.get(&app).copied().unwrap_or(0);
        total += count;
        report.push_row(vec![
            app.name().into(),
            app.domain().into(),
            count.to_string(),
            app.paper_block_count().unwrap_or(0).to_string(),
        ]);
    }
    report.push_row(vec![
        "Total".into(),
        String::new(),
        total.to_string(),
        "358561".into(),
    ]);
    report.note(format!(
        "scale {:?}; OpenSSL generated separately for the classification study",
        pipeline.scale()
    ));
    report
}

/// **Table 4** — the six LDA categories with block counts.
pub fn table4(pipeline: &Pipeline) -> Report {
    let corpus = pipeline.corpus(CorpusKind::Main);
    let classifier = pipeline.classifier();
    let mut counts = std::collections::BTreeMap::new();
    for cb in corpus.blocks() {
        *counts
            .entry(classifier.classify(&cb.block))
            .or_insert(0usize) += 1;
    }
    let mut report = Report::new(
        "table4",
        "Basic-block categories from LDA over uop port combinations (paper Table 4)",
        vec![
            "Category".into(),
            "Description".into(),
            "# Basic Blocks".into(),
            "Paper".into(),
        ],
    );
    for cat in Category::ALL {
        report.push_row(vec![
            cat.paper_name().into(),
            cat.description().into(),
            counts.get(&cat).copied().unwrap_or(0).to_string(),
            cat.paper_count().to_string(),
        ]);
    }
    report.note(format!(
        "LDA: 8 topics mapped onto the paper's 6 categories, alpha=1/6, beta=1/{} over \
         the {}-combination Haswell port vocabulary (the paper: 6 topics over 13 combinations)",
        classifier.vocab().len(),
        classifier.vocab().len()
    ));
    report
}

/// **Table 5** — overall error of the four models on the three
/// microarchitectures.
///
/// Only the overall error is reported, and it never reads a block's
/// category, so no classifier is fitted. The six datasets are measured
/// concurrently, then the twelve (uarch, model) cells are evaluated on
/// up to `min(threads, 12)` workers, the three Ithemal cells (which
/// train) first; the rows keep the fixed uarch × model order.
pub fn table5(pipeline: &Pipeline) -> Report {
    let mut report = Report::new(
        "table5",
        "Overall error of evaluated models (paper Table 5)",
        vec![
            "Microarchitecture".into(),
            "Model".into(),
            "Average Error".into(),
            "Paper".into(),
        ],
    );
    let paper: &[(&str, &str, f64)] = &[
        ("Ivy Bridge", "iaca", 0.1693),
        ("Ivy Bridge", "llvm-mca", 0.1885),
        ("Ivy Bridge", "ithemal", 0.1180),
        ("Ivy Bridge", "osaca", 0.3277),
        ("Haswell", "iaca", 0.1798),
        ("Haswell", "llvm-mca", 0.1832),
        ("Haswell", "ithemal", 0.1253),
        ("Haswell", "osaca", 0.3916),
        ("Skylake", "iaca", 0.1578),
        ("Skylake", "llvm-mca", 0.2278),
        ("Skylake", "ithemal", 0.1191),
        ("Skylake", "osaca", 0.3768),
    ];
    let pairs: Vec<_> = UarchKind::ALL
        .into_iter()
        .flat_map(|uarch| [(CorpusKind::Main, uarch), (CorpusKind::Training, uarch)])
        .collect();
    pipeline.measure_all(&pairs);
    let data = UarchKind::ALL.map(|uarch| pipeline.measured(CorpusKind::Main, uarch));
    // (uarch position, model index) cells. The Ithemal cells go first:
    // each trains its uarch's model, the longest tasks of the twelve.
    let (ithemal, analytical): (Vec<_>, Vec<_>) = (0..UarchKind::ALL.len())
        .flat_map(|u| (0..MODEL_COUNT).map(move |m| (u, m)))
        .partition(|&(_, m)| m == ITHEMAL_INDEX);
    let cells: Vec<(usize, usize)> = ithemal.into_iter().chain(analytical).collect();
    let errors = pipeline.par_map(&cells, |&(u, m)| {
        let model = pipeline.model(UarchKind::ALL[u], m);
        (
            model.name(),
            EvalRun::overall_error_of(model.as_ref(), &data[u]),
        )
    });
    let mut rows: Vec<_> = cells.into_iter().zip(errors).collect();
    rows.sort_unstable_by_key(|&(cell, _)| cell);
    for ((u, _), (model, error)) in rows {
        let uarch = UarchKind::ALL[u];
        let paper_val = paper
            .iter()
            .find(|(name, m, _)| *name == uarch.name() && *m == model)
            .map(|(_, _, v)| fmt_f(*v))
            .unwrap_or_default();
        report.push_row(vec![
            uarch.name().into(),
            model.into(),
            fmt_f(error),
            paper_val,
        ]);
    }
    report.note("AVX2 blocks excluded on Ivy Bridge, as in the paper");
    report
}

/// **Table 6** — the Spanner/Dremel production case study: average error,
/// frequency-weighted error and Kendall's tau for IACA, llvm-mca and
/// Ithemal (OSACA excluded, as in the paper, for licensing reasons).
pub fn table6(pipeline: &Pipeline) -> Report {
    let classifier = pipeline.classifier();
    let data = pipeline.measured(CorpusKind::Google, UarchKind::Haswell);
    let mut report = Report::new(
        "table6",
        "Accuracy on Spanner and Dremel basic blocks, Haswell (paper Table 6)",
        vec![
            "Application".into(),
            "Model".into(),
            "Average Error".into(),
            "Weighted Error".into(),
            "Kendall's Tau".into(),
            "Paper (avg/weighted/tau)".into(),
        ],
    );
    let paper: &[(&str, &str, [f64; 3])] = &[
        ("Spanner", "iaca", [0.1892, 0.1659, 0.7786]),
        ("Spanner", "llvm-mca", [0.1764, 0.1519, 0.7623]),
        ("Spanner", "ithemal", [0.1629, 0.1414, 0.7799]),
        ("Dremel", "iaca", [0.1883, 0.1846, 0.7835]),
        ("Dremel", "llvm-mca", [0.1777, 0.1831, 0.7685]),
        ("Dremel", "ithemal", [0.1640, 0.1871, 0.7862]),
    ];
    for app in [Application::Spanner, Application::Dremel] {
        // Per-application slice of the measured corpus.
        let slice = crate::MeasuredCorpus {
            uarch: data.uarch,
            blocks: data
                .blocks
                .iter()
                .filter(|m| m.app == app)
                .cloned()
                .collect(),
            attempted: 0,
        };
        let cats = EvalRun::classify_corpus(&slice, &classifier);
        for model in pipeline.models(UarchKind::Haswell) {
            if model.name() == "osaca" {
                continue; // excluded "due to licensing issues"
            }
            let run = EvalRun::evaluate_classified(model.as_ref(), &slice, &cats);
            let paper_vals = paper
                .iter()
                .find(|(a, m, _)| *a == app.name() && *m == model.name())
                .map(|(_, _, v)| format!("{:.4}/{:.4}/{:.4}", v[0], v[1], v[2]))
                .unwrap_or_default();
            report.push_row(vec![
                app.name().into(),
                model.name().into(),
                fmt_f(run.overall_error()),
                fmt_f(run.weighted_error()),
                fmt_f(run.kendall_tau()),
                paper_vals,
            ]);
        }
    }
    report.note("blocks weighted by sampled execution frequency");
    report
}
