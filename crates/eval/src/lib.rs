//! # bhive-eval
//!
//! Evaluation pipelines and experiment drivers: one driver per table and
//! figure of the paper, each returning a printable/serializable
//! [`Report`] whose rows mirror the paper's artifact (with the paper's
//! own numbers alongside for comparison — see EXPERIMENTS.md at the
//! repository root).
//!
//! The [`Pipeline`] caches the expensive shared artifacts — generated
//! corpora, measured ground truth per microarchitecture, the LDA
//! classifier, trained Ithemal models — so running every experiment in
//! one process (as the `bhive all` CLI command does) measures each corpus
//! once.
//!
//! # Example
//!
//! ```no_run
//! use bhive_eval::{experiments, Pipeline};
//! use bhive_corpus::Scale;
//!
//! let pipeline = Pipeline::new(Scale::PerApp(200), 42, 0);
//! let report = experiments::table1(&pipeline);
//! println!("{report}");
//! ```

mod classify;
mod dataset;
mod evalrun;
pub mod experiments;
mod report;

pub use classify::{block_document, Category, Classifier};
pub use dataset::{MeasuredBlock, MeasuredCorpus};
pub use evalrun::{EvalRun, Prediction};
pub use report::{fmt_f, fmt_pct, Report};

use bhive_corpus::{Corpus, Scale};
use bhive_harness::{ObsConfig, ProfileConfig, ProfileStats, Supervision};
use bhive_models::{IacaModel, IthemalConfig, IthemalModel, McaModel, OsacaModel, ThroughputModel};
use bhive_uarch::UarchKind;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Which corpus an experiment wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorpusKind {
    /// The open-source benchmark suite (Table 3 applications + OpenSSL).
    Main,
    /// The Spanner/Dremel production corpora.
    Google,
    /// A disjoint corpus (different seed) used to train the learned model.
    Training,
}

impl CorpusKind {
    /// Stable lower-case name (the CLI's `--corpus` values, and the
    /// label baked into shard-report filenames).
    pub fn name(self) -> &'static str {
        match self {
            CorpusKind::Main => "main",
            CorpusKind::Google => "google",
            CorpusKind::Training => "training",
        }
    }

    /// Parses a [`CorpusKind::name`] (case-insensitive).
    pub fn parse(text: &str) -> Option<CorpusKind> {
        match text.to_ascii_lowercase().as_str() {
            "main" => Some(CorpusKind::Main),
            "google" => Some(CorpusKind::Google),
            "training" => Some(CorpusKind::Training),
            _ => None,
        }
    }
}

impl std::fmt::Display for CorpusKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared context for the experiment drivers.
pub struct Pipeline {
    scale: Scale,
    seed: u64,
    threads: usize,
    retries: u32,
    cache_dir: Option<PathBuf>,
    obs: ObsConfig,
    /// One cell per [`CorpusKind`], so different corpora generate
    /// concurrently and each exactly once.
    corpora: [OnceLock<Arc<Corpus>>; 3],
    measured: Mutex<HashMap<(CorpusKind, UarchKind), Arc<MeasuredCorpus>>>,
    profile_stats: Mutex<Vec<(String, ProfileStats)>>,
    classifier: Mutex<Option<Arc<Classifier>>>,
    ithemal: Mutex<HashMap<UarchKind, Arc<IthemalModel>>>,
}

impl Pipeline {
    /// Creates a pipeline at a given corpus scale and seed;
    /// `threads = 0` means one worker per CPU.
    pub fn new(scale: Scale, seed: u64, threads: usize) -> Pipeline {
        Pipeline {
            scale,
            seed,
            threads,
            retries: 0,
            cache_dir: None,
            obs: ObsConfig::default(),
            corpora: Default::default(),
            measured: Mutex::new(HashMap::new()),
            profile_stats: Mutex::new(Vec::new()),
            classifier: Mutex::new(None),
            ithemal: Mutex::new(HashMap::new()),
        }
    }

    /// Enables the on-disk measurement cache rooted at `dir`: every
    /// corpus measurement this pipeline performs first consults the
    /// cache and persists what it had to measure, so repeated experiment
    /// runs (and reruns after an interruption) are warm. Results are
    /// bit-identical with or without the cache.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Pipeline {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The measurement-cache directory, when caching is enabled.
    pub fn cache_dir(&self) -> Option<&std::path::Path> {
        self.cache_dir.as_deref()
    }

    /// Allows up to `retries` escalating re-attempts per transiently
    /// failed block (see [`bhive_harness::RetryPolicy`]). The budget is
    /// part of the profiling config — and therefore of its fingerprint —
    /// so cached measurements never cross retry budgets. Recovered and
    /// retried counts surface in [`Pipeline::profile_stats`].
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Pipeline {
        self.retries = retries;
        self
    }

    /// The retry budget per transiently failed block.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Enables observability on every corpus measurement: structured
    /// trace events and a metrics registry accumulate per worker and
    /// merge into each measurement's [`ProfileStats::obs`] record (read
    /// them back via [`Pipeline::profile_stats`]). Observation never
    /// perturbs results — measurements are bit-identical either way —
    /// and stays out of the cache fingerprint.
    #[must_use]
    pub fn with_observability(mut self, obs: ObsConfig) -> Pipeline {
        self.obs = obs;
        self
    }

    /// The observability configuration for corpus measurements.
    pub fn observability(&self) -> &ObsConfig {
        &self.obs
    }

    /// The corpus scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Worker thread count (0 = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The paper's full profiling configuration (with realistic OS noise;
    /// noise is deterministic per block and attempt, so every run
    /// reproduces), plus this pipeline's retry budget.
    pub fn profile_config(&self) -> ProfileConfig {
        ProfileConfig::bhive().with_retries(self.retries)
    }

    /// Returns (and caches) a corpus.
    pub fn corpus(&self, kind: CorpusKind) -> Arc<Corpus> {
        let cell = &self.corpora[kind as usize];
        cell.get_or_init(|| {
            Arc::new(match kind {
                CorpusKind::Main => Corpus::generate(self.scale, self.seed),
                CorpusKind::Google => Corpus::google(self.scale, self.seed ^ 0x600_61E),
                CorpusKind::Training => {
                    // The learned model gets a larger (disjoint)
                    // training corpus, as Ithemal trains on millions
                    // of blocks while evaluation uses a sample.
                    Corpus::generate(self.scale.times(3.0), self.seed.wrapping_add(0x7EA1))
                }
            })
        })
        .clone()
    }

    /// Returns (and caches) the measured ground truth for a corpus on a
    /// microarchitecture.
    pub fn measured(&self, kind: CorpusKind, uarch: UarchKind) -> Arc<MeasuredCorpus> {
        self.measure_all(&[(kind, uarch)]);
        self.measured.lock().unwrap()[&(kind, uarch)].clone()
    }

    /// Measures every `(corpus, uarch)` pair of `pairs` not measured yet,
    /// concurrently on this pipeline's threads.
    ///
    /// The corpora generate first, one task each. Then each
    /// microarchitecture's pairs run in list order on one task, because
    /// they share that uarch's cache log and its lock. The results, and
    /// their [`Pipeline::profile_stats`] entries, are recorded in list
    /// order once all are done, so the stats order is the one serial
    /// [`Pipeline::measured`] calls would leave, at any thread count.
    pub(crate) fn measure_all(&self, pairs: &[(CorpusKind, UarchKind)]) {
        let mut todo: Vec<(CorpusKind, UarchKind)> = Vec::new();
        {
            let measured = self.measured.lock().unwrap();
            for &pair in pairs {
                if !measured.contains_key(&pair) && !todo.contains(&pair) {
                    todo.push(pair);
                }
            }
        }
        let (mut kinds, mut uarches) = (Vec::new(), Vec::new());
        for &(kind, uarch) in &todo {
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
            if !uarches.contains(&uarch) {
                uarches.push(uarch);
            }
        }
        self.par_map(&kinds, |&kind| {
            self.corpus(kind);
        });
        let mut done: HashMap<_, _> = self
            .par_map(&uarches, |&uarch| {
                todo.iter()
                    .filter(|&&(_, u)| u == uarch)
                    .map(|&pair| {
                        let measured = MeasuredCorpus::measure_with_stats_supervised(
                            &self.corpus(pair.0),
                            uarch,
                            &self.profile_config(),
                            self.threads,
                            self.cache_dir.as_deref(),
                            &Supervision::with_obs(self.obs.clone()),
                        );
                        (pair, measured)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let mut measured = self.measured.lock().unwrap();
        let mut profile_stats = self.profile_stats.lock().unwrap();
        for (kind, uarch) in todo {
            let (data, stats) = done.remove(&(kind, uarch)).expect("every pair measured");
            profile_stats.push((format!("{kind:?}/{}", uarch.short_name()), stats));
            measured.insert((kind, uarch), Arc::new(data));
        }
    }

    /// Maps `f` over `items` on `min(threads, items.len())` scoped
    /// workers (`threads = 0`: one per CPU), returning the results in
    /// item order. One worker runs inline, so `--threads 1` stays serial.
    pub(crate) fn par_map<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let workers = threads.min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(idx) else {
                                break out;
                            };
                            out.push((idx, f(item)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        results.sort_by_key(|&(idx, _)| idx);
        results.into_iter().map(|(_, r)| r).collect()
    }

    /// Observability: one [`ProfileStats`] per corpus measured so far, in
    /// measurement order, labelled `"<corpus>/<uarch>"`. Cached hits do
    /// not add entries — each corpus/uarch pair is profiled once.
    pub fn profile_stats(&self) -> Vec<(String, ProfileStats)> {
        self.profile_stats.lock().unwrap().clone()
    }

    /// Returns (and caches) the LDA classifier, fitted on the main corpus
    /// with the paper's Haswell port vocabulary.
    pub fn classifier(&self) -> Arc<Classifier> {
        if let Some(hit) = self.classifier.lock().unwrap().as_ref() {
            return hit.clone();
        }
        // The classification is a property of the *full* suite: fit the
        // topics on a corpus with the paper's application proportions
        // (LLVM dominates at 59%), independent of the evaluation sample
        // size. ~11k blocks converge the Gibbs sampler comfortably.
        let train = Corpus::generate(Scale::Fraction(0.03), self.seed);
        let blocks: Vec<_> = train.blocks().iter().map(|b| b.block.clone()).collect();
        let classifier = Arc::new(Classifier::fit(&blocks, UarchKind::Haswell));
        *self.classifier.lock().unwrap() = Some(classifier.clone());
        classifier
    }

    /// Returns (and caches) the Ithemal model trained on the *training*
    /// corpus measured on `uarch` — a disjoint corpus, so evaluation is
    /// honest out-of-sample prediction.
    pub fn ithemal(&self, uarch: UarchKind) -> Arc<IthemalModel> {
        if let Some(hit) = self.ithemal.lock().unwrap().get(&uarch) {
            return hit.clone();
        }
        let data = self.measured(CorpusKind::Training, uarch);
        let model = Arc::new(IthemalModel::train(
            &data.training_pairs(),
            uarch,
            IthemalConfig::default(),
        ));
        self.ithemal.lock().unwrap().insert(uarch, model.clone());
        model
    }

    /// The paper's four models for one microarchitecture, in the paper's
    /// reporting order (IACA, llvm-mca, Ithemal, OSACA).
    pub fn models(&self, uarch: UarchKind) -> Vec<Box<dyn ThroughputModel>> {
        (0..MODEL_COUNT)
            .map(|index| self.model(uarch, index))
            .collect()
    }

    /// Model `index` of [`Pipeline::models`]`(uarch)`, built alone: only
    /// the Ithemal index trains (or fetches) [`Pipeline::ithemal`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the model count, four.
    pub fn model(&self, uarch: UarchKind, index: usize) -> Box<dyn ThroughputModel> {
        match index {
            0 => Box::new(IacaModel::new(uarch)),
            1 => Box::new(McaModel::new(uarch)),
            ITHEMAL_INDEX => Box::new(IthemalArc(self.ithemal(uarch))),
            3 => Box::new(OsacaModel::new(uarch)),
            _ => panic!("model index {index} out of range: there are {MODEL_COUNT} models"),
        }
    }
}

/// How many models [`Pipeline::models`] returns per microarchitecture.
pub(crate) const MODEL_COUNT: usize = 4;
/// Ithemal's index in [`Pipeline::models`], the one model that trains.
pub(crate) const ITHEMAL_INDEX: usize = 2;

/// Adapter so the cached Ithemal model can be boxed alongside the others.
struct IthemalArc(Arc<IthemalModel>);

impl ThroughputModel for IthemalArc {
    fn name(&self) -> &'static str {
        "ithemal"
    }

    fn uarch(&self) -> UarchKind {
        self.0.uarch()
    }

    fn predict(&self, block: &bhive_asm::BasicBlock) -> Option<f64> {
        self.0.predict(block)
    }
}
