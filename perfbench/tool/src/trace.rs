//! The traced run: times calls into each crate's public functions from
//! outside the program, at the unroll factors and trial counts
//! production uses.
//!
//! The core of it replays `Profiler::profile_attempt`'s public sequence
//! stage by stage on one machine (encode, factors, recycle + monitor at
//! the hi factor, timing model, prepare, `simulate_double` at hi and at
//! lo, each followed by the trial filter) and times `profile_attempt`
//! itself on a second machine. The replay check fails the run if the
//! staged outcome differs from `profile_attempt`'s on any block, so the
//! per-stage numbers provably describe the production path.

use bhive::asm::{fnv1a_64, BasicBlock};
use bhive::corpus::{probe_battery, Corpus, Scale};
use bhive::eval::{Classifier, MeasuredCorpus};
use bhive::harness::{
    monitor, profile_corpus_cached, CachedOutcome, Measurement, MeasurementCache, ProfileConfig,
    ProfileFailure, Profiler, RetryPolicy,
};
use bhive::models::{
    IacaModel, IthemalConfig, IthemalModel, McaModel, OsacaModel, ThroughputModel,
};
use bhive::sim::{CodeLayout, DynInst, Machine, TimingModel, TimingResult, CODE_BASE};
use bhive::uarch::{Uarch, UarchKind};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Which blocks the profile replay runs over.
pub enum BlockSet {
    /// The generated corpus, duplicates included.
    Corpus,
    /// The calibration probe battery, under the calibration config.
    Probes,
    /// Hex blocks, one per line.
    File(String),
}

/// Everything the traced run reports: scalar metrics by name, and raw
/// samples the caller reduces to percentiles.
#[derive(Default)]
pub struct Ledger {
    pub metrics: BTreeMap<String, f64>,
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} = {value}");
        self.metrics.insert(name.to_string(), value);
    }

    /// One JSON object: `{"metrics": {...}, "samples": {...}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, vs)| {
                let values: Vec<String> = vs.iter().map(f64::to_string).collect();
                format!("\"{k}\":[{}]", values.join(","))
            })
            .collect();
        format!(
            "{{\"metrics\":{{{}}},\"samples\":{{{}}}}}",
            metrics.join(","),
            samples.join(",")
        )
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`.
fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let started = Instant::now();
        let value = std::hint::black_box(f());
        times.push(started.elapsed());
        last = Some(value);
    }
    times.sort();
    (times[reps / 2], last.expect("reps > 0"))
}

/// Per-stage wall time summed over the replayed blocks.
#[derive(Default)]
struct Stages {
    encode: Duration,
    monitor: Duration,
    timing_model: Duration,
    prepare: Duration,
    simulate_hi: Duration,
    simulate_lo: Duration,
    /// Blocks that reached each stage (a failed block stops early).
    encoded: usize,
    monitored: usize,
    modelled: usize,
    simulated_hi: usize,
    simulated_lo: usize,
    faults: u64,
    simulated_insts: u64,
}

impl Stages {
    fn sum(&self) -> Duration {
        self.encode
            + self.monitor
            + self.timing_model
            + self.prepare
            + self.simulate_hi
            + self.simulate_lo
    }
}

/// The production trial filter (`Profiler::measure` after its
/// `simulate_double`): misalignment and invariant checks, then `trials`
/// noisy observations of which at least `min_clean_identical` clean
/// ones must agree. Returns the modal cycle count.
fn trial_filter(
    machine: &mut Machine,
    config: &ProfileConfig,
    timing: &TimingResult,
    trace: &[DynInst],
    n_insts: usize,
) -> Result<u64, ProfileFailure> {
    let subnormal_events = trace[..n_insts]
        .iter()
        .filter(|d| d.effects.subnormal)
        .count() as u64;
    if config.drop_misaligned && timing.misaligned > 0 {
        return Err(ProfileFailure::Misaligned {
            count: timing.misaligned,
        });
    }
    let mut base = machine.observe(timing);
    base.context_switches = 0;
    base.core_cycles = timing.cycles;
    base.subnormal_events = subnormal_events;
    if config.enforce_invariants && !base.is_clean() {
        return Err(ProfileFailure::DirtyCounters { counters: base });
    }
    let mut clean = 0u32;
    let mut hist: BTreeMap<u64, u32> = BTreeMap::new();
    for _ in 0..config.trials {
        let observed = machine.observe(timing);
        if observed.context_switches == 0 && (!config.enforce_invariants || observed.is_clean()) {
            clean += 1;
            *hist.entry(observed.core_cycles).or_default() += 1;
        }
    }
    // Highest count wins; ties go to the lowest cycle count.
    let mut best = (0u64, 0u32);
    for (&cycles, &count) in &hist {
        if count > best.1 {
            best = (cycles, count);
        }
    }
    if best.1 < config.min_clean_identical {
        return Err(ProfileFailure::Unreproducible {
            clean,
            identical: best.1,
            required: config.min_clean_identical,
        });
    }
    Ok(best.0)
}

fn simulate(
    machine: &mut Machine,
    model: &TimingModel<'_>,
    n_insts: usize,
) -> Result<TimingResult, ProfileFailure> {
    machine
        .simulate_double(model, n_insts)
        .map_err(|e| ProfileFailure::NonConvergent {
            cycle_budget: e.cycle_budget,
            retired: e.retired as u64,
            total_insts: e.total_insts as u64,
        })
}

/// First-attempt profiling of one block, replayed stage by stage
/// through public calls with each stage timed. Returns the throughput
/// as `profile_attempt(block, machine, 0)` would.
fn staged_attempt(
    uarch: &'static Uarch,
    config: &ProfileConfig,
    block: &BasicBlock,
    machine: &mut Machine,
    stages: &mut Stages,
) -> Result<f64, ProfileFailure> {
    if block.is_empty() {
        return Err(ProfileFailure::InvalidBlock {
            message: "empty block".into(),
        });
    }
    block
        .validate()
        .map_err(|message| ProfileFailure::InvalidBlock { message })?;
    if !uarch.supports_avx2 && block.uses_avx2() {
        return Err(ProfileFailure::UnsupportedIsa);
    }
    let started = Instant::now();
    let encoded = block.encode_spanned();
    stages.encode += started.elapsed();
    stages.encoded += 1;
    let (bytes, spans) = encoded.map_err(|e| ProfileFailure::Encoding {
        message: e.to_string(),
    })?;
    let (lo, hi) = config.unroll.factors(bytes.len() as u32);
    if hi == 0 {
        return Err(ProfileFailure::InvalidBlock {
            message: "unroll factor must be positive".into(),
        });
    }
    if hi as usize * block.len() > config.max_dynamic_insts {
        return Err(ProfileFailure::InvalidBlock {
            message: format!(
                "block needs {} dynamic instructions, above the watchdog cap",
                hi as usize * block.len()
            ),
        });
    }

    let started = Instant::now();
    machine.recycle(RetryPolicy::seed_for(fnv1a_64(&bytes), 0), config.noise);
    machine.set_ftz_daz(config.disable_gradual_underflow);
    let mapping = monitor(machine, block.insts(), hi, config);
    stages.monitor += started.elapsed();
    stages.monitored += 1;
    let mapping = mapping?;
    stages.faults += u64::from(mapping.faults);

    let layout = CodeLayout::from_spans(spans, CODE_BASE);
    let started = Instant::now();
    let model = machine.take_timing_model(block.insts());
    stages.timing_model += started.elapsed();
    let started = Instant::now();
    machine.prepare_timing(&model, &mapping.trace, &layout);
    stages.prepare += started.elapsed();
    stages.modelled += 1;

    let result = (|| {
        let n_hi = mapping.trace.len();
        let n_lo = lo as usize * block.len();
        let started = Instant::now();
        let timing = simulate(machine, &model, n_hi);
        stages.simulate_hi += started.elapsed();
        stages.simulated_hi += 1;
        stages.simulated_insts += 2 * n_hi as u64;
        let hi_cycles = trial_filter(machine, config, &timing?, &mapping.trace, n_hi)?;
        if lo == hi {
            return Ok(hi_cycles as f64 / f64::from(hi));
        }
        let started = Instant::now();
        let timing = simulate(machine, &model, n_lo);
        stages.simulate_lo += started.elapsed();
        stages.simulated_lo += 1;
        stages.simulated_insts += 2 * n_lo as u64;
        let lo_cycles = trial_filter(machine, config, &timing?, &mapping.trace, n_lo)?;
        if hi_cycles < lo_cycles {
            return Err(ProfileFailure::NegativeDelta {
                lo_cycles,
                hi_cycles,
                lo_unroll: lo,
                hi_unroll: hi,
            });
        }
        Ok((hi_cycles as f64 - lo_cycles as f64) / f64::from(hi - lo))
    })();
    machine.put_timing_model(model);
    machine.put_trace_buffer(mapping.trace);
    result
}

fn same_outcome(
    staged: &Result<f64, ProfileFailure>,
    real: &Result<Measurement, ProfileFailure>,
) -> bool {
    match (staged, real) {
        (Ok(tp), Ok(m)) => tp.to_bits() == m.throughput.to_bits(),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

fn mean_us(total: Duration, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        us(total) / count as f64
    }
}

/// Options of one traced run.
pub struct TraceOptions<'a> {
    pub seed: u64,
    pub scale: usize,
    pub threads: usize,
    pub blocks: BlockSet,
    pub work: &'a Path,
    pub answers: Option<&'a Path>,
}

/// Runs the ledger; `Err` when the replay check or another internal
/// consistency check fails.
pub fn run(opts: &TraceOptions<'_>) -> Result<Ledger, String> {
    let mut ledger = Ledger::default();
    let hsw = UarchKind::Haswell.desc();

    // ---- corpus ----
    let (took, corpus) = median_time(3, || Corpus::generate(Scale::PerApp(opts.scale), opts.seed));
    ledger.set("corpus.generate_ms", ms(took));
    let (took, battery) = median_time(3, || probe_battery(true, false));
    ledger.set("corpus.probe_battery_ms", ms(took));

    let (blocks, config) = match &opts.blocks {
        BlockSet::Corpus => (corpus.basic_blocks(), ProfileConfig::bhive()),
        BlockSet::Probes => (
            battery.probes.iter().map(|p| p.block.clone()).collect(),
            bhive::learn::calibrate::calib_config(),
        ),
        BlockSet::File(text) => {
            let blocks = text
                .lines()
                .map(|hex| BasicBlock::from_hex(hex).map_err(|e| format!("block {hex}: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            (blocks, ProfileConfig::bhive())
        }
    };
    if blocks.is_empty() {
        return Err("no blocks to replay".into());
    }

    // ---- asm ----
    let hexes: Vec<String> = blocks.iter().filter_map(|b| b.to_hex().ok()).collect();
    let started = Instant::now();
    for hex in &hexes {
        std::hint::black_box(BasicBlock::from_hex(hex).map_err(|e| e.to_string())?);
    }
    ledger.set(
        "asm.from_hex_us",
        us(started.elapsed()) / hexes.len().max(1) as f64,
    );

    // Unique blocks by content, in first-seen order, as the corpus
    // driver deduplicates them; blocks that do not encode have no
    // content key and stay distinct.
    let profiler = Profiler::new(hsw, config.clone());
    let mut seen = HashSet::new();
    let unique: Vec<usize> = (0..blocks.len())
        .filter(|&i| {
            profiler
                .content_key(&blocks[i])
                .is_none_or(|key| seen.insert(key))
        })
        .collect();

    // ---- harness + sim: staged replay against profile_attempt ----
    let mut staged_machine = Machine::new(hsw, 0);
    let mut real_machine = Machine::new(hsw, 0);
    let mut stages = Stages::default();
    let mut attempt_us = Vec::with_capacity(unique.len());
    let mut attempt_total = Duration::ZERO;
    let mut staged_wall = Duration::ZERO;
    let mut dropped: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut outcomes = Vec::with_capacity(unique.len());
    // The two machines take turns going first, so neither side is the
    // one that always finds the block's code and data cold in the host
    // caches.
    for (turn, &index) in unique.iter().enumerate() {
        let block = &blocks[index];
        let mut staged_run = || {
            let started = Instant::now();
            let staged = staged_attempt(hsw, &config, block, &mut staged_machine, &mut stages);
            (staged, started.elapsed())
        };
        let mut real_run = || {
            let started = Instant::now();
            let real = profiler.profile_attempt(block, &mut real_machine, 0);
            (real, started.elapsed())
        };
        let ((staged, staged_took), (real, took)) = if turn % 2 == 0 {
            let staged = staged_run();
            (staged, real_run())
        } else {
            let real = real_run();
            (staged_run(), real)
        };
        staged_wall += staged_took;
        attempt_total += took;
        attempt_us.push(us(took));
        if !same_outcome(&staged, &real) {
            return Err(format!(
                "replay check failed on block {index} ({}): staged {staged:?}, profile_attempt {:?}",
                block.to_hex().unwrap_or_default(),
                real.as_ref().map(|m| m.throughput)
            ));
        }
        if let Err(failure) = &real {
            *dropped.entry(failure.category()).or_default() += 1;
        }
        outcomes.push(real);
    }
    let n = unique.len();
    ledger.set("asm.encode_us", mean_us(stages.encode, stages.encoded));
    ledger
        .samples
        .insert("harness.profile_attempt_us".into(), attempt_us);
    ledger.set(
        "harness.monitor_us",
        mean_us(stages.monitor, stages.monitored),
    );
    ledger.set(
        "harness.faults_per_block",
        stages.faults as f64 / stages.monitored.max(1) as f64,
    );
    ledger.set(
        "harness.other_us",
        (us(attempt_total) - us(stages.sum())) / n as f64,
    );
    ledger.set(
        "harness.stage_coverage",
        stages.sum().as_secs_f64() / attempt_total.as_secs_f64(),
    );
    ledger.set(
        "trace.overhead_share",
        staged_wall.as_secs_f64() / attempt_total.as_secs_f64() - 1.0,
    );
    ledger.set("harness.replayed_blocks", n as f64);
    for category in ProfileFailure::CATEGORIES {
        ledger.set(
            &format!("harness.dropped.{category}"),
            *dropped.get(category).unwrap_or(&0) as f64,
        );
    }
    ledger.set(
        "sim.timing_model_us",
        mean_us(stages.timing_model, stages.modelled),
    );
    ledger.set("sim.prepare_us", mean_us(stages.prepare, stages.modelled));
    ledger.set(
        "sim.simulate_hi_us",
        mean_us(stages.simulate_hi, stages.simulated_hi),
    );
    ledger.set(
        "sim.simulate_lo_us",
        mean_us(stages.simulate_lo, stages.simulated_lo),
    );
    ledger.set("sim.simulated_insts", stages.simulated_insts as f64);
    ledger.set(
        "sim.simulate_ns_per_inst",
        (stages.simulate_hi + stages.simulate_lo).as_nanos() as f64
            / stages.simulated_insts.max(1) as f64,
    );
    let lower = real_machine.lower_stats();
    ledger.set(
        "sim.lower_hit_ratio",
        lower.hits as f64 / (lower.hits + lower.misses).max(1) as f64,
    );

    // ---- harness: cache ----
    let cache_dir = opts.work.join("trace-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    std::fs::create_dir_all(&cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
    let io = |e: std::io::Error| format!("cache: {e}");
    let mut keys = Vec::with_capacity(n);
    {
        let mut cache =
            MeasurementCache::open(&cache_dir, UarchKind::Haswell, &config).map_err(io)?;
        let mut insert = Duration::ZERO;
        for (&index, outcome) in unique.iter().zip(&outcomes) {
            let Some(key) = profiler.content_key(&blocks[index]) else {
                continue;
            };
            let record = CachedOutcome::from(outcome.clone());
            if record.is_transient_failure() {
                continue;
            }
            let started = Instant::now();
            cache.insert(key, record).map_err(io)?;
            insert += started.elapsed();
            keys.push(key);
        }
        ledger.set("harness.cache_insert_us", mean_us(insert, keys.len()));
    }
    let started = Instant::now();
    let mut cache = MeasurementCache::open(&cache_dir, UarchKind::Haswell, &config).map_err(io)?;
    ledger.set("harness.cache_open_ms", ms(started.elapsed()));
    let started = Instant::now();
    let mut found = 0usize;
    for key in &keys {
        found += usize::from(std::hint::black_box(cache.get(*key)).is_some());
    }
    ledger.set(
        "harness.cache_get_ns",
        started.elapsed().as_nanos() as f64 / keys.len().max(1) as f64,
    );
    if found != keys.len() {
        return Err(format!(
            "cache lost records: {found} of {} found",
            keys.len()
        ));
    }
    let warm = profile_corpus_cached(&profiler, &blocks, opts.threads, Some(&mut cache));
    let cache_stats = warm.stats.cache.ok_or("warm run kept no cache stats")?;
    ledger.set("harness.cache_hit_ratio", cache_stats.hit_rate());
    for (&index, outcome) in unique.iter().zip(&outcomes) {
        let equal = match (&warm.results[index], outcome) {
            (Ok(a), Ok(b)) => a.throughput.to_bits() == b.throughput.to_bits(),
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !equal {
            return Err(format!("warm cache answer differs on block {index}"));
        }
    }
    drop(cache);
    let _ = std::fs::remove_dir_all(&cache_dir);

    // ---- eval + harness: the corpus path `bhive measure` takes ----
    let (measured, stats) = MeasuredCorpus::measure_with_stats(
        &corpus,
        UarchKind::Haswell,
        &ProfileConfig::bhive(),
        opts.threads,
    );
    ledger.set(
        "harness.dedup_ratio",
        stats.cache_hits as f64 / stats.total_blocks.max(1) as f64,
    );
    let utilization = stats.worker_utilization();
    ledger.set(
        "harness.worker_utilization",
        utilization.iter().sum::<f64>() / utilization.len().max(1) as f64,
    );
    let (took, csv) = median_time(3, || {
        let mut out = Vec::new();
        measured.write_csv(&mut out).map(|()| out)
    });
    csv.map_err(|e| format!("csv: {e}"))?;
    ledger.set("eval.csv_write_ms", ms(took));

    // ---- learn ----
    let lda_corpus = Corpus::generate(Scale::Fraction(0.03), opts.seed);
    let lda_blocks = lda_corpus.basic_blocks();
    let started = Instant::now();
    let classifier = Classifier::fit(&lda_blocks, UarchKind::Haswell);
    ledger.set("learn.lda_fit_ms", ms(started.elapsed()));
    let pairs = measured.training_pairs();
    if pairs.is_empty() {
        return Err("no measured blocks to train on".into());
    }
    let started = Instant::now();
    let ithemal = IthemalModel::train(&pairs, UarchKind::Haswell, IthemalConfig::default());
    ledger.set("learn.ithemal_train_ms", ms(started.elapsed()));
    let mut calibrate_time = Duration::ZERO;
    let mut simulations = 0u64;
    for kind in UarchKind::ALL {
        let calib = bhive::learn::CalibrationOptions {
            threads: opts.threads,
            cache_dir: None,
            quick: false,
            obs: Default::default(),
            stop: None,
        };
        let started = Instant::now();
        let outcome = bhive::learn::calibrate(bhive::uarch::builtin(kind), &calib)
            .map_err(|e| format!("calibrate {}: {e}", kind.short_name()))?;
        calibrate_time += started.elapsed();
        simulations += outcome.report.simulations as u64;
    }
    ledger.set("learn.calibrate_ms", ms(calibrate_time));
    ledger.set("learn.calibrate_simulations", simulations as f64);
    ledger.set(
        "learn.calibrate_ns_per_simulation",
        calibrate_time.as_nanos() as f64 / simulations.max(1) as f64,
    );

    // ---- models + eval: predict and classify every unique block ----
    let models: Vec<Box<dyn ThroughputModel>> = vec![
        Box::new(IacaModel::new(UarchKind::Haswell)),
        Box::new(McaModel::new(UarchKind::Haswell)),
        Box::new(OsacaModel::new(UarchKind::Haswell)),
        Box::new(ithemal),
    ];
    for model in &models {
        let started = Instant::now();
        for &index in &unique {
            std::hint::black_box(model.predict(&blocks[index]));
        }
        ledger.set(
            &format!("models.{}_us", model.name()),
            us(started.elapsed()) / n as f64,
        );
    }
    let started = Instant::now();
    for &index in &unique {
        std::hint::black_box(classifier.classify(&blocks[index]));
    }
    ledger.set("eval.classify_us", us(started.elapsed()) / n as f64);

    Ok(ledger)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hexes(seed: u64) -> Vec<String> {
        Corpus::generate(Scale::PerApp(3), seed)
            .basic_blocks()
            .iter()
            .map(|b| b.to_hex().expect("corpus blocks encode"))
            .collect()
    }

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        assert_eq!(hexes(7), hexes(7));
        assert_ne!(hexes(7), hexes(8));
    }

    #[test]
    fn staged_replay_matches_profile_attempt() {
        let hsw = UarchKind::Haswell.desc();
        let mut blocks = Corpus::generate(Scale::PerApp(3), 1).basic_blocks();
        blocks.extend(
            probe_battery(true, true)
                .probes
                .into_iter()
                .map(|p| p.block),
        );
        for config in [
            ProfileConfig::bhive(),
            bhive::learn::calibrate::calib_config(),
        ] {
            let profiler = Profiler::new(hsw, config.clone());
            let mut staged_machine = Machine::new(hsw, 0);
            let mut real_machine = Machine::new(hsw, 0);
            let mut stages = Stages::default();
            for block in &blocks {
                let staged = staged_attempt(hsw, &config, block, &mut staged_machine, &mut stages);
                let real = profiler.profile_attempt(block, &mut real_machine, 0);
                assert!(same_outcome(&staged, &real), "{staged:?} vs {real:?}");
            }
            assert!(stages.simulated_hi > 0 && stages.sum() > Duration::ZERO);
        }
    }
}
