//! End-to-end table calibration: recover per-entry latencies and port
//! assignments of a target machine from throughput measurements alone.
//!
//! The loop closes the validation story of the paper: instead of
//! trusting the shipped decomposition tables, we *measure* the machine
//! with the targeted probe battery of [`bhive_corpus::probe`], fit
//! candidate tables, and report any drift against what ships in
//! `bhive-uarch`.
//!
//! # Method
//!
//! 1. **Measure** every probe on the target through the supervised,
//!    cacheable profiling harness ([`profile_corpus_supervised`]) —
//!    the same pipeline (and the same determinism and kill/resume
//!    guarantees) as a full corpus run.
//! 2. **Fit latencies**: for each chainable entry, ordinary least
//!    squares ([`crate::fit::fit_ols`]) over (chain length →
//!    cycles/iteration) gives a slope estimate; nearby integer
//!    candidates are then *verified* by simulating the chains under a
//!    candidate table and demanding bit-exact agreement with the
//!    measurement. Simulation is a pure function of (block, tables,
//!    config), so the true latency always verifies.
//! 3. **Fit ports by candidate elimination**: per entry, every mask in
//!    [`port_vocabulary`] is simulated against the entry's
//!    self-contained probes; masks that disagree with any measurement
//!    are eliminated. Entries without self-contained probes (`setcc`
//!    needs an `alu` flag producer) and masks that tie in isolation
//!    are then narrowed by arc-consistency over the mix kernels:
//!    assignments must explain every multi-entry probe jointly.
//! 4. **Report**: the surviving equivalence class per entry, a
//!    canonical pick (the shipped mask when it survives, else the
//!    smallest), and a drift verdict. Two tables that agree on every
//!    probe are observationally equivalent — by construction the
//!    shipped table is never reported as drifted unless a probe
//!    actually distinguishes it from the measurement.
//!
//! The whole pass is deterministic: probes are a pure function of the
//! target, measurement is bit-identical at any thread count and across
//! kill/resume (cached), candidate enumeration follows fixed orders,
//! and comparisons are on `f64::to_bits`. The emitted
//! [`CalibrationReport`] JSON is therefore byte-identical across runs.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use bhive_asm::{BasicBlock, Inst};
use bhive_corpus::probe::{probe_battery, Probe, ProbeBattery, ProbeKind, PROBE_ENTRIES};
use bhive_harness::{
    profile_corpus_supervised, Machine, MeasurementCache, ObsConfig, ProfileConfig, ProfileStats,
    Profiler, RunObs, Supervision, TraceEvent, UnrollStrategy,
};
use bhive_uarch::{decompose, entry_key, port_vocabulary, PortSet, TableOverrides, Uarch, UopKind};

use crate::fit::fit_ols;

/// Schema tag of [`CalibrationReport::to_json`].
pub const CALIBRATION_REPORT_SCHEMA: &str = "bhive-calibration-report/v1";

/// Latency candidates swept around the OLS slope estimate.
const LATENCY_SLACK: u32 = 2;
/// Upper bound on fitted latencies (sanity clamp for the sweep).
const MAX_LATENCY: u32 = 64;

/// Knobs for one calibration run.
#[derive(Debug, Default)]
pub struct CalibrationOptions {
    /// Worker threads for the measurement phase (0 = one per CPU).
    /// The result is bit-identical at any value.
    pub threads: usize,
    /// On-disk measurement cache directory; `None` measures uncached.
    /// A killed run resumes from here without repeating work.
    pub cache_dir: Option<PathBuf>,
    /// Use the reduced smoke-test battery.
    pub quick: bool,
    /// Observability: trace events and `calib.*` counters.
    pub obs: ObsConfig,
    /// Cooperative stop flag (kill/resume tests); a triggered stop
    /// surfaces as [`CalibrationError::Interrupted`].
    pub stop: Option<Arc<AtomicBool>>,
}

/// Why calibration failed.
#[derive(Debug)]
pub enum CalibrationError {
    /// Opening the measurement cache failed.
    Cache(std::io::Error),
    /// The measurement phase was interrupted (stop flag or signal);
    /// re-running with the same cache directory resumes.
    Interrupted,
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationError::Cache(err) => write!(f, "measurement cache: {err}"),
            CalibrationError::Interrupted => {
                f.write_str("calibration interrupted; re-run with the same cache to resume")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

/// What calibration recovered for one table entry.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct EntryReport {
    /// Latency in the shipped tables.
    pub shipped_latency: u32,
    /// Port mask in the shipped tables.
    pub shipped_ports: u8,
    /// Recovered latency (equals `shipped_latency` for non-chainable
    /// entries, which inherit it).
    pub fitted_latency: u32,
    /// True when `fitted_latency` was verified by bit-exact chain
    /// simulation (false for inherited latencies).
    pub latency_verified: bool,
    /// Canonical recovered port mask: the shipped mask when it is in
    /// the equivalence class, else the smallest surviving mask.
    pub canonical_ports: u8,
    /// All port masks observationally equivalent on the probe set,
    /// ascending.
    pub port_class: Vec<u8>,
    /// True when the shipped entry is distinguishable from the
    /// measurement: latency differs, or the shipped mask was
    /// eliminated.
    pub drift: bool,
}

/// Deterministic diff-report of recovered tables against shipped ones.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct CalibrationReport {
    /// Always [`CALIBRATION_REPORT_SCHEMA`].
    pub schema: String,
    /// Target microarchitecture name.
    pub uarch: String,
    /// Whether the reduced battery was used.
    pub quick: bool,
    /// Probes generated.
    pub probe_count: usize,
    /// Probes successfully measured.
    pub measured_probes: usize,
    /// Probes that failed to measure (excluded from evidence).
    pub failed_probes: usize,
    /// Candidate evaluations the fit asked for, (probe, table) pairs
    /// answered from the memo included.
    pub simulations: u64,
    /// Entries whose `drift` flag is set.
    pub drift_count: usize,
    /// Per-entry results, keyed by table entry key.
    pub entries: BTreeMap<String, EntryReport>,
}

impl CalibrationReport {
    /// Whether any entry drifted from the shipped tables.
    pub fn has_drift(&self) -> bool {
        self.drift_count > 0
    }

    /// Pretty-printed JSON (byte-identical across runs, thread counts,
    /// and kill/resume).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("calibration report serializes")
    }
}

/// Everything a calibration run produces.
#[derive(Debug)]
pub struct CalibrationOutcome {
    /// The diff-report against shipped tables.
    pub report: CalibrationReport,
    /// The fitted table (canonical pick per entry), loadable via
    /// [`bhive_uarch::FittedTables`].
    pub overrides: TableOverrides,
    /// Measurement-phase statistics (cache, workers, retries).
    pub stats: ProfileStats,
    /// Merged observability record, when [`CalibrationOptions::obs`]
    /// was enabled: the measurement run's events plus `calib.*` events
    /// and counters, re-sorted into canonical order.
    pub obs: Option<RunObs>,
}

/// The profiling configuration calibration measures (and simulates)
/// under: the paper's full pipeline with quiet noise, few trials, and
/// small unroll factors — probes are tiny serialized kernels, so the
/// heavyweight corpus settings would only slow the battery down. Its
/// fingerprint differs from every corpus preset, so cached calibration
/// measurements live in their own namespace.
pub fn calib_config() -> ProfileConfig {
    let mut config = ProfileConfig::bhive().quiet();
    config.trials = 2;
    config.min_clean_identical = 2;
    config.unroll = UnrollStrategy::TwoFactor {
        lo: 8,
        hi: 16,
        i_cache_budget: 16 * 1024,
    };
    config
}

/// Measured or simulated cycles-per-iteration, compared bit-exactly.
type Tput = u64;

/// Candidate-table simulator for the fit. Each distinct override set
/// is materialized (and leaked) once per process, keyed by its
/// fingerprint, and each distinct (probe, override set) pair is
/// simulated once: a repeat query is answered from `answers`. Every
/// simulation runs on the one `machine`, which the profiler retargets
/// to the candidate's tables, so candidates reuse its allocations and
/// each probe's lowering. The fit is single-threaded.
struct CandidateSim<'a> {
    base: Uarch,
    config: ProfileConfig,
    probes: &'a [Probe],
    tables: HashMap<u64, &'static Uarch>,
    answers: HashMap<(usize, u64), Option<Tput>>,
    machine: Machine,
    queries: u64,
}

impl<'a> CandidateSim<'a> {
    fn new(target: &'static Uarch, config: ProfileConfig, probes: &'a [Probe]) -> CandidateSim<'a> {
        CandidateSim {
            // Candidates are built on the *base* machine: the target's
            // own overrides (synthetic tables in the round-trip tests)
            // must not leak into what we claim to have recovered.
            base: target.base(),
            config,
            probes,
            tables: HashMap::new(),
            answers: HashMap::new(),
            machine: Machine::new(target, 0),
            queries: 0,
        }
    }

    /// Simulated throughput of probe `probe` under a candidate table, or
    /// `None` if the candidate machine rejects the block. Simulation is
    /// a pure function of (block, tables, config), so a stored answer is
    /// the one a new simulation would give.
    fn throughput(&mut self, probe: usize, overrides: &TableOverrides) -> Option<Tput> {
        self.queries += 1;
        let fp = overrides.fingerprint();
        if let Some(&answer) = self.answers.get(&(probe, fp)) {
            return answer;
        }
        let base = &self.base;
        let uarch = *self
            .tables
            .entry(fp)
            .or_insert_with(|| base.with_overrides(overrides.clone()).leak());
        let answer = Profiler::new(uarch, self.config.clone())
            .profile_on(&self.probes[probe].block, &mut self.machine)
            .ok()
            .map(|m| m.throughput.to_bits());
        self.answers.insert((probe, fp), answer);
        answer
    }

    /// Queries answered so far, memo hits included: the fit's work in
    /// candidate evaluations, independent of how many were simulated.
    fn sim_count(&self) -> u64 {
        self.queries
    }
}

/// One entry's working state during the fit.
struct EntryState {
    key: &'static str,
    chainable: bool,
    shipped_latency: u32,
    shipped_ports: u8,
    fitted_latency: u32,
    latency_verified: bool,
    /// Surviving port masks, ascending; shrinks monotonically.
    class: Vec<u8>,
}

/// Calibrates `target` and diffs the recovered tables against the
/// shipped ones.
///
/// `target` must be `'static` because candidate simulation reuses the
/// harness profiler, which borrows its machine description for the
/// process lifetime; pass a built-in via [`bhive_uarch::builtin`] or a
/// synthetic table via [`Uarch::leak`].
pub fn calibrate(
    target: &'static Uarch,
    opts: &CalibrationOptions,
) -> Result<CalibrationOutcome, CalibrationError> {
    let config = calib_config();
    let battery = probe_battery(target.supports_avx2, opts.quick);
    let blocks: Vec<BasicBlock> = battery.probes.iter().map(|p| p.block.clone()).collect();

    // ---- Phase 1: measure every probe on the target. ----
    let profiler = Profiler::new(target, config.clone());
    let mut cache_storage = match &opts.cache_dir {
        Some(dir) => Some(
            MeasurementCache::open_for(dir, target, &config).map_err(CalibrationError::Cache)?,
        ),
        None => None,
    };
    let supervision = Supervision {
        obs: opts.obs.clone(),
        stop: opts.stop.clone(),
        ..Supervision::default()
    };
    let corpus = profile_corpus_supervised(
        &profiler,
        &blocks,
        opts.threads,
        cache_storage.as_mut(),
        &supervision,
    );
    if corpus.stats.interrupted {
        return Err(CalibrationError::Interrupted);
    }
    let measured: Vec<Option<Tput>> = corpus
        .results
        .iter()
        .map(|r| r.as_ref().ok().map(|m| m.throughput.to_bits()))
        .collect();
    let measured_probes = measured.iter().flatten().count();
    let failed_probes = measured.len() - measured_probes;

    // ---- Phase 2 & 3: fit candidate tables. ----
    let mut sim = CandidateSim::new(target, config, &battery.probes);
    let vocabulary: Vec<u8> = {
        let mut v: Vec<u8> = port_vocabulary(&sim.base)
            .iter()
            .map(|p| p.mask())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };

    let mut states: Vec<EntryState> = PROBE_ENTRIES
        .iter()
        .filter(|e| target.supports_avx2 || !e.needs_avx2)
        .map(|e| {
            let (shipped_latency, shipped_ports) = shipped_row(&sim.base, &battery, e.key);
            EntryState {
                key: e.key,
                chainable: e.chainable,
                shipped_latency,
                shipped_ports,
                fitted_latency: shipped_latency,
                latency_verified: false,
                class: vocabulary.clone(),
            }
        })
        .collect();

    for state in &mut states {
        fit_latency(state, &battery, &measured, &mut sim);
    }
    for state in &mut states {
        filter_solo(state, &battery, &measured, &mut sim);
    }
    arc_consistency(&mut states, &battery, &measured, &mut sim);

    // ---- Phase 4: report, fitted table, observability. ----
    let mut entries = BTreeMap::new();
    let mut overrides = TableOverrides::new();
    let mut drift_count = 0;
    for state in &states {
        let canonical = if state.class.contains(&state.shipped_ports) {
            state.shipped_ports
        } else {
            state.class.first().copied().unwrap_or(state.shipped_ports)
        };
        let drift = state.fitted_latency != state.shipped_latency
            || !state.class.contains(&state.shipped_ports);
        drift_count += drift as usize;
        overrides.set(
            state.key,
            state.fitted_latency,
            PortSet::from_mask(canonical),
        );
        entries.insert(
            state.key.to_string(),
            EntryReport {
                shipped_latency: state.shipped_latency,
                shipped_ports: state.shipped_ports,
                fitted_latency: state.fitted_latency,
                latency_verified: state.latency_verified,
                canonical_ports: canonical,
                port_class: state.class.clone(),
                drift,
            },
        );
    }

    let report = CalibrationReport {
        schema: CALIBRATION_REPORT_SCHEMA.to_string(),
        uarch: target.kind.name().to_string(),
        quick: opts.quick,
        probe_count: battery.len(),
        measured_probes,
        failed_probes,
        simulations: sim.sim_count(),
        drift_count,
        entries,
    };

    let obs = corpus.stats.obs.clone().map(|mut obs| {
        for (ordinal, (key, entry)) in report.entries.iter().enumerate() {
            obs.events.push(TraceEvent::CalibLatency {
                entry: ordinal,
                key: key.clone(),
                latency: entry.fitted_latency,
                fitted: entry.latency_verified,
            });
            obs.events.push(TraceEvent::CalibPorts {
                entry: ordinal,
                key: key.clone(),
                canonical_mask: entry.canonical_ports,
                survivors: entry.port_class.len(),
            });
            if entry.drift {
                obs.events.push(TraceEvent::CalibDrift {
                    entry: ordinal,
                    key: key.clone(),
                });
            }
        }
        obs.events.sort_by_key(TraceEvent::sort_key);
        obs.metrics.add("calib.probes", report.probe_count as u64);
        obs.metrics
            .add("calib.measured_probes", report.measured_probes as u64);
        obs.metrics
            .add("calib.failed_probes", report.failed_probes as u64);
        obs.metrics.add("calib.simulations", report.simulations);
        obs.metrics
            .add("calib.entries", report.entries.len() as u64);
        obs.metrics.add("calib.drift", report.drift_count as u64);
        obs
    });

    Ok(CalibrationOutcome {
        report,
        overrides,
        stats: corpus.stats,
        obs,
    })
}

/// The shipped (base-table) latency and port mask of the single
/// compute uop behind `key`, read off a representative probe
/// instruction.
fn shipped_row(base: &Uarch, battery: &ProbeBattery, key: &str) -> (u32, u8) {
    let inst = representative(battery, key)
        .unwrap_or_else(|| panic!("no probe instruction resolves to entry {key:?}"));
    let recipe = decompose(&inst, base);
    let mut computes = recipe.uops.iter().filter(|u| u.kind == UopKind::Compute);
    match (computes.next(), computes.next()) {
        (Some(uop), None) => (uop.latency, uop.ports.mask()),
        _ => panic!("entry {key:?} does not decompose to a single compute uop"),
    }
}

/// First instruction in battery order that resolves to `key`.
fn representative(battery: &ProbeBattery, key: &str) -> Option<Inst> {
    battery
        .probes
        .iter()
        .flat_map(|p| p.block.insts())
        .find(|inst| entry_key(inst) == Some(key))
        .cloned()
}

/// Overrides that pin exactly the given assignments.
fn assignments(pins: &[(&str, u32, u8)]) -> TableOverrides {
    let mut overrides = TableOverrides::new();
    for &(key, latency, mask) in pins {
        overrides.set(key, latency, PortSet::from_mask(mask));
    }
    overrides
}

/// Latency fit: OLS slope over the entry's chains, then bit-exact
/// verification of nearby integer candidates. Port assignment cannot
/// affect a fully serialized chain, so the shipped mask is used as a
/// placeholder while sweeping.
fn fit_latency(
    state: &mut EntryState,
    battery: &ProbeBattery,
    measured: &[Option<Tput>],
    sim: &mut CandidateSim<'_>,
) {
    if !state.chainable {
        return;
    }
    let chains: Vec<(usize, usize, Tput)> = battery
        .probes
        .iter()
        .enumerate()
        .filter_map(|(idx, p)| match p.kind {
            ProbeKind::Latency { key, len } if key == state.key => {
                measured[idx].map(|t| (len, idx, t))
            }
            _ => None,
        })
        .collect();
    if chains.len() < 2 {
        return;
    }
    let xs: Vec<Vec<f64>> = chains.iter().map(|(len, _, _)| vec![*len as f64]).collect();
    let ys: Vec<f64> = chains.iter().map(|(_, _, t)| f64::from_bits(*t)).collect();
    let center = match fit_ols(&xs, &ys) {
        Ok(fit) => fit.coefficients[0].round().clamp(1.0, MAX_LATENCY as f64) as u32,
        Err(_) => state.shipped_latency,
    };
    let lo = center.saturating_sub(LATENCY_SLACK).max(1);
    let hi = (center + LATENCY_SLACK).min(MAX_LATENCY);
    let mut candidates: Vec<u32> = (lo..=hi).collect();
    if !candidates.contains(&state.shipped_latency) {
        candidates.push(state.shipped_latency);
    }
    // Nearest-to-slope first, so the first verified candidate wins.
    candidates.sort_by_key(|&l| (l.abs_diff(center), l));
    for latency in candidates {
        let pins = assignments(&[(state.key, latency, state.shipped_ports)]);
        let verified = chains
            .iter()
            .all(|&(_, probe, t)| sim.throughput(probe, &pins) == Some(t));
        if verified {
            state.fitted_latency = latency;
            state.latency_verified = true;
            return;
        }
    }
}

/// Eliminates port masks that contradict the entry's self-contained
/// probes (kernels and chains containing only this entry).
fn filter_solo(
    state: &mut EntryState,
    battery: &ProbeBattery,
    measured: &[Option<Tput>],
    sim: &mut CandidateSim<'_>,
) {
    let evidence: Vec<(usize, Tput)> = battery
        .probes
        .iter()
        .enumerate()
        .filter(|(_, p)| p.keys.len() == 1 && p.keys[0] == state.key)
        .filter_map(|(idx, _)| measured[idx].map(|t| (idx, t)))
        .collect();
    if evidence.is_empty() {
        return;
    }
    let key = state.key;
    let latency = state.fitted_latency;
    state.class.retain(|&mask| {
        let pins = assignments(&[(key, latency, mask)]);
        evidence
            .iter()
            .all(|&(probe, t)| sim.throughput(probe, &pins) == Some(t))
    });
    if state.class.is_empty() {
        // No candidate explains the measurements (a probe failure or a
        // non-table effect); fall back to the shipped mask rather than
        // fabricating one.
        state.class = vec![state.shipped_ports];
    }
}

/// Joint narrowing over multi-entry probes: iterate until no class
/// shrinks. A probe is usable once at most two of its entries remain
/// ambiguous; resolved entries are pinned at their unique survivor.
fn arc_consistency(
    states: &mut [EntryState],
    battery: &ProbeBattery,
    measured: &[Option<Tput>],
    sim: &mut CandidateSim<'_>,
) {
    let index_of = |states: &[EntryState], key: &str| states.iter().position(|s| s.key == key);
    loop {
        let mut changed = false;
        for (idx, probe) in battery.probes.iter().enumerate() {
            let Some(t) = measured[idx] else { continue };
            if probe.keys.len() < 2 {
                continue;
            }
            let ids: Vec<usize> = probe
                .keys
                .iter()
                .filter_map(|k| index_of(states, k))
                .collect();
            if ids.len() != probe.keys.len() {
                continue;
            }
            let ambiguous: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&i| states[i].class.len() > 1)
                .collect();
            let pinned: Vec<(&str, u32, u8)> = ids
                .iter()
                .copied()
                .filter(|i| !ambiguous.contains(i))
                .map(|i| (states[i].key, states[i].fitted_latency, states[i].class[0]))
                .collect();
            match ambiguous.as_slice() {
                [] => {}
                &[a] => {
                    let key = states[a].key;
                    let latency = states[a].fitted_latency;
                    let before = states[a].class.len();
                    let survivors: Vec<u8> = states[a]
                        .class
                        .iter()
                        .copied()
                        .filter(|&mask| {
                            let mut pins = pinned.clone();
                            pins.push((key, latency, mask));
                            sim.throughput(idx, &assignments(&pins)) == Some(t)
                        })
                        .collect();
                    if !survivors.is_empty() && survivors.len() < before {
                        states[a].class = survivors;
                        changed = true;
                    }
                }
                &[a, b] => {
                    let (ka, la) = (states[a].key, states[a].fitted_latency);
                    let (kb, lb) = (states[b].key, states[b].fitted_latency);
                    let mut keep_a = Vec::new();
                    let mut keep_b = Vec::new();
                    for &ma in &states[a].class {
                        for &mb in &states[b].class {
                            let mut pins = pinned.clone();
                            pins.push((ka, la, ma));
                            pins.push((kb, lb, mb));
                            if sim.throughput(idx, &assignments(&pins)) == Some(t) {
                                if !keep_a.contains(&ma) {
                                    keep_a.push(ma);
                                }
                                if !keep_b.contains(&mb) {
                                    keep_b.push(mb);
                                }
                            }
                        }
                    }
                    keep_a.sort_unstable();
                    keep_b.sort_unstable();
                    if !keep_a.is_empty() && keep_a.len() < states[a].class.len() {
                        states[a].class = keep_a;
                        changed = true;
                    }
                    if !keep_b.is_empty() && keep_b.len() < states[b].class.len() {
                        states[b].class = keep_b;
                        changed = true;
                    }
                }
                _ => {} // Wait for other probes to resolve more entries.
            }
        }
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn candidate_sim_answers_repeats_like_a_fresh_profile() {
        let target = Uarch::ivy_bridge();
        let battery = probe_battery(target.supports_avx2, true);
        let first = |keys: &[&str]| {
            battery
                .probes
                .iter()
                .position(|p| p.keys == keys)
                .unwrap_or_else(|| panic!("no quick ivb probe with keys {keys:?}"))
        };
        let probes = [first(&["alu"]), first(&["mul"]), first(&["alu", "setcc"])];
        let alu = shipped_row(&target.base(), &battery, "alu");
        let mul = shipped_row(&target.base(), &battery, "mul");
        let tables = [
            TableOverrides::new(),
            assignments(&[("alu", alu.0 + 2, alu.1)]),
            assignments(&[("mul", mul.0 + 3, mul.1)]),
            assignments(&[("alu", alu.0, 0b1), ("mul", mul.0, mul.1)]),
        ];
        let distinct: Vec<(usize, usize)> = probes
            .iter()
            .flat_map(|&p| (0..tables.len()).map(move |t| (p, t)))
            .collect();
        let mut queries: Vec<(usize, usize)> = distinct.iter().chain(&distinct).copied().collect();
        queries.shuffle(&mut SmallRng::seed_from_u64(27));

        let mut sim = CandidateSim::new(target, calib_config(), &battery.probes);
        let mut answers = std::collections::BTreeSet::new();
        for (count, &(probe, table)) in queries.iter().enumerate() {
            let answer = sim.throughput(probe, &tables[table]);
            let fresh = Profiler::new(
                target.base().with_overrides(tables[table].clone()).leak(),
                calib_config(),
            )
            .profile(&battery.probes[probe].block)
            .ok()
            .map(|m| m.throughput.to_bits());
            assert_eq!(answer, fresh, "probe {probe} under table {table}");
            assert_eq!(sim.sim_count(), count as u64 + 1, "every query counts");
            answers.insert((probe, answer));
        }
        assert_eq!(sim.answers.len(), distinct.len(), "one simulation per pair");
        assert!(
            answers.len() > probes.len(),
            "the candidate tables must change some probe's answer"
        );
    }
}
