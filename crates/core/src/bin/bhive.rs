//! The `bhive` command-line tool: one subcommand per paper experiment,
//! plus block-level profiling/prediction utilities.

use bhive::corpus::{Corpus, Family, FamilyCounts, Scale};
use bhive::eval::{experiments, CorpusKind, Pipeline, Report};
use bhive::harness::{ObsConfig, ProfileConfig, ProfileStats, Profiler, TraceLog};
use bhive::uarch::UarchKind;
use std::io::{BufWriter, Read, Write};
use std::process::ExitCode;

const USAGE: &str = "\
bhive — BHive-rs experiment driver

USAGE:
    bhive <command> [options]

EXPERIMENTS (one per paper table/figure):
    table1            Ablation: % of suite profiled per technique
    table2            CNN-block measurement-optimization ablation
    table3            Suite census per application
    table4            LDA block categories
    table5            Overall model error per microarchitecture
    table6            Spanner/Dremel accuracy (avg/weighted/tau)
    fig1              Print the motivating updcrc block
    fig3              Example block per category
    fig4              Per-application category breakdown
    fig-app-err       Per-application model error (--uarch ivb|hsw|skl)
    fig-cluster-err   Per-category model error (--uarch ivb|hsw|skl)
    fig-schedule      IACA vs llvm-mca schedules for updcrc
    fig-google        Spanner/Dremel category composition
    case-study        The three interesting blocks
    filter-census     Subnormal / misalignment filter counts
    all               Run every experiment in paper order

UTILITIES:
    profile           Profile a block (asm text on stdin) on --uarch
    predict           Run all models on a block (asm text on stdin)
    corpus            Dump the generated corpus as CSV to stdout
    classify          Classify a block (asm text on stdin) into its category
    measure           Dump the measured dataset CSV (app,hex,weight,tp)
    exegesis          Measure per-opcode latency/rTP tables on --uarch
    serve             Run the throughput-prediction daemon on --listen:
                      answers warm hits from the measurement cache and
                      schedules misses onto the profiling worker pool
                      (line-delimited JSON, protocol bhive-serve/v1);
                      SIGTERM/SIGINT drains in-flight work and exits
    calibrate         Measure the targeted probe battery on --uarch,
                      fit candidate latency/port tables, and write a
                      deterministic diff-report against the shipped
                      tables (byte-identical at any --threads count
                      and across kill/resume of a --cache'd run)

OPTIONS:
    --scale N         Blocks per application (default 150)
    --fraction F      Fraction of paper-scale counts instead of --scale
    --paper-scale     Full paper-scale corpus (358k+ blocks; slow)
    --scale-family F=N  Blocks per application for every application in
                      generator family F (general|bitops|numeric|media|
                      google); repeatable, unlisted families stay at the
                      150 default. Unlike --paper-scale this is uncapped,
                      so six-figure corpora are one flag away
    --corpus C        Which corpus `measure` profiles: main | google |
                      training (default main)
    --seed S          Corpus/noise seed (default 42)
    --threads T       Worker threads (default: all cores)
    --retries N       Retry transiently failed blocks up to N times with
                      escalating trial counts (default 0; deterministic)
    --uarch U         ivb | hsw | skl (default hsw)
    --tables FILE     measure/serve/profile/predict: load fitted tables
                      (bhive-tables/v1 JSON from `calibrate --out`) and
                      run with them instead of the shipped tables; the
                      file's uarch must match --uarch
    --json            Emit reports as JSON
    --cache DIR       Persist measurements under DIR and resume from them
                      (also via the BHIVE_CACHE environment variable)
    --no-cache        Disable the measurement cache, overriding --cache
                      and BHIVE_CACHE
    --trace FILE      Append a structured event trace (checksummed JSONL)
                      for every corpus measurement to FILE and write a
                      deterministic run_report.json next to it; the
                      deterministic section is bit-identical at any
                      --threads count, and measurements are unchanged
    --metrics         Print the merged metrics registry (counters,
                      gauges, histogram quantiles) to stderr after the
                      command; implies observability even without --trace
    -h, --help        Print this usage summary and exit

CALIBRATE OPTIONS (calibrate command only; --uarch/--threads/--cache/
--no-cache/--trace/--metrics are honored too):
    --quick           Use the reduced probe battery (smoke tests)
    --report FILE     Where to write the diff-report JSON
                      (default calibration_report.json)
    --out FILE        Also write the fitted tables as bhive-tables/v1
                      JSON, loadable via --tables
    --diff            Print drifted entries to stdout and exit 3 when
                      the fitted tables differ from the shipped ones

SERVE OPTIONS (serve command only; --uarch/--cache/--retries/--threads
are honored too, with --threads sizing the profiling worker pool):
    --listen A        unix:/path/to.sock or tcp:host:port
                      (default unix:bhive.sock; tcp:127.0.0.1:0 picks a
                      free port and prints it)
    --queue N         Bound on queued miss-work before load-shedding
                      with queue-full rejections (default 64)
    --rate R          Per-client token-bucket refill, requests/second
                      (default 64)
    --burst B         Per-client token-bucket burst size (default 64)
    --deadline-ms N   Default per-request budget when the request does
                      not carry deadline_ms (default 10000)
    --read-timeout-ms N  Socket read deadline; mid-line stalls longer
                      than this are cut as slow-loris (default 250)
    --drain-ms N      How long shutdown waits for queued work before
                      cancelling it (default 5000)

EXIT STATUS:
    0                 Success (for serve: clean drain)
    1                 I/O or runtime error
    3                 calibrate --diff: fitted tables drifted from the
                      shipped ones
    2                 Usage error (bad flags or combinations), or run
                      unhealthy: the run-health circuit breaker tripped
                      (environment degraded), no block profiled
                      successfully, or the serve run ended degraded
    130               Interrupted: SIGINT/SIGTERM cut a batch run short;
                      completed work is flushed to the cache and the run
                      report carries a partial-run note
";

#[derive(Debug)]
struct Options {
    scale: Scale,
    seed: u64,
    threads: usize,
    retries: u32,
    uarch: UarchKind,
    corpus: CorpusKind,
    json: bool,
    cache: Option<std::path::PathBuf>,
    no_cache: bool,
    trace: Option<std::path::PathBuf>,
    metrics: bool,
    tables: Option<std::path::PathBuf>,
    help: bool,
    serve: ServeOptions,
    calibrate: CalibrateOptions,
}

/// Calibrate-only flags, kept `Option`/default so their *presence* can
/// be rejected on other commands instead of being silently ignored.
#[derive(Debug, Default)]
struct CalibrateOptions {
    quick: bool,
    report: Option<std::path::PathBuf>,
    out: Option<std::path::PathBuf>,
    diff: bool,
}

impl CalibrateOptions {
    /// The first calibrate-only flag that was given, for the
    /// "calibrate flags need the calibrate command" usage error.
    fn given(&self) -> Option<&'static str> {
        [
            ("--quick", self.quick),
            ("--report", self.report.is_some()),
            ("--out", self.out.is_some()),
            ("--diff", self.diff),
        ]
        .into_iter()
        .find_map(|(name, given)| given.then_some(name))
    }
}

/// Serve-only flags, kept `Option` so their *presence* can be rejected
/// on non-serve commands instead of being silently ignored.
#[derive(Debug, Default)]
struct ServeOptions {
    listen: Option<String>,
    queue: Option<usize>,
    rate: Option<f64>,
    burst: Option<u32>,
    deadline_ms: Option<u64>,
    read_timeout_ms: Option<u64>,
    drain_ms: Option<u64>,
}

impl ServeOptions {
    /// The first serve-only flag that was given, for the "serve flags
    /// need the serve command" usage error.
    fn given(&self) -> Option<&'static str> {
        [
            ("--listen", self.listen.is_some()),
            ("--queue", self.queue.is_some()),
            ("--rate", self.rate.is_some()),
            ("--burst", self.burst.is_some()),
            ("--deadline-ms", self.deadline_ms.is_some()),
            ("--read-timeout-ms", self.read_timeout_ms.is_some()),
            ("--drain-ms", self.drain_ms.is_some()),
        ]
        .into_iter()
        .find_map(|(name, given)| given.then_some(name))
    }
}

impl Options {
    /// Resolves the measurement-cache directory: `--no-cache` beats
    /// `--cache`, which beats the `BHIVE_CACHE` environment variable.
    fn cache_dir(&self) -> Option<std::path::PathBuf> {
        if self.no_cache {
            return None;
        }
        self.cache
            .clone()
            .or_else(|| std::env::var_os("BHIVE_CACHE").map(std::path::PathBuf::from))
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        scale: Scale::PerApp(150),
        seed: 42,
        threads: 0,
        retries: 0,
        uarch: UarchKind::Haswell,
        corpus: CorpusKind::Main,
        json: false,
        cache: None,
        no_cache: false,
        trace: None,
        metrics: false,
        tables: None,
        help: false,
        serve: ServeOptions::default(),
        calibrate: CalibrateOptions::default(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--scale" => {
                opts.scale = Scale::PerApp(
                    value("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?,
                );
            }
            "--fraction" => {
                opts.scale = Scale::Fraction(
                    value("--fraction")?
                        .parse()
                        .map_err(|e| format!("--fraction: {e}"))?,
                );
            }
            "--paper-scale" => opts.scale = Scale::Paper,
            "--scale-family" => {
                let text = value("--scale-family")?;
                let (name, count) = text
                    .split_once('=')
                    .ok_or_else(|| format!("--scale-family expects family=N, got `{text}`"))?;
                let family = Family::parse(name).ok_or_else(|| {
                    format!("unknown family `{name}` (general|bitops|numeric|media|google)")
                })?;
                let count: usize = count
                    .parse()
                    .map_err(|e| format!("--scale-family {name}: {e}"))?;
                // Repeatable: later flags layer onto earlier ones;
                // a prior --scale/--fraction is replaced wholesale.
                let counts = match opts.scale {
                    Scale::PerFamily(counts) => counts,
                    _ => FamilyCounts::default(),
                };
                opts.scale = Scale::PerFamily(counts.with(family, count));
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--retries" => {
                opts.retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?;
            }
            "--uarch" => {
                let text = value("--uarch")?;
                opts.uarch =
                    UarchKind::parse(&text).ok_or_else(|| format!("unknown uarch `{text}`"))?;
            }
            "--corpus" => {
                let text = value("--corpus")?;
                opts.corpus = CorpusKind::parse(&text)
                    .ok_or_else(|| format!("unknown corpus `{text}` (main|google|training)"))?;
            }
            "--json" => opts.json = true,
            "--listen" => {
                let text = value("--listen")?;
                // Parse eagerly so a bad address is a flag error, not a
                // bind-time surprise.
                bhive::serve::BindAddr::parse(&text).map_err(|e| format!("--listen: {e}"))?;
                opts.serve.listen = Some(text);
            }
            "--queue" => {
                opts.serve.queue = Some(
                    value("--queue")?
                        .parse()
                        .map_err(|e| format!("--queue: {e}"))?,
                );
            }
            "--rate" => {
                let rate: f64 = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?;
                if !rate.is_finite() || rate < 0.0 {
                    return Err(format!(
                        "--rate must be a finite non-negative number, got {rate}"
                    ));
                }
                opts.serve.rate = Some(rate);
            }
            "--burst" => {
                let burst: u32 = value("--burst")?
                    .parse()
                    .map_err(|e| format!("--burst: {e}"))?;
                if burst == 0 {
                    return Err("--burst must be at least 1".into());
                }
                opts.serve.burst = Some(burst);
            }
            "--deadline-ms" => {
                opts.serve.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--read-timeout-ms" => {
                let ms: u64 = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--read-timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("--read-timeout-ms must be at least 1 \
                                (a zero read deadline would cut every connection)"
                        .into());
                }
                opts.serve.read_timeout_ms = Some(ms);
            }
            "--drain-ms" => {
                opts.serve.drain_ms = Some(
                    value("--drain-ms")?
                        .parse()
                        .map_err(|e| format!("--drain-ms: {e}"))?,
                );
            }
            "--cache" => opts.cache = Some(value("--cache")?.into()),
            "--no-cache" => opts.no_cache = true,
            "--trace" => opts.trace = Some(value("--trace")?.into()),
            "--metrics" => opts.metrics = true,
            "--tables" => opts.tables = Some(value("--tables")?.into()),
            "--quick" => opts.calibrate.quick = true,
            "--report" => opts.calibrate.report = Some(value("--report")?.into()),
            "--out" => opts.calibrate.out = Some(value("--out")?.into()),
            "--diff" => opts.calibrate.diff = true,
            "--help" | "-h" => opts.help = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn emit(report: &Report, json: bool) {
    if json {
        println!("{}", report.to_json().expect("report serializes"));
    } else {
        println!("{report}");
    }
}

fn read_stdin_block() -> Result<bhive::asm::BasicBlock, String> {
    let mut text = String::new();
    std::io::stdin()
        .read_to_string(&mut text)
        .map_err(|e| format!("reading stdin: {e}"))?;
    bhive::asm::parse_block(&text).map_err(|e| e.to_string())
}

/// CLI failures, split so `main` can exit 2 (with a usage hint) on bad
/// invocations and 1 on runtime/I/O errors. The `From<String>` impl
/// defaults `?`-propagated strings to runtime errors; usage errors are
/// tagged explicitly at the sites that detect them.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Runtime(message)
    }
}

fn run() -> Result<ExitCode, CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        print!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    };
    let opts = parse_options(&args[1..]).map_err(CliError::Usage)?;
    // `--help` anywhere (e.g. `bhive table1 --help`) prints usage and
    // exits 0 instead of dying on "unknown option".
    if opts.help {
        print!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    if command != "serve" {
        if let Some(flag) = opts.serve.given() {
            return Err(CliError::Usage(format!(
                "{flag} applies to the `serve` command only"
            )));
        }
    }
    if command != "calibrate" {
        if let Some(flag) = opts.calibrate.given() {
            return Err(CliError::Usage(format!(
                "{flag} applies to the `calibrate` command only"
            )));
        }
    }
    if let Some(path) = &opts.tables {
        if !matches!(
            command.as_str(),
            "measure" | "serve" | "profile" | "predict"
        ) {
            return Err(CliError::Usage(
                "--tables applies to the measure/serve/profile/predict commands only".into(),
            ));
        }
        install_fitted_tables(path, opts.uarch)?;
    }
    if command == "serve" {
        return run_serve(&opts).map_err(CliError::Runtime);
    }
    if command == "calibrate" {
        return run_calibrate(&opts);
    }
    let mut pipeline =
        Pipeline::new(opts.scale, opts.seed, opts.threads).with_retries(opts.retries);
    if let Some(dir) = opts.cache_dir() {
        pipeline = pipeline.with_cache_dir(dir);
    }
    // Open the trace log before measuring so a torn tail left by an
    // interrupted run is recorded as this run's recovery preamble.
    let mut trace_log = match &opts.trace {
        Some(path) => Some(
            TraceLog::open(path)
                .map_err(|e| format!("opening trace log {}: {e}", path.display()))?,
        ),
        None => None,
    };
    if trace_log.is_some() || opts.metrics {
        let obs = ObsConfig {
            resume_note: trace_log.as_ref().and_then(|log| log.recovery()),
            ..ObsConfig::on()
        };
        pipeline = pipeline.with_observability(obs);
    }

    match command.as_str() {
        "help" | "--help" | "-h" => print!("{USAGE}"),
        "table1" => emit(&experiments::table1(&pipeline), opts.json),
        "table2" => emit(&experiments::table2(&pipeline), opts.json),
        "table3" => emit(&experiments::table3(&pipeline), opts.json),
        "table4" => emit(&experiments::table4(&pipeline), opts.json),
        "table5" => emit(&experiments::table5(&pipeline), opts.json),
        "table6" => emit(&experiments::table6(&pipeline), opts.json),
        "fig3" => emit(&experiments::fig3(&pipeline), opts.json),
        "fig4" => emit(&experiments::fig4(&pipeline), opts.json),
        "fig-app-err" => emit(&experiments::fig_app_err(&pipeline, opts.uarch), opts.json),
        "fig-cluster-err" => emit(
            &experiments::fig_cluster_err(&pipeline, opts.uarch),
            opts.json,
        ),
        "fig-schedule" => emit(&experiments::fig_schedule(&pipeline), opts.json),
        "fig-google" => emit(&experiments::fig_google(&pipeline), opts.json),
        "case-study" => emit(&experiments::case_study(&pipeline), opts.json),
        "filter-census" => emit(&experiments::filter_census(&pipeline), opts.json),
        "all" => {
            for report in experiments::all(&pipeline) {
                emit(&report, opts.json);
                println!();
            }
            for (label, stats) in pipeline.profile_stats() {
                eprintln!("profiling {label}: {stats}");
            }
        }
        "fig1" => {
            let block = bhive::corpus::special::updcrc();
            println!("# Gzip updcrc inner-loop body (paper Fig. 1)");
            println!("# AT&T (as printed in the paper):");
            println!("{}", block.to_att_string());
            println!("# Intel:");
            println!("{block}");
        }
        "exegesis" => {
            // Long tabular output routinely gets piped into `head`; use
            // the EPIPE-tolerant writer like the CSV commands.
            write_stdout(|out| {
                writeln!(
                    out,
                    "# per-opcode latency / reciprocal throughput on {} (llvm-exegesis style)",
                    opts.uarch.name()
                )?;
                writeln!(out, "{:<14} {:>9} {:>9}", "opcode", "latency", "rTP")?;
                for p in bhive::harness::exegesis::profile_isa(opts.uarch.desc()) {
                    writeln!(
                        out,
                        "{:<14} {:>9.2} {:>9.2}",
                        p.mnemonic.name(),
                        p.latency,
                        p.reciprocal_throughput
                    )?;
                }
                Ok(())
            })?;
        }
        "profile" => {
            let block = read_stdin_block()?;
            let config = ProfileConfig::bhive().with_retries(opts.retries);
            let profiler = Profiler::new(opts.uarch.desc(), config);
            match profiler.profile(&block) {
                Ok(m) => {
                    println!(
                        "throughput: {:.2} cycles/iteration ({} on {})",
                        m.throughput,
                        if m.hi.counters.is_clean() {
                            "clean"
                        } else {
                            "polluted"
                        },
                        opts.uarch.name()
                    );
                    println!(
                        "unroll factors {}x/{}x, {} pages mapped, {} faults serviced",
                        m.lo.unroll, m.hi.unroll, m.mapped_pages, m.faults_serviced
                    );
                    if m.recovered_on_retry() {
                        println!(
                            "recovered on retry attempt {} ({} trials)",
                            m.attempt,
                            m.hi.cycles.len()
                        );
                    }
                }
                Err(failure) => println!("failed to profile ({}): {failure}", failure.class()),
            }
        }
        "predict" => {
            let block = read_stdin_block()?;
            println!("{:<10} {:>12}", "model", "prediction");
            for model in pipeline.models(opts.uarch) {
                let text = model
                    .predict(&block)
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_else(|| "-".into());
                println!("{:<10} {:>12}", model.name(), text);
            }
        }
        "measure" => {
            // SIGINT/SIGTERM during a long batch run should flush what
            // was measured (the cache writes per record), leave the
            // remainder re-measurable, note the partial run in the run
            // report, and exit 130 — not die mid-write.
            bhive::harness::interrupt::install();
            let data = pipeline.measured(opts.corpus, opts.uarch);
            write_stdout(|out| data.write_csv(out))?;
            // Pipeline observability goes to stderr so the CSV on stdout
            // stays machine-readable.
            for (label, stats) in pipeline.profile_stats() {
                eprintln!("profiling {label}: {stats}");
            }
        }
        "classify" => {
            let block = read_stdin_block()?;
            let classifier = pipeline.classifier();
            let category = classifier.classify(&block);
            println!("{}: {}", category, category.description());
        }
        "corpus" => {
            let corpus = Corpus::generate(opts.scale, opts.seed);
            write_stdout(|out| corpus.write_csv(out))?;
        }
        other => {
            return Err(CliError::Usage(format!("unknown command `{other}`")));
        }
    }
    emit_observability(&pipeline, trace_log.as_mut(), opts.metrics)?;
    Ok(run_health(&pipeline))
}

/// The `serve` command: build a [`ServeConfig`](bhive::serve::ServeConfig)
/// from the flags, bind, and run until SIGINT/SIGTERM, then drain.
/// Exits 0 on a clean drain; a run that ended degraded (breaker tripped
/// or cache write-off) exits 2 like an unhealthy batch run.
fn run_serve(opts: &Options) -> Result<ExitCode, String> {
    use std::time::Duration;
    let listen = opts.serve.listen.as_deref().unwrap_or("unix:bhive.sock");
    let addr = bhive::serve::BindAddr::parse(listen).map_err(|e| format!("--listen: {e}"))?;
    let defaults = bhive::serve::ServeConfig::default();
    let workers = if opts.threads == 0 {
        defaults.workers
    } else {
        opts.threads
    };
    let cfg = bhive::serve::ServeConfig {
        uarch: opts.uarch,
        config: ProfileConfig::bhive().with_retries(opts.retries),
        cache_dir: opts.cache_dir(),
        workers,
        queue_capacity: opts.serve.queue.unwrap_or(defaults.queue_capacity),
        rate_burst: opts.serve.burst.unwrap_or(defaults.rate_burst),
        rate_per_sec: opts.serve.rate.unwrap_or(defaults.rate_per_sec),
        default_deadline: opts
            .serve
            .deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(defaults.default_deadline),
        read_timeout: opts
            .serve
            .read_timeout_ms
            .map(Duration::from_millis)
            .unwrap_or(defaults.read_timeout),
        drain_timeout: opts
            .serve
            .drain_ms
            .map(Duration::from_millis)
            .unwrap_or(defaults.drain_timeout),
        ..defaults
    };
    // SIGINT/SIGTERM flip the interrupt flag; the accept loop polls it
    // and turns it into a bounded drain.
    bhive::harness::interrupt::install();
    let server =
        bhive::serve::Server::bind(cfg, &addr).map_err(|e| format!("binding {addr}: {e}"))?;
    eprintln!(
        "bhive serve: listening on {} ({} on {} worker(s), cache {})",
        server.local_addr(),
        opts.uarch.name(),
        workers,
        opts.cache_dir()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "off (memory only)".into()),
    );
    let summary = server.run().map_err(|e| format!("serving: {e}"))?;
    eprintln!("bhive serve: {summary}");
    Ok(if summary.breaker_tripped || summary.cache_degraded {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

/// Loads a `bhive-tables/v1` file and installs it process-wide, so
/// every subsequent `UarchKind::desc()` — the profiler, the models,
/// the serve daemon — resolves to the fitted tables.
fn install_fitted_tables(path: &std::path::Path, uarch: UarchKind) -> Result<(), CliError> {
    let (kind, overrides) = bhive::uarch::FittedTables::load(path)
        .map_err(|e| CliError::Runtime(format!("loading --tables {}: {e}", path.display())))?;
    if kind != uarch {
        return Err(CliError::Usage(format!(
            "--tables {} is fitted for {}, but --uarch is {}; pass --uarch {}",
            path.display(),
            kind.short_name(),
            uarch.short_name(),
            kind.short_name()
        )));
    }
    bhive::uarch::install_tables(kind, overrides);
    Ok(())
}

/// The `calibrate` command: measure the probe battery, fit tables,
/// write the diff-report (and optionally the fitted tables), and with
/// `--diff` print drifted entries and exit 3 when any entry drifted.
fn run_calibrate(opts: &Options) -> Result<ExitCode, CliError> {
    // SIGINT/SIGTERM interrupt the measurement phase; completed probes
    // are already flushed to the cache, so a rerun resumes.
    bhive::harness::interrupt::install();
    let mut trace_log = match &opts.trace {
        Some(path) => Some(
            TraceLog::open(path)
                .map_err(|e| format!("opening trace log {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let obs = if trace_log.is_some() || opts.metrics {
        ObsConfig {
            resume_note: trace_log.as_ref().and_then(|log| log.recovery()),
            ..ObsConfig::on()
        }
    } else {
        ObsConfig::default()
    };
    let calib_opts = bhive::learn::CalibrationOptions {
        threads: opts.threads,
        cache_dir: opts.cache_dir(),
        quick: opts.calibrate.quick,
        obs,
        stop: None,
    };
    let outcome = match bhive::learn::calibrate(bhive::uarch::builtin(opts.uarch), &calib_opts) {
        Ok(outcome) => outcome,
        Err(bhive::learn::CalibrationError::Interrupted) => {
            eprintln!("calibrate: interrupted; rerun with the same --cache to resume");
            return Ok(ExitCode::from(130));
        }
        Err(err) => return Err(CliError::Runtime(format!("calibrate: {err}"))),
    };
    let report = &outcome.report;

    let report_path = opts
        .calibrate
        .report
        .clone()
        .unwrap_or_else(|| "calibration_report.json".into());
    std::fs::write(&report_path, report.to_json() + "\n")
        .map_err(|e| format!("writing report {}: {e}", report_path.display()))?;
    if let Some(out) = &opts.calibrate.out {
        bhive::uarch::FittedTables::new(opts.uarch, outcome.overrides.clone())
            .save(out)
            .map_err(|e| format!("writing fitted tables {}: {e}", out.display()))?;
    }

    if let (Some(log), Some(obs)) = (trace_log.as_mut(), outcome.obs.as_ref()) {
        log.append_run("calibrate", obs)
            .map_err(|e| format!("writing trace log {}: {e}", log.path().display()))?;
        // The documented --trace contract: a deterministic
        // run_report.json next to the trace. Swap the merged obs (with
        // the calib.* section) into the measurement stats so the report
        // carries the calibration counters too.
        let mut stats = outcome.stats.clone();
        stats.obs = Some(obs.clone());
        if let Some(run_report) = stats.run_report("calibrate") {
            let run_report_path = log.path().with_file_name("run_report.json");
            let body = format!(
                "[\n{}\n]\n",
                run_report
                    .to_json()
                    .map_err(|e| format!("run report: {e}"))?
            );
            std::fs::write(&run_report_path, body)
                .map_err(|e| format!("writing {}: {e}", run_report_path.display()))?;
        }
    }
    if opts.metrics {
        if let Some(obs) = &outcome.obs {
            eprintln!("metrics calibrate:");
            for (name, value) in obs.metrics.counters() {
                eprintln!("  counter  {name} = {value}");
            }
        }
    }
    eprintln!(
        "calibrate {}: {} probes ({} measured, {} failed), {} simulations, \
         {} entries, {} drifted; report {}",
        opts.uarch.name(),
        report.probe_count,
        report.measured_probes,
        report.failed_probes,
        report.simulations,
        report.entries.len(),
        report.drift_count,
        report_path.display(),
    );

    if opts.calibrate.diff {
        if report.has_drift() {
            for (key, entry) in report.entries.iter().filter(|(_, e)| e.drift) {
                println!(
                    "drift {key}: latency {} -> {}, ports {:#04x} -> {:#04x} (class {:?})",
                    entry.shipped_latency,
                    entry.fitted_latency,
                    entry.shipped_ports,
                    entry.canonical_ports,
                    entry.port_class,
                );
            }
            return Ok(ExitCode::from(3));
        }
        println!(
            "no drift: shipped {} tables match the fitted ones on all {} entries",
            opts.uarch.name(),
            report.entries.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Post-command observability fan-out: appends every observed corpus
/// measurement to the trace log, writes the deterministic
/// `run_report.json` next to it, and (with `--metrics`) prints the
/// merged registries to stderr. A command that measured nothing (e.g.
/// `corpus`, `fig1`) emits nothing.
fn emit_observability(
    pipeline: &Pipeline,
    log: Option<&mut TraceLog>,
    metrics: bool,
) -> Result<(), String> {
    let observed: Vec<(String, ProfileStats)> = pipeline
        .profile_stats()
        .into_iter()
        .filter(|(_, stats)| stats.obs.is_some())
        .collect();
    if observed.is_empty() {
        return Ok(());
    }
    if let Some(log) = log {
        for (label, stats) in &observed {
            let obs = stats.obs.as_ref().expect("filtered to observed runs");
            log.append_run(label, obs)
                .map_err(|e| format!("writing trace log {}: {e}", log.path().display()))?;
        }
        // One deterministic report per measurement, as a JSON array next
        // to the trace (bit-identical at any thread count).
        let mut reports = Vec::new();
        for (label, stats) in &observed {
            if let Some(report) = stats.run_report(label) {
                reports.push(report.to_json().map_err(|e| format!("run report: {e}"))?);
            }
        }
        let report_path = log.path().with_file_name("run_report.json");
        let body = format!("[\n{}\n]\n", reports.join(",\n"));
        std::fs::write(&report_path, body)
            .map_err(|e| format!("writing {}: {e}", report_path.display()))?;
    }
    if metrics {
        for (label, stats) in &observed {
            let obs = stats.obs.as_ref().expect("filtered to observed runs");
            eprintln!("metrics {label}:");
            for (name, value) in obs.metrics.counters() {
                eprintln!("  counter  {name} = {value}");
            }
            for (name, value) in obs.metrics.gauges() {
                eprintln!("  gauge    {name} = {value}");
            }
            for (name, hist) in obs.metrics.histograms() {
                let q = bhive::harness::Quantiles::of(hist);
                eprintln!(
                    "  hist     {name}: n={} p50={} p95={} p99={}",
                    hist.total(),
                    q.p50,
                    q.p95,
                    q.p99
                );
            }
            // Wall-section histograms (latencies) are real observations
            // but not deterministic; mark them so nobody diffs them.
            for (name, hist) in obs.wall_metrics.histograms() {
                let q = bhive::harness::Quantiles::of(hist);
                eprintln!(
                    "  hist     {name}: n={} p50={} p95={} p99={} (wall, non-deterministic)",
                    hist.total(),
                    q.p50,
                    q.p95,
                    q.p99
                );
            }
            if obs.dropped_events > 0 {
                eprintln!(
                    "  warning: {} events DROPPED by ring overflow",
                    obs.dropped_events
                );
            }
        }
    }
    Ok(())
}

/// Post-command health check over every corpus the pipeline measured:
/// a tripped circuit breaker (environment degraded) or a run where no
/// block profiled successfully exits 2, so scripted callers cannot
/// mistake a wasted run for a good one.
fn run_health(pipeline: &Pipeline) -> ExitCode {
    let mut unhealthy = false;
    let mut interrupted = false;
    for (label, stats) in pipeline.profile_stats() {
        interrupted |= stats.interrupted;
        if let Some(trip) = &stats.breaker {
            unhealthy = true;
            eprintln!(
                "error: {label}: circuit breaker tripped at block {} \
                 ({:.0}% transient over {} blocks) — environment degraded",
                trip.at_block,
                trip.rate * 100.0,
                trip.window
            );
        } else if stats.total_blocks > 0 && stats.successful_blocks == 0 {
            unhealthy = true;
            eprintln!(
                "error: {label}: none of {} blocks profiled successfully",
                stats.total_blocks
            );
        }
    }
    if unhealthy {
        ExitCode::from(2)
    } else if interrupted {
        // Completed work is flushed and the run report carries the
        // partial-run note; the conventional 128+SIGINT code tells
        // scripted callers the dataset is resumable, not complete.
        ExitCode::from(130)
    } else {
        ExitCode::SUCCESS
    }
}

/// Writes command output to stdout through one buffer, so a large CSV
/// costs a few `write` calls instead of one per line-buffered row. A
/// reader that closed the pipe early is not an error.
fn write_stdout(
    write: impl FnOnce(&mut BufWriter<std::io::StdoutLock<'static>>) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut out = BufWriter::new(std::io::stdout().lock());
    write(&mut out)
        .and_then(|()| out.flush())
        .or_else(ignore_epipe)
}

/// Piping into `head` closes stdout early; exiting loudly on EPIPE is
/// un-Unix-like.
fn ignore_epipe(err: std::io::Error) -> Result<(), String> {
    if err.kind() == std::io::ErrorKind::BrokenPipe {
        Ok(())
    } else {
        Err(format!("writing output: {err}"))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!("run `bhive --help` for usage");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_options(&args)
    }

    #[test]
    fn help_flags_parse_instead_of_erroring() {
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
        // `--help` mixed with other options still parses.
        assert!(parse(&["--uarch", "skl", "--help"]).unwrap().help);
        assert!(!parse(&["--uarch", "skl"]).unwrap().help);
    }

    #[test]
    fn cache_flags_resolve_with_no_cache_winning() {
        let opts = parse(&["--cache", "/tmp/bhive-cache"]).unwrap();
        assert_eq!(
            opts.cache_dir(),
            Some(std::path::PathBuf::from("/tmp/bhive-cache"))
        );
        let opts = parse(&["--cache", "/tmp/bhive-cache", "--no-cache"]).unwrap();
        assert_eq!(opts.cache_dir(), None, "--no-cache overrides --cache");
        assert!(parse(&["--cache"]).is_err(), "--cache needs a value");
    }

    #[test]
    fn usage_covers_every_flag_the_parser_accepts() {
        for flag in [
            "--scale",
            "--fraction",
            "--paper-scale",
            "--scale-family",
            "--seed",
            "--threads",
            "--retries",
            "--uarch",
            "--corpus",
            "--json",
            "--cache",
            "--no-cache",
            "--trace",
            "--metrics",
            "--listen",
            "--queue",
            "--rate",
            "--burst",
            "--deadline-ms",
            "--read-timeout-ms",
            "--drain-ms",
            "--tables",
            "--quick",
            "--report",
            "--out",
            "--diff",
            "--help",
            "-h",
        ] {
            assert!(USAGE.contains(flag), "usage text must document {flag}");
        }
    }

    #[test]
    fn serve_flags_parse_and_validate_eagerly() {
        let opts = parse(&[
            "--listen",
            "tcp:127.0.0.1:7777",
            "--queue",
            "16",
            "--rate",
            "8.5",
            "--burst",
            "32",
            "--deadline-ms",
            "500",
            "--read-timeout-ms",
            "100",
            "--drain-ms",
            "1000",
        ])
        .unwrap();
        assert_eq!(opts.serve.listen.as_deref(), Some("tcp:127.0.0.1:7777"));
        assert_eq!(opts.serve.queue, Some(16));
        assert_eq!(opts.serve.rate, Some(8.5));
        assert_eq!(opts.serve.burst, Some(32));
        assert_eq!(opts.serve.deadline_ms, Some(500));
        assert_eq!(opts.serve.read_timeout_ms, Some(100));
        assert_eq!(opts.serve.drain_ms, Some(1000));
        assert_eq!(opts.serve.given(), Some("--listen"));

        // Bad values are rejected at parse time, not at bind time.
        assert!(parse(&["--listen", "carrier-pigeon:coop"]).is_err());
        assert!(parse(&["--rate", "-1"]).is_err(), "negative rate");
        assert!(parse(&["--rate", "inf"]).is_err(), "non-finite rate");
        assert!(parse(&["--burst", "0"]).is_err(), "burst must admit one");
        assert!(parse(&["--read-timeout-ms", "0"]).is_err(), "zero timeout");
    }

    #[test]
    fn calibrate_and_tables_flags_parse_and_validate() {
        let opts = parse(&["--quick", "--report", "r.json", "--out", "t.json", "--diff"]).unwrap();
        assert!(opts.calibrate.quick);
        assert_eq!(
            opts.calibrate.report,
            Some(std::path::PathBuf::from("r.json"))
        );
        assert_eq!(opts.calibrate.out, Some(std::path::PathBuf::from("t.json")));
        assert!(opts.calibrate.diff);
        assert_eq!(opts.calibrate.given(), Some("--quick"));
        assert_eq!(parse(&[]).unwrap().calibrate.given(), None);

        let opts = parse(&["--tables", "t.json"]).unwrap();
        assert_eq!(opts.tables, Some(std::path::PathBuf::from("t.json")));
        assert!(parse(&["--report"]).is_err(), "--report needs a value");
    }

    #[test]
    fn corpus_flag_parses() {
        assert_eq!(parse(&[]).unwrap().corpus, CorpusKind::Main);
        assert_eq!(
            parse(&["--corpus", "google"]).unwrap().corpus,
            CorpusKind::Google
        );
        assert_eq!(
            parse(&["--corpus", "TRAINING"]).unwrap().corpus,
            CorpusKind::Training
        );
        assert!(parse(&["--corpus", "bogus"]).is_err());
    }

    #[test]
    fn scale_family_flags_accumulate() {
        let opts = parse(&[
            "--scale-family",
            "numeric=1000",
            "--scale-family",
            "google=25",
        ])
        .unwrap();
        let expected = FamilyCounts::default()
            .with(Family::Numeric, 1000)
            .with(Family::Google, 25);
        assert_eq!(opts.scale, Scale::PerFamily(expected));
        assert!(parse(&["--scale-family", "numeric"]).is_err(), "needs =N");
        assert!(parse(&["--scale-family", "martian=3"]).is_err());
    }

    #[test]
    fn trace_and_metrics_flags_parse() {
        let opts = parse(&["--trace", "/tmp/run.jsonl", "--metrics"]).unwrap();
        assert_eq!(opts.trace, Some(std::path::PathBuf::from("/tmp/run.jsonl")));
        assert!(opts.metrics);
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.trace, None, "tracing is opt-in");
        assert!(!opts.metrics, "metrics are opt-in");
        assert!(parse(&["--trace"]).is_err(), "--trace needs a value");
    }

    #[test]
    fn unknown_options_still_error() {
        let err = parse(&["--bogus"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn retries_parse_and_default_to_zero() {
        assert_eq!(parse(&[]).unwrap().retries, 0);
        assert_eq!(parse(&["--retries", "3"]).unwrap().retries, 3);
        assert!(parse(&["--retries"]).is_err(), "--retries needs a value");
        assert!(parse(&["--retries", "many"]).is_err());
    }
}
