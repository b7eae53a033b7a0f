//! In-process helpers of the repository benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench-tool load --socket PATH --stream FILE --answers FILE
//! perfbench-tool trace --seed S --scale N --threads T --work DIR
//!                      --blocks corpus|probes|FILE
//!                      [--stream FILE --answers FILE --rate R --burst B --queue Q]
//! ```
//!
//! `load` drives a running `bhive serve` open loop and writes one
//! answer line per request. `trace` runs the traced layer ledger and
//! prints it as one JSON line; with `--stream` it also serves that
//! stream from an in-process server.

mod load;
mod trace;

use bhive::harness::{ProfileConfig, Profiler};
use bhive::serve::{protocol, BindAddr, Client, ServeConfig, Server};
use bhive::sim::Machine;
use bhive::uarch::UarchKind;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// How long the generator waits for answers after the last request
/// was due; anything still unanswered then counts as failed.
const GIVE_UP: Duration = Duration::from_secs(30);

/// Client connections per stream: the warm client's and the cold
/// client's (see `perfbench/README.md`).
const CONNECTIONS: usize = 2;

/// The cold client's connection, which sends the first-seen blocks.
const COLD_CONN: usize = 1;

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("--{name} is required"))
}

fn number<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    flag(flags, name)?
        .parse()
        .map_err(|e| format!("--{name}: {e}"))
}

fn read_stream(path: &Path) -> Result<Vec<load::Request>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    load::parse_stream(&text)
}

fn write_answers(path: &Path, answers: &[load::Answer]) -> Result<(), String> {
    std::fs::write(path, load::format_answers(answers))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run_load(flags: &HashMap<String, String>) -> Result<(), String> {
    let requests = read_stream(Path::new(flag(flags, "stream")?))?;
    let answers = load::run(
        Path::new(flag(flags, "socket")?),
        &requests,
        CONNECTIONS,
        GIVE_UP,
    )
    .map_err(|e| format!("load: {e}"))?;
    write_answers(Path::new(flag(flags, "answers")?), &answers)
}

/// Reads an unsigned field of a health answer line.
fn health_field(line: &str, name: &str) -> Result<u64, String> {
    let key = format!("\"{name}\":");
    let start = line
        .find(&key)
        .ok_or_else(|| format!("health answer lacks {name}: {line}"))?
        + key.len();
    line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .map_err(|e| format!("health {name}: {e}"))
}

/// Serves `stream` from an in-process `bhive serve` configured as the
/// benchmark configures the daemon, and records the serve layer.
fn serve_session(
    ledger: &mut trace::Ledger,
    opts: &trace::TraceOptions<'_>,
    flags: &HashMap<String, String>,
    stream: &Path,
) -> Result<(), String> {
    let requests = read_stream(stream)?;
    let started = Instant::now();
    let mut parsed = Vec::with_capacity(requests.len());
    for request in &requests {
        parsed.push(
            std::hint::black_box(protocol::parse_request(&request.line))
                .map_err(|e| format!("stream line does not parse: {e}"))?,
        );
    }
    ledger.set(
        "serve.parse_ns",
        started.elapsed().as_nanos() as f64 / requests.len().max(1) as f64,
    );

    // profile_attempt on the blocks the cold client sends, for the
    // miss overhead: what a miss costs beyond profiling its block.
    let profiler = Profiler::new(UarchKind::Haswell.desc(), ProfileConfig::bhive());
    let mut machine = Machine::new(UarchKind::Haswell.desc(), 0);
    let mut miss_attempts = Vec::new();
    for (request, parsed) in requests.iter().zip(&parsed) {
        let protocol::Request::Predict(predict) = parsed else {
            continue;
        };
        if request.conn != COLD_CONN {
            continue;
        }
        let block = predict.block.decode()?;
        let started = Instant::now();
        let _ = std::hint::black_box(profiler.profile_attempt(&block, &mut machine, 0));
        miss_attempts.push(started.elapsed().as_secs_f64() * 1e6);
    }
    ledger
        .samples
        .insert("serve.miss_profile_attempt_us".into(), miss_attempts);

    let cache_dir = opts.work.join("trace-serve-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let socket = opts.work.join("trace.sock");
    let _ = std::fs::remove_file(&socket);
    let cfg = ServeConfig {
        uarch: UarchKind::Haswell,
        config: ProfileConfig::bhive(),
        cache_dir: Some(cache_dir.clone()),
        workers: opts.threads,
        queue_capacity: number(flags, "queue")?,
        rate_burst: number(flags, "burst")?,
        rate_per_sec: number(flags, "rate")?,
        ..ServeConfig::default()
    };
    let addr = BindAddr::Unix(socket.clone());
    let server = Server::bind(cfg, &addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());
    let outcome = (|| {
        let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let mut rtts = Vec::with_capacity(200);
        for _ in 0..200 {
            let started = Instant::now();
            client
                .roundtrip(r#"{"op":"health"}"#)
                .map_err(|e| format!("health: {e}"))?;
            rtts.push(started.elapsed());
        }
        rtts.sort();
        ledger.set(
            "serve.health_rtt_us",
            rtts[rtts.len() / 2].as_secs_f64() * 1e6,
        );
        let answers = load::run(&socket, &requests, CONNECTIONS, GIVE_UP)
            .map_err(|e| format!("load: {e}"))?;
        write_answers(opts.answers.ok_or("--answers is required")?, &answers)?;
        let health = client
            .roundtrip(r#"{"op":"health"}"#)
            .map_err(|e| format!("health: {e}"))?;
        let requests_seen = health_field(&health, "requests")?;
        ledger.set(
            "serve.hit_ratio",
            health_field(&health, "hits")? as f64 / requests_seen.max(1) as f64,
        );
        ledger.set(
            "serve.shed",
            (health_field(&health, "rejected")? + health_field(&health, "deadline_expired")?)
                as f64,
        );
        Ok(())
    })();
    handle.shutdown();
    let summary = running.join().map_err(|_| "server thread panicked")?;
    summary.map_err(|e| format!("serving: {e}"))?;
    let _ = std::fs::remove_dir_all(&cache_dir);
    outcome
}

fn run_trace(flags: &HashMap<String, String>) -> Result<(), String> {
    let blocks = match flag(flags, "blocks")? {
        "corpus" => trace::BlockSet::Corpus,
        "probes" => trace::BlockSet::Probes,
        path => trace::BlockSet::File(
            std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
        ),
    };
    let work = PathBuf::from(flag(flags, "work")?);
    let stream = flags.get("stream").map(PathBuf::from);
    let answers = flags.get("answers").map(PathBuf::from);
    let opts = trace::TraceOptions {
        seed: number(flags, "seed")?,
        scale: number(flags, "scale")?,
        threads: number(flags, "threads")?,
        blocks,
        work: &work,
        answers: answers.as_deref(),
    };
    let mut ledger = trace::run(&opts)?;
    if let Some(stream) = &stream {
        serve_session(&mut ledger, &opts, flags, stream)?;
    }
    println!("{}", ledger.to_json());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("load") => parse_flags(&args[1..]).and_then(|f| run_load(&f)),
        Some("trace") => parse_flags(&args[1..]).and_then(|f| run_trace(&f)),
        _ => Err("usage: perfbench-tool load|trace --flag value ...".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-tool: {message}");
            ExitCode::FAILURE
        }
    }
}
