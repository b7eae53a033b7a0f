//! End-to-end tests of the `bhive` binary: exit codes, help output, and
//! the measurement cache's warm/cold bit-identity as seen from the CLI.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn bhive(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bhive"))
        .args(args)
        .env_remove("BHIVE_CACHE")
        .output()
        .expect("bhive binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bhive-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn help_flag_exits_zero_with_usage() {
    for args in [
        &["--help"][..],
        &["-h"][..],
        &["help"][..],
        // The historical failure: --help after a command was rejected
        // with "unknown option `--help`".
        &["table3", "--help"][..],
        &["measure", "-h"][..],
    ] {
        let out = bhive(args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("USAGE:"), "{args:?}: {stdout}");
        assert!(stdout.contains("--no-cache"), "{args:?}: {stdout}");
    }
}

#[test]
fn unknown_option_fails_loudly() {
    let out = bhive(&["table3", "--bogus"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus"), "{stderr}");
}

#[test]
fn measure_with_cache_is_warm_and_bit_identical() {
    let dir = temp_dir("measure-cache");
    let dir_arg = dir.to_str().unwrap();
    let args = [
        "measure",
        "--scale",
        "3",
        "--threads",
        "2",
        "--cache",
        dir_arg,
    ];

    let cold = bhive(&args);
    assert!(cold.status.success(), "{cold:?}");
    let cold_stderr = String::from_utf8_lossy(&cold.stderr);
    assert!(cold_stderr.contains("disk cache:"), "{cold_stderr}");

    let warm = bhive(&args);
    assert!(warm.status.success(), "{warm:?}");
    assert_eq!(
        cold.stdout, warm.stdout,
        "warm CSV must be byte-identical to the cold run"
    );
    let warm_stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(warm_stderr.contains("0 misses"), "{warm_stderr}");

    // --no-cache measures from scratch and still agrees.
    let uncached = bhive(&["measure", "--scale", "3", "--threads", "2", "--no-cache"]);
    assert!(uncached.status.success(), "{uncached:?}");
    assert_eq!(cold.stdout, uncached.stdout);
    let uncached_stderr = String::from_utf8_lossy(&uncached.stderr);
    assert!(
        !uncached_stderr.contains("disk cache:"),
        "{uncached_stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The labels of the runs a trace log records, in log order.
fn trace_run_labels(trace: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(trace).expect("trace log written");
    text.lines()
        .filter_map(|line| {
            let rest = line.split_once(r#"{"RunStart":{"label":""#)?.1;
            Some(rest.split('"').next()?.to_string())
        })
        .collect()
}

#[test]
fn table5_is_identical_at_any_thread_count_cold_and_warm() {
    let dir = temp_dir("table5-threads");
    let serial_order = [
        "Main/ivb",
        "Training/ivb",
        "Main/hsw",
        "Training/hsw",
        "Main/skl",
        "Training/skl",
    ];
    // Each thread count fills its own cache cold; the warm runs then
    // swap caches, so a cache filled at one thread count serves the
    // other.
    let run = |pass: &str, threads: &str, cache: &str| {
        let trace = dir.join(pass).join("trace.jsonl");
        std::fs::create_dir_all(trace.parent().unwrap()).unwrap();
        let out = bhive(&[
            "table5",
            "--scale",
            "4",
            "--json",
            "--threads",
            threads,
            "--cache",
            dir.join(cache).to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
        ]);
        assert!(out.status.success(), "{pass}: {out:?}");
        assert_eq!(
            trace_run_labels(&trace),
            serial_order,
            "{pass}: trace run order"
        );
        let report = std::fs::read(dir.join(pass).join("run_report.json")).unwrap();
        (out.stdout, report)
    };
    // Three workers is more than Table 5 has uarches, so its cells
    // (not just its uarches) run concurrently.
    let (cold1, cold1_report) = run("cold-1", "1", "cache-1");
    let (cold2, cold2_report) = run("cold-2", "2", "cache-2");
    let (cold3, cold3_report) = run("cold-3", "3", "cache-3");
    let (warm1, warm1_report) = run("warm-1", "1", "cache-2");
    let (warm2, warm2_report) = run("warm-2", "2", "cache-3");
    let (warm3, warm3_report) = run("warm-3", "3", "cache-1");

    let rows = String::from_utf8_lossy(&cold1);
    assert!(rows.contains(r#""id": "table5""#), "{rows}");
    assert_eq!(
        cold1, cold2,
        "cold stdout differs between --threads 1 and 2"
    );
    assert_eq!(
        cold1, cold3,
        "cold stdout differs between --threads 1 and 3"
    );
    assert_eq!(cold1, warm1, "warm stdout differs from cold (--threads 1)");
    assert_eq!(cold1, warm2, "warm stdout differs from cold (--threads 2)");
    assert_eq!(cold1, warm3, "warm stdout differs from cold (--threads 3)");
    assert_eq!(cold1_report, cold2_report, "cold run_report.json differs");
    assert_eq!(cold1_report, cold3_report, "cold run_report.json differs");
    assert_eq!(warm1_report, warm2_report, "warm run_report.json differs");
    assert_eq!(warm1_report, warm3_report, "warm run_report.json differs");
    assert_ne!(cold1_report, warm1_report, "the warm runs read the cache");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `bhive corpus | head`: the reader closes the pipe after a few bytes,
/// with far more than a pipe buffer's worth of CSV still unwritten. The
/// buffered writer's next write or final flush fails with EPIPE, which is
/// not an error: exit 0 and nothing on stderr.
#[test]
fn closed_stdout_pipe_is_not_an_error() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bhive"))
        .args(["corpus", "--scale", "300"])
        .env_remove("BHIVE_CACHE")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("bhive binary runs");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 64];
    stdout.read_exact(&mut head).expect("the CSV starts");
    drop(stdout);
    let out = child.wait_with_output().expect("bhive exits");
    assert!(out.status.success(), "exit status {:?}", out.status);
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
