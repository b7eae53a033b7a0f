//! Server lifecycle: warm hits, cold misses, admission control,
//! deadlines, degradation, drain, and warm restart — every acceptance
//! behavior of the serving layer, pinned deterministically.

use bhive_harness::{BreakerConfig, ChaosInjector, FaultPlan, RequestFailure};
use bhive_serve::{BindAddr, Client, ServeConfig, Server, ServerHandle};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `add rax, rbx` — profiles instantly and deterministically.
const ADD: &str = "4801d8";
/// `sub rax, rbx` — a second distinct cacheable block.
const SUB: &str = "4829d8";

fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bhive-serve-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn fast_config() -> ServeConfig {
    ServeConfig {
        read_timeout: Duration::from_millis(50),
        drain_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    }
}

struct Running {
    addr: BindAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<bhive_serve::ServeSummary>>,
}

fn start(cfg: ServeConfig) -> Running {
    let addr = BindAddr::parse("tcp:127.0.0.1:0").expect("valid addr");
    let server = Server::bind(cfg, &addr).expect("bind");
    let addr = server.local_addr().clone();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Running {
        addr,
        handle,
        thread,
    }
}

impl Running {
    fn stop(self) -> bhive_serve::ServeSummary {
        self.handle.shutdown();
        self.thread.join().expect("server thread").expect("run ok")
    }
}

fn predict(id: u64, hex: &str) -> String {
    format!(r#"{{"op":"predict","id":{id},"hex":"{hex}"}}"#)
}

#[test]
fn full_lifecycle_miss_then_hit_then_warm_restart_is_bit_identical() {
    let dir = tmp_dir("lifecycle");
    let cfg = ServeConfig {
        cache_dir: Some(dir.clone()),
        ..fast_config()
    };

    // Generation 1: cold miss is measured, second ask is a warm hit.
    let server = start(cfg.clone());
    let mut client = Client::connect(&server.addr).expect("connect");
    let cold = client.roundtrip(&predict(1, ADD)).expect("cold answer");
    assert!(cold.contains(r#""status":"ok""#), "{cold}");
    assert!(cold.contains(r#""source":"measured""#), "{cold}");
    let warm = client.roundtrip(&predict(1, ADD)).expect("warm answer");
    assert!(warm.contains(r#""source":"cache""#), "{warm}");
    // Same measurement either way: everything but the source matches.
    assert_eq!(
        cold.replace("measured", "cache"),
        warm,
        "cold and warm answers carry the same measurement"
    );
    drop(client);
    let summary = server.stop();
    assert_eq!(summary.counters.requests, 2);
    assert_eq!(summary.counters.hits, 1);
    assert_eq!(summary.counters.measured, 1);

    // Generation 2 (SIGTERM → restart): the persisted cache answers the
    // same block warm, byte-identically.
    let server = start(cfg);
    let mut client = Client::connect(&server.addr).expect("reconnect");
    let restarted = client.roundtrip(&predict(1, ADD)).expect("restart answer");
    assert_eq!(
        restarted, warm,
        "warm answer survives restart bit-identically"
    );
    drop(client);
    let summary = server.stop();
    assert_eq!(summary.counters.hits, 1, "restart served from cache");
    assert_eq!(summary.counters.measured, 0, "nothing re-measured");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_queue_sheds_load_with_retry_after() {
    // queue_capacity 0 + gated workers: every miss is rejected
    // `queue-full` with the advertised retry hint.
    let gate = Arc::new(AtomicBool::new(true));
    let cfg = ServeConfig {
        queue_capacity: 0,
        worker_gate: Some(Arc::clone(&gate)),
        retry_after: Duration::from_millis(125),
        ..fast_config()
    };
    let server = start(cfg);
    let mut client = Client::connect(&server.addr).expect("connect");
    let shed = client.roundtrip(&predict(7, ADD)).expect("answer");
    assert!(shed.contains(r#""status":"rejected""#), "{shed}");
    assert!(shed.contains(r#""reason":"queue-full""#), "{shed}");
    assert!(shed.contains(r#""retry_after_ms":125"#), "{shed}");
    drop(client);
    gate.store(false, Ordering::Relaxed);
    let summary = server.stop();
    assert_eq!(summary.counters.rejected, 1);
    assert_eq!(summary.counters.measured, 0, "shed work never ran");
    let rejections: Vec<_> = summary
        .obs
        .events
        .iter()
        .filter(|e| e.kind() == "serve-rejected")
        .collect();
    assert_eq!(rejections.len(), 1, "exactly one rejection traced");
}

#[test]
fn rate_limited_client_is_rejected_while_others_are_served() {
    let cfg = ServeConfig {
        rate_burst: 1,
        rate_per_sec: 0.0,
        ..fast_config()
    };
    let server = start(cfg);
    let mut client = Client::connect(&server.addr).expect("connect");
    let first = client
        .roundtrip(r#"{"op":"predict","id":1,"client":"noisy","hex":"4801d8"}"#)
        .expect("first");
    assert!(first.contains(r#""status":"ok""#), "{first}");
    let second = client
        .roundtrip(r#"{"op":"predict","id":2,"client":"noisy","hex":"4801d8"}"#)
        .expect("second");
    assert!(second.contains(r#""reason":"rate-limited""#), "{second}");
    // A different client still gets through (and gets the warm hit).
    let other = client
        .roundtrip(r#"{"op":"predict","id":3,"client":"quiet","hex":"4801d8"}"#)
        .expect("other");
    assert!(other.contains(r#""status":"ok""#), "{other}");
    assert!(other.contains(r#""source":"cache""#), "{other}");
    drop(client);
    server.stop();
}

#[test]
fn expired_deadline_never_reaches_a_worker() {
    // Workers are gated, so the queued job is provably untouched when
    // its deadline (1ms) expires; the gate opens only afterwards, and
    // the worker must then cancel — not profile — the job.
    let gate = Arc::new(AtomicBool::new(true));
    let cfg = ServeConfig {
        worker_gate: Some(Arc::clone(&gate)),
        ..fast_config()
    };
    let server = start(cfg);
    let mut client = Client::connect(&server.addr).expect("connect");
    let answer = client
        .roundtrip(r#"{"op":"predict","id":4,"hex":"4801d8","deadline_ms":1}"#)
        .expect("answer");
    assert!(answer.contains(r#""status":"error""#), "{answer}");
    assert!(answer.contains(r#""reason":"miss-timeout""#), "{answer}");
    gate.store(false, Ordering::Relaxed);
    // Give the released worker a moment to (correctly) cancel the job.
    std::thread::sleep(Duration::from_millis(100));
    drop(client);
    let summary = server.stop();
    assert_eq!(
        summary.counters.measured, 0,
        "expired work must never be profiled"
    );
    assert_eq!(summary.counters.deadline_expired, 1);
    let expired: Vec<_> = summary
        .obs
        .events
        .iter()
        .filter(|e| e.kind() == "serve-deadline-expired")
        .collect();
    assert_eq!(expired.len(), 1, "cancellation traced exactly once");
}

#[test]
fn zero_budget_requests_expire_at_admission() {
    let server = start(fast_config());
    let mut client = Client::connect(&server.addr).expect("connect");
    let answer = client
        .roundtrip(r#"{"op":"predict","id":5,"hex":"4801d8","deadline_ms":0}"#)
        .expect("answer");
    assert!(
        answer.contains(r#""reason":"deadline-expired""#),
        "{answer}"
    );
    drop(client);
    let summary = server.stop();
    assert_eq!(summary.counters.deadline_expired, 1);
    assert_eq!(summary.counters.measured, 0);
}

#[test]
fn breaker_trip_sheds_misses_but_still_serves_warm_hits() {
    // Chaos forces requests 1–3 to measure transiently; after the 4th
    // breaker observation the window is [ok, t, t, t] — rate 0.75 ≥
    // 0.5 with min_samples met — so the breaker trips exactly there.
    let plan = FaultPlan::new()
        .transient_at(1, 0)
        .transient_at(2, 0)
        .transient_at(3, 0);
    let cfg = ServeConfig {
        chaos: Some(Arc::new(ChaosInjector::new(plan))),
        breaker: BreakerConfig {
            window: 4,
            min_samples: 4,
            threshold: 0.5,
        },
        ..fast_config()
    };
    let server = start(cfg);
    let mut client = Client::connect(&server.addr).expect("connect");

    // Request 0: measured cleanly → warm cache entry.
    let ok = client.roundtrip(&predict(0, ADD)).expect("measure ADD");
    assert!(ok.contains(r#""status":"ok""#), "{ok}");

    // Requests 1..=3: chaos makes each measurement transiently fail;
    // the 3rd one's observation trips the breaker.
    for id in 1..=3u64 {
        let answer = client.roundtrip(&predict(id, SUB)).expect("chaos miss");
        assert!(
            answer.contains(r#""category":"unreproducible""#),
            "request {id}: {answer}"
        );
    }

    // Request 4: a new miss is shed...
    let shed = client.roundtrip(&predict(4, SUB)).expect("shed");
    assert!(shed.contains(r#""reason":"shedding""#), "{shed}");
    assert!(
        RequestFailure::Shedding.is_retryable(),
        "shedding advertises a retry"
    );
    // ...but the warm hit still answers, and health says degraded.
    let warm = client.roundtrip(&predict(5, ADD)).expect("warm");
    assert!(warm.contains(r#""source":"cache""#), "{warm}");
    let health = client.roundtrip(r#"{"op":"health"}"#).expect("health");
    assert!(health.contains(r#""state":"degraded""#), "{health}");
    assert!(health.contains(r#""breaker":"open""#), "{health}");

    drop(client);
    let summary = server.stop();
    assert!(summary.breaker_tripped);
    let trips: Vec<_> = summary
        .obs
        .wall_events
        .iter()
        .filter(|e| e.kind() == "breaker-trip")
        .collect();
    assert_eq!(trips.len(), 1, "the trip is latched: traced exactly once");
}

#[test]
fn cache_write_error_degrades_writes_but_keeps_serving_hits() {
    let dir = tmp_dir("degrade");
    let cfg = ServeConfig {
        cache_dir: Some(dir.clone()),
        chaos: Some(Arc::new(ChaosInjector::new(
            // Every write fails from the first one on.
            (0..8).fold(FaultPlan::new(), |p, i| p.cache_write_error_at(i)),
        ))),
        ..fast_config()
    };
    let server = start(cfg);
    let mut client = Client::connect(&server.addr).expect("connect");
    // The miss measures fine; persisting it fails → degraded.
    let first = client.roundtrip(&predict(1, ADD)).expect("first");
    assert!(first.contains(r#""status":"ok""#), "{first}");
    let health = client.roundtrip(r#"{"op":"health"}"#).expect("health");
    assert!(health.contains(r#""cache_degraded":true"#), "{health}");
    assert!(health.contains(r#""state":"degraded""#), "{health}");
    // New misses are shed; the degradation never cost us the answer.
    let shed = client.roundtrip(&predict(2, SUB)).expect("shed");
    assert!(shed.contains(r#""reason":"shedding""#), "{shed}");
    drop(client);
    let summary = server.stop();
    assert!(summary.cache_degraded);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn draining_server_rejects_new_misses() {
    // Shutdown with an open connection: the drain flag turns new miss
    // work into `draining` rejections while the connection lasts.
    let server = start(fast_config());
    let mut client = Client::connect(&server.addr).expect("connect");
    let ok = client.roundtrip(&predict(1, ADD)).expect("warm up");
    assert!(ok.contains(r#""status":"ok""#), "{ok}");
    server.handle.shutdown();
    // Wait for the accept loop to notice and set draining.
    std::thread::sleep(Duration::from_millis(50));
    // An error means the drain already closed the connection — equally
    // correct: no new work was accepted.
    if let Ok(answer) = client.roundtrip(&predict(2, SUB)) {
        assert!(
            answer.contains(r#""reason":"draining""#),
            "draining rejections for misses: {answer}"
        );
    }
    drop(client);
    let summary = server.thread.join().expect("thread").expect("run ok");
    assert_eq!(summary.counters.measured, 1, "only the pre-drain miss ran");
}

#[test]
fn cache_only_mode_answers_hit_or_explicit_miss() {
    let server = start(fast_config());
    let mut client = Client::connect(&server.addr).expect("connect");
    let miss = client
        .roundtrip(r#"{"op":"predict","id":1,"hex":"4801d8","mode":"cache_only"}"#)
        .expect("miss");
    assert!(miss.contains(r#""reason":"miss""#), "{miss}");
    // Warm it through the normal path, then cache_only hits.
    client.roundtrip(&predict(2, ADD)).expect("warm up");
    let hit = client
        .roundtrip(r#"{"op":"predict","id":3,"hex":"4801d8","mode":"cache_only"}"#)
        .expect("hit");
    assert!(hit.contains(r#""source":"cache""#), "{hit}");
    drop(client);
    server.stop();
}

#[test]
fn malformed_requests_answer_errors_and_keep_the_connection() {
    let server = start(fast_config());
    let mut client = Client::connect(&server.addr).expect("connect");
    for (line, needle) in [
        ("not json at all", "not valid JSON"),
        (r#"{"op":"predict"}"#, "`hex` or `att`"),
        (r#"{"op":"predict","hex":"zz"}"#, "bad hex"),
        (
            r#"{"op":"predict","hex":"48","uarch":"p6"}"#,
            "this server profiles",
        ),
    ] {
        let answer = client.roundtrip(line).expect("malformed answer");
        assert!(
            answer.contains(r#""reason":"malformed""#),
            "{line}: {answer}"
        );
        assert!(answer.contains(needle), "{line}: {answer}");
    }
    // The connection survived all of it.
    let ok = client.roundtrip(&predict(9, ADD)).expect("still serving");
    assert!(ok.contains(r#""status":"ok""#), "{ok}");
    drop(client);
    let summary = server.stop();
    assert_eq!(summary.malformed, 4);
}

#[test]
fn deeply_nested_line_is_malformed_and_the_daemon_keeps_serving() {
    let server = start(fast_config());
    let mut client = Client::connect(&server.addr).expect("connect");
    let answer = client
        .roundtrip(&"[".repeat(200_000))
        .expect("deep line answered");
    assert!(answer.contains(r#""reason":"malformed""#), "{answer}");
    drop(client);
    let mut fresh = Client::connect(&server.addr).expect("reconnect");
    let health = fresh.roundtrip(r#"{"op":"health"}"#).expect("health");
    assert!(health.contains(r#""state":"serving""#), "{health}");
    drop(fresh);
    assert_eq!(server.stop().malformed, 1);
}

#[test]
fn long_line_in_small_writes_is_malformed_and_the_connection_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    let server = start(fast_config());
    let BindAddr::Tcp(hostport) = &server.addr else {
        unreachable!("started on tcp")
    };
    let mut stream = std::net::TcpStream::connect(hostport.as_str()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // One 8 MiB request line in 4 KiB writes: the reader searches each
    // byte for the newline once, so this is linear in the line length.
    let chunk = [b'x'; 4096];
    for _ in 0..(8 << 20) / chunk.len() {
        stream.write_all(&chunk).expect("send chunk");
    }
    stream
        .write_all(b"\n{\"op\":\"health\"}\n")
        .expect("send tail");
    let mut answers = BufReader::new(stream.try_clone().expect("clone"));
    let mut answer = String::new();
    answers.read_line(&mut answer).expect("long line answered");
    assert!(answer.contains(r#""reason":"malformed""#), "{answer}");
    answer.clear();
    answers.read_line(&mut answer).expect("health answered");
    assert!(answer.contains(r#""state":"serving""#), "{answer}");
    drop((answers, stream));
    assert_eq!(server.stop().malformed, 1);
}

#[test]
fn att_requests_resolve_to_the_same_cache_entry_as_hex() {
    let dir = tmp_dir("att");
    let cfg = ServeConfig {
        cache_dir: Some(dir.clone()),
        ..fast_config()
    };
    let server = start(cfg);
    let mut client = Client::connect(&server.addr).expect("connect");
    let hex = client.roundtrip(&predict(1, ADD)).expect("hex");
    assert!(hex.contains(r#""source":"measured""#), "{hex}");
    // The same block spelled as AT&T text is a warm hit: the cache is
    // content-addressed over the *encoded bytes*.
    let att = client
        .roundtrip(r#"{"op":"predict","id":1,"att":"addq %rbx, %rax"}"#)
        .expect("att");
    assert!(att.contains(r#""source":"cache""#), "{att}");
    assert_eq!(hex.replace("measured", "cache"), att);
    drop(client);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unix_socket_serves_and_is_removed_on_drain() {
    let dir = tmp_dir("unix");
    let sock = dir.join("bhive.sock");
    let addr = BindAddr::Unix(sock.clone());
    let server = Server::bind(fast_config(), &addr).expect("bind unix");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect over unix");
    let ok = client.roundtrip(&predict(1, ADD)).expect("answer");
    assert!(ok.contains(r#""status":"ok""#), "{ok}");
    drop(client);
    handle.shutdown();
    thread.join().expect("thread").expect("run ok");
    assert!(!sock.exists(), "socket file removed by drain");
    std::fs::remove_dir_all(&dir).ok();
}
