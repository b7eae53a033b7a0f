//! # bhive-serve
//!
//! A fault-tolerant throughput-prediction daemon over the BHive
//! measurement pipeline: long-lived, cache-warm, and built to degrade
//! gracefully instead of falling over.
//!
//! Batch profiling (`bhive measure`) amortizes startup over a corpus;
//! interactive consumers — a compiler querying block costs, a CI bot
//! checking a hot loop — need single-block answers *now*, and most of
//! those answers are already sitting in the content-addressed
//! measurement cache. `bhive serve` keeps that cache open in one
//! process and answers over a line-delimited JSON protocol
//! ([`protocol`], `bhive-serve/v1`) on a Unix or TCP socket:
//!
//! * **warm hits** are answered from memory in microseconds, including
//!   cached *permanent failures* (a block that crashes deterministically
//!   answers `failed` instantly instead of re-crashing a worker);
//! * **cold misses** are measured by a bounded worker pool through the
//!   batch pipeline's own attempt chain and cache writer — same
//!   retries, same panic containment, same chaos sites, same cache
//!   records — so a block measured by the server and one measured by
//!   `bhive measure` are bit-identical.
//!
//! The serving layer's own failure handling mirrors the harness's
//! philosophy ([`bhive_harness::RequestFailure`] beside
//! [`bhive_harness::ProfileFailure`]):
//!
//! * [`admission`] — per-client token buckets, a bounded queue, and
//!   load shedding with explicit `retry_after_ms` rejections;
//! * deadline propagation — every request carries a budget; expired
//!   work is cancelled *before* it reaches a worker, and a request that
//!   outlives its budget degrades to a cache-only answer;
//! * graceful degradation — a tripped circuit breaker or a cache write
//!   error sheds new measurement work while warm hits keep flowing, and
//!   the `health` op reports exactly which guard is active;
//! * graceful shutdown — SIGTERM (or [`server::ServerHandle::shutdown`])
//!   drains in-flight work within a bounded deadline; because every
//!   cache record is flushed at insert time, a restarted server answers
//!   previously measured blocks warm and byte-identically.
//!
//! Chaos coverage extends to the connection level: the deterministic
//! [`bhive_harness::FaultPlan`] can schedule mid-request disconnects,
//! slow-loris stalls, and request bursts, and the test suite pins each
//! one to a single trace event at its planned ordinal.
//!
//! ```
//! use bhive_serve::{BindAddr, Client, ServeConfig, Server};
//!
//! # fn main() -> std::io::Result<()> {
//! let addr = BindAddr::parse("tcp:127.0.0.1:0").expect("valid");
//! let server = Server::bind(ServeConfig::default(), &addr)?;
//! let addr = server.local_addr().clone();
//! let handle = server.handle();
//! let running = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(&addr)?;
//! let answer = client.roundtrip(r#"{"op":"predict","id":1,"hex":"4801d8"}"#)?;
//! assert!(answer.contains("\"status\":\"ok\""));
//!
//! handle.shutdown();
//! let summary = running.join().expect("server thread")?;
//! assert_eq!(summary.counters.requests, 1);
//! # Ok(())
//! # }
//! ```

pub mod admission;
pub mod protocol;
pub mod server;

pub use admission::{ClientLimiter, TokenBucket};
pub use protocol::{
    error_response, failed_response, health_response, ok_response, parse_request,
    rejected_response, BlockSource, HealthCounters, PredictRequest, Request, SCHEMA,
};
pub use server::{
    is_protocol_line, BindAddr, Client, Conn, ServeConfig, ServeSummary, Server, ServerHandle,
};
