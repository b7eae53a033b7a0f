//! The daemon: listener, connection handling, worker pool, drain.
//!
//! One [`Server`] owns everything: a nonblocking listener (Unix or
//! TCP), a thread per connection, and a bounded queue feeding a small
//! pool of profiling workers. The robustness invariants live here:
//!
//! * **Admission before work** — every predict request passes the
//!   per-client [`ClientLimiter`], the warm-cache lookup, the
//!   degradation check, and the queue bound *in that order*; anything
//!   refused is refused immediately with a protocol-level reason, never
//!   by silence.
//! * **Deadlines propagate** — a request's budget travels with its
//!   [`Job`]; a worker re-checks it before profiling, so expired work
//!   is cancelled at the queue head instead of occupying a worker. A
//!   waiting connection that gives up degrades to a cache-only answer:
//!   a warm hit if one appeared meanwhile, an explicit `miss-timeout`
//!   otherwise.
//! * **Degradation sheds misses, not hits** — a tripped
//!   [`CircuitBreaker`] or a degraded cache stops *new measurement
//!   work* (`shedding` rejections) while warm hits keep being served,
//!   because the hit path runs before the degradation check.
//! * **Drain is bounded** — shutdown stops accepting, lets queued work
//!   finish until `drain_timeout`, cancels the rest, and joins every
//!   thread. The cache is flushed per record while serving, so a
//!   restarted server answers everything previously measured warm and
//!   bit-identically.

use crate::admission::ClientLimiter;
use crate::protocol::{self, HealthCounters, PredictRequest, Request, SCHEMA};
use bhive_asm::BasicBlock;
use bhive_harness::obs::DEFAULT_RING_CAPACITY;
use bhive_harness::{
    interrupt, profile_attempts, BreakerConfig, BreakerState, BucketLayout, CacheWriter,
    CachedOutcome, ChaosInjector, CircuitBreaker, EventBuffer, Machine, Measurement,
    MeasurementCache, Metrics, ProfileConfig, ProfileFailure, Profiler, RequestFailure, RunObs,
    TraceEvent,
};
use bhive_uarch::UarchKind;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Wall-clock service-latency buckets: 1 µs first bucket, doubling, so
/// sub-millisecond warm hits and multi-second cold misses land in one
/// histogram.
const SERVE_LATENCY_NS: BucketLayout = BucketLayout::Exponential {
    first: 1 << 10,
    buckets: 32,
};

/// Everything the daemon needs to know, with safe defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Microarchitecture this server profiles for. Requests naming a
    /// different one are malformed: one server, one uarch, one cache.
    pub uarch: UarchKind,
    /// Profiling configuration (retries included); part of the cache
    /// fingerprint, so it must match across restarts for warm answers.
    pub config: ProfileConfig,
    /// Cache directory; `None` serves memory-only (no warm restarts).
    pub cache_dir: Option<PathBuf>,
    /// Profiling worker threads (≥ 1).
    pub workers: usize,
    /// Bound on queued miss-work; 0 rejects every miss `queue-full`.
    pub queue_capacity: usize,
    /// Token-bucket burst per client.
    pub rate_burst: u32,
    /// Token-bucket refill per client, tokens/second.
    pub rate_per_sec: f64,
    /// Deadline for requests that do not carry `deadline_ms`.
    pub default_deadline: Duration,
    /// Socket read deadline: idle connections poll at this period, and
    /// a connection stalled *mid-line* longer than this is cut
    /// (slow-loris containment).
    pub read_timeout: Duration,
    /// How long shutdown waits for queued work before cancelling it.
    pub drain_timeout: Duration,
    /// Fixed retry hint advertised with every rejection; fixed (rather
    /// than load-derived) so rejection lines are deterministic.
    pub retry_after: Duration,
    /// Run-health breaker over worker measurement outcomes.
    pub breaker: BreakerConfig,
    /// Deterministic fault injection: panics and forced transients
    /// addressed by (request ordinal, attempt), write-ordinal cache
    /// errors to degrade the cache.
    pub chaos: Option<Arc<ChaosInjector>>,
    /// Test-only worker throttle: while `true`, workers leave the queue
    /// untouched, so tests can expire deadlines while jobs are
    /// *provably still queued*.
    pub worker_gate: Option<Arc<AtomicBool>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            uarch: UarchKind::Haswell,
            config: ProfileConfig::bhive(),
            cache_dir: None,
            workers: 2,
            queue_capacity: 64,
            rate_burst: 64,
            rate_per_sec: 64.0,
            default_deadline: Duration::from_secs(10),
            read_timeout: Duration::from_millis(250),
            drain_timeout: Duration::from_secs(5),
            retry_after: Duration::from_millis(100),
            breaker: BreakerConfig::default(),
            chaos: None,
            worker_gate: None,
        }
    }
}

/// Where the server listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP host:port.
    Tcp(String),
}

impl BindAddr {
    /// Parses `unix:/path/to.sock` or `tcp:host:port`.
    pub fn parse(text: &str) -> Result<BindAddr, String> {
        if let Some(path) = text.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix: needs a socket path".to_string());
            }
            Ok(BindAddr::Unix(PathBuf::from(path)))
        } else if let Some(addr) = text.strip_prefix("tcp:") {
            if !addr.contains(':') {
                return Err("tcp: needs host:port".to_string());
            }
            Ok(BindAddr::Tcp(addr.to_string()))
        } else {
            Err(format!(
                "listen address `{text}` must start with unix: or tcp:"
            ))
        }
    }
}

impl std::fmt::Display for BindAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            BindAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A connected stream of either family; `Read + Write` either way.
#[derive(Debug)]
pub enum Conn {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    Unix(UnixStream),
}

impl Conn {
    /// Connects a client to a listening server.
    pub fn connect(addr: &BindAddr) -> io::Result<Conn> {
        match addr {
            BindAddr::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            BindAddr::Tcp(hostport) => {
                let stream = TcpStream::connect(hostport.as_str())?;
                // One request line per roundtrip: Nagle + delayed ACK
                // would add a ~40ms stall to every exchange.
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
        }
    }

    /// Applies a read deadline (None = block forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                // Responses are one short line each; never batch them
                // behind Nagle.
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }
}

/// One unit of queued miss-work.
struct Job {
    /// Admission-order request ordinal (trace key).
    request: usize,
    key: u64,
    block: BasicBlock,
    deadline: Instant,
    /// Set by the waiting connection when it gives up; a worker seeing
    /// it skips the job without profiling.
    cancelled: Arc<AtomicBool>,
    reply: mpsc::Sender<Result<Measurement, ProfileFailure>>,
}

/// The wire view of the `serve.*` counters: every serve event is
/// counted once, in the metrics registry, and read back from there.
fn health_counters(metrics: &Metrics) -> HealthCounters {
    HealthCounters {
        requests: metrics.counter("serve.requests"),
        hits: metrics.counter("serve.hits"),
        misses: metrics.counter("serve.misses"),
        measured: metrics.counter("serve.measured"),
        rejected: metrics
            .counters()
            .filter(|(name, _)| name.starts_with("serve.rejected."))
            .map(|(_, n)| n)
            .sum(),
        deadline_expired: metrics.counter("serve.deadline-expired"),
    }
}

struct Shared {
    cfg: ServeConfig,
    profiler: Profiler,
    /// The warm store every lookup hits first: answers measured by
    /// *this* process. Lives in memory so a server without a cache
    /// directory still serves warm hits.
    memory: Mutex<std::collections::HashMap<u64, CachedOutcome>>,
    /// The persistence layer: previously measured answers loaded at
    /// bind, new ones appended per record through `writer`. `None` =
    /// memory-only.
    cache: Mutex<Option<MeasurementCache>>,
    writer: CacheWriter,
    breaker: Mutex<CircuitBreaker>,
    breaker_open: AtomicBool,
    draining: AtomicBool,
    workers_stop: AtomicBool,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    limiter: Mutex<ClientLimiter>,
    next_request: AtomicUsize,
    obs: Mutex<EventBuffer>,
}

impl Shared {
    fn trace(&self, event: TraceEvent) {
        self.obs.lock().unwrap().emit(event);
    }

    fn metric(&self, name: &str, delta: u64) {
        self.obs.lock().unwrap().add(name, delta);
    }

    fn latency(&self, name: &str, elapsed: Duration) {
        self.obs
            .lock()
            .unwrap()
            .observe_wall(name, SERVE_LATENCY_NS, elapsed.as_nanos() as u64);
    }

    fn degraded(&self) -> bool {
        self.breaker_open.load(Ordering::Relaxed) || self.writer.is_degraded()
    }

    fn state_name(&self) -> &'static str {
        if self.draining.load(Ordering::Relaxed) {
            "draining"
        } else if self.degraded() {
            "degraded"
        } else {
            "serving"
        }
    }

    fn cache_get(&self, key: u64) -> Option<CachedOutcome> {
        if let Some(outcome) = self.memory.lock().unwrap().get(&key) {
            return Some(outcome.clone());
        }
        self.cache.lock().unwrap().as_ref()?.get(key).cloned()
    }

    /// Stores one cacheable outcome: always into the in-memory warm
    /// store, and onto disk through the harness's [`CacheWriter`] when a
    /// cache directory is configured. The first write error degrades
    /// the server to *write-off*: no further persistence is attempted,
    /// but both the memory store and the already-loaded disk records
    /// keep answering warm hits — degradation sheds miss-work, never
    /// hits.
    fn store(&self, request: usize, key: u64, outcome: &Result<Measurement, ProfileFailure>) {
        if outcome.as_ref().is_err_and(ProfileFailure::is_transient) {
            return;
        }
        self.memory
            .lock()
            .unwrap()
            .insert(key, outcome.clone().into());
        let mut cache = self.cache.lock().unwrap();
        let chaos = self.cfg.chaos.as_deref();
        let obs = || Some(self.obs.lock().unwrap());
        if self
            .writer
            .persist(cache.as_mut(), key, outcome, request, chaos, obs)
        {
            self.metric("serve.cache.degraded", 1);
        }
    }

    fn reject(&self, id: Option<u64>, request: usize, reason: RequestFailure) -> String {
        self.metric(&format!("serve.rejected.{}", reason.category()), 1);
        self.trace(TraceEvent::ServeRejected {
            request,
            reason: reason.category().to_string(),
        });
        protocol::rejected_response(id, reason, self.cfg.retry_after.as_millis() as u64)
    }

    fn expire(&self, id: Option<u64>, request: usize) -> String {
        self.deadline_expired(request);
        protocol::error_response(
            id,
            RequestFailure::DeadlineExpired.category(),
            "deadline expired before any work was scheduled",
        )
    }

    fn deadline_expired(&self, request: usize) {
        self.metric("serve.deadline-expired", 1);
        self.trace(TraceEvent::ServeDeadlineExpired { request });
    }

    fn outcome_response(
        &self,
        id: Option<u64>,
        outcome: Result<Measurement, ProfileFailure>,
        source: &str,
    ) -> String {
        match outcome {
            Ok(m) => protocol::ok_response(id, m.throughput, source),
            Err(f) => protocol::failed_response(id, &f),
        }
    }

    /// Answers one predict request end to end (admission → cache →
    /// queue → wait).
    fn predict(&self, p: PredictRequest) -> String {
        let request = self.next_request.fetch_add(1, Ordering::Relaxed);
        self.metric("serve.requests", 1);
        let started = Instant::now();

        if let Some(uarch) = &p.uarch {
            if UarchKind::parse(uarch) != Some(self.cfg.uarch) {
                self.metric("serve.malformed", 1);
                return protocol::error_response(
                    p.id,
                    RequestFailure::Malformed.category(),
                    &format!(
                        "this server profiles {}, not `{uarch}`",
                        self.cfg.uarch.short_name()
                    ),
                );
            }
        }
        let block = match p.block.decode() {
            Ok(block) => block,
            Err(detail) => {
                self.metric("serve.malformed", 1);
                return protocol::error_response(
                    p.id,
                    RequestFailure::Malformed.category(),
                    &detail,
                );
            }
        };

        if !self.limiter.lock().unwrap().admit(&p.client, started) {
            return self.reject(p.id, request, RequestFailure::RateLimited);
        }

        // A block that decodes but does not encode fails permanently and
        // has no content address; answer it inline (it is immediate).
        let Some(key) = self.profiler.content_key(&block) else {
            let outcome = self.profiler.profile(&block);
            return self.outcome_response(p.id, outcome, "measured");
        };

        // Warm hit — answered before any degradation check, which is
        // exactly why a breaker-tripped server still serves hits.
        if let Some(outcome) = self.cache_get(key) {
            self.metric("serve.hits", 1);
            self.latency("serve.latency.hit-ns", started.elapsed());
            return self.outcome_response(p.id, outcome.into_result(), "cache");
        }
        self.metric("serve.misses", 1);

        if p.cache_only {
            return protocol::error_response(
                p.id,
                "miss",
                "block is not in the warm cache (cache_only mode)",
            );
        }
        if self.draining.load(Ordering::Relaxed) {
            return self.reject(p.id, request, RequestFailure::Draining);
        }
        if self.degraded() {
            return self.reject(p.id, request, RequestFailure::Shedding);
        }

        let budget = p
            .deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(self.cfg.default_deadline);
        if budget.is_zero() {
            return self.expire(p.id, request);
        }
        let deadline = started + budget;

        let (reply, answer) = mpsc::channel();
        let cancelled = Arc::new(AtomicBool::new(false));
        {
            let mut queue = self.queue.lock().unwrap();
            if queue.len() >= self.cfg.queue_capacity {
                return self.reject(p.id, request, RequestFailure::QueueFull);
            }
            queue.push_back(Job {
                request,
                key,
                block,
                deadline,
                cancelled: Arc::clone(&cancelled),
                reply,
            });
            self.queue_cv.notify_one();
        }

        match answer.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(outcome) => {
                self.latency("serve.latency.miss-ns", started.elapsed());
                self.outcome_response(p.id, outcome, "measured")
            }
            // Timed out waiting, or the worker skipped the job (expired
            // deadline drops the reply sender). Either way: degrade to a
            // cache-only answer.
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                cancelled.store(true, Ordering::Relaxed);
                if let Some(outcome) = self.cache_get(key) {
                    self.metric("serve.hits", 1);
                    return self.outcome_response(p.id, outcome.into_result(), "cache");
                }
                self.metric("serve.miss-timeout", 1);
                protocol::error_response(
                    p.id,
                    RequestFailure::MissTimeout.category(),
                    "deadline passed before the block was measured; retry later for a warm answer",
                )
            }
        }
    }

    fn handle_line(&self, line: &str) -> String {
        match protocol::parse_request(line) {
            Err(detail) => {
                self.metric("serve.malformed", 1);
                protocol::error_response(None, RequestFailure::Malformed.category(), &detail)
            }
            Ok(Request::Health) => protocol::health_response(
                self.state_name(),
                self.breaker_open.load(Ordering::Relaxed),
                self.writer.is_degraded(),
                health_counters(self.obs.lock().unwrap().metrics()),
            ),
            Ok(Request::Predict(p)) => self.predict(p),
        }
    }
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    let mut machine = Machine::new(shared.profiler.uarch(), 0);
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                let gated = shared
                    .cfg
                    .worker_gate
                    .as_ref()
                    .is_some_and(|g| g.load(Ordering::Relaxed));
                if !gated {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if shared.workers_stop.load(Ordering::Relaxed) {
                        return;
                    }
                } else if shared.workers_stop.load(Ordering::Relaxed) {
                    return;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(5))
                    .unwrap();
                queue = guard;
            }
        };
        run_job(shared, job, &mut machine);
    }
}

fn run_job(shared: &Shared, job: Job, machine: &mut Machine) {
    // Deadline check at the queue head: expired or abandoned work is
    // cancelled here and never reaches the profiler.
    if job.cancelled.load(Ordering::Relaxed) || Instant::now() >= job.deadline {
        shared.deadline_expired(job.request);
        return;
    }
    // A concurrent job for the same block may have landed meanwhile.
    if let Some(outcome) = shared.cache_get(job.key) {
        let _ = job.reply.send(outcome.into_result());
        return;
    }
    // The batch pipeline's attempt chain, addressed by request ordinal;
    // attempt-level events stay out of the serve trace.
    let outcome = profile_attempts(
        &shared.profiler,
        &job.block,
        machine,
        0..=shared.profiler.config().retry.retries,
        job.request,
        shared.cfg.chaos.as_deref(),
        None,
    )
    .outcome;
    shared.metric("serve.measured", 1);

    let transient = outcome.as_ref().err().is_some_and(|f| f.is_transient());
    {
        let mut breaker = shared.breaker.lock().unwrap();
        let was_open = breaker.state() == BreakerState::Open;
        breaker.observe(transient);
        if !was_open {
            if let Some(trip) = breaker.trip() {
                shared.breaker_open.store(true, Ordering::Relaxed);
                shared.metric("serve.breaker.trip", 1);
                shared
                    .obs
                    .lock()
                    .unwrap()
                    .emit_wall(TraceEvent::BreakerTrip {
                        at_block: trip.at_block,
                        rate: trip.rate,
                        window: trip.window,
                    });
            }
        }
    }
    shared.store(job.request, job.key, &outcome);
    let _ = job.reply.send(outcome);
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

enum LineEvent {
    Line(String),
    CleanEof,
    DroppedMidLine,
    Idle,
    Stalled,
    Error,
}

struct LineReader {
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched for a newline, so each
    /// byte is searched once however many reads a long line takes.
    scanned: usize,
}

impl LineReader {
    fn new() -> LineReader {
        LineReader {
            buf: Vec::new(),
            scanned: 0,
        }
    }

    /// Reads up to the next newline, classifying how the read ended:
    /// EOF with a *partial* line buffered is a mid-request disconnect,
    /// and a read timeout with a partial line buffered is a slow-loris
    /// stall — both distinct from a clean EOF or an idle keep-alive.
    fn next(&mut self, conn: &mut Conn) -> LineEvent {
        loop {
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=self.scanned + pos).collect();
                line.pop();
                self.scanned = 0;
                return LineEvent::Line(String::from_utf8_lossy(&line).into_owned());
            }
            self.scanned = self.buf.len();
            let mut chunk = [0u8; 4096];
            match conn.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        LineEvent::CleanEof
                    } else {
                        LineEvent::DroppedMidLine
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return if self.buf.is_empty() {
                        LineEvent::Idle
                    } else {
                        LineEvent::Stalled
                    };
                }
                Err(_) => return LineEvent::Error,
            }
        }
    }
}

fn handle_conn(shared: &Shared, mut conn: Conn, ordinal: usize) {
    let _ = conn.set_read_timeout(Some(shared.cfg.read_timeout));
    let mut reader = LineReader::new();
    loop {
        match reader.next(&mut conn) {
            LineEvent::Line(line) => {
                let mut response = shared.handle_line(&line);
                response.push('\n');
                if conn.write_all(response.as_bytes()).is_err() {
                    // The peer vanished between request and response.
                    shared.metric("serve.conn.dropped", 1);
                    shared.trace(TraceEvent::ServeConnDropped { conn: ordinal });
                    return;
                }
            }
            LineEvent::CleanEof => return,
            LineEvent::DroppedMidLine => {
                shared.metric("serve.conn.dropped", 1);
                shared.trace(TraceEvent::ServeConnDropped { conn: ordinal });
                return;
            }
            LineEvent::Idle => {
                // Keep-alive poll; a draining server closes idle
                // connections instead of holding the drain open.
                if shared.draining.load(Ordering::Relaxed) {
                    return;
                }
            }
            LineEvent::Stalled => {
                shared.metric("serve.conn.read-timeout", 1);
                shared.trace(TraceEvent::ServeReadTimeout { conn: ordinal });
                return;
            }
            LineEvent::Error => return,
        }
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// What one server run did, returned by [`Server::run`] after drain.
#[derive(Debug)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Final counter snapshot (requests, hits, misses, ...).
    pub counters: HealthCounters,
    /// Mid-request disconnects observed.
    pub conn_drops: u64,
    /// Slow-loris stalls cut by the read deadline.
    pub read_timeouts: u64,
    /// Malformed lines answered with an error.
    pub malformed: u64,
    /// True when the breaker tripped during the run.
    pub breaker_tripped: bool,
    /// True when a write error degraded the cache mid-run.
    pub cache_degraded: bool,
    /// Merged observability (events + metrics) for the whole run.
    pub obs: RunObs,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.counters;
        write!(
            f,
            "served {} requests over {} connections: {} warm hits, {} misses \
             ({} measured), {} rejected, {} deadline-expired, {} dropped conns, \
             {} read timeouts, {} malformed",
            c.requests,
            self.connections,
            c.hits,
            c.misses,
            c.measured,
            c.rejected,
            c.deadline_expired,
            self.conn_drops,
            self.read_timeouts,
            self.malformed
        )?;
        if self.breaker_tripped {
            write!(f, "; BREAKER TRIPPED: miss-work was shed")?;
        }
        if self.cache_degraded {
            write!(f, "; CACHE DEGRADED: ran cache-off after a write error")?;
        }
        Ok(())
    }
}

/// Remote control for a running server: request shutdown from another
/// thread (tests) or a signal handler path (the CLI).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Asks the accept loop to stop and the server to drain.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    shared: Arc<Shared>,
    listener: Listener,
    addr: BindAddr,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener and opens the warm cache (sweeping orphaned
    /// lock sidecars and recovering torn tails exactly like batch runs
    /// do). An existing Unix socket path is replaced.
    ///
    /// # Errors
    ///
    /// I/O errors binding the socket or opening the cache.
    pub fn bind(cfg: ServeConfig, addr: &BindAddr) -> io::Result<Server> {
        let mut obs = EventBuffer::new(DEFAULT_RING_CAPACITY);
        let cache = match &cfg.cache_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let cache = MeasurementCache::open(dir, cfg.uarch, &cfg.config)?;
                let report = cache.open_report();
                obs.emit(TraceEvent::CacheOpened {
                    loaded: report.loaded,
                    stale_evictions: report.stale_evictions,
                    transient_evictions: report.transient_evictions,
                    dropped_records: report.dropped_records,
                    dropped_bytes: report.dropped_bytes,
                });
                Some(cache)
            }
            None => None,
        };
        let listener = match addr {
            BindAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Listener::Unix(UnixListener::bind(path)?)
            }
            BindAddr::Tcp(hostport) => Listener::Tcp(TcpListener::bind(hostport.as_str())?),
        };
        listener.set_nonblocking(true)?;
        let bound = match (&listener, addr) {
            (Listener::Tcp(l), _) => BindAddr::Tcp(l.local_addr()?.to_string()),
            (_, addr) => addr.clone(),
        };
        let profiler = Profiler::new(cfg.uarch.desc(), cfg.config.clone());
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            profiler,
            memory: Mutex::new(std::collections::HashMap::new()),
            cache: Mutex::new(cache),
            writer: CacheWriter::default(),
            breaker: Mutex::new(CircuitBreaker::new(cfg.breaker)),
            breaker_open: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            workers_stop: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            limiter: Mutex::new(ClientLimiter::new(cfg.rate_burst, cfg.rate_per_sec)),
            next_request: AtomicUsize::new(0),
            obs: Mutex::new(obs),
            cfg: ServeConfig { workers, ..cfg },
        });
        Ok(Server {
            shared,
            listener,
            addr: bound,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address the listener actually bound (with the OS-assigned
    /// port for `tcp:host:0`).
    pub fn local_addr(&self) -> &BindAddr {
        &self.addr
    }

    /// A handle that can request shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// Runs the accept loop until shutdown is requested (via
    /// [`ServerHandle::shutdown`] or a SIGINT/SIGTERM observed through
    /// [`interrupt::interrupted`]), then drains: stop accepting, give
    /// queued work up to `drain_timeout` to finish, cancel the rest,
    /// join every worker and connection thread, flush and close the
    /// cache, and remove the Unix socket.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection errors are contained.
    pub fn run(self) -> io::Result<ServeSummary> {
        let Server {
            shared,
            listener,
            addr,
            shutdown,
        } = self;
        let workers: Vec<_> = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bhive-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let mut conns = Vec::new();
        let mut next_conn = 0usize;
        while !shutdown.load(Ordering::Relaxed) && !interrupt::interrupted() {
            match listener.accept() {
                Ok(conn) => {
                    let ordinal = next_conn;
                    next_conn += 1;
                    let shared = Arc::clone(&shared);
                    let handle = std::thread::Builder::new()
                        .name(format!("bhive-serve-conn-{ordinal}"))
                        .spawn(move || handle_conn(&shared, conn, ordinal))
                        .expect("spawn connection thread");
                    conns.push(handle);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: no new work is admitted (connections still open get
        // `draining` rejections for misses), queued work gets a bounded
        // grace period, the rest is cancelled.
        shared.draining.store(true, Ordering::Relaxed);
        let drain_deadline = Instant::now() + shared.cfg.drain_timeout;
        loop {
            let outstanding = shared.queue.lock().unwrap().len();
            if outstanding == 0 || Instant::now() >= drain_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for job in shared.queue.lock().unwrap().drain(..) {
            job.cancelled.store(true, Ordering::Relaxed);
            shared.deadline_expired(job.request);
        }
        shared.workers_stop.store(true, Ordering::Relaxed);
        shared.queue_cv.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
        // Connection threads exit on their next idle poll (bounded by
        // the read timeout) once draining is set.
        for conn in conns {
            let _ = conn.join();
        }
        if let BindAddr::Unix(path) = &addr {
            let _ = std::fs::remove_file(path);
        }
        // Dropping the cache releases the advisory lock; every record
        // was already flushed at insert time.
        *shared.cache.lock().unwrap() = None;

        let shared = Arc::try_unwrap(shared)
            .unwrap_or_else(|_| panic!("all server threads joined, no Shared refs remain"));
        let obs = RunObs::merge([shared.obs.into_inner().unwrap()]);
        Ok(ServeSummary {
            connections: next_conn as u64,
            counters: health_counters(&obs.metrics),
            conn_drops: obs.metrics.counter("serve.conn.dropped"),
            read_timeouts: obs.metrics.counter("serve.conn.read-timeout"),
            malformed: obs.metrics.counter("serve.malformed"),
            breaker_tripped: shared.breaker_open.load(Ordering::Relaxed),
            cache_degraded: shared.writer.is_degraded(),
            obs,
        })
    }
}

/// A tiny blocking client for tests, scripts, and the CLI's smoke
/// check: connect, send one line, read one line.
pub struct Client {
    conn: Conn,
    reader: LineReader,
}

impl Client {
    /// Connects to a serving daemon.
    ///
    /// # Errors
    ///
    /// Connection errors (server not up, bad address).
    pub fn connect(addr: &BindAddr) -> io::Result<Client> {
        Ok(Client {
            conn: Conn::connect(addr)?,
            reader: LineReader::new(),
        })
    }

    /// Sends one request line and waits for the one response line.
    ///
    /// # Errors
    ///
    /// I/O errors, or an unexpected EOF/stall from the server.
    pub fn roundtrip(&mut self, request: &str) -> io::Result<String> {
        // One write per request: separate request/newline segments would
        // re-trigger the Nagle/delayed-ACK stall nodelay avoids.
        let mut line = Vec::with_capacity(request.len() + 1);
        line.extend_from_slice(request.as_bytes());
        line.push(b'\n');
        self.conn.write_all(&line)?;
        self.conn.flush()?;
        loop {
            match self.reader.next(&mut self.conn) {
                LineEvent::Line(line) => return Ok(line),
                LineEvent::Idle | LineEvent::Stalled => continue,
                LineEvent::CleanEof | LineEvent::DroppedMidLine => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection before responding",
                    ));
                }
                LineEvent::Error => {
                    return Err(io::Error::other("read error waiting for response"));
                }
            }
        }
    }

    /// The raw connection, for tests that need to misbehave (partial
    /// writes, stalls, mid-request hangups).
    pub fn conn_mut(&mut self) -> &mut Conn {
        &mut self.conn
    }
}

/// Convenience used by tests and the smoke script: assert a line is a
/// `bhive-serve/v1` response.
pub fn is_protocol_line(line: &str) -> bool {
    line.contains(SCHEMA)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_addr_parses_both_families() {
        assert_eq!(
            BindAddr::parse("unix:/tmp/s.sock").unwrap(),
            BindAddr::Unix(PathBuf::from("/tmp/s.sock"))
        );
        assert_eq!(
            BindAddr::parse("tcp:127.0.0.1:0").unwrap(),
            BindAddr::Tcp("127.0.0.1:0".to_string())
        );
        for bad in ["", "unix:", "tcp:", "tcp:8080", "/tmp/s.sock", "udp:x:1"] {
            assert!(BindAddr::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn bind_addr_display_roundtrips() {
        for text in ["unix:/tmp/s.sock", "tcp:127.0.0.1:8080"] {
            assert_eq!(BindAddr::parse(text).unwrap().to_string(), text);
        }
    }
}
