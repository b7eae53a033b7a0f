//! Open-loop load generator for `bhive serve`.
//!
//! Requests go out at their due times whatever the server is doing, so
//! a stall shows up as latency on every request due during it. Latency
//! is timed from each request's *due* time, and how late the generator
//! itself sent (`lag`) is recorded beside it.
//!
//! One thread drives every connection: it sleeps in `ppoll` until the
//! next request is due or an answer arrives. The server answers each
//! connection's lines in order, so answers are matched to requests by
//! a per-connection FIFO.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// One scheduled request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// When the request is due, relative to the start of the stream.
    pub due: Duration,
    /// Which connection sends it.
    pub conn: usize,
    /// The protocol line, without its newline.
    pub line: String,
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// How late the generator sent the request.
    pub lag: Duration,
    /// Due time to answer, or `None` when no answer came.
    pub latency: Option<Duration>,
    /// The answer line (empty when none came).
    pub response: String,
}

/// Parses a stream file: one `due_us<TAB>conn<TAB>line` per request.
pub fn parse_stream(text: &str) -> Result<Vec<Request>, String> {
    let mut requests = Vec::new();
    for (number, row) in text.lines().enumerate() {
        let mut fields = row.splitn(3, '\t');
        let (Some(due), Some(conn), Some(line)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("stream line {}: expected 3 fields", number + 1));
        };
        let due: u64 = due
            .parse()
            .map_err(|e| format!("stream line {}: due: {e}", number + 1))?;
        let conn: usize = conn
            .parse()
            .map_err(|e| format!("stream line {}: conn: {e}", number + 1))?;
        requests.push(Request {
            due: Duration::from_micros(due),
            conn,
            line: line.to_string(),
        });
    }
    if requests.windows(2).any(|w| w[1].due < w[0].due) {
        return Err("stream is not sorted by due time".into());
    }
    Ok(requests)
}

/// Writes answers as `lag_ns<TAB>latency_ns<TAB>response`, one per
/// request in stream order; a missing answer has latency `-1`.
pub fn format_answers(answers: &[Answer]) -> String {
    let mut out = String::new();
    for answer in answers {
        let latency = answer
            .latency
            .map_or(-1i128, |l| l.as_nanos() as i128)
            .to_string();
        out.push_str(&format!(
            "{}\t{}\t{}\n",
            answer.lag.as_nanos(),
            latency,
            answer.response
        ));
    }
    out
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;

/// `prctl` option that sets the calling thread's timer slack.
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until one of `fds` is readable or `timeout` passes. `ppoll`
/// rather than `poll`, because `poll`'s millisecond timeout would send
/// requests up to a millisecond late.
fn wait_readable(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let spec = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of
    // `repr(C)` pollfd records whose length is passed alongside it;
    // `spec` outlives the call; a null signal mask is allowed and
    // leaves the mask unchanged.
    let ready = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &spec, std::ptr::null()) };
    if ready < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// Asks the kernel to wake this thread on time: the default timer slack
/// of 50 µs would make every request up to 50 µs late.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches no memory of the caller.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

/// Per-connection state: the socket, answers not yet matched, and the
/// bytes of an incomplete answer line.
struct Lane {
    stream: UnixStream,
    pending: VecDeque<usize>,
    buf: Vec<u8>,
    open: bool,
}

/// Sends `requests` on `conns` connections to the server at `path`,
/// open loop, and returns one answer per request in stream order.
/// Requests still unanswered `give_up` after the last one was due get
/// no answer.
pub fn run(
    path: &Path,
    requests: &[Request],
    conns: usize,
    give_up: Duration,
) -> io::Result<Vec<Answer>> {
    tighten_timer_slack();
    let mut lanes = Vec::with_capacity(conns);
    for _ in 0..conns {
        lanes.push(Lane {
            stream: UnixStream::connect(path)?,
            pending: VecDeque::new(),
            buf: Vec::new(),
            open: true,
        });
    }
    if let Some(bad) = requests.iter().find(|r| r.conn >= conns) {
        return Err(io::Error::other(format!(
            "request on connection {} but only {conns} open",
            bad.conn
        )));
    }
    let mut answers: Vec<Answer> = requests
        .iter()
        .map(|_| Answer {
            lag: Duration::ZERO,
            latency: None,
            response: String::new(),
        })
        .collect();
    let start = Instant::now();
    let last_due = requests.last().map_or(Duration::ZERO, |r| r.due);
    let stop = start + last_due + give_up;
    let mut next = 0usize;
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let now = Instant::now();
        while next < requests.len() && start + requests[next].due <= now {
            let request = &requests[next];
            let lane = &mut lanes[request.conn];
            let sent = Instant::now();
            answers[next].lag = sent.saturating_duration_since(start + request.due);
            if lane.open {
                let mut line = Vec::with_capacity(request.line.len() + 1);
                line.extend_from_slice(request.line.as_bytes());
                line.push(b'\n');
                if lane.stream.write_all(&line).is_ok() {
                    lane.pending.push_back(next);
                } else {
                    lane.open = false;
                }
            }
            next += 1;
        }
        let waiting = lanes.iter().any(|l| l.open && !l.pending.is_empty());
        if next == requests.len() && !waiting {
            break;
        }
        let now = Instant::now();
        if now >= stop {
            break;
        }
        let until = if next < requests.len() {
            (start + requests[next].due).min(stop)
        } else {
            stop
        };
        let mut fds: Vec<PollFd> = lanes
            .iter()
            .map(|l| PollFd {
                fd: if l.open && !l.pending.is_empty() {
                    l.stream.as_raw_fd()
                } else {
                    -1
                },
                events: POLLIN,
                revents: 0,
            })
            .collect();
        wait_readable(&mut fds, until.saturating_duration_since(now))?;
        for (lane, fd) in lanes.iter_mut().zip(&fds) {
            if fd.revents & (POLLIN | POLLERR | POLLHUP) == 0 {
                continue;
            }
            let read = lane.stream.read(&mut chunk);
            let received = Instant::now();
            match read {
                Ok(0) | Err(_) => lane.open = false,
                Ok(n) => {
                    lane.buf.extend_from_slice(&chunk[..n]);
                    while let Some(pos) = lane.buf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = lane.buf.drain(..=pos).collect();
                        let Some(index) = lane.pending.pop_front() else {
                            return Err(io::Error::other("answer without a request"));
                        };
                        let answer = &mut answers[index];
                        answer.latency =
                            Some(received.saturating_duration_since(start + requests[index].due));
                        answer.response =
                            String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                    }
                }
            }
        }
    }
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixListener;

    #[test]
    fn stream_parses_and_rejects_unsorted_input() {
        let requests = parse_stream("0\t0\t{\"op\":\"health\"}\n2500\t1\tx\ty\n").unwrap();
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[1].due, Duration::from_micros(2500));
        assert_eq!(requests[1].conn, 1);
        assert_eq!(requests[1].line, "x\ty");
        assert!(parse_stream("5\t0\ta\n4\t0\tb\n").is_err());
        assert!(parse_stream("5\t0\n").is_err());
    }

    /// A server that stalls 80 ms before answering the first request:
    /// the second request, due 10 ms after the first, waits behind it.
    /// Timed from its due time it shows the stall; timed from when it
    /// was sent (closed-loop style) it would not.
    #[test]
    fn latency_counts_from_due_time_through_a_stall() {
        let dir = std::env::temp_dir().join(format!("perfbench-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.sock");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut byte = [0u8; 1];
            let mut answered = 0;
            while answered < 2 {
                conn.read_exact(&mut byte).unwrap();
                if byte[0] == b'\n' {
                    if answered == 0 {
                        std::thread::sleep(Duration::from_millis(80));
                    }
                    conn.write_all(b"{\"status\":\"ok\"}\n").unwrap();
                    answered += 1;
                }
                seen.push(byte[0]);
            }
        });
        let requests = vec![
            Request {
                due: Duration::ZERO,
                conn: 0,
                line: "a".into(),
            },
            Request {
                due: Duration::from_millis(10),
                conn: 0,
                line: "b".into(),
            },
        ];
        let answers = run(&path, &requests, 1, Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let second = answers[1].latency.expect("answered");
        assert!(second >= Duration::from_millis(65), "{second:?}");
        assert!(answers[1].lag < Duration::from_millis(10));
        assert_eq!(answers[1].response, "{\"status\":\"ok\"}");
        let text = format_answers(&answers);
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn unanswered_requests_report_no_latency() {
        let dir = std::env::temp_dir().join(format!("perfbench-silent-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.sock");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(300));
            drop(conn);
        });
        let requests = vec![Request {
            due: Duration::ZERO,
            conn: 0,
            line: "a".into(),
        }];
        let answers = run(&path, &requests, 1, Duration::from_millis(100)).unwrap();
        server.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(answers[0].latency.is_none());
        assert!(
            format_answers(&answers).starts_with(&format!("{}\t-1\t", answers[0].lag.as_nanos()))
        );
    }
}
