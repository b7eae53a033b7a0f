//! The `bhive-serve/v1` wire protocol: line-delimited JSON.
//!
//! Every request and every response is one JSON object on one line.
//! The vendored serde derive supports no field attributes (optional or
//! renamed fields), so both directions go through
//! [`serde::value::Value`] by hand: requests are parsed permissively
//! (unknown keys ignored, missing optionals defaulted), responses are
//! built field-by-field in a fixed order so identical answers serialize
//! to identical bytes — the bit-identity the restart test asserts.
//!
//! ## Requests
//!
//! ```json
//! {"op":"predict","id":7,"client":"ci","hex":"4801d8","deadline_ms":250}
//! {"op":"predict","id":8,"att":"addq %rbx, %rax","mode":"cache_only"}
//! {"op":"health"}
//! ```
//!
//! `hex` and `att` are mutually exclusive block encodings; `uarch`, when
//! present, must match the uarch the server was started for. `mode` is
//! `"full"` (default) or `"cache_only"`.
//!
//! ## Responses
//!
//! Every response carries `"schema":"bhive-serve/v1"`, the request `id`
//! (or `null`), and a `status`:
//!
//! * `"ok"` — `throughput` (cycles/iteration) and `source`
//!   (`"cache"` or `"measured"`);
//! * `"failed"` — the *block* failed to profile: `category`, `class`,
//!   `detail` (the [`ProfileFailure`] taxonomy);
//! * `"rejected"` — admission control refused the *request*: `reason`
//!   (a retryable [`RequestFailure`] category) and `retry_after_ms`;
//! * `"error"` — the request failed non-retryably: `reason`
//!   (`deadline-expired`, `miss-timeout`, `miss`, `malformed`) and
//!   `detail`;
//! * `"health"` — server state (see [`health_response`]).

use bhive_asm::BasicBlock;
use bhive_harness::{ProfileFailure, RequestFailure};
use serde::value::Value;

/// Protocol tag carried by every response line.
pub const SCHEMA: &str = "bhive-serve/v1";

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Predict the throughput of one block.
    Predict(PredictRequest),
    /// Report server health/degradation state.
    Health,
}

/// The `"op":"predict"` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Client name for per-client token-bucket fairness.
    pub client: String,
    /// Target uarch short name, when the client pins one.
    pub uarch: Option<String>,
    /// The block, as lowercase hex machine code or AT&T assembly.
    pub block: BlockSource,
    /// Deadline budget in milliseconds (server default when absent).
    pub deadline_ms: Option<u64>,
    /// `"cache_only"` mode: answer from the warm cache or say miss —
    /// never schedule measurement work.
    pub cache_only: bool,
}

/// How the request encodes its block.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockSource {
    /// Lowercase hex of the encoded machine code (BHive corpus format).
    Hex(String),
    /// AT&T-syntax assembly text (newline- or `;`-separated).
    Att(String),
}

impl BlockSource {
    /// Decodes into a [`BasicBlock`], with a malformed-detail error.
    pub fn decode(&self) -> Result<BasicBlock, String> {
        match self {
            BlockSource::Hex(hex) => {
                BasicBlock::from_hex(hex).map_err(|e| format!("bad hex block: {e}"))
            }
            BlockSource::Att(att) => {
                bhive_asm::parse_block_att(att).map_err(|e| format!("bad AT&T block: {e}"))
            }
        }
    }
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns the malformed-detail string for anything that is not a
/// well-formed `bhive-serve/v1` request (bad JSON, missing/conflicting
/// fields, wrong types, unknown `op` or `mode`).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("request is not valid JSON: {e}"))?;
    if !matches!(value, Value::Map(_)) {
        return Err(format!(
            "request must be a JSON object, got {}",
            value.kind()
        ));
    }
    let op = value
        .get("op")
        .and_then(as_str)
        .ok_or("request needs a string `op` field")?;
    match op {
        "health" => Ok(Request::Health),
        "predict" => {
            let id = match value.get("id") {
                None | Some(Value::Null) => None,
                Some(v) => Some(as_u64(v).ok_or("`id` must be a non-negative integer")?),
            };
            let client = match value.get("client") {
                None | Some(Value::Null) => "anon".to_string(),
                Some(v) => as_str(v).ok_or("`client` must be a string")?.to_string(),
            };
            let uarch = match value.get("uarch") {
                None | Some(Value::Null) => None,
                Some(v) => Some(as_str(v).ok_or("`uarch` must be a string")?.to_string()),
            };
            let block = match (value.get("hex"), value.get("att")) {
                (Some(hex), None) => {
                    BlockSource::Hex(as_str(hex).ok_or("`hex` must be a string")?.to_string())
                }
                (None, Some(att)) => {
                    BlockSource::Att(as_str(att).ok_or("`att` must be a string")?.to_string())
                }
                (Some(_), Some(_)) => return Err("give `hex` or `att`, not both".to_string()),
                (None, None) => return Err("predict needs a `hex` or `att` block".to_string()),
            };
            let deadline_ms = match value.get("deadline_ms") {
                None | Some(Value::Null) => None,
                Some(v) => Some(as_u64(v).ok_or("`deadline_ms` must be a non-negative integer")?),
            };
            let cache_only = match value.get("mode") {
                None | Some(Value::Null) => false,
                Some(v) => match as_str(v) {
                    Some("full") => false,
                    Some("cache_only") => true,
                    _ => return Err("`mode` must be \"full\" or \"cache_only\"".to_string()),
                },
            };
            Ok(Request::Predict(PredictRequest {
                id,
                client,
                uarch,
                block,
                deadline_ms,
                cache_only,
            }))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

fn id_value(id: Option<u64>) -> Value {
    match id {
        Some(id) => Value::UInt(id),
        None => Value::Null,
    }
}

fn respond(id: Option<u64>, status: &str, rest: Vec<(String, Value)>) -> String {
    let mut fields = vec![
        ("schema".to_string(), Value::Str(SCHEMA.to_string())),
        ("id".to_string(), id_value(id)),
        ("status".to_string(), Value::Str(status.to_string())),
    ];
    fields.extend(rest);
    serde_json::to_string(&Value::Map(fields)).expect("Value serialization cannot fail")
}

/// A successful answer: measured throughput and where it came from.
pub fn ok_response(id: Option<u64>, throughput: f64, source: &str) -> String {
    respond(
        id,
        "ok",
        vec![
            ("throughput".to_string(), Value::Float(throughput)),
            ("source".to_string(), Value::Str(source.to_string())),
        ],
    )
}

/// The *block* failed to profile (a [`ProfileFailure`], not a server
/// problem). Permanent failures are answered from cache on later asks.
pub fn failed_response(id: Option<u64>, failure: &ProfileFailure) -> String {
    respond(
        id,
        "failed",
        vec![
            (
                "category".to_string(),
                Value::Str(failure.category().to_string()),
            ),
            ("class".to_string(), Value::Str(failure.class().to_string())),
            ("detail".to_string(), Value::Str(failure.to_string())),
        ],
    )
}

/// Admission control refused the request; the client should retry after
/// `retry_after_ms`.
pub fn rejected_response(id: Option<u64>, reason: RequestFailure, retry_after_ms: u64) -> String {
    debug_assert!(reason.is_retryable(), "rejections advertise a retry");
    respond(
        id,
        "rejected",
        vec![
            (
                "reason".to_string(),
                Value::Str(reason.category().to_string()),
            ),
            ("retry_after_ms".to_string(), Value::UInt(retry_after_ms)),
        ],
    )
}

/// A non-retryable request error (expired deadline, cache-only miss,
/// malformed line).
pub fn error_response(id: Option<u64>, reason: &str, detail: &str) -> String {
    respond(
        id,
        "error",
        vec![
            ("reason".to_string(), Value::Str(reason.to_string())),
            ("detail".to_string(), Value::Str(detail.to_string())),
        ],
    )
}

/// Counter snapshot for the health reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Predict requests admitted.
    pub requests: u64,
    /// Answers served from the warm cache.
    pub hits: u64,
    /// Requests that missed the cache.
    pub misses: u64,
    /// Misses resolved by actually measuring.
    pub measured: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests whose deadline expired before a worker ran them.
    pub deadline_expired: u64,
}

/// The `/health`-style status reply: overall `state` (`"serving"`,
/// `"degraded"`, `"draining"`), the degradation evidence (breaker and
/// cache), and the counter snapshot.
pub fn health_response(
    state: &str,
    breaker_open: bool,
    cache_degraded: bool,
    counters: HealthCounters,
) -> String {
    respond(
        None,
        "health",
        vec![
            ("state".to_string(), Value::Str(state.to_string())),
            (
                "breaker".to_string(),
                Value::Str(if breaker_open { "open" } else { "closed" }.to_string()),
            ),
            ("cache_degraded".to_string(), Value::Bool(cache_degraded)),
            ("requests".to_string(), Value::UInt(counters.requests)),
            ("hits".to_string(), Value::UInt(counters.hits)),
            ("misses".to_string(), Value::UInt(counters.misses)),
            ("measured".to_string(), Value::UInt(counters.measured)),
            ("rejected".to_string(), Value::UInt(counters.rejected)),
            (
                "deadline_expired".to_string(),
                Value::UInt(counters.deadline_expired),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_predict_with_defaults() {
        let req = parse_request(r#"{"op":"predict","hex":"4801d8"}"#).unwrap();
        let Request::Predict(p) = req else {
            panic!("not a predict");
        };
        assert_eq!(p.id, None);
        assert_eq!(p.client, "anon");
        assert_eq!(p.block, BlockSource::Hex("4801d8".to_string()));
        assert!(!p.cache_only);
        assert!(p.deadline_ms.is_none());
        p.block.decode().expect("valid hex decodes");
    }

    #[test]
    fn parses_full_predict_and_health() {
        let req = parse_request(
            r#"{"op":"predict","id":7,"client":"ci","uarch":"hsw",
                "att":"addq %rbx, %rax","deadline_ms":250,"mode":"cache_only"}"#,
        )
        .unwrap();
        let Request::Predict(p) = req else {
            panic!("not a predict");
        };
        assert_eq!(p.id, Some(7));
        assert_eq!(p.client, "ci");
        assert_eq!(p.uarch.as_deref(), Some("hsw"));
        assert_eq!(p.deadline_ms, Some(250));
        assert!(p.cache_only);
        p.block.decode().expect("valid AT&T decodes");
        assert_eq!(
            parse_request(r#"{"op":"health"}"#).unwrap(),
            Request::Health
        );
    }

    #[test]
    fn malformed_lines_name_the_problem() {
        for (line, needle) in [
            ("not json", "not valid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"op":"launch"}"#, "unknown op"),
            (r#"{"op":"predict"}"#, "`hex` or `att`"),
            (r#"{"op":"predict","hex":"48","att":"nop"}"#, "not both"),
            (r#"{"op":"predict","hex":"48","mode":"turbo"}"#, "`mode`"),
            (r#"{"op":"predict","hex":"48","id":"seven"}"#, "`id`"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn deeply_nested_line_is_an_error_not_a_stack_overflow() {
        // A spawned thread gets the default stack, as a serve connection
        // thread does; unbounded recursion would overflow it.
        let line = "[".repeat(1_000_000);
        let parsed = std::thread::spawn(move || parse_request(&line))
            .join()
            .expect("parser thread must not crash");
        let err = parsed.unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
    }

    #[test]
    fn responses_are_single_schema_tagged_lines() {
        let ok = ok_response(Some(3), 1.25, "cache");
        assert!(ok.contains(r#""schema":"bhive-serve/v1""#), "{ok}");
        assert!(ok.contains(r#""id":3"#), "{ok}");
        assert!(ok.contains(r#""status":"ok""#), "{ok}");
        assert!(ok.contains(r#""source":"cache""#), "{ok}");
        assert!(!ok.contains('\n'));

        let rejected = rejected_response(None, RequestFailure::QueueFull, 100);
        assert!(rejected.contains(r#""reason":"queue-full""#), "{rejected}");
        assert!(rejected.contains(r#""retry_after_ms":100"#), "{rejected}");
        assert!(rejected.contains(r#""id":null"#), "{rejected}");

        let failed = failed_response(Some(1), &ProfileFailure::InvalidAddress { vaddr: 0xdead });
        assert!(
            failed.contains(r#""category":"invalid-address""#),
            "{failed}"
        );
        assert!(failed.contains(r#""class":"permanent""#), "{failed}");

        let health = health_response("serving", false, false, HealthCounters::default());
        assert!(health.contains(r#""state":"serving""#), "{health}");
        assert!(health.contains(r#""breaker":"closed""#), "{health}");
    }

    #[test]
    fn identical_answers_serialize_identically() {
        // The restart test depends on byte-identical warm answers; the
        // fixed field order and deterministic float formatting are what
        // guarantee it.
        let a = ok_response(Some(9), 2.5, "cache");
        let b = ok_response(Some(9), 2.5, "cache");
        assert_eq!(a, b);
    }
}
