//! Request-parser robustness: arbitrary bytes and lines must never
//! panic `parse_request`, and mutations of valid requests must either
//! parse or fail cleanly.

use bhive_serve::protocol::{parse_request, Request};
use proptest::prelude::*;

/// JSON fragments and protocol words, separated by `|`, so generated
/// lines get past the first byte of the parser and into the request
/// validation.
const TOKENS: &str = concat!(
    r#"{|}|[|]|:|,| |"|"op"|"predict"|"health"|"hex"|"att"|"4801d8"|"#,
    r#""addq %rbx, %rax"|"id"|"mode"|"cache_only"|"deadline_ms"|"uarch"|"#,
    r#"null|true|-1|0.5|1e999|18446744073709551616|"\ud800""#,
);

const VALID: [&str; 4] = [
    r#"{"op":"predict","id":1,"hex":"4801d8"}"#,
    r#"{"op":"predict","id":7,"client":"ci","uarch":"hsw","att":"addq %rbx, %rax","deadline_ms":250,"mode":"cache_only"}"#,
    r#"{"op":"health"}"#,
    r#"{"op":"predict","hex":"488b4308"}"#,
];

/// Parses `line` and, when it is a predict, decodes its block: the
/// daemon does both to every line it reads.
fn parse_and_decode(line: &str) {
    if let Ok(Request::Predict(p)) = parse_request(line) {
        let _ = p.block.decode();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_request_never_panics_on_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        parse_and_decode(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_request_never_panics_on_lines(line in ".{0,64}") {
        parse_and_decode(&line);
    }

    #[test]
    fn parse_request_never_panics_on_json_fragments(
        picks in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let tokens: Vec<&str> = TOKENS.split('|').collect();
        let line: String = picks.iter().map(|&i| tokens[i % tokens.len()]).collect();
        parse_and_decode(&line);
    }

    #[test]
    fn mutated_requests_fail_cleanly(
        which in 0..VALID.len(),
        pos in 0usize..128,
        byte in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let mut bytes = VALID[which].as_bytes().to_vec();
        if pos < bytes.len() {
            if truncate {
                bytes.truncate(pos);
            } else {
                bytes[pos] = byte;
            }
        }
        parse_and_decode(&String::from_utf8_lossy(&bytes));
    }
}
