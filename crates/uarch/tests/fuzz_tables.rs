//! Fitted-tables loader robustness: arbitrary bytes and text must never
//! panic `FittedTables::from_json`, and mutations of a valid
//! `bhive-tables/v1` document must either load or fail cleanly.

use bhive_uarch::{builtin, FittedTables, PortSet, TableOverrides, UarchKind};
use proptest::prelude::*;

/// JSON fragments and document words, separated by `|`, so generated
/// text gets past the first byte of the parser and into the document
/// validation.
const TOKENS: &str = concat!(
    r#"{|}|[|]|:|,| |"|"schema"|"bhive-tables/v1"|"uarch"|"hsw"|"zen"|"#,
    r#""entries"|"alu"|"latency"|"ports"|null|-1|256|4294967296|0.5|1e999|"#,
    r#""\ud800""#,
);

fn valid_document() -> String {
    let mut overrides = TableOverrides::new();
    overrides.set("alu", 1, PortSet::from_mask(0b0110_0011));
    overrides.set("fp.mul", 5, PortSet::from_mask(0b11));
    FittedTables::new(UarchKind::Haswell, overrides).to_json()
}

/// Loads `text` and, when it loads, applies the overrides the way
/// `--tables` does before any run.
fn load(text: &str) {
    if let Ok((kind, overrides)) = FittedTables::from_json(text) {
        let _ = builtin(kind).with_overrides(overrides).table_fingerprint();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn loader_never_panics_on_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        load(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn loader_never_panics_on_text(text in ".{0,64}") {
        load(&text);
    }

    #[test]
    fn loader_never_panics_on_json_fragments(
        picks in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let tokens: Vec<&str> = TOKENS.split('|').collect();
        let text: String = picks.iter().map(|&i| tokens[i % tokens.len()]).collect();
        load(&text);
    }

    #[test]
    fn mutated_documents_fail_cleanly(
        pos in 0usize..256,
        byte in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let mut bytes = valid_document().into_bytes();
        if pos < bytes.len() {
            if truncate {
                bytes.truncate(pos);
            } else {
                bytes[pos] = byte;
            }
        }
        load(&String::from_utf8_lossy(&bytes));
    }
}
