//! Decoder robustness: arbitrary bytes must never panic, and mutations of
//! valid instructions must either decode or fail cleanly.

use bhive_asm::{
    decode_inst, decode_stream, encode_inst, parse_block, parse_block_att, parse_inst, BasicBlock,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
        let _ = decode_inst(&bytes);
        let _ = decode_stream(&bytes);
        let _ = BasicBlock::decode(&bytes);
    }

    #[test]
    fn single_byte_mutations_fail_cleanly(
        flip_pos in 0usize..16,
        flip_bit in 0u8..8,
        which in 0usize..6,
    ) {
        let texts = [
            "add rax, qword ptr [rbx + 8]",
            "vfmadd231ps ymm0, ymm1, ymm2",
            "imul rax, rbx, 1000",
            "movzx eax, byte ptr [rsi]",
            "pshufd xmm1, xmm2, 0x1b",
            "cmovne r12, qword ptr [rbp - 16]",
        ];
        let inst = parse_inst(texts[which]).expect("fixture parses");
        let mut bytes = Vec::new();
        encode_inst(&inst, &mut bytes).expect("fixture encodes");
        if flip_pos < bytes.len() {
            bytes[flip_pos] ^= 1 << flip_bit;
        }
        // Must not panic; when it decodes, re-encoding must not panic
        // either and the decoded instruction must display.
        if let Ok((decoded, len)) = decode_inst(&bytes) {
            prop_assert!(len <= bytes.len());
            let _ = decoded.to_string();
            let mut rebytes = Vec::new();
            let _ = encode_inst(&decoded, &mut rebytes);
        }
    }

    #[test]
    fn hex_parser_never_panics(s in "[0-9a-fA-Fg-z]{0,40}") {
        let _ = BasicBlock::from_hex(&s);
    }

    #[test]
    fn text_parsers_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = BasicBlock::from_hex(&text);
        let _ = parse_block(&text);
        let _ = parse_block_att(&text);
    }
}
