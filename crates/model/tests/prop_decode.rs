//! Fuzz harness for instance decoding: `serde_json::from_str::<Instance>`
//! must never panic, on arbitrary byte soup or on instance-shaped
//! fragment soup. Every input decodes to a valid instance that
//! round-trips, or is a typed decode error.

use demt_model::Instance;
use proptest::prelude::*;

/// Arbitrary codepoint soup (surrogates dropped).
fn byte_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x11000, 0..400)
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

/// Instance-shaped fragments: a whole valid instance and task, every
/// field name, values the constructors refuse (zero processors,
/// non-positive times, ids out of order), overflowing numbers, bad
/// escapes and the punctuation to recombine them.
fn fragments() -> impl Strategy<Value = String> {
    const FRAGS: &[&str] = &[
        "{\"procs\":2,\"tasks\":[{\"id\":0,\"weight\":1.0,\"times\":[2.0,1.0]}]}",
        "{\"id\":0,\"weight\":1.0,\"times\":[2.0,1.0]}",
        "{\"id\":1,\"weight\":2.5,\"times\":[3.0,2.0]}",
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"procs\"",
        "\"tasks\"",
        "\"id\"",
        "\"weight\"",
        "\"times\"",
        "\"other\"",
        "0",
        "1",
        "2",
        "-1",
        "0.0",
        "1.5",
        "1e400",
        "-0",
        "18446744073709551616",
        "null",
        "false",
        "\"\\u+041\"",
        "\"\\uDC00\"",
        " ",
        "\n",
    ];
    prop::collection::vec(0usize..FRAGS.len(), 0..80)
        .prop_map(|idxs| idxs.into_iter().map(|i| FRAGS[i]).collect())
}

/// Decodes `text`: a valid instance must survive a print/decode round
/// trip; anything else is an error with a message.
fn assert_decode_is_total(text: &str) {
    match serde_json::from_str::<Instance>(text) {
        Ok(inst) => {
            let printed = serde_json::to_string(&inst).expect("an instance serializes");
            let back: Instance = serde_json::from_str(&printed).expect("printed instances decode");
            assert_eq!(back, inst);
        }
        Err(e) => assert!(!e.to_string().is_empty(), "{text:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn instance_decode_never_panics_on_byte_soup(text in byte_soup()) {
        assert_decode_is_total(&text);
    }

    #[test]
    fn instance_decode_never_panics_on_fragment_soup(text in fragments()) {
        assert_decode_is_total(&text);
    }
}
