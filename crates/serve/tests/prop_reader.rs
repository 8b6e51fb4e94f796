//! Fuzz harness for the daemon's wire decoder: `EventReader` must never
//! panic, on arbitrary byte soup or on JSONL-shaped fragment soup, and
//! every line it refuses must come back as a typed error naming that
//! line, after which it reads on.

use demt_serve::{EventReader, ServeError};
use proptest::prelude::*;

/// Arbitrary codepoint soup (surrogates dropped) with a newline now and
/// then, so one input spans several event lines.
fn byte_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x11000, 0..400).prop_map(|cps| {
        cps.into_iter()
            .filter_map(|c| {
                if c % 29 == 0 {
                    Some('\n')
                } else {
                    char::from_u32(c)
                }
            })
            .collect()
    })
}

/// Event-shaped fragments: whole valid lines, every field name, number
/// spellings JSON refuses (`+1.0`, `.5`) or that overflow, bad escapes,
/// and the punctuation to recombine them into broken nonsense.
fn fragments() -> impl Strategy<Value = String> {
    const FRAGS: &[&str] = &[
        "{\"kind\":\"submit\",\"job\":0,\"release\":0.0,\"weight\":1.0,\"procs\":1,\"time\":1.0,\"times\":[]}",
        "{\"kind\":\"cancel\",\"job\":0,\"release\":1.5,\"weight\":0.0,\"procs\":0,\"time\":0.0,\"times\":[]}",
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"kind\"",
        "\"submit\"",
        "\"cancel\"",
        "\"resize\"",
        "\"job\"",
        "\"release\"",
        "\"weight\"",
        "\"procs\"",
        "\"time\"",
        "\"times\"",
        "\"unknown\"",
        "0",
        "-1",
        "1.5",
        "+1.0",
        ".5",
        "1e400",
        "18446744073709551616",
        "null",
        "true",
        "\"\\u+041\"",
        "\"\\uD800\"",
        "\"x\\ny\"",
        "\"\u{1}\"",
        " ",
        "\t",
        "\n",
        "\r\n",
    ];
    prop::collection::vec(0usize..FRAGS.len(), 0..80)
        .prop_map(|idxs| idxs.into_iter().map(|i| FRAGS[i]).collect())
}

/// Reads `text` to the end: events are submits or cancels, and every
/// error is a parse or event error naming the non-blank line it came
/// from.
fn assert_reader_is_total(text: &str) {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let mut reader = EventReader::new(text.as_bytes());
    while let Some(item) = reader.next() {
        let line = match item {
            Ok((line, ev)) => {
                assert!(ev.kind == "submit" || ev.kind == "cancel", "{ev:?}");
                line
            }
            Err(ServeError::Parse { line, message } | ServeError::Event { line, message }) => {
                assert!(!message.is_empty());
                line
            }
            Err(other) => panic!("{text:?}: unexpected error {other:?}"),
        };
        assert_eq!(line, reader.line());
        let raw = lines.get(line - 1).expect("the line exists");
        assert!(!raw.trim().is_empty(), "blank line {line} reported");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn reader_never_panics_on_byte_soup(text in byte_soup()) {
        assert_reader_is_total(&text);
    }

    #[test]
    fn reader_never_panics_on_fragment_soup(text in fragments()) {
        assert_reader_is_total(&text);
    }
}
