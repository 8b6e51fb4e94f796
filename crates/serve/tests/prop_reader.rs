//! Fuzz harness for the daemon's wire decoder: `EventReader` must never
//! panic, on arbitrary byte soup or on JSONL-shaped fragment soup, and
//! every line it refuses must come back as a typed error naming that
//! line, after which it reads on. A rigid submit with any width, time
//! and weight must likewise go through `run_events` or come back as a
//! typed error naming its line.

use demt_serve::{run_events, EventReader, ServeConfig, ServeError, ServeStats};
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

/// A rigid width on an `m`-processor machine: none, one that fits, one
/// past the machine, 2⁶², or any large value.
fn rigid_width(m: usize) -> impl Strategy<Value = u64> {
    let fits = 1..=m as u64;
    // Half the draws fit, so the daemon schedules as often as it refuses.
    (0u32..8, fits, (1u64 << 32)..=u64::MAX).prop_map(move |(pick, fits, large)| match pick {
        0 => 0,
        1 => m as u64 + 1,
        2 => 1 << 62,
        3 => large,
        _ => fits,
    })
}

/// A time or weight: positive, zero, negative or tiny.
fn number() -> impl Strategy<Value = f64> {
    (0u32..7, 1e-3f64..1e3).prop_map(|(pick, x)| match pick {
        0 => x,
        1 => 0.0,
        2 => -0.0,
        3 => -x,
        4 => f64::MIN_POSITIVE,
        5 => 5e-324,
        _ => 1e-300,
    })
}

/// One rigid submit line through the reader and the daemon: the run
/// succeeds, or stops at a parse or event error naming line 1.
fn assert_rigid_submit_is_total(m: usize, procs: u64, time: f64, weight: f64, algorithm: &str) {
    let text = format!(
        "{{\"kind\":\"submit\",\"job\":0,\"release\":0,\"weight\":{weight:?},\"procs\":{procs},\"time\":{time:?},\"times\":[]}}\n"
    );
    let cfg = ServeConfig {
        algorithm: algorithm.to_string(),
        ..ServeConfig::new(m)
    };
    let mut stats = ServeStats::new(m);
    let events = EventReader::new(text.as_bytes());
    match run_events(&cfg, events, &mut Vec::new(), &mut stats, None) {
        Ok(_) => {}
        Err(ServeError::Parse { line, message } | ServeError::Event { line, message }) => {
            assert_eq!(line, 1, "{text}: {message}");
            assert!(!message.is_empty());
        }
        Err(other) => panic!("{text}: unexpected error {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn rigid_submits_of_any_width_run_or_name_their_line(
        (m, procs) in (1usize..=8).prop_flat_map(|m| (Just(m), rigid_width(m))),
        time in number(),
        weight in number(),
    ) {
        for algorithm in ["greedy", "demt"] {
            assert_rigid_submit_is_total(m, procs, time, weight, algorithm);
        }
    }

    #[test]
    fn reader_never_panics_on_byte_soup(text in byte_soup()) {
        assert_reader_is_total(&text);
    }

    #[test]
    fn reader_never_panics_on_fragment_soup(text in fragments()) {
        assert_reader_is_total(&text);
    }
}
