//! Fixture corpus: one known-bad snippet per rule, each pinned to the
//! exact rule ids (and for the golden test, the exact JSON) the engine
//! must produce. Regenerate the golden with
//! `UPDATE_GOLDEN=1 cargo test -p demt-lint --test rules`.

use demt_lint::{lint_source, Config, Diagnostic, FileKind, Report};

const FIXTURES: &[(&str, &str)] = &[
    (
        "fixtures/allow_bad.rs",
        include_str!("fixtures/allow_bad.rs"),
    ),
    ("fixtures/allow_ok.rs", include_str!("fixtures/allow_ok.rs")),
    ("fixtures/a2.rs", include_str!("fixtures/a2.rs")),
    ("fixtures/d1.rs", include_str!("fixtures/d1.rs")),
    ("fixtures/d2.rs", include_str!("fixtures/d2.rs")),
    ("fixtures/f1.rs", include_str!("fixtures/f1.rs")),
    ("fixtures/p1.rs", include_str!("fixtures/p1.rs")),
    (
        "fixtures/p1_assert.rs",
        include_str!("fixtures/p1_assert.rs"),
    ),
    ("fixtures/p2.rs", include_str!("fixtures/p2.rs")),
    ("fixtures/u1.rs", include_str!("fixtures/u1.rs")),
];

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let (_, src) = FIXTURES
        .iter()
        .find(|(n, _)| *n == name)
        .expect("fixture listed");
    lint_source(name, src, FileKind::Library, &Config::default())
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

#[test]
fn d1_flags_every_nondeterminism_source() {
    let diags = lint_fixture("fixtures/d1.rs");
    let rules = rules_of(&diags);
    assert!(!diags.is_empty(), "d1.rs must produce findings");
    assert!(rules.iter().all(|r| *r == "D1"), "only D1: {rules:?}");
    // HashMap (type + constructor), Instant::now, SystemTime,
    // thread::current must each be hit at least once.
    let messages: String = diags.iter().map(|d| d.message.as_str()).collect();
    for needle in ["HashMap", "Instant", "SystemTime", "thread::current"] {
        assert!(messages.contains(needle), "missing {needle}: {messages}");
    }
}

#[test]
fn p1_flags_every_panicking_construct() {
    let diags = lint_fixture("fixtures/p1.rs");
    let rules = rules_of(&diags);
    assert_eq!(
        rules,
        vec!["P1"; 5],
        "unwrap/expect/panic/todo/unimplemented"
    );
    let messages: String = diags.iter().map(|d| d.message.as_str()).collect();
    for needle in ["unwrap", "expect", "panic!", "todo!", "unimplemented!"] {
        assert!(messages.contains(needle), "missing {needle}: {messages}");
    }
}

#[test]
fn p1_and_p2_count_the_assert_family() {
    // Four P1 sites (assert!, assert_eq!, assert_ne!, unreachable!),
    // none for debug_assert!, and one P2 for the pub caller of
    // `checked`; the roots themselves sit at distance 0, which P2 does
    // not list.
    let diags = lint_fixture("fixtures/p1_assert.rs");
    assert_eq!(rules_of(&diags), vec!["P1", "P1", "P1", "P1", "P2"]);
    let messages: String = diags.iter().map(|d| d.message.as_str()).collect();
    for needle in [
        "`assert!`",
        "`assert_eq!`",
        "`assert_ne!`",
        "`unreachable!`",
    ] {
        assert!(messages.contains(needle), "missing {needle}: {messages}");
    }
    assert!(!messages.contains("debug_assert"), "{messages}");
    let p2 = &diags[4].message;
    assert!(
        p2.contains("`caller`") || p2.contains("::caller"),
        "names the caller: {p2}"
    );
    assert!(p2.contains("checked"), "shows the call chain: {p2}");
    assert!(p2.contains("`assert!`"), "names the panic site: {p2}");
}

#[test]
fn p1_exempts_binary_and_test_code() {
    let (_, src) = FIXTURES
        .iter()
        .find(|(n, _)| *n == "fixtures/p1.rs")
        .unwrap();
    for kind in [FileKind::Binary, FileKind::Test] {
        let diags = lint_source("fixtures/p1.rs", src, kind, &Config::default());
        assert!(diags.is_empty(), "{kind:?} code may panic: {diags:?}");
    }
}

#[test]
fn f1_flags_bare_float_equality_on_either_side() {
    let diags = lint_fixture("fixtures/f1.rs");
    assert_eq!(rules_of(&diags), vec!["F1"; 3]);
}

#[test]
fn u1_flags_unsafe_and_ignores_the_escape_hatch() {
    // The unsafe is reported AND the would-be directive is itself an
    // A1 error — writing `allow(U1, …)` is never legitimate.
    let diags = lint_fixture("fixtures/u1.rs");
    assert_eq!(rules_of(&diags), vec!["A1", "U1"]);
}

#[test]
fn u1_applies_even_to_test_code() {
    let (_, src) = FIXTURES
        .iter()
        .find(|(n, _)| *n == "fixtures/u1.rs")
        .unwrap();
    let diags = lint_source("fixtures/u1.rs", src, FileKind::Test, &Config::default());
    assert_eq!(rules_of(&diags), vec!["A1", "U1"]);
}

#[test]
fn p2_fires_through_an_allowed_p1_site() {
    // The helper's own panic is P1-suppressed, yet the pub caller is
    // still flagged: suppression silences the report, not the panic.
    let diags = lint_fixture("fixtures/p2.rs");
    assert_eq!(rules_of(&diags), vec!["P2"]);
    let msg = &diags[0].message;
    assert!(msg.contains("entry"), "names the pub fn: {msg}");
    assert!(msg.contains("helper"), "shows the call chain: {msg}");
    assert!(msg.contains("expect"), "names the panic site: {msg}");
}

#[test]
fn p2_exempts_binary_and_test_code() {
    let (_, src) = FIXTURES
        .iter()
        .find(|(n, _)| *n == "fixtures/p2.rs")
        .unwrap();
    for kind in [FileKind::Binary, FileKind::Test] {
        let diags = lint_source("fixtures/p2.rs", src, kind, &Config::default());
        // The fixture's directive goes stale outside library code (P1
        // itself no longer fires), but no reachability finding remains.
        assert!(
            diags.iter().all(|d| d.rule != "P2"),
            "{kind:?} code may reach panics: {diags:?}"
        );
    }
}

#[test]
fn a2_flags_the_stale_suppression() {
    let diags = lint_fixture("fixtures/a2.rs");
    assert_eq!(rules_of(&diags), vec!["A2"]);
    assert!(
        diags[0].message.contains("stale suppression"),
        "message: {}",
        diags[0].message
    );
}

#[test]
fn d2_flags_only_the_unordered_accumulation() {
    let diags = lint_fixture("fixtures/d2.rs");
    assert_eq!(rules_of(&diags), vec!["D2"]);
    assert!(
        diags[0].message.contains("sum"),
        "names the accumulator: {}",
        diags[0].message
    );
    // The slice-backed chain right below must stay clean, so exactly
    // one finding comes out of the two accumulations.
    assert_eq!(diags.len(), 1);
}

#[test]
fn d2_exempts_binary_and_test_code() {
    let (_, src) = FIXTURES
        .iter()
        .find(|(n, _)| *n == "fixtures/d2.rs")
        .unwrap();
    for kind in [FileKind::Binary, FileKind::Test] {
        let diags = lint_source("fixtures/d2.rs", src, kind, &Config::default());
        assert!(diags.is_empty(), "{kind:?} code may accumulate: {diags:?}");
    }
}

#[test]
fn well_formed_directives_suppress() {
    let diags = lint_fixture("fixtures/allow_ok.rs");
    assert!(diags.is_empty(), "allow_ok.rs must lint clean: {diags:?}");
}

#[test]
fn malformed_directives_are_errors_and_suppress_nothing() {
    let diags = lint_fixture("fixtures/allow_bad.rs");
    let rules = rules_of(&diags);
    let a1 = rules.iter().filter(|r| **r == "A1").count();
    let p1 = rules.iter().filter(|r| **r == "P1").count();
    assert_eq!(a1, 3, "reason-less, unknown-rule and unparsable: {rules:?}");
    assert_eq!(p1, 3, "a bad directive must not suppress: {rules:?}");
}

/// The full corpus against one golden JSON document: any change to a
/// rule's spans, messages or ordering must be reviewed here.
#[test]
fn golden_json_over_the_corpus() {
    let mut report = Report::default();
    for (name, src) in FIXTURES {
        report.diagnostics.extend(lint_source(
            name,
            src,
            FileKind::Library,
            &Config::default(),
        ));
    }
    report.files_scanned = FIXTURES.len();
    let actual = format!("{}\n", demt_lint::render_json(&report));

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden.json missing — run UPDATE_GOLDEN=1 cargo test -p demt-lint --test rules");
    assert_eq!(
        actual, golden,
        "diagnostics drifted from tests/fixtures/golden.json; \
         review and regenerate with UPDATE_GOLDEN=1"
    );
}
