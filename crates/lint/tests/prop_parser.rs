//! Fuzz harness for the semantic front end: the hand-rolled lexer,
//! parser and full `lint_source` pipeline must never panic — on
//! arbitrary byte soup or on Rust-shaped fragment soup — and must stay
//! deterministic on whatever they are fed. The parser is tolerant by
//! design (it skips what it cannot shape), so "no panic, same answer
//! twice" is the whole contract here.

use demt_lint::lexer::lex;
use demt_lint::parser::parse;
use demt_lint::{lint_source, Config, FileKind};
use proptest::prelude::*;

/// Arbitrary codepoint soup (surrogates dropped): anything a UTF-8
/// file on disk could contain.
fn byte_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x11000, 0..400)
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

/// Rust-shaped fragments: enough structure to reach deep parser paths
/// (items, impls, generics, bodies, chains, directives) while staying
/// free to combine into arbitrarily broken nonsense.
fn fragments() -> impl Strategy<Value = String> {
    const FRAGS: &[&str] = &[
        "fn ",
        "pub ",
        "pub(crate) ",
        "mod m;",
        "mod m {",
        "use a::b::{c, d as e, *};",
        "impl Foo for Bar {",
        "trait T {",
        "struct S<T: Clone> {",
        "enum E {",
        "#[cfg(test)]",
        "#[derive(Debug)]",
        "{",
        "}",
        "(",
        ")",
        "[",
        "]",
        "<",
        ">",
        ">>",
        "<<",
        "&&",
        "||",
        "::",
        "=>",
        "->",
        ";",
        ",",
        ".",
        "x",
        "self",
        "Self::new",
        "'a",
        "'a'",
        "\"str\\\"ing\"",
        "0.5e3",
        "0xff",
        "v[0]",
        ".unwrap()",
        ".expect(\"msg\")",
        "panic!(\"{}\", e)",
        "todo!()",
        ".iter()",
        ".sum::<f64>()",
        ".fold(0.0, |a, b| a + b)",
        "// demt-lint: allow(P1, reason)",
        "// demt-lint: allow(Q9)",
        "/* block\ncomment */",
        "\n",
        " ",
    ];
    prop::collection::vec(0usize..FRAGS.len(), 0..80)
        .prop_map(|idxs| idxs.into_iter().map(|i| FRAGS[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary printable soup: the lexer/parser pair must survive
    /// anything a file on disk can contain.
    #[test]
    fn parser_never_panics_on_byte_soup(src in byte_soup()) {
        let lexed = lex(&src);
        let _ = parse(&lexed);
    }

    /// Rust-shaped soup reaches the deep item/body/chain paths.
    #[test]
    fn parser_never_panics_on_fragment_soup(src in fragments()) {
        let _ = parse(&lex(&src));
    }

    /// The full pipeline (token rules + symbol table + call graph +
    /// directives) never panics and is deterministic on any input.
    #[test]
    fn lint_source_is_total_and_deterministic(src in fragments()) {
        let cfg = Config::default();
        let a = lint_source("soup.rs", &src, FileKind::Library, &cfg);
        let b = lint_source("soup.rs", &src, FileKind::Library, &cfg);
        prop_assert_eq!(a, b);
    }
}
