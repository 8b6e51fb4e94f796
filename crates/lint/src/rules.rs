//! The token-level rules: **D1** (nondeterminism sources), **P1**
//! (panicking calls), **F1** (bare float comparisons), **U1** (unsafe),
//! **A1** (escape-hatch hygiene).
//!
//! The engine walks the flat token stream from [`crate::lexer`] with a
//! lightweight region tracker that understands just enough structure to
//! skip `#[cfg(test)]` / `#[test]` items: attributes set a *pending*
//! flag that either opens a skip region at the item's `{` or cancels at
//! its `;`. D1/P1/F1 apply to library code only; U1 applies everywhere.

use crate::config::{known_rule, Config};
use crate::lexer::{Lexed, Token, TokenKind};
use crate::parser::PANIC_MACROS;
use crate::Diagnostic;

/// How the driver classified a file; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code shipped to dependents: all rules apply.
    Library,
    /// Binary / build-script code (`src/bin/`, `main.rs`, `build.rs`):
    /// D1/P1/F1 exempt — binaries own their I/O and may abort.
    Binary,
    /// Tests, benches, examples and `#[cfg(test)]`-only modules:
    /// D1/P1/F1 exempt.
    Test,
}

fn text(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i).map(|t| t.text.as_str())
}

fn kind(toks: &[Token], i: usize) -> Option<TokenKind> {
    toks.get(i).map(|t| t.kind)
}

/// If `toks[i]` starts an attribute (`#[…]` or `#![…]`), returns
/// `(mentions cfg-test or #[test], is inner, index past the closing ])`.
pub(crate) fn parse_attr(toks: &[Token], i: usize) -> Option<(bool, bool, usize)> {
    if text(toks, i) != Some("#") {
        return None;
    }
    let mut j = i + 1;
    let inner = text(toks, j) == Some("!");
    if inner {
        j += 1;
    }
    if kind(toks, j) != Some(TokenKind::Open) || text(toks, j) != Some("[") {
        return None;
    }
    let mut depth = 0usize;
    let mut first_ident: Option<&str> = None;
    let mut saw_test = false;
    while j < toks.len() {
        match kind(toks, j) {
            Some(TokenKind::Open) => depth += 1,
            Some(TokenKind::Close) => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Some(TokenKind::Ident) => {
                if let Some(tok) = toks.get(j) {
                    if first_ident.is_none() {
                        first_ident = Some(tok.text.as_str());
                    }
                    if tok.text == "test" {
                        saw_test = true;
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    // `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]` all count; a
    // stray ident `test` under a non-cfg attr (`#[doc = …]`) does not.
    let is_test = match first_ident {
        Some("cfg") | Some("cfg_attr") => saw_test,
        Some("test") => true,
        _ => false,
    };
    Some((is_test, inner, j + 1))
}

/// Runs D1/P1/F1/U1/A1 over one lexed file, applies the escape hatch
/// and drops allow-level findings — the single-file convenience entry.
/// The workspace driver instead uses [`scan_tokens`] +
/// [`apply_directives`] so semantic diagnostics (P2/D2) participate in
/// suppression and stale-directive (A2) accounting.
#[cfg(test)]
pub fn lint_tokens(
    path: &str,
    lexed: &Lexed,
    file_kind: FileKind,
    cfg: &Config,
) -> Vec<Diagnostic> {
    let raw = scan_tokens(path, lexed, file_kind, cfg);
    let (mut kept, a2) = apply_directives(path, lexed, raw, cfg);
    kept.extend(a2);
    kept.retain(|d| d.level != crate::config::Level::Allow);
    kept
}

/// Runs the token rules over one lexed file and returns *raw*
/// diagnostics: no directive suppression applied, allow-level findings
/// included (the driver needs them for usage accounting).
pub fn scan_tokens(
    path: &str,
    lexed: &Lexed,
    file_kind: FileKind,
    cfg: &Config,
) -> Vec<Diagnostic> {
    let mut raw: Vec<Diagnostic> = Vec::new();
    let toks = &lexed.tokens;
    let timing = cfg.is_timing_module(path);

    // ---- region tracking state ----
    let mut brace_depth: i64 = 0;
    let mut delim_depth: i64 = 0; // ( and [ nesting, for attr-pending cancel
    let mut skip_stack: Vec<i64> = Vec::new(); // brace_depth at region open
    let mut file_test = false;
    // (brace_depth, delim_depth) where a test attribute was seen.
    let mut pending: Option<(i64, i64)> = None;

    let emit = |rule: &str, t: &Token, message: String, out: &mut Vec<Diagnostic>| {
        let level = cfg.level(rule);
        out.push(Diagnostic {
            rule: rule.to_string(),
            level,
            path: path.to_string(),
            line: t.line,
            col: t.col,
            message,
        });
    };

    let mut i = 0usize;
    while i < toks.len() {
        // Attributes first: they drive the skip regions.
        if let Some((is_test, inner, end)) = parse_attr(toks, i) {
            if is_test {
                if inner {
                    if brace_depth == 0 {
                        file_test = true;
                    } else {
                        // `{ #![cfg(test)] … }`: region lasts until the
                        // enclosing block closes.
                        skip_stack.push(brace_depth - 1);
                    }
                } else {
                    pending = Some((brace_depth, delim_depth));
                }
            }
            i = end;
            continue;
        }

        let Some(t) = toks.get(i) else { break };
        let in_test = file_test || !skip_stack.is_empty();
        let lib = file_kind == FileKind::Library && !in_test;

        match t.kind {
            TokenKind::Open => {
                if t.text == "{" {
                    if let Some((bd, dd)) = pending {
                        if bd == brace_depth && dd == delim_depth {
                            skip_stack.push(brace_depth);
                            pending = None;
                        }
                    }
                    brace_depth += 1;
                } else {
                    delim_depth += 1;
                }
            }
            TokenKind::Close => {
                if t.text == "}" {
                    brace_depth -= 1;
                    while matches!(skip_stack.last(), Some(&d) if brace_depth <= d) {
                        skip_stack.pop();
                    }
                } else {
                    delim_depth -= 1;
                }
            }
            TokenKind::Punct if t.text == ";" => {
                if let Some((bd, dd)) = pending {
                    if bd == brace_depth && dd == delim_depth {
                        pending = None; // e.g. `#[cfg(test)] mod tests;`
                    }
                }
            }
            TokenKind::Ident => {
                let word = t.text.as_str();
                // U1: everywhere, every file kind.
                if word == "unsafe" {
                    emit(
                        "U1",
                        t,
                        "`unsafe` is forbidden workspace-wide (rustc forbids it too; \
                         there is no demt-lint escape hatch for U1)"
                            .to_string(),
                        &mut raw,
                    );
                }
                if lib {
                    // P1: panicking calls in library code.
                    let prev_dot = i > 0 && text(toks, i - 1) == Some(".");
                    let next_paren = text(toks, i + 1) == Some("(");
                    if prev_dot && next_paren && (word == "unwrap" || word == "expect") {
                        emit(
                            "P1",
                            t,
                            format!(
                                "`.{word}()` in library code: return a typed error \
                                 (the ListError/OnlineError pattern) or justify with \
                                 `// demt-lint: allow(P1, reason)`"
                            ),
                            &mut raw,
                        );
                    }
                    let next_bang = text(toks, i + 1) == Some("!");
                    if next_bang && PANIC_MACROS.contains(&word) {
                        emit(
                            "P1",
                            t,
                            format!(
                                "`{word}!` in library code: return a typed error or \
                                 justify with `// demt-lint: allow(P1, reason)`"
                            ),
                            &mut raw,
                        );
                    }
                    // D1: nondeterminism sources.
                    if word == "HashMap" || word == "HashSet" {
                        emit(
                            "D1",
                            t,
                            format!(
                                "`{word}` iterates in a nondeterministic order: use \
                                 `BTreeMap`/`BTreeSet` or a sorted Vec in scheduling \
                                 and reporting paths"
                            ),
                            &mut raw,
                        );
                    }
                    let path2 = || {
                        (
                            text(toks, i + 1) == Some("::"),
                            text(toks, i + 2).unwrap_or(""),
                        )
                    };
                    if !timing {
                        if word == "Instant" {
                            let (sep, m) = path2();
                            if sep && m == "now" {
                                emit(
                                    "D1",
                                    t,
                                    "`Instant::now()` outside the designated timing \
                                     modules (lint.toml [paths].timing): wall-clock \
                                     reads make schedules irreproducible"
                                        .to_string(),
                                    &mut raw,
                                );
                            }
                        }
                        if word == "SystemTime" {
                            emit(
                                "D1",
                                t,
                                "`SystemTime` outside the designated timing modules \
                                 (lint.toml [paths].timing)"
                                    .to_string(),
                                &mut raw,
                            );
                        }
                    }
                    if word == "thread" {
                        let (sep, m) = path2();
                        if sep && m == "current" {
                            emit(
                                "D1",
                                t,
                                "`thread::current()` identity must not influence \
                                 scheduling order or output"
                                    .to_string(),
                                &mut raw,
                            );
                        }
                    }
                }
            }
            TokenKind::Punct if (t.text == "==" || t.text == "!=") && lib => {
                // F1: a float literal on either side of ==/!=.
                let prev_float = i > 0 && kind(toks, i - 1) == Some(TokenKind::Float);
                let next_float = kind(toks, i + 1) == Some(TokenKind::Float)
                    || (text(toks, i + 1) == Some("-")
                        && kind(toks, i + 2) == Some(TokenKind::Float));
                if prev_float || next_float {
                    emit(
                        "F1",
                        t,
                        format!(
                            "bare float `{}` against a literal: compare through a \
                             tolerance helper, or justify exact-representation \
                             semantics with `// demt-lint: allow(F1, reason)`",
                            t.text
                        ),
                        &mut raw,
                    );
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Malformed or reason-less directives become A1 diagnostics here;
    // the *valid* ones are applied by [`apply_directives`].
    for d in &lexed.directives {
        match (&d.rule, &d.reason) {
            (Some(rule), Some(_)) if known_rule(rule) && rule != "U1" => {}
            _ => {
                let what = match &d.rule {
                    None => "expected `// demt-lint: allow(RULE, reason)`".to_string(),
                    Some(r) if !known_rule(r) => format!("unknown rule id `{r}`"),
                    Some(r) if r == "U1" => "U1 cannot be allowed".to_string(),
                    Some(r) => format!("allow({r}) needs a reason string"),
                };
                raw.push(Diagnostic {
                    rule: "A1".to_string(),
                    level: cfg.level("A1"),
                    path: path.to_string(),
                    line: d.line,
                    col: 1,
                    message: format!("malformed demt-lint directive: {what}"),
                });
            }
        }
    }
    raw
}

/// The escape hatch, with usage accounting. A valid directive
/// suppresses matching diagnostics on its own line (trailing comment)
/// and on the following line (comment above the code); U1 is never
/// suppressible. Returns the surviving diagnostics plus one **A2**
/// finding per valid directive that suppressed nothing — a stale
/// `allow(…)` is itself a defect, because it silently licenses a
/// violation that could reappear later. `raw` must contain *every*
/// diagnostic for `path` (token and semantic), or live directives
/// would be misreported as stale.
pub fn apply_directives(
    path: &str,
    lexed: &Lexed,
    raw: Vec<Diagnostic>,
    cfg: &Config,
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    let mut suppress: Vec<(&str, u32, usize)> = Vec::new(); // (rule, line, hits)
    for d in &lexed.directives {
        if let (Some(rule), Some(_)) = (&d.rule, &d.reason) {
            if known_rule(rule) && rule != "U1" {
                suppress.push((rule.as_str(), d.line, 0));
            }
        }
    }
    let kept: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|diag| {
            let mut hit = false;
            for (rule, line, hits) in suppress.iter_mut() {
                if *rule == diag.rule && (diag.line == *line || diag.line == *line + 1) {
                    *hits += 1;
                    hit = true;
                }
            }
            !hit
        })
        .collect();
    let a2: Vec<Diagnostic> = suppress
        .iter()
        .filter(|(_, _, hits)| *hits == 0)
        .map(|(rule, line, _)| Diagnostic {
            rule: "A2".to_string(),
            level: cfg.level("A2"),
            path: path.to_string(),
            line: *line,
            col: 1,
            message: format!(
                "stale suppression: `allow({rule}, …)` matches no {rule} finding \
                 on this or the next line — delete the directive (or fix the \
                 scope it was meant to cover)"
            ),
        })
        .collect();
    (kept, a2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Level;
    use crate::lexer::lex;

    fn run(src: &str, kind: FileKind) -> Vec<Diagnostic> {
        lint_tokens("x.rs", &lex(src), kind, &Config::default())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn p1_fires_in_library_only() {
        let src = "pub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }";
        assert_eq!(rules_of(&run(src, FileKind::Library)), vec!["P1"]);
        assert!(run(src, FileKind::Binary).is_empty());
        assert!(run(src, FileKind::Test).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = r#"
pub fn ok() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { None::<u32>.unwrap(); panic!("boom"); }
}
"#;
        assert!(run(src, FileKind::Library).is_empty());
    }

    #[test]
    fn cfg_test_on_a_single_fn() {
        let src = r#"
#[cfg(test)]
fn helper() { None::<u32>.unwrap(); }
pub fn live() { None::<u32>.unwrap(); }
"#;
        let d = run(src, FileKind::Library);
        assert_eq!(rules_of(&d), vec!["P1"]);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn cfg_test_mod_semicolon_cancels_pending() {
        let src = "#[cfg(test)]\nmod tests;\npub fn f() { None::<u32>.unwrap(); }";
        assert_eq!(rules_of(&run(src, FileKind::Library)), vec!["P1"]);
    }

    #[test]
    fn d1_catches_hash_collections_and_clocks() {
        let src = r#"
use std::collections::HashMap;
pub fn f() {
    let t = std::time::Instant::now();
    let s = std::time::SystemTime::now();
    let id = std::thread::current().id();
}
"#;
        let d = run(src, FileKind::Library);
        assert_eq!(rules_of(&d), vec!["D1", "D1", "D1", "D1"]);
    }

    #[test]
    fn timing_modules_may_read_clocks_but_not_hash() {
        let mut cfg = Config::default();
        cfg.timing.push("x.rs".to_string());
        let src = "pub fn f() { let t = Instant::now(); let m: HashMap<u32, u32> = panic!(); }";
        let d = lint_tokens("x.rs", &lex(src), FileKind::Library, &cfg);
        assert_eq!(rules_of(&d), vec!["D1", "P1"]); // HashMap + panic!, no clock
    }

    #[test]
    fn f1_catches_literal_comparisons_only() {
        let src = r#"
pub fn f(a: f64, b: f64) -> bool {
    let bad1 = a == 1.0;
    let bad2 = 0.5 != b;
    let bad3 = a == -2.0;
    let ok1 = (a - b).abs() < 1e-9;
    let ok2 = a.to_bits() == b.to_bits();
    bad1 && bad2 && bad3 && ok1 && ok2
}
"#;
        let d = run(src, FileKind::Library);
        assert_eq!(rules_of(&d), vec!["F1", "F1", "F1"]);
    }

    #[test]
    fn u1_fires_everywhere_and_cannot_be_allowed() {
        let src = "fn f() { unsafe { } } // demt-lint: allow(U1, nope)";
        for kind in [FileKind::Library, FileKind::Binary, FileKind::Test] {
            let d = run(src, kind);
            assert!(d.iter().any(|x| x.rule == "U1"), "{kind:?}");
            assert!(d.iter().any(|x| x.rule == "A1"), "{kind:?}");
        }
    }

    #[test]
    fn allow_suppresses_same_line_and_next_line() {
        let trailing =
            "pub fn f(v: &[u32]) -> u32 { *v.first().unwrap() } // demt-lint: allow(P1, seeded by caller)";
        assert!(run(trailing, FileKind::Library).is_empty());
        let above = "// demt-lint: allow(P1, seeded by caller)\npub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }";
        assert!(run(above, FileKind::Library).is_empty());
        // A directive for the wrong rule suppresses nothing — the P1
        // still fires AND the directive itself is stale (A2).
        let wrong_rule =
            "pub fn f(v: &[u32]) -> u32 { *v.first().unwrap() } // demt-lint: allow(F1, wrong id)";
        assert_eq!(
            rules_of(&run(wrong_rule, FileKind::Library)),
            vec!["P1", "A2"]
        );
    }

    #[test]
    fn stale_directives_are_a2() {
        let src = "// demt-lint: allow(P1, legacy justification)\npub fn ok() -> u32 { 1 }";
        let d = run(src, FileKind::Library);
        assert_eq!(rules_of(&d), vec!["A2"]);
        assert_eq!(d[0].line, 1, "anchored at the directive");
    }

    #[test]
    fn allow_without_reason_is_a1_and_does_not_suppress() {
        let src = "pub fn f(v: &[u32]) -> u32 { *v.first().unwrap() } // demt-lint: allow(P1)";
        let d = run(src, FileKind::Library);
        let mut r = rules_of(&d);
        r.sort_unstable();
        assert_eq!(r, vec!["A1", "P1"]);
    }

    #[test]
    fn should_panic_attr_is_not_p1() {
        let src = "#[should_panic]\nfn not_a_macro() {}";
        assert!(run(src, FileKind::Library).is_empty());
    }

    #[test]
    fn warn_level_keeps_diagnostic_but_marks_it() {
        let mut cfg = Config::default();
        cfg.levels.insert("P1".to_string(), Level::Warn);
        let d = lint_tokens(
            "x.rs",
            &lex("pub fn f() { None::<u32>.unwrap(); }"),
            FileKind::Library,
            &cfg,
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].level, Level::Warn);
    }
}
