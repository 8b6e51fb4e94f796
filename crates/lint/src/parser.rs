//! A hand-rolled recursive-descent parser: token stream → items.
//!
//! Sits on [`crate::lexer`] and recovers just enough structure for the
//! semantic rules: `use` declarations (for path resolution), `mod`
//! declarations (for the module-tree classifier), and every `fn` —
//! free, inherent, trait-default or trait-impl — with its visibility,
//! owner type and a *body scan*: the stream of call expressions, direct
//! panic sites, indexing sites and float-accumulation chains inside the
//! body. It is **tolerant by construction**: unknown constructs are
//! skipped token-by-token, unbalanced delimiters run to end of file,
//! and nothing here can panic (the linter lints itself; the proptest
//! fuzz suite feeds this parser arbitrary byte soups).

use crate::lexer::{Lexed, Token, TokenKind};

/// Item visibility, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// Plain `pub`: part of the crate's public API (P2 applies).
    Pub,
    /// `pub(crate)` / `pub(super)` / `pub(in …)`: not public API.
    Restricted,
    /// No visibility keyword.
    Private,
}

/// One `use` declaration, flattened: the local name it binds and the
/// full path it resolves to (`use demt_model::Instance as I` →
/// `local: "I"`, `path: ["demt_model", "Instance"]`). Glob imports
/// flatten to a `*` local so resolution can fall back to the crate.
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// The name this import binds in the file's scope.
    pub local: String,
    /// Full path segments, leading `crate`/`self`/`super` preserved.
    pub path: Vec<String>,
}

/// A file-reference module declaration (`mod name;`).
#[derive(Debug, Clone)]
pub struct ModDecl {
    /// Module name; the file lives at `name.rs` or `name/mod.rs`.
    pub name: String,
    /// Declared under `#[cfg(test)]` (the target file is test code).
    pub cfg_test: bool,
}

/// A call expression inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments. Method calls carry exactly one segment.
    pub path: Vec<String>,
    /// `.name(…)` receiver call (resolved by name over all impls).
    pub method: bool,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// The macros P1 and P2 count as panic sites. `debug_assert!` and its
/// variants are not among them: they compile out of the release profile
/// every shipped binary is built with (ARCHITECTURE, "Invariants").
pub const PANIC_MACROS: [&str; 7] = [
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// A direct panic site (`unwrap`/`expect` call or panicking macro).
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// What panics: `unwrap`, `expect`, or a [`PANIC_MACROS`] macro.
    pub what: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// Element-type evidence for a `fold`/`sum`/`product` chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Floatness {
    /// Provably floating point (f64/f32 turbofish or float seed value).
    Float,
    /// Provably integral (integer turbofish): D2-exempt.
    Int,
    /// No type evidence either way (treated as possibly-float).
    Unknown,
}

/// A `fold`/`sum`/`product` accumulation site, with the D2 evidence the
/// chain walk collected.
#[derive(Debug, Clone)]
pub struct AccumSite {
    /// The accumulator method name.
    pub what: String,
    /// True when the receiver chain showed a provably-ordered source
    /// (`.iter()` family, a range, or a whitelisted entry point).
    pub ordered: bool,
    /// Element-type evidence.
    pub floatness: Floatness,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// Everything the body scan extracted from one fn body.
#[derive(Debug, Clone, Default)]
pub struct BodyScan {
    /// Call expressions (path and method calls).
    pub calls: Vec<CallSite>,
    /// Direct panic sites.
    pub panics: Vec<PanicSite>,
    /// Float-accumulation chains (D2 candidates).
    pub accums: Vec<AccumSite>,
}

/// One parsed fn: a free function, inherent/trait-impl method or trait
/// default method.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The fn's own name.
    pub name: String,
    /// Enclosing `impl TYPE` / `impl TRAIT for TYPE` / `trait TYPE`
    /// self-type name, if any.
    pub owner: Option<String>,
    /// Inline-module path within the file (`mod a { mod b { fn f } }`
    /// → `["a", "b"]`).
    pub module: Vec<String>,
    /// Visibility.
    pub vis: Vis,
    /// True when the fn (or an enclosing item) is `#[cfg(test)]`.
    pub cfg_test: bool,
    /// 1-based line of the fn name.
    pub line: u32,
    /// 1-based column of the fn name.
    pub col: u32,
    /// The body scan (empty for bodyless trait-method declarations).
    pub body: BodyScan,
}

/// Parse result for one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Flattened `use` declarations.
    pub uses: Vec<UseDecl>,
    /// File-reference `mod name;` declarations (classifier input).
    pub mods: Vec<ModDecl>,
    /// Every fn in the file, in source order.
    pub fns: Vec<FnDef>,
}

/// Keywords that can never start a call path or be a call name.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "false"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "true"
            | "type"
            | "union"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "yield"
    )
}

/// Adapters/sources that prove a chain iterates in a deterministic
/// order. `HashMap`/`HashSet` are banned in library code (D1), so the
/// `iter` family is ordered on everything that remains (slices, `Vec`,
/// arrays, `BTreeMap`/`BTreeSet`, strings).
const ORDERED_SOURCES: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "chars",
    "bytes",
    "lines",
    "split",
    "split_whitespace",
    "windows",
    "chunks",
    "chunks_exact",
    "drain",
    "range",
];

/// Parses one lexed file. Total: never fails, never panics.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let mut p = Parser {
        t: &lexed.tokens,
        out: ParsedFile::default(),
        module: Vec::new(),
    };
    let end = p.t.len();
    p.items(0, end, None, false);
    p.out
}

struct Parser<'a> {
    t: &'a [Token],
    out: ParsedFile,
    module: Vec<String>,
}

fn text(t: &[Token], i: usize) -> Option<&str> {
    t.get(i).map(|tok| tok.text.as_str())
}

fn kind(t: &[Token], i: usize) -> Option<TokenKind> {
    t.get(i).map(|tok| tok.kind)
}

impl<'a> Parser<'a> {
    /// Index just past the group opened at `i` (which must be an Open
    /// token); delimiter-kind-insensitive balanced skip, EOF-tolerant.
    fn skip_group(&self, i: usize) -> usize {
        let mut depth = 0i64;
        let mut j = i;
        while j < self.t.len() {
            match kind(self.t, j) {
                Some(TokenKind::Open) => depth += 1,
                Some(TokenKind::Close) => {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.t.len()
    }

    /// Index just past a balanced `<…>` generic-argument group opened
    /// at `i` (which must be `<`). The lexer emits `<<`/`>>` as single
    /// tokens, so those count twice. Gives up (returns `i + 1`) if no
    /// matching close arrives before a `;`/`{` at depth-relevant level,
    /// which keeps expression `<` comparisons from eating the file.
    fn skip_angles(&self, i: usize) -> usize {
        let mut depth = 0i64;
        let mut j = i;
        while j < self.t.len() {
            match text(self.t, j) {
                Some("<") => depth += 1,
                Some("<<") => depth += 2,
                Some(">") => depth -= 1,
                Some(">>") => depth -= 2,
                Some("->") => {}
                Some(";") | Some("{") => return i + 1,
                _ => {}
            }
            if depth <= 0 {
                return j + 1;
            }
            j += 1;
        }
        self.t.len()
    }

    /// The item loop over `t[i..end)`. `owner` is the enclosing
    /// impl/trait self type; `cfg_test` is inherited from enclosing
    /// items.
    fn items(&mut self, start: usize, end: usize, owner: Option<&str>, cfg_test: bool) {
        let mut i = start;
        let mut pending_vis = Vis::Private;
        let mut pending_test = false;
        while i < end {
            // Attributes: note cfg(test)/test markers, skip the rest.
            if let Some((is_test, inner, after)) = crate::rules::parse_attr(self.t, i) {
                if is_test {
                    if inner {
                        // `#![cfg(test)]` marks the whole enclosing scope;
                        // approximate by marking the rest of this range.
                        self.items(after, end, owner, true);
                        return;
                    }
                    pending_test = true;
                }
                i = after;
                continue;
            }
            let Some(tok) = self.t.get(i) else { break };
            match (tok.kind, tok.text.as_str()) {
                (TokenKind::Ident, "pub") => {
                    if text(self.t, i + 1) == Some("(") {
                        pending_vis = Vis::Restricted;
                        i = self.skip_group(i + 1);
                    } else {
                        pending_vis = Vis::Pub;
                        i += 1;
                    }
                }
                (TokenKind::Ident, "use") => {
                    i = self.parse_use(i + 1, end);
                    pending_vis = Vis::Private;
                    pending_test = false;
                }
                (TokenKind::Ident, "mod") => {
                    let name = match kind(self.t, i + 1) {
                        Some(TokenKind::Ident) => text(self.t, i + 1).unwrap_or("").to_string(),
                        _ => String::new(),
                    };
                    match text(self.t, i + 2) {
                        Some(";") if !name.is_empty() => {
                            self.out.mods.push(ModDecl {
                                name,
                                cfg_test: cfg_test || pending_test,
                            });
                            i += 3;
                        }
                        Some("{") if !name.is_empty() => {
                            let close = self.skip_group(i + 2);
                            self.module.push(name);
                            self.items(i + 3, close.saturating_sub(1), None, {
                                cfg_test || pending_test
                            });
                            self.module.pop();
                            i = close;
                        }
                        _ => i += 1,
                    }
                    pending_vis = Vis::Private;
                    pending_test = false;
                }
                (TokenKind::Ident, "fn") => {
                    i = self.parse_fn(i, end, owner, pending_vis, cfg_test || pending_test);
                    pending_vis = Vis::Private;
                    pending_test = false;
                }
                (TokenKind::Ident, "impl") => {
                    i = self.parse_impl(i, end, cfg_test || pending_test);
                    pending_vis = Vis::Private;
                    pending_test = false;
                }
                (TokenKind::Ident, "trait") => {
                    i = self.parse_trait(i, end, cfg_test || pending_test);
                    pending_vis = Vis::Private;
                    pending_test = false;
                }
                (TokenKind::Ident, "struct")
                | (TokenKind::Ident, "enum")
                | (TokenKind::Ident, "union") => {
                    i = self.skip_item(i + 1, end);
                    pending_vis = Vis::Private;
                    pending_test = false;
                }
                (TokenKind::Ident, "const")
                | (TokenKind::Ident, "static")
                | (TokenKind::Ident, "type")
                | (TokenKind::Ident, "extern")
                | (TokenKind::Ident, "unsafe")
                | (TokenKind::Ident, "async") => {
                    // `const fn` / `async fn` / `unsafe fn` /
                    // `extern "C" fn`: keep the pending modifiers and let
                    // the `fn` keyword drive; otherwise skip the item.
                    let mut j = i + 1;
                    while matches!(text(self.t, j), Some("unsafe") | Some("async"))
                        || kind(self.t, j) == Some(TokenKind::Str)
                        || text(self.t, j) == Some("extern")
                    {
                        j += 1;
                    }
                    if text(self.t, j) == Some("fn") {
                        i = j;
                    } else {
                        i = self.skip_item(i + 1, end);
                        pending_vis = Vis::Private;
                        pending_test = false;
                    }
                }
                (TokenKind::Ident, "macro_rules") => {
                    // macro_rules ! name { … }
                    let mut j = i + 1;
                    while j < end && text(self.t, j) != Some("{") && text(self.t, j) != Some("(") {
                        j += 1;
                    }
                    i = if j < end { self.skip_group(j) } else { end };
                    pending_vis = Vis::Private;
                    pending_test = false;
                }
                (TokenKind::Open, "{") => {
                    // Stray block at item level (e.g. inside a macro
                    // fixture): skip it whole.
                    i = self.skip_group(i);
                }
                _ => {
                    i += 1;
                }
            }
        }
    }

    /// Skips a struct/enum/const/… item body: forward to the `;` that
    /// ends it or through the `{…}` that closes it, group-aware.
    fn skip_item(&self, start: usize, end: usize) -> usize {
        let mut i = start;
        while i < end {
            match (kind(self.t, i), text(self.t, i)) {
                (Some(TokenKind::Open), Some("{")) => return self.skip_group(i),
                (Some(TokenKind::Open), _) => i = self.skip_group(i),
                (_, Some(";")) => return i + 1,
                _ => i += 1,
            }
        }
        end
    }

    /// `use` already consumed; parses the tree up to `;`.
    fn parse_use(&mut self, start: usize, end: usize) -> usize {
        // Find the terminating `;` first (group-aware not needed: `;`
        // cannot appear inside a use tree).
        let mut stop = start;
        while stop < end && text(self.t, stop) != Some(";") {
            stop += 1;
        }
        let mut prefix: Vec<String> = Vec::new();
        self.use_tree(start, stop, &mut prefix);
        (stop + 1).min(end)
    }

    /// Parses one use-tree level in `t[i..stop)` with the given path
    /// prefix, emitting flattened [`UseDecl`]s.
    fn use_tree(&mut self, mut i: usize, stop: usize, prefix: &mut Vec<String>) {
        let depth_at_entry = prefix.len();
        let mut last: Option<String> = None;
        while i < stop {
            match (kind(self.t, i), text(self.t, i)) {
                (Some(TokenKind::Ident), Some("as")) => {
                    // `path as alias`
                    if let (Some(TokenKind::Ident), Some(alias)) =
                        (kind(self.t, i + 1), text(self.t, i + 1))
                    {
                        let mut path = prefix.clone();
                        if let Some(seg) = last.take() {
                            path.push(seg);
                        }
                        self.out.uses.push(UseDecl {
                            local: alias.to_string(),
                            path,
                        });
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                (Some(TokenKind::Ident), Some(seg)) => {
                    if let Some(prev) = last.take() {
                        // Two idents without `::` between them — tolerate.
                        prefix.push(prev);
                    }
                    last = Some(seg.to_string());
                    i += 1;
                }
                (_, Some("::")) => {
                    i += 1;
                    if text(self.t, i) == Some("{") {
                        if let Some(seg) = last.take() {
                            prefix.push(seg);
                        }
                        let close = self.skip_group(i);
                        self.use_group(i + 1, close.saturating_sub(1), prefix);
                        i = close;
                    } else if let Some(seg) = last.take() {
                        prefix.push(seg);
                    }
                }
                (_, Some("*")) => {
                    // Glob: record with the `*` local; resolution falls
                    // back to crate-wide lookup.
                    self.out.uses.push(UseDecl {
                        local: "*".to_string(),
                        path: prefix.clone(),
                    });
                    last = None;
                    i += 1;
                }
                _ => i += 1,
            }
        }
        if let Some(seg) = last {
            let mut path = prefix.clone();
            path.push(seg.clone());
            // `self` closes the group prefix itself: `use a::b::{self}`.
            let local = if seg == "self" {
                path.pop();
                path.last().cloned().unwrap_or(seg)
            } else {
                seg
            };
            self.out.uses.push(UseDecl { local, path });
        }
        prefix.truncate(depth_at_entry);
    }

    /// `{a, b::c, d as e}` group body: split on top-level commas, each
    /// part is a use-tree.
    fn use_group(&mut self, start: usize, stop: usize, prefix: &mut Vec<String>) {
        let mut part_start = start;
        let mut i = start;
        while i <= stop {
            let at_comma = i < stop && text(self.t, i) == Some(",");
            if at_comma || i == stop {
                if part_start < i {
                    self.use_tree(part_start, i, prefix);
                }
                part_start = i + 1;
            }
            if i < stop && kind(self.t, i) == Some(TokenKind::Open) {
                i = self.skip_group(i);
            } else {
                i += 1;
            }
        }
    }

    /// At the `fn` keyword. Parses the signature far enough to find the
    /// name and body, scans the body, and returns the index past it.
    fn parse_fn(
        &mut self,
        at_fn: usize,
        end: usize,
        owner: Option<&str>,
        vis: Vis,
        cfg_test: bool,
    ) -> usize {
        let (name, line, col) = match (kind(self.t, at_fn + 1), self.t.get(at_fn + 1)) {
            (Some(TokenKind::Ident), Some(tok)) => (tok.text.clone(), tok.line, tok.col),
            _ => return at_fn + 1,
        };
        // Scan to the body `{` (or `;` for bodyless trait methods),
        // skipping parameter groups, generics and where clauses.
        let mut i = at_fn + 2;
        let mut body: Option<(usize, usize)> = None;
        while i < end {
            match (kind(self.t, i), text(self.t, i)) {
                (Some(TokenKind::Open), Some("{")) => {
                    let close = self.skip_group(i);
                    body = Some((i + 1, close.saturating_sub(1)));
                    i = close;
                    break;
                }
                (Some(TokenKind::Open), _) => i = self.skip_group(i),
                (_, Some("<")) => i = self.skip_angles(i),
                (_, Some(";")) => {
                    i += 1;
                    break;
                }
                _ => i += 1,
            }
        }
        let scan = match body {
            Some((b0, b1)) => self.scan_body(b0, b1.min(end)),
            None => BodyScan::default(),
        };
        self.out.fns.push(FnDef {
            name,
            owner: owner.map(str::to_string),
            module: self.module.clone(),
            vis,
            cfg_test,
            line,
            col,
            body: scan,
        });
        i
    }

    /// At the `impl` keyword: extract the self-type name and recurse
    /// into the body with that owner.
    fn parse_impl(&mut self, at_impl: usize, end: usize, cfg_test: bool) -> usize {
        let mut i = at_impl + 1;
        if text(self.t, i) == Some("<") {
            i = self.skip_angles(i);
        }
        // Walk to the body `{`, remembering the last angle-depth-0
        // ident before it — and restarting after a `for` (trait impls
        // name the self type after `for`).
        let mut name: Option<String> = None;
        while i < end {
            match (kind(self.t, i), text(self.t, i)) {
                (Some(TokenKind::Open), Some("{")) => break,
                (Some(TokenKind::Open), _) => i = self.skip_group(i),
                (_, Some("<")) => i = self.skip_angles(i),
                (Some(TokenKind::Ident), Some("for")) => {
                    name = None;
                    i += 1;
                }
                (Some(TokenKind::Ident), Some("where")) => {
                    // Bounds follow; the name is settled.
                    while i < end && text(self.t, i) != Some("{") {
                        if kind(self.t, i) == Some(TokenKind::Open) {
                            i = self.skip_group(i);
                        } else if text(self.t, i) == Some("<") {
                            i = self.skip_angles(i);
                        } else {
                            i += 1;
                        }
                    }
                }
                (Some(TokenKind::Ident), Some(seg)) if !is_keyword(seg) => {
                    name = Some(seg.to_string());
                    i += 1;
                }
                _ => i += 1,
            }
        }
        if i >= end || text(self.t, i) != Some("{") {
            return i;
        }
        let close = self.skip_group(i);
        self.items(i + 1, close.saturating_sub(1), name.as_deref(), cfg_test);
        close
    }

    /// At the `trait` keyword: default methods get the trait name as
    /// their owner (callers resolve trait methods by name anyway).
    fn parse_trait(&mut self, at_trait: usize, end: usize, cfg_test: bool) -> usize {
        let name = match (kind(self.t, at_trait + 1), text(self.t, at_trait + 1)) {
            (Some(TokenKind::Ident), Some(n)) if !is_keyword(n) => n.to_string(),
            _ => return at_trait + 1,
        };
        let mut i = at_trait + 2;
        while i < end && text(self.t, i) != Some("{") {
            if kind(self.t, i) == Some(TokenKind::Open) {
                i = self.skip_group(i);
            } else if text(self.t, i) == Some("<") {
                i = self.skip_angles(i);
            } else if text(self.t, i) == Some(";") {
                return i + 1; // `trait Alias = …;` style: no body
            } else {
                i += 1;
            }
        }
        if i >= end {
            return end;
        }
        let close = self.skip_group(i);
        self.items(i + 1, close.saturating_sub(1), Some(&name), cfg_test);
        close
    }

    // ---- body scanning ----

    /// Scans `t[start..end)` (a fn body) for calls, panic sites,
    /// indexing and accumulation chains. Token-level and tolerant: it
    /// does not build an expression tree, it recognizes the postfix
    /// patterns the rules need.
    fn scan_body(&self, start: usize, end: usize) -> BodyScan {
        let mut out = BodyScan::default();
        let mut i = start;
        while i < end {
            let Some(tok) = self.t.get(i) else { break };
            match tok.kind {
                TokenKind::Ident => {
                    let word = tok.text.as_str();
                    if is_keyword(word) {
                        i += 1;
                        continue;
                    }
                    // Panicking macro?
                    if text(self.t, i + 1) == Some("!")
                        && matches!(kind(self.t, i + 2), Some(TokenKind::Open))
                    {
                        if PANIC_MACROS.contains(&word) {
                            out.panics.push(PanicSite {
                                what: format!("{word}!"),
                                line: tok.line,
                                col: tok.col,
                            });
                        }
                        i += 2; // scan macro arguments as expression soup
                        continue;
                    }
                    let prev_dot = i > start && text(self.t, i - 1) == Some(".");
                    // Method call `.name(…)`, with optional turbofish.
                    let (args_at, turbofish) = self.call_args_at(i + 1);
                    if prev_dot {
                        if let Some(args) = args_at {
                            self.method_call(&mut out, i, args, turbofish, start);
                            i += 1;
                            continue;
                        }
                        // Plain field access.
                        i += 1;
                        continue;
                    }
                    // Path call `a::b::name(…)` / free call `name(…)`.
                    if args_at.is_some() && text(self.t, i + 1) != Some("!") {
                        let mut path = vec![word.to_string()];
                        // Collect leading `seg::` segments backwards.
                        let mut j = i;
                        while j >= 2 && text(self.t, j - 1) == Some("::") {
                            let mut k = j - 2;
                            // Skip a turbofish group backwards: `Vec::<f64>::new`.
                            if matches!(text(self.t, k), Some(">") | Some(">>")) {
                                let mut depth = 0i64;
                                loop {
                                    match text(self.t, k) {
                                        Some(">") => depth += 1,
                                        Some(">>") => depth += 2,
                                        Some("<") => depth -= 1,
                                        Some("<<") => depth -= 2,
                                        _ => {}
                                    }
                                    if depth <= 0 || k == 0 {
                                        break;
                                    }
                                    k -= 1;
                                }
                                if k == 0 {
                                    break;
                                }
                                k -= 1;
                                if text(self.t, k) == Some("::") {
                                    if k == 0 {
                                        break;
                                    }
                                    k -= 1;
                                } else {
                                    break;
                                }
                            }
                            match (kind(self.t, k), text(self.t, k)) {
                                (Some(TokenKind::Ident), Some(seg)) => {
                                    path.insert(0, seg.to_string());
                                    j = k;
                                }
                                _ => break,
                            }
                        }
                        out.calls.push(CallSite {
                            path,
                            method: false,
                            line: tok.line,
                            col: tok.col,
                        });
                    }
                    i += 1;
                }
                _ => {
                    i += 1;
                }
            }
        }
        out
    }

    /// If a call-argument list starts at or just after `i` (allowing a
    /// `::<…>` turbofish), returns `(Some(open_paren_index),
    /// turbofish_range)`.
    #[allow(clippy::type_complexity)]
    fn call_args_at(&self, i: usize) -> (Option<usize>, Option<(usize, usize)>) {
        if text(self.t, i) == Some("(") {
            return (Some(i), None);
        }
        if text(self.t, i) == Some("::") && text(self.t, i + 1) == Some("<") {
            let after = self.skip_angles(i + 1);
            if text(self.t, after) == Some("(") {
                return (Some(after), Some((i + 2, after.saturating_sub(1))));
            }
        }
        (None, None)
    }

    /// Records a method call at `name_at` (args open paren at `args`),
    /// plus its panic/accumulation semantics.
    fn method_call(
        &self,
        out: &mut BodyScan,
        name_at: usize,
        args: usize,
        turbofish: Option<(usize, usize)>,
        body_start: usize,
    ) {
        let Some(tok) = self.t.get(name_at) else {
            return;
        };
        let name = tok.text.as_str();
        out.calls.push(CallSite {
            path: vec![name.to_string()],
            method: true,
            line: tok.line,
            col: tok.col,
        });
        if name == "unwrap" || name == "expect" {
            out.panics.push(PanicSite {
                what: name.to_string(),
                line: tok.line,
                col: tok.col,
            });
        }
        if matches!(name, "fold" | "sum" | "product") {
            let floatness = self.accum_floatness(args, turbofish);
            let ordered = self.chain_is_ordered(name_at, body_start);
            out.accums.push(AccumSite {
                what: name.to_string(),
                ordered,
                floatness,
                line: tok.line,
                col: tok.col,
            });
        }
    }

    /// Element-type evidence for an accumulator: a `::<f64>` turbofish
    /// or a float first argument (`fold(0.0, …)`, `fold(f64::MAX, …)`)
    /// is Float; an integer turbofish is Int; anything else Unknown.
    fn accum_floatness(&self, args: usize, turbofish: Option<(usize, usize)>) -> Floatness {
        if let Some((lo, hi)) = turbofish {
            let mut j = lo;
            while j < hi {
                match text(self.t, j) {
                    Some("f64") | Some("f32") => return Floatness::Float,
                    Some("u8") | Some("u16") | Some("u32") | Some("u64") | Some("u128")
                    | Some("usize") | Some("i8") | Some("i16") | Some("i32") | Some("i64")
                    | Some("i128") | Some("isize") => return Floatness::Int,
                    _ => {}
                }
                j += 1;
            }
            return Floatness::Unknown;
        }
        // First argument of `fold(seed, …)`.
        let mut j = args + 1;
        if text(self.t, j) == Some("-") {
            j += 1;
        }
        match (kind(self.t, j), text(self.t, j)) {
            (Some(TokenKind::Float), _) => Floatness::Float,
            (Some(TokenKind::Ident), Some("f64")) | (Some(TokenKind::Ident), Some("f32")) => {
                Floatness::Float
            }
            (Some(TokenKind::Int), _) => Floatness::Int,
            _ => Floatness::Unknown,
        }
    }

    /// Walks the receiver chain backwards from the `.` before the
    /// accumulator and checks the covered token range for ordered-source
    /// evidence: an [`ORDERED_SOURCES`] adapter call, or
    /// a range expression.
    fn chain_is_ordered(&self, name_at: usize, body_start: usize) -> bool {
        // name_at-1 is the `.`; scan backwards for the chain start.
        let mut j = name_at.saturating_sub(1);
        let mut depth = 0i64;
        while j > body_start {
            let k = j - 1;
            match (kind(self.t, k), text(self.t, k)) {
                (Some(TokenKind::Close), _) => depth += 1,
                (Some(TokenKind::Open), _) => {
                    if depth == 0 {
                        break; // left the enclosing group: chain starts here
                    }
                    depth -= 1;
                }
                (_, Some(t))
                    if depth == 0
                        && matches!(
                            t,
                            "," | ";"
                                | "="
                                | "=>"
                                | "&&"
                                | "||"
                                | "+"
                                | "-"
                                | "*"
                                | "/"
                                | "%"
                                | "<"
                                | ">"
                                | "<="
                                | ">="
                                | "=="
                                | "!="
                                | "!"
                                | "&"
                                | "|"
                                | "return"
                                | "in"
                                | "{"
                                | "}"
                        ) =>
                {
                    break
                }
                _ => {}
            }
            j = k;
        }
        // Evidence scan over the chain range (inner groups included —
        // `(0..n)` keeps its `..` inside a skipped group).
        let mut k = j;
        while k < name_at {
            match (kind(self.t, k), text(self.t, k)) {
                (_, Some("..")) | (_, Some("..=")) => return true,
                (Some(TokenKind::Ident), Some(word)) => {
                    let call_like =
                        text(self.t, k + 1) == Some("(") || text(self.t, k + 1) == Some("::");
                    if call_like && ORDERED_SOURCES.contains(&word) {
                        return true;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn free_fns_methods_and_owners() {
        let p = parse_src(
            r#"
pub fn free() {}
struct S;
impl S {
    pub fn method(&self) {}
    fn private(&self) {}
}
impl Display for S {
    fn fmt(&self) {}
}
trait T {
    fn required(&self);
    fn with_default(&self) { self.required() }
}
"#,
        );
        let names: Vec<(Option<&str>, &str, Vis)> = p
            .fns
            .iter()
            .map(|f| (f.owner.as_deref(), f.name.as_str(), f.vis))
            .collect();
        assert_eq!(
            names,
            vec![
                (None, "free", Vis::Pub),
                (Some("S"), "method", Vis::Pub),
                (Some("S"), "private", Vis::Private),
                (Some("S"), "fmt", Vis::Private),
                (Some("T"), "required", Vis::Private),
                (Some("T"), "with_default", Vis::Private),
            ]
        );
        // The default method's body records the `.required()` call.
        let with_default = p.fns.iter().find(|f| f.name == "with_default");
        assert!(with_default
            .map(|f| f
                .body
                .calls
                .iter()
                .any(|c| c.method && c.path == ["required"]))
            .unwrap_or(false));
    }

    #[test]
    fn pub_crate_is_restricted() {
        let p = parse_src("pub(crate) fn a() {} pub fn b() {} fn c() {}");
        let vises: Vec<Vis> = p.fns.iter().map(|f| f.vis).collect();
        assert_eq!(vises, vec![Vis::Restricted, Vis::Pub, Vis::Private]);
    }

    #[test]
    fn use_trees_flatten() {
        let p = parse_src(
            "use demt_model::{Instance, task::MoldableTask as MT};\nuse demt_platform::Schedule;\nuse std::fmt::*;\n",
        );
        let uses: Vec<(String, Vec<String>)> = p
            .uses
            .iter()
            .map(|u| (u.local.clone(), u.path.clone()))
            .collect();
        assert!(uses.contains(&(
            "Instance".to_string(),
            vec!["demt_model".to_string(), "Instance".to_string()]
        )));
        assert!(uses.contains(&(
            "MT".to_string(),
            vec![
                "demt_model".to_string(),
                "task".to_string(),
                "MoldableTask".to_string()
            ]
        )));
        assert!(uses.contains(&(
            "Schedule".to_string(),
            vec!["demt_platform".to_string(), "Schedule".to_string()]
        )));
        assert!(uses.contains(&("*".to_string(), vec!["std".to_string(), "fmt".to_string()])));
    }

    #[test]
    fn body_scan_finds_calls_and_panics() {
        let p = parse_src(
            r#"
pub fn f(xs: &[f64]) -> f64 {
    helper(1);
    demt_dual::dual_approx(xs);
    Instance::restrict(xs).unwrap();
    let v = xs[0];
    panic!("boom");
    v
}
"#,
        );
        let f = p.fns.first().expect("one fn");
        let paths: Vec<Vec<String>> = f.body.calls.iter().map(|c| c.path.clone()).collect();
        assert!(paths.contains(&vec!["helper".to_string()]));
        assert!(paths.contains(&vec!["demt_dual".to_string(), "dual_approx".to_string()]));
        assert!(paths.contains(&vec!["Instance".to_string(), "restrict".to_string()]));
        let panics: Vec<&str> = f.body.panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(panics, vec!["unwrap", "panic!"]);
    }

    #[test]
    fn cfg_test_marks_fns_and_mod_decls() {
        let p = parse_src(
            r#"
pub fn live() {}
#[cfg(test)]
fn helper() {}
#[cfg(test)]
mod tests;
mod real;
#[cfg(test)]
mod inline {
    fn inside() {}
}
"#,
        );
        let flags: Vec<(&str, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.cfg_test))
            .collect();
        assert_eq!(
            flags,
            vec![("live", false), ("helper", true), ("inside", true)]
        );
        let mods: Vec<(&str, bool)> = p
            .mods
            .iter()
            .map(|m| (m.name.as_str(), m.cfg_test))
            .collect();
        assert_eq!(mods, vec![("tests", true), ("real", false)]);
    }

    #[test]
    fn accumulation_chains_classify() {
        let p = parse_src(
            r#"
fn f(xs: &[f64], it: impl Iterator<Item = f64>) -> f64 {
    let a = xs.iter().map(|x| x * 2.0).sum::<f64>();
    let b = (0..10).map(|i| i as f64).sum::<f64>();
    let c = it.sum::<f64>();
    let d = it.fold(0.0, |acc, x| acc + x);
    let e = xs.iter().fold(0.0, f64::max);
    let n = xs.iter().count();
    let i = it.sum::<u64>();
    a + b + c + d + e + n as f64 + i as f64
}
"#,
        );
        let f = p.fns.first().expect("one fn");
        let acc: Vec<(&str, bool, Floatness)> = f
            .body
            .accums
            .iter()
            .map(|a| (a.what.as_str(), a.ordered, a.floatness))
            .collect();
        assert_eq!(
            acc,
            vec![
                ("sum", true, Floatness::Float),   // .iter() evidence
                ("sum", true, Floatness::Float),   // range evidence
                ("sum", false, Floatness::Float),  // opaque iterator: flag
                ("fold", false, Floatness::Float), // opaque iterator: flag
                ("fold", true, Floatness::Float),  // .iter() evidence
                ("sum", false, Floatness::Int),    // integral: exempt later
            ]
        );
    }

    #[test]
    fn turbofish_paths_and_methods() {
        let p = parse_src("fn f() { Vec::<f64>::with_capacity(4); xs.collect::<Vec<f64>>(); }");
        let f = p.fns.first().expect("one fn");
        let paths: Vec<Vec<String>> = f.body.calls.iter().map(|c| c.path.clone()).collect();
        assert!(paths.contains(&vec!["Vec".to_string(), "with_capacity".to_string()]));
        assert!(paths.contains(&vec!["collect".to_string()]));
    }

    #[test]
    fn inline_modules_extend_the_path() {
        let p = parse_src("mod outer { mod inner { pub fn deep() {} } pub fn shallow() {} }");
        let at: Vec<(Vec<String>, &str)> = p
            .fns
            .iter()
            .map(|f| (f.module.clone(), f.name.as_str()))
            .collect();
        assert_eq!(
            at,
            vec![
                (vec!["outer".to_string(), "inner".to_string()], "deep"),
                (vec!["outer".to_string()], "shallow"),
            ]
        );
    }

    #[test]
    fn tolerates_garbage() {
        // Unbalanced, truncated, nonsense — must not panic, must return.
        for src in [
            "fn",
            "fn (",
            "impl { fn }",
            "use ::;{{{",
            "fn f( { ] } )",
            "trait",
            "mod",
            "pub pub pub fn x",
            "fn f() { a.b.(c] }",
            "#[cfg(test)",
        ] {
            let _ = parse_src(src);
        }
    }
}
