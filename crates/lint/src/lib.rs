//! # demt-lint — the workspace's static correctness backstop
//!
//! The reproduction's load-bearing guarantee is *byte-identical
//! schedules and reports for any `demt-exec` worker count*. CI enforces
//! it dynamically (1-vs-4-worker byte diffs), but one stray `HashMap`
//! iteration, wall-clock read or float `==` in a scheduling path breaks
//! it silently until a diff happens to catch it. `demt-lint` makes the
//! rules *checkable properties of the source*: a hand-rolled lexer (no
//! `syn` — the workspace has no registry access) feeds a rule engine
//! that walks every workspace crate.
//!
//! | rule | invariant |
//! |---|---|
//! | `D1` | no nondeterminism sources in library code: `HashMap`/`HashSet`, `Instant::now`/`SystemTime` outside the designated timing modules, `thread::current()` |
//! | `P1` | no `unwrap`/`expect`/`panic!`/`unimplemented!`/`todo!`/`unreachable!` and no `assert!`/`assert_eq!`/`assert_ne!` in library (non-test, non-bin) code; `debug_assert!` is exempt ([`parser::PANIC_MACROS`]) |
//! | `F1` | no bare float `==`/`!=` against a literal outside audited helpers |
//! | `L1` | crate `[dependencies]` edges must be in the layering DAG declared in `ARCHITECTURE.md` ([`layering::ALLOWED_DEPS`]) |
//! | `U1` | no `unsafe`, anywhere (not even with an escape hatch) |
//! | `A1` | every `// demt-lint: allow(RULE, reason)` needs a known rule id and a reason |
//! | `P2` | no `pub` library fn may *transitively* reach a panic site over the workspace call graph ([`callgraph`]), unless annotated or recorded in the `panic_reach.toml` baseline (which CI only lets shrink) |
//! | `A2` | every `allow(…)` directive must still suppress something — stale suppressions are findings |
//! | `D2` | no `fold`/`sum` over possibly-float items without a provably-ordered iteration source |
//!
//! Rule levels (deny/warn/allow) come from the checked-in `lint.toml`;
//! sites with a written invariant opt out per line:
//!
//! ```text
//! let last = xs.last().expect("non-empty"); // demt-lint: allow(P1, len checked above)
//! ```
//!
//! Run it as `demt lint` or `cargo run -p demt-lint`; `--format json`
//! emits deterministic, sorted machine-readable diagnostics (CI diffs
//! two consecutive runs byte-for-byte).
//!
//! ```
//! use demt_lint::{lint_source, Config, FileKind};
//!
//! let diags = lint_source(
//!     "demo.rs",
//!     "pub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }",
//!     FileKind::Library,
//!     &Config::default(),
//! );
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].rule, "P1");
//! ```

#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod layering;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod semantic;
pub mod symbols;

pub use config::{Config, Level, RULES};
pub use rules::FileKind;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One finding, anchored to a file position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`D1`, `P1`, `F1`, `L1`, `U1`, `A1`).
    pub rule: String,
    /// Effective severity from `lint.toml`.
    pub level: Level,
    /// Path relative to the linted root, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation, including the remedy.
    pub message: String,
}

/// The outcome of a workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// All diagnostics, sorted by `(path, line, col, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The call-graph report (deterministic JSON), written out by the
    /// CLI's `--callgraph PATH`. Not part of [`render_json`].
    pub callgraph_json: String,
}

impl Report {
    /// Number of deny-level diagnostics (these fail the run).
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Deny)
            .count()
    }

    /// Number of warn-level diagnostics.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Warn)
            .count()
    }
}

/// Lints a single source text with an explicit classification — the
/// unit the fixture corpus drives. `path` is only used for labeling
/// and the timing-module lookup. Runs the *full* pipeline, token rules
/// and semantic rules alike, treating the text as a one-file crate
/// named `fixture` (so P2 sees intra-file call chains and D2 sees
/// accumulation sites); no baseline applies here.
pub fn lint_source(path: &str, source: &str, kind: FileKind, cfg: &Config) -> Vec<Diagnostic> {
    let lexed = lexer::lex(source);
    let parsed = parser::parse(&lexed);
    let sem = semantic::analyze(vec![symbols::FileInput {
        rel: path.to_string(),
        crate_name: "fixture".to_string(),
        kind,
        parsed,
    }]);
    let mut raw = rules::scan_tokens(path, &lexed, kind, cfg);
    raw.extend(
        semantic::p2_diagnostics(&sem, cfg)
            .into_iter()
            .map(|(_, d)| d),
    );
    raw.extend(semantic::d2_diagnostics(&sem, cfg));
    let (mut out, a2) = rules::apply_directives(path, &lexed, raw, cfg);
    out.extend(a2);
    out.retain(|d| d.level != Level::Allow);
    sort_diagnostics(&mut out);
    out
}

fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
}

/// Walks a workspace root (its `src/`, `tests/`, `examples/`,
/// `benches/` and every `crates/*` member) and applies all rules:
/// token rules per file, then the semantic pass (symbol table, call
/// graph, P2/A2/D2) over the whole tree, then directive suppression
/// with stale-directive accounting and the P2 baseline filter.
/// Directory traversal is sorted, so the report is deterministic.
pub fn run_workspace(root: &Path, cfg: &Config) -> Result<Report, String> {
    run_workspace_inner(root, cfg, false).map(|(report, _)| report)
}

/// [`run_workspace`], also returning the sorted symbol keys of every
/// P2 finding that survives directive suppression — the content of a
/// freshly regenerated baseline. `ignore_baseline` skips the baseline
/// filter (used by `--update-baseline` so the new file reflects the
/// real current state, not the old file's view).
pub fn run_workspace_inner(
    root: &Path,
    cfg: &Config,
    ignore_baseline: bool,
) -> Result<(Report, Vec<String>), String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["src", "tests", "examples", "benches", "crates"] {
        collect_rs_files(root, &root.join(top), cfg, &mut files)?;
    }
    files.sort();

    // Lex + parse everything once.
    let mut lexed_files: Vec<(String, lexer::Lexed)> = Vec::with_capacity(files.len());
    let mut parsed_files: Vec<(String, parser::ParsedFile)> = Vec::with_capacity(files.len());
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = rel_path(root, path);
        let lexed = lexer::lex(&text);
        let parsed = parser::parse(&lexed);
        lexed_files.push((rel.clone(), lexed));
        parsed_files.push((rel, parsed));
    }

    // Classify by module tree (falling back to the path heuristic for
    // files no crate root reaches), then assemble the semantic inputs.
    let tree_kinds = semantic::classify_workspace(&parsed_files);
    let crate_names = crate_name_map(root);
    let empty = BTreeSet::new();
    let mut kinds: Vec<FileKind> = Vec::with_capacity(parsed_files.len());
    let mut inputs: Vec<symbols::FileInput> = Vec::with_capacity(parsed_files.len());
    for (rel, parsed) in parsed_files {
        let kind = tree_kinds
            .get(&rel)
            .copied()
            .unwrap_or_else(|| classify(&rel, &empty));
        kinds.push(kind);
        inputs.push(symbols::FileInput {
            crate_name: crate_name_of(&rel, &crate_names),
            rel,
            kind,
            parsed,
        });
    }
    let sem = semantic::analyze(inputs);

    // Raw diagnostics per file: token rules + semantic rules.
    let mut by_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    for ((rel, lexed), kind) in lexed_files.iter().zip(&kinds) {
        by_file.insert(rel.clone(), rules::scan_tokens(rel, lexed, *kind, cfg));
    }
    let mut p2_key_at: BTreeMap<(String, u32, u32), String> = BTreeMap::new();
    for (key, diag) in semantic::p2_diagnostics(&sem, cfg) {
        p2_key_at.insert((diag.path.clone(), diag.line, diag.col), key);
        by_file.entry(diag.path.clone()).or_default().push(diag);
    }
    for diag in semantic::d2_diagnostics(&sem, cfg) {
        by_file.entry(diag.path.clone()).or_default().push(diag);
    }

    // Directive suppression + A2, per file.
    let mut report = Report::default();
    let mut p2_keys: Vec<String> = Vec::new();
    for (rel, lexed) in &lexed_files {
        let raw = by_file.remove(rel).unwrap_or_default();
        let (kept, a2) = rules::apply_directives(rel, lexed, raw, cfg);
        for d in &kept {
            if d.rule == "P2" {
                if let Some(key) = p2_key_at.get(&(d.path.clone(), d.line, d.col)) {
                    p2_keys.push(key.clone());
                }
            }
        }
        report.diagnostics.extend(kept);
        report.diagnostics.extend(a2);
    }
    p2_keys.sort();
    p2_keys.dedup();

    // The P2 baseline: listed fns are accepted debt, but entries that
    // no longer match a live finding are themselves findings — the
    // baseline only ever shrinks.
    if !ignore_baseline {
        let baseline_path = root.join(&cfg.p2_baseline);
        if let Ok(text) = std::fs::read_to_string(&baseline_path) {
            let entries = config::parse_baseline(&text)?;
            let mut used: BTreeMap<&str, bool> =
                entries.iter().map(|(k, _)| (k.as_str(), false)).collect();
            report.diagnostics.retain(|d| {
                if d.rule != "P2" {
                    return true;
                }
                match p2_key_at
                    .get(&(d.path.clone(), d.line, d.col))
                    .and_then(|key| used.get_mut(key.as_str()))
                {
                    Some(slot) => {
                        *slot = true;
                        false
                    }
                    None => true,
                }
            });
            let level = cfg.level("P2");
            for (key, line) in &entries {
                if used.get(key.as_str()).copied().unwrap_or(false) {
                    continue;
                }
                report.diagnostics.push(Diagnostic {
                    rule: "P2".to_string(),
                    level,
                    path: cfg.p2_baseline.clone(),
                    line: *line,
                    col: 1,
                    message: format!(
                        "stale baseline entry `{key}`: the fn no longer reaches a \
                         panic site (or is gone, renamed, or now annotated) — \
                         remove the entry, e.g. via `demt lint --update-baseline`"
                    ),
                });
            }
        }
    }

    report.files_scanned = lexed_files.len();
    report
        .diagnostics
        .extend(layering::check_layering(root, cfg));
    report.diagnostics.retain(|d| d.level != Level::Allow);
    sort_diagnostics(&mut report.diagnostics);
    report.callgraph_json = sem.graph.render_json(&sem.table, &sem.reach);
    Ok((report, p2_keys))
}

/// Maps `crates/<dir>` prefixes (and the root package) to Cargo
/// package names by reading each member manifest.
fn crate_name_map(root: &Path) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let read_name = |manifest: &Path| -> Option<String> {
        let text = std::fs::read_to_string(manifest).ok()?;
        layering::parse_manifest(&text).name
    };
    if let Some(name) = read_name(&root.join("Cargo.toml")) {
        map.insert(String::new(), name);
    }
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.filter_map(|e| e.ok()) {
            let Ok(dir_name) = e.file_name().into_string() else {
                continue;
            };
            let name = read_name(&e.path().join("Cargo.toml"))
                .unwrap_or_else(|| format!("demt-{dir_name}"));
            map.insert(format!("crates/{dir_name}"), name);
        }
    }
    map
}

/// The package owning a workspace-relative file path.
fn crate_name_of(rel: &str, names: &BTreeMap<String, String>) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some(dir) = rest.split('/').next() {
            if let Some(name) = names.get(&format!("crates/{dir}")) {
                return name.clone();
            }
        }
    }
    names
        .get("")
        .cloned()
        .unwrap_or_else(|| "workspace".to_string())
}

/// Classifies a workspace-relative path. Mirrors Cargo's target
/// conventions: `tests/`, `benches/`, `examples/` and `#[cfg(test)]`
/// modules are test code; `src/bin/`, `src/main.rs` and `build.rs` are
/// binary code; everything else under `src/` is library code.
pub fn classify(rel: &str, test_files: &BTreeSet<String>) -> FileKind {
    if test_files.contains(rel) {
        return FileKind::Test;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    if parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"))
    {
        return FileKind::Test;
    }
    let in_bin = parts
        .windows(2)
        .any(|w| w == ["src", "bin"] || w == ["src", "main.rs"]);
    if in_bin || rel.ends_with("build.rs") {
        return FileKind::Binary;
    }
    FileKind::Library
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // absent top-level dir: nothing to scan
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let rel = rel_path(root, &path);
        if cfg.is_excluded(&rel) {
            continue;
        }
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders diagnostics the way rustc does: `path:line:col: level[rule]`.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&format!(
            "{}:{}:{}: {}[{}] {}\n",
            d.path,
            d.line,
            d.col,
            d.level.as_str(),
            d.rule,
            d.message
        ));
    }
    let (deny, warn) = (report.deny_count(), report.warn_count());
    if deny == 0 && warn == 0 {
        out.push_str(&format!(
            "demt-lint: workspace clean ({} files scanned)\n",
            report.files_scanned
        ));
    } else {
        out.push_str(&format!(
            "demt-lint: {} deny, {} warn across {} files\n",
            deny, warn, report.files_scanned
        ));
    }
    out
}

/// Renders the machine format: pretty JSON, diagnostics pre-sorted, no
/// timestamps or absolute paths — two runs over the same tree are
/// byte-identical (CI asserts this).
pub fn render_json(report: &Report) -> String {
    let diags: Vec<serde_json::Value> = report
        .diagnostics
        .iter()
        .map(|d| {
            serde_json::json!({
                "rule": d.rule,
                "level": d.level.as_str(),
                "path": d.path,
                "line": d.line,
                "col": d.col,
                "message": d.message,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "tool": "demt-lint",
        "version": 1,
        "files_scanned": report.files_scanned,
        "deny": report.deny_count(),
        "warn": report.warn_count(),
        "diagnostics": diags,
    });
    serde_json::to_string_pretty(&doc).unwrap_or_else(|_| String::from("{}"))
}

/// The `demt lint` / `demt-lint` entry point. Returns the process exit
/// code: 0 clean (warns allowed), 1 deny-level findings, 2 usage or
/// I/O errors.
pub fn lint_cli(args: &[String]) -> i32 {
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut format = "human".to_string();
    let mut callgraph_out: Option<PathBuf> = None;
    let mut update_baseline = false;
    let flags = [
        "--root",
        "--config",
        "--format",
        "--callgraph",
        "--update-baseline",
    ];
    let mut seen: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if flags.contains(&a.as_str()) {
            if seen.contains(&a.as_str()) {
                return usage(&format!("{a} given twice"));
            }
            seen.push(a);
        }
        match a.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a directory"),
            },
            "--config" => match it.next() {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => return usage("--config needs a file"),
            },
            "--format" => match it.next() {
                Some(v) if v == "human" || v == "json" || v == "sarif" => format = v.clone(),
                Some(v) => return usage(&format!("bad --format {v} (human|json|sarif)")),
                None => return usage("--format needs human|json|sarif"),
            },
            "--callgraph" => match it.next() {
                Some(v) => callgraph_out = Some(PathBuf::from(v)),
                None => return usage("--callgraph needs an output file"),
            },
            "--update-baseline" => update_baseline = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return 0;
            }
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => match discover_root() {
            Some(r) => r,
            None => {
                eprintln!(
                    "demt-lint: no workspace root found above the current directory \
                     (looked for Cargo.toml with [workspace]); pass --root DIR"
                );
                return 2;
            }
        },
    };
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let cfg = if config_path.exists() {
        match std::fs::read_to_string(&config_path) {
            Ok(text) => match Config::parse(&text) {
                Ok(cfg) => cfg,
                Err(e) => {
                    eprintln!("demt-lint: {e}");
                    return 2;
                }
            },
            Err(e) => {
                eprintln!("demt-lint: {}: {e}", config_path.display());
                return 2;
            }
        }
    } else {
        Config::default()
    };
    let (report, p2_keys) = match run_workspace_inner(&root, &cfg, update_baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("demt-lint: {e}");
            return 2;
        }
    };
    if update_baseline {
        let path = root.join(&cfg.p2_baseline);
        if let Err(e) = std::fs::write(&path, config::render_baseline(&p2_keys)) {
            eprintln!("demt-lint: {}: {e}", path.display());
            return 2;
        }
        eprintln!(
            "demt-lint: wrote {} baseline entries to {}",
            p2_keys.len(),
            path.display()
        );
    }
    if let Some(out_path) = callgraph_out {
        if let Err(e) = std::fs::write(&out_path, format!("{}\n", report.callgraph_json)) {
            eprintln!("demt-lint: {}: {e}", out_path.display());
            return 2;
        }
    }
    match format.as_str() {
        "json" => println!("{}", render_json(&report)),
        "sarif" => println!("{}", sarif::render_sarif(&report)),
        _ => print!("{}", render_human(&report)),
    }
    if update_baseline {
        // The regenerated baseline reflects the current state by
        // construction; remaining P2 findings are now accepted debt.
        return 0;
    }
    if report.deny_count() > 0 {
        1
    } else {
        0
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!("demt-lint: {msg}\n{USAGE}");
    2
}

/// Ascends from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`.
fn discover_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

const USAGE: &str = "\
demt-lint — workspace static analyzer (determinism, panic-freedom, layering)

USAGE: demt-lint [--root DIR] [--config FILE] [--format human|json|sarif]
                 [--callgraph FILE] [--update-baseline]

  --root DIR         workspace root (default: ascend to [workspace] manifest)
  --config FILE      lint.toml (default: ROOT/lint.toml; built-ins otherwise)
  --format FMT       human (default), json (deterministic, sorted) or
                     sarif (SARIF 2.1 export for inline CI annotations)
  --callgraph FILE   also write the call-graph JSON report (nodes, edges,
                     per-fn panic distance) to FILE
  --update-baseline  regenerate ROOT/panic_reach.toml from the current
                     P2 findings and exit 0

RULES (levels from lint.toml [levels]; all deny by default)
  D1  nondeterminism sources in library code (HashMap/HashSet,
      Instant::now / SystemTime outside [paths].timing, thread::current)
  P1  unwrap/expect/panic!/unimplemented!/todo!/unreachable! and
      assert!/assert_eq!/assert_ne! in library code (not debug_assert!)
  F1  bare float ==/!= against a literal
  L1  crate [dependencies] edge not in the declared layering DAG
  U1  unsafe code (not suppressible)
  A1  malformed // demt-lint: allow(RULE, reason) directive
  P2  pub library fn that transitively reaches a panic site over the
      workspace call graph (annotated P1 sites included); allow(P2) or
      the panic_reach.toml baseline accept it
  A2  stale allow(...) directive that no longer suppresses anything
  D2  fold/sum over possibly-float items without a provably-ordered
      iteration source (.iter() on a slice/BTree collection, a range)

Per-line escape hatch (same line or line above, reason required):
  // demt-lint: allow(P1, invariant: xs is non-empty here)

EXIT  0 clean (warns ok) · 1 deny-level findings · 2 usage/IO error
";
