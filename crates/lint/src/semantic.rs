//! The semantic pass: symbol table + call graph + the rules that need
//! them (**P2** transitive panic reachability, **D2** order-sensitive
//! float accumulation), plus the module-tree file classifier.
//!
//! The classifier replaces the old purely path-based heuristic, which
//! mislabeled `src/main.rs`-adjacent `mod` files as library code: a
//! file's kind is now inherited from the *crate root that declares it*
//! (`src/lib.rs` → library, `src/main.rs` / `src/bin/*` / `build.rs` →
//! binary, `tests/` / `benches/` / `examples/` → test), following
//! `mod` declarations through the module tree, with `#[cfg(test)]`
//! declarations forcing the target to test kind.

use crate::callgraph::{CallGraph, Reachability};
use crate::config::Config;
use crate::parser::{Floatness, ParsedFile, Vis};
use crate::rules::FileKind;
use crate::symbols::{FileInput, SymbolTable};
use crate::Diagnostic;
use std::collections::BTreeMap;

/// The semantic pass output: everything downstream consumers (P2/D2
/// diagnostics, the `--callgraph` report) need.
#[derive(Debug)]
pub struct Semantic {
    /// The workspace symbol table.
    pub table: SymbolTable,
    /// The call graph over it.
    pub graph: CallGraph,
    /// Panic reachability per symbol.
    pub reach: Reachability,
}

/// Builds table, graph and reachability in one shot.
pub fn analyze(files: Vec<FileInput>) -> Semantic {
    let table = SymbolTable::build(files);
    let graph = CallGraph::build(&table);
    let reach = graph.reach();
    Semantic {
        table,
        graph,
        reach,
    }
}

/// **P2**: every `pub` library fn whose panic distance is ≥ 1 — it does
/// not panic itself (that is P1's domain) but *reaches* a panic site
/// through at least one call edge. Each diagnostic is paired with the
/// fn's symbol key, the identity the `panic_reach.toml` baseline
/// speaks.
pub fn p2_diagnostics(sem: &Semantic, cfg: &Config) -> Vec<(String, Diagnostic)> {
    let level = cfg.level("P2");
    let mut out = Vec::new();
    for (id, sym) in sem.table.fns.iter().enumerate() {
        if sym.vis != Vis::Pub || sym.kind != FileKind::Library || sym.cfg_test {
            continue;
        }
        let Some(dist) = sem.reach.dist.get(id).copied().flatten() else {
            continue;
        };
        if dist < 1 {
            continue;
        }
        let evidence = sem.graph.evidence(&sem.table, &sem.reach, id);
        out.push((
            sym.key.clone(),
            Diagnostic {
                rule: "P2".to_string(),
                level,
                path: sym.rel.clone(),
                line: sym.line,
                col: sym.col,
                message: format!(
                    "pub fn `{}` can transitively reach a panic site: {evidence}; \
                     convert the path to a typed Result, annotate \
                     `// demt-lint: allow(P2, reason)`, or record the fn in the \
                     panic_reach.toml baseline",
                    sym.key
                ),
            },
        ));
    }
    out
}

/// **D2**: `fold`/`sum`/`product` chains in library code whose element
/// type may be floating point and whose iteration source carries no
/// ordered-evidence. Float addition is not associative, so an
/// accumulation whose visit order can vary (an opaque iterator, a
/// parallel source) silently breaks the byte-identical-reports
/// guarantee.
pub fn d2_diagnostics(sem: &Semantic, cfg: &Config) -> Vec<Diagnostic> {
    let level = cfg.level("D2");
    let mut out = Vec::new();
    for (id, sym) in sem.table.fns.iter().enumerate() {
        if sym.kind != FileKind::Library || sym.cfg_test {
            continue;
        }
        let Some(def) = sem.table.def_of(id) else {
            continue;
        };
        for acc in &def.body.accums {
            if acc.floatness == Floatness::Int || acc.ordered {
                continue;
            }
            out.push(Diagnostic {
                rule: "D2".to_string(),
                level,
                path: sym.rel.clone(),
                line: acc.line,
                col: acc.col,
                message: format!(
                    "`.{}` over a possibly-float iterator with no provably-ordered \
                     source: float accumulation is order-sensitive; iterate an \
                     ordered source (`.iter()` on a slice/BTree collection or a \
                     range) or justify with `// demt-lint: allow(D2, reason)`",
                    acc.what
                ),
            });
        }
    }
    out
}

/// Classifies every workspace file by walking the module tree from the
/// crate roots. Files no root reaches (orphans, fixture snippets) are
/// absent from the returned map; the caller falls back to the path
/// heuristic.
pub fn classify_workspace(files: &[(String, ParsedFile)]) -> BTreeMap<String, FileKind> {
    let index: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, (rel, _))| (rel.as_str(), i))
        .collect();
    let mut kinds: Vec<Option<FileKind>> = vec![None; files.len()];
    let mut work: Vec<usize> = Vec::new();
    for (i, (rel, _)) in files.iter().enumerate() {
        if let Some(kind) = root_kind(rel) {
            kinds[i] = Some(kind);
            work.push(i);
        }
    }
    while let Some(i) = work.pop() {
        let Some(kind) = kinds.get(i).copied().flatten() else {
            continue;
        };
        let Some((rel, parsed)) = files.get(i) else {
            continue;
        };
        let dir = child_dir(rel);
        for m in &parsed.mods {
            let target_kind = if m.cfg_test { FileKind::Test } else { kind };
            for cand in [
                format!("{dir}{}.rs", m.name),
                format!("{dir}{}/mod.rs", m.name),
            ] {
                if let Some(&t) = index.get(cand.as_str()) {
                    if rank(target_kind) > kinds[t].map(rank).unwrap_or(0) {
                        kinds[t] = Some(target_kind);
                        work.push(t);
                    }
                }
            }
        }
    }
    files
        .iter()
        .zip(kinds)
        .filter_map(|((rel, _), k)| k.map(|k| (rel.clone(), k)))
        .collect()
}

/// Precedence when a file is reachable from several roots: library
/// rules are the strictest, so library wins; a plain declaration from
/// a binary root beats a `#[cfg(test)]` one.
fn rank(kind: FileKind) -> u8 {
    match kind {
        FileKind::Library => 3,
        FileKind::Binary => 2,
        FileKind::Test => 1,
    }
}

/// Is `rel` a crate-root-kind file (its child modules live in its own
/// directory rather than a subdirectory named after it)?
fn root_kind(rel: &str) -> Option<FileKind> {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"))
    {
        return Some(FileKind::Test);
    }
    if rel.ends_with("src/lib.rs") || rel == "lib.rs" {
        return Some(FileKind::Library);
    }
    if rel.ends_with("src/main.rs") || rel.ends_with("build.rs") {
        return Some(FileKind::Binary);
    }
    let n = parts.len();
    if n >= 2 && parts.get(n.wrapping_sub(2)) == Some(&"bin") {
        return Some(FileKind::Binary);
    }
    None
}

/// The directory (with trailing `/`) where `rel`'s child modules live.
fn child_dir(rel: &str) -> String {
    let (dir, file) = match rel.rsplit_once('/') {
        Some((d, f)) => (format!("{d}/"), f),
        None => (String::new(), rel),
    };
    let rootish = matches!(file, "lib.rs" | "main.rs" | "mod.rs" | "build.rs")
        || dir.ends_with("bin/")
        || dir.ends_with("tests/")
        || dir.ends_with("benches/")
        || dir.ends_with("examples/");
    if rootish {
        dir
    } else {
        format!("{dir}{}/", file.strip_suffix(".rs").unwrap_or(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn ws(files: &[(&str, &str)]) -> BTreeMap<String, FileKind> {
        let parsed: Vec<(String, ParsedFile)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), parse(&lex(src))))
            .collect();
        classify_workspace(&parsed)
    }

    #[test]
    fn binary_root_mods_are_binary_not_library() {
        // The bug this classifier fixes: helper.rs next to main.rs used
        // to classify as Library under the path heuristic.
        let kinds = ws(&[
            ("crates/tool/src/main.rs", "mod helper;\nfn main() {}"),
            ("crates/tool/src/helper.rs", "pub fn go() {}"),
        ]);
        assert_eq!(
            kinds.get("crates/tool/src/helper.rs"),
            Some(&FileKind::Binary)
        );
    }

    #[test]
    fn library_wins_when_shared_with_a_binary_root() {
        let kinds = ws(&[
            ("crates/x/src/lib.rs", "mod shared;"),
            ("crates/x/src/main.rs", "mod shared;\nfn main() {}"),
            ("crates/x/src/shared.rs", "pub fn go() {}"),
        ]);
        assert_eq!(
            kinds.get("crates/x/src/shared.rs"),
            Some(&FileKind::Library)
        );
    }

    #[test]
    fn cfg_test_decls_force_test_kind_transitively() {
        let kinds = ws(&[
            (
                "crates/x/src/lib.rs",
                "#[cfg(test)]\nmod testutil;\nmod real;",
            ),
            ("crates/x/src/testutil/mod.rs", "mod deeper;"),
            ("crates/x/src/testutil/deeper.rs", ""),
            ("crates/x/src/real.rs", "mod nested;"),
            ("crates/x/src/real/nested.rs", ""),
        ]);
        assert_eq!(
            kinds.get("crates/x/src/testutil/mod.rs"),
            Some(&FileKind::Test)
        );
        assert_eq!(
            kinds.get("crates/x/src/testutil/deeper.rs"),
            Some(&FileKind::Test)
        );
        assert_eq!(
            kinds.get("crates/x/src/real/nested.rs"),
            Some(&FileKind::Library)
        );
    }

    #[test]
    fn tests_dir_and_orphans() {
        let kinds = ws(&[
            ("crates/x/tests/it.rs", "mod common;"),
            ("crates/x/tests/common.rs", ""),
            ("crates/x/src/orphan.rs", "pub fn lonely() {}"),
        ]);
        assert_eq!(kinds.get("crates/x/tests/it.rs"), Some(&FileKind::Test));
        assert_eq!(kinds.get("crates/x/tests/common.rs"), Some(&FileKind::Test));
        assert_eq!(
            kinds.get("crates/x/src/orphan.rs"),
            None,
            "caller falls back"
        );
    }

    #[test]
    fn bin_dir_roots_declare_siblings() {
        let kinds = ws(&[
            ("src/bin/demt.rs", "mod cli;\nfn main() {}"),
            ("src/bin/cli.rs", "pub fn parse() {}"),
        ]);
        assert_eq!(kinds.get("src/bin/cli.rs"), Some(&FileKind::Binary));
    }
}
