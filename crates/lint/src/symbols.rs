//! The workspace symbol table: every fn, inherent method and trait
//! method across all crates, keyed for the call graph.
//!
//! Built from [`crate::parser`] output, one [`FileInput`] per `.rs`
//! file. Each fn gets a stable, human-readable key —
//! `crate-name::module::path::Owner::name` — deduplicated with a `#N`
//! suffix when two fns collide (same-named helpers in sibling inline
//! modules). Keys are what the `panic_reach.toml` baseline and the
//! call-graph report speak, so they must be deterministic across runs:
//! files arrive sorted and fns are emitted in source order.

use crate::parser::{FnDef, ParsedFile, UseDecl, Vis};
use crate::rules::FileKind;
use std::collections::BTreeMap;

/// One parsed file handed to the table builder.
#[derive(Debug)]
pub struct FileInput {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// Cargo package name of the owning crate (`demt-platform`).
    pub crate_name: String,
    /// Driver classification (test files are excluded from the graph).
    pub kind: FileKind,
    /// Parser output.
    pub parsed: ParsedFile,
}

/// One fn in the table.
#[derive(Debug)]
pub struct FnSymbol {
    /// Stable human-readable key (baseline / report identity).
    pub key: String,
    /// Owning crate package name.
    pub crate_name: String,
    /// Index into the builder's file list (for use-map lookups).
    pub file: usize,
    /// Workspace-relative path of the defining file.
    pub rel: String,
    /// The fn's own name.
    pub name: String,
    /// `impl`/`trait` self-type name, if any.
    pub owner: Option<String>,
    /// Visibility (P2 applies to [`Vis::Pub`] only).
    pub vis: Vis,
    /// File classification.
    pub kind: FileKind,
    /// Under `#[cfg(test)]`.
    pub cfg_test: bool,
    /// 1-based line of the fn name.
    pub line: u32,
    /// 1-based column of the fn name.
    pub col: u32,
    /// Index of the fn inside its file's `parsed.fns` (body lookup).
    pub def: usize,
}

/// The workspace symbol table plus the lookup maps the resolver needs.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// All symbols, file order then source order (deterministic).
    pub fns: Vec<FnSymbol>,
    /// The inputs, for body and use-map access (`FnSymbol::file` /
    /// `FnSymbol::def` index into these).
    pub files: Vec<FileInput>,
    /// Method name → symbol ids (fns with an owner).
    pub by_method: BTreeMap<String, Vec<usize>>,
    /// (crate, fn name) → free-fn symbol ids.
    pub by_crate_free: BTreeMap<(String, String), Vec<usize>>,
    /// (crate, fn name) → all symbol ids (frees and methods).
    pub by_crate_name: BTreeMap<(String, String), Vec<usize>>,
    /// (owner type name, fn name) → symbol ids.
    pub by_owner: BTreeMap<(String, String), Vec<usize>>,
    /// Lib ident (`demt_model`) → crate package name (`demt-model`).
    pub crate_idents: BTreeMap<String, String>,
}

impl SymbolTable {
    /// Builds the table. Test-classified files and `#[cfg(test)]` fns
    /// are left out entirely: they may panic freely and would only add
    /// noise edges through over-approximate method resolution.
    pub fn build(files: Vec<FileInput>) -> SymbolTable {
        let mut table = SymbolTable::default();
        let mut key_counts: BTreeMap<String, usize> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            table
                .crate_idents
                .entry(file.crate_name.replace('-', "_"))
                .or_insert_with(|| file.crate_name.clone());
            if file.kind == FileKind::Test {
                continue;
            }
            let file_mods = module_path_of(&file.rel);
            for (di, def) in file.parsed.fns.iter().enumerate() {
                if def.cfg_test {
                    continue;
                }
                let base = symbol_key(&file.crate_name, &file_mods, def);
                let n = key_counts.entry(base.clone()).or_insert(0);
                *n += 1;
                let key = if *n == 1 { base } else { format!("{base}#{n}") };
                let id = table.fns.len();
                if let Some(owner) = &def.owner {
                    table
                        .by_method
                        .entry(def.name.clone())
                        .or_default()
                        .push(id);
                    table
                        .by_owner
                        .entry((owner.clone(), def.name.clone()))
                        .or_default()
                        .push(id);
                } else {
                    table
                        .by_crate_free
                        .entry((file.crate_name.clone(), def.name.clone()))
                        .or_default()
                        .push(id);
                }
                table
                    .by_crate_name
                    .entry((file.crate_name.clone(), def.name.clone()))
                    .or_default()
                    .push(id);
                table.fns.push(FnSymbol {
                    key,
                    crate_name: file.crate_name.clone(),
                    file: fi,
                    rel: file.rel.clone(),
                    name: def.name.clone(),
                    owner: def.owner.clone(),
                    vis: def.vis,
                    kind: file.kind,
                    cfg_test: def.cfg_test,
                    line: def.line,
                    col: def.col,
                    def: di,
                });
            }
        }
        table.files = files;
        table
    }

    /// The fn's parsed definition (body scan access).
    pub fn def_of(&self, id: usize) -> Option<&FnDef> {
        let sym = self.fns.get(id)?;
        self.files.get(sym.file)?.parsed.fns.get(sym.def)
    }

    /// The use declarations in the symbol's file.
    pub fn uses_of(&self, id: usize) -> &[UseDecl] {
        self.fns
            .get(id)
            .and_then(|s| self.files.get(s.file))
            .map(|f| f.parsed.uses.as_slice())
            .unwrap_or(&[])
    }
}

/// Module path from a workspace-relative file path: the components
/// after `src/`, minus the file stem for `lib.rs`/`main.rs`/`mod.rs`.
/// `crates/platform/src/list.rs` → `["list"]`.
fn module_path_of(rel: &str) -> Vec<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let src_at = parts.iter().position(|p| *p == "src");
    let tail: &[&str] = match src_at {
        Some(i) => parts.get(i + 1..).unwrap_or(&[]),
        // build.rs, tests/, benches/: the whole relative tail.
        None => parts.last().map(std::slice::from_ref).unwrap_or(&[]),
    };
    let mut out: Vec<String> = Vec::new();
    for (i, part) in tail.iter().enumerate() {
        let last = i + 1 == tail.len();
        if last {
            match part.strip_suffix(".rs") {
                Some("lib") | Some("main") | Some("mod") => {}
                Some(stem) => out.push(stem.to_string()),
                None => out.push((*part).to_string()),
            }
        } else {
            out.push((*part).to_string());
        }
    }
    out
}

fn symbol_key(crate_name: &str, file_mods: &[String], def: &FnDef) -> String {
    let mut segs: Vec<&str> = vec![crate_name];
    segs.extend(file_mods.iter().map(String::as_str));
    segs.extend(def.module.iter().map(String::as_str));
    if let Some(owner) = &def.owner {
        segs.push(owner);
    }
    segs.push(&def.name);
    segs.join("::")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn input(rel: &str, crate_name: &str, kind: FileKind, src: &str) -> FileInput {
        FileInput {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            parsed: parse(&lex(src)),
        }
    }

    #[test]
    fn keys_are_crate_module_owner_name() {
        let table = SymbolTable::build(vec![
            input(
                "crates/platform/src/list.rs",
                "demt-platform",
                FileKind::Library,
                "pub struct FreeSet;\nimpl FreeSet { pub fn release(&mut self) {} }\npub fn helper() {}",
            ),
            input(
                "crates/model/src/lib.rs",
                "demt-model",
                FileKind::Library,
                "pub fn helper() {}",
            ),
        ]);
        let keys: Vec<&str> = table.fns.iter().map(|f| f.key.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "demt-platform::list::FreeSet::release",
                "demt-platform::list::helper",
                "demt-model::helper",
            ]
        );
        assert!(table
            .by_owner
            .contains_key(&("FreeSet".to_string(), "release".to_string())));
        assert_eq!(
            table.crate_idents.get("demt_model").map(String::as_str),
            Some("demt-model")
        );
    }

    #[test]
    fn colliding_keys_get_suffixes() {
        let table = SymbolTable::build(vec![input(
            "crates/x/src/lib.rs",
            "x",
            FileKind::Library,
            "fn f() {}\nmod a { pub fn g() {} }\nfn f2() {}\nimpl T { fn f() {} }\nimpl T { fn f(&self) {} }",
        )]);
        let keys: Vec<&str> = table.fns.iter().map(|f| f.key.as_str()).collect();
        assert_eq!(
            keys,
            vec!["x::f", "x::a::g", "x::f2", "x::T::f", "x::T::f#2"]
        );
    }

    #[test]
    fn test_files_and_cfg_test_fns_are_excluded() {
        let table = SymbolTable::build(vec![
            input(
                "crates/x/tests/it.rs",
                "x",
                FileKind::Test,
                "pub fn in_test() {}",
            ),
            input(
                "crates/x/src/lib.rs",
                "x",
                FileKind::Library,
                "#[cfg(test)]\nfn helper() {}\npub fn live() {}",
            ),
        ]);
        let keys: Vec<&str> = table.fns.iter().map(|f| f.key.as_str()).collect();
        assert_eq!(keys, vec!["x::live"]);
    }
}
