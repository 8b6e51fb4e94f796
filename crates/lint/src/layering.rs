//! Rule **L1** — the crate-dependency DAG from `ARCHITECTURE.md`,
//! encoded as data.
//!
//! Each workspace crate may depend (in `[dependencies]`) only on the
//! `demt-*` crates listed here. The table is the *declared* layering —
//! foundation → substrates → interface → algorithms → harnesses →
//! facade — so a new undeclared cross-crate edge is an error until it
//! is added both here and in `ARCHITECTURE.md`. `[dev-dependencies]`
//! are exempt: test-only edges (the bench crate, oracle tests) do not
//! constrain the shipped layering.

use crate::config::Config;
use crate::{Diagnostic, Level};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// crate name → the `demt-*` crates its `[dependencies]` may name.
/// Mirrors the layering diagram in `ARCHITECTURE.md`; keep the two in
/// sync when adding an edge.
pub const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    // foundation
    ("demt-model", &[]),
    ("demt-distr", &[]),
    ("demt-platform", &["demt-model"]),
    ("demt-workload", &["demt-distr", "demt-model"]),
    // substrates
    ("demt-kernels", &[]),
    ("demt-lp", &[]),
    ("demt-exec", &[]),
    (
        "demt-dual",
        &[
            "demt-kernels",
            "demt-model",
            "demt-platform",
            "demt-workload",
        ],
    ),
    (
        "demt-bounds",
        &[
            "demt-dual",
            "demt-exec",
            "demt-lp",
            "demt-model",
            "demt-platform",
            "demt-workload",
        ],
    ),
    // interface
    ("demt-api", &["demt-dual", "demt-model", "demt-platform"]),
    // algorithms
    (
        "demt-core",
        &[
            "demt-api",
            "demt-dual",
            "demt-kernels",
            "demt-model",
            "demt-platform",
            "demt-workload",
        ],
    ),
    (
        "demt-baselines",
        &[
            "demt-api",
            "demt-core",
            "demt-dual",
            "demt-model",
            "demt-platform",
            "demt-workload",
        ],
    ),
    // harnesses
    (
        "demt-online",
        &[
            "demt-api",
            "demt-core",
            "demt-model",
            "demt-platform",
            "demt-workload",
        ],
    ),
    (
        "demt-sim",
        &[
            "demt-api",
            "demt-baselines",
            "demt-bounds",
            "demt-core",
            "demt-dual",
            "demt-exec",
            "demt-model",
            "demt-platform",
            "demt-workload",
        ],
    ),
    (
        "demt-frontend",
        &[
            "demt-api",
            "demt-core",
            "demt-distr",
            "demt-model",
            "demt-online",
            "demt-platform",
            "demt-workload",
        ],
    ),
    (
        "demt-serve",
        &[
            "demt-api",
            "demt-baselines",
            "demt-exec",
            "demt-frontend",
            "demt-model",
            "demt-online",
            "demt-platform",
            "demt-workload",
        ],
    ),
    (
        "demt-exact",
        &["demt-model", "demt-platform", "demt-workload"],
    ),
    ("demt-divisible", &["demt-model"]),
    // tooling (standalone: no scheduling-crate deps, nothing depends
    // on it except the facade)
    ("demt-lint", &[]),
    // top: the replaybench harness (drives both production engines on
    // the demt-api clock); the facade re-exports everything
    (
        "demt-bench",
        &[
            "demt-api",
            "demt-exec",
            "demt-frontend",
            "demt-model",
            "demt-online",
            "demt-platform",
            "demt-serve",
            "demt-workload",
        ],
    ),
    (
        "demt",
        &[
            "demt-api",
            "demt-baselines",
            "demt-bench",
            "demt-bounds",
            "demt-core",
            "demt-distr",
            "demt-divisible",
            "demt-dual",
            "demt-exact",
            "demt-exec",
            "demt-frontend",
            "demt-kernels",
            "demt-lint",
            "demt-lp",
            "demt-model",
            "demt-online",
            "demt-platform",
            "demt-serve",
            "demt-sim",
            "demt-workload",
        ],
    ),
];

fn allowed_for(name: &str) -> Option<&'static [&'static str]> {
    ALLOWED_DEPS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, deps)| *deps)
}

/// The crates visible from `name` through `[dependencies]` edges:
/// `name` itself plus its transitive [`ALLOWED_DEPS`] closure. The
/// call-graph resolver uses this to bound name-based method resolution
/// — a crate cannot call into a crate it does not depend on. Unknown
/// crates return `None` (the resolver falls back to everything).
pub fn visible_crates(name: &str) -> Option<BTreeSet<&'static str>> {
    let mut out: BTreeSet<&'static str> = BTreeSet::new();
    let (root, _) = ALLOWED_DEPS.iter().find(|(n, _)| *n == name)?;
    let mut stack: Vec<&'static str> = vec![root];
    while let Some(n) = stack.pop() {
        if out.insert(n) {
            if let Some(deps) = allowed_for(n) {
                stack.extend(deps.iter().copied());
            }
        }
    }
    Some(out)
}

/// A parsed manifest: package name and its `demt-*` dependency edges
/// with the line each was declared on.
#[derive(Debug, Default)]
pub struct ManifestDeps {
    /// `package.name`, if present.
    pub name: Option<String>,
    /// `(dep name, 1-based manifest line)` from `[dependencies]` only.
    pub deps: Vec<(String, u32)>,
}

/// Extracts the package name and `demt-*` `[dependencies]` edges from
/// manifest text. Understands the workspace's manifest style: dotted
/// (`demt-api.workspace = true`), inline-table and plain entries.
pub fn parse_manifest(text: &str) -> ManifestDeps {
    let mut out = ManifestDeps::default();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_string();
            continue;
        }
        match section.as_str() {
            "package" => {
                if let Some(v) = line.strip_prefix("name") {
                    let v = v.trim_start();
                    if let Some(v) = v.strip_prefix('=') {
                        let v = v.trim();
                        if let Some(name) = v.strip_prefix('"').and_then(|v| v.split('"').next()) {
                            out.name = Some(name.to_string());
                        }
                    }
                }
            }
            "dependencies" => {
                // The key runs to the first `.`, `=` or space.
                let key: String = line
                    .chars()
                    .take_while(|c| !matches!(c, '.' | '=' | ' ' | '\t'))
                    .collect();
                if key.starts_with("demt-") || key == "demt" {
                    out.deps.push((key, idx as u32 + 1));
                }
            }
            _ => {}
        }
    }
    out
}

/// Checks every crate manifest under `root` (plus the root package's
/// own manifest) against [`ALLOWED_DEPS`].
pub fn check_layering(root: &Path, cfg: &Config) -> Vec<Diagnostic> {
    let mut manifest_paths: Vec<(String, std::path::PathBuf)> = Vec::new();
    manifest_paths.push(("Cargo.toml".to_string(), root.join("Cargo.toml")));
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();
        for n in names {
            let rel = format!("crates/{n}/Cargo.toml");
            manifest_paths.push((rel, crates_dir.join(&n).join("Cargo.toml")));
        }
    }
    let mut out = Vec::new();
    let level = cfg.level("L1");
    if level == Level::Allow {
        return out;
    }
    for (rel, path) in manifest_paths {
        if cfg.is_excluded(&rel) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // no manifest (fixture trees): nothing to check
        };
        let parsed = parse_manifest(&text);
        let Some(name) = parsed.name else {
            continue; // virtual manifest with no [package]
        };
        let Some(allowed) = allowed_for(&name) else {
            out.push(Diagnostic {
                rule: "L1".to_string(),
                level,
                path: rel.clone(),
                line: 1,
                col: 1,
                message: format!(
                    "crate `{name}` is not in the declared layering DAG \
                     (add it to demt-lint's ALLOWED_DEPS and to ARCHITECTURE.md)"
                ),
            });
            continue;
        };
        for (dep, line) in parsed.deps {
            if !allowed.contains(&dep.as_str()) {
                out.push(Diagnostic {
                    rule: "L1".to_string(),
                    level,
                    path: rel.clone(),
                    line,
                    col: 1,
                    message: format!(
                        "`{name}` may not depend on `{dep}`: the edge is not in the \
                         declared layering DAG (ARCHITECTURE.md); dev-dependencies are exempt"
                    ),
                });
            }
        }
    }
    out
}

/// Asserts the table itself is a DAG (no cycles) and every listed dep
/// is itself a listed crate. Used by a unit test and by `--explain`-
/// style debugging; cheap enough to leave in the library.
pub fn table_is_dag() -> Result<(), String> {
    let names: BTreeSet<&str> = ALLOWED_DEPS.iter().map(|(n, _)| *n).collect();
    for (n, deps) in ALLOWED_DEPS {
        for d in *deps {
            if !names.contains(d) {
                return Err(format!("{n} lists unknown crate {d}"));
            }
        }
    }
    // Kahn's algorithm over the (crate → dep) edges.
    let mut indeg: BTreeMap<&str, usize> = names.iter().map(|n| (*n, 0usize)).collect();
    for (_, deps) in ALLOWED_DEPS {
        for d in *deps {
            if let Some(k) = indeg.get_mut(d) {
                *k += 1;
            }
        }
    }
    let mut queue: Vec<&str> = indeg
        .iter()
        .filter(|(_, k)| **k == 0)
        .map(|(n, _)| *n)
        .collect();
    let mut seen = 0usize;
    while let Some(n) = queue.pop() {
        seen += 1;
        if let Some(deps) = allowed_for(n) {
            for d in deps {
                if let Some(k) = indeg.get_mut(d) {
                    *k -= 1;
                    if *k == 0 {
                        queue.push(d);
                    }
                }
            }
        }
    }
    if seen != names.len() {
        return Err("the declared layering table contains a cycle".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_table_is_a_dag() {
        table_is_dag().expect("ALLOWED_DEPS must stay acyclic");
    }

    #[test]
    fn manifest_parsing_covers_the_workspace_styles() {
        let m = parse_manifest(
            r#"
[package]
name = "demt-core"

[dependencies]
demt-api.workspace = true
demt-model = { path = "../model" }
serde.workspace = true

[dev-dependencies]
demt-exact.workspace = true
"#,
        );
        assert_eq!(m.name.as_deref(), Some("demt-core"));
        let deps: Vec<&str> = m.deps.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(deps, vec!["demt-api", "demt-model"]);
    }
}
