//! The linter applied to its own workspace: the tree must be clean
//! under the checked-in `lint.toml`, the declared layering table must
//! be a DAG matching the real manifests, JSON output must be
//! deterministic, and the seeded-violation fixture workspace must fail.

use demt_lint::{layering, run_workspace, Config};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the root")
        .to_path_buf()
}

fn repo_config(root: &Path) -> Config {
    let text = std::fs::read_to_string(root.join("lint.toml")).expect("checked-in lint.toml");
    Config::parse(&text).expect("lint.toml parses")
}

#[test]
fn workspace_lints_clean() {
    let root = repo_root();
    let report = run_workspace(&root, &repo_config(&root)).expect("walk succeeds");
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
    let rendered = demt_lint::render_human(&report);
    assert_eq!(
        report.deny_count(),
        0,
        "workspace must lint clean:\n{rendered}"
    );
    assert_eq!(report.warn_count(), 0, "no warns either:\n{rendered}");
}

/// The wall clock has exactly one reader: re-adding a timing
/// exemption has to edit this test.
#[test]
fn the_wall_clock_has_one_reader() {
    let root = repo_root();
    assert_eq!(repo_config(&root).timing, ["crates/api/src/clock.rs"]);
}

#[test]
fn declared_layering_is_a_dag() {
    layering::table_is_dag().expect("ALLOWED_DEPS is acyclic and closed");
}

#[test]
fn json_output_is_deterministic() {
    let root = repo_root();
    let cfg = repo_config(&root);
    let a = demt_lint::render_json(&run_workspace(&root, &cfg).expect("run 1"));
    let b = demt_lint::render_json(&run_workspace(&root, &cfg).expect("run 2"));
    assert_eq!(a, b, "two consecutive runs must be byte-identical");
}

/// The derived surfaces ride the same determinism contract as the
/// sorted diagnostics: two runs render byte-identical call-graph and
/// SARIF documents.
#[test]
fn callgraph_and_sarif_are_deterministic() {
    let root = repo_root();
    let cfg = repo_config(&root);
    let a = run_workspace(&root, &cfg).expect("run 1");
    let b = run_workspace(&root, &cfg).expect("run 2");
    assert!(!a.callgraph_json.is_empty(), "callgraph rendered");
    assert_eq!(
        a.callgraph_json, b.callgraph_json,
        "call-graph report must be byte-identical across runs"
    );
    assert_eq!(
        demt_lint::sarif::render_sarif(&a),
        demt_lint::sarif::render_sarif(&b),
        "SARIF export must be byte-identical across runs"
    );
}

/// Negative test: the CLI must FAIL (exit 1) on the seeded fixture
/// workspace and flag every rule class that was planted there.
#[test]
fn cli_fails_on_the_seeded_workspace() {
    let seeded = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/seeded");
    let out = Command::new(env!("CARGO_BIN_EXE_demt-lint"))
        .args(["--root"])
        .arg(&seeded)
        .args(["--format", "json"])
        .output()
        .expect("spawn demt-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded violations must fail the run"
    );
    let stdout = String::from_utf8(out.stdout).expect("json is utf-8");
    for rule in ["D1", "P1", "F1", "U1", "L1", "P2", "A2", "D2"] {
        assert!(
            stdout.contains(&format!("\"rule\": \"{rule}\"")),
            "seeded {rule} not reported:\n{stdout}"
        );
    }
    assert!(
        stdout.contains("demt-sim"),
        "the illegal demt-model → demt-sim edge must be named:\n{stdout}"
    );

    // A repeated flag is a usage error (exit 2) naming the flag, not
    // "the last one wins".
    let twice: [&[&str]; 5] = [
        &["--root", "a", "--root", "b"],
        &["--config", "a", "--config", "b"],
        &["--format", "json", "--format", "human"],
        &["--callgraph", "a", "--callgraph", "b"],
        &["--update-baseline", "--update-baseline"],
    ];
    for args in twice {
        let out = Command::new(env!("CARGO_BIN_EXE_demt-lint"))
            .args(["--root"])
            .arg(&seeded)
            .args(args)
            .output()
            .expect("spawn demt-lint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{} given twice", args[0])),
            "{args:?}: {stderr}"
        );
    }
}

/// The CLI on the real workspace: exit 0 and the clean summary.
#[test]
fn cli_passes_on_the_real_workspace() {
    let root = repo_root();
    let out = Command::new(env!("CARGO_BIN_EXE_demt-lint"))
        .args(["--root"])
        .arg(&root)
        .output()
        .expect("spawn demt-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must be clean:\n{stdout}"
    );
    assert!(
        stdout.contains("workspace clean"),
        "summary line:\n{stdout}"
    );
}
