//! End-to-end tests of the `demt` CLI binary: the generate → schedule →
//! validate → bound → gantt pipeline through real process invocations.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn demt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_demt"))
}

fn run_with_stdin(mut cmd: Command, stdin: &[u8]) -> (String, String, bool) {
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn demt");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(stdin)
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn generate_schedule_validate_pipeline() {
    let out = demt()
        .args([
            "generate", "--kind", "mixed", "--tasks", "10", "--procs", "6", "--seed", "3",
        ])
        .output()
        .expect("generate");
    assert!(out.status.success());
    let inst_json = out.stdout;
    assert!(String::from_utf8_lossy(&inst_json).contains("\"tasks\""));

    let mut sched = demt();
    sched.args(["schedule", "--algorithm", "demt"]);
    let (sched_json, stderr, ok) = run_with_stdin(sched, &inst_json);
    assert!(ok, "schedule failed: {stderr}");
    assert!(
        stderr.contains("Cmax"),
        "criteria printed to stderr: {stderr}"
    );

    // Validate needs the instance as a file.
    let dir = std::env::temp_dir().join(format!("demt-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst_path = dir.join("inst.json");
    std::fs::write(&inst_path, &inst_json).unwrap();

    let mut validate = demt();
    validate.args(["validate", "--instance", inst_path.to_str().unwrap()]);
    let (vout, _, ok) = run_with_stdin(validate, sched_json.as_bytes());
    assert!(ok);
    assert!(vout.contains("VALID"), "{vout}");

    let mut gantt = demt();
    gantt.args([
        "gantt",
        "--instance",
        inst_path.to_str().unwrap(),
        "--width",
        "40",
    ]);
    let (gout, _, ok) = run_with_stdin(gantt, sched_json.as_bytes());
    assert!(ok);
    assert_eq!(
        gout.lines().count(),
        7,
        "header + 6 processor rows:\n{gout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bound_and_exact_agree_on_ordering() {
    let out = demt()
        .args([
            "generate", "--kind", "cirne", "--tasks", "5", "--procs", "3", "--seed", "7",
        ])
        .output()
        .expect("generate");
    let inst_json = out.stdout;

    let mut bound_cmd = demt();
    bound_cmd.arg("bound");
    let (bound_out, _, ok) = run_with_stdin(bound_cmd, &inst_json);
    assert!(ok);
    let bounds: serde_json::Value = serde_json::from_str(&bound_out).unwrap();

    let mut exact_cmd = demt();
    exact_cmd.arg("exact");
    let (exact_out, _, ok) = run_with_stdin(exact_cmd, &inst_json);
    assert!(ok);
    let exact: serde_json::Value = serde_json::from_str(&exact_out).unwrap();

    let lb_cmax = bounds["cmax_lower_bound"].as_f64().unwrap();
    let opt_cmax = exact["optimal_cmax"].as_f64().unwrap();
    assert!(
        lb_cmax <= opt_cmax * (1.0 + 1e-7),
        "bound {lb_cmax} vs optimum {opt_cmax}"
    );
    let lb_minsum = bounds["minsum_lower_bound"].as_f64().unwrap();
    let opt_minsum = exact["optimal_minsum"].as_f64().unwrap();
    assert!(lb_minsum <= opt_minsum * (1.0 + 1e-7));
}

#[test]
fn corrupted_schedule_is_rejected_with_nonzero_exit() {
    let out = demt()
        .args([
            "generate", "--kind", "highly", "--tasks", "6", "--procs", "4", "--seed", "1",
        ])
        .output()
        .expect("generate");
    let inst_json = out.stdout;
    let mut sched = demt();
    sched.args(["schedule", "--algorithm", "gang"]);
    let (sched_json, _, _) = run_with_stdin(sched, &inst_json);

    // Corrupt: drop one placement.
    let mut v: serde_json::Value = serde_json::from_str(&sched_json).unwrap();
    let placements = v["placements"].as_array_mut().unwrap();
    placements.pop();

    let dir = std::env::temp_dir().join(format!("demt-cli-neg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst_path = dir.join("inst.json");
    std::fs::write(&inst_path, &inst_json).unwrap();

    let mut validate = demt();
    validate.args(["validate", "--instance", inst_path.to_str().unwrap()]);
    let (vout, _, ok) = run_with_stdin(validate, v.to_string().as_bytes());
    assert!(!ok, "corrupted schedule must fail validation");
    assert!(vout.contains("INVALID"), "{vout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_lists_all_commands() {
    let out = demt().arg("--help").output().expect("help");
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "generate",
        "schedule",
        "algorithms",
        "validate",
        "bound",
        "gantt",
        "exact",
        "frontend",
        "swf",
        "repro",
    ] {
        assert!(text.contains(cmd), "help is missing {cmd}");
    }
}

#[test]
fn repro_subcommand_is_deterministic_across_worker_counts() {
    // `demt repro` shares the repro driver: a tiny sweep with the
    // wall-clock fields zeroed must emit byte-identical JSON for any
    // worker count (the index-ordered reduction guarantee, end to end).
    let dir = std::env::temp_dir().join(format!("demt-cli-repro-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json_for = |workers: &str| -> Vec<u8> {
        let path = dir.join(format!("w{workers}.json"));
        let out = demt()
            .args([
                "repro",
                "fig6",
                "--tasks",
                "8,12",
                "--procs",
                "12",
                "--runs",
                "2",
                "--no-timing",
                "--workers",
                workers,
                "--out",
                dir.to_str().unwrap(),
                "--json",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("run demt repro");
        assert!(
            out.status.success(),
            "repro failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(&path).expect("json written")
    };
    let w1 = json_for("1");
    let w3 = json_for("3");
    assert!(!w1.is_empty());
    assert_eq!(w1, w3, "worker count changed the output bytes");
    // The CSV series land next to the JSON, same as the repro binary.
    assert!(dir.join("fig6_cirne.csv").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn algorithms_command_lists_the_registry() {
    let out = demt().arg("algorithms").output().expect("algorithms");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["demt", "gang", "sequential", "list", "lptf", "saf"] {
        assert!(text.contains(name), "registry listing missing {name}");
    }
    assert!(text.contains("DEMT") && text.contains("LPTF"), "{text}");
}

#[test]
fn unknown_algorithm_error_lists_registry_names() {
    let out = demt()
        .args([
            "generate", "--kind", "mixed", "--tasks", "4", "--procs", "2", "--seed", "1",
        ])
        .output()
        .expect("generate");
    let mut sched = demt();
    sched.args(["schedule", "--algorithm", "bogus"]);
    let (_, stderr, ok) = run_with_stdin(sched, &out.stdout);
    assert!(!ok, "bogus algorithm must fail");
    assert!(stderr.contains("unknown --algorithm bogus"), "{stderr}");
    // The accepted-values list is derived from the registry, so every
    // registered name must appear in the message.
    for name in ["demt", "gang", "sequential", "list", "lptf", "saf"] {
        assert!(
            stderr.contains(name),
            "error message missing {name}: {stderr}"
        );
    }
}

#[test]
fn metrics_json_emits_machine_readable_criteria_on_stderr() {
    let out = demt()
        .args([
            "generate", "--kind", "cirne", "--tasks", "10", "--procs", "6", "--seed", "2",
        ])
        .output()
        .expect("generate");
    let mut sched = demt();
    sched.args(["schedule", "--algorithm", "lptf", "--metrics", "json"]);
    let (stdout, stderr, ok) = run_with_stdin(sched, &out.stdout);
    assert!(ok, "{stderr}");
    // stdout stays the plain schedule (pipeline compatibility)…
    let schedule: serde_json::Value = serde_json::from_str(&stdout).unwrap();
    assert!(schedule["placements"].as_array().is_some());
    // …while stderr carries the report as one JSON object.
    let metrics: serde_json::Value = serde_json::from_str(stderr.trim()).unwrap();
    assert_eq!(metrics["algorithm"].as_str().unwrap(), "lptf");
    assert!(metrics["criteria"]["makespan"].as_f64().unwrap() > 0.0);
    assert!(metrics["criteria"]["weighted_completion"].as_f64().unwrap() > 0.0);
    assert!(metrics["wall_seconds"].as_f64().unwrap() >= 0.0);
    let phases = metrics["phases"].as_array().unwrap();
    assert!(
        phases.iter().any(|p| p["phase"].as_str() == Some("dual")),
        "lptf report must include the dual phase: {stderr}"
    );
}

#[test]
fn frontend_supports_pareto_arrivals() {
    let out = demt()
        .args([
            "frontend",
            "--jobs",
            "14",
            "--procs",
            "8",
            "--gap",
            "0.5",
            "--seed",
            "3",
            "--arrivals",
            "pareto",
            "--shape",
            "2.0",
        ])
        .output()
        .expect("frontend");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DEMT"), "{text}");
    assert!(text.contains("FCFS"), "{text}");

    let bad = demt()
        .args(["frontend", "--jobs", "4", "--arrivals", "lognormal"])
        .output()
        .expect("frontend");
    assert!(!bad.status.success(), "bad arrival model must be rejected");

    // Shapes α ≤ 1 have no finite mean: a clean CLI error, not a panic.
    let bad_shape = demt()
        .args([
            "frontend",
            "--jobs",
            "4",
            "--arrivals",
            "pareto",
            "--shape",
            "1.0",
        ])
        .output()
        .expect("frontend");
    assert!(!bad_shape.status.success());
    assert_eq!(bad_shape.status.code(), Some(2), "die(), not a panic");
    let err = String::from_utf8_lossy(&bad_shape.stderr);
    assert!(err.contains("bad --shape"), "{err}");
}

#[test]
fn listbench_rejects_an_empty_machine() {
    let out = demt()
        .args(["listbench", "--procs", "0", "--tasks", "10"])
        .output()
        .expect("listbench");
    assert_eq!(out.status.code(), Some(2), "die(), not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad --procs 0"), "{err}");
}

#[test]
fn every_algorithm_round_trips_and_respects_bounds() {
    // generate → schedule (each algorithm) → validate → bound, all via
    // JSON stdin/stdout, asserting every schedule beats neither bound.
    let out = demt()
        .args([
            "generate", "--kind", "cirne", "--tasks", "12", "--procs", "8", "--seed", "11",
        ])
        .output()
        .expect("generate");
    assert!(out.status.success());
    let inst_json = out.stdout;

    let mut bound_cmd = demt();
    bound_cmd.arg("bound");
    let (bound_out, _, ok) = run_with_stdin(bound_cmd, &inst_json);
    assert!(ok);
    let bounds: serde_json::Value = serde_json::from_str(&bound_out).unwrap();
    let lb_cmax = bounds["cmax_lower_bound"].as_f64().unwrap();
    let lb_minsum = bounds["minsum_lower_bound"].as_f64().unwrap();
    assert!(
        lb_cmax > 0.0 && lb_minsum > 0.0,
        "degenerate bounds: {bound_out}"
    );

    let dir = std::env::temp_dir().join(format!("demt-cli-algos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst_path = dir.join("inst.json");
    std::fs::write(&inst_path, &inst_json).unwrap();

    for alg in ["demt", "gang", "sequential", "list", "lptf", "saf"] {
        let mut sched = demt();
        sched.args(["schedule", "--algorithm", alg]);
        let (sched_json, stderr, ok) = run_with_stdin(sched, &inst_json);
        assert!(ok, "{alg} schedule failed: {stderr}");

        let mut validate = demt();
        validate.args(["validate", "--instance", inst_path.to_str().unwrap()]);
        let (vout, _, ok) = run_with_stdin(validate, sched_json.as_bytes());
        assert!(ok, "{alg}: {vout}");
        assert!(vout.contains("VALID"), "{alg}: {vout}");

        // `validate` prints "Cmax = X, ΣwᵢCᵢ = Y"; both must dominate
        // the certified lower bounds.
        let grab = |label: &str| -> f64 {
            let tail =
                &vout[vout.find(label).unwrap_or_else(|| panic!("{alg}: {vout}")) + label.len()..];
            tail.trim_start()
                .trim_start_matches('=')
                .trim_start()
                .split(|c: char| !(c.is_ascii_digit() || c == '.'))
                .next()
                .unwrap()
                .parse()
                .unwrap_or_else(|e| panic!("{alg}: bad {label} in {vout}: {e}"))
        };
        let cmax = grab("Cmax");
        let minsum = grab("ΣwᵢCᵢ");
        // `validate` prints with 4 decimal places, so allow the print
        // quantization (5e-5 absolute) on top of float slack.
        assert!(
            cmax >= lb_cmax * (1.0 - 1e-7) - 1e-4,
            "{alg}: Cmax {cmax} below lower bound {lb_cmax}"
        );
        assert!(
            minsum >= lb_minsum * (1.0 - 1e-7) - 1e-4,
            "{alg}: ΣwᵢCᵢ {minsum} below lower bound {lb_minsum}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
