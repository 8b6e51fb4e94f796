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
fn exact_gives_up_on_a_wide_machine_with_exit_2() {
    // Seven tasks on 32 processors: within the task cap, but the
    // allotment choices put the search far past its node budget (it
    // ran for minutes before the budget existed).
    let out = demt()
        .args([
            "generate", "--kind", "cirne", "--tasks", "7", "--procs", "32", "--seed", "1",
        ])
        .output()
        .expect("generate");
    let mut exact = demt();
    exact
        .arg("exact")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let clock = std::time::Instant::now();
    let mut child = exact.spawn().expect("spawn demt");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(&out.stdout)
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    let elapsed = clock.elapsed().as_secs_f64();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("exact search gave up after"), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(elapsed < 60.0, "the budgeted search took {elapsed:.1} s");
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
    // The CSV series land next to the JSON.
    assert!(dir.join("fig6_cirne.csv").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_quick_fig4_sweep_writes_csv() {
    let dir = std::env::temp_dir().join(format!("demt-repro-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = demt()
        .args(["repro", "fig4", "--quick", "--out", dir.to_str().unwrap()])
        .output()
        .expect("run demt repro");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 4"), "{stdout}");
    assert!(stdout.contains("demt"), "{stdout}");

    let csv = std::fs::read_to_string(dir.join("fig4_highly.csv")).expect("csv written");
    let mut lines = csv.lines();
    let header = lines.next().expect("header");
    assert!(header.starts_with("n,demt_wici_avg"));
    let cols = header.split(',').count();
    for line in lines {
        assert_eq!(line.split(',').count(), cols, "ragged CSV row: {line}");
        // Every ratio field parses as a finite positive number.
        for field in line.split(',').skip(1) {
            let v: f64 = field.parse().expect("numeric field");
            assert!(v.is_finite() && v > 0.0);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_help_prints_usage_and_exits_zero() {
    let out = demt()
        .args(["repro", "--help"])
        .output()
        .expect("run demt repro --help");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for fig in ["fig3", "fig4", "fig5", "fig6", "fig7", "ablation"] {
        assert!(text.contains(fig), "usage missing {fig}");
    }
    // The help names the tool that exists and the pool as it is, and so
    // does the top-level help.
    assert!(text.contains("USAGE: demt repro"), "{text}");
    let top = demt().arg("--help").output().expect("run demt --help");
    assert!(top.status.success());
    let top = String::from_utf8_lossy(&top.stdout);
    for stale in ["repro binary", "work-stealing"] {
        assert!(!text.contains(stale), "repro help still says {stale:?}");
        assert!(!top.contains(stale), "demt help still says {stale:?}");
    }
}

#[test]
fn repro_unknown_argument_fails_cleanly() {
    for (arg, needle) in [
        ("--bogus", "unknown flag --bogus"),
        ("fig9", "unknown argument fig9"),
    ] {
        let out = demt()
            .args(["repro", arg])
            .output()
            .expect("run demt repro");
        assert_eq!(out.status.code(), Some(2), "{arg}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{arg}: {err}");
    }
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
fn degenerate_generator_inputs_die_instead_of_panicking() {
    let sample = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/sample.swf");
    let trace = "n=10,m=4,seed=1";
    let missing = "/nonexistent/trace.swf";
    let cases: [(&[&str], &str); 38] = [
        (&["generate", "--procs", "0"], "bad --procs 0"),
        // Unknown and repeated flags die instead of being ignored.
        (&["generate", "--taks", "3"], "unknown flag --taks"),
        (
            &["generate", "--procs", "4", "--procs", "8"],
            "--procs given twice",
        ),
        (
            &["listbench", "--policy", "ordered"],
            "unknown flag --policy",
        ),
        (&["swf", "--file", sample, "--procs", "0"], "bad --procs 0"),
        (&["frontend", "--procs", "0"], "bad --procs 0"),
        (&["frontend", "--jobs", "0"], "bad --jobs 0"),
        (&["frontend", "--gap", "0"], "bad --gap"),
        (&["frontend", "--gap", "-1"], "bad --gap"),
        (&["frontend", "--gap", "nan"], "bad --gap"),
        // One column over the chart cap dies before any file is read.
        (
            &["gantt", "--instance", "unread.json", "--width", "1001"],
            "bad --width 1001: at most 1000 columns",
        ),
        (&["serve", "--procs", "4", "--workers", "0"], "--workers"),
        (&["bound", "--sweep", "2", "--workers", "0"], "--workers"),
        (&["repro", "fig6", "--workers", "0"], "--workers"),
        // One flag grammar: every command rejects a repeated, unknown or
        // valueless flag, and names it.
        (
            &["serve", "--procs", "4", "--procs", "8"],
            "--procs given twice",
        ),
        (
            &[
                "replaybench",
                "--gen-trace",
                "n=10,m=4,seed=1",
                "--gen-trace",
                "n=20,m=4,seed=1",
            ],
            "--gen-trace given twice",
        ),
        (
            &["repro", "fig6", "--runs", "1", "--runs", "2"],
            "--runs given twice",
        ),
        (
            &["repro", "fig6", "--paper", "--quick"],
            "--paper and --quick",
        ),
        (&["serve", "--procs"], "--procs needs a value"),
        (&["replaybench", "--bogus"], "unknown flag --bogus"),
        // A flag the chosen source never reads dies, naming the flag.
        (
            &["replaybench", "--gen-trace", trace, "--procs", "999"],
            "demt replaybench: --procs is not read with --gen-trace \
             (see demt replaybench --help)",
        ),
        (
            &["replaybench", "--gen-trace", trace, "--seed", "5"],
            "--seed is not read with --gen-trace",
        ),
        (
            &[
                "replaybench",
                "--gen-trace",
                trace,
                "--engine",
                "queue",
                "--algorithm",
                "demt",
            ],
            "--algorithm is not read with --engine queue",
        ),
        (
            &[
                "replaybench",
                "--gen-trace",
                trace,
                "--engine",
                "serve",
                "--order",
                "priority",
            ],
            "--order is not read with --engine serve",
        ),
        (
            &["serve", "--gen-grid", "--tasks", "2", "--tick", "7"],
            "demt serve: --tick is not read with --gen-grid (see demt serve --help)",
        ),
        (
            &["serve", "--gen-grid", "--oracle"],
            "--oracle is not read with --gen-grid",
        ),
        (
            &["serve", "--gen-grid", "--stats", "/nonexistent/x"],
            "--stats is not read with --gen-grid",
        ),
        (
            &["serve", "--gen-trace", trace, "--algorithm", "demt"],
            "--algorithm is not read with --gen-trace",
        ),
        (
            &["serve", "--gen-trace", trace, "--workers", "2"],
            "--workers is not read with --gen-trace",
        ),
        (
            &["serve", "--gen-trace", trace, "--procs", "4"],
            "--procs is not read with --gen-trace",
        ),
        (
            &["serve", "--procs", "4", "--tasks", "5"],
            "--tasks is not read with events on stdin",
        ),
        (
            &["serve", "--procs", "4", "--replay", sample, "--once"],
            "--once is not read with --replay",
        ),
        // A trace file that cannot be opened dies like a bad record,
        // in all three SWF commands.
        (&["swf", "--file", missing, "--procs", "4"], missing),
        (
            &["serve", "--procs", "4", "--replay", missing],
            "demt serve: --replay /nonexistent/trace.swf: ",
        ),
        (
            &["replaybench", "--swf", missing, "--procs", "4"],
            "demt replaybench: --swf /nonexistent/trace.swf: ",
        ),
        // Empty sweeps die before the pool starts.
        (&["repro", "fig6", "--procs", "0"], "bad --procs 0"),
        (&["repro", "fig6", "--runs", "0"], "bad --runs 0"),
        (&["repro", "fig6", "--tasks", "10,0"], "bad --tasks 10,0"),
    ];
    for (args, needle) in cases {
        let out = demt().args(args).output().expect("demt");
        assert_eq!(out.status.code(), Some(2), "{args:?}: die(), not a panic");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
    }

    let dir = std::env::temp_dir().join(format!("demt-cli-bad-inst-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Hostile SWF runtimes: `1e999` parses to infinity, and `1e308`
    // overflows `run_time·S(q)` on 64 processors. Every SWF command
    // rejects the record and exits 2. The streaming commands name its
    // line; `swf`, which sorts the whole trace before lifting, names
    // its job.
    for (runtime, needle) in [
        ("1e999", "SWF line 1: field 4 is not finite: \"1e999\""),
        ("1e308", "job 1 lifts to no valid moldable profile"),
    ] {
        let path = dir.join(format!("{runtime}.swf"));
        let record = format!("1 0 0 {runtime} 64 -1 -1 64 -1 -1 1 1 1 1 1 -1 -1 -1\n");
        std::fs::write(&path, record).unwrap();
        let swf = path.to_str().unwrap();
        for args in [
            &["swf", "--file", swf, "--procs", "64"][..],
            &["serve", "--procs", "64", "--replay", swf],
            &["replaybench", "--swf", swf, "--procs", "64"],
        ] {
            let out = demt().args(args).output().expect("demt");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
            assert!(err.contains(needle), "{args:?}: {err}");
            if args[0] != "swf" {
                assert!(err.contains("SWF line 1: "), "{args:?}: {err}");
            }
        }
    }

    // Instance documents that `Instance::new` rejects: a sparse task id,
    // no processors, and a times vector shorter than the machine.
    let inst_path = dir.join("inst.json");
    let docs: [(&str, &str); 3] = [
        (
            r#"{"procs":2,"tasks":[{"id":5,"weight":1.0,"times":[1.0,0.6]}]}"#,
            "task id 5",
        ),
        (r#"{"procs":0,"tasks":[]}"#, "zero processors"),
        (
            r#"{"procs":2,"tasks":[{"id":0,"weight":1.0,"times":[1.0]}]}"#,
            "covers 1 processors but instance has 2",
        ),
    ];
    for (doc, needle) in docs {
        std::fs::write(&inst_path, doc).unwrap();
        let validate = ["validate", "--instance", inst_path.to_str().unwrap()];
        for args in [&["schedule"][..], &["bound"], &validate] {
            // `validate` dies before reading its stdin, so feed the
            // document from the file rather than through a pipe.
            let stdin = std::fs::File::open(&inst_path).unwrap();
            let out = demt().args(args).stdin(stdin).output().expect("demt");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{args:?} on {doc}: die(), not a panic: {err}"
            );
            assert!(err.contains(needle), "{args:?} on {doc}: {err}");
        }
    }

    // An instance without tasks has no bound and no optimum; `schedule`
    // accepts it.
    std::fs::write(&inst_path, r#"{"procs":3,"tasks":[]}"#).unwrap();
    for args in [&["bound"][..], &["bound", "--sweep", "3"], &["exact"]] {
        let stdin = std::fs::File::open(&inst_path).unwrap();
        let out = demt().args(args).stdin(stdin).output().expect("demt");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: die(), not a panic: {err}"
        );
        assert!(err.contains("at least one task"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bound_output_matches_the_checked_in_goldens() {
    let out = demt()
        .args([
            "generate", "--kind", "cirne", "--tasks", "120", "--procs", "64", "--seed", "9",
        ])
        .output()
        .expect("generate");
    assert!(out.status.success());
    let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    for (args, golden) in [
        (&["bound"][..], "bound_cirne_120x64_s9.json"),
        (
            &["bound", "--sweep", "12"],
            "bound_sweep12_cirne_120x64_s9.json",
        ),
    ] {
        let mut cmd = demt();
        cmd.args(args);
        let (stdout, err, ok) = run_with_stdin(cmd, &out.stdout);
        assert!(ok, "{args:?}: {err}");
        let want = std::fs::read_to_string(data.join(golden)).expect("golden");
        assert!(stdout == want, "{args:?} differs from {golden}:\n{stdout}");
    }
}

#[test]
fn serve_demt_output_matches_the_checked_in_golden() {
    // The moldable DEMT path of the daemon calls the dual once per
    // batch; this pins its placement bytes on a cirne trace.
    let trace = demt()
        .args([
            "serve",
            "--gen-trace",
            "n=300,m=64,seed=5,kind=cirne,gap=0.05",
        ])
        .output()
        .expect("gen-trace");
    assert!(trace.status.success());
    let mut cmd = demt();
    cmd.args(["serve", "--procs", "64", "--algorithm", "demt"]);
    let (stdout, err, ok) = run_with_stdin(cmd, &trace.stdout);
    assert!(ok, "serve: {err}");
    let golden = "serve_demt_cirne_300x64_s5.jsonl";
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let want = std::fs::read_to_string(path.join(golden)).expect("golden");
    assert!(stdout == want, "serve output differs from {golden}");
}

#[test]
fn repro_and_table_outputs_match_the_checked_in_goldens() {
    // Byte goldens of the §4 figure sweep, the ablation CSV and the two
    // metrics tables: a refactor of the DEMT pipeline, the sweep runner
    // or the table printer must leave all four unchanged.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let data = root.join("tests/data");
    let dir = std::env::temp_dir().join(format!("demt-cli-goldens-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str]| -> Vec<u8> {
        let out = demt()
            .args(args)
            .current_dir(root)
            .output()
            .expect("run demt");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let golden = |name: &str| std::fs::read(data.join(name)).expect("golden");

    let json = dir.join("figs.json");
    let out = dir.to_str().unwrap();
    run(&[
        "repro",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "--quick",
        "--no-timing",
        "--workers",
        "1",
        "--json",
        json.to_str().unwrap(),
        "--out",
        out,
    ]);
    let figs = std::fs::read(&json).expect("json written");
    assert!(
        figs == golden("repro_quick_fig3-6.json"),
        "figure sweep differs"
    );

    run(&["repro", "ablation", "--quick", "--no-timing", "--out", out]);
    let csv = std::fs::read(dir.join("ablation.csv")).expect("csv written");
    assert!(
        csv == golden("repro_ablation_quick.csv"),
        "ablation differs"
    );

    let frontend = run(&["frontend"]);
    assert!(
        frontend == golden("frontend_default.txt"),
        "frontend differs"
    );
    let swf = run(&["swf", "--file", "tests/data/sample.swf", "--procs", "64"]);
    assert!(swf == golden("swf_sample_64.txt"), "swf table differs");
    let listbench = run(&[
        "listbench",
        "--procs",
        "200",
        "--tasks",
        "300",
        "--seed",
        "11",
    ]);
    assert!(
        listbench == golden("listbench_300x200_s11.json"),
        "list engine schedule differs"
    );
    std::fs::remove_dir_all(&dir).ok();
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
