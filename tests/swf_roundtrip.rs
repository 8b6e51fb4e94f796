//! Round-trip test for the checked-in SWF sample trace: library-level
//! parse → write → reparse equality, stream lifting invariants, and an
//! end-to-end `demt swf` CLI replay.

use demt::frontend::{stream_from_swf, write_swf, SwfError, SwfReader, SwfRecord};
use std::process::Command;

fn parse_swf(text: &str) -> Result<Vec<SwfRecord>, SwfError> {
    SwfReader::new(text.as_bytes()).collect()
}

fn sample_path() -> String {
    format!("{}/tests/data/sample.swf", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn sample_trace_parses_and_round_trips() {
    let text = std::fs::read_to_string(sample_path()).expect("sample trace checked in");
    let records = parse_swf(&text).expect("sample trace is well-formed");
    assert_eq!(records.len(), 15, "fixture carries 15 data lines");

    // Write → reparse must be the identity on the consumed fields.
    let rewritten = write_swf(&records);
    let back = parse_swf(&rewritten).expect("writer emits valid SWF");
    assert_eq!(records, back);

    // The drop rules: job 5 has no runtime, job 7 no processor count.
    let jobs = stream_from_swf(&records, 64, 42).expect("sample profiles lift");
    assert_eq!(jobs.len(), 13, "two unusable records dropped");
    for j in &jobs {
        assert!(j.rigid_procs >= 1 && j.rigid_procs <= 64);
        assert!(j.release >= 0.0);
        assert!(j.task.is_monotonic(), "{:?}", j.task.monotony_violation());
    }
    // Releases are sorted and ids dense after the lift.
    for (i, w) in jobs.windows(2).enumerate() {
        assert!(w[1].release >= w[0].release, "job {i} out of order");
    }
    for (i, j) in jobs.iter().enumerate() {
        assert_eq!(j.task.id().index(), i);
    }
}

#[test]
fn demt_swf_replays_the_sample_trace() {
    let out = Command::new(env!("CARGO_BIN_EXE_demt"))
        .args([
            "swf",
            "--file",
            &sample_path(),
            "--procs",
            "32",
            "--seed",
            "3",
        ])
        .output()
        .expect("run demt swf");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "demt swf failed: {stderr}");
    assert!(
        stderr.contains("15 records, 13 usable jobs"),
        "summary line mismatch: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for policy in ["FCFS", "EASY", "DEMT"] {
        assert!(stdout.contains(policy), "missing {policy} row: {stdout}");
    }
}
