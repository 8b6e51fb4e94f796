//! The daemon's determinism contract, enforced differentially: replaying
//! an event log through [`run_events`] must produce placements
//! **byte-identical** (as serialized JSON) to
//! [`try_online_batch_schedule`] on the equivalent all-at-once feed —
//! for random logs, for every worker count, and through the Unix-socket
//! front door.

use demt_api::Scheduler;
use demt_core::DemtScheduler;
use demt_model::{MoldableTask, TaskId};
use demt_online::{try_online_batch_schedule, OnlineJob};
use demt_serve::{run_events, JobEvent, ServeConfig, ServeStats};
use proptest::prelude::*;

/// Drives the daemon over `events` and returns its stdout bytes.
fn daemon_output(cfg: &ServeConfig, events: &[JobEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut stats = ServeStats::new(cfg.procs);
    run_events(
        cfg,
        events
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, e)| Ok((i + 1, e))),
        &mut out,
        &mut stats,
        None,
    )
    .expect("generated logs schedule cleanly");
    out
}

/// The equivalent batch feed of a submit-only log, serialized the way
/// the daemon serializes: one JSON placement line per decision.
fn batch_output(m: usize, events: &[JobEvent], algorithm: &str) -> Vec<u8> {
    let feed: Vec<OnlineJob> = events
        .iter()
        .map(|e| OnlineJob {
            task: e.to_task(m).expect("generated jobs lift cleanly"),
            release: e.release,
        })
        .collect();
    let scheduler = demt_serve::resolve_scheduler(algorithm).expect("known algorithm");
    let result = try_online_batch_schedule(m, &feed, scheduler).expect("valid feed");
    let mut out = Vec::new();
    for p in result.schedule.placements() {
        out.extend_from_slice(serde_json::to_string(p).expect("serializable").as_bytes());
        out.push(b'\n');
    }
    out
}

/// Random submit-only logs: releases are a non-negative cumulative sum
/// (sorted by construction), a mix of rigid requests and explicit
/// moldable profiles (work-conserving `seq/k`).
fn submit_log() -> impl Strategy<Value = (usize, Vec<JobEvent>)> {
    (2usize..=8).prop_flat_map(|m| {
        prop::collection::vec(
            (0.0f64..4.0, 1usize..=m, 0.1f64..6.0, 0.5f64..10.0, 0u32..4),
            0..36,
        )
        .prop_map(move |rows| {
            let mut release = 0.0;
            let events = rows
                .into_iter()
                .enumerate()
                .map(|(i, (gap, procs, time, weight, kind))| {
                    release += gap;
                    if kind == 0 {
                        // Explicit moldable profile p(k) = seq / k.
                        let times: Vec<f64> = (1..=m).map(|k| time / k as f64).collect();
                        JobEvent::submit_moldable(i, release, weight, times)
                    } else {
                        JobEvent::submit_rigid(i, release, weight, procs, time)
                    }
                })
                .collect();
            (m, events)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn daemon_replay_is_byte_identical_to_the_batch_wrapper((m, events) in submit_log()) {
        let mut cfg = ServeConfig::new(m);
        cfg.oracle = true; // in-process cross-check on top of the byte diff
        let daemon = daemon_output(&cfg, &events);
        let batch = batch_output(m, &events, "greedy");
        prop_assert_eq!(daemon, batch, "daemon and batch wrapper diverge on m={}", m);
    }

    #[test]
    fn worker_count_is_invisible_in_the_bytes((m, events) in submit_log()) {
        let mut cfg = ServeConfig::new(m);
        cfg.workers = 1;
        let one = daemon_output(&cfg, &events);
        cfg.workers = 4;
        let four = daemon_output(&cfg, &events);
        prop_assert_eq!(one, four);
    }
}

#[test]
fn the_paper_algorithm_also_replays_byte_identically() {
    // The full DEMT scheduler (dual phase + shelves) through the daemon
    // vs the batch wrapper — exercises the per-batch dual cache, not
    // just the dual-free greedy list.
    let m = 12;
    let events: Vec<JobEvent> = (0..20)
        .map(|i| {
            let release = (i / 4) as f64 * 1.5;
            let seq = 2.0 + (i % 7) as f64;
            let times: Vec<f64> = (1..=m).map(|k| seq / k as f64 + 0.2).collect();
            JobEvent::submit_moldable(i, release, 1.0 + (i % 3) as f64, times)
        })
        .collect();
    let mut cfg = ServeConfig::new(m);
    cfg.algorithm = "demt".to_string();
    cfg.oracle = true;
    let daemon = daemon_output(&cfg, &events);
    assert_eq!(daemon, batch_output(m, &events, "demt"));
    // And the registry resolution really is the paper scheduler.
    assert_eq!(
        demt_serve::resolve_scheduler("demt").map(|s| s.name()),
        Ok(DemtScheduler.name())
    );
}

#[test]
fn demt_places_tasks_whose_least_area_allotments_overflow_the_machine() {
    // Outside the monotone model: within λ ≈ 10 each job's least-area
    // allotment is 3 of the 5 processors, though the dual's oracle
    // counts 2, so the forced long-shelf jobs overflow the machine.
    let m = 5;
    let events: Vec<JobEvent> = (0..2)
        .map(|i| JobEvent::submit_moldable(i, 0.0, 1.0, vec![100.0, 10.0, 6.0, 6.0, 6.0]))
        .collect();
    let mut cfg = ServeConfig::new(m);
    cfg.algorithm = "demt".to_string();
    let out = String::from_utf8(daemon_output(&cfg, &events)).expect("utf-8");
    let placements: Vec<demt_platform::Placement> = out
        .lines()
        .map(|l| serde_json::from_str(l).expect("placement"))
        .collect();
    assert_eq!(placements.len(), 2, "{out}");
    let schedule = demt_platform::Schedule::from_placements(m, placements);
    demt_platform::validate_no_overlap(&schedule).expect("overlap-free schedule");
}

#[test]
fn cancels_divert_the_plan_but_keep_it_valid() {
    let m = 8;
    let events = vec![
        JobEvent::submit_rigid(0, 0.0, 1.0, 8, 4.0),
        JobEvent::submit_rigid(1, 1.0, 1.0, 4, 2.0),
        JobEvent::submit_rigid(2, 1.0, 1.0, 4, 2.0),
        JobEvent::cancel(2, 1.5),
        JobEvent::submit_rigid(3, 6.0, 1.0, 8, 1.0),
    ];
    let out = daemon_output(&ServeConfig::new(m), &events);
    let text = String::from_utf8(out).expect("UTF-8 JSON");
    let placed: Vec<usize> = text
        .lines()
        .map(|l| {
            let p: demt_platform::Placement = serde_json::from_str(l).expect("placement line");
            p.task.index()
        })
        .collect();
    assert_eq!(placed, vec![0, 1, 3], "job 2 was cancelled while pending");
}

#[test]
fn the_socket_front_door_matches_an_in_process_run() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let m = 16;
    let events = demt_serve::grid_events(40, m, 21);
    let expected = daemon_output(&ServeConfig::new(m), &events);

    let path = std::env::temp_dir().join(format!("demt-serve-test-{}.sock", std::process::id()));
    let path_str = path.to_str().expect("temp path is UTF-8").to_string();
    let args: Vec<String> = [
        "--procs",
        &m.to_string(),
        "--socket",
        &path_str,
        "--once",
        "--stats",
        "/dev/null",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server = std::thread::spawn(move || demt_serve::serve_cli(&args));

    // Wait for the listener to bind, then stream the event log.
    let mut stream = loop {
        match UnixStream::connect(&path) {
            Ok(s) => break s,
            Err(_) => std::thread::yield_now(),
        }
    };
    for ev in &events {
        let line = serde_json::to_string(ev).expect("events serialize");
        stream
            .write_all(line.as_bytes())
            .and_then(|_| stream.write_all(b"\n"))
            .expect("socket write");
    }
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close the event side");
    let mut got = Vec::new();
    stream.read_to_end(&mut got).expect("socket read");
    assert_eq!(server.join().expect("server thread"), 0);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        got, expected,
        "socket placements differ from in-process run"
    );
}

#[test]
fn ulp_overlapping_windows_do_not_overcommit_the_bookkeeping() {
    // Regression: this grid makes the list engine release a completion
    // event 1e-15 early, emitting two placements whose windows overlap
    // by one ulp on the same processors. The validator tolerates that,
    // and the batch loop's bookkeeping must too.
    let m = 50;
    let events = demt_serve::grid_events(200, m, 3);
    let mut cfg = ServeConfig::new(m);
    cfg.oracle = true;
    let out = daemon_output(&cfg, &events);
    assert_eq!(out.iter().filter(|&&b| b == b'\n').count(), 200);
}

#[test]
fn event_and_task_lift_agree_on_rigid_profiles() {
    let m = 6;
    let ev = JobEvent::submit_rigid(0, 0.0, 2.0, 3, 4.0);
    let task = ev.to_task(m).expect("lifts");
    let direct = MoldableTask::rigid(TaskId(0), 2.0, 3, 4.0, m).expect("valid");
    assert_eq!(task, direct);
}

/// Random cancel-bearing logs built to stay *valid*: a machine-filling
/// blocker keeps every later submit pending until far in the future, so
/// cancels with timestamps inside the blocker's run always target a
/// pending job, and timestamps increase along the stream as the daemon
/// requires.
fn cancel_log() -> impl Strategy<Value = (usize, Vec<JobEvent>, Vec<usize>)> {
    (2usize..=8).prop_flat_map(|m| {
        (
            prop::collection::vec((0.01f64..0.5, 1usize..=m, 0.1f64..4.0), 1..12),
            prop::collection::vec(any::<bool>(), 12),
        )
            .prop_map(move |(rows, kill)| {
                let mut events = vec![JobEvent::submit_rigid(0, 0.0, 1.0, m, 1000.0)];
                let mut t = 0.0;
                for (i, (gap, procs, time)) in rows.iter().enumerate() {
                    t += gap;
                    events.push(JobEvent::submit_rigid(i + 1, t, 1.0, *procs, *time));
                }
                let mut cancelled = Vec::new();
                for (i, _) in rows.iter().enumerate() {
                    if kill[i] {
                        t += 0.01;
                        events.push(JobEvent::cancel(i + 1, t));
                        cancelled.push(i + 1);
                    }
                }
                (m, events, cancelled)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cancel_traces_pass_the_oracle_and_omit_cancelled_jobs(
        (m, events, cancelled) in cancel_log()
    ) {
        // `--oracle` on a cancel trace replays the recorded log through
        // a fresh single-worker loop and audits the final schedule for
        // interval overlaps; daemon_output unwraps, so any divergence
        // or audit failure fails the test.
        let mut cfg = ServeConfig::new(m);
        cfg.oracle = true;
        cfg.workers = 2;
        let out = daemon_output(&cfg, &events);
        let placed: Vec<usize> = String::from_utf8(out)
            .expect("UTF-8 JSON")
            .lines()
            .map(|l| {
                let p: demt_platform::Placement = serde_json::from_str(l).expect("placement");
                p.task.index()
            })
            .collect();
        for id in &cancelled {
            prop_assert!(!placed.contains(id), "cancelled job {id} was placed");
        }
        let submits = events.iter().filter(|e| e.is_submit()).count();
        prop_assert_eq!(placed.len(), submits - cancelled.len());
    }

    #[test]
    fn cancels_drain_to_an_overlap_free_schedule((m, events, _) in cancel_log()) {
        // Drive the BatchLoop directly with the same submit/cancel
        // interleaving, then drain: the placed jobs never overlap, and
        // a cancel that left a phantom entry behind would keep a job
        // pending forever.
        use demt_model::TaskId;
        let mut bl = demt_online::BatchLoop::new(m);
        let scheduler = demt_serve::resolve_scheduler("greedy").expect("built-in");
        for ev in &events {
            if ev.is_submit() {
                let task = ev.to_task(m).expect("valid submit");
                bl.submit(task, ev.release).expect("valid release");
            } else {
                prop_assert!(bl.cancel(TaskId(ev.job)), "cancel target must be pending");
            }
        }
        let mut placed = Vec::new();
        while let Some(batch) = bl.run_batch(scheduler).expect("valid batches") {
            placed.extend(batch.placements);
        }
        let schedule = demt_platform::Schedule::from_placements(m, placed);
        demt_platform::validate_no_overlap(&schedule).expect("overlap-free schedule");
        prop_assert_eq!(bl.pending(), 0, "a job survives the drain");
    }
}
