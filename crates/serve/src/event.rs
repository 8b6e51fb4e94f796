//! The daemon's wire format: newline-delimited JSON job events, the
//! typed error surface, and the deterministic trace generator the CI
//! smoke job replays.

use demt_frontend::SwfError;
use demt_model::{MoldableTask, TaskId};
use demt_online::OnlineError;
use demt_platform::bench_grid;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::BufRead;

/// One job event, one JSON object per line. The schema is flat — every
/// field is present on every line — so any JSON tooling can consume a
/// trace without schema negotiation:
///
/// ```json
/// {"kind":"submit","job":0,"release":0.0,"weight":1.0,"procs":4,"time":2.5,"times":[]}
/// {"kind":"cancel","job":0,"release":1.5,"weight":0.0,"procs":0,"time":0.0,"times":[]}
/// ```
///
/// * `kind` — `"submit"` or `"cancel"`.
/// * `job` — dense id (`0, 1, 2, …` in submit order) for submits, the
///   target id for cancels.
/// * `release` — the event's timestamp: the job's release date for
///   submits, the cancellation instant for cancels. A trace must be
///   non-decreasing in this field.
/// * `weight`, `procs`, `time`, `times` — the job shape (submits only;
///   zeroed on cancels). An empty `times` means a **rigid** request of
///   `procs` processors for `time` seconds, lifted onto the machine as
///   [`MoldableTask::rigid`]; a non-empty `times` is the explicit
///   moldable profile `times[k-1] = p(k)` and must cover the machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEvent {
    /// Event kind: `"submit"` or `"cancel"`.
    pub kind: String,
    /// Job id (dense in submit order; the target for cancels).
    pub job: usize,
    /// Event timestamp (release date / cancellation instant).
    pub release: f64,
    /// Job weight (submits only).
    pub weight: f64,
    /// Rigid processor request (submits with empty `times` only).
    pub procs: usize,
    /// Rigid processing time (submits with empty `times` only).
    pub time: f64,
    /// Explicit moldable profile; empty means rigid.
    pub times: Vec<f64>,
}

impl JobEvent {
    /// A rigid submit event.
    pub fn submit_rigid(job: usize, release: f64, weight: f64, procs: usize, time: f64) -> Self {
        Self {
            kind: "submit".to_string(),
            job,
            release,
            weight,
            procs,
            time,
            times: Vec::new(),
        }
    }

    /// A moldable submit event with an explicit profile.
    pub fn submit_moldable(job: usize, release: f64, weight: f64, times: Vec<f64>) -> Self {
        Self {
            kind: "submit".to_string(),
            job,
            release,
            weight,
            procs: 0,
            time: 0.0,
            times,
        }
    }

    /// A cancel event for `job` at instant `at`.
    pub fn cancel(job: usize, at: f64) -> Self {
        Self {
            kind: "cancel".to_string(),
            job,
            release: at,
            weight: 0.0,
            procs: 0,
            time: 0.0,
            times: Vec::new(),
        }
    }

    /// Whether this is a submit event (anything else must be a cancel;
    /// [`EventReader`] rejects unknown kinds at parse time).
    pub fn is_submit(&self) -> bool {
        self.kind == "submit"
    }

    /// Lifts a submit event onto an `m`-processor machine.
    pub fn to_task(&self, m: usize) -> Result<MoldableTask, String> {
        if self.times.is_empty() {
            MoldableTask::rigid(TaskId(self.job), self.weight, self.procs, self.time, m)
                .map_err(|e| e.to_string())
        } else {
            MoldableTask::new(TaskId(self.job), self.weight, self.times.clone())
                .map_err(|e| e.to_string())
        }
    }
}

/// Everything that can go wrong between an event source and the
/// scheduling loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The event source failed to read.
    Io(String),
    /// A line was not a valid [`JobEvent`] object.
    Parse {
        /// 1-based line in the event source.
        line: usize,
        /// What the parser objected to.
        message: String,
    },
    /// A structurally valid event the daemon cannot apply (unknown
    /// kind, cancel of an unknown job, malformed job shape).
    Event {
        /// 1-based line in the event source.
        line: usize,
        /// What the daemon objected to.
        message: String,
    },
    /// Event timestamps must be non-decreasing.
    OutOfOrder {
        /// 1-based line of the regressing event.
        line: usize,
        /// Its timestamp.
        release: f64,
        /// The timestamp it regressed behind.
        prev: f64,
    },
    /// The scheduling core rejected the feed.
    Online(OnlineError),
    /// `--oracle`: the daemon's placements diverged from the batch
    /// wrapper's on the same feed.
    Oracle(String),
    /// Bad daemon configuration.
    Config(String),
    /// A record of the `--replay` SWF trace is malformed or lifts to
    /// no valid profile.
    Trace(SwfError),
    /// The `--replay` SWF trace cannot be opened (path and reason).
    TraceOpen(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "event source: {e}"),
            ServeError::Parse { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ServeError::Event { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ServeError::OutOfOrder {
                line,
                release,
                prev,
            } => write!(
                f,
                "line {line}: event timestamp {release} regresses behind {prev} \
                 (traces must be sorted by time)"
            ),
            ServeError::Online(e) => write!(f, "scheduling core: {e}"),
            ServeError::Oracle(e) => write!(f, "oracle divergence: {e}"),
            ServeError::Config(e) => write!(f, "configuration: {e}"),
            ServeError::Trace(e) => write!(f, "{e}"),
            ServeError::TraceOpen(e) => write!(f, "--replay {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<OnlineError> for ServeError {
    fn from(e: OnlineError) -> Self {
        ServeError::Online(e)
    }
}

/// Streaming JSONL event parser over any [`BufRead`]: one line in
/// memory at a time, blank lines skipped, every error tagged with its
/// 1-based line number. Unknown `kind` values are rejected here so the
/// scheduling loop only ever sees submits and cancels.
#[derive(Debug)]
pub struct EventReader<R> {
    source: R,
    line: usize,
    buf: String,
}

impl<R: BufRead> EventReader<R> {
    /// Wraps a buffered byte source.
    pub fn new(source: R) -> Self {
        Self {
            source,
            line: 0,
            buf: String::new(),
        }
    }

    /// 1-based number of the last line read.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl<R: BufRead> Iterator for EventReader<R> {
    /// The event with its 1-based source line (the loop needs the line
    /// for its own error reports).
    type Item = Result<(usize, JobEvent), ServeError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buf.clear();
            self.line += 1;
            match self.source.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(ServeError::Io(e.to_string()))),
            }
            let raw = self.buf.trim();
            if raw.is_empty() {
                continue;
            }
            let ev: JobEvent = match serde_json::from_str(raw) {
                Ok(ev) => ev,
                Err(e) => {
                    return Some(Err(ServeError::Parse {
                        line: self.line,
                        message: e.to_string(),
                    }))
                }
            };
            if ev.kind != "submit" && ev.kind != "cancel" {
                return Some(Err(ServeError::Event {
                    line: self.line,
                    message: format!("unknown event kind {:?}", ev.kind),
                }));
            }
            return Some(Ok((self.line, ev)));
        }
    }
}

/// The CI smoke trace: the platform layer's deterministic benchmark
/// grid ([`bench_grid`]) as a submit-event log — sorted by release,
/// re-identified densely, unit weights. The same `(n, m, seed)` yields
/// the same bytes on every machine, which is what lets the CI job
/// `cmp` two independent daemon runs.
pub fn grid_events(n: usize, m: usize, seed: u64) -> Vec<JobEvent> {
    let mut tasks = bench_grid(n, m, seed);
    tasks.sort_by(|a, b| {
        a.ready
            .total_cmp(&b.ready)
            .then(a.id.index().cmp(&b.id.index()))
    });
    tasks
        .iter()
        .enumerate()
        .map(|(i, t)| JobEvent::submit_rigid(i, t.ready, 1.0, t.alloc, t.duration))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_jsonl() {
        let events = vec![
            JobEvent::submit_rigid(0, 0.0, 1.0, 4, 2.5),
            JobEvent::submit_moldable(1, 0.5, 2.0, vec![4.0, 2.0, 1.5]),
            JobEvent::cancel(0, 1.0),
        ];
        let text: String = events
            .iter()
            .map(|e| {
                let mut l = serde_json::to_string(e).expect("events serialize");
                l.push('\n');
                l
            })
            .collect();
        let back: Vec<JobEvent> = EventReader::new(text.as_bytes())
            .map(|r| r.map(|(_, ev)| ev))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(events, back);
    }

    #[test]
    fn reader_reports_lines_and_rejects_unknown_kinds() {
        let text = "\n{\"kind\":\"submit\",\"job\":0,\"release\":0.0,\"weight\":1.0,\
                    \"procs\":1,\"time\":1.0,\"times\":[]}\nnot json\n";
        let mut reader = EventReader::new(text.as_bytes());
        let (line, ev) = reader.next().unwrap().unwrap();
        assert_eq!(line, 2);
        assert!(ev.is_submit());
        match reader.next().unwrap().unwrap_err() {
            ServeError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected a parse error, got {other:?}"),
        }

        let bad = "{\"kind\":\"resize\",\"job\":0,\"release\":0.0,\"weight\":0.0,\
                   \"procs\":0,\"time\":0.0,\"times\":[]}\n";
        match EventReader::new(bad.as_bytes())
            .next()
            .unwrap()
            .unwrap_err()
        {
            ServeError::Event { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("resize"));
            }
            other => panic!("expected an event error, got {other:?}"),
        }
    }

    /// Reads one line through [`EventReader`].
    fn read_one(line: &str) -> Result<JobEvent, ServeError> {
        EventReader::new(format!("{line}\n").as_bytes())
            .next()
            .expect("one line")
            .map(|(_, ev)| ev)
    }

    #[test]
    fn reader_accepts_the_json_language_and_nothing_else() {
        let canonical = "{\"kind\":\"submit\",\"job\":3,\"release\":1.0,\"weight\":1.0,\
                         \"procs\":2,\"time\":4.0,\"times\":[]}";
        let want = JobEvent::submit_rigid(3, 1.0, 1.0, 2, 4.0);
        let accepted = [
            canonical.to_string(),
            canonical.replace(':', ": ").replace(',', " , "),
            "{\"times\":[],\"time\":4.0,\"procs\":2,\"weight\":1.0,\"release\":1.0,\
             \"job\":3,\"kind\":\"submit\"}"
                .to_string(),
            canonical.replace("]}", "],\"job\":7}"),
            canonical.replace("{", "{\"queue\":{\"name\":[\"batch\",null]},"),
            canonical.replace("\"release\":1.0", "\"release\":1"),
        ];
        for line in &accepted {
            assert_eq!(read_one(line), Ok(want.clone()), "{line}");
        }
        let rejected = [
            canonical.replace(",\"times\":[]", ""),
            canonical.replace("\"job\":3", "\"job\":1.0"),
        ];
        for line in &rejected {
            assert!(
                matches!(read_one(line), Err(ServeError::Parse { line: 1, .. })),
                "{line}"
            );
        }
        for number in ["+1.0", ".5"] {
            let line = canonical.replace("\"release\":1.0", &format!("\"release\":{number}"));
            let spaced = line.replace(':', ": ");
            for line in [line, spaced] {
                match read_one(&line) {
                    Err(ServeError::Parse { line: 1, message }) => {
                        assert!(message.starts_with("unexpected Some("), "{message}")
                    }
                    other => panic!("{line}: expected a parse error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn deeply_nested_lines_are_parse_errors_not_crashes() {
        for hostile in ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
            let text = format!("{hostile}\n");
            match EventReader::new(text.as_bytes()).next() {
                Some(Err(ServeError::Parse { line: 1, message })) => {
                    assert!(message.contains("recursion limit"), "{message}");
                }
                other => panic!("expected a line-1 parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn grid_traces_are_sorted_dense_and_reproducible() {
        let a = grid_events(200, 64, 9);
        let b = grid_events(200, 64, 9);
        assert_eq!(a, b);
        for (i, ev) in a.iter().enumerate() {
            assert_eq!(ev.job, i);
            assert!(ev.is_submit());
            assert!(ev.procs >= 1 && ev.procs <= 64);
        }
        for w in a.windows(2) {
            assert!(w[1].release >= w[0].release);
        }
        assert!(
            a.iter().any(|e| e.release > 0.0),
            "the grid has late arrivals"
        );
    }
}
