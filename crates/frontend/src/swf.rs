//! Standard Workload Format (SWF) import/export.
//!
//! The paper generates synthetic workloads "representative of jobs
//! submitted on the Icluster" [18]; the community-standard way to feed
//! a scheduler *real* submissions is the Parallel Workloads Archive's
//! SWF: one line per job, 18 whitespace-separated fields, `;` comments,
//! `-1` for unknown. This module parses/writes SWF and lifts records
//! into [`SubmittedJob`]s, reconstructing a *moldable* profile for each
//! job with Downey's speed-up model calibrated so the traced
//! `(processors, runtime)` point is reproduced exactly.

use crate::stream::SubmittedJob;
use demt_distr::{seeded_rng, Uniform, Variate};
use demt_model::{ModelError, MoldableTask, TaskId};
use demt_workload::{downey_speedup, downey_times};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::BufRead;

/// One SWF record (the fields this workspace consumes; the remaining
/// ten are preserved as written by [`write_swf`] with `-1`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwfRecord {
    /// Field 1 — job number.
    pub job: u64,
    /// Field 2 — submit time (seconds since trace start).
    pub submit: f64,
    /// Field 3 — wait time in the original system (informational).
    pub wait: f64,
    /// Field 4 — actual run time.
    pub run_time: f64,
    /// Field 5 — number of allocated processors.
    pub procs: usize,
    /// Field 11 — completion status (1 = completed; kept verbatim).
    pub status: i64,
}

/// Parse errors with line numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SwfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SWF line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfError {}

/// A usable SWF record whose traced point lifts to no valid moldable
/// profile: `run_time·S(q)` overflows to infinity, or
/// [`MoldableTask::new`] rejects the lifted profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfLiftError {
    /// Field 1 of the record — the trace's job number.
    pub job: u64,
    /// Why the lifted profile is invalid.
    pub error: ModelError,
}

impl fmt::Display for SwfLiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} lifts to no valid moldable profile ({})",
            self.job, self.error
        )
    }
}

impl std::error::Error for SwfLiftError {}

/// Parses one SWF data line (1-based `line` for error reporting);
/// `None` for comment and blank lines.
fn parse_record_line(line: usize, raw: &str) -> Result<Option<SwfRecord>, SwfError> {
    let trimmed = raw.trim();
    if trimmed.is_empty() || trimmed.starts_with(';') {
        return Ok(None);
    }
    let fields: Vec<&str> = trimmed.split_whitespace().collect();
    if fields.len() < 11 {
        return Err(SwfError {
            line,
            message: format!("expected ≥ 11 fields, found {}", fields.len()),
        });
    }
    let f = |i: usize| -> Result<f64, SwfError> {
        let bad = |what| SwfError {
            line,
            message: format!("field {} is {what}: {:?}", i + 1, fields[i]),
        };
        let x: f64 = fields[i].parse().map_err(|_| bad("not a number"))?;
        x.is_finite().then_some(x).ok_or_else(|| bad("not finite"))
    };
    let mut record = SwfRecord {
        job: f(0)? as u64,
        submit: f(1)?,
        wait: f(2)?,
        run_time: f(3)?,
        procs: f(4)?.max(-1.0) as isize as usize, // -1 → huge; normalized below
        status: f(10)? as i64,
    };
    // Normalize the -1 sentinel on processors.
    if fields[4] == "-1" {
        record.procs = 0;
    }
    Ok(Some(record))
}

/// Streaming SWF reader: an iterator of records over any
/// [`io::BufRead`](std::io::BufRead) source, holding one line in memory
/// at a time — archive traces run to millions of jobs; collect it when
/// the whole trace is needed at once. Comment and blank lines are
/// skipped; each data line must have ≥ 11 fields (the archive's files
/// always carry all 18), each read field a finite number. Parse and I/O
/// errors surface as [`SwfError`]s with 1-based line numbers.
///
/// ```
/// use demt_frontend::SwfReader;
/// let trace = "; header\n1 0 0 100 4 -1 -1 4 120 -1 1 1 1 1 1 -1 -1 -1\n";
/// let records: Result<Vec<_>, _> = SwfReader::new(trace.as_bytes()).collect();
/// assert_eq!(records.unwrap().len(), 1);
/// ```
#[derive(Debug)]
pub struct SwfReader<R> {
    source: R,
    line: usize,
    buf: String,
}

impl<R: BufRead> SwfReader<R> {
    /// Reader over any buffered byte source (a `&[u8]`, a
    /// `BufReader<File>`, a socket…).
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

impl<R: BufRead> Iterator for SwfReader<R> {
    type Item = Result<SwfRecord, SwfError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buf.clear();
            self.line += 1;
            match self.source.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    return Some(Err(SwfError {
                        line: self.line,
                        message: format!("I/O error: {e}"),
                    }))
                }
            }
            match parse_record_line(self.line, &self.buf) {
                Ok(None) => continue,
                Ok(Some(record)) => return Some(Ok(record)),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// Writes records back to SWF (unknown fields as `-1`).
pub fn write_swf(records: &[SwfRecord]) -> String {
    let mut s = String::from("; SWF written by demt-frontend\n");
    for r in records {
        s.push_str(&format!(
            "{} {} {} {} {} -1 -1 {} {} -1 {} -1 -1 -1 -1 -1 -1 -1\n",
            r.job, r.submit, r.wait, r.run_time, r.procs, r.procs, r.run_time, r.status
        ));
    }
    s
}

/// Lifts SWF records into a submission stream on an `m`-processor
/// cluster.
///
/// Jobs with unknown/zero runtime or processors are dropped (archive
/// convention). For each job the traced allotment `q` and runtime `T`
/// are honoured exactly: a Downey profile with average parallelism
/// `A = q` and a seeded `σ ~ U(0, 2)` is built whose sequential time is
/// `T·S(q)`, so `p(q) = T`. Requests larger than `m` are clamped (the
/// rigid request becomes `m`; the profile keeps its shape). Weights are
/// drawn `U[1, 10)` as in the paper's experiments. A record whose
/// profile cannot be lifted is an [`SwfLiftError`] naming its job.
///
/// Unlike [`SwfJobStream`], this accepts a trace in any submit order.
pub fn stream_from_swf(
    records: &[SwfRecord],
    m: usize,
    seed: u64,
) -> Result<Vec<SubmittedJob>, SwfLiftError> {
    let mut rng = seeded_rng(seed);
    let mut jobs = Vec::new();
    for r in records {
        if let Some(job) = lift_swf_record(r, m, TaskId(jobs.len()), &mut rng)? {
            jobs.push(job);
        }
    }
    jobs.sort_by(|a, b| a.release.total_cmp(&b.release));
    // Re-identify densely after the sort.
    let mut out = Vec::with_capacity(jobs.len());
    for (i, mut j) in jobs.into_iter().enumerate() {
        j.task.set_id(TaskId(i));
        out.push(j);
    }
    Ok(out)
}

/// Lifts one SWF record into a moldable [`SubmittedJob`] under `id`, or
/// `None` for unusable records (unknown runtime or processors — the
/// archive convention [`stream_from_swf`] applies). Consumes exactly
/// two variates from `rng` per *usable* record (σ then weight), so
/// streaming callers reproduce [`stream_from_swf`]'s profiles
/// bit-for-bit when they feed records in the same order.
///
/// A usable record whose sequential time `run_time·S(q)` is not finite
/// (say `1e308` seconds on 64 processors) is an [`SwfLiftError`].
pub fn lift_swf_record<R: Rng>(
    r: &SwfRecord,
    m: usize,
    id: TaskId,
    rng: &mut R,
) -> Result<Option<SubmittedJob>, SwfLiftError> {
    if r.run_time <= 0.0 || r.procs == 0 {
        return Ok(None);
    }
    let q = r.procs.min(m);
    let a = (q as f64).max(1.0);
    let sigma = rng.random_range(0.0..2.0);
    let seq = r.run_time * downey_speedup(q, a, sigma);
    let lift_error = |error| SwfLiftError { job: r.job, error };
    if !seq.is_finite() {
        return Err(lift_error(ModelError::NonPositiveTime {
            task: id.index(),
            procs: 1,
            value: seq,
        }));
    }
    let times = downey_times(seq, m, a, sigma);
    let task =
        MoldableTask::new(id, Uniform::new(1.0, 10.0).sample(rng), times).map_err(lift_error)?;
    Ok(Some(SubmittedJob {
        task,
        release: r.submit.max(0.0),
        rigid_procs: q,
    }))
}

/// Constant-memory submission stream over a raw SWF byte source: each
/// record is parsed ([`SwfReader`]) and lifted ([`lift_swf_record`])
/// on demand, with ids assigned densely in trace order. Because nothing
/// is buffered, the trace must already be sorted by submit time — the
/// archive publishes traces that way — and a regression is reported as
/// an [`SwfError`] naming the offending line, as is a record that
/// [`lift_swf_record`] rejects. On a sorted trace the yielded jobs are
/// bit for bit those [`stream_from_swf`] lifts from the collected
/// [`SwfReader`] records.
#[derive(Debug)]
pub struct SwfJobStream<R> {
    reader: SwfReader<R>,
    m: usize,
    rng: rand::rngs::StdRng,
    next_id: usize,
    last_submit: f64,
}

impl<R: BufRead> SwfJobStream<R> {
    /// Streams jobs for an `m`-processor cluster from `source`, with
    /// the same seeded lifting laws as [`stream_from_swf`].
    pub fn new(source: R, m: usize, seed: u64) -> Self {
        Self {
            reader: SwfReader::new(source),
            m,
            rng: seeded_rng(seed),
            next_id: 0,
            last_submit: f64::NEG_INFINITY,
        }
    }
}

impl<R: BufRead> Iterator for SwfJobStream<R> {
    type Item = Result<SubmittedJob, SwfError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let record = match self.reader.next()? {
                Ok(r) => r,
                Err(e) => return Some(Err(e)),
            };
            if record.submit < self.last_submit {
                return Some(Err(SwfError {
                    line: self.reader.line(),
                    message: format!(
                        "trace is not sorted by submit time ({} after {}); \
                         sort it or use the batch reader",
                        record.submit, self.last_submit
                    ),
                }));
            }
            self.last_submit = record.submit;
            let id = TaskId(self.next_id);
            match lift_swf_record(&record, self.m, id, &mut self.rng) {
                Ok(None) => {}
                Ok(Some(job)) => {
                    self.next_id += 1;
                    return Some(Ok(job));
                }
                Err(e) => {
                    return Some(Err(SwfError {
                        line: self.reader.line(),
                        message: e.to_string(),
                    }))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Sample trace, demt test fixture
; UnixStartTime: 0
1  0.0   5.0  100.0  4 -1 -1  4 120 -1 1 1 1 1 1 -1 -1 -1
2  30.0  0.0  50.0   1 -1 -1  1  60 -1 1 2 1 1 1 -1 -1 -1
3  45.0  2.0  -1     8 -1 -1  8  -1 -1 0 3 1 1 1 -1 -1 -1
4  60.0  1.0  200.0 -1 -1 -1 -1 240 -1 1 4 1 1 1 -1 -1 -1
5  90.5  0.0  10.0  16 -1 -1 16  30 -1 1 5 1 1 1 -1 -1 -1
";

    fn parse_swf(text: &str) -> Result<Vec<SwfRecord>, SwfError> {
        SwfReader::new(text.as_bytes()).collect()
    }

    #[test]
    fn parses_the_sample() {
        let recs = parse_swf(SAMPLE).unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].job, 1);
        assert_eq!(recs[0].procs, 4);
        assert_eq!(recs[1].submit, 30.0);
        assert_eq!(recs[2].run_time, -1.0);
        assert_eq!(recs[3].procs, 0, "-1 processors normalized to 0");
        assert_eq!(recs[4].procs, 16);
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = parse_swf("1 2 3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("fields"));

        let err = parse_swf("1 x 3 4 5 6 7 8 9 10 11\n").unwrap_err();
        assert!(err.message.contains("field 2"));

        // Numbers that parse to a non-finite value name line and field.
        for (text, field) in [
            ("1 1e999 0 10 4 -1 -1 4 -1 -1 1\n", "field 2 is not finite"),
            ("1 0 inf 10 4 -1 -1 4 -1 -1 1\n", "field 3 is not finite"),
            (
                "; c\n1 0 0 1e999 4 -1 -1 4 -1 -1 1\n",
                "field 4 is not finite",
            ),
            ("1 0 0 NaN 4 -1 -1 4 -1 -1 1\n", "field 4 is not finite"),
        ] {
            let err = parse_swf(text).unwrap_err();
            assert_eq!(err.line, text.lines().count(), "{text}");
            assert!(err.message.contains(field), "{text}: {}", err.message);
        }
    }

    #[test]
    fn an_overflowing_profile_is_a_typed_error() {
        let trace = "; c\n1 0 0 1e308 64 -1 -1 64 -1 -1 1\n";
        let recs = parse_swf(trace).unwrap();
        let err = stream_from_swf(&recs, 64, 0).unwrap_err();
        assert_eq!(err.job, 1);
        assert!(matches!(
            err.error,
            ModelError::NonPositiveTime { procs: 1, .. }
        ));
        let err = SwfJobStream::new(trace.as_bytes(), 64, 0)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("job 1"), "{}", err.message);
    }

    #[test]
    fn round_trip_through_write() {
        let recs = parse_swf(SAMPLE).unwrap();
        let text = write_swf(&recs);
        let back = parse_swf(&text).unwrap();
        assert_eq!(recs, back);
    }

    #[test]
    fn stream_drops_unknowns_and_honours_the_trace_point() {
        let recs = parse_swf(SAMPLE).unwrap();
        let m = 8;
        let jobs = stream_from_swf(&recs, m, 7).unwrap();
        // Jobs 3 (no runtime) and 4 (no procs) are dropped.
        assert_eq!(jobs.len(), 3);
        for j in &jobs {
            assert!(j.rigid_procs <= m);
            // The traced runtime is reproduced at the traced allotment
            // (clamped to m for the 16-proc job).
            assert!(j.rigid_time() > 0.0);
        }
        // Job 1: 4 procs, 100 s → p(4) must be exactly 100.
        let j1 = jobs
            .iter()
            .find(|j| (j.release - 0.0).abs() < 1e-9)
            .unwrap();
        assert!(
            (j1.task.time(4) - 100.0).abs() < 1e-9,
            "got {}",
            j1.task.time(4)
        );
        // Monotone profiles throughout.
        for j in &jobs {
            assert!(j.task.is_monotonic(), "{:?}", j.task.monotony_violation());
        }
    }

    #[test]
    fn stream_is_sorted_and_densely_identified() {
        let recs = parse_swf(SAMPLE).unwrap();
        let jobs = stream_from_swf(&recs, 16, 1).unwrap();
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.task.id().index(), i);
        }
        for w in jobs.windows(2) {
            assert!(w[1].release >= w[0].release);
        }
    }

    #[test]
    fn streaming_lift_matches_the_batch_lift_bit_for_bit() {
        let recs = parse_swf(SAMPLE).unwrap();
        let batch = stream_from_swf(&recs, 8, 11).unwrap();
        let streamed: Vec<SubmittedJob> = SwfJobStream::new(SAMPLE.as_bytes(), 8, 11)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(batch.len(), streamed.len());
        for (a, b) in batch.iter().zip(&streamed) {
            assert_eq!(a.task.id(), b.task.id());
            assert_eq!(a.release.to_bits(), b.release.to_bits());
            assert_eq!(a.rigid_procs, b.rigid_procs);
            assert_eq!(a.task.weight().to_bits(), b.task.weight().to_bits());
            for k in 1..=8usize {
                assert_eq!(a.task.time(k).to_bits(), b.task.time(k).to_bits());
            }
        }
    }

    #[test]
    fn streaming_lift_rejects_unsorted_traces() {
        let unsorted = "\
1 50.0 0.0 10.0 2 -1 -1 2 -1 -1 1 1 1 1 1 -1 -1 -1
2 10.0 0.0 10.0 2 -1 -1 2 -1 -1 1 2 1 1 1 -1 -1 -1
";
        let err = SwfJobStream::new(unsorted.as_bytes(), 8, 0)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("sorted"), "{}", err.message);
    }

    #[test]
    fn swf_stream_feeds_the_queue_engines() {
        use crate::easy::replay_schedule;
        use crate::{rigid_instance, QueueOrder, QueuePolicy};
        use demt_platform::validate_with_releases;
        let recs = parse_swf(SAMPLE).unwrap();
        let m = 8;
        let jobs = stream_from_swf(&recs, m, 3).unwrap();
        let inst = rigid_instance(m, &jobs).unwrap();
        let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();
        for policy in [QueuePolicy::Fcfs, QueuePolicy::EasyBackfill] {
            let s = replay_schedule(m, &jobs, policy, QueueOrder::Arrival);
            validate_with_releases(&inst, &s, Some(&releases)).unwrap();
        }
    }
}
