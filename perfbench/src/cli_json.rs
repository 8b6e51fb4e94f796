//! `cli_json`: the operator's `demt schedule | demt validate` round trip,
//! in process.
//!
//! One op parses an instance document, schedules it with the registry's
//! `demt` entry, validates the schedule, prints it as pretty JSON and
//! parses the printed schedule back. The vendored JSON parser does most
//! of the work and runs in no other workload; the op both reads and
//! writes JSON, so a parser change that slows printing shows here.

use crate::runner::{nanos_since, Fnv, Recorder, Workload};
use crate::seed_for;
use crate::trace::{count, span, Tracer};
use demt_api::SchedulerContext;
use demt_baselines::registry;
use demt_model::Instance;
use demt_platform::{validate, Schedule};
use demt_workload::{generate, WorkloadKind};
use std::time::Instant;

/// Machine size of every document.
pub const PROCS: usize = 200;
/// Task counts: one document per count, families taking turns, from
/// about 30 KB to 230 KB. Every seed gets the same sizes, so the slowest
/// ops, which set the p99, are the same documents' parses.
pub const TASKS: std::ops::RangeInclusive<usize> = 5..=40;

/// Instance documents as `demt generate` prints them.
pub struct CliJson {
    docs: Vec<String>,
}

impl Workload for CliJson {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut docs = Vec::new();
        for n in TASKS {
            let kind = WorkloadKind::ALL[n % WorkloadKind::ALL.len()];
            let inst = generate(kind, n, PROCS, seed_for(seed, n as u64));
            docs.push(
                serde_json::to_string_pretty(&inst)
                    .map_err(|e| format!("rendering an instance: {e}"))?,
            );
        }
        Ok(Self { docs })
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for d in &self.docs {
            h.update(d.as_bytes());
        }
        h.value()
    }

    fn pass(&self, tr: Option<&Tracer>, rec: &mut Recorder) {
        let Some(demt) = registry().by_name("demt") else {
            for _ in &self.docs {
                rec.op(0, false);
            }
            return;
        };
        for doc in &self.docs {
            let t = Instant::now();
            let parsed = span(tr, "json.parse_instance", || {
                serde_json::from_str::<Instance>(doc)
            });
            let Ok(inst) = parsed else {
                rec.op(nanos_since(t), false);
                continue;
            };
            let report = span(tr, "api.schedule", || {
                demt.schedule(&inst, &mut SchedulerContext::new())
            });
            let valid = span(tr, "platform.validate", || {
                validate(&inst, &report.schedule)
            });
            let printed = span(tr, "json.print_schedule", || {
                serde_json::to_string_pretty(&report.schedule)
            });
            let Ok(printed) = printed else {
                rec.op(nanos_since(t), false);
                continue;
            };
            let reparsed = span(tr, "json.parse_schedule", || {
                serde_json::from_str::<Schedule>(&printed)
            });
            let ok = valid.is_ok() && matches!(reparsed, Ok(ref s) if *s == report.schedule);
            rec.op(nanos_since(t), ok);
            rec.fingerprint.update(printed.as_bytes());
            count(tr, "json.bytes_in", doc.len() as f64);
            count(tr, "json.bytes_out", printed.len() as f64);
        }
    }
}
