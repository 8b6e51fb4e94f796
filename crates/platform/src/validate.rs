//! Full schedule audit.
//!
//! Algorithms in this workspace never trust themselves: every scheduler
//! output is re-checked against the instance by [`validate`] (or
//! [`validate_with_releases`] in the on-line setting), which verifies
//! all invariants of a feasible moldable-task schedule.

use crate::{Placement, Schedule};
use demt_model::{approx_eq, Instance, TaskId, REL_EPS};
use std::fmt;

/// Violations detected by the validator.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A task appears in no placement.
    MissingTask(TaskId),
    /// A task appears in several placements.
    DuplicateTask(TaskId),
    /// A placement references a task id outside the instance.
    UnknownTask(TaskId),
    /// A placement has an empty processor set.
    EmptyAllotment(TaskId),
    /// Processor set contains an out-of-range id (`≥ m`); sortedness
    /// and uniqueness are structural `ProcSet` invariants.
    BadProcessorSet(TaskId),
    /// Placement duration disagrees with `pᵢ(k)` for its allotment.
    WrongDuration {
        /// Offending task.
        task: TaskId,
        /// Duration recorded in the placement.
        placed: f64,
        /// `pᵢ(k)` from the instance.
        expected: f64,
    },
    /// A task starts before time 0 (or before its release date).
    StartsTooEarly {
        /// Offending task.
        task: TaskId,
        /// Its start time.
        start: f64,
        /// Earliest legal start.
        earliest: f64,
    },
    /// Two tasks overlap on a processor.
    ProcessorConflict {
        /// The processor.
        proc: u32,
        /// First task.
        a: TaskId,
        /// Second task.
        b: TaskId,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ValidationError::MissingTask(t) => write!(f, "{t} is not scheduled"),
            ValidationError::DuplicateTask(t) => write!(f, "{t} is scheduled more than once"),
            ValidationError::UnknownTask(t) => write!(f, "{t} does not exist in the instance"),
            ValidationError::EmptyAllotment(t) => write!(f, "{t} has an empty processor set"),
            ValidationError::BadProcessorSet(t) => {
                write!(f, "{t} has an out-of-range processor set")
            }
            ValidationError::WrongDuration {
                task,
                placed,
                expected,
            } => {
                write!(f, "{task}: placed duration {placed} but p(k) = {expected}")
            }
            ValidationError::StartsTooEarly {
                task,
                start,
                earliest,
            } => {
                write!(
                    f,
                    "{task}: starts at {start} before its earliest legal start {earliest}"
                )
            }
            ValidationError::ProcessorConflict { proc, a, b } => {
                write!(f, "processor {proc}: {a} and {b} overlap")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates an off-line schedule (all tasks available at time 0).
pub fn validate(instance: &Instance, schedule: &Schedule) -> Result<(), ValidationError> {
    validate_with_releases(instance, schedule, None)
}

/// Validates a schedule with optional per-task release dates (indexed by
/// task id; `None` means all zero).
pub fn validate_with_releases(
    instance: &Instance,
    schedule: &Schedule,
    releases: Option<&[f64]>,
) -> Result<(), ValidationError> {
    let n = instance.len();
    let m = instance.procs();
    if let Some(r) = releases {
        assert_eq!(r.len(), n, "release vector length mismatch");
    }

    let mut seen = vec![false; n];

    for p in schedule.placements() {
        let id = p.task;
        if id.index() >= n {
            return Err(ValidationError::UnknownTask(id));
        }
        if seen[id.index()] {
            return Err(ValidationError::DuplicateTask(id));
        }
        seen[id.index()] = true;

        if p.procs.is_empty() {
            return Err(ValidationError::EmptyAllotment(id));
        }
        if p.procs.last().is_some_and(|x| x as usize >= m) {
            return Err(ValidationError::BadProcessorSet(id));
        }

        let expected = instance.task(id).time(p.procs.len());
        if !approx_eq(p.duration, expected) {
            return Err(ValidationError::WrongDuration {
                task: id,
                placed: p.duration,
                expected,
            });
        }

        let earliest = releases.map(|r| r[id.index()]).unwrap_or(0.0);
        if p.start < earliest - REL_EPS * earliest.abs().max(1.0) {
            return Err(ValidationError::StartsTooEarly {
                task: id,
                start: p.start,
                earliest,
            });
        }
    }

    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(ValidationError::MissingTask(TaskId(missing)));
    }

    sweep_overlaps(schedule.placements())
}

/// Interval-direct overlap audit: placements are swept in start order
/// and every pair that is co-active in time has its processor sets
/// intersected as interval sets — no per-id expansion, `O(n log n)`
/// plus intersections over the (typically tiny) co-active front.
fn sweep_overlaps(placements: &[Placement]) -> Result<(), ValidationError> {
    let mut order: Vec<usize> = (0..placements.len()).collect();
    order.sort_by(|&a, &b| placements[a].start.total_cmp(&placements[b].start));
    let mut active: Vec<usize> = Vec::new();
    for &bi in &order {
        let b = &placements[bi];
        // Drop placements finished by `b.start`; touching is fine, only
        // true overlap (same tolerance as the historical per-proc
        // check) keeps a placement co-active.
        active.retain(|&ai| {
            let end_a = placements[ai].completion();
            b.start < end_a - REL_EPS * end_a.abs().max(1.0)
        });
        for &ai in &active {
            let a = &placements[ai];
            if let Some(q) = a.procs.intersect(&b.procs).first() {
                return Err(ValidationError::ProcessorConflict {
                    proc: q,
                    a: a.task,
                    b: b.task,
                });
            }
        }
        active.push(bi);
    }
    Ok(())
}

/// Instance-free structural audit: every processor set is within
/// range and no two placements overlap on a processor, checked
/// directly on the interval representation (sortedness and
/// disjointness are `ProcSet` invariants). This is the check
/// available when a schedule has no backing [`Instance`] — raw
/// [`crate::ListTask`] lists in the skyline differential suite, CLI
/// grids — where the full [`validate`] cannot run (durations and
/// completeness need the instance).
pub fn validate_no_overlap(schedule: &Schedule) -> Result<(), ValidationError> {
    let m = schedule.procs();
    for p in schedule.placements() {
        if p.procs.is_empty() {
            return Err(ValidationError::EmptyAllotment(p.task));
        }
        if p.procs.last().is_some_and(|x| x as usize >= m) {
            return Err(ValidationError::BadProcessorSet(p.task));
        }
    }
    sweep_overlaps(schedule.placements())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placement;
    use demt_model::InstanceBuilder;

    fn instance() -> Instance {
        let mut b = InstanceBuilder::new(3);
        b.push_times(1.0, vec![4.0, 2.0, 1.5]).unwrap();
        b.push_times(1.0, vec![3.0, 2.0, 2.0]).unwrap();
        b.build().unwrap()
    }

    fn ok_schedule() -> Schedule {
        let mut s = Schedule::new(3);
        s.push(Placement {
            task: TaskId(0),
            start: 0.0,
            duration: 2.0,
            procs: vec![0, 1].into(),
        });
        s.push(Placement {
            task: TaskId(1),
            start: 2.0,
            duration: 2.0,
            procs: vec![1, 2].into(),
        });
        s
    }

    #[test]
    fn accepts_feasible_schedule() {
        validate(&instance(), &ok_schedule()).unwrap();
    }

    #[test]
    fn accepts_back_to_back_on_same_processor() {
        // Task 1 starts exactly when task 0 ends on processor 1.
        validate(&instance(), &ok_schedule()).unwrap();
    }

    #[test]
    fn detects_missing_task() {
        let mut s = Schedule::new(3);
        s.push(Placement {
            task: TaskId(0),
            start: 0.0,
            duration: 2.0,
            procs: vec![0, 1].into(),
        });
        assert_eq!(
            validate(&instance(), &s),
            Err(ValidationError::MissingTask(TaskId(1)))
        );
    }

    #[test]
    fn detects_duplicate_and_unknown() {
        let mut s = ok_schedule();
        s.push(Placement {
            task: TaskId(0),
            start: 5.0,
            duration: 4.0,
            procs: vec![0].into(),
        });
        assert_eq!(
            validate(&instance(), &s),
            Err(ValidationError::DuplicateTask(TaskId(0)))
        );

        let mut s = ok_schedule();
        s.push(Placement {
            task: TaskId(9),
            start: 5.0,
            duration: 1.0,
            procs: vec![0].into(),
        });
        assert_eq!(
            validate(&instance(), &s),
            Err(ValidationError::UnknownTask(TaskId(9)))
        );
    }

    #[test]
    fn detects_wrong_duration() {
        let mut s = ok_schedule();
        s.placements_mut()[0].duration = 3.0; // p(2) is 2.0
        assert!(matches!(
            validate(&instance(), &s),
            Err(ValidationError::WrongDuration {
                task: TaskId(0),
                ..
            })
        ));
    }

    #[test]
    fn detects_overlap() {
        let mut s = Schedule::new(3);
        s.push(Placement {
            task: TaskId(0),
            start: 0.0,
            duration: 2.0,
            procs: vec![0, 1].into(),
        });
        s.push(Placement {
            task: TaskId(1),
            start: 1.0,
            duration: 2.0,
            procs: vec![1, 2].into(),
        });
        assert!(matches!(
            validate(&instance(), &s),
            Err(ValidationError::ProcessorConflict { proc: 1, .. })
        ));
    }

    #[test]
    fn detects_bad_processor_sets() {
        // Unsorted id lists are unrepresentable now: conversion
        // canonicalizes, so the old `[1, 0]` failure mode is gone.
        let mut s = ok_schedule();
        s.placements_mut()[0].procs = vec![1, 0].into();
        validate(&instance(), &s).unwrap();

        let mut s = ok_schedule();
        s.placements_mut()[0].procs = vec![0, 7].into();
        assert_eq!(
            validate(&instance(), &s),
            Err(ValidationError::BadProcessorSet(TaskId(0)))
        );

        let mut s = ok_schedule();
        s.placements_mut()[0].procs = demt_model::ProcSet::new();
        assert_eq!(
            validate(&instance(), &s),
            Err(ValidationError::EmptyAllotment(TaskId(0)))
        );
    }

    #[test]
    fn instance_free_audit_catches_overlap_only() {
        // A schedule that is structurally sound but incomplete passes
        // the instance-free audit (no MissingTask without an instance)…
        let mut s = Schedule::new(3);
        s.push(Placement {
            task: TaskId(0),
            start: 0.0,
            duration: 2.0,
            procs: vec![0, 1].into(),
        });
        validate_no_overlap(&s).unwrap();
        // …while a forced overlap is still caught.
        s.push(Placement {
            task: TaskId(1),
            start: 1.0,
            duration: 2.0,
            procs: vec![1].into(),
        });
        assert!(matches!(
            validate_no_overlap(&s),
            Err(ValidationError::ProcessorConflict { proc: 1, .. })
        ));
        // …as are malformed processor sets.
        let mut s = Schedule::new(2);
        s.push(Placement {
            task: TaskId(0),
            start: 0.0,
            duration: 1.0,
            procs: vec![5].into(),
        });
        assert_eq!(
            validate_no_overlap(&s),
            Err(ValidationError::BadProcessorSet(TaskId(0)))
        );
    }

    #[test]
    fn detects_negative_start_and_release_violation() {
        let mut s = ok_schedule();
        s.placements_mut()[0].start = -0.5;
        assert!(matches!(
            validate(&instance(), &s),
            Err(ValidationError::StartsTooEarly {
                task: TaskId(0),
                ..
            })
        ));

        let s = ok_schedule();
        let releases = vec![0.0, 3.0];
        assert!(matches!(
            validate_with_releases(&instance(), &s, Some(&releases)),
            Err(ValidationError::StartsTooEarly {
                task: TaskId(1),
                ..
            })
        ));
        let releases = vec![0.0, 2.0];
        validate_with_releases(&instance(), &s, Some(&releases)).unwrap();
    }
}
