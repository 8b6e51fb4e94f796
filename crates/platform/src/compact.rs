//! Schedule compaction passes.
//!
//! The paper (§3.2) improves the raw batched schedule in stages; the
//! generic, algorithm-independent piece lives here:
//! [`pull_earlier`] implements "start a task at an earlier time if all
//! the processors it uses are idle" — every placement keeps its
//! processor set but slides left onto the availability profile built by
//! its predecessors (in start-time order).
//!
//! The stronger compaction (re-running the list engine with the batch
//! ordering, which may *reassign* processor sets) is
//! [`crate::list_schedule`]; DEMT wires the two together in
//! `demt-core`. `pull_earlier` itself needs no event structure: it
//! keeps processor sets, so one availability slot per processor
//! (`O(Σkᵢ + n log n)` total) is already optimal.

use crate::{Placement, Schedule};

/// Slides every placement as far left as its own processor set allows,
/// preserving processor assignments and the relative order of conflicts.
/// Optional `ready[task]` lower bounds are honoured (on-line setting).
///
/// The result is feasible whenever the input is, starts never increase,
/// and a second application is a no-op (the pass is idempotent).
pub fn pull_earlier(schedule: &Schedule, ready: Option<&[f64]>) -> Schedule {
    let m = schedule.procs();
    let mut order: Vec<usize> = (0..schedule.len()).collect();
    order.sort_by(|&a, &b| {
        let pa = &schedule.placements()[a];
        let pb = &schedule.placements()[b];
        pa.start.total_cmp(&pb.start).then(pa.task.cmp(&pb.task))
    });
    let mut avail = vec![0.0_f64; m];
    let mut out = Vec::with_capacity(schedule.len());
    for idx in order {
        let p = &schedule.placements()[idx];
        let floor = ready.map(|r| r[p.task.index()]).unwrap_or(0.0);
        let start = p
            .procs
            .iter()
            .map(|q| avail[q as usize])
            .fold(floor, f64::max);
        debug_assert!(
            start <= p.start + 1e-9,
            "pull_earlier must never delay a task"
        );
        for q in &p.procs {
            avail[q as usize] = start + p.duration;
        }
        out.push(Placement {
            task: p.task,
            start,
            duration: p.duration,
            procs: p.procs.clone(),
        });
    }
    Schedule::from_placements(m, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_model::TaskId;

    fn placement(task: usize, start: f64, duration: f64, procs: &[u32]) -> Placement {
        Placement {
            task: TaskId(task),
            start,
            duration,
            procs: procs.into(),
        }
    }

    #[test]
    fn slides_into_leading_idle_time() {
        let mut s = Schedule::new(2);
        s.push(placement(0, 3.0, 1.0, &[0]));
        s.push(placement(1, 5.0, 2.0, &[0, 1]));
        let c = pull_earlier(&s, None);
        assert_eq!(c.placement_of(TaskId(0)).unwrap().start, 0.0);
        assert_eq!(c.placement_of(TaskId(1)).unwrap().start, 1.0);
        assert_eq!(c.makespan(), 3.0);
    }

    #[test]
    fn keeps_processor_sets() {
        let mut s = Schedule::new(3);
        s.push(placement(0, 2.0, 1.0, &[1, 2]));
        let c = pull_earlier(&s, None);
        assert_eq!(
            c.placement_of(TaskId(0)).unwrap().procs,
            demt_model::ProcSet::range(1, 2)
        );
    }

    #[test]
    fn respects_conflicts_on_shared_processors() {
        let mut s = Schedule::new(2);
        s.push(placement(0, 0.0, 2.0, &[0]));
        s.push(placement(1, 4.0, 1.0, &[0]));
        s.push(placement(2, 4.0, 1.0, &[1]));
        let c = pull_earlier(&s, None);
        assert_eq!(
            c.placement_of(TaskId(1)).unwrap().start,
            2.0,
            "blocked by task 0"
        );
        assert_eq!(
            c.placement_of(TaskId(2)).unwrap().start,
            0.0,
            "free processor"
        );
    }

    #[test]
    fn is_idempotent() {
        let mut s = Schedule::new(2);
        s.push(placement(0, 1.0, 2.0, &[0]));
        s.push(placement(1, 4.0, 1.0, &[0, 1]));
        let once = pull_earlier(&s, None);
        let twice = pull_earlier(&once, None);
        assert_eq!(once, twice);
    }

    #[test]
    fn honors_ready_floors() {
        let mut s = Schedule::new(1);
        s.push(placement(0, 6.0, 1.0, &[0]));
        let ready = vec![2.5];
        let c = pull_earlier(&s, Some(&ready));
        assert_eq!(c.placement_of(TaskId(0)).unwrap().start, 2.5);
    }

    #[test]
    fn never_increases_makespan() {
        let mut s = Schedule::new(3);
        s.push(placement(0, 0.0, 3.0, &[0, 1]));
        s.push(placement(1, 3.0, 2.0, &[1, 2]));
        s.push(placement(2, 5.0, 1.0, &[0]));
        let before = s.makespan();
        let c = pull_earlier(&s, None);
        assert!(c.makespan() <= before + 1e-12);
    }
}
