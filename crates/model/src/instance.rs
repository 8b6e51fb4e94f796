//! Scheduling instance: a homogeneous cluster and a set of moldable tasks.

use crate::{ModelError, MoldableTask, TaskId};
use serde::{Deserialize, Serialize};

/// An off-line scheduling instance (paper §3.2 input): `n` tasks, all
/// available at time 0, on a cluster of `m` identical processors.
///
/// Task ids are dense (`tasks[i].id() == TaskId(i)`) so that algorithm
/// crates can index side arrays by id.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Instance {
    procs: usize,
    tasks: Vec<MoldableTask>,
}

/// Decoding goes through [`Instance::new`], so a document with no
/// processors, a task vector of the wrong length or non-dense ids is
/// rejected as a decode error instead of building an invalid instance.
impl Deserialize for Instance {
    fn deserialize(d: &mut serde::de::Deserializer<'_>) -> Result<Self, serde::de::Error> {
        /// The wire form, field for field.
        #[derive(Deserialize)]
        struct Wire {
            procs: usize,
            tasks: Vec<MoldableTask>,
        }
        if d.peek() != Some(b'{') {
            return Err(serde::de::Error::custom("expected an instance object"));
        }
        let Wire { procs, tasks } = Wire::deserialize(d)?;
        Instance::new(procs, tasks).map_err(serde::de::Error::custom)
    }
}

impl Instance {
    /// Builds an instance, validating value sanity, vector lengths and
    /// id density. Monotony is *not* required here (see
    /// [`Instance::check_monotonic`]).
    pub fn new(procs: usize, mut tasks: Vec<MoldableTask>) -> Result<Self, ModelError> {
        if procs == 0 {
            return Err(ModelError::NoProcessors);
        }
        for t in &tasks {
            if t.max_procs() != procs {
                return Err(ModelError::ProcsMismatch {
                    task: t.id().0,
                    task_procs: t.max_procs(),
                    instance_procs: procs,
                });
            }
        }
        tasks.sort_by_key(|t| t.id());
        for (i, t) in tasks.iter().enumerate() {
            if t.id().0 != i {
                return Err(ModelError::DuplicateTaskId { task: t.id().0 });
            }
        }
        Ok(Self { procs, tasks })
    }

    /// Number of processors `m`.
    #[inline]
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// Number of tasks `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the instance holds no task.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks, ordered by id.
    #[inline]
    pub fn tasks(&self) -> &[MoldableTask] {
        &self.tasks
    }

    /// Task lookup by id.
    #[inline]
    pub fn task(&self, id: TaskId) -> &MoldableTask {
        &self.tasks[id.0]
    }

    /// Iterator over task ids `0..n`.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Checks every task for moldable monotony, returning the first
    /// violation. The SPAA'04 generators always pass; hand-built
    /// instances may not.
    pub fn check_monotonic(&self) -> Result<(), ModelError> {
        for t in &self.tasks {
            if let Some(v) = t.monotony_violation() {
                return Err(v);
            }
        }
        Ok(())
    }

    /// `tmin` of the paper (§3.2): the smallest processing time over all
    /// tasks and allotments. Panics on empty instances.
    pub fn min_min_time(&self) -> f64 {
        assert!(!self.tasks.is_empty(), "tmin of an empty instance");
        self.tasks
            .iter()
            .map(MoldableTask::min_time)
            .fold(f64::INFINITY, f64::min)
    }

    /// The largest *unavoidable* duration: `max_i min_k pᵢ(k)`. Any
    /// schedule's makespan is at least this.
    pub fn max_min_time(&self) -> f64 {
        self.tasks
            .iter()
            .map(MoldableTask::min_time)
            .fold(0.0, f64::max)
    }

    /// Sum over tasks of the minimal work `min_k k·pᵢ(k)`. Divided by
    /// `m` this is the classic surface lower bound on the makespan.
    pub fn total_min_work(&self) -> f64 {
        self.tasks.iter().map(MoldableTask::min_work).sum()
    }

    /// Sum of all weights.
    pub fn total_weight(&self) -> f64 {
        self.tasks.iter().map(MoldableTask::weight).sum()
    }

    /// Summary statistics used by the harness and examples.
    pub fn stats(&self) -> InstanceStats {
        let n = self.len();
        let seq: Vec<f64> = self.tasks.iter().map(MoldableTask::seq_time).collect();
        let sum_seq: f64 = seq.iter().sum();
        let max_seq = seq.iter().copied().fold(0.0, f64::max);
        InstanceStats {
            tasks: n,
            procs: self.procs,
            total_min_work: self.total_min_work(),
            total_seq_time: sum_seq,
            max_seq_time: max_seq,
            min_min_time: if n == 0 { 0.0 } else { self.min_min_time() },
            max_min_time: self.max_min_time(),
            total_weight: self.total_weight(),
        }
    }
}

/// Aggregate description of an instance (sizes, work, weight envelope).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceStats {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of processors.
    pub procs: usize,
    /// Σᵢ min_k k·pᵢ(k).
    pub total_min_work: f64,
    /// Σᵢ pᵢ(1).
    pub total_seq_time: f64,
    /// maxᵢ pᵢ(1).
    pub max_seq_time: f64,
    /// minᵢ min_k pᵢ(k) (the paper's `tmin`).
    pub min_min_time: f64,
    /// maxᵢ min_k pᵢ(k).
    pub max_min_time: f64,
    /// Σᵢ wᵢ.
    pub total_weight: f64,
}

/// Incremental builder assigning dense ids automatically.
///
/// ```
/// use demt_model::{InstanceBuilder, MoldableTask, TaskId};
/// let mut b = InstanceBuilder::new(4);
/// b.push_times(1.5, vec![8.0, 5.0, 4.0, 3.5]).unwrap();
/// b.push_linear(1.0, 6.0).unwrap();
/// let inst = b.build().unwrap();
/// assert_eq!(inst.len(), 2);
/// assert_eq!(inst.task(TaskId(1)).time(2), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    procs: usize,
    tasks: Vec<MoldableTask>,
}

impl InstanceBuilder {
    /// Starts an instance on `procs` processors.
    pub fn new(procs: usize) -> Self {
        Self {
            procs,
            tasks: Vec::new(),
        }
    }

    /// Next id that `push_*` will assign.
    pub fn next_id(&self) -> TaskId {
        TaskId(self.tasks.len())
    }

    /// Adds a task from an explicit time vector (length must be `m`).
    pub fn push_times(&mut self, weight: f64, times: Vec<f64>) -> Result<TaskId, ModelError> {
        let id = self.next_id();
        let t = MoldableTask::new(id, weight, times)?;
        if t.max_procs() != self.procs {
            return Err(ModelError::ProcsMismatch {
                task: id.0,
                task_procs: t.max_procs(),
                instance_procs: self.procs,
            });
        }
        self.tasks.push(t);
        Ok(id)
    }

    /// Adds a pre-built task, re-identifying it.
    pub fn push_task(&mut self, mut task: MoldableTask) -> Result<TaskId, ModelError> {
        let id = self.next_id();
        task.set_id(id);
        if task.max_procs() != self.procs {
            return Err(ModelError::ProcsMismatch {
                task: id.0,
                task_procs: task.max_procs(),
                instance_procs: self.procs,
            });
        }
        self.tasks.push(task);
        Ok(id)
    }

    /// Adds a linear-speed-up task of sequential time `seq`.
    pub fn push_linear(&mut self, weight: f64, seq: f64) -> Result<TaskId, ModelError> {
        let id = self.next_id();
        let t = MoldableTask::linear(id, weight, seq, self.procs)?;
        self.tasks.push(t);
        Ok(id)
    }

    /// Adds a no-speed-up sequential task.
    pub fn push_sequential(&mut self, weight: f64, seq: f64) -> Result<TaskId, ModelError> {
        let id = self.next_id();
        let t = MoldableTask::sequential(id, weight, seq, self.procs)?;
        self.tasks.push(t);
        Ok(id)
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when nothing has been added yet.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Finalizes the instance.
    pub fn build(self) -> Result<Instance, ModelError> {
        Instance::new(self.procs, self.tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Instance {
        let mut b = InstanceBuilder::new(3);
        b.push_times(1.0, vec![6.0, 4.0, 3.0]).unwrap();
        b.push_times(2.0, vec![2.0, 1.5, 1.2]).unwrap();
        b.push_linear(0.5, 9.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let inst = small();
        assert_eq!(inst.len(), 3);
        for (i, t) in inst.tasks().iter().enumerate() {
            assert_eq!(t.id(), TaskId(i));
        }
    }

    #[test]
    fn rejects_zero_processors_and_mismatched_vectors() {
        assert!(matches!(
            Instance::new(0, vec![]),
            Err(ModelError::NoProcessors)
        ));
        let t = MoldableTask::new(TaskId(0), 1.0, vec![1.0, 1.0]).unwrap();
        assert!(matches!(
            Instance::new(3, vec![t]),
            Err(ModelError::ProcsMismatch {
                task: 0,
                task_procs: 2,
                instance_procs: 3
            })
        ));
    }

    #[test]
    fn rejects_duplicate_ids() {
        let a = MoldableTask::new(TaskId(0), 1.0, vec![1.0]).unwrap();
        let b = MoldableTask::new(TaskId(0), 1.0, vec![2.0]).unwrap();
        assert!(matches!(
            Instance::new(1, vec![a, b]),
            Err(ModelError::DuplicateTaskId { task: 0 })
        ));
    }

    #[test]
    fn aggregate_queries() {
        let inst = small();
        assert_eq!(inst.procs(), 3);
        // tmin: task 1 on 3 procs = 1.2? linear task: 9/3 = 3. So 1.2.
        assert!((inst.min_min_time() - 1.2).abs() < 1e-12);
        // max over min times: max(3.0, 1.2, 3.0) = 3.0.
        assert!((inst.max_min_time() - 3.0).abs() < 1e-12);
        // min works: 6.0, 2.0, 9.0 → 17.
        assert!((inst.total_min_work() - 17.0).abs() < 1e-12);
        assert!((inst.total_weight() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn stats_snapshot() {
        let s = small().stats();
        assert_eq!(s.tasks, 3);
        assert_eq!(s.procs, 3);
        assert!((s.total_seq_time - 17.0).abs() < 1e-12);
        assert!((s.max_seq_time - 9.0).abs() < 1e-12);
    }

    #[test]
    fn monotony_check_passes_on_builders() {
        assert!(small().check_monotonic().is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let inst = small();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
    }
}
