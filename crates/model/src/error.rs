//! Error type for model construction and validation.

use std::fmt;

/// Errors raised while building or validating tasks and instances.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A processing-time vector was empty.
    EmptyTimes {
        /// Offending task id.
        task: usize,
    },
    /// A processing time was zero, negative, NaN or infinite.
    NonPositiveTime {
        /// Offending task id.
        task: usize,
        /// Allotment (1-based) at which the bad value sits.
        procs: usize,
        /// The bad value.
        value: f64,
    },
    /// A weight was zero, negative, NaN or infinite.
    NonPositiveWeight {
        /// Offending task id.
        task: usize,
        /// The bad value.
        value: f64,
    },
    /// `p(k)` increased with `k` (violates moldable monotony).
    TimeNotNonIncreasing {
        /// Offending task id.
        task: usize,
        /// Allotment (1-based) where the increase happens.
        procs: usize,
    },
    /// Work `k·p(k)` decreased with `k` (violates moldable monotony).
    WorkNotNonDecreasing {
        /// Offending task id.
        task: usize,
        /// Allotment (1-based) where the decrease happens.
        procs: usize,
    },
    /// An instance was built with zero processors.
    NoProcessors,
    /// A task's processing-time vector length does not match the
    /// instance's processor count.
    ProcsMismatch {
        /// Offending task id.
        task: usize,
        /// Length of the task's vector.
        task_procs: usize,
        /// The instance's processor count.
        instance_procs: usize,
    },
    /// Two tasks in the same instance share an id.
    DuplicateTaskId {
        /// The duplicated id.
        task: usize,
    },
    /// A rigid task's width lies outside `1..=m` (see
    /// [`crate::MoldableTask::rigid`]).
    RigidWidthOutOfRange {
        /// Offending task id.
        task: usize,
        /// The requested width.
        width: usize,
        /// The machine's processor count `m`.
        procs: usize,
    },
    /// A task id referenced an instance of fewer tasks (e.g. in
    /// [`crate::Instance::restrict`]).
    TaskOutOfRange {
        /// The out-of-range id.
        task: usize,
        /// Number of tasks in the instance.
        tasks: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ModelError::EmptyTimes { task } => {
                write!(f, "task {task}: empty processing-time vector")
            }
            ModelError::NonPositiveTime { task, procs, value } => {
                write!(f, "task {task}: p({procs}) = {value} is not a positive finite time")
            }
            ModelError::NonPositiveWeight { task, value } => {
                write!(f, "task {task}: weight {value} is not positive and finite")
            }
            ModelError::TimeNotNonIncreasing { task, procs } => {
                write!(f, "task {task}: p({procs}) > p({}) breaks monotony", procs - 1)
            }
            ModelError::WorkNotNonDecreasing { task, procs } => {
                write!(
                    f,
                    "task {task}: work {procs}·p({procs}) < {}·p({}) breaks monotony",
                    procs - 1,
                    procs - 1
                )
            }
            ModelError::NoProcessors => write!(f, "instance has zero processors"),
            ModelError::ProcsMismatch { task, task_procs, instance_procs } => write!(
                f,
                "task {task}: vector covers {task_procs} processors but instance has {instance_procs}"
            ),
            ModelError::DuplicateTaskId { task } => {
                write!(f, "duplicate task id {task} in instance")
            }
            ModelError::RigidWidthOutOfRange { task, width, procs } => {
                write!(f, "task {task}: rigid width {width} outside 1..={procs}")
            }
            ModelError::TaskOutOfRange { task, tasks } => {
                write!(f, "task id {task} out of range for an instance of {tasks} tasks")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::NonPositiveTime {
            task: 3,
            procs: 2,
            value: -1.0,
        };
        let s = e.to_string();
        assert!(s.contains("task 3"));
        assert!(s.contains("p(2)"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(ModelError::NoProcessors);
        assert_eq!(e.to_string(), "instance has zero processors");
    }
}
