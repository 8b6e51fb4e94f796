//! The archive-scale [`replay`] harness behind `demt replaybench`.
//!
//! The repository benchmark (`perfbench/`, declared in
//! `BENCHMARK.json`) measures the paper pipeline layer by layer; this
//! crate streams million-job traces through the two production engines.

#![warn(missing_docs)]

pub mod replay;

pub use replay::replaybench_cli;
