//! # pimflow-bench
//!
//! Benchmark and experiment harness regenerating every table and figure of
//! the PIMFlow paper's evaluation (§6). The [`experiments`] module holds
//! one deterministic function per table/figure; the `figures` binary prints
//! them and the bench targets time the underlying machinery through the
//! in-repo [`harness`] (the workspace builds offline, without Criterion).

#![warn(missing_docs)]

pub mod cost_cache_sweep;
pub mod exec_sweep;
pub mod experiments;
pub mod fleet_sweep;
pub mod fusion_sweep;
pub mod harness;
pub mod kernel_sweep;
pub mod resilience_sweep;
pub mod serve_sweep;
pub mod stats;
