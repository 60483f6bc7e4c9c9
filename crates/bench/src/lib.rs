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

use std::path::{Path, PathBuf};

/// Writes `report` as pretty-printed JSON to `dir/file_name`, creating
/// `dir` first, and hands the report back with the written path. Every
/// sweep's `write_bench_artifact` ends here once its gates pass.
///
/// # Errors
///
/// Returns a message naming the directory or file that could not be
/// created or written.
pub fn write_json_artifact<T: pimflow_json::ToJson>(
    dir: &Path,
    file_name: &str,
    report: T,
) -> Result<(T, PathBuf), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(file_name);
    std::fs::write(&path, pimflow_json::to_string_pretty(&report))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok((report, path))
}
