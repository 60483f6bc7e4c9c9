//! Sequential-vs-parallel timing of the wave-scheduled graph executor.
//!
//! Each model runs on the reference executor twice — one worker, then the
//! pool width — on identical seeded inputs. The outputs must match
//! byte-for-byte (the executor's width-invariance contract), and the
//! [`ExecStats`](pimflow_kernels::ExecStats) from the arena run double
//! as the memory story: the
//! executor accumulates `retained_bytes` as the retain-everything
//! counterfactual, so one run yields both the liveness plan's peak and the
//! baseline it improves on. `figures exec` writes the result as
//! `BENCH_exec.json`.
//!
//! One untimed run per model comes first, so that no timed run pays for
//! generating the model's parameters (they stay resident in the
//! executor's weight store). Each side is then timed over [`SAMPLES`]
//! alternating runs, and the floor verdict is a Welch test
//! ([`crate::stats`]) of the sequential times against the parallel times
//! scaled by the floor: `Met` when the parallel time is significantly
//! below `sequential / floor`, `Missed` when it is significantly above,
//! `Unmeasured` when the difference is not significant or the host has
//! one hardware thread.

use crate::stats::{self, FloorVerdict};
use pimflow_ir::models;
use pimflow_json::json_struct;
use pimflow_kernels::{input_tensors, run_graph_with, ExecOptions};
use pimflow_pool::WorkerPool;

/// One model's sequential-vs-parallel execution timing.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelExecTiming {
    /// Canonical model name.
    pub model: String,
    /// Nodes in the model graph.
    pub nodes: usize,
    /// Dependency waves the scheduler partitioned the graph into.
    pub waves: usize,
    /// Wall time at one worker, milliseconds (mean of the samples).
    pub sequential_ms: f64,
    /// Wall time at the pool width, milliseconds (mean of the samples).
    pub parallel_ms: f64,
    /// `sequential_ms / parallel_ms`.
    pub speedup: f64,
    /// Whether the two runs' outputs were byte-identical (must be true).
    pub outputs_identical: bool,
    /// Peak resident tensor bytes under the liveness-based arena.
    pub peak_live_bytes: usize,
    /// Bytes a retain-everything executor would hold at the end.
    pub retained_bytes: usize,
    /// `retained_bytes / peak_live_bytes` — the arena's peak reduction.
    pub peak_reduction: f64,
    /// Buffers recycled through the arena free list.
    pub arena_reuses: u64,
    /// Input buffers stolen in place by elementwise ops.
    pub stolen_buffers: usize,
    /// Intermediates dropped eagerly at wave boundaries.
    pub dropped_tensors: usize,
    /// Heavy nodes sharded across the pool in the parallel run.
    pub sharded_nodes: usize,
}

json_struct!(ModelExecTiming {
    model,
    nodes,
    waves,
    sequential_ms,
    parallel_ms,
    speedup,
    outputs_identical,
    peak_live_bytes,
    retained_bytes,
    peak_reduction,
    arena_reuses,
    stolen_buffers,
    dropped_tensors,
    sharded_nodes,
});

/// The full artifact written to `BENCH_exec.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecSweepReport {
    /// Worker-pool width of the parallel runs.
    pub jobs: usize,
    /// Hardware threads of the measuring host.
    pub host_threads: usize,
    /// Model whose speedup the floor is judged on (the largest swept).
    pub floor_model: String,
    /// Speedup the floor model must reach at `jobs` workers.
    pub speedup_floor: f64,
    /// Timed runs per side and model.
    pub samples: usize,
    /// Whether the floor model's parallel time is significantly below
    /// (`Met`) or above (`Missed`) its sequential time over
    /// `speedup_floor`; `Unmeasured` when neither is significant at
    /// [`ALPHA`](stats::ALPHA), or on a host with a single hardware
    /// thread, where parallel speedup cannot be observed.
    pub speedup_floor_verdict: FloorVerdict,
    /// Two-tailed Welch p-value behind the verdict (`1.0` when the host
    /// has a single hardware thread).
    pub speedup_floor_p_value: f64,
    /// True when the floor model's arena cut peak bytes at least 2x below
    /// the retain-everything baseline.
    pub meets_memory_floor: bool,
    /// One entry per model, in input order.
    pub models: Vec<ModelExecTiming>,
}

json_struct!(ExecSweepReport {
    jobs,
    host_threads,
    floor_model,
    speedup_floor,
    samples,
    speedup_floor_verdict,
    speedup_floor_p_value,
    meets_memory_floor,
    models,
});

/// Models of the full sweep, smallest first; the last is the floor model.
pub const DEFAULT_MODELS: [&str; 3] = ["toy", "mobilenet-v2", "resnet-50"];

/// Speedup the largest model must reach at 4 workers on a multi-core host.
pub const SPEEDUP_FLOOR: f64 = 1.5;

/// Timed runs per side and model: enough for the Welch test to tell a
/// 10% difference from run-to-run noise on a 2-vCPU host.
pub const SAMPLES: usize = 8;

/// Times each named model at one worker vs `jobs` workers (`samples`
/// alternating runs each) and derives the floor verdicts from the last —
/// largest — model. `speedup_floor` is the bar that model must clear;
/// pass [`SPEEDUP_FLOOR`] for the committed artifact.
///
/// # Panics
///
/// Panics on an unknown model name, or if `samples < 2`.
pub fn sweep(
    model_names: &[&str],
    jobs: usize,
    samples: usize,
    speedup_floor: f64,
) -> ExecSweepReport {
    assert!(samples >= 2, "the Welch test needs two samples per side");
    let mut floor_samples = [Vec::new(), Vec::new()];
    let rows: Vec<ModelExecTiming> = model_names
        .iter()
        .map(|name| {
            let g = models::by_name(name).expect("known model");
            let inputs = input_tensors(&g, 42);
            let run_at = |width: usize| {
                run_graph_with(
                    &g,
                    &inputs,
                    &ExecOptions {
                        jobs: Some(width),
                        gemm: None,
                    },
                )
                .expect("zoo models execute")
            };
            // Untimed: the first run generates the model's parameters into
            // the weight store, and every timed run reads them from there.
            run_at(1);
            let ([seq_ms, par_ms], [seq, par]) =
                stats::alternate(samples, || run_at(1), || run_at(jobs));
            let (sequential_ms, parallel_ms) = (stats::mean(&seq_ms), stats::mean(&par_ms));
            floor_samples = [seq_ms, par_ms];
            let outputs_identical = seq
                .outputs
                .iter()
                .zip(&par.outputs)
                .all(|(a, b)| a.data() == b.data());
            let s = &seq.stats;
            ModelExecTiming {
                model: g.name.clone(),
                nodes: g.node_ids().count(),
                waves: s.waves,
                sequential_ms,
                parallel_ms,
                speedup: sequential_ms / parallel_ms,
                outputs_identical,
                peak_live_bytes: s.peak_live_bytes,
                retained_bytes: s.retained_bytes,
                peak_reduction: s.retained_bytes as f64 / s.peak_live_bytes.max(1) as f64,
                arena_reuses: s.arena_reuses,
                stolen_buffers: s.stolen_buffers,
                dropped_tensors: s.dropped_tensors,
                sharded_nodes: par.stats.sharded_nodes,
            }
        })
        .collect();

    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = rows.last().expect("at least one model");
    let [seq_ms, par_ms] = &floor_samples;
    let (speedup_floor_verdict, speedup_floor_p_value) =
        floor_verdict(host_threads, seq_ms, par_ms, speedup_floor);
    ExecSweepReport {
        jobs,
        host_threads,
        floor_model: floor.model.clone(),
        speedup_floor,
        samples,
        speedup_floor_verdict,
        speedup_floor_p_value,
        meets_memory_floor: floor.peak_reduction >= 2.0,
        models: rows,
    }
}

/// The speedup-floor verdict and its p-value: `Unmeasured` (p 1.0) on a
/// host with one hardware thread, else [`FloorVerdict::judge`] of the
/// sequential times against the parallel times.
fn floor_verdict(
    host_threads: usize,
    seq_ms: &[f64],
    par_ms: &[f64],
    speedup_floor: f64,
) -> (FloorVerdict, f64) {
    if host_threads == 1 {
        (FloorVerdict::Unmeasured, 1.0)
    } else {
        FloorVerdict::judge(seq_ms, par_ms, speedup_floor)
    }
}

/// Runs the sweep at the `PIMFLOW_JOBS` pool width and writes
/// `BENCH_exec.json` under `dir`. `smoke` restricts the sweep to the small
/// models (CI-sized) and only asks the floor model to not regress (floor
/// 1.0); the committed artifact uses the full set and [`SPEEDUP_FLOOR`].
/// Both take [`SAMPLES`] runs per side. Returns the report and the path
/// written.
///
/// # Errors
///
/// Returns a rendered error when the write fails or any model's parallel
/// run diverged from its sequential baseline.
pub fn write_bench_artifact(
    dir: &std::path::Path,
    smoke: bool,
) -> Result<(ExecSweepReport, std::path::PathBuf), String> {
    let jobs = WorkerPool::from_env().jobs();
    let report = if smoke {
        sweep(&["toy", "mobilenet-v2"], jobs, SAMPLES, 1.0)
    } else {
        sweep(&DEFAULT_MODELS, jobs, SAMPLES, SPEEDUP_FLOOR)
    };
    if let Some(bad) = report.models.iter().find(|m| !m.outputs_identical) {
        return Err(format!(
            "parallel execution diverged from sequential on {}",
            bad.model
        ));
    }
    crate::write_json_artifact(dir, "BENCH_exec.json", report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_identical_outputs_and_memory_wins() {
        let report = sweep(&["toy"], 2, 2, 1.0);
        assert_eq!(report.jobs, 2);
        assert_eq!(report.floor_model, "toy");
        let m = &report.models[0];
        assert!(m.outputs_identical, "parallel run diverged on {}", m.model);
        assert!(m.waves > 0 && m.nodes >= m.waves);
        assert!(m.peak_live_bytes > 0);
        assert!(
            m.retained_bytes > m.peak_live_bytes,
            "liveness plan must beat retain-everything"
        );
        assert!(m.dropped_tensors + m.stolen_buffers > 0);
        let json = pimflow_json::to_string(&report);
        let back: ExecSweepReport = pimflow_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn single_thread_hosts_waive_the_speedup_floor() {
        // Fixed samples, so the verdict does not depend on host load: the
        // parallel side runs about 2x faster than the sequential one.
        let seq = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1];
        let par = [5.0, 5.1, 4.9, 5.2, 5.0, 4.8, 5.1, 5.0];
        assert_eq!(
            floor_verdict(1, &seq, &par, 1e6),
            (FloorVerdict::Unmeasured, 1.0),
            "one hardware thread"
        );
        assert_eq!(
            floor_verdict(4, &seq, &par, 1e6).0,
            FloorVerdict::Missed,
            "unreachable floor"
        );
        assert_eq!(
            floor_verdict(4, &seq, &par, 0.0).0,
            FloorVerdict::Met,
            "zero floor"
        );
    }
}
