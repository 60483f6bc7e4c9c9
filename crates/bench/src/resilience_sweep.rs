//! Resilience sweep: serving-quality degradation under channel faults.
//!
//! For each (model, fault severity) pair the sweep replays the same
//! Poisson request stream through the [`pimflow_serve`] simulator while a
//! seeded [`pimflow_serve::FaultScenario`] takes PIM channels down
//! mid-stream, and records how gracefully the runtime degrades: the
//! per-phase latency curve (before / during / after the fault window),
//! the fraction of requests that fell back to all-GPU batches, the
//! retry/repair counts, and the quality gap between the cheap
//! [`pimflow::search::ExecutionPlan::repair`] path and a full replan.
//! `figures resilience` writes it as `BENCH_resilience.json`.

use pimflow::policy::Policy;
use pimflow_json::json_struct;
use pimflow_serve::{run, ArrivalSpec, FaultScenario, ServeConfig, ServeError};

/// One (model, severity) cell of the resilience sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePoint {
    /// Canonical model name.
    pub model: String,
    /// Fraction of the PIM channel pool the scenario takes down (0–1).
    pub severity: f64,
    /// Requests that arrived within the run window.
    pub arrived: u64,
    /// Requests completed — must equal `arrived` (zero drops).
    pub completed: u64,
    /// Channel availability transitions replayed.
    pub fault_events: u64,
    /// In-flight batches aborted by a failure and re-dispatched.
    pub retries: u64,
    /// Cached plans repaired after a failure.
    pub repairs: u64,
    /// Median latency before the first failure, microseconds.
    pub p50_before_us: f64,
    /// p99 latency before the first failure, microseconds.
    pub p99_before_us: f64,
    /// Median latency while ≥ 1 channel is down, microseconds.
    pub p50_during_us: f64,
    /// p99 latency while ≥ 1 channel is down, microseconds.
    pub p99_during_us: f64,
    /// Median latency after full recovery, microseconds.
    pub p50_after_us: f64,
    /// p99 latency after full recovery, microseconds.
    pub p99_after_us: f64,
    /// Fraction of completed requests served by an all-GPU batch.
    pub gpu_fallback_fraction: f64,
    /// Mean relative plan-quality gap of repair vs full replan.
    pub repair_quality_delta: f64,
    /// Achieved throughput, completed requests per second.
    pub throughput_rps: f64,
}

json_struct!(ResiliencePoint {
    model,
    severity,
    arrived,
    completed,
    fault_events,
    retries,
    repairs,
    p50_before_us,
    p99_before_us,
    p50_during_us,
    p99_during_us,
    p50_after_us,
    p99_after_us,
    gpu_fallback_fraction,
    repair_quality_delta,
    throughput_rps,
});

/// The full sweep artifact written to `BENCH_resilience.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Policy display name.
    pub policy: String,
    /// Run window per point, seconds.
    pub duration_s: f64,
    /// Offered load, requests per second.
    pub rps: f64,
    /// Seed shared by arrivals and fault scenarios.
    pub seed: u64,
    /// One entry per (model, severity) pair, models outer, severities
    /// ascending within each model.
    pub points: Vec<ResiliencePoint>,
}

json_struct!(ResilienceReport {
    policy,
    duration_s,
    rps,
    seed,
    points
});

/// Sweep parameters (everything but the model/severity grid).
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Offloading policy.
    pub policy: Policy,
    /// Run window per point, seconds.
    pub duration_s: f64,
    /// Offered load, requests per second.
    pub rps: f64,
    /// Seed shared by arrivals and fault scenarios.
    pub seed: u64,
    /// Dynamic-batching maximum batch size.
    pub max_batch: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            policy: Policy::Pimflow,
            duration_s: 0.1,
            rps: 2000.0,
            seed: 0xFA17,
            max_batch: 4,
        }
    }
}

/// Models of the default sweep: the fast toy model plus a real zoo CNN.
pub const DEFAULT_MODELS: [&str; 2] = ["toy", "squeezenet-1.1"];

/// Fault severities of the default sweep: a quarter, half, and the whole
/// PIM channel pool (minus the always-spared survivor channel).
pub const DEFAULT_SEVERITIES: [f64; 3] = [0.25, 0.5, 1.0];

/// Runs the serving simulator once per (model, severity) cell with a
/// seeded mid-stream fault scenario and collects one [`ResiliencePoint`]
/// each. Repair-vs-replan measurement is on for every cell.
///
/// # Errors
///
/// Propagates [`ServeError`] from the first failing cell.
pub fn sweep(
    cfg: &ResilienceConfig,
    models: &[&str],
    severities: &[f64],
) -> Result<ResilienceReport, ServeError> {
    let pim_channels = cfg.policy.engine_config().pim_channels;
    let mut points = Vec::with_capacity(models.len() * severities.len());
    for &model in models {
        for &severity in severities {
            let run_cfg = ServeConfig {
                arrival: ArrivalSpec::Poisson { rps: cfg.rps },
                duration_s: cfg.duration_s,
                seed: cfg.seed,
                max_batch: cfg.max_batch,
                faults: FaultScenario::from_seed(cfg.seed, pim_channels, severity, cfg.duration_s),
                measure_replan: true,
                ..ServeConfig::new(model.to_string(), cfg.policy)
            };
            let r = run(&run_cfg)?.report;
            points.push(ResiliencePoint {
                model: r.model.clone(),
                severity,
                arrived: r.counters.arrived,
                completed: r.counters.completed,
                fault_events: r.counters.fault_events,
                retries: r.counters.retries,
                repairs: r.counters.repairs,
                p50_before_us: r.p50_before_us,
                p99_before_us: r.p99_before_us,
                p50_during_us: r.p50_during_us,
                p99_during_us: r.p99_during_us,
                p50_after_us: r.p50_after_us,
                p99_after_us: r.p99_after_us,
                gpu_fallback_fraction: r.gpu_fallback_fraction,
                repair_quality_delta: r.repair_quality_delta,
                throughput_rps: r.throughput_rps,
            });
        }
    }
    Ok(ResilienceReport {
        policy: cfg.policy.name().to_string(),
        duration_s: cfg.duration_s,
        rps: cfg.rps,
        seed: cfg.seed,
        points,
    })
}

/// Runs the default sweep and writes `BENCH_resilience.json` under `dir`.
/// Returns the report and the path written.
///
/// # Errors
///
/// Returns a rendered error when the sweep or the write fails.
pub fn write_bench_artifact(
    dir: &std::path::Path,
) -> Result<(ResilienceReport, std::path::PathBuf), String> {
    let report = sweep(
        &ResilienceConfig::default(),
        &DEFAULT_MODELS,
        &DEFAULT_SEVERITIES,
    )
    .map_err(|e| e.to_string())?;
    crate::write_json_artifact(dir, "BENCH_resilience.json", report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ResilienceConfig {
        ResilienceConfig {
            duration_s: 0.05,
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn sweep_covers_the_grid_drops_nothing_and_serializes() {
        let report = sweep(&quick_cfg(), &["toy"], &[0.5, 1.0]).unwrap();
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            assert!(p.arrived > 0);
            assert_eq!(
                p.arrived,
                p.completed,
                "severity {}: dropped {} requests",
                p.severity,
                p.arrived - p.completed
            );
            assert!(
                p.fault_events > 0,
                "severity {} injected no faults",
                p.severity
            );
        }
        let json = pimflow_json::to_string(&report);
        let back: ResilienceReport = pimflow_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn severity_one_evicts_pim_from_the_during_phase() {
        // With the whole pool (minus the spared survivor) down, most
        // during-phase batches should run degraded; repairs must happen.
        let report = sweep(&quick_cfg(), &["toy"], &[1.0]).unwrap();
        let p = &report.points[0];
        assert!(p.repairs > 0, "no plans repaired at full severity");
        assert!(
            p.p50_during_us > 0.0,
            "no requests completed during the fault window"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = sweep(&quick_cfg(), &["toy"], &[0.5]).unwrap();
        let b = sweep(&quick_cfg(), &["toy"], &[0.5]).unwrap();
        assert_eq!(pimflow_json::to_string(&a), pimflow_json::to_string(&b));
    }
}
