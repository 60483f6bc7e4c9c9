//! RPS-sweep experiment over the serving runtime.
//!
//! Sweeps the offered load of the [`pimflow_serve`] simulator across a list
//! of requests-per-second points and records serving-grade metrics per
//! point (tail latencies, throughput, plan-cache hit rate). The sweep is
//! the serving counterpart of the paper's throughput figures: it shows how
//! dynamic batching amortizes the execution-mode search and where the
//! device saturates. `figures serve` writes it as `BENCH_serve.json`.

use pimflow::policy::Policy;
use pimflow_json::json_struct;
use pimflow_serve::{run, ArrivalSpec, ServeConfig, ServeError};

/// One point of the RPS sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Offered load, requests per second.
    pub rps: f64,
    /// Median end-to-end latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Achieved throughput, completed requests per second.
    pub throughput_rps: f64,
    /// Plan-cache hit rate over all batch dispatches.
    pub cache_hit_rate: f64,
    /// Requests completed at this point.
    pub completed: u64,
    /// Batches dispatched at this point.
    pub batches: u64,
    /// Execution-mode searches run (one per distinct batch size).
    pub search_invocations: u64,
}

json_struct!(SweepPoint {
    rps,
    p50_us,
    p95_us,
    p99_us,
    throughput_rps,
    cache_hit_rate,
    completed,
    batches,
    search_invocations,
});

/// The full sweep artifact written to `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Canonical model name.
    pub model: String,
    /// Policy display name.
    pub policy: String,
    /// Run window per point, seconds.
    pub duration_s: f64,
    /// PRNG seed shared by every point.
    pub seed: u64,
    /// One entry per offered-load point, ascending RPS.
    pub points: Vec<SweepPoint>,
}

json_struct!(SweepReport {
    model,
    policy,
    duration_s,
    seed,
    points
});

/// Serving parameters of one sweep (everything but the offered load).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Model to serve.
    pub model: String,
    /// Offloading policy.
    pub policy: Policy,
    /// Run window per point, seconds.
    pub duration_s: f64,
    /// PRNG seed (Poisson arrivals) shared by every point.
    pub seed: u64,
    /// Dynamic-batching maximum batch size.
    pub max_batch: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            model: "toy".into(),
            policy: Policy::Pimflow,
            duration_s: 0.25,
            seed: 7,
            max_batch: 4,
        }
    }
}

/// Offered-load points of the default sweep, requests per second.
pub const DEFAULT_RPS_POINTS: [f64; 5] = [500.0, 1000.0, 2000.0, 4000.0, 8000.0];

/// Runs the serving simulator once per offered-load point (Poisson
/// arrivals, same seed throughout) and collects one [`SweepPoint`] each.
///
/// # Errors
///
/// Propagates [`ServeError`] from the first failing point.
pub fn sweep(cfg: &SweepConfig, rps_points: &[f64]) -> Result<SweepReport, ServeError> {
    let mut points = Vec::with_capacity(rps_points.len());
    let mut model = cfg.model.clone();
    for &rps in rps_points {
        let run_cfg = ServeConfig {
            arrival: ArrivalSpec::Poisson { rps },
            duration_s: cfg.duration_s,
            seed: cfg.seed,
            max_batch: cfg.max_batch,
            ..ServeConfig::new(cfg.model.clone(), cfg.policy)
        };
        let r = run(&run_cfg)?.report;
        model = r.model.clone();
        points.push(SweepPoint {
            rps,
            p50_us: r.p50_us,
            p95_us: r.p95_us,
            p99_us: r.p99_us,
            throughput_rps: r.throughput_rps,
            cache_hit_rate: r.cache_hit_rate,
            completed: r.counters.completed,
            batches: r.counters.batches,
            search_invocations: r.counters.search_invocations,
        });
    }
    Ok(SweepReport {
        model,
        policy: cfg.policy.name().to_string(),
        duration_s: cfg.duration_s,
        seed: cfg.seed,
        points,
    })
}

/// Runs the default sweep and writes `BENCH_serve.json` under `dir`.
/// Returns the report and the path written.
///
/// # Errors
///
/// Returns a rendered error when the sweep or the write fails.
pub fn write_bench_artifact(
    dir: &std::path::Path,
) -> Result<(SweepReport, std::path::PathBuf), String> {
    let report = sweep(&SweepConfig::default(), &DEFAULT_RPS_POINTS).map_err(|e| e.to_string())?;
    crate::write_json_artifact(dir, "BENCH_serve.json", report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_point_and_serializes() {
        let cfg = SweepConfig {
            duration_s: 0.05,
            ..SweepConfig::default()
        };
        let report = sweep(&cfg, &[1000.0, 4000.0]).unwrap();
        assert_eq!(report.points.len(), 2);
        assert!(report.points.iter().all(|p| p.completed > 0));
        let json = pimflow_json::to_string(&report);
        let back: SweepReport = pimflow_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn cache_hit_rate_is_high_after_warmup() {
        // Plenty of batches against at most `max_batch` distinct sizes:
        // once every size has been compiled once, every further dispatch
        // hits the cache, so the hit rate must exceed 90%.
        let cfg = SweepConfig {
            duration_s: 0.2,
            ..SweepConfig::default()
        };
        let report = sweep(&cfg, &[4000.0]).unwrap();
        let p = &report.points[0];
        assert!(
            p.batches >= 40,
            "need enough batches to warm up, got {}",
            p.batches
        );
        assert!(
            p.cache_hit_rate >= 0.9,
            "plan cache must amortize the search: hit rate {:.3} over {} batches",
            p.cache_hit_rate,
            p.batches
        );
        assert!(p.search_invocations <= cfg.max_batch as u64);
    }

    #[test]
    fn higher_load_never_lowers_batch_amortization() {
        let cfg = SweepConfig {
            duration_s: 0.1,
            ..SweepConfig::default()
        };
        let report = sweep(&cfg, &DEFAULT_RPS_POINTS).unwrap();
        // Throughput grows with offered load until saturation.
        assert!(
            report.points.last().unwrap().throughput_rps
                > report.points.first().unwrap().throughput_rps
        );
    }
}
