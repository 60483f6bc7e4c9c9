//! Cold-vs-warm timing of the Algorithm 1 search under the cost cache.
//!
//! Each model is searched in [`SAMPLES`] alternating pairs: a cold search
//! against a fresh [`CostCache`] pays every DRAM-PIM schedule simulation,
//! and a warm re-search against that cache answers every cost query from
//! the shared table. The two plans must serialize to the same bytes — the
//! cache's byte-identity contract. The floor "warm is no slower than
//! cold" is judged per model by a Welch test ([`crate::stats`]): `Met`
//! when warm is significantly faster, `Missed` when significantly slower,
//! `Unmeasured` when the difference is not significant. A
//! batch sweep then measures cross-batch sharing: batching scales workload
//! rows linearly while the MD-DP ratio grid scales them fractionally, so
//! different batch sizes fold onto common [`WorkloadKey`]s and one shared
//! cache stays smaller than per-batch caches. `figures costcache` writes
//! the result as `BENCH_costcache.json`.
//!
//! [`WorkloadKey`]: pimflow::costcache::WorkloadKey

use crate::stats::{self, FloorVerdict};
use pimflow::batch::with_batch;
use pimflow::costcache::CostCache;
use pimflow::engine::EngineConfig;
use pimflow::search::{Search, SearchOptions};
use pimflow_ir::models;
use pimflow_json::json_struct;
use pimflow_pool::WorkerPool;
use std::cell::RefCell;

/// One model's cold-vs-warm search timing.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCacheTiming {
    /// Canonical model name.
    pub model: String,
    /// Nodes in the model graph.
    pub nodes: usize,
    /// Wall time of the cold (empty-cache) search, milliseconds (mean of
    /// the samples).
    pub cold_ms: f64,
    /// Wall time of the warm (fully-cached) re-search, milliseconds (mean
    /// of the samples).
    pub warm_ms: f64,
    /// `cold_ms / warm_ms`.
    pub speedup: f64,
    /// Whether warm searches are significantly faster (`Met`) or slower
    /// (`Missed`) than cold ones at [`ALPHA`](stats::ALPHA); `Unmeasured`
    /// otherwise.
    pub floor_verdict: FloorVerdict,
    /// Two-tailed Welch p-value behind `floor_verdict`.
    pub floor_p_value: f64,
    /// Whether cold and warm plans serialized to identical bytes (must be
    /// true — the cache may not change what the search decides).
    pub plans_identical: bool,
    /// Cost-cache hits of the warm run.
    pub warm_hits: u64,
    /// Cost-cache misses of the warm run (0 for a deterministic search).
    pub warm_misses: u64,
    /// `warm_hits / (warm_hits + warm_misses)`.
    pub warm_hit_rate: f64,
    /// Distinct workload entries the model's search needs.
    pub entries: u64,
}

json_struct!(ModelCacheTiming {
    model,
    nodes,
    cold_ms,
    warm_ms,
    speedup,
    floor_verdict,
    floor_p_value,
    plans_identical,
    warm_hits,
    warm_misses,
    warm_hit_rate,
    entries,
});

/// Cross-batch sharing at one batch size of the batch sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSharePoint {
    /// Batch size searched.
    pub batch: usize,
    /// Entries a fresh cache needs for this batch size alone.
    pub independent_entries: u64,
    /// Cumulative entries of the shared cache after this batch size.
    pub shared_entries_after: u64,
}

json_struct!(BatchSharePoint {
    batch,
    independent_entries,
    shared_entries_after,
});

/// The full artifact written to `BENCH_costcache.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct CostCacheReport {
    /// Worker-pool width of the searches.
    pub jobs: usize,
    /// Hardware threads of the measuring host.
    pub host_threads: usize,
    /// Timed cold and warm searches per model.
    pub samples: usize,
    /// One entry per model, in input order.
    pub models: Vec<ModelCacheTiming>,
    /// Model of the batch sweep.
    pub batch_model: String,
    /// One entry per batch size, ascending.
    pub batch_points: Vec<BatchSharePoint>,
    /// Final size of the cache shared across every batch size.
    pub shared_total_entries: u64,
    /// Sum of the per-batch fresh-cache sizes.
    pub independent_total_entries: u64,
    /// Every model's `floor_verdict` combined ([`FloorVerdict::all`]):
    /// `Missed` when warm searches were significantly slower than cold
    /// ones on any model — the outcome CI fails on.
    pub speedup_floor_verdict: FloorVerdict,
}

json_struct!(CostCacheReport {
    jobs,
    host_threads,
    samples,
    models,
    batch_model,
    batch_points,
    shared_total_entries,
    independent_total_entries,
    speedup_floor_verdict,
});

/// Models of the full timing sweep: `resnet-50` is the repeated-block
/// showcase (identical bottlenecks fold onto few workload keys), the other
/// two cover depthwise-heavy and plain-residual topologies.
pub const DEFAULT_MODELS: [&str; 3] = ["resnet-50", "efficientnet-v1-b0", "mobilenet-v2"];

/// Batch sizes of the cross-batch sharing sweep.
pub const DEFAULT_BATCH_SIZES: [usize; 3] = [1, 2, 4];

/// Timed cold and warm searches per model. A search takes milliseconds,
/// so sixteen pairs cost little and let the Welch test separate a warm
/// speedup from run-to-run noise even on the smallest model.
pub const SAMPLES: usize = 16;

/// Times `samples` alternating cold and warm searches of each named model
/// on a `jobs`-wide pool, then runs the cross-batch sharing sweep on
/// `batch_model`.
///
/// # Panics
///
/// Panics on an unknown model name, or if `samples < 2`.
pub fn sweep(
    model_names: &[&str],
    batch_model: &str,
    batch_sizes: &[usize],
    jobs: usize,
    samples: usize,
) -> CostCacheReport {
    assert!(samples >= 2, "the Welch test needs two samples per side");
    let cfg = EngineConfig::pimflow();
    let opts = SearchOptions::default();
    let model_rows: Vec<ModelCacheTiming> = model_names
        .iter()
        .map(|name| {
            let g = models::by_name(name).expect("known model");
            // One search through `cache`: its plan, the hits and misses it
            // added, and the entries after it.
            let search = |cache: &CostCache| {
                let before = cache.counters();
                let plan = Search::new(&g, &cfg)
                    .options(opts)
                    .pool(jobs)
                    .cache(cache)
                    .run()
                    .expect("zoo models search");
                let after = cache.counters();
                let lookups = (after.hits - before.hits, after.misses - before.misses);
                (plan, lookups, after.entries)
            };
            // Each cold search fills a fresh cache; the warm search that
            // follows it re-searches through that cache.
            let cache = RefCell::new(CostCache::new());
            let (
                [cold_samples, warm_samples],
                [(cold_plan, ..), (warm_plan, (warm_hits, warm_misses), entries)],
            ) = stats::alternate(
                samples,
                || {
                    let fresh = CostCache::new();
                    let out = search(&fresh);
                    cache.replace(fresh);
                    out
                },
                || search(&cache.borrow()),
            );
            let (cold_ms, warm_ms) = (stats::mean(&cold_samples), stats::mean(&warm_samples));
            let (floor_verdict, floor_p_value) =
                FloorVerdict::judge(&cold_samples, &warm_samples, 1.0);
            ModelCacheTiming {
                model: g.name.clone(),
                nodes: g.node_ids().count(),
                cold_ms,
                warm_ms,
                speedup: cold_ms / warm_ms,
                floor_verdict,
                floor_p_value,
                plans_identical: pimflow_json::to_string(&cold_plan)
                    == pimflow_json::to_string(&warm_plan),
                warm_hits,
                warm_misses,
                warm_hit_rate: if warm_hits + warm_misses > 0 {
                    warm_hits as f64 / (warm_hits + warm_misses) as f64
                } else {
                    0.0
                },
                entries,
            }
        })
        .collect();

    let base = models::by_name(batch_model).expect("known batch model");
    let shared = CostCache::new();
    let mut batch_points = Vec::new();
    let mut independent_total = 0u64;
    for &size in batch_sizes {
        let batched = with_batch(&base, size).expect("zoo models batch");
        let solo = CostCache::new();
        Search::new(&batched, &cfg)
            .options(opts)
            .pool(jobs)
            .cache(&solo)
            .run()
            .expect("zoo models search");
        Search::new(&batched, &cfg)
            .options(opts)
            .pool(jobs)
            .cache(&shared)
            .run()
            .expect("zoo models search");
        independent_total += solo.counters().entries;
        batch_points.push(BatchSharePoint {
            batch: size,
            independent_entries: solo.counters().entries,
            shared_entries_after: shared.counters().entries,
        });
    }

    CostCacheReport {
        jobs,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        samples,
        speedup_floor_verdict: FloorVerdict::all(model_rows.iter().map(|m| m.floor_verdict)),
        models: model_rows,
        batch_model: base.name.clone(),
        batch_points,
        shared_total_entries: shared.counters().entries,
        independent_total_entries: independent_total,
    }
}

/// Runs the sweep at the `PIMFLOW_JOBS` pool width and writes
/// `BENCH_costcache.json` under `dir`. `smoke` restricts the sweep to the
/// small models (CI-sized); the committed artifact uses the full set.
/// Returns the report and the path written.
///
/// # Errors
///
/// Returns a rendered error when the write fails or a warm plan diverged
/// from its cold baseline.
pub fn write_bench_artifact(
    dir: &std::path::Path,
    smoke: bool,
) -> Result<(CostCacheReport, std::path::PathBuf), String> {
    let jobs = WorkerPool::from_env().jobs();
    let report = if smoke {
        sweep(&["toy", "mobilenet-v2"], "toy", &[1, 2], jobs, SAMPLES)
    } else {
        sweep(
            &DEFAULT_MODELS,
            "mobilenet-v2",
            &DEFAULT_BATCH_SIZES,
            jobs,
            SAMPLES,
        )
    };
    if let Some(bad) = report.models.iter().find(|m| !m.plans_identical) {
        return Err(format!("warm search diverged from cold on {}", bad.model));
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("BENCH_costcache.json");
    std::fs::write(&path, pimflow_json::to_string_pretty(&report))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok((report, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_full_warm_hit_rate_and_sharing() {
        let report = sweep(&["toy"], "toy", &[1, 2], 2, 2);
        assert_eq!(report.jobs, 2);
        assert_eq!(report.samples, 2);
        assert_eq!(report.models.len(), 1);
        let m = &report.models[0];
        assert!(m.plans_identical, "warm plan diverged on {}", m.model);
        assert!(m.entries > 0);
        assert_eq!(m.warm_misses, 0, "a warm re-search must be all hits");
        assert_eq!(m.warm_hit_rate, 1.0);
        // Batch sweep: the shared cache never exceeds the independent sum
        // and batch 2 reuses batch-1 entries (rows scale linearly).
        assert_eq!(report.batch_points.len(), 2);
        assert!(report.shared_total_entries < report.independent_total_entries);
        let json = pimflow_json::to_string(&report);
        let back: CostCacheReport = pimflow_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
