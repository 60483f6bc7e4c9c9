//! Fusion-group search: unfused Algorithm 1 vs the joint fusion × split ×
//! pipelining search.
//!
//! Each model is searched twice over the same cost cache: once with
//! fusion disabled ([`SearchOptions::allow_fusion`] off — the historical
//! search space) and once with the fusion-group options folded into the
//! DP. The fused space is a strict superset of the unfused one, so the
//! fused plan's predicted time can never be worse — the artifact records
//! that invariant per model (`fused_never_worse`, no epsilon) alongside
//! the thing fusion actually buys: both plans are applied and executed,
//! and the host↔PIM traffic (PIM→host drains + host→PIM GWRITE payload
//! fetches) of the fused plan is compared against the unfused one.
//!
//! Plan determinism is probed by re-searching: fused plans re-searched
//! at several worker-pool widths must serialize to identical bytes.
//! Wall-clock claims about the joint search's compile-time overhead go through the Welch-t-test harness
//! ([`crate::stats::compare_lower_is_better`]) rather than single-run
//! arithmetic. `figures fusion` writes the result as `BENCH_fusion.json`.

use crate::stats::{self, Comparison};
use pimflow::costcache::CostCache;
use pimflow::engine::{execute, EngineConfig};
use pimflow::passes::find_fusion_groups;
use pimflow::search::{apply_plan, Decision, ExecutionPlan, Search, SearchOptions};
use pimflow_ir::{models, Graph, Op};
use pimflow_json::json_struct;
use pimflow_pool::WorkerPool;

/// One model's unfused-vs-fused search outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelFusionRow {
    /// Canonical model name.
    pub model: String,
    /// Nodes in the model graph.
    pub nodes: usize,
    /// Fusion groups the joint search committed to ([`Decision::Fused`]).
    pub fused_groups: usize,
    /// Graph nodes covered by those groups (heavy layers and riders).
    pub fused_layers: usize,
    /// Predicted end-to-end time of the fusion-disabled search, µs.
    pub unfused_predicted_us: f64,
    /// Predicted end-to-end time of the joint search, µs.
    pub fused_predicted_us: f64,
    /// Predicted end-to-end time of the joint search with overlap-linked
    /// epoch pricing disabled ([`SearchOptions::overlap_epochs`] off):
    /// fused chains priced back-to-back only, µs.
    pub no_overlap_predicted_us: f64,
    /// PIM-pipeline time hidden by overlapped fusion epochs in the
    /// executed fused plan, µs (sum over its groups).
    pub overlap_hidden_us: f64,
    /// `fused_predicted_us <= no_overlap_predicted_us`, exactly — the
    /// overlapped chain time is `min(back_to_back, overlapped)`, so
    /// enabling overlap can only widen the candidate space.
    pub overlap_never_worse: bool,
    /// `unfused - fused` predicted time, µs (≥ 0 when the superset
    /// invariant holds).
    pub predicted_delta_us: f64,
    /// Host↔PIM traffic of the executed unfused plan, bytes.
    pub unfused_traffic_bytes: u64,
    /// Host↔PIM traffic of the executed fused plan, bytes.
    pub fused_traffic_bytes: u64,
    /// `unfused - fused` traffic, bytes (saturating; fusion keeps
    /// intermediate activations near the banks, so this is what the
    /// elided `DRAIN`/`GWRITE` crossings were carrying).
    pub traffic_reduction_bytes: u64,
    /// Traffic reduction as a fraction of the unfused traffic, percent.
    pub traffic_reduction_pct: f64,
    /// `fused_predicted_us <= unfused_predicted_us`, exactly — the fused
    /// search space contains the unfused one, so no epsilon is tolerated.
    pub fused_never_worse: bool,
    /// Fused plans at every probed pool width serialized to the same
    /// bytes.
    pub plans_bit_identical: bool,
}

json_struct!(ModelFusionRow {
    model,
    nodes,
    fused_groups,
    fused_layers,
    unfused_predicted_us,
    fused_predicted_us,
    no_overlap_predicted_us,
    overlap_hidden_us,
    overlap_never_worse,
    predicted_delta_us,
    unfused_traffic_bytes,
    fused_traffic_bytes,
    traffic_reduction_bytes,
    traffic_reduction_pct,
    fused_never_worse,
    plans_bit_identical,
});

/// The full artifact written to `BENCH_fusion.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionReport {
    /// Worker-pool width of the searches.
    pub jobs: usize,
    /// Hardware threads of the measuring host.
    pub host_threads: usize,
    /// Pool widths the plan-identity check probed.
    pub probed_widths: Vec<usize>,
    /// One entry per model, in input order.
    pub models: Vec<ModelFusionRow>,
    /// The superset invariant held on every model — the property CI
    /// asserts.
    pub fused_never_worse: bool,
    /// On every model, the overlap-enabled search predicted no worse than
    /// the same joint search with overlap pricing disabled — the second
    /// property CI asserts (exact, no epsilon).
    pub overlap_never_worse: bool,
    /// Fusion candidates carrying a residual `Add` rider that
    /// [`find_fusion_groups`] returns on the resnet-family models: the
    /// towers the skip-aware walker unlocks (0 before residual-aware
    /// groups existed), whether or not the search commits to them.
    pub resnet_residual_candidates: usize,
    /// Models where the fused plan moved strictly fewer bytes across the
    /// channel bus than the unfused plan.
    pub models_with_traffic_reduction: usize,
    /// Total bytes kept near the banks across the sweep.
    pub total_traffic_reduction_bytes: u64,
    /// Model the search wall-clock comparison timed.
    pub wall_clock_model: String,
    /// Welch comparison of search wall-clock: baseline = fusion-disabled
    /// search, candidate = joint search, fresh cost cache per sample.
    /// ACCEPT would mean the joint search is *faster* — not the claim;
    /// see `search_overhead_significant`.
    pub search_wall_clock: Comparison,
    /// True when the joint search is statistically significantly slower
    /// than the unfused search (`p <` [`stats::ALPHA`] and a higher
    /// mean). The artifact states compile-time overhead only when this
    /// gate fires; otherwise the measured difference is noise.
    pub search_overhead_significant: bool,
}

json_struct!(FusionReport {
    jobs,
    host_threads,
    probed_widths,
    models,
    fused_never_worse,
    overlap_never_worse,
    resnet_residual_candidates,
    models_with_traffic_reduction,
    total_traffic_reduction_bytes,
    wall_clock_model,
    search_wall_clock,
    search_overhead_significant,
});

/// Executed stats of one plan: apply it, execute the transformed graph,
/// and return the host↔PIM traffic (both crossing directions) plus the
/// PIM time its fused groups hid by overlapping.
fn executed_stats(g: &pimflow_ir::Graph, plan: &ExecutionPlan, cfg: &EngineConfig) -> (u64, f64) {
    let transformed = apply_plan(g, plan).expect("searched plan applies");
    let report = execute(&transformed, cfg).expect("transformed graph executes");
    (
        report.transfer_bytes + report.host_to_pim_bytes,
        report
            .fused_groups
            .iter()
            .map(|s| s.overlap_hidden_us)
            .sum::<f64>()
            .max(0.0),
    )
}

/// Fusion candidates of `g` that carry a residual `Add` rider.
fn residual_candidates(g: &Graph) -> usize {
    find_fusion_groups(g)
        .iter()
        .filter(|group| {
            group
                .nodes
                .iter()
                .any(|&id| matches!(g.node(id).op, Op::Add))
        })
        .count()
}

/// Times `Search::run` wall-clock on `g` under `opts`, one fresh cache
/// per sample so no run warms the next.
fn search_samples(
    g: &pimflow_ir::Graph,
    cfg: &EngineConfig,
    opts: SearchOptions,
    jobs: usize,
    samples: usize,
) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let cache = CostCache::new();
            let start = std::time::Instant::now();
            let plan = Search::new(g, cfg)
                .options(opts)
                .pool(jobs)
                .cache(&cache)
                .run()
                .expect("zoo models search");
            std::hint::black_box(plan);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Searches every named model with fusion off and on, executes both
/// plans, and probes fused-plan determinism at the given pool widths.
/// `wall_clock_model` is additionally searched `wall_clock_samples` times
/// per mode for the Welch comparison.
///
/// # Panics
///
/// Panics on an unknown model name.
pub fn sweep(
    model_names: &[&str],
    widths: &[usize],
    jobs: usize,
    wall_clock_model: &str,
    wall_clock_samples: usize,
) -> FusionReport {
    let cfg = EngineConfig::pimflow();
    let fused_opts = SearchOptions::default();
    let unfused_opts = SearchOptions {
        allow_fusion: false,
        ..Default::default()
    };
    let no_overlap_opts = SearchOptions {
        overlap_epochs: false,
        ..Default::default()
    };
    let rows: Vec<ModelFusionRow> = model_names
        .iter()
        .map(|name| {
            let g = models::by_name(name).expect("known model");
            // One cache across both modes: fusion-role-tagged keys keep
            // fused and standalone entries apart, and cache hits cannot
            // change plans (pure costs), so sharing is safe and the
            // unfused entries are reused by the joint search.
            let cache = CostCache::new();
            let search = |opts: SearchOptions, pool: usize| {
                Search::new(&g, &cfg)
                    .options(opts)
                    .pool(pool)
                    .cache(&cache)
                    .run()
                    .expect("zoo models search")
            };
            let fused_plans: Vec<String> = widths
                .iter()
                .map(|&w| pimflow_json::to_string(&search(fused_opts, w)))
                .collect();
            let width_identical = fused_plans.windows(2).all(|p| p[0] == p[1]);
            let unfused_plan = search(unfused_opts, jobs);
            let fused_plan = search(fused_opts, jobs);
            // Back-to-back-only pricing shares the same cache safely: its
            // fused chain entries key under a salted group fingerprint.
            let no_overlap_plan = search(no_overlap_opts, jobs);
            let (mut groups, mut layers) = (0, 0);
            for (_, d) in &fused_plan.decisions {
                if let Decision::Fused { node_names, .. } = d {
                    groups += 1;
                    layers += node_names.len();
                }
            }
            let (unfused_traffic, _) = executed_stats(&g, &unfused_plan, &cfg);
            let (fused_traffic, overlap_hidden_us) = executed_stats(&g, &fused_plan, &cfg);
            let reduction = unfused_traffic.saturating_sub(fused_traffic);
            ModelFusionRow {
                model: g.name.clone(),
                nodes: g.node_ids().count(),
                fused_groups: groups,
                fused_layers: layers,
                unfused_predicted_us: unfused_plan.predicted_us,
                fused_predicted_us: fused_plan.predicted_us,
                no_overlap_predicted_us: no_overlap_plan.predicted_us,
                overlap_hidden_us,
                overlap_never_worse: fused_plan.predicted_us <= no_overlap_plan.predicted_us,
                predicted_delta_us: unfused_plan.predicted_us - fused_plan.predicted_us,
                unfused_traffic_bytes: unfused_traffic,
                fused_traffic_bytes: fused_traffic,
                traffic_reduction_bytes: reduction,
                traffic_reduction_pct: if unfused_traffic > 0 {
                    reduction as f64 / unfused_traffic as f64 * 100.0
                } else {
                    0.0
                },
                fused_never_worse: fused_plan.predicted_us <= unfused_plan.predicted_us,
                plans_bit_identical: width_identical
                    && pimflow_json::to_string(&fused_plan) == fused_plans[0],
            }
        })
        .collect();
    let wc = models::by_name(wall_clock_model).expect("known model");
    let baseline = search_samples(&wc, &cfg, unfused_opts, jobs, wall_clock_samples);
    let candidate = search_samples(&wc, &cfg, fused_opts, jobs, wall_clock_samples);
    let search_wall_clock = stats::compare_lower_is_better(&baseline, &candidate);
    let search_overhead_significant = search_wall_clock.p_value < stats::ALPHA
        && search_wall_clock.candidate_mean > search_wall_clock.baseline_mean;
    FusionReport {
        jobs,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        probed_widths: widths.to_vec(),
        fused_never_worse: rows.iter().all(|r| r.fused_never_worse),
        overlap_never_worse: rows.iter().all(|r| r.overlap_never_worse),
        resnet_residual_candidates: model_names
            .iter()
            .map(|name| models::by_name(name).expect("known model"))
            .filter(|g| g.name.starts_with("resnet"))
            .map(|g| residual_candidates(&g))
            .sum(),
        models_with_traffic_reduction: rows
            .iter()
            .filter(|r| r.traffic_reduction_bytes > 0)
            .count(),
        total_traffic_reduction_bytes: rows.iter().map(|r| r.traffic_reduction_bytes).sum(),
        wall_clock_model: wc.name.clone(),
        search_wall_clock,
        search_overhead_significant,
        models: rows,
    }
}

/// Models of the full sweep: the zoo's small CNN, the five evaluated
/// CNNs of the paper, and the two transformer stand-ins, whose FFN
/// blocks (Dense → GeLU → Dense) are the canonical fusion-group shape.
pub const DEFAULT_MODELS: [&str; 8] = [
    "toy",
    "bert-3",
    "bert-64",
    "efficientnet-v1-b0",
    "mnasnet-1.0",
    "mobilenet-v2",
    "resnet-50",
    "vgg-16",
];

/// Runs the sweep at the `PIMFLOW_JOBS` pool width and writes
/// `BENCH_fusion.json` under `dir`. `smoke` restricts the sweep to the
/// small models and two pool widths (CI-sized); the committed artifact
/// uses the full set at widths 1/2/8. Returns the report and the path
/// written.
///
/// # Errors
///
/// Returns a rendered error when the write fails, the superset invariant
/// breaks anywhere (a fused plan predicted worse than its unfused
/// sibling), a fused plan was not bit-identical across pool widths, no
/// model reduced its host↔PIM traffic, or a swept resnet-family model
/// has no residual fusion candidate.
pub fn write_bench_artifact(
    dir: &std::path::Path,
    smoke: bool,
) -> Result<(FusionReport, std::path::PathBuf), String> {
    let jobs = WorkerPool::from_env().jobs();
    let report = if smoke {
        // resnet-50 rides along in smoke so CI pins the residual-aware
        // walker (resnet_residual_candidates > 0), not just the linear
        // chains.
        sweep(
            &["toy", "mobilenet-v2", "resnet-50"],
            &[1, 2],
            jobs,
            "toy",
            5,
        )
    } else {
        sweep(&DEFAULT_MODELS, &[1, 2, 8], jobs, "mobilenet-v2", 10)
    };
    if let Some(bad) = report.models.iter().find(|m| !m.fused_never_worse) {
        return Err(format!(
            "fused search predicted worse than unfused on {} ({} vs {} µs)",
            bad.model, bad.fused_predicted_us, bad.unfused_predicted_us
        ));
    }
    if let Some(bad) = report.models.iter().find(|m| !m.overlap_never_worse) {
        return Err(format!(
            "overlap-enabled search predicted worse than back-to-back on {} ({} vs {} µs)",
            bad.model, bad.fused_predicted_us, bad.no_overlap_predicted_us
        ));
    }
    if let Some(bad) = report.models.iter().find(|m| !m.plans_bit_identical) {
        return Err(format!(
            "fused plan diverged across pool widths on {}",
            bad.model
        ));
    }
    if report.models_with_traffic_reduction == 0 {
        return Err("no model reduced host↔PIM traffic under the fused search".into());
    }
    let has_resnet = report.models.iter().any(|m| m.model.starts_with("resnet"));
    if has_resnet && report.resnet_residual_candidates == 0 {
        return Err("no resnet residual candidate — the residual-aware walker regressed".into());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("BENCH_fusion.json");
    std::fs::write(&path, pimflow_json::to_string_pretty(&report))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok((report, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_sweep_holds_the_invariants() {
        let report = sweep(&["toy"], &[1, 2], 2, "toy", 3);
        assert_eq!(report.models.len(), 1);
        let m = &report.models[0];
        assert!(m.fused_never_worse, "superset invariant broke on toy");
        assert!(
            m.overlap_never_worse,
            "overlap pricing must stay min-composed: {} vs {} µs back-to-back",
            m.fused_predicted_us, m.no_overlap_predicted_us
        );
        assert!(m.plans_bit_identical, "fused plan diverged across widths");
        assert!(m.unfused_predicted_us > 0.0 && m.fused_predicted_us > 0.0);
        // The toy model's leading conv→relu→conv run fuses, keeping the
        // intermediate activation near the banks.
        assert!(m.fused_groups >= 1, "toy's leading convs must fuse");
        assert!(
            m.traffic_reduction_bytes > 0,
            "fusing must remove bus crossings: {} vs {} bytes",
            m.unfused_traffic_bytes,
            m.fused_traffic_bytes
        );
        let json = pimflow_json::to_string(&report);
        let back: FusionReport = pimflow_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
