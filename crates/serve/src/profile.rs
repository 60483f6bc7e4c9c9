//! Batch compilation: turning a (model, batch size, engine config) triple
//! into a priced [`BatchProfile`].
//!
//! This is the bridge between the serving layer and the compiler: one call
//! batches the model ([`pimflow::batch::with_batch`]), runs the
//! execution-mode search when the policy has one, and prices the result on
//! the execution engine. The event loop ([`crate::sim`]) compiles and
//! repairs every node's profiles through these two entry points.

use crate::serve::ServeError;
use pimflow::batch::with_batch;
use pimflow::costcache::CostCache;
use pimflow::engine::{execute, ChannelMask, EngineConfig, ExecutionReport, FusedGroupStat};
use pimflow::search::{apply_plan, ExecutionPlan, Search, SearchOptions};
use std::fmt;

/// Compiled cost of one (model, policy, batch, mask) configuration — the
/// value the plan cache holds. Everything downstream of the search is
/// deterministic, so the batch latency is priced once and replayed. The
/// plan itself is kept so channel failures can repair it instead of
/// re-running the search.
#[derive(Debug, Clone)]
pub struct BatchProfile {
    /// End-to-end batch latency, microseconds.
    pub latency_us: f64,
    /// Simulated energy of one batch execution, microjoules.
    pub energy_uj: f64,
    /// Per-PIM-channel MAC-pipeline busy time, microseconds.
    pub pim_channel_busy_us: Vec<f64>,
    /// Host↔PIM traffic of one batch execution, bytes: PIM→host drains
    /// (`transfer_bytes`) plus host→PIM GWRITE payload fetches
    /// (`host_to_pim_bytes`). Fusion keeps inter-layer activations near
    /// the banks, so fused plans shrink this without touching latency
    /// accounting elsewhere.
    pub host_pim_traffic_bytes: u64,
    /// Fused groups the executed graph carried (group id, member count,
    /// overlap-hidden µs per batch), straight from
    /// [`ExecutionReport::fused_groups`] — the serving-level view of
    /// *which* groups the search flipped.
    pub fused_groups: Vec<FusedGroupStat>,
    /// The searched execution plan (`None` for policies without a search),
    /// kept so faults can repair it instead of re-searching.
    pub plan: Option<ExecutionPlan>,
}

impl BatchProfile {
    /// Builds a profile from an engine report plus the plan that produced
    /// it.
    pub fn from_report(report: ExecutionReport, plan: Option<ExecutionPlan>) -> Self {
        BatchProfile {
            latency_us: report.total_us,
            energy_uj: report.energy_uj,
            pim_channel_busy_us: report.pim_channel_busy_us,
            host_pim_traffic_bytes: report.transfer_bytes + report.host_to_pim_bytes,
            fused_groups: report.fused_groups,
            plan,
        }
    }

    /// A zero-cost placeholder, used only to satisfy cache insertion on
    /// compile-error paths that immediately propagate the error.
    pub fn empty() -> Self {
        BatchProfile {
            latency_us: 0.0,
            energy_uj: 0.0,
            pim_channel_busy_us: Vec::new(),
            host_pim_traffic_bytes: 0,
            fused_groups: Vec::new(),
            plan: None,
        }
    }

    /// Overlap-hidden time of one batch execution, µs, summed over the
    /// fused groups.
    pub fn overlap_hidden_us(&self) -> f64 {
        self.fused_groups.iter().map(|g| g.overlap_hidden_us).sum()
    }

    /// Whether this batch keeps failed channel `ch` busy — i.e. whether a
    /// failure of `ch` mid-flight forces a retry.
    pub fn uses_channel(&self, ch: usize) -> bool {
        self.pim_channel_busy_us.get(ch).copied().unwrap_or(0.0) > 0.0
    }

    /// Whether the batch runs entirely on the GPU (the fallback the
    /// degradation metrics track).
    pub fn gpu_only(&self) -> bool {
        self.pim_channel_busy_us.iter().all(|&b| b == 0.0)
    }
}

pub(crate) fn compile_err(e: impl fmt::Display) -> ServeError {
    ServeError::Compile(e.to_string())
}

/// Compiles one batch size under `engine_cfg` (whose channel mask is
/// honored by the search): batch the model, search an execution plan (when
/// the policy has one), and price the batch on the execution engine. The
/// search reads and feeds `cost_cache`, so PIM timings profiled for one
/// batch size are reused by every other size that folds to the same
/// [`pimflow::costcache::WorkloadKey`]. Pure in its inputs (the cache only
/// memoizes pure cost-model queries), so distinct batch sizes compile in
/// parallel — even against one shared live cache.
pub fn compile_batch(
    base: &pimflow_ir::Graph,
    size: usize,
    engine_cfg: &EngineConfig,
    search_opts: &Option<SearchOptions>,
    cost_cache: &CostCache,
) -> Result<BatchProfile, ServeError> {
    let batched = with_batch(base, size).map_err(|e| ServeError::Batch(e.to_string()))?;
    match search_opts {
        None => {
            let report = execute(&batched, engine_cfg).map_err(compile_err)?;
            Ok(BatchProfile::from_report(report, None))
        }
        Some(opts) => {
            let plan = Search::new(&batched, engine_cfg)
                .options(*opts)
                .cache(cost_cache)
                .run()
                .map_err(compile_err)?;
            let transformed = apply_plan(&batched, &plan).map_err(compile_err)?;
            let report = execute(&transformed, engine_cfg).map_err(compile_err)?;
            Ok(BatchProfile::from_report(report, Some(plan)))
        }
    }
}

/// Repairs one cached profile from `old_mask` onto `new_mask`: re-prices
/// the kept plan with [`ExecutionPlan::repair`](pimflow::search::ExecutionPlan::repair)
/// (no grid search) and re-executes the transformed graph under the
/// degraded config.
pub fn repair_batch(
    base: &pimflow_ir::Graph,
    size: usize,
    engine_cfg: &EngineConfig,
    source: &BatchProfile,
    old_mask: ChannelMask,
    new_mask: ChannelMask,
    cost_cache: &CostCache,
) -> Result<BatchProfile, ServeError> {
    let batched = with_batch(base, size).map_err(|e| ServeError::Batch(e.to_string()))?;
    let masked_cfg = engine_cfg.with_mask(new_mask);
    match &source.plan {
        None => {
            let report = execute(&batched, &masked_cfg).map_err(compile_err)?;
            Ok(BatchProfile::from_report(report, None))
        }
        Some(plan) => {
            let source_cfg = engine_cfg.with_mask(old_mask);
            let repaired = plan
                .repair(&batched, &source_cfg, new_mask, Some(cost_cache))
                .map_err(compile_err)?;
            let transformed = apply_plan(&batched, &repaired).map_err(compile_err)?;
            let report = execute(&transformed, &masked_cfg).map_err(compile_err)?;
            Ok(BatchProfile::from_report(report, Some(repaired)))
        }
    }
}
