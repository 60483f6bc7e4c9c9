//! Auto-tuning refinement of the execution plan.
//!
//! The paper's stated future work: "we plan to apply an auto-tuning
//! approach to our execution mode and task size search for more optimized
//! code generation" (§9). This module implements that step: starting from
//! the Algorithm 1 plan, it perturbs one decision at a time (MD-DP ratio
//! nudges, offload/GPU flips), *measures* each candidate end-to-end on the
//! execution engine — not the per-layer cost model — and keeps improvements
//! until a local optimum or the round budget is reached.
//!
//! Because candidates are scored by full-timeline measurement, the tuner can
//! exploit cross-layer effects the per-node DP cannot see (stream overlap
//! between adjacent layers, transfer amortization).

use crate::engine::{execute, EngineConfig};
use crate::search::{Decision, ExecutionPlan};
use pimflow_ir::Graph;

/// Result of one auto-tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The refined plan.
    pub plan: ExecutionPlan,
    /// Measured end-to-end time of the input plan, microseconds.
    pub initial_us: f64,
    /// Measured end-to-end time of the refined plan, microseconds.
    pub tuned_us: f64,
    /// Candidate plans evaluated.
    pub evaluations: usize,
}

impl TuneResult {
    /// Relative improvement over the input plan (0.01 = 1% faster).
    pub fn gain(&self) -> f64 {
        self.initial_us / self.tuned_us - 1.0
    }
}

/// Measures a candidate plan end-to-end; returns `None` if the plan cannot
/// be applied (a perturbed ratio degenerated on a small layer).
fn measure(graph: &Graph, cfg: &EngineConfig, plan: &ExecutionPlan) -> Option<f64> {
    let transformed = crate::search::apply_plan(graph, plan).ok()?;
    Some(execute(&transformed, cfg).ok()?.total_us)
}

/// Neighbour plans of `plan`: each Split decision nudged by ±`step` and
/// flipped to the offload endpoints.
fn neighbours(plan: &ExecutionPlan, index: usize, step: u32) -> Vec<ExecutionPlan> {
    let (_, decision) = &plan.decisions[index];
    let Decision::Split { gpu_percent } = decision else {
        return Vec::new();
    };
    let mut ratios = Vec::new();
    for candidate in [gpu_percent.saturating_sub(step), gpu_percent + step, 0, 100] {
        let candidate = candidate.min(100);
        if candidate != *gpu_percent && !ratios.contains(&candidate) {
            ratios.push(candidate);
        }
    }
    ratios
        .into_iter()
        .map(|r| {
            let mut p = plan.clone();
            if r == 100 {
                // Full GPU: keep the explicit entry so the candidate still
                // counts in `ratio_distribution`.
                p.decisions[index].1 = Decision::Gpu;
            } else {
                p.decisions[index].1 = Decision::Split { gpu_percent: r };
            }
            p
        })
        .collect()
}

/// Refines `plan` by measured local search.
///
/// `rounds` bounds full sweeps over the decisions; `step` is the ratio
/// nudge in percent (the paper's footnote suggests 2%). The returned plan is
/// never worse than the input plan under engine measurement.
///
/// # Errors
///
/// Returns [`crate::Error::NotApplicable`] when the input plan does not
/// apply to `graph` (plans are only valid for the graph they were computed
/// on).
pub fn autotune(
    graph: &Graph,
    cfg: &EngineConfig,
    plan: &ExecutionPlan,
    rounds: usize,
    step: u32,
) -> crate::Result<TuneResult> {
    let initial_us = measure(graph, cfg, plan).ok_or_else(|| {
        crate::Error::NotApplicable("input plan does not apply to this graph".into())
    })?;
    let mut best_plan = plan.clone();
    let mut best_us = initial_us;
    let mut evaluations = 1;

    for _ in 0..rounds {
        let mut improved = false;
        let mut i = 0;
        while i < best_plan.decisions.len() {
            for candidate in neighbours(&best_plan, i, step.max(1)) {
                if let Some(t) = measure(graph, cfg, &candidate) {
                    evaluations += 1;
                    if t < best_us {
                        best_us = t;
                        best_plan = candidate;
                        improved = true;
                        break; // re-enumerate neighbours of the new plan
                    }
                }
            }
            i += 1;
        }
        if !improved {
            break;
        }
    }

    best_plan.predicted_us = best_us;
    Ok(TuneResult {
        plan: best_plan,
        initial_us,
        tuned_us: best_us,
        evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::Search;
    use pimflow_ir::models;

    #[test]
    fn autotune_never_regresses() {
        let g = models::toy();
        let cfg = EngineConfig::pimflow();
        let plan = Search::new(&g, &cfg).run().unwrap();
        let result = autotune(&g, &cfg, &plan, 3, 10).unwrap();
        assert!(result.tuned_us <= result.initial_us + 1e-9);
        assert!(result.evaluations >= 1);
        // The refined plan still applies and still beats the baseline.
        let t = crate::search::apply_plan(&g, &result.plan).unwrap();
        let tuned = execute(&t, &cfg).unwrap();
        let base = execute(&g, &EngineConfig::baseline_gpu()).unwrap();
        assert!(tuned.total_us < base.total_us);
    }

    #[test]
    fn autotune_can_improve_a_deliberately_bad_plan() {
        let g = models::toy();
        let cfg = EngineConfig::pimflow();
        let mut plan = Search::new(&g, &cfg).run().unwrap();
        // Sabotage: force a lopsided split on the first split decision, or
        // inject one if the search chose endpoints only.
        let mut sabotaged = false;
        for (_, d) in plan.decisions.iter_mut() {
            if let Decision::Split { gpu_percent, .. } = d {
                *gpu_percent = 90;
                sabotaged = true;
                break;
            }
        }
        if !sabotaged {
            // Turn a full offload into a bad split.
            if let Some((_, d)) = plan.decisions.iter_mut().find(|(n, d)| {
                matches!(d, Decision::Split { gpu_percent: 0, .. }) && n.contains("conv")
            }) {
                *d = Decision::Split { gpu_percent: 90 };
                sabotaged = true;
            }
        }
        assert!(sabotaged, "toy plan should contain a tunable decision");
        let result = autotune(&g, &cfg, &plan, 4, 10).unwrap();
        assert!(
            result.gain() > 0.0,
            "tuner must recover from a bad ratio (gain {})",
            result.gain()
        );
    }

    #[test]
    fn autotune_is_deterministic() {
        let g = models::toy();
        let cfg = EngineConfig::pimflow();
        let plan = Search::new(&g, &cfg).run().unwrap();
        let a = autotune(&g, &cfg, &plan, 2, 10).unwrap();
        let b = autotune(&g, &cfg, &plan, 2, 10).unwrap();
        assert_eq!(a.tuned_us, b.tuned_us);
        assert_eq!(a.plan.decisions, b.plan.decisions);
    }
}
