//! The evaluated PIM offloading mechanisms (§5).
//!
//! * **Baseline** — GPU-only execution with a 32-channel memory.
//! * **Newton+** — baseline Newton hardware with CONV/FC offloading support
//!   and multi-channel command scheduling (full offload or full GPU, no
//!   mixed-parallel execution).
//! * **Newton++** — Newton+ plus the PIM command optimizations (multiple
//!   global buffers, strided GWRITE, GWRITE latency hiding).
//! * **PIMFlow-md** — Newton++ with MD-DP mixed-parallel execution only.
//! * **PIMFlow-pl** — Newton++ with pipelined execution only.
//! * **PIMFlow** — full optimizations and execution-model support.

use crate::engine::{execute, EngineConfig, ExecutionReport};
use crate::search::{apply_plan, ExecutionPlan, Search, SearchOptions};
use pimflow_ir::Graph;
use pimflow_json::{json_struct, json_unit_enum};

/// One of the six offloading mechanisms compared throughout §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// GPU-only, 32 memory channels.
    Baseline,
    /// Original Newton command set, offload-or-not decisions.
    NewtonPlus,
    /// Newton+ with PIM-command optimizations.
    NewtonPlusPlus,
    /// Newton++ with MD-DP execution.
    PimflowMd,
    /// Newton++ with pipelined execution.
    PimflowPl,
    /// Everything combined.
    Pimflow,
}

json_unit_enum!(Policy {
    Baseline,
    NewtonPlus,
    NewtonPlusPlus,
    PimflowMd,
    PimflowPl,
    Pimflow
});

impl Policy {
    /// All mechanisms in paper order.
    pub fn all() -> [Policy; 6] {
        [
            Policy::Baseline,
            Policy::NewtonPlus,
            Policy::NewtonPlusPlus,
            Policy::PimflowMd,
            Policy::PimflowPl,
            Policy::Pimflow,
        ]
    }

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Baseline => "Baseline",
            Policy::NewtonPlus => "Newton+",
            Policy::NewtonPlusPlus => "Newton++",
            Policy::PimflowMd => "PIMFlow-md",
            Policy::PimflowPl => "PIMFlow-pl",
            Policy::Pimflow => "PIMFlow",
        }
    }

    /// Artifact CLI `--policy` spelling.
    pub fn from_cli(name: &str) -> Option<Policy> {
        match name.to_ascii_lowercase().as_str() {
            "baseline" | "gpu" => Some(Policy::Baseline),
            "newton+" | "newtonplus" => Some(Policy::NewtonPlus),
            "newton++" | "newtonplusplus" => Some(Policy::NewtonPlusPlus),
            "mddp" | "pimflow-md" => Some(Policy::PimflowMd),
            "pipeline" | "pimflow-pl" => Some(Policy::PimflowPl),
            "pimflow" => Some(Policy::Pimflow),
            _ => None,
        }
    }

    /// Hardware/engine configuration of this mechanism.
    pub fn engine_config(self) -> EngineConfig {
        match self {
            Policy::Baseline => EngineConfig::baseline_gpu(),
            Policy::NewtonPlus => EngineConfig::newton_plus(),
            _ => EngineConfig::pimflow(),
        }
    }

    /// Execution-mode search space of this mechanism (`None` = no search,
    /// everything stays on the GPU).
    pub fn search_options(self) -> Option<SearchOptions> {
        match self {
            Policy::Baseline => None,
            Policy::NewtonPlus | Policy::NewtonPlusPlus => Some(SearchOptions {
                offload_only: true,
                allow_pipeline: false,
                ..SearchOptions::default()
            }),
            Policy::PimflowMd => Some(SearchOptions {
                allow_pipeline: false,
                ..SearchOptions::default()
            }),
            Policy::PimflowPl => Some(SearchOptions {
                offload_only: true,
                allow_pipeline: true,
                ..SearchOptions::default()
            }),
            Policy::Pimflow => Some(SearchOptions::default()),
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of evaluating one model under one mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEvaluation {
    /// Mechanism evaluated.
    pub policy: Policy,
    /// Model name.
    pub model: String,
    /// The plan (empty for the baseline).
    pub plan: Option<ExecutionPlan>,
    /// End-to-end report from the execution engine.
    pub report: ExecutionReport,
    /// Sum of per-decision costs of PIM-candidate **CONV** layers (the
    /// Fig. 9 top metric; FC layers excluded).
    pub conv_layer_us: f64,
}

json_struct!(PolicyEvaluation {
    policy,
    model,
    plan,
    report,
    conv_layer_us
});

/// Runs the full compile-and-simulate flow for `graph` under `policy`:
/// search (per the mechanism's mode space), transform, execute.
///
/// # Errors
///
/// Propagates any [`crate::Error`] from the search, the plan application,
/// or the engine (e.g. a structurally invalid graph).
pub fn evaluate(graph: &Graph, policy: Policy) -> crate::Result<PolicyEvaluation> {
    let cfg = policy.engine_config();
    match policy.search_options() {
        None => {
            let report = execute(graph, &cfg)?;
            let conv_layer_us = conv_time_from_report(graph, &report);
            Ok(PolicyEvaluation {
                policy,
                model: graph.name.clone(),
                plan: None,
                report,
                conv_layer_us,
            })
        }
        Some(opts) => {
            let plan = Search::new(graph, &cfg).options(opts).run()?;
            let transformed = apply_plan(graph, &plan)?;
            let report = execute(&transformed, &cfg)?;
            let conv_layer_us = plan.conv_layer_us;
            Ok(PolicyEvaluation {
                policy,
                model: graph.name.clone(),
                plan: Some(plan),
                report,
                conv_layer_us,
            })
        }
    }
}

/// Baseline conv-layer time: the engine durations of PIM-candidate conv
/// nodes in the untransformed timeline.
fn conv_time_from_report(graph: &Graph, report: &ExecutionReport) -> f64 {
    graph
        .node_ids()
        .filter(|&id| {
            graph.is_pim_candidate(id) && matches!(graph.node(id).op, pimflow_ir::Op::Conv2d(_))
        })
        .filter_map(|id| report.timing(&graph.node(id).name))
        .map(|t| t.finish_us - t.start_us)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimflow_ir::models;

    #[test]
    fn all_policies_evaluate_toy() {
        let g = models::toy();
        for p in Policy::all() {
            let e = evaluate(&g, p).unwrap();
            assert!(e.report.total_us > 0.0, "{p:?}");
            assert!(e.conv_layer_us >= 0.0);
        }
    }

    #[test]
    fn cli_names_roundtrip() {
        for (s, p) in [
            ("Newton+", Policy::NewtonPlus),
            ("Newton++", Policy::NewtonPlusPlus),
            ("MDDP", Policy::PimflowMd),
            ("Pipeline", Policy::PimflowPl),
            ("PIMFlow", Policy::Pimflow),
        ] {
            assert_eq!(Policy::from_cli(s), Some(p));
        }
        assert_eq!(Policy::from_cli("what"), None);
    }

    #[test]
    fn pimflow_never_slower_than_newton_pp_on_toy() {
        let g = models::toy();
        let npp = evaluate(&g, Policy::NewtonPlusPlus).unwrap();
        let pf = evaluate(&g, Policy::Pimflow).unwrap();
        assert!(pf.report.total_us <= npp.report.total_us * 1.01);
    }
}
