//! Exhaustive executed-time oracle for the Algorithm 1 search.
//!
//! On graphs small enough to enumerate, the oracle applies and executes
//! every split/offload plan in the search's own space and keeps the
//! fastest executed time. The DP's plan is one of those plans, so the
//! oracle is never slower than it, exactly; how much faster it is measures
//! what the DP loses by pricing nodes one at a time along a topological
//! walk while the engine overlaps a GPU stream with a PIM stream. The gaps
//! on residual graphs are the fork-join gaps: one branch on PIM while the
//! other runs on the GPU, which the per-node DP cannot aim for.
//!
//! The space is the policy's [`SearchOptions`] with fusion and pipelining
//! off. There, PIMFlow-pl searches the same space as Newton++ and PIMFlow
//! the same as PIMFlow-md, so three policies cover every distinct space.

mod common;

use common::{random_chain_graph, random_residual_graph};
use pimflow::engine::{execute, EngineConfig};
use pimflow::policy::Policy;
use pimflow::search::{apply_plan, Decision, ExecutionPlan, Search, SearchOptions};
use pimflow_ir::{models, Graph};

/// The three distinct search spaces without fusion and pipelining.
const POLICIES: [Policy; 3] = [
    Policy::NewtonPlus,
    Policy::NewtonPlusPlus,
    Policy::PimflowMd,
];

/// Split spaces are enumerated on graphs with at most this many
/// candidates: 11 choices each, 11^4 = 14,641 plans.
const MAX_SPLIT_CANDIDATES: usize = 4;

/// Offload-only spaces are enumerated up to this many candidates: 2
/// choices each, 2^12 = 4,096 plans.
const MAX_OFFLOAD_CANDIDATES: usize = 12;

/// Seeds of the random families; 12 graphs each.
const CHAIN_SEED: u64 = 0x0AC1_0000;
const RESIDUAL_SEED: u64 = 0x0AC2_0000;
const SEEDS: u64 = 12;

/// The DP's plan on one graph next to the best enumerated plan.
struct Comparison {
    /// The DP plan's `predicted_us`.
    predicted_us: f64,
    /// The DP plan's executed time.
    executed_us: f64,
    /// The fastest executed time over every plan in the space.
    oracle_us: f64,
}

impl Comparison {
    /// How much slower the DP's plan executes than the best plan (0.01 =
    /// 1% slower).
    fn gap(&self) -> f64 {
        self.executed_us / self.oracle_us - 1.0
    }
}

fn executed_us(g: &Graph, cfg: &EngineConfig, plan: &ExecutionPlan) -> f64 {
    let transformed = apply_plan(g, plan).expect("enumerated plans apply");
    execute(&transformed, cfg).expect("plans execute").total_us
}

/// Runs the DP under `policy` without fusion and pipelining, then executes
/// every plan that gives each candidate `Gpu` or a split on the search's
/// ratio grid (`Split { 0 }` only, when the space is offload-only).
/// `None` when the graph has too many candidates to enumerate.
fn compare(g: &Graph, policy: Policy) -> Option<Comparison> {
    let cfg = policy.engine_config();
    let opts = SearchOptions {
        allow_fusion: false,
        allow_pipeline: false,
        ..policy.search_options().expect("a PIM policy")
    };
    let dp = Search::new(g, &cfg).options(opts).run().expect("search");
    let (step, limit) = if opts.offload_only {
        (100, MAX_OFFLOAD_CANDIDATES)
    } else {
        (opts.ratio_step, MAX_SPLIT_CANDIDATES)
    };
    if dp.profiles.len() > limit {
        return None;
    }
    let splits = (0..100).step_by(step as usize);
    let choices: Vec<Decision> = std::iter::once(Decision::Gpu)
        .chain(splits.map(|gpu_percent| Decision::Split { gpu_percent }))
        .collect();
    let mut plan = ExecutionPlan {
        decisions: dp
            .profiles
            .iter()
            .map(|p| (p.name.clone(), Decision::Gpu))
            .collect(),
        ..dp.clone()
    };
    let plans = choices.len().pow(plan.decisions.len() as u32);
    let oracle_us = (0..plans)
        .map(|mut index| {
            for (_, d) in &mut plan.decisions {
                *d = choices[index % choices.len()].clone();
                index /= choices.len();
            }
            executed_us(g, &cfg, &plan)
        })
        .fold(f64::INFINITY, f64::min);
    Some(Comparison {
        predicted_us: dp.predicted_us,
        executed_us: executed_us(g, &cfg, &dp),
        oracle_us,
    })
}

/// Compares every enumerable graph of a family under `policy`, prints the
/// family's totals and worst gap, and asserts the oracle is never slower
/// than the DP and the worst gap stays within `bound`. Returns how many
/// graphs were enumerated.
fn check_family(family: &str, graphs: &[Graph], policy: Policy, bound: f64) -> usize {
    let rows: Vec<(&str, Comparison)> = graphs
        .iter()
        .filter_map(|g| compare(g, policy).map(|c| (g.name.as_str(), c)))
        .collect();
    let mut worst = 0.0f64;
    for (name, c) in &rows {
        assert!(
            c.oracle_us <= c.executed_us,
            "{name} under {policy}: oracle {} us slower than the DP's {} us",
            c.oracle_us,
            c.executed_us
        );
        worst = worst.max(c.gap());
    }
    let sum = |f: fn(&Comparison) -> f64| rows.iter().map(|(_, c)| f(c)).sum::<f64>();
    println!(
        "{family:<9} {policy:<11} graphs {:>2}  predicted {:8.3} us  executed {:8.3} us  \
         oracle {:8.3} us  worst gap {:+.2}%",
        rows.len(),
        sum(|c| c.predicted_us),
        sum(|c| c.executed_us),
        sum(|c| c.oracle_us),
        worst * 100.0
    );
    assert!(
        worst <= bound,
        "{family} under {policy}: worst gap {:+.2}% exceeds the bound {:+.2}%",
        worst * 100.0,
        bound * 100.0
    );
    rows.len()
}

#[test]
fn dp_plans_are_the_executed_optimum_on_toy() {
    // toy: 16.160 us under Newton+, 15.341 us under Newton++ and
    // PIMFlow-md, and no enumerated plan beats the DP's.
    let toy = [models::toy()];
    for policy in POLICIES {
        assert_eq!(check_family("toy", &toy, policy, 0.0), 1, "{policy}");
    }
}

// Each bound is the worst gap measured when the oracle was added, rounded
// up at the 0.01% digit; a better search may only tighten it. The graph
// count pins how many seeds are small enough to enumerate, so a generator
// change cannot quietly make a row vacuous.

#[test]
fn dp_gaps_to_the_oracle_stay_bounded_on_random_chains() {
    let graphs: Vec<Graph> = (0..SEEDS)
        .map(|i| random_chain_graph(CHAIN_SEED + i))
        .collect();
    for (policy, graphs_enumerated, bound) in [
        // Measured +4.116%, on seed +0.
        (Policy::NewtonPlus, 12, 0.0412),
        // Measured +2.853%, on seed +8.
        (Policy::NewtonPlusPlus, 12, 0.0286),
        // Measured 0 on the three seeds with at most 4 candidates.
        (Policy::PimflowMd, 3, 0.0),
    ] {
        let n = check_family("chain", &graphs, policy, bound);
        assert_eq!(
            n, graphs_enumerated,
            "chain graphs enumerated under {policy}"
        );
    }
}

#[test]
fn dp_gaps_to_the_oracle_stay_bounded_on_random_residual_graphs() {
    // Every seed has more than 4 candidates, so the PIMFlow-md split space
    // is enumerated only on toy and the chains. The gaps here are fork-join
    // gaps: the best plans put one branch of a residual block on PIM while
    // the other runs on the GPU.
    let graphs: Vec<Graph> = (0..SEEDS)
        .map(|i| random_residual_graph(RESIDUAL_SEED + i))
        .collect();
    for (policy, bound) in [
        // Measured +27.070%, on seed +5; 9 of 12 seeds gap by 12-27%.
        (Policy::NewtonPlus, 0.2708),
        // Measured +27.142%, on seed +5; 8 of 12 seeds gap by 12-27%.
        (Policy::NewtonPlusPlus, 0.2715),
    ] {
        let n = check_family("residual", &graphs, policy, bound);
        assert_eq!(n, graphs.len(), "residual graphs enumerated under {policy}");
    }
}
