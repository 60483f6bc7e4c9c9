//! The `Result`-based core API contract: malformed-but-constructible
//! inputs surface as `Err` from every public `pimflow` entry point —
//! never as a panic. These are exactly the inputs a serving runtime can
//! meet at runtime (stale plans, foreign plans, out-of-range ratios), so
//! the process must survive them.

use pimflow::engine::{execute, ChannelMask, EngineConfig};
use pimflow::search::{apply_plan, Decision, ExecutionPlan, Search};
use pimflow::Error;
use pimflow_ir::models;

/// A plan whose decisions reference nodes the target graph doesn't have.
fn foreign_plan() -> ExecutionPlan {
    ExecutionPlan {
        model: "not-this-model".into(),
        decisions: vec![(
            "no_such_node".into(),
            Decision::Split {
                gpu_percent: 0,
                backend: Default::default(),
            },
        )],
        profiles: Vec::new(),
        predicted_us: 1.0,
        conv_layer_us: 1.0,
    }
}

#[test]
fn foreign_plans_are_rejected_not_panicked_on() {
    let g = models::toy();
    let cfg = EngineConfig::pimflow();
    let err = apply_plan(&g, &foreign_plan()).unwrap_err();
    assert!(
        matches!(err, Error::NotApplicable(_)),
        "expected NotApplicable, got {err}"
    );
    let err = foreign_plan()
        .repair(&g, &cfg, ChannelMask::all().without(0), None)
        .unwrap_err();
    assert!(
        matches!(err, Error::NotApplicable(_)),
        "expected NotApplicable, got {err}"
    );
}

#[test]
fn out_of_range_split_ratios_are_rejected() {
    let g = models::toy();
    let conv = g
        .node_ids()
        .find(|&id| g.is_pim_candidate(id))
        .map(|id| g.node(id).name.clone())
        .expect("toy has a PIM candidate");
    let plan = ExecutionPlan {
        decisions: vec![(
            conv,
            Decision::Split {
                gpu_percent: 250,
                backend: Default::default(),
            },
        )],
        ..foreign_plan()
    };
    let err = apply_plan(&g, &plan).unwrap_err();
    assert!(
        matches!(err, Error::BadRatio(250)),
        "expected BadRatio(250), got {err}"
    );
}

#[test]
fn valid_inputs_still_flow_through_the_result_api() {
    // The `?`-friendly happy path: no unwraps anywhere in the chain.
    fn flow() -> pimflow::Result<f64> {
        let g = models::toy();
        let cfg = EngineConfig::pimflow();
        let plan = Search::new(&g, &cfg).run()?;
        let transformed = apply_plan(&g, &plan)?;
        Ok(execute(&transformed, &cfg)?.total_us)
    }
    let total = flow().expect("valid inputs never error");
    assert!(total > 0.0);
}
