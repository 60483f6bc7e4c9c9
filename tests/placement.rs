//! Cross-crate integration: node names are labels, never placement.
//!
//! Placement is the typed `Node::placement` field the passes write. A
//! model whose own node names look like placement markers (`pim::x`,
//! `pim::fuse.0.h::x`), whether built in code or loaded through
//! `Graph::from_json`, must run exactly like the same model under plain
//! names: all on the GPU without a plan, and transformed normally by a
//! plan that offloads or fuses the oddly named node.

use pimflow::engine::{execute, EngineConfig, ExecutionReport};
use pimflow::placement::Placement;
use pimflow::search::{apply_plan, Decision, ExecutionPlan};
use pimflow_ir::{models, Graph};

/// Names that spelled a placement under the artifact's name-prefix
/// convention: a plain PIM offload and a fusion-group head.
const MARKER_NAMES: [&str; 2] = ["pim::conv_3", "pim::fuse.0.h::x"];

/// Everything a report says except node names: totals, traffic, fusion
/// groups, and the per-node `(device, start bits, finish bits, fused)`
/// timeline.
type Observed = (u64, u64, u64, u64, usize, Vec<(Placement, u64, u64, bool)>);

fn observe(r: &ExecutionReport) -> Observed {
    let timeline = r
        .timings
        .iter()
        .map(|t| {
            (
                t.device,
                t.start_us.to_bits(),
                t.finish_us.to_bits(),
                t.fused,
            )
        })
        .collect();
    (
        r.total_us.to_bits(),
        r.energy_uj.to_bits(),
        r.transfer_bytes,
        r.host_to_pim_bytes,
        r.fused_groups.len(),
        timeline,
    )
}

/// Toy with `conv_3` renamed to `name`, built in code and loaded back
/// from its JSON.
fn renamed_toy(name: &str) -> [Graph; 2] {
    let mut g = models::toy();
    let id = g.find_node("conv_3").expect("toy has conv_3");
    g.node_mut(id).name = name.to_string();
    let loaded = Graph::from_json(&g.to_json().expect("graph serializes")).expect("JSON loads");
    [g, loaded]
}

/// A one-decision plan for toy, naming `conv_3` as `name`.
fn plan(name: &str, decision: Decision) -> ExecutionPlan {
    let decision = match decision {
        Decision::Fused { node_names } => Decision::Fused {
            node_names: node_names
                .into_iter()
                .map(|n| if n == "conv_3" { name.to_string() } else { n })
                .collect(),
        },
        other => other,
    };
    ExecutionPlan {
        model: "toy".into(),
        decisions: vec![(name.to_string(), decision)],
        profiles: Vec::new(),
        predicted_us: 1.0,
        conv_layer_us: 0.0,
    }
}

#[test]
fn marker_like_names_run_on_the_gpu_without_a_plan() {
    let cfg = EngineConfig::pimflow();
    let want = observe(&execute(&models::toy(), &cfg).expect("toy executes"));
    assert!(want.5.iter().all(|t| t.0 == Placement::Gpu));
    for name in MARKER_NAMES {
        for g in renamed_toy(name) {
            let got = observe(&execute(&g, &cfg).expect("renamed toy executes"));
            assert_eq!(got, want, "`{name}` must not change placement");
        }
    }
}

#[test]
fn plans_offloading_or_fusing_a_marker_named_node_apply() {
    let cfg = EngineConfig::pimflow();
    let fused = Decision::Fused {
        node_names: vec!["conv_1".into(), "relu_2".into(), "conv_3".into()],
    };
    let decisions = [
        Decision::Split { gpu_percent: 0 },
        Decision::Split { gpu_percent: 50 },
        fused,
    ];
    for decision in decisions {
        let original = apply_plan(&models::toy(), &plan("conv_3", decision.clone()))
            .expect("plan applies to toy");
        let want = observe(&execute(&original, &cfg).expect("plan executes"));
        assert!(want.5.iter().any(|t| t.0 == Placement::Pim), "{decision:?}");
        for name in MARKER_NAMES {
            for g in renamed_toy(name) {
                let transformed = apply_plan(&g, &plan(name, decision.clone()))
                    .unwrap_or_else(|e| panic!("{decision:?} on `{name}`: {e}"));
                let got = observe(&execute(&transformed, &cfg).expect("plan executes"));
                assert_eq!(got, want, "{decision:?} on `{name}`");
            }
        }
    }
    // A plan that fuses the group at a GPU/PIM row split of the whole
    // group (a removed lowering) is rejected when it is read, whatever
    // the node is called: it never runs as a plain full offload.
    for name in ["conv_3"].into_iter().chain(MARKER_NAMES) {
        let json = format!(
            r#"{{"model":"toy","decisions":[["{name}",{{"Fused":{{"node_names":["conv_1","relu_2","{name}"],"gpu_percent":40}}}}]],"profiles":[],"predicted_us":1,"conv_layer_us":0}}"#
        );
        let err = pimflow_json::from_str::<ExecutionPlan>(&json)
            .expect_err("a fused decision with a row split must not decode");
        assert!(err.to_string().contains("gpu_percent"), "`{name}`: {err}");
    }
}
