//! Cross-crate integration: fusion groups never change results, never
//! worsen the plan, and never break the plan wire format.
//!
//! Three contracts:
//! - **Semantics** — a plan with [`Decision::Fused`] groups applies to the
//!   graph and computes the same function as both the original graph and
//!   the fusion-disabled plan's graph, byte-for-byte across worker-pool
//!   widths, and the fused plan itself serializes identically at every
//!   width.
//! - **Superset** — the fused search space contains the unfused one, so
//!   the joint search's predicted time is never worse. The property is
//!   exact: no epsilon, enforced over a seeded family of random graphs.
//! - **Wire format** — legacy plan JSON (predating fusion) parses and
//!   re-serializes byte-identically, and fused plans emit no backend tag,
//!   so old readers and old artifacts both keep working. A decision
//!   carrying a removed placement — a fused group's interior GPU/PIM row
//!   split, or a crossbar backend tag — is rejected, never reinterpreted.

mod common;

use common::{random_chain_graph, random_residual_graph};
use pimflow::codegen::{execute_workload, price_fused_chain, PimWorkload};
use pimflow::costcache::CostCache;
use pimflow::engine::{execute, EngineConfig};
use pimflow::evaluation::verify_equivalence;
use pimflow::placement::{isa_role, FusedNodeRole};
use pimflow::search::{apply_plan, Decision, ExecutionPlan, Search, SearchOptions};
use pimflow_ir::{infer_shapes, models, ActivationKind, Graph, GraphBuilder, Op, Shape};
use pimflow_json::{FromJson, Json};
use pimflow_pimsim::ScheduleGranularity;

/// Worker widths every fusion case is probed at (the `PIMFLOW_JOBS`
/// settings CI exercises): sequential, narrow, wide.
const WIDTHS: [usize; 3] = [1, 2, 8];

fn fused_opts() -> SearchOptions {
    SearchOptions::default()
}

fn unfused_opts() -> SearchOptions {
    SearchOptions {
        allow_fusion: false,
        ..Default::default()
    }
}

/// Runs the search at one pool width over a shared cache.
fn search_at(g: &Graph, cfg: &EngineConfig, opts: SearchOptions, jobs: usize) -> ExecutionPlan {
    let cache = CostCache::new();
    Search::new(g, cfg)
        .options(opts)
        .pool(jobs)
        .cache(&cache)
        .run()
        .expect("search succeeds on valid graphs")
}

fn fused_group_count(plan: &ExecutionPlan) -> usize {
    plan.decisions
        .iter()
        .filter(|(_, d)| matches!(d, Decision::Fused { .. }))
        .count()
}

/// The semantics contract for one graph: the fused plan is bit-identical
/// at every pool width, and its transformed graph matches the original
/// and the unfused plan's graph numerically at every width.
fn assert_fusion_preserves_semantics(g: &Graph, cfg: &EngineConfig, tol: f32) -> ExecutionPlan {
    let plans: Vec<ExecutionPlan> = WIDTHS
        .iter()
        .map(|&w| search_at(g, cfg, fused_opts(), w))
        .collect();
    let reference = pimflow_json::to_string(&plans[0]);
    for (plan, w) in plans.iter().zip(WIDTHS).skip(1) {
        assert_eq!(
            pimflow_json::to_string(plan),
            reference,
            "{}: fused plan differs at {w} jobs",
            g.name
        );
    }
    let fused = apply_plan(g, &plans[0]).expect("fused plan applies to its own graph");
    fused.validate().expect("fused graph is well-formed");
    let unfused_plan = search_at(g, cfg, unfused_opts(), 1);
    let unfused = apply_plan(g, &unfused_plan).expect("unfused plan applies");
    for jobs in WIDTHS {
        let vs_original = verify_equivalence(g, &fused, 99, Some(jobs))
            .expect("original and fused graphs execute");
        assert!(
            vs_original.within(tol),
            "{} at {jobs} jobs: fused graph drifted {} from the original",
            g.name,
            vs_original.max_abs_diff
        );
        let vs_unfused = verify_equivalence(&unfused, &fused, 99, Some(jobs))
            .expect("unfused and fused graphs execute");
        assert!(
            vs_unfused.within(tol),
            "{} at {jobs} jobs: fused graph drifted {} from the unfused plan's",
            g.name,
            vs_unfused.max_abs_diff
        );
    }
    plans.into_iter().next().unwrap()
}

#[test]
fn toy_fusion_is_width_invariant_and_equivalent() {
    let g = models::toy();
    let plan = assert_fusion_preserves_semantics(&g, &EngineConfig::pimflow(), 1e-4);
    assert!(
        fused_group_count(&plan) >= 1,
        "toy's conv chain must fuse, or the test is vacuous"
    );
}

#[test]
fn bert_like_fusion_is_width_invariant_and_equivalent() {
    // The FFN block (Dense → GeLU → Dense) is the canonical fusion shape.
    let g = models::bert_like(4);
    assert_fusion_preserves_semantics(&g, &EngineConfig::pimflow(), 5e-3);
}

#[test]
fn custom_conv_chain_fusion_is_equivalent() {
    let mut b = GraphBuilder::new("chain");
    let x = b.input(Shape::nhwc(1, 12, 12, 6));
    let y = b.conv_act(x, 16, 3, 1, 1, ActivationKind::Relu);
    let y = b.conv_act(y, 16, 1, 1, 0, ActivationKind::Relu);
    let y = b.conv1x1(y, 8);
    let y = b.gap(y);
    let y = b.flatten(y);
    let y = b.dense(y, 4);
    let g = b.finish(y);
    assert_fusion_preserves_semantics(&g, &EngineConfig::pimflow(), 1e-4);
}

#[test]
fn fused_predicted_time_is_never_worse_on_random_graphs() {
    // The fused search space is a strict superset of the unfused one, so
    // the comparison is exact — no epsilon, no tolerance.
    let cfg = EngineConfig::pimflow();
    let mut fused_somewhere = false;
    for case in 0..12u64 {
        let g = random_chain_graph(0xF05E_0000 + case);
        let fused = search_at(&g, &cfg, fused_opts(), 1);
        let unfused = search_at(&g, &cfg, unfused_opts(), 1);
        assert!(
            fused.predicted_us <= unfused.predicted_us,
            "{}: fused {} worse than unfused {}",
            g.name,
            fused.predicted_us,
            unfused.predicted_us
        );
        fused_somewhere |= fused_group_count(&fused) > 0;
    }
    assert!(
        fused_somewhere,
        "no random graph fused anything — the property was tested vacuously"
    );
}

/// Whether any fused group in the plan carries a residual rejoin (an `Add`
/// member) — the walker actually crossed a skip fan-out, so the residual
/// property tests are not running vacuously on linear groups.
fn fuses_a_residual_add(plan: &ExecutionPlan) -> bool {
    plan.decisions.iter().any(|(_, d)| match d {
        Decision::Fused { node_names, .. } => node_names.iter().any(|n| n.starts_with("add")),
        _ => false,
    })
}

#[test]
fn residual_fusion_is_width_invariant_and_equivalent() {
    let cfg = EngineConfig::pimflow();
    let mut residual_fused = false;
    for case in 0..4u64 {
        let g = random_residual_graph(0x2E51_0000 + case);
        let plan = assert_fusion_preserves_semantics(&g, &cfg, 1e-4);
        residual_fused |= fuses_a_residual_add(&plan);
    }
    assert!(
        residual_fused,
        "no seed fused a group across a residual Add — the property was tested vacuously"
    );
}

#[test]
fn residual_random_graphs_keep_the_strict_superset_invariant() {
    // Overlap-aware epoch pricing is live under the default options, so
    // this pins the full candidate space: still a strict superset of the
    // unfused search, still no epsilon.
    let cfg = EngineConfig::pimflow();
    let mut fused_somewhere = false;
    for case in 0..10u64 {
        let g = random_residual_graph(0x2E51_1000 + case);
        let fused = search_at(&g, &cfg, fused_opts(), 1);
        let unfused = search_at(&g, &cfg, unfused_opts(), 1);
        assert!(
            fused.predicted_us <= unfused.predicted_us,
            "{}: fused {} worse than unfused {}",
            g.name,
            fused.predicted_us,
            unfused.predicted_us
        );
        fused_somewhere |= fused_group_count(&fused) > 0;
    }
    assert!(
        fused_somewhere,
        "no residual graph fused anything — the property was tested vacuously"
    );
}

#[test]
fn zoo_models_keep_the_superset_invariant() {
    let cfg = EngineConfig::pimflow();
    for name in ["toy", "bert-3", "squeezenet-1.1", "vgg-16"] {
        let g = models::by_name(name).expect("zoo model");
        let fused = search_at(&g, &cfg, fused_opts(), 1);
        let unfused = search_at(&g, &cfg, unfused_opts(), 1);
        assert!(
            fused.predicted_us <= unfused.predicted_us,
            "{name}: fused {} worse than unfused {}",
            fused.predicted_us,
            unfused.predicted_us
        );
    }
}

/// Overlap pays where the benchmark runs resnet-50: at 112 px the search
/// fuses one 34-member group whose overlap-linked epoch hides member
/// time, and the engine credits exactly what the shared chain pricer
/// says the group's heavy members hide.
#[test]
fn resnet50_at_112_px_hides_member_time_by_overlap() {
    let cfg = EngineConfig::pimflow();
    let mut g = models::resnet50();
    for v in g.inputs().to_vec() {
        if let Some(desc) = g.value_mut(v).desc.as_mut() {
            desc.shape = desc.shape.with_dim(1, 112).with_dim(2, 112);
        }
    }
    infer_shapes(&mut g).expect("resnet-50 runs at 112 px");
    let plan = search_at(&g, &cfg, fused_opts(), 2);
    let fused = apply_plan(&g, &plan).expect("plan applies");
    let report = execute(&fused, &cfg).expect("plan executes");
    let group = report
        .fused_groups
        .iter()
        .find(|s| s.members == 34)
        .unwrap_or_else(|| panic!("no 34-member group: {:?}", report.fused_groups));
    assert!(group.overlap_hidden_us > 0.0, "{group:?}");
    // The group's heavy members in execution order, as the engine runs them.
    let members: Vec<(PimWorkload, _)> = fused
        .topo_order()
        .expect("acyclic")
        .into_iter()
        .filter_map(|id| {
            let node = fused.node(id);
            let tag = node.placement.fusion()?;
            let heavy = matches!(node.op, Op::Conv2d(_) | Op::Dense(_));
            (tag.gid == group.gid && heavy && tag.role != FusedNodeRole::Rider)
                .then(|| (PimWorkload::from_node(&fused, id), isa_role(tag.role)))
        })
        .collect();
    let (pim, channels) = (cfg.pim, cfg.effective_pim_channels());
    let priced = price_fused_chain(&members, &pim, channels, |w, role| {
        execute_workload(&w, &pim, channels, ScheduleGranularity::Comp, role)
            .0
            .time_us
    });
    assert_eq!(
        group.overlap_hidden_us.to_bits(),
        (priced.back_to_back_us - priced.chain_us).to_bits(),
        "{group:?} vs {priced:?}"
    );
}

/// A plan serialized before fusion existed: no `Fused` decisions, no
/// `backend` fields. The exact bytes are pinned — parsing and
/// re-serializing must reproduce them, so fusion-aware builds keep
/// reading and writing old artifacts unchanged.
const LEGACY_PLAN_JSON: &str = r#"{"model":"legacy","decisions":[["conv_0",{"Split":{"gpu_percent":30}}],["fc_0","Gpu"],["chain_0",{"Pipeline":{"node_names":["a","b"],"stages":2}}]],"profiles":[{"name":"conv_0","samples":[[0,12.5],[100,20]],"best_ratio":0,"best_us":12.5,"gpu_us":20}],"predicted_us":32.5,"conv_layer_us":12.5}"#;

#[test]
fn legacy_plan_json_is_byte_stable() {
    let parsed = Json::parse(LEGACY_PLAN_JSON).expect("pinned JSON parses");
    let plan = ExecutionPlan::from_json(&parsed).expect("legacy plan decodes");
    assert_eq!(plan.decision("conv_0"), Decision::Split { gpu_percent: 30 });
    assert_eq!(fused_group_count(&plan), 0);
    assert_eq!(
        pimflow_json::to_string(&plan),
        LEGACY_PLAN_JSON,
        "legacy plan JSON must survive a parse/serialize round trip byte-for-byte"
    );
}

#[test]
fn fused_decision_json_rejects_backend_tags_and_interior_splits() {
    let fused = Decision::Fused {
        node_names: vec!["a".into(), "b".into()],
    };
    let text = pimflow_json::to_string(&fused);
    assert!(
        !text.contains("backend"),
        "fused decisions stay tag-free for old readers: {text}"
    );
    assert!(
        !text.contains("gpu_percent"),
        "full-offload fused decisions must stay ratio-free for old readers: {text}"
    );
    let round = Decision::from_json(&Json::parse(&text).unwrap()).expect("fused decision decodes");
    assert_eq!(round, fused);
    // A split or fused decision placed on a PIM backend is a removed
    // placement: only crossbar decisions ever carried the tag, and the
    // engine never ran them. It decodes to an error naming the removed
    // backend, never to a Newton placement.
    for tagged in [
        r#"{"Split":{"gpu_percent":40,"backend":"crossbar"}}"#,
        r#"{"Fused":{"node_names":["a","b"],"backend":"crossbar"}}"#,
        r#"{"Fused":{"node_names":["a","b"],"backend":"newton"}}"#,
    ] {
        let err = Decision::from_json(&Json::parse(tagged).unwrap())
            .expect_err("backend-tagged decisions must not decode");
        assert!(
            err.to_string().contains("crossbar PIM backend was removed"),
            "the error names the removed crossbar backend: {err}"
        );
    }
    // A fused decision with an interior GPU/PIM row split is a removed
    // lowering: it decodes to an error naming it, never to a full offload.
    let interior = Json::parse(r#"{"Fused":{"node_names":["a","b"],"gpu_percent":25}}"#).unwrap();
    let err = Decision::from_json(&interior).expect_err("interior split must not decode");
    assert!(
        err.to_string().contains("interior split"),
        "the error names the removed interior split: {err}"
    );
}

#[test]
fn missing_fusion_tags_decode_as_unfused() {
    // A decision list with no Fused entries is exactly the legacy shape;
    // every node not mentioned stays on the GPU.
    let parsed = Json::parse(LEGACY_PLAN_JSON).unwrap();
    let plan = ExecutionPlan::from_json(&parsed).unwrap();
    assert_eq!(plan.decision("never_mentioned"), Decision::Gpu);
    assert!(plan
        .decisions
        .iter()
        .all(|(_, d)| !matches!(d, Decision::Fused { .. })));
}
