//! Cross-crate integration: the compiler's transformations never change
//! model semantics — the transformed graph produced by the full search/apply
//! flow computes the same function as the original, verified on the
//! reference executor.

use pimflow::engine::EngineConfig;
use pimflow::evaluation::verify_equivalence;
use pimflow::passes::find_chains;
use pimflow::search::{apply_plan, Decision, ExecutionPlan, Search, SearchOptions};
use pimflow_ir::{models, ActivationKind, Graph, GraphBuilder, Shape};

/// Worker widths every equivalence case is verified at: the executor
/// promises byte-identical outputs at any `--jobs` setting, so the suite
/// exercises sequential, narrow, and wide pools.
const JOBS_WIDTHS: [usize; 2] = [1, 4];

fn assert_plan_preserves_semantics(g: &Graph, opts: &SearchOptions, tol: f32) {
    assert_applied_plan_preserves_semantics(g, &search(g, opts), tol);
}

fn search(g: &Graph, opts: &SearchOptions) -> ExecutionPlan {
    Search::new(g, &EngineConfig::pimflow())
        .options(*opts)
        .run()
        .expect("search succeeds on valid graphs")
}

fn assert_applied_plan_preserves_semantics(g: &Graph, plan: &ExecutionPlan, tol: f32) {
    let transformed = apply_plan(g, plan).expect("plan applies to its own graph");
    transformed
        .validate()
        .expect("transformed graph is well-formed");
    let mut diffs = Vec::new();
    for jobs in JOBS_WIDTHS {
        let report = verify_equivalence(g, &transformed, 99, Some(jobs))
            .expect("both graphs run on the reference executor");
        assert!(
            report.within(tol),
            "{} at {jobs} jobs: outputs differ by {}",
            g.name,
            report.max_abs_diff
        );
        diffs.push(report.max_abs_diff);
    }
    // The numerical comparison itself must not depend on the pool width.
    assert!(
        diffs.windows(2).all(|w| w[0] == w[1]),
        "{}: transformation diff varies with worker width: {diffs:?}",
        g.name
    );
}

#[test]
fn toy_full_flow_is_equivalent() {
    assert_plan_preserves_semantics(&models::toy(), &SearchOptions::default(), 1e-4);
}

#[test]
fn toy_offload_only_flow_is_equivalent() {
    let opts = SearchOptions {
        offload_only: true,
        allow_pipeline: false,
        ..Default::default()
    };
    assert_plan_preserves_semantics(&models::toy(), &opts, 1e-4);
}

#[test]
fn mobile_block_flow_is_equivalent() {
    // An inverted-residual block small enough to execute numerically.
    let mut b = GraphBuilder::new("block");
    let x = b.input(Shape::nhwc(1, 16, 16, 8));
    let y = b.conv_act(x, 48, 1, 1, 0, ActivationKind::Relu6);
    let y = b.dw_act(y, 48, 3, 1, 1, ActivationKind::Relu6);
    let y = b.conv1x1(y, 8);
    let y = b.add(y, x);
    let g = b.finish(y);
    assert_plan_preserves_semantics(&g, &SearchOptions::default(), 1e-4);
}

#[test]
fn strided_downsample_flow_is_equivalent() {
    let mut b = GraphBuilder::new("down");
    let x = b.input(Shape::nhwc(1, 17, 13, 6));
    let y = b.conv_act(x, 12, 3, 2, 1, ActivationKind::Relu);
    let y = b.conv_act(y, 24, 5, 2, 2, ActivationKind::Relu);
    let y = b.gap(y);
    let y = b.flatten(y);
    let y = b.dense(y, 10);
    let g = b.finish(y);
    assert_plan_preserves_semantics(&g, &SearchOptions::default(), 1e-4);
}

#[test]
fn bert_like_flow_is_equivalent() {
    // Multi-row FC splitting path (Fig. 16's BERT case), downsized.
    let g = models::bert_like(4);
    assert_plan_preserves_semantics(&g, &SearchOptions::default(), 5e-3);
}

#[test]
fn pipeline_stage_counts_preserve_semantics() {
    // The search prices 2-stage pipelines, but plans with more stages
    // apply too: pipeline toy's first chain at 2 and 3 stages.
    let g = models::toy();
    let chain = find_chains(&g).remove(0);
    let node_names: Vec<String> = chain
        .nodes
        .iter()
        .map(|&id| g.node(id).name.clone())
        .collect();
    for stages in [2, 3] {
        let decision = Decision::Pipeline {
            node_names: node_names.clone(),
            stages,
        };
        let plan = ExecutionPlan {
            model: g.name.clone(),
            decisions: vec![(node_names[0].clone(), decision)],
            profiles: Vec::new(),
            predicted_us: 1.0,
            conv_layer_us: 0.0,
        };
        assert_applied_plan_preserves_semantics(&g, &plan, 1e-4);
    }
}
