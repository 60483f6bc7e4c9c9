//! Benchmarks of the compiler side: transformation passes, the
//! execution-mode search (Algorithm 1), and the execution engine.

use pimflow::engine::{execute, EngineConfig};
use pimflow::passes::{find_chains, pipeline_chain, split_node, PatternKind};
use pimflow::search::{apply_plan, Search};
use pimflow_bench::harness::Group;
use pimflow_ir::models;

fn bench_passes() {
    let mut g = Group::new("passes");
    let base = models::mobilenet_v2();
    let target = base
        .node_ids()
        .find(|&id| {
            base.is_pim_candidate(id) && matches!(base.node(id).op, pimflow_ir::Op::Conv2d(_))
        })
        .expect("mobilenet has candidate convs");

    g.bench("mddp_split", || {
        let mut m = base.clone();
        split_node(&mut m, target, 50).expect("splittable")
    });
    g.bench("find_chains", || find_chains(&base));
    g.bench("pipeline_type3", || {
        let mut m = base.clone();
        let chain = find_chains(&m)
            .into_iter()
            .find(|c| c.pattern == PatternKind::PwDwPw)
            .expect("mobilenet has type-3 chains");
        pipeline_chain(&mut m, &chain, 2).expect("pipelinable")
    });
    g.finish();
}

fn bench_search() {
    let mut g = Group::new("search");
    g.sample_size(10);
    let cfg = EngineConfig::pimflow();
    for name in ["toy", "mobilenet-v2", "resnet-50"] {
        let model = models::by_name(name).expect("known model");
        g.bench(name, || Search::new(&model, &cfg).run());
    }
    g.finish();
}

fn bench_engine() {
    let mut g = Group::new("engine");
    g.sample_size(10);
    let cfg = EngineConfig::pimflow();
    for name in ["mobilenet-v2", "resnet-50", "vgg-16"] {
        let model = models::by_name(name).expect("known model");
        let plan = Search::new(&model, &cfg).run().expect("zoo models search");
        let transformed = apply_plan(&model, &plan).expect("plans apply to their graph");
        g.bench(name, || execute(&transformed, &cfg));
    }
    g.finish();
}

fn main() {
    bench_passes();
    bench_search();
    bench_engine();
}
