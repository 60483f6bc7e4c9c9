//! Benches over the paper's experiment machinery.
//!
//! Each benchmark times a representative slice of one table/figure
//! regenerator (the full sweeps live in the `figures` binary — these
//! benches measure how fast the harness itself is, so heavyweight
//! multi-model loops are exercised on one representative workload).

use pimflow::engine::{execute, EngineConfig};
use pimflow::policy::{evaluate, Policy};
use pimflow::search::{apply_plan, Search};
use pimflow_bench::experiments as exp;
use pimflow_bench::harness::Group;
use pimflow_ir::models;

fn bench_light_figures() {
    let mut g = Group::new("figures");
    g.sample_size(10);

    g.bench("fig1_runtime_breakdown", exp::fig1);
    g.bench("fig3_channel_sensitivity", exp::fig3);
    g.bench("fig6_scheduling_granularity", exp::fig6);
    g.bench("fig8_simulator_validation", exp::fig8);
    g.bench("fig10_layerwise_mddp", || exp::fig10("mobilenet-v2"));
    g.bench("fig14_command_optimizations", || exp::fig14("mobilenet-v2"));
    g.bench("fig15_stage_count", || exp::fig15("mobilenet-v2"));
    g.bench("contention", || exp::contention("mobilenet-v2"));
    g.finish();
}

fn bench_heavy_slices() {
    // One representative cell of each heavyweight sweep.
    let mut h = Group::new("figures_heavy_slice");
    h.sample_size(10);
    let mbv2 = models::mobilenet_v2();
    h.bench("fig9_one_cell_pimflow_mbv2", || {
        evaluate(&mbv2, Policy::Pimflow)
    });
    h.bench("fig13_one_split_point", || {
        let mut cfg = EngineConfig::pimflow();
        cfg.pim_channels = 12;
        cfg.gpu_channels = 20;
        let plan = Search::new(&mbv2, &cfg).run().expect("zoo models search");
        let transformed = apply_plan(&mbv2, &plan).expect("plans apply to their graph");
        execute(&transformed, &cfg)
    });
    let bert = models::bert_like(64);
    h.bench("fig16_bert64_cell", || evaluate(&bert, Policy::Pimflow));
    h.finish();
}

fn main() {
    bench_light_figures();
    bench_heavy_slices();
}
