//! Customization scenario (§A.7 of the artifact appendix): optimize a model
//! that is *not* in the paper's evaluation set — a U-Net-style segmentation
//! network — with the unmodified PIMFlow flow, and inspect what the search
//! decides when the workload is dominated by GPU-friendly dense 3x3
//! convolutions.
//!
//! ```text
//! cargo run --release --example unet_segmentation
//! ```

use pimflow::engine::{execute, EngineConfig};
use pimflow::search::{apply_plan, Decision, Search};
use pimflow_ir::analysis::{classify, LayerClass};
use pimflow_ir::models;

fn main() {
    let model = models::unet_small();
    println!("{} — {} nodes", model.name, model.node_count());
    let pw = model
        .node_ids()
        .filter(|&id| classify(&model, id) == LayerClass::PointwiseConv)
        .count();
    let dense3 = model
        .node_ids()
        .filter(|&id| classify(&model, id) == LayerClass::RegularConv)
        .count();
    println!("layer mix: {dense3} dense 3x3 convs, {pw} pointwise convs");
    println!(
        "peak live activations: {:.1} MB (skips extend liveness, not parallelism)",
        pimflow_ir::analysis::peak_activation_bytes(&model) as f64 / 1e6
    );

    let cfg = EngineConfig::pimflow();
    let plan = Search::new(&model, &cfg).run().expect("zoo models search");
    let offloads = plan
        .decisions
        .iter()
        .filter(|(_, d)| matches!(d, Decision::Split { gpu_percent: 0, .. }))
        .count();
    let splits = plan
        .decisions
        .iter()
        .filter(|(_, d)| matches!(d, Decision::Split { gpu_percent, .. } if *gpu_percent > 0))
        .count();
    println!("search decisions: {offloads} full offloads, {splits} MD-DP splits");
    for (name, d) in plan.decisions.iter().take(8) {
        println!("  {name}: {d:?}");
    }

    let transformed = apply_plan(&model, &plan).expect("plans apply to their graph");
    let optimized = execute(&transformed, &cfg).expect("zoo models execute");
    let gpu_only_same_hw = execute(&model, &cfg).expect("zoo models execute");
    let baseline_32ch = execute(&model, &EngineConfig::baseline_gpu()).expect("zoo models execute");
    println!(
        "GPU baseline (32 channels): {:8.1} us",
        baseline_32ch.total_us
    );
    println!(
        "GPU-only on 16+16 hardware: {:8.1} us",
        gpu_only_same_hw.total_us
    );
    println!(
        "PIMFlow on 16+16 hardware:  {:8.1} us  ({:+.1}% vs GPU-only on the same hardware)",
        optimized.total_us,
        (gpu_only_same_hw.total_us / optimized.total_us - 1.0) * 100.0
    );
    println!(
        "takeaway: a Winograd-friendly dense-conv workload keeps most work on \
         the GPU — PIMFlow helps where it can and never hurts, but the big \
         wins belong to the separable-convolution models (see `mobile_inference`)."
    );
}
