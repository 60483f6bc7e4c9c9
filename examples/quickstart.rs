//! Quickstart: compile and simulate a small CNN on the PIM-enabled GPU
//! memory, end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This walks the full PIMFlow flow on the artifact's Toy network:
//! 1. build the model graph,
//! 2. run the execution-mode and task-size search (Algorithm 1),
//! 3. apply the chosen graph transformations,
//! 4. verify the transformed graph is numerically identical,
//! 5. simulate both the GPU baseline and the PIMFlow execution.

use pimflow::engine::{execute, EngineConfig};
use pimflow::search::{apply_plan, Search};
use pimflow_ir::models;
use pimflow_kernels::{input_tensors, run_graph};

fn main() -> pimflow::Result<()> {
    // 1. The input model: an ONNX-like graph from the model zoo.
    let model = models::toy();
    println!("model: {model}");

    // 2. Search for the optimal execution mode per layer.
    let cfg = EngineConfig::pimflow();
    let plan = Search::new(&model, &cfg).run()?;
    println!("search decisions:");
    for (node, decision) in &plan.decisions {
        println!("  {node}: {decision:?}");
    }

    // 3. Apply the PIM-aware graph transformations.
    let transformed = apply_plan(&model, &plan)?;

    // 4. The transformed graph computes exactly the same function.
    let inputs = input_tensors(&model, 2024);
    let original_out = run_graph(&model, &inputs).expect("original graph runs");
    let transformed_out = run_graph(&transformed, &inputs).expect("transformed graph runs");
    let diff = original_out[0].max_abs_diff(&transformed_out[0]);
    println!("max |original - transformed| = {diff:.2e}");
    assert!(diff < 1e-4, "transformation must preserve semantics");

    // 5. Simulate: GPU baseline (32 channels) vs PIMFlow (16 GPU + 16 PIM).
    let baseline = execute(&model, &EngineConfig::baseline_gpu())?;
    let pimflow_run = execute(&transformed, &cfg)?;
    println!(
        "GPU baseline: {:8.1} us   {:8.0} uJ",
        baseline.total_us, baseline.energy_uj
    );
    println!(
        "PIMFlow:      {:8.1} us   {:8.0} uJ   ({:.2}x speedup)",
        pimflow_run.total_us,
        pimflow_run.energy_uj,
        baseline.total_us / pimflow_run.total_us
    );
    Ok(())
}
