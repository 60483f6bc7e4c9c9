//! Hardware design-space exploration: how should the 32 memory channels be
//! divided between the GPU and PIM? (the Fig. 13 experiment, §6.2)
//!
//! ```text
//! cargo run --release --example channel_explorer [model]
//! ```
//!
//! For every split, the PIMFlow search re-runs from scratch — the optimal
//! offloading decisions change with the hardware, which is exactly why the
//! paper derives its 16-16 division from this experiment.

use pimflow::engine::{execute, EngineConfig};
use pimflow::search::{apply_plan, Search};
use pimflow_ir::models;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "efficientnet-v1-b0".into());
    let model = models::by_name(&name).expect("unknown model");
    let baseline = execute(&model, &EngineConfig::baseline_gpu())
        .expect("zoo models execute")
        .total_us;
    println!(
        "{} — GPU baseline (32 channels): {baseline:.1} us",
        model.name
    );
    println!(
        "{:>4} {:>4} {:>10} {:>8} {:>9}",
        "gpu", "pim", "time (us)", "speedup", "offloads"
    );

    let mut best = (0usize, f64::INFINITY);
    for pim_channels in [0usize, 4, 8, 12, 16, 20, 24, 28] {
        let mut cfg = EngineConfig::pimflow();
        cfg.pim_channels = pim_channels;
        cfg.gpu_channels = 32 - pim_channels;
        let (time, offloads) = if pim_channels == 0 {
            let t = execute(&model, &cfg).expect("zoo models execute").total_us;
            (t, 0)
        } else {
            let plan = Search::new(&model, &cfg).run().expect("zoo models search");
            let transformed = apply_plan(&model, &plan).expect("plans apply to their graph");
            let t = execute(&transformed, &cfg)
                .expect("zoo models execute")
                .total_us;
            (t, plan.decisions.len())
        };
        println!(
            "{:>4} {:>4} {:>10.1} {:>7.2}x {:>9}",
            32 - pim_channels,
            pim_channels,
            time,
            baseline / time,
            offloads
        );
        if time < best.1 {
            best = (pim_channels, time);
        }
    }
    println!(
        "best split: {} GPU / {} PIM channels (the paper lands on 16-16)",
        32 - best.0,
        best.0
    );
}
