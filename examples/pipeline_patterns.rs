//! Pipelined execution deep-dive (§4.2.1, Fig. 11): finds the
//! 1x1–DW / DW–1x1 / 1x1–DW–1x1 subgraph patterns in a mobile CNN,
//! pipelines one of them, and shows the GPU/PIM overlap in the timeline.
//!
//! ```text
//! cargo run --release --example pipeline_patterns [model]
//! ```

use pimflow::engine::{execute, EngineConfig};
use pimflow::nodecost::gpu_resident_us;
use pimflow::passes::{find_chains, pipeline_chain, PatternKind};
use pimflow::placement::Placement;
use pimflow::search::{estimate_chain_pipelined_us, Search, SearchOptions};
use pimflow_ir::models;
use pimflow_kernels::{input_tensors, run_graph};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "mobilenet-v2".into());
    let model = models::by_name(&name).expect("unknown model");
    let cfg = EngineConfig::pimflow();

    // 1. Enumerate the pipelining candidates, and profile every layer once.
    let chains = find_chains(&model);
    let plan = Search::new(&model, &cfg)
        .options(SearchOptions {
            allow_pipeline: false,
            allow_fusion: false,
            ..SearchOptions::default()
        })
        .run()
        .expect("zoo models search");
    println!(
        "{}: {} pipelining candidate subgraphs",
        model.name,
        chains.len()
    );
    for kind in [PatternKind::PwDw, PatternKind::DwPw, PatternKind::PwDwPw] {
        let matching: Vec<_> = chains.iter().filter(|c| c.pattern == kind).collect();
        if matching.is_empty() {
            continue;
        }
        // Compare pipelined vs MD-DP for each chain (Fig. 11): a node's
        // MD-DP time is its best profiled sample when it is a PIM
        // candidate, its cost in the all-GPU timeline otherwise.
        let mut wins = 0;
        for c in &matching {
            let pipelined = estimate_chain_pipelined_us(&model, &cfg, c, 2);
            let mddp: f64 = c
                .nodes
                .iter()
                .map(|&id| {
                    let name = &model.node(id).name;
                    plan.profiles.iter().find(|p| &p.name == name).map_or_else(
                        || gpu_resident_us(&model, id, &cfg.gpu, cfg.gpu_channels),
                        |p| p.best_us,
                    )
                })
                .sum();
            if pipelined < mddp {
                wins += 1;
            }
        }
        println!(
            "  {kind:?}: {} chains, pipelining wins {}",
            matching.len(),
            wins
        );
    }

    // 2. Pipeline the first Type-3 chain and inspect the overlap.
    let Some(chain) = chains
        .into_iter()
        .find(|c| c.pattern == PatternKind::PwDwPw)
    else {
        println!("no 1x1-DW-1x1 chain in this model");
        return;
    };
    let head = model.node(chain.nodes[0]).name.clone();
    println!("pipelining the chain at `{head}` with 2 stages");
    let mut transformed = model.clone();
    pipeline_chain(&mut transformed, &chain, 2).expect("chain is pipelinable");

    // Semantics preserved?
    let inputs = input_tensors(&model, 7);
    let a = run_graph(&model, &inputs).expect("original runs");
    let b = run_graph(&transformed, &inputs).expect("pipelined runs");
    println!("max output difference: {:.2e}", a[0].max_abs_diff(&b[0]));

    // 3. Timeline: stage parts overlap across GPU and PIM.
    let report = execute(&transformed, &cfg).expect("transformed graph executes");
    println!("timeline of the pipelined stage parts:");
    for t in &report.timings {
        if (t.name.starts_with("pl") || t.name.contains("::pl")) && t.finish_us > t.start_us {
            let device = match t.device {
                Placement::Gpu => "GPU",
                Placement::Pim => "PIM",
            };
            println!(
                "  {:<30} {device} {:8.2}..{:8.2} us",
                t.name, t.start_us, t.finish_us
            );
        }
    }
}
