//! Experiment implementations: one function per table/figure of the paper.
//!
//! Every function is deterministic and returns plain data that the
//! `figures` binary prints and the Criterion benches time. Paper-vs-measured
//! notes live in `EXPERIMENTS.md`.

use pimflow::codegen::{execute_workload, generate_blocks, PimWorkload};
use pimflow::engine::{execute, EngineConfig};
use pimflow::policy::{evaluate, Policy, PolicyEvaluation};
use pimflow::search::{apply_plan, Search, SearchOptions};
use pimflow_gpusim::{kernel_time_with_launch_us, GpuConfig, KernelProfile};
use pimflow_ir::analysis::{classify, node_cost, LayerClass};
use pimflow_ir::{models, Conv2dAttrs, Graph, Shape};
use pimflow_isa::FusedRole;
use pimflow_pimsim::{schedule, NewtonInterpreter, PimConfig, ScheduleGranularity};
use pimflow_pool::WorkerPool;

/// PIM time of the unfused lowering of `w` on 16 channels, microseconds.
fn unfused_pim_us(w: &PimWorkload, cfg: &PimConfig) -> f64 {
    execute_workload(w, cfg, 16, ScheduleGranularity::Comp, FusedRole::Standalone)
        .0
        .time_us
}

/// Fig. 1: per-class runtime breakdown (left) and arithmetic intensity
/// (right) for one model.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Model name.
    pub model: String,
    /// `(class, GPU runtime share, MAC share)` rows.
    pub breakdown: Vec<(LayerClass, f64, f64)>,
    /// `(class, median arithmetic intensity)` over conv layers.
    pub intensity: Vec<(LayerClass, f64)>,
}

/// Runs the Fig. 1 analysis over the five evaluated CNNs.
pub fn fig1() -> Vec<Fig1Row> {
    let gpu = GpuConfig::rtx2060_like();
    models::evaluated_cnns()
        .into_iter()
        .map(|g| {
            let classes = [
                LayerClass::PointwiseConv,
                LayerClass::DepthwiseConv,
                LayerClass::RegularConv,
                LayerClass::Fc,
                LayerClass::Other,
            ];
            let times: Vec<(LayerClass, f64)> = classes
                .iter()
                .map(|&c| {
                    let t: f64 = g
                        .node_ids()
                        .filter(|&id| classify(&g, id) == c)
                        .map(|id| {
                            kernel_time_with_launch_us(
                                &pimflow_gpusim::kernel_for_node(&g, id),
                                &gpu,
                                32,
                            )
                        })
                        .sum();
                    (c, t)
                })
                .collect();
            let total: f64 = times.iter().map(|x| x.1).sum();
            let profile = pimflow_ir::analysis::profile_model(&g);
            let breakdown = times
                .iter()
                .map(|&(c, t)| (c, t / total, profile.mac_share(c)))
                .collect();
            let intensity = classes[..3]
                .iter()
                .map(|&c| {
                    let mut ais: Vec<f64> = g
                        .node_ids()
                        .filter(|&id| classify(&g, id) == c)
                        .map(|id| node_cost(&g, id).arithmetic_intensity())
                        .collect();
                    ais.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                    let median = if ais.is_empty() {
                        0.0
                    } else {
                        ais[ais.len() / 2]
                    };
                    (c, median)
                })
                .collect();
            Fig1Row {
                model: g.name.clone(),
                breakdown,
                intensity,
            }
        })
        .collect()
}

/// Fig. 3: GPU-only inference time vs number of memory channels,
/// normalized to the full 32-channel memory.
pub fn fig3() -> Vec<(String, Vec<(usize, f64)>)> {
    models::evaluated_cnns()
        .into_iter()
        .map(|g| {
            let base = {
                let cfg = EngineConfig::baseline_gpu();
                execute(&g, &cfg).expect("zoo models execute").total_us
            };
            let series = [32usize, 24, 16, 12, 8]
                .into_iter()
                .map(|ch| {
                    let mut cfg = EngineConfig::baseline_gpu();
                    cfg.gpu_channels = ch;
                    let t = execute(&g, &cfg).expect("zoo models execute").total_us;
                    (ch, t / base)
                })
                .collect();
            (g.name.clone(), series)
        })
        .collect()
}

/// Fig. 6: command-scheduling granularity on a small 1x1 CONV layer:
/// `(granularity name, cycles)` on 16 channels.
pub fn fig6() -> Vec<(&'static str, u64)> {
    // A tiny-spatial 1x1 conv: its four input rows form a single command
    // block, so at G_ACT granularity only one of the 16 channels works —
    // exactly the starvation case Fig. 6's finer granularities fix.
    let w = PimWorkload::from_conv(&Shape::nhwc(1, 2, 2, 960), &Conv2dAttrs::pointwise(512));
    let cfg = PimConfig::default();
    let blocks = generate_blocks(&w, &cfg);
    [
        ("G_ACT", ScheduleGranularity::GAct),
        ("READRES", ScheduleGranularity::ReadRes),
        ("COMP", ScheduleGranularity::Comp),
    ]
    .into_iter()
    .map(|(name, g)| {
        let program = schedule(&blocks, 16, g, &cfg);
        (name, NewtonInterpreter::new(&cfg).run(&program).0.cycles)
    })
    .collect()
}

/// Fig. 8: simulator validation — PIM speedup over GPU for a 4096x4096
/// matrix-vector workload at growing batch size, on a Titan-V-class GPU
/// with 24 channels (the paper reproduces Fig. 12 of the Newton paper and
/// measures 20.4x at batch 1).
pub fn fig8() -> Vec<(usize, f64)> {
    let gpu = GpuConfig::titan_v_like();
    let pim = PimConfig::default();
    [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|batch| {
            let gpu_us =
                kernel_time_with_launch_us(&KernelProfile::matvec(4096, 4096, batch), &gpu, 24);
            let w = PimWorkload::from_dense(batch, 4096, 4096);
            let pim_us = unfused_pim_us(&w, &pim);
            (batch, gpu_us / pim_us)
        })
        .collect()
}

/// Fig. 9 + Fig. 12: the main evaluation — all models, all mechanisms.
///
/// Each (model, policy) cell is independent, so the sweep fans out over the
/// `PIMFLOW_JOBS` worker pool; results are collected in cell order, so the
/// rows match the sequential sweep exactly.
pub fn fig9() -> Vec<PolicyEvaluation> {
    let mut cells = Vec::new();
    for g in models::evaluated_cnns() {
        for p in Policy::all() {
            cells.push((g.clone(), p));
        }
    }
    WorkerPool::from_env().map(&cells, |_, (g, p)| {
        evaluate(g, *p).expect("zoo models evaluate")
    })
}

/// Fig. 10: layerwise MD-DP breakdown for one model — nodes the search
/// chose to split, with their ratio and time normalized to full GPU.
pub fn fig10(model: &str) -> Vec<(String, u32, f64)> {
    let g = models::by_name(model).expect("known model");
    let plan = Search::new(&g, &EngineConfig::pimflow())
        .run()
        .expect("zoo models search");
    plan.profiles
        .iter()
        .filter(|p| p.best_ratio != 100)
        .map(|p| (p.name.clone(), p.best_ratio, p.best_us / p.gpu_us))
        .collect()
}

/// Fig. 11: pipelining candidate subgraphs — per pattern type, the ratio of
/// pipelined time to the same nodes executed in MD-DP mode (values < 1 mean
/// pipelining wins; the paper finds only Type 1 wins consistently). Both
/// sides are the costs the search's DP compares.
pub fn fig11() -> Vec<(String, &'static str, f64)> {
    use pimflow::nodecost::gpu_resident_us;
    use pimflow::passes::{find_chains, PatternKind};
    use pimflow::search::estimate_chain_pipelined_us;
    let mut out = Vec::new();
    let cfg = EngineConfig::pimflow();
    let singles_only = SearchOptions {
        allow_pipeline: false,
        allow_fusion: false,
        ..Default::default()
    };
    for g in models::evaluated_cnns() {
        // A node's MD-DP time is its best profiled sample when it is a PIM
        // candidate, its cost in the all-GPU timeline otherwise (an
        // epilogue fused into its producer costs nothing).
        let plan = Search::new(&g, &cfg)
            .options(singles_only)
            .run()
            .expect("zoo models search");
        let mddp_us = |id| {
            let name = &g.node(id).name;
            plan.profiles.iter().find(|p| &p.name == name).map_or_else(
                || gpu_resident_us(&g, id, &cfg.gpu, cfg.gpu_channels),
                |p| p.best_us,
            )
        };
        for chain in find_chains(&g) {
            let pipelined = estimate_chain_pipelined_us(&g, &cfg, &chain, 2);
            let mddp: f64 = chain.nodes.iter().map(|&id| mddp_us(id)).sum();
            if mddp <= 0.0 {
                continue;
            }
            let kind = match chain.pattern {
                PatternKind::PwDw => "Type1 (1x1-DW)",
                PatternKind::DwPw => "Type2 (DW-1x1)",
                PatternKind::PwDwPw => "Type3 (1x1-DW-1x1)",
            };
            out.push((g.name.clone(), kind, pipelined / mddp));
        }
    }
    out
}

/// Fig. 13: PIM/GPU channel-ratio sensitivity — PIMFlow end-to-end time for
/// each split of the 32-channel memory, normalized to the GPU baseline.
pub fn fig13(model: &str) -> Vec<(usize, f64)> {
    let g = models::by_name(model).expect("known model");
    let base = execute(&g, &EngineConfig::baseline_gpu())
        .expect("zoo models execute")
        .total_us;
    [4usize, 8, 12, 16, 20, 24]
        .into_iter()
        .map(|pim_ch| {
            let mut cfg = EngineConfig::pimflow();
            cfg.pim_channels = pim_ch;
            cfg.gpu_channels = 32 - pim_ch;
            let plan = Search::new(&g, &cfg).run().expect("zoo models search");
            let transformed = apply_plan(&g, &plan).expect("plans apply to their graph");
            let t = execute(&transformed, &cfg)
                .expect("zoo models execute")
                .total_us;
            (pim_ch, t / base)
        })
        .collect()
}

/// Fig. 14: PIM-command optimization ablation — total PIM execution time of
/// every PIM-candidate CONV layer (fully offloaded), normalized to Newton+
/// hardware, for each command-set variant.
pub fn fig14(model: &str) -> Vec<(&'static str, f64)> {
    let g = models::by_name(model).expect("known model");
    let variants: [(&'static str, PimConfig); 4] = [
        ("Newton+", PimConfig::newton_plus()),
        (
            "+hiding",
            PimConfig {
                gwrite_latency_hiding: true,
                ..PimConfig::newton_plus()
            },
        ),
        (
            "+buffers",
            PimConfig {
                num_global_buffers: 4,
                ..PimConfig::newton_plus()
            },
        ),
        ("Newton++", PimConfig::newton_plus_plus()),
    ];
    let time_for = |cfg: &PimConfig| -> f64 {
        g.node_ids()
            .filter(|&id| {
                g.is_pim_candidate(id) && matches!(g.node(id).op, pimflow_ir::Op::Conv2d(_))
            })
            .map(|id| {
                let w = PimWorkload::from_node(&g, id);
                unfused_pim_us(&w, cfg)
            })
            .sum()
    };
    let base = time_for(&variants[0].1);
    variants
        .into_iter()
        .map(|(name, cfg)| (name, time_for(&cfg) / base))
        .collect()
}

/// Fig. 15: pipeline-stage-count sensitivity — mean pipelined-chain time at
/// 2..=4 stages, normalized to 2 stages (more stages shrink the
/// prologue/epilogue but multiply kernel-launch and boundary overheads).
pub fn fig15(model: &str) -> Vec<(usize, f64)> {
    use pimflow::passes::find_chains;
    use pimflow::search::estimate_chain_pipelined_us;
    let g = models::by_name(model).expect("known model");
    let cfg = EngineConfig::pimflow();
    let chains = find_chains(&g);
    let total = |stages: usize| -> f64 {
        chains
            .iter()
            .map(|c| estimate_chain_pipelined_us(&g, &cfg, c, stages))
            .sum()
    };
    let base = total(2);
    (2..=4).map(|s| (s, total(s) / base)).collect()
}

/// Fig. 16: model type/size sensitivity — PIMFlow speedup over the GPU
/// baseline for BERT (two sequence lengths) and scaled CNN variants.
pub fn fig16() -> Vec<(String, f64, f64)> {
    let mut rows = Vec::new();
    let candidates: Vec<Graph> = vec![
        models::bert_like(3),
        models::bert_like(64),
        models::efficientnet(models::EfficientNetVariant::B0),
        models::efficientnet(models::EfficientNetVariant::B2),
        models::efficientnet(models::EfficientNetVariant::B4),
        models::efficientnet(models::EfficientNetVariant::B6),
        models::mobilenet_v2(),
        models::mobilenet_v2_scaled(1.4),
        models::mnasnet(),
        models::mnasnet_scaled(1.3),
    ];
    rows.extend(WorkerPool::from_env().map(&candidates, |_, g| {
        let base = execute(g, &EngineConfig::baseline_gpu())
            .expect("zoo models execute")
            .total_us;
        let npp = evaluate(g, Policy::NewtonPlusPlus)
            .expect("zoo models evaluate")
            .report
            .total_us;
        let pf = evaluate(g, Policy::Pimflow)
            .expect("zoo models evaluate")
            .report
            .total_us;
        (g.name.clone(), base / npp, base / pf)
    }));
    rows
}

/// §3 observation 1: inherent inter-node parallelism of the model zoo —
/// the fraction of nodes with at least one data-flow-independent peer.
/// The paper finds "zero or less than 17%" for 75% of Torchvision CNNs;
/// branch-structured models (SqueezeNet fire modules, squeeze-excite
/// blocks) are the exceptions.
pub fn internode_parallelism() -> Vec<(String, f64)> {
    let mut zoo = models::evaluated_cnns();
    zoo.push(models::squeezenet());
    zoo.push(models::toy());
    zoo.into_iter()
        .map(|g| {
            let f = pimflow_ir::analysis::independent_node_fraction(&g);
            (g.name.clone(), f)
        })
        .collect()
}

/// Extension ablation (beyond the paper): what if the DRAM-PIM applied
/// activation functions in memory, as the GDDR6 AiM \[38] can? Compares
/// PIMFlow end-to-end time on Newton++ hardware vs AiM-like hardware,
/// normalized to the GPU baseline.
pub fn ablation_pim_activation() -> Vec<(String, f64, f64)> {
    let zoo = models::evaluated_cnns();
    WorkerPool::from_env().map(&zoo, |_, g| {
        let base = execute(g, &EngineConfig::baseline_gpu())
            .expect("zoo models execute")
            .total_us;
        let solve = |cfg: &EngineConfig| -> f64 {
            let plan = Search::new(g, cfg).run().expect("zoo models search");
            let transformed = apply_plan(g, &plan).expect("plans apply to their graph");
            execute(&transformed, cfg)
                .expect("zoo models execute")
                .total_us
        };
        let newton = solve(&EngineConfig::pimflow());
        let aim = solve(&EngineConfig {
            pim: PimConfig::aim_like(),
            ..EngineConfig::pimflow()
        });
        (g.name.clone(), base / newton, base / aim)
    })
}

/// Footnote 1 of the paper: finer MD-DP ratio intervals give only marginal
/// gains ("2% ratio intervals provided a 1.13% speedup for EfficientNetB0").
/// Returns `(coarse 10% predicted us, fine 2% predicted us, gain)`.
pub fn footnote1(model: &str) -> (f64, f64, f64) {
    let g = models::by_name(model).expect("known model");
    let cfg = EngineConfig::pimflow();
    let coarse = Search::new(&g, &cfg)
        .options(SearchOptions {
            ratio_step: 10,
            ..Default::default()
        })
        .run()
        .expect("zoo models search");
    let fine = Search::new(&g, &cfg)
        .options(SearchOptions {
            ratio_step: 2,
            ..Default::default()
        })
        .run()
        .expect("zoo models search");
    (
        coarse.predicted_us,
        fine.predicted_us,
        coarse.predicted_us / fine.predicted_us - 1.0,
    )
}

/// §3 preliminary analysis: the GPU-vs-PIM crossover map over a grid of
/// pointwise-convolution shapes. Returns
/// `(spatial, in_channels, out_channels, gpu_us, pim_us)` per grid point;
/// the contested band (ratio within ~2x) is where MD-DP splitting pays.
pub fn crossover_map() -> Vec<(usize, usize, usize, usize, f64, f64)> {
    let gpu = GpuConfig::rtx2060_like();
    let pim = PimConfig::default();
    let mut rows = Vec::new();
    for kernel in [1usize, 3] {
        for spatial in [7usize, 14, 28, 56, 112] {
            for ic in [16usize, 64, 256, 960] {
                for oc in [16usize, 96, 384, 1024] {
                    let mut b = pimflow_ir::GraphBuilder::new("probe");
                    let x = b.input(Shape::nhwc(1, spatial, spatial, ic));
                    let y = b.conv(x, oc, kernel, 1, kernel / 2);
                    let g = b.finish(y);
                    let id = g.topo_order().expect("acyclic")[0];
                    let gpu_us = kernel_time_with_launch_us(
                        &pimflow_gpusim::kernel_for_node(&g, id),
                        &gpu,
                        16,
                    );
                    let attrs = pimflow_ir::Conv2dAttrs {
                        out_channels: oc,
                        kernel: pimflow_ir::Hw::square(kernel),
                        stride: pimflow_ir::Hw::square(1),
                        padding: pimflow_ir::Hw::square(kernel / 2),
                        groups: 1,
                    };
                    let w = PimWorkload::from_conv(&Shape::nhwc(1, spatial, spatial, ic), &attrs);
                    let pim_us = unfused_pim_us(&w, &pim);
                    rows.push((kernel, spatial, ic, oc, gpu_us, pim_us));
                }
            }
        }
    }
    rows
}

/// Architecture-portability experiment (§8: "PIMFlow ... can be readily
/// adapted to support them"): the same compiler targeting the GDDR6
/// Newton++ substrate vs an HBM-PIM-like substrate \[37]. Returns
/// `(model, Newton++ e2e speedup, HBM-PIM e2e speedup)` over the GPU
/// baseline.
pub fn portability_hbm_pim() -> Vec<(String, f64, f64)> {
    let zoo = models::evaluated_cnns();
    WorkerPool::from_env().map(&zoo, |_, g| {
        let base = execute(g, &EngineConfig::baseline_gpu())
            .expect("zoo models execute")
            .total_us;
        let run = |pim: PimConfig| -> f64 {
            let cfg = EngineConfig {
                pim,
                ..EngineConfig::pimflow()
            };
            let plan = Search::new(g, &cfg).run().expect("zoo models search");
            let transformed = apply_plan(g, &plan).expect("plans apply to their graph");
            execute(&transformed, &cfg)
                .expect("zoo models execute")
                .total_us
        };
        let newton = run(PimConfig::newton_plus_plus());
        let hbm = run(PimConfig::hbm_pim_like());
        (g.name.clone(), base / newton, base / hbm)
    })
}

/// Table 2: the distribution of chosen MD-DP split ratios over all
/// PIM-candidate layers of the five evaluated models.
pub fn table2() -> Vec<(u32, f64)> {
    let zoo = models::evaluated_cnns();
    let plans = WorkerPool::from_env().map(&zoo, |_, g| {
        Search::new(g, &EngineConfig::pimflow())
            .options(SearchOptions {
                allow_pipeline: false,
                ..Default::default()
            })
            .run()
            .expect("zoo models search")
    });
    let mut counts = vec![0usize; 11];
    let mut total = 0usize;
    for plan in &plans {
        for p in &plan.profiles {
            counts[(p.best_ratio / 10) as usize] += 1;
            total += 1;
        }
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            (
                (i as u32) * 10,
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64
                },
            )
        })
        .collect()
}

/// §7 contention experiment: slowdown of a PIM CONV layer when ordinary GPU
/// memory bursts are interleaved at the shared controller.
pub fn contention(model: &str) -> f64 {
    let g = models::by_name(model).expect("known model");
    let mem = pimflow_pimsim::MemorySystem::pimflow_default();
    // Largest PIM-candidate conv layer.
    let id = g
        .node_ids()
        .filter(|&id| g.is_pim_candidate(id) && matches!(g.node(id).op, pimflow_ir::Op::Conv2d(_)))
        .max_by_key(|&id| node_cost(&g, id).macs)
        .expect("model has conv layers");
    let w = PimWorkload::from_node(&g, id);
    let blocks = generate_blocks(&w, &mem.cfg);
    let clean = mem.run_layer(&blocks, ScheduleGranularity::Comp).cycles;
    // A 512 B GPU burst every 64 commands: background traffic at the shared
    // controller while the GPU works from its own channels.
    let contended = mem
        .run_layer_with_gpu_traffic(&blocks, ScheduleGranularity::Comp, 512, 64)
        .cycles;
    contended as f64 / clean as f64 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_more_channels_never_slower() {
        for (model, series) in fig3() {
            for w in series.windows(2) {
                assert!(w[0].1 <= w[1].1 + 1e-9, "{model}: {series:?}");
            }
        }
    }

    #[test]
    fn fig6_finer_granularity_not_slower() {
        let rows = fig6();
        assert!(rows[2].1 <= rows[0].1, "{rows:?}");
    }

    #[test]
    fn fig8_speedup_falls_with_batch() {
        let rows = fig8();
        assert!(rows[0].1 > rows.last().unwrap().1, "{rows:?}");
        // Order-of-magnitude PIM win at batch 1 (paper: 20.4x).
        assert!(rows[0].1 > 8.0, "batch-1 speedup {:.1}", rows[0].1);
    }

    #[test]
    fn fig14_optimizations_help() {
        let rows = fig14("mobilenet-v2");
        let npp = rows.iter().find(|r| r.0 == "Newton++").unwrap().1;
        assert!(npp < 1.0, "{rows:?}");
    }

    #[test]
    fn contention_is_negligible() {
        let s = contention("mobilenet-v2");
        assert!(s < 0.05, "slowdown {s}");
    }

    #[test]
    fn straight_line_cnns_have_little_internode_parallelism() {
        // §3 observation 1.
        let rows = internode_parallelism();
        let vgg = rows.iter().find(|r| r.0 == "vgg-16").unwrap().1;
        assert_eq!(vgg, 0.0);
        let mbv2 = rows.iter().find(|r| r.0 == "mobilenet-v2").unwrap().1;
        assert!(mbv2 < 0.17, "mbv2 {mbv2}");
        let sq = rows.iter().find(|r| r.0 == "squeezenet-1.1").unwrap().1;
        assert!(sq > 0.3, "squeezenet {sq}");
    }

    #[test]
    fn crossover_map_has_all_three_regimes() {
        // §3 observation 2: neither device dominates everywhere — the map
        // must contain GPU-won, PIM-won, and contested points.
        let rows = crossover_map();
        let mut gpu_wins = 0;
        let mut pim_wins = 0;
        let mut contested = 0;
        for (_, _, _, _, g, p) in &rows {
            let ratio = g / p;
            if ratio > 2.0 {
                pim_wins += 1;
            } else if ratio < 0.67 {
                gpu_wins += 1;
            } else {
                contested += 1;
            }
        }
        assert!(
            gpu_wins > 0,
            "no GPU-won points (dense 3x3 convs must favor the GPU)"
        );
        assert!(pim_wins > 0, "no PIM-won points");
        assert!(
            contested > rows.len() / 8,
            "contested band too thin: {contested}/{}",
            rows.len()
        );
    }

    #[test]
    fn compiler_ports_to_hbm_pim() {
        // The search must still find profitable offloads on the second
        // architecture (the DP can always fall back to all-GPU, so any
        // speedup < 1 would be a search bug, and >= 1.05 shows real use).
        for (model, _, hbm) in portability_hbm_pim() {
            assert!(hbm >= 1.0, "{model}: HBM-PIM made things worse: {hbm}");
        }
    }

    #[test]
    fn pim_activation_only_helps() {
        for (model, newton, aim) in ablation_pim_activation() {
            assert!(aim >= newton * 0.99, "{model}: {aim} < {newton}");
        }
    }

    #[test]
    fn finer_ratios_give_marginal_gains() {
        let (coarse, fine, gain) = footnote1("mobilenet-v2");
        assert!(fine <= coarse + 1e-9);
        // The paper's footnote: ~1% — ours must stay in the same ballpark.
        assert!(gain < 0.05, "gain {gain}");
    }

    #[test]
    fn table2_distribution_sums_to_one() {
        let rows = table2();
        let total: f64 = rows.iter().map(|r| r.1).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
