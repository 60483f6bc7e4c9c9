//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures [all|fig1|fig3|fig6|fig8|fig9|fig10|fig11|fig12|fig13|fig14|
//!          fig15|fig16|table1|table2|internode|crossover|ablation|
//!          autotune|portability|contention]
//! figures csv <dir>      # machine-readable fig9/fig12 matrix
//! figures serve [dir]    # serving RPS sweep -> <dir>/BENCH_serve.json
//! figures resilience [dir] # channel-fault degradation sweep
//!                          #   -> <dir>/BENCH_resilience.json
//! figures costcache [dir]  # cold-vs-warm cost-cache search timing
//!                          #   -> <dir>/BENCH_costcache.json
//! figures exec [dir]       # sequential-vs-parallel graph execution
//!                          #   -> <dir>/BENCH_exec.json
//! figures fleet [dir]      # multi-tenant fleet: routers, node faults,
//!                          #   autoscaling -> <dir>/BENCH_fleet.json
//! figures kernels [dir]    # scalar-vs-microkernel GEMM with Welch
//!                          #   p-values -> <dir>/BENCH_kernels.json
//! figures fusion [dir]     # unfused vs joint fusion search: traffic
//!                          #   reduction -> <dir>/BENCH_fusion.json
//! ```
//!
//! `--jobs=<n>` (any position) sets the worker-pool width for the sweeps,
//! same as the `PIMFLOW_JOBS` environment variable. `--smoke` restricts
//! `costcache` to the small models (the CI configuration).
//!
//! Output is textual (rows/series in the same structure as the paper's
//! plots); `EXPERIMENTS.md` records the paper-vs-measured comparison.

use pimflow::policy::Policy;
use pimflow_bench::experiments as exp;
use pimflow_pimsim::{DramTiming, PimConfig};

fn fig1() {
    println!("== Fig. 1: runtime breakdown (left) and arithmetic intensity (right) ==");
    for row in exp::fig1() {
        println!("{}:", row.model);
        for (class, time_share, mac_share) in &row.breakdown {
            println!(
                "  {:<10} time {:5.1}%  macs {:5.1}%",
                class.label(),
                time_share * 100.0,
                mac_share * 100.0
            );
        }
        for (class, ai) in &row.intensity {
            println!(
                "  {:<10} median arithmetic intensity {:8.1} MAC/ldst",
                class.label(),
                ai
            );
        }
    }
}

fn fig3() {
    println!("== Fig. 3: GPU-only time vs memory channels (normalized to 32) ==");
    for (model, series) in exp::fig3() {
        print!("{model:<22}");
        for (ch, norm) in series {
            print!("  {ch:>2}ch:{norm:5.2}");
        }
        println!();
    }
}

fn fig6() {
    println!("== Fig. 6: command scheduling granularity (tiny 1x1 conv, 16 channels) ==");
    let rows = exp::fig6();
    let base = rows[0].1 as f64;
    for (name, cycles) in rows {
        println!(
            "  {:<8} {:>8} cycles  ({:.2}x)",
            name,
            cycles,
            base / cycles as f64
        );
    }
}

fn fig8() {
    println!("== Fig. 8: simulator validation, PIM speedup over GPU (4096x4096 GEMV) ==");
    for (batch, speedup) in exp::fig8() {
        println!("  batch {batch:>2}: {speedup:6.1}x");
    }
}

fn fig9(rows: &[pimflow::policy::PolicyEvaluation]) {
    println!("== Fig. 9: CONV-layer and end-to-end speedup over the GPU baseline ==");
    let mut model = String::new();
    let mut base_conv = 1.0;
    let mut base_e2e = 1.0;
    for e in rows {
        if e.model != model {
            model = e.model.clone();
            println!("{model}:");
        }
        if e.policy == Policy::Baseline {
            base_conv = e.conv_layer_us;
            base_e2e = e.report.total_us;
        }
        println!(
            "  {:<11} conv {:8.1}us ({:4.2}x)   e2e {:8.1}us ({:4.2}x)",
            e.policy.name(),
            e.conv_layer_us,
            base_conv / e.conv_layer_us,
            e.report.total_us,
            base_e2e / e.report.total_us,
        );
    }
}

fn fig10() {
    println!("== Fig. 10: layerwise MD-DP breakdown (normalized to full GPU) ==");
    for model in pimflow_ir::models::evaluated_cnn_names() {
        let rows = exp::fig10(model);
        println!("{model}: {} layers leave the GPU", rows.len());
        for (name, ratio, norm) in rows {
            println!(
                "  {:<22} gpu-ratio {:>3}%  time {:4.2}x of GPU",
                name, ratio, norm
            );
        }
    }
}

fn fig11() {
    println!("== Fig. 11: pipelined vs MD-DP time per pattern (ratio < 1: pipelining wins) ==");
    let rows = exp::fig11();
    for kind in ["Type1 (1x1-DW)", "Type2 (DW-1x1)", "Type3 (1x1-DW-1x1)"] {
        let vals: Vec<f64> = rows.iter().filter(|r| r.1 == kind).map(|r| r.2).collect();
        if vals.is_empty() {
            continue;
        }
        let avg = vals.iter().sum::<f64>() / vals.len() as f64;
        let best = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        println!(
            "  {:<20} {} chains, mean ratio {:4.2}, best {:4.2}",
            kind,
            vals.len(),
            avg,
            best
        );
    }
}

fn fig12(rows: &[pimflow::policy::PolicyEvaluation]) {
    println!("== Fig. 12: energy consumption normalized to the GPU baseline ==");
    let mut model = String::new();
    let mut base = 1.0;
    for e in rows {
        if e.model != model {
            model = e.model.clone();
            println!("{model}:");
        }
        if e.policy == Policy::Baseline {
            base = e.report.energy_uj;
        }
        println!(
            "  {:<11} {:10.0} uJ  ({:4.2} of baseline)",
            e.policy.name(),
            e.report.energy_uj,
            e.report.energy_uj / base
        );
    }
}

fn fig13() {
    println!("== Fig. 13: PIM/GPU channel split sensitivity (normalized to 32-ch GPU baseline) ==");
    for model in ["efficientnet-v1-b0", "resnet-50"] {
        print!("{model:<22}");
        for (pim_ch, norm) in exp::fig13(model) {
            print!("  {pim_ch:>2}pim:{norm:5.2}");
        }
        println!();
    }
}

fn fig14() {
    println!("== Fig. 14: PIM-command optimizations (offloaded CONV time vs Newton+) ==");
    for model in pimflow_ir::models::evaluated_cnn_names() {
        print!("{model:<22}");
        for (name, norm) in exp::fig14(model) {
            print!("  {name}:{norm:5.2}");
        }
        println!();
    }
}

fn fig15() {
    println!("== Fig. 15: pipeline stage count (PIMFlow-pl, normalized to 2 stages) ==");
    for model in ["mobilenet-v2", "mnasnet-1.0"] {
        print!("{model:<22}");
        for (stages, norm) in exp::fig15(model) {
            print!("  {stages}st:{norm:5.2}");
        }
        println!();
    }
}

fn fig16() {
    println!("== Fig. 16: model type and size sensitivity (speedup over GPU baseline) ==");
    println!("  {:<26} {:>9} {:>9}", "model", "Newton++", "PIMFlow");
    for (model, npp, pf) in exp::fig16() {
        println!("  {model:<26} {npp:8.2}x {pf:8.2}x");
    }
}

fn table1() {
    println!("== Table 1: DRAM-PIM configuration ==");
    let c = PimConfig::default();
    let t = DramTiming::default();
    println!(
        "  ranks 1, banks {}, global buffer {} B x{}",
        c.banks, c.global_buffer_bytes, c.num_global_buffers
    );
    println!(
        "  column I/Os per row {}, column I/O {}b, multipliers/bank {}",
        c.column_ios_per_row, c.column_io_bits, c.multipliers_per_bank
    );
    println!(
        "  timing (cycles): tCCD {} tRCDRD {} tRCDWR {} tCL {} tRTP {} tRAS {} (tRP {})",
        t.t_ccd, t.t_rcd_rd, t.t_rcd_wr, t.t_cl, t.t_rtp, t.t_ras, t.t_rp
    );
    println!(
        "  command clock {:.2} GHz, channel I/O {} B/cycle",
        c.clock_ghz, c.io_bytes_per_cycle
    );
}

fn table2() {
    println!("== Table 2: distribution of MD-DP split ratios (0 = total offload) ==");
    let rows = exp::table2();
    print!("  ratio:");
    for (r, _) in &rows {
        print!(" {r:>4}");
    }
    println!();
    print!("  share:");
    for (_, s) in &rows {
        print!(" {:>3.0}%", s * 100.0);
    }
    println!();
}

fn internode() {
    println!("== §3 obs. 1: inherent inter-node parallelism of the model zoo ==");
    for (model, frac) in exp::internode_parallelism() {
        println!(
            "  {model:<22} {:5.1}% of nodes have an independent peer",
            frac * 100.0
        );
    }
}

fn ablation() {
    println!("== Extension ablation: AiM-style in-PIM activation functions ==");
    println!("  {:<22} {:>10} {:>10}", "model", "Newton++", "AiM-like");
    for (model, newton, aim) in exp::ablation_pim_activation() {
        println!("  {model:<22} {newton:9.2}x {aim:9.2}x");
    }
    println!("== Footnote 1: MD-DP ratio interval 10% vs 2% ==");
    for model in ["efficientnet-v1-b0", "mobilenet-v2"] {
        let (coarse, fine, gain) = exp::footnote1(model);
        println!(
            "  {model:<22} 10%: {coarse:8.1}us  2%: {fine:8.1}us  gain {:+.2}%",
            gain * 100.0
        );
    }
}

fn crossover() {
    println!("== §3: GPU-vs-PIM crossover map for convolutions (16+16 channels) ==");
    println!("  cells show GPU-time / PIM-time; >1 means PIM wins");
    let rows = exp::crossover_map();
    let spatials = [7usize, 14, 28, 56, 112];
    let ics = [16usize, 64, 256, 960];
    let ocs = [16usize, 96, 384, 1024];
    for kernel in [1usize, 3] {
        for ic in ics {
            println!("  {kernel}x{kernel} conv, in_channels = {ic}:");
            print!("    {:>10}", "spatial\\oc");
            for oc in ocs {
                print!(" {oc:>7}");
            }
            println!();
            for spatial in spatials {
                print!("    {spatial:>10}");
                for oc in ocs {
                    let (_, _, _, _, g, p) = rows
                        .iter()
                        .find(|r| r.0 == kernel && r.1 == spatial && r.2 == ic && r.3 == oc)
                        .expect("grid point");
                    print!(" {:>7.2}", g / p);
                }
                println!();
            }
        }
    }
}

fn portability() {
    println!("== §8: architecture portability — same compiler, HBM-PIM substrate ==");
    println!("  {:<22} {:>10} {:>10}", "model", "GDDR6-PIM", "HBM-PIM");
    for (model, newton, hbm) in exp::portability_hbm_pim() {
        println!("  {model:<22} {newton:9.2}x {hbm:9.2}x");
    }
}

fn autotune() {
    println!("== §9 future work: measured auto-tuning over the Algorithm 1 plan ==");
    for (model, initial, tuned, gain) in exp::autotune_gains() {
        println!(
            "  {model:<22} DP plan {initial:8.1}us -> tuned {tuned:8.1}us ({:+.2}%)",
            gain * 100.0
        );
    }
}

fn contention() {
    println!("== §7: memory-controller contention ==");
    for model in ["mobilenet-v2", "resnet-50"] {
        println!(
            "  {model:<22} slowdown {:+.2}%",
            exp::contention(model) * 100.0
        );
    }
}

/// Writes the full evaluation matrix as CSV (for downstream plotting).
fn csv(dir: &str) {
    use pimflow::evaluation::EvaluationSuite;
    let suite = EvaluationSuite::run(&pimflow_ir::models::evaluated_cnns(), &Policy::all())
        .expect("zoo models evaluate");
    let path = std::path::Path::new(dir).join("fig9_fig12.csv");
    std::fs::create_dir_all(dir).expect("create output directory");
    std::fs::write(&path, suite.to_csv()).expect("write CSV");
    println!(
        "wrote {} ({} rows); geomean PIMFlow e2e speedup {:.2}x",
        path.display(),
        suite.cells.len(),
        suite.geomean_e2e_speedup(Policy::Pimflow)
    );
}

/// Runs the serving RPS sweep and writes `BENCH_serve.json` under `dir`.
fn serve_sweep(dir: &str) {
    use pimflow_bench::serve_sweep::write_bench_artifact;
    println!("== Serving RPS sweep (toy, PIMFlow, Poisson arrivals) ==");
    let (report, path) = write_bench_artifact(std::path::Path::new(dir)).expect("serving sweep");
    println!(
        "  {:>7} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "rps", "p50 us", "p95 us", "p99 us", "thru req/s", "cache"
    );
    for p in &report.points {
        println!(
            "  {:>7.0} {:>9.1} {:>9.1} {:>9.1} {:>11.1} {:>8.1}%",
            p.rps,
            p.p50_us,
            p.p95_us,
            p.p99_us,
            p.throughput_rps,
            p.cache_hit_rate * 100.0
        );
    }
    println!("wrote {}", path.display());
}

/// Runs the fault-resilience sweep and writes `BENCH_resilience.json`
/// under `dir`.
fn resilience_sweep(dir: &str) {
    use pimflow_bench::resilience_sweep::write_bench_artifact;
    println!("== Fault-resilience sweep (severity x model, seeded channel faults) ==");
    let (report, path) = write_bench_artifact(std::path::Path::new(dir)).expect("resilience sweep");
    println!(
        "  {:>16} {:>5} {:>6} {:>7} {:>9} {:>9} {:>9} {:>7} {:>8}",
        "model", "sev", "drops", "repairs", "p50 pre", "p50 mid", "p50 post", "gpu%", "Δreplan"
    );
    for p in &report.points {
        println!(
            "  {:>16} {:>5.2} {:>6} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>6.1}% {:>7.2}%",
            p.model,
            p.severity,
            p.arrived - p.completed,
            p.repairs,
            p.p50_before_us,
            p.p50_during_us,
            p.p50_after_us,
            p.gpu_fallback_fraction * 100.0,
            p.repair_quality_delta * 100.0
        );
    }
    println!("wrote {}", path.display());
}

/// Runs the cold-vs-warm cost-cache sweep and writes `BENCH_costcache.json`
/// under `dir`.
fn cost_cache_sweep(dir: &str, smoke: bool) {
    use pimflow_bench::cost_cache_sweep::write_bench_artifact;
    println!("== Algorithm 1 search: cold vs warm cost cache ==");
    let (report, path) =
        write_bench_artifact(std::path::Path::new(dir), smoke).expect("cost-cache sweep");
    println!(
        "  jobs {} (host threads {})",
        report.jobs, report.host_threads
    );
    for m in &report.models {
        println!(
            "  {:<22} {:>4} nodes  cold {:>8.1}ms  warm {:>8.1}ms  {:5.1}x ({:?}, Welch p {:.3e})  \
             hit rate {:5.1}%  {} entries",
            m.model,
            m.nodes,
            m.cold_ms,
            m.warm_ms,
            m.speedup,
            m.floor_verdict,
            m.floor_p_value,
            m.warm_hit_rate * 100.0,
            m.entries
        );
    }
    println!(
        "  batch sweep ({}): shared {} entries vs independent {}",
        report.batch_model, report.shared_total_entries, report.independent_total_entries
    );
    for p in &report.batch_points {
        println!(
            "    batch {:>2}: alone {:>5} entries, shared cache now {:>5}",
            p.batch, p.independent_entries, p.shared_entries_after
        );
    }
    println!(
        "  speedup_floor_verdict: {:?} ({} samples per side)",
        report.speedup_floor_verdict, report.samples
    );
    println!("wrote {}", path.display());
}

/// Runs the fusion-group search sweep and writes `BENCH_fusion.json`
/// under `dir`.
fn fusion_sweep(dir: &str, smoke: bool) {
    use pimflow_bench::fusion_sweep::write_bench_artifact;
    println!("== Fusion-group search: unfused vs joint fusion x split ==");
    let (report, path) =
        write_bench_artifact(std::path::Path::new(dir), smoke).expect("fusion sweep");
    println!(
        "  jobs {} (host threads {}), identity probed at widths {:?}",
        report.jobs, report.host_threads, report.probed_widths
    );
    for m in &report.models {
        println!(
            "  {:<22} {:>4} nodes  groups {:>2} ({:>2} layers)  unfused {:>9.1}us  \
             fused {:>9.1}us (b2b {:>9.1}us, hid {:>6.1}us)  \
             traffic {:>10} -> {:>10} B (-{:>4.1}%)  never-worse {}",
            m.model,
            m.nodes,
            m.fused_groups,
            m.fused_layers,
            m.unfused_predicted_us,
            m.fused_predicted_us,
            m.no_overlap_predicted_us,
            m.overlap_hidden_us,
            m.unfused_traffic_bytes,
            m.fused_traffic_bytes,
            m.traffic_reduction_pct,
            m.fused_never_worse && m.overlap_never_worse
        );
    }
    println!("  fused_never_worse: {}", report.fused_never_worse);
    println!("  overlap_never_worse: {}", report.overlap_never_worse);
    println!(
        "  resnet_residual_candidates: {}",
        report.resnet_residual_candidates
    );
    println!(
        "  models_with_traffic_reduction: {} of {} ({} B total)",
        report.models_with_traffic_reduction,
        report.models.len(),
        report.total_traffic_reduction_bytes
    );
    let wc = &report.search_wall_clock;
    println!(
        "  search wall-clock on {}: unfused {:.0}us vs fused {:.0}us (p={:.3}) — overhead {}",
        report.wall_clock_model,
        wc.baseline_mean,
        wc.candidate_mean,
        wc.p_value,
        if report.search_overhead_significant {
            "significant"
        } else {
            "not significant"
        }
    );
    println!("wrote {}", path.display());
}

/// Runs the executor timing sweep and writes `BENCH_exec.json` under
/// `dir`.
fn exec_sweep(dir: &str, smoke: bool) {
    use pimflow_bench::exec_sweep::write_bench_artifact;
    println!("== Graph execution: sequential vs wave-scheduled worker pool ==");
    let (report, path) =
        write_bench_artifact(std::path::Path::new(dir), smoke).expect("exec sweep");
    println!(
        "  jobs {} (host threads {})",
        report.jobs, report.host_threads
    );
    for m in &report.models {
        println!(
            "  {:<22} {:>4} nodes/{:>3} waves  1 worker {:>8.1}ms  {} workers {:>8.1}ms  {:4.2}x  \
             peak {:>6.1} MiB vs retained {:>6.1} MiB ({:4.2}x)  identical {}",
            m.model,
            m.nodes,
            m.waves,
            m.sequential_ms,
            report.jobs,
            m.parallel_ms,
            m.speedup,
            m.peak_live_bytes as f64 / (1 << 20) as f64,
            m.retained_bytes as f64 / (1 << 20) as f64,
            m.peak_reduction,
            m.outputs_identical
        );
    }
    println!(
        "  speedup_floor_verdict: {:?} (floor {}x, Welch p {:.3e}, {} samples per side)",
        report.speedup_floor_verdict,
        report.speedup_floor,
        report.speedup_floor_p_value,
        report.samples
    );
    println!("  meets_memory_floor: {}", report.meets_memory_floor);
    println!("wrote {}", path.display());
}

/// Runs the fleet benchmark and writes `BENCH_fleet.json` under `dir`.
fn fleet_sweep(dir: &str, smoke: bool) {
    use pimflow_bench::fleet_sweep::write_bench_artifact;
    println!("== Multi-tenant fleet: router comparison, node faults, autoscaling ==");
    let (report, path) =
        write_bench_artifact(std::path::Path::new(dir), smoke).expect("fleet sweep");
    println!(
        "  fleet: {} big + {} edge nodes ({} ch), {} tenants, loads {:?} req/s",
        report.big_nodes,
        report.edge_nodes,
        report.edge_channels,
        report.tenants,
        report.rps_points
    );
    println!(
        "  {:>7} {:>13} {:>9} {:>9} {:>12} {:>7} {:>11} {:>7}",
        "rps", "router", "p50 us", "p99 us", "worst-t p99", "util", "thru req/s", "dropped"
    );
    for p in &report.routers {
        println!(
            "  {:>7.0} {:>13} {:>9.1} {:>9.1} {:>12.1} {:>6.1}% {:>11.1} {:>7}",
            p.rps,
            p.router,
            p.p50_us,
            p.p99_us,
            p.worst_tenant_p99_us,
            p.fleet_utilization * 100.0,
            p.throughput_rps,
            p.dropped
        );
    }
    println!("  per-tenant (slo-aware run):");
    for t in &report.tenant_points {
        println!(
            "    {:>6}: {:>6} arrived {:>6} done {:>5} rejected  p50 {:>9.1}  p99 {:>9.1} us",
            t.name, t.arrived, t.completed, t.rejected, t.p50_us, t.p99_us
        );
    }
    println!(
        "  faults: {} transitions, {} rerouted, {} aborted batches, {} of {} served, {} dropped",
        report.faults.node_fault_events,
        report.faults.rerouted,
        report.faults.aborted_batches,
        report.faults.completed,
        report.faults.admitted,
        report.faults.dropped
    );
    println!(
        "  autoscale: {} scale-ups, {} scale-downs, {} completed, {} dropped",
        report.autoscale.scale_ups,
        report.autoscale.scale_downs,
        report.autoscale.completed,
        report.autoscale.dropped
    );
    println!(
        "  zero_drops_on_healthy_fleet: {}",
        report.zero_drops_on_healthy_fleet
    );
    println!(
        "  slo_router_beats_round_robin: {}",
        report.slo_router_beats_round_robin
    );
    println!(
        "  zero_drops_under_node_faults: {}",
        report.zero_drops_under_node_faults
    );
    println!("wrote {}", path.display());
}

/// Runs the kernel comparison sweep and writes `BENCH_kernels.json`
/// under `dir`.
fn kernel_sweep(dir: &str, smoke: bool) {
    use pimflow_bench::kernel_sweep::write_bench_artifact;
    println!("== GEMM kernels: scalar oracle vs register-blocked micro-kernel ==");
    let (report, path) =
        write_bench_artifact(std::path::Path::new(dir), smoke).expect("kernel sweep");
    println!(
        "  host threads {}  jobs {}  samples/config {}  alpha {}",
        report.host_threads, report.jobs, report.samples_per_config, report.alpha
    );
    println!(
        "  simd_isa {}  simd_paths_bit_identical {}",
        report.simd_isa, report.simd_paths_bit_identical
    );
    println!(
        "  {:<26} {:>6} {:>5} {:>5} {:>14} {:>14} {:>8} {:>10} {:>7}",
        "config", "m", "k", "n", "scalar µs", "micro µs", "speedup", "p-value", "verdict"
    );
    for row in &report.configs {
        let c = &row.comparison;
        println!(
            "  {:<26} {:>6} {:>5} {:>5} {:>8.1} ± {:<5.1} {:>8.1} ± {:<5.1} {:>7.2}x {:>10.3e} {:>7}",
            row.config,
            row.m,
            row.k,
            row.n,
            c.baseline_mean,
            c.baseline_stddev,
            c.candidate_mean,
            c.candidate_stddev,
            c.speedup,
            c.p_value,
            c.decision
        );
    }
    println!("  probe counters (one instrumented run per path):");
    for p in &report.probes {
        println!(
            "    {:<20} called {:>6} times, took {:>10.1}µs ({:>8.2}µs on average)",
            p.function, p.calls, p.total_us, p.us_per_call
        );
    }
    println!(
        "  tolerance_check_passed: {}",
        report.tolerance_check_passed
    );
    println!(
        "  accepted {} / rejected {} of {} configs",
        report.accepted,
        report.rejected,
        report.configs.len()
    );
    println!("wrote {}", path.display());
}

fn main() {
    // Split `--jobs=<n>` (worker-pool width, any position) and `--smoke`
    // from the positional arguments.
    let mut positional = Vec::new();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if let Some(n) = arg.strip_prefix("--jobs=") {
            assert!(
                n.parse::<usize>().is_ok_and(|n| n > 0),
                "--jobs expects a positive integer, got `{n}`"
            );
            std::env::set_var(pimflow_pool::JOBS_ENV_VAR, n);
        } else if arg == "--smoke" {
            smoke = true;
        } else {
            positional.push(arg);
        }
    }
    let which = positional.first().cloned().unwrap_or_else(|| "all".into());
    if which == "csv" {
        let dir = positional
            .get(1)
            .cloned()
            .unwrap_or_else(|| "pimflow-out".into());
        csv(&dir);
        return;
    }
    if which == "serve" {
        let dir = positional.get(1).cloned().unwrap_or_else(|| ".".into());
        serve_sweep(&dir);
        return;
    }
    if which == "resilience" {
        let dir = positional.get(1).cloned().unwrap_or_else(|| ".".into());
        resilience_sweep(&dir);
        return;
    }
    if which == "costcache" {
        let dir = positional.get(1).cloned().unwrap_or_else(|| ".".into());
        cost_cache_sweep(&dir, smoke);
        return;
    }
    if which == "exec" {
        let dir = positional.get(1).cloned().unwrap_or_else(|| ".".into());
        exec_sweep(&dir, smoke);
        return;
    }
    if which == "fleet" {
        let dir = positional.get(1).cloned().unwrap_or_else(|| ".".into());
        fleet_sweep(&dir, smoke);
        return;
    }
    if which == "kernels" {
        let dir = positional.get(1).cloned().unwrap_or_else(|| ".".into());
        kernel_sweep(&dir, smoke);
        return;
    }
    if which == "fusion" {
        let dir = positional.get(1).cloned().unwrap_or_else(|| ".".into());
        fusion_sweep(&dir, smoke);
        return;
    }
    let needs_fig9 = matches!(which.as_str(), "all" | "fig9" | "fig12");
    let fig9_rows = if needs_fig9 { exp::fig9() } else { Vec::new() };
    let run = |name: &str| which == "all" || which == name;

    if run("table1") {
        table1();
    }
    if run("fig1") {
        fig1();
    }
    if run("fig3") {
        fig3();
    }
    if run("fig6") {
        fig6();
    }
    if run("fig8") {
        fig8();
    }
    if run("fig9") {
        fig9(&fig9_rows);
    }
    if run("fig10") {
        fig10();
    }
    if run("fig11") {
        fig11();
    }
    if run("fig12") {
        fig12(&fig9_rows);
    }
    if run("fig13") {
        fig13();
    }
    if run("fig14") {
        fig14();
    }
    if run("fig15") {
        fig15();
    }
    if run("fig16") {
        fig16();
    }
    if run("table2") {
        table2();
    }
    if run("internode") {
        internode();
    }
    if run("ablation") {
        ablation();
    }
    if run("autotune") {
        autotune();
    }
    if run("portability") {
        portability();
    }
    if run("crossover") {
        crossover();
    }
    if run("contention") {
        contention();
    }
}
