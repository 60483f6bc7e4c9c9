//! The `pimflow` command-line driver, mirroring the artifact's top-level
//! script (§A.5):
//!
//! ```text
//! # Step 1: profile each CONV layer with the MD-DP / pipelining passes
//! pimflow -m=profile -t=split    -n=<net>
//! pimflow -m=profile -t=pipeline -n=<net>
//!
//! # Step 2: compute the optimal graph from the profiles
//! pimflow -m=solve -n=<net>
//!
//! # Step 3: execute (simulate) the transformed model
//! pimflow -m=run -n=<net> [--gpu_only] [--policy=<Newton+|Newton++|MDDP|Pipeline|PIMFlow>]
//!
//! # Extra: dump per-layer PIM programs (ISA text) / model statistics
//! pimflow -m=trace -n=<net>
//! pimflow -m=info  -n=<net>
//!
//! # Serving: simulate an inference service in front of the device
//! pimflow serve --model <net> --policy <p> --rps <r> --duration <s> [--seed <n>]
//!               [--arrival fixed|poisson] [--trace-file <path>] [--max-batch <n>]
//!               [--timeout-us <t>] [--plan-cache-cap <n>] [--precompile]
//!               [--faults <severity>] [--fault-seed <n>] [--measure-replan]
//!               [--events-out <path>] [--report-out <path>]
//!
//! # Fleet: simulate a multi-tenant fleet of PIM-GPU nodes behind a router
//! pimflow fleet --model <net> [--nodes <n>] [--edge-nodes <n>] [--tenants <n>]
//!               [--rps <total>] [--traffic poisson|fixed|diurnal|bursty]
//!               [--router rr|least-loaded|slo] [--duration <s>] [--seed <n>]
//!               [--rate-limit <rps>] [--shed-depth <n>] [--autoscale]
//!               [--standby <n>] [--faults <severity>] [--fault-seed <n>]
//!               [--events-out <path>] [--report-out <path>]
//! ```
//!
//! Every mode accepts `--jobs=<n>` to set the worker-pool width of the
//! Algorithm 1 search (equivalent to the `PIMFLOW_JOBS` environment
//! variable; plans are bit-identical at any width).
//!
//! `<net>` is one of `toy`, `efficientnet-v1-b0`, `mobilenet-v2`,
//! `mnasnet-1.0`, `resnet-50`, `vgg-16` (plus `bert-3`/`bert-64` and the
//! scaled variants). Profiles and plans are stored under `pimflow-out/`,
//! playing the role of the artifact's `PIMFlow/layerwise` and
//! `PIMFlow/pipeline` metadata logs.

use pimflow::engine::{execute, EngineConfig};
use pimflow::policy::{evaluate, Policy};
use pimflow::search::{apply_plan, ExecutionPlan, Search, SearchOptions};
use pimflow_fleet::{run_fleet, FleetConfig, NodeClass, RouterPolicy, TenantSpec, TrafficSpec};
use pimflow_ir::models;
use pimflow_serve::{parse_trace, ArrivalSpec, EventLog, FaultScenario, ServeConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    mode: String,
    transform: Option<String>,
    net: Option<String>,
    gpu_only: bool,
    timeline: bool,
    policy: Policy,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: String::new(),
        transform: None,
        net: None,
        gpu_only: false,
        timeline: false,
        policy: Policy::Pimflow,
        out_dir: PathBuf::from("pimflow-out"),
    };
    for raw in std::env::args().skip(1) {
        let (key, value) = match raw.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (raw.clone(), None),
        };
        match key.as_str() {
            "-m" | "--mode" => args.mode = value.ok_or("-m requires a value")?,
            "-t" | "--transform" => args.transform = value,
            "-n" | "--net" => args.net = value,
            "--gpu_only" | "--gpu-only" => args.gpu_only = true,
            "--timeline" => args.timeline = true,
            "--policy" => {
                let v = value.ok_or("--policy requires a value")?;
                args.policy =
                    Policy::from_cli(&v).ok_or_else(|| format!("unknown policy `{v}`"))?;
            }
            "--out" => args.out_dir = PathBuf::from(value.ok_or("--out requires a value")?),
            "--jobs" | "-j" => set_jobs(&value.ok_or("--jobs requires a value")?)?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.mode.is_empty() {
        return Err("missing -m=<profile|solve|run>".into());
    }
    Ok(args)
}

/// Applies `--jobs`: the search and the bench sweeps read the pool width
/// from `PIMFLOW_JOBS`, so the flag just sets the variable for this
/// process (results are bit-identical at any width — only wall time
/// changes).
fn set_jobs(value: &str) -> Result<(), String> {
    let n: usize = value
        .parse()
        .map_err(|_| format!("--jobs expects a positive integer, got `{value}`"))?;
    if n == 0 {
        return Err("--jobs must be at least 1 (unset it for auto)".into());
    }
    std::env::set_var(pimflow_pool::JOBS_ENV_VAR, value);
    Ok(())
}

fn load_model(net: &Option<String>) -> Result<pimflow_ir::Graph, String> {
    let name = net.as_deref().ok_or("missing -n=<net>")?;
    models::by_name(name).ok_or_else(|| {
        format!(
            "unknown network `{name}` (try: toy, efficientnet-v1-b0, mobilenet-v2, \
             mnasnet-1.0, resnet-50, vgg-16, bert-3, bert-64)"
        )
    })
}

fn write_file(path: &Path, contents: String) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn write_json<T: pimflow_json::ToJson>(path: &Path, value: &T) -> Result<(), String> {
    write_file(path, pimflow_json::to_string_pretty(value))
}

/// Writes a serving run's event trace and report where the flags ask.
fn write_run<T: pimflow_json::ToJson>(
    events_out: &Option<PathBuf>,
    events: &EventLog,
    report_out: &Option<PathBuf>,
    report: &T,
) -> Result<(), String> {
    if let Some(path) = events_out {
        write_file(path, events.to_jsonl())?;
        println!(
            "  event trace ({} events) -> {}",
            events.len(),
            path.display()
        );
    }
    if let Some(path) = report_out {
        write_json(path, report)?;
        println!("  report -> {}", path.display());
    }
    Ok(())
}

fn profile(args: &Args) -> Result<(), String> {
    let g = load_model(&args.net)?;
    let cfg = EngineConfig::pimflow();
    let kind = args.transform.as_deref().unwrap_or("split");
    match kind {
        "split" => {
            let opts = SearchOptions {
                allow_pipeline: false,
                ..Default::default()
            };
            let plan = Search::new(&g, &cfg)
                .options(opts)
                .run()
                .map_err(|e| e.to_string())?;
            let path = args
                .out_dir
                .join("layerwise")
                .join(format!("{}.json", g.name));
            write_json(&path, &plan.profiles)?;
            println!(
                "profiled {} MD-DP candidate layers -> {}",
                plan.profiles.len(),
                path.display()
            );
        }
        "pipeline" => {
            let chains = pimflow::passes::find_chains(&g);
            let rows: Vec<(String, usize, f64)> = chains
                .iter()
                .map(|c| {
                    let head = g.node(c.nodes[0]).name.clone();
                    let cost = pimflow::search::estimate_chain_pipelined_us(&g, &cfg, c, 2);
                    (head, c.nodes.len(), cost)
                })
                .collect();
            let path = args
                .out_dir
                .join("pipeline")
                .join(format!("{}.json", g.name));
            write_json(&path, &rows)?;
            println!(
                "profiled {} pipelining candidate subgraphs -> {}",
                rows.len(),
                path.display()
            );
        }
        other => return Err(format!("unknown transform `{other}` (use split|pipeline)")),
    }
    Ok(())
}

fn solve(args: &Args) -> Result<(), String> {
    let g = load_model(&args.net)?;
    let cfg = args.policy.engine_config();
    let opts = args
        .policy
        .search_options()
        .ok_or("the baseline policy has nothing to solve")?;
    let plan = Search::new(&g, &cfg)
        .options(opts)
        .run()
        .map_err(|e| e.to_string())?;
    let path = args.out_dir.join("plans").join(format!("{}.json", g.name));
    write_json(&path, &plan)?;
    println!(
        "optimal plan for {}: {} decisions, predicted {:.1} us -> {}",
        g.name,
        plan.decisions.len(),
        plan.predicted_us,
        path.display()
    );
    Ok(())
}

/// Dumps the compiled ISA program of every PIM-candidate layer in the ISA
/// text format (the artifact's per-layer trace files, which the Newton
/// interpreter replays).
fn trace(args: &Args) -> Result<(), String> {
    use pimflow::codegen::{generate_program, PimWorkload};
    use pimflow_pimsim::ScheduleGranularity;
    let g = load_model(&args.net)?;
    let cfg = args.policy.engine_config();
    let dir = args.out_dir.join("traces").join(&g.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut count = 0;
    for id in g.node_ids() {
        if !g.is_pim_candidate(id) {
            continue;
        }
        let w = PimWorkload::from_node(&g, id);
        let program = generate_program(
            &w,
            &cfg.pim,
            cfg.pim_channels.max(1),
            ScheduleGranularity::Comp,
        );
        let path = dir.join(format!("{}.isa", g.node(id).name.replace("::", "_")));
        std::fs::write(&path, pimflow_isa::program_to_text(&program))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        count += 1;
    }
    println!("wrote {count} layer programs to {}", dir.display());
    Ok(())
}

/// Prints model statistics and writes the Graphviz DOT rendering.
fn info(args: &Args) -> Result<(), String> {
    let g = load_model(&args.net)?;
    println!("{}", g.summary());
    println!(
        "inter-node parallelism: {:.1}% of nodes have an independent peer",
        pimflow_ir::analysis::independent_node_fraction(&g) * 100.0
    );
    let dir = args.out_dir.join("dot");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.dot", g.name));
    std::fs::write(&path, g.to_dot()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("graph rendered to {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let g = load_model(&args.net)?;
    if args.gpu_only {
        let report = execute(&g, &EngineConfig::baseline_gpu()).map_err(|e| e.to_string())?;
        println!(
            "{} on GPU baseline (32 channels): {:.1} us, {:.0} uJ",
            g.name, report.total_us, report.energy_uj
        );
        return Ok(());
    }
    // Reuse a previously solved plan if present (Step 3 after Step 2),
    // otherwise search on the fly.
    let plan_path = args.out_dir.join("plans").join(format!("{}.json", g.name));
    let cfg = args.policy.engine_config();
    let report = match std::fs::read_to_string(&plan_path) {
        Ok(json) => {
            let plan: ExecutionPlan = pimflow_json::from_str(&json)
                .map_err(|e| format!("parsing {}: {e}", plan_path.display()))?;
            println!("using saved plan {}", plan_path.display());
            let transformed = apply_plan(&g, &plan).map_err(|e| e.to_string())?;
            execute(&transformed, &cfg).map_err(|e| e.to_string())?
        }
        Err(_) => evaluate(&g, args.policy).map_err(|e| e.to_string())?.report,
    };
    let base = execute(&g, &EngineConfig::baseline_gpu()).map_err(|e| e.to_string())?;
    println!(
        "{} under {}: {:.1} us ({:.2}x over GPU baseline), {:.0} uJ ({:.2}x)",
        g.name,
        args.policy.name(),
        report.total_us,
        base.total_us / report.total_us,
        report.energy_uj,
        base.energy_uj / report.energy_uj,
    );
    println!(
        "  gpu busy {:.1} us, pim busy {:.1} us, {} KB moved across the channel boundary",
        report.gpu_busy_us,
        report.pim_busy_us,
        report.transfer_bytes / 1024
    );
    if args.timeline {
        print!("{}", pimflow::report::render_timeline(&report, 72));
    }
    Ok(())
}

/// Flags of the `pimflow serve` subcommand, before they are folded into a
/// [`ServeConfig`].
#[derive(Debug)]
struct ServeArgs {
    cfg: ServeConfig,
    rps: f64,
    arrival_kind: String,
    trace_file: Option<PathBuf>,
    events_out: Option<PathBuf>,
    report_out: Option<PathBuf>,
    fault_severity: f64,
    fault_seed: Option<u64>,
}

/// Parses `pimflow serve` flags. Accepts both `--flag value` and
/// `--flag=value` spellings.
fn parse_serve_args(raw: &[String]) -> Result<ServeArgs, String> {
    let mut model: Option<String> = None;
    let mut sa = ServeArgs {
        cfg: ServeConfig::new("", Policy::Pimflow),
        rps: 100.0,
        arrival_kind: "fixed".to_string(),
        trace_file: None,
        events_out: None,
        report_out: None,
        fault_severity: 0.0,
        fault_seed: None,
    };
    let mut it = raw.iter();
    while let Some(tok) = it.next() {
        let (key, inline) = match tok.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (tok.clone(), None),
        };
        let mut value = |flag: &str| -> Result<String, String> {
            match &inline {
                Some(v) => Ok(v.clone()),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} requires a value")),
            }
        };
        let num = |flag: &str, v: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .map_err(|_| format!("{flag} expects a number, got `{v}`"))
        };
        let int = |flag: &str, v: &str| -> Result<usize, String> {
            v.parse::<usize>()
                .map_err(|_| format!("{flag} expects an integer, got `{v}`"))
        };
        match key.as_str() {
            "--model" | "-n" => model = Some(value(&key)?),
            "--policy" => {
                let v = value(&key)?;
                sa.cfg.policy =
                    Policy::from_cli(&v).ok_or_else(|| format!("unknown policy `{v}`"))?;
            }
            "--rps" => sa.rps = num(&key, &value(&key)?)?,
            "--arrival" => {
                let v = value(&key)?;
                match v.as_str() {
                    "fixed" | "poisson" | "trace" => sa.arrival_kind = v,
                    other => {
                        return Err(format!(
                            "unknown arrival `{other}` (use fixed|poisson|trace)"
                        ))
                    }
                }
            }
            "--trace-file" => sa.trace_file = Some(PathBuf::from(value(&key)?)),
            "--duration" => sa.cfg.duration_s = num(&key, &value(&key)?)?,
            "--seed" => sa.cfg.seed = int(&key, &value(&key)?)? as u64,
            "--max-batch" => sa.cfg.max_batch = int(&key, &value(&key)?)?,
            "--timeout-us" => sa.cfg.batch_timeout_us = num(&key, &value(&key)?)?,
            "--plan-cache-cap" => {
                let v = value(&key)?;
                let n = int(&key, &v)?;
                if n == 0 {
                    return Err(format!("{key} must be at least 1"));
                }
                sa.cfg.plan_cache_cap = n;
            }
            "--precompile" => sa.cfg.precompile = true,
            "--faults" => {
                let v = value(&key)?;
                sa.fault_severity = num(&key, &v)?;
                if !(0.0..=1.0).contains(&sa.fault_severity) {
                    return Err(format!("--faults expects a severity in [0, 1], got `{v}`"));
                }
            }
            "--fault-seed" => sa.fault_seed = Some(int(&key, &value(&key)?)? as u64),
            "--measure-replan" => sa.cfg.measure_replan = true,
            "--jobs" | "-j" => set_jobs(&value(&key)?)?,
            "--events-out" => sa.events_out = Some(PathBuf::from(value(&key)?)),
            "--report-out" => sa.report_out = Some(PathBuf::from(value(&key)?)),
            other => return Err(format!("unknown serve argument `{other}`")),
        }
    }
    sa.cfg.model = model.ok_or("missing --model <net>")?;
    if sa.rps <= 0.0 {
        return Err("--rps must be positive".into());
    }
    if sa.cfg.duration_s <= 0.0 {
        return Err("--duration must be positive".into());
    }
    sa.cfg.arrival = match sa.arrival_kind.as_str() {
        "fixed" => ArrivalSpec::Fixed { rps: sa.rps },
        "poisson" => ArrivalSpec::Poisson { rps: sa.rps },
        "trace" => {
            let path = sa
                .trace_file
                .as_ref()
                .ok_or("--arrival trace requires --trace-file <path>")?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            ArrivalSpec::Trace {
                times_us: parse_trace(&text)?,
            }
        }
        _ => unreachable!("validated above"),
    };
    if sa.arrival_kind != "trace" && sa.trace_file.is_some() {
        return Err("--trace-file requires --arrival trace".into());
    }
    if sa.fault_severity > 0.0 {
        let seed = sa.fault_seed.unwrap_or(sa.cfg.seed);
        let channels = sa.cfg.policy.engine_config().pim_channels;
        sa.cfg.faults =
            FaultScenario::from_seed(seed, channels, sa.fault_severity, sa.cfg.duration_s);
    } else if sa.fault_seed.is_some() {
        return Err("--fault-seed requires --faults <severity>".into());
    }
    Ok(sa)
}

fn serve(raw: &[String]) -> Result<(), String> {
    let sa = parse_serve_args(raw)?;
    let run = pimflow_serve::run(&sa.cfg).map_err(|e| e.to_string())?;
    let r = &run.report;
    println!(
        "serving {} under {} ({} arrival, seed {})",
        r.model, r.policy, sa.arrival_kind, sa.cfg.seed
    );
    println!(
        "  requests: {} arrived, {} completed in {} batches over {:.1} us",
        r.counters.arrived, r.counters.completed, r.counters.batches, r.makespan_us
    );
    println!("  throughput: {:.1} req/s", r.throughput_rps);
    println!(
        "  latency us: p50 {:.1}  p95 {:.1}  p99 {:.1}  mean {:.1}  max {:.1}",
        r.p50_us, r.p95_us, r.p99_us, r.mean_us, r.max_us
    );
    let sizes: Vec<String> = r
        .batch_sizes
        .iter()
        .map(|&(s, n)| format!("{s}x{n}"))
        .collect();
    println!("  batch sizes: {}", sizes.join(" "));
    println!(
        "  plan cache: {} hits, {} misses ({:.1}% hit rate), {} searches",
        r.counters.cache_hits,
        r.counters.cache_misses,
        r.cache_hit_rate * 100.0,
        r.counters.search_invocations
    );
    if r.pim_channel_utilization.is_empty() {
        println!("  pim channels: none under this policy");
    } else {
        let utils: Vec<String> = r
            .pim_channel_utilization
            .iter()
            .map(|u| format!("{:.1}", u * 100.0))
            .collect();
        println!("  pim channel utilization %: {}", utils.join(" "));
    }
    println!("  energy: {:.0} uJ", r.energy_uj);
    if !sa.cfg.faults.is_none() {
        println!(
            "  faults: {} transitions, {} retries, {} plan repairs",
            r.counters.fault_events, r.counters.retries, r.counters.repairs
        );
        println!(
            "  latency by phase us: before p50 {:.1} p99 {:.1} | during p50 {:.1} p99 {:.1} | after p50 {:.1} p99 {:.1}",
            r.p50_before_us, r.p99_before_us, r.p50_during_us, r.p99_during_us,
            r.p50_after_us, r.p99_after_us
        );
        println!(
            "  gpu fallback: {:.1}% of requests served all-GPU",
            r.gpu_fallback_fraction * 100.0
        );
        if sa.cfg.measure_replan {
            println!(
                "  repair vs full replan: {:+.2}% predicted latency",
                r.repair_quality_delta * 100.0
            );
        }
    }
    write_run(&sa.events_out, &run.events, &sa.report_out, r)
}

/// Flags of the `pimflow fleet` subcommand, before they are folded into a
/// [`FleetConfig`].
#[derive(Debug)]
struct FleetArgs {
    cfg: FleetConfig,
    model: String,
    tenants: usize,
    rps: f64,
    alpha: f64,
    traffic_kind: String,
    rate_limit: f64,
    burst: usize,
    edge_nodes: usize,
    edge_channels: usize,
    fault_severity: f64,
    fault_seed: Option<u64>,
    events_out: Option<PathBuf>,
    report_out: Option<PathBuf>,
}

/// Parses `pimflow fleet` flags. Accepts both `--flag value` and
/// `--flag=value` spellings.
fn parse_fleet_args(raw: &[String]) -> Result<FleetArgs, String> {
    let mut nodes = 4usize;
    let mut fa = FleetArgs {
        cfg: FleetConfig::new(4, Vec::new()),
        model: String::new(),
        tenants: 4,
        rps: 4_000.0,
        alpha: 1.2,
        traffic_kind: "poisson".to_string(),
        rate_limit: 0.0,
        burst: 4,
        edge_nodes: 0,
        edge_channels: 8,
        fault_severity: 0.0,
        fault_seed: None,
        events_out: None,
        report_out: None,
    };
    let mut it = raw.iter();
    while let Some(tok) = it.next() {
        let (key, inline) = match tok.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (tok.clone(), None),
        };
        let mut value = |flag: &str| -> Result<String, String> {
            match &inline {
                Some(v) => Ok(v.clone()),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} requires a value")),
            }
        };
        let num = |flag: &str, v: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .map_err(|_| format!("{flag} expects a number, got `{v}`"))
        };
        let int = |flag: &str, v: &str| -> Result<usize, String> {
            v.parse::<usize>()
                .map_err(|_| format!("{flag} expects an integer, got `{v}`"))
        };
        match key.as_str() {
            "--model" | "-n" => fa.model = value(&key)?,
            "--nodes" => nodes = int(&key, &value(&key)?)?,
            "--edge-nodes" => fa.edge_nodes = int(&key, &value(&key)?)?,
            "--edge-channels" => fa.edge_channels = int(&key, &value(&key)?)?,
            "--tenants" => fa.tenants = int(&key, &value(&key)?)?,
            "--rps" => fa.rps = num(&key, &value(&key)?)?,
            "--alpha" => fa.alpha = num(&key, &value(&key)?)?,
            "--traffic" => {
                let v = value(&key)?;
                match v.as_str() {
                    "poisson" | "fixed" | "diurnal" | "bursty" => fa.traffic_kind = v,
                    other => {
                        return Err(format!(
                            "unknown traffic `{other}` (use poisson|fixed|diurnal|bursty)"
                        ))
                    }
                }
            }
            "--router" => {
                let v = value(&key)?;
                fa.cfg.router = RouterPolicy::from_cli(&v)
                    .ok_or_else(|| format!("unknown router `{v}` (use rr|least-loaded|slo)"))?;
            }
            "--duration" => fa.cfg.duration_s = num(&key, &value(&key)?)?,
            "--seed" => fa.cfg.seed = int(&key, &value(&key)?)? as u64,
            "--max-batch" => fa.cfg.max_batch = int(&key, &value(&key)?)?,
            "--timeout-us" => fa.cfg.batch_timeout_us = num(&key, &value(&key)?)?,
            "--plan-cache-cap" => {
                let v = value(&key)?;
                let n = int(&key, &v)?;
                if n == 0 {
                    return Err("--plan-cache-cap must be at least 1".into());
                }
                fa.cfg.plan_cache_cap = n;
            }
            "--rate-limit" => fa.rate_limit = num(&key, &value(&key)?)?,
            "--burst" => fa.burst = int(&key, &value(&key)?)?,
            "--shed-depth" => fa.cfg.admission.shed_queue_depth = int(&key, &value(&key)?)?,
            "--autoscale" => fa.cfg.autoscale.enabled = true,
            "--standby" => fa.cfg.initial_standby = int(&key, &value(&key)?)?,
            "--faults" => {
                let v = value(&key)?;
                fa.fault_severity = num(&key, &v)?;
                if !(0.0..=1.0).contains(&fa.fault_severity) {
                    return Err(format!("--faults expects a severity in [0, 1], got `{v}`"));
                }
            }
            "--fault-seed" => fa.fault_seed = Some(int(&key, &value(&key)?)? as u64),
            "--precompile" => fa.cfg.precompile = true,
            "--jobs" | "-j" => set_jobs(&value(&key)?)?,
            "--events-out" => fa.events_out = Some(PathBuf::from(value(&key)?)),
            "--report-out" => fa.report_out = Some(PathBuf::from(value(&key)?)),
            other => return Err(format!("unknown fleet argument `{other}`")),
        }
    }
    if fa.model.is_empty() {
        return Err("missing --model <net>".into());
    }
    if fa.rps <= 0.0 {
        return Err("--rps must be positive".into());
    }
    if fa.tenants == 0 {
        return Err("--tenants must be at least 1".into());
    }
    if fa.cfg.duration_s <= 0.0 {
        return Err("--duration must be positive".into());
    }

    // Node classes: `--nodes` full-size PIMFlow nodes, plus an optional
    // heterogeneous tier of `--edge-nodes` with fewer PIM channels.
    let mut classes = vec![NodeClass::new("node", Policy::Pimflow, nodes)];
    if fa.edge_nodes > 0 {
        classes.push(NodeClass {
            pim_channels: Some(fa.edge_channels.max(1)),
            ..NodeClass::new("edge", Policy::Pimflow, fa.edge_nodes)
        });
    }
    fa.cfg.classes = classes;

    // Tenants: a heavy-tailed Zipf(alpha) split of the total offered rate,
    // with each tenant's share wrapped in the requested stream shape.
    let duration = fa.cfg.duration_s;
    fa.cfg.tenants = pimflow_fleet::zipf_weights(fa.tenants, fa.alpha)
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let share = fa.rps * w;
            let traffic = match fa.traffic_kind.as_str() {
                "fixed" => TrafficSpec::Fixed { rps: share },
                "poisson" => TrafficSpec::Poisson { rps: share },
                "diurnal" => TrafficSpec::Diurnal {
                    mean_rps: share,
                    amplitude: 0.8,
                    period_s: duration,
                },
                "bursty" => TrafficSpec::Bursty {
                    base_rps: share * 0.5,
                    burst_rps: share * 2.5,
                    mean_dwell_s: duration / 10.0,
                },
                _ => unreachable!("validated above"),
            };
            TenantSpec {
                rate_limit_rps: fa.rate_limit,
                burst: fa.burst,
                ..TenantSpec::new(format!("t{i}"), &fa.model, traffic)
            }
        })
        .collect();

    if fa.fault_severity > 0.0 {
        // Replayed at *node* granularity: a down event fails a whole node.
        let seed = fa.fault_seed.unwrap_or(fa.cfg.seed);
        fa.cfg.node_faults = FaultScenario::from_seed(
            seed,
            fa.cfg.node_count(),
            fa.fault_severity,
            fa.cfg.duration_s,
        );
    } else if fa.fault_seed.is_some() {
        return Err("--fault-seed requires --faults <severity>".into());
    }
    fa.cfg.validate()?;
    Ok(fa)
}

fn fleet(raw: &[String]) -> Result<(), String> {
    let fa = parse_fleet_args(raw)?;
    let out = run_fleet(&fa.cfg).map_err(|e| e.to_string())?;
    let r = &out.report;
    println!(
        "fleet of {} nodes ({} standby), {} tenants on {}, {} router, seed {}",
        fa.cfg.node_count(),
        fa.cfg.initial_standby,
        r.tenants.len(),
        fa.model,
        r.router,
        r.seed
    );
    println!(
        "  requests: {} arrived, {} admitted, {} completed, {} rejected, {} dropped",
        r.arrived, r.admitted, r.completed, r.rejected, r.dropped
    );
    println!(
        "  throughput {:.1} req/s over {:.1} us makespan, fleet utilization {:.1}%",
        r.throughput_rps,
        r.makespan_us,
        r.fleet_utilization * 100.0
    );
    println!(
        "  latency us: p50 {:.1}  p99 {:.1}  mean {:.1}  max {:.1}",
        r.p50_us, r.p99_us, r.mean_us, r.max_us
    );
    if r.node_fault_events > 0 || r.rerouted > 0 {
        println!(
            "  faults: {} node transitions, {} requests rerouted",
            r.node_fault_events, r.rerouted
        );
    }
    if r.scale_ups > 0 || r.scale_downs > 0 {
        println!(
            "  autoscaler: {} scale-ups, {} scale-downs",
            r.scale_ups, r.scale_downs
        );
    }
    for t in &r.tenants {
        println!(
            "  tenant {:>6}: {:>5} arrived {:>5} done {:>4} rejected | p50 {:>8.1} p99 {:>8.1} us",
            t.name,
            t.arrived,
            t.completed,
            t.rejected_rate_limited + t.rejected_shed + t.rejected_unavailable,
            t.p50_us,
            t.p99_us
        );
    }
    for n in &r.nodes {
        println!(
            "  node {:>2} ({:>4}, {}): {:>4} batches {:>5} reqs, busy {:.1}% , cache hit {:.0}%, {}",
            n.node,
            n.class,
            n.policy,
            n.batches,
            n.completed,
            n.utilization * 100.0,
            n.cache_hit_rate * 100.0,
            n.final_state
        );
    }
    write_run(&fa.events_out, &out.events, &fa.report_out, r)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("fleet") {
        return match fleet(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: pimflow fleet --model <net> [--nodes <n>] [--edge-nodes <n>] \
                     [--edge-channels <c>] [--tenants <n>] [--rps <total>] [--alpha <a>] \
                     [--traffic poisson|fixed|diurnal|bursty] [--router rr|least-loaded|slo] \
                     [--duration <s>] [--seed <n>] [--max-batch <n>] [--timeout-us <t>] \
                     [--plan-cache-cap <n>] [--rate-limit <rps>] [--burst <n>] \
                     [--shed-depth <n>] [--autoscale] [--standby <n>] [--faults <severity>] \
                     [--fault-seed <n>] [--precompile] [--jobs <n>] [--events-out <path>] \
                     [--report-out <path>]"
                );
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some("serve") {
        return match serve(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: pimflow serve --model <net> [--policy <p>] [--rps <r>] \
                     [--arrival fixed|poisson|trace] [--trace-file <path>] [--duration <s>] \
                     [--seed <n>] [--max-batch <n>] [--timeout-us <t>] [--plan-cache-cap <n>] \
                     [--precompile] [--faults <severity>] [--fault-seed <n>] \
                     [--measure-replan] [--jobs <n>] [--events-out <path>] \
                     [--report-out <path>]"
                );
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: pimflow -m=<profile|solve|trace|info|run> [-t=<split|pipeline>] -n=<net> [--gpu_only] [--policy=<p>] [--out=<dir>]");
            eprintln!("       pimflow serve --model <net> [--policy <p>] [--rps <r>] [--duration <s>] ...");
            eprintln!("       pimflow fleet --model <net> [--nodes <n>] [--tenants <n>] [--router rr|least-loaded|slo] ...");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.mode.as_str() {
        "profile" => profile(&args),
        "solve" => solve(&args),
        "trace" => trace(&args),
        "info" => info(&args),
        "run" => run(&args),
        other => Err(format!("unknown mode `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
