//! The four workloads. Each draws its inputs from the seed, sets up
//! repeatedly (see [`SETUP_MIN_REPS`](crate::run::SETUP_MIN_REPS)), then
//! measures operations round-robin over its models:
//!
//! - `compile`: Algorithm-1 search plus `apply_plan` on zoo models at
//!   seeded input sizes (the compiler's own cost and the latency its plans
//!   promise);
//! - `infer`: numerical inference of compiled models on the kernel
//!   executor, checked against the untransformed model, plus the engine's
//!   simulated timeline of the same graph;
//! - `serve`: serving episodes of seeded Poisson traffic through the
//!   single-node serving simulator;
//! - `fleet`: multi-tenant episodes through the fleet simulator.
//!
//! The seed moves every simulated figure: without it the deterministic
//! simulators would report the same latencies on every run. It picks each
//! model's input extent in `compile` and `infer`, and the traffic of every
//! episode in `serve` and `fleet`.

use crate::run::{Op, Run};
use pimflow::costcache::CacheCounters;
use pimflow::engine::{execute, EngineConfig};
use pimflow::policy::Policy;
use pimflow::search::{apply_plan, Decision, ExecutionPlan, Search};
use pimflow_fleet::{run_fleet, FleetConfig, NodeClass, RouterPolicy, TrafficSpec};
use pimflow_ir::{infer_shapes, models, Graph};
use pimflow_kernels::{input_tensors, run_graph_with, ExecOptions, Tensor, Tolerance};
use pimflow_rng::{splitmix64, Rng};
use pimflow_serve::{arrival_times_us, ArrivalSpec, FaultScenario, ServeConfig};
use std::time::Instant;

/// A zoo model and its native input extent: the image side for CNNs, the
/// token count for the BERT-like encoder (`bert`).
#[derive(Debug, Clone, Copy)]
struct ModelSpec {
    name: &'static str,
    native: usize,
}

const fn spec(name: &'static str, native: usize) -> ModelSpec {
    ModelSpec { name, native }
}

impl ModelSpec {
    /// The input extents a seed draws from: the native one and up to two
    /// steps of about 1% (one pixel or token at least) either side.
    fn extents(self) -> [usize; 5] {
        let step = (self.native / 112).max(1);
        std::array::from_fn(|k| self.native - 2 * step + k * step)
    }

    /// The model with its input extent set to `size`.
    fn build(self, size: usize) -> Result<Graph, String> {
        if self.name == "bert" {
            return Ok(models::bert_like(size));
        }
        let mut g = models::by_name(self.name).ok_or(format!("unknown model {}", self.name))?;
        for v in g.inputs().to_vec() {
            if let Some(desc) = g.value_mut(v).desc.as_mut() {
                desc.shape = desc.shape.with_dim(1, size).with_dim(2, size);
            }
        }
        infer_shapes(&mut g).map_err(|e| format!("{} at {size}px: {e}", self.name))?;
        g.validate()
            .map_err(|e| format!("{} at {size}px: {e}", self.name))?;
        Ok(g)
    }
}

/// Each model's input extent, drawn from `rng`.
fn draw_extents(specs: &[ModelSpec], rng: &mut Rng) -> Vec<usize> {
    specs
        .iter()
        .map(|s| s.extents()[rng.below(5) as usize])
        .collect()
}

/// `name@extent` for every model.
fn names(specs: &[ModelSpec], extents: &[usize]) -> Vec<String> {
    specs
        .iter()
        .zip(extents)
        .map(|(s, z)| format!("{}@{z}", s.name))
        .collect()
}

/// Every model built at its extent.
fn build_all(specs: &[ModelSpec], extents: &[usize]) -> Result<Vec<Graph>, String> {
    specs
        .iter()
        .zip(extents)
        .map(|(s, &z)| s.build(z))
        .collect()
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn hit_rate(c: &CacheCounters) -> f64 {
    c.hits as f64 / (c.hits + c.misses).max(1) as f64
}

/// Searches `g` on one worker and applies the plan.
fn compile_model(g: &Graph, cfg: &EngineConfig) -> Result<(ExecutionPlan, Graph), String> {
    let plan = Search::new(g, cfg)
        .pool(1)
        .run()
        .map_err(|e| format!("search on {}: {e}", g.name))?;
    let transformed = apply_plan(g, &plan).map_err(|e| format!("apply on {}: {e}", g.name))?;
    Ok((plan, transformed))
}

/// A plan is correct when its latency is a positive finite number, every
/// decision names a node of `g`, its JSON form decodes to the same plan,
/// and the graph it produces is well formed.
fn check_plan(g: &Graph, plan: &ExecutionPlan, transformed: &Graph) -> Result<(), String> {
    if !(plan.predicted_us > 0.0 && plan.predicted_us.is_finite()) {
        return Err(format!("{}: predicted {} us", g.name, plan.predicted_us));
    }
    if let Some((name, _)) = plan
        .decisions
        .iter()
        .find(|(n, _)| g.find_node(n).is_none())
    {
        return Err(format!("{}: decision for unknown node {name}", g.name));
    }
    let back: ExecutionPlan = pimflow_json::from_str(&pimflow_json::to_string(plan))
        .map_err(|e| format!("{}: plan JSON: {e}", g.name))?;
    if &back != plan {
        return Err(format!("{}: plan JSON does not round-trip", g.name));
    }
    transformed
        .validate()
        .map_err(|e| format!("{}: transformed graph: {e}", g.name))
}

fn count_decisions(plan: &ExecutionPlan, pred: fn(&Decision) -> bool) -> f64 {
    plan.decisions.iter().filter(|(_, d)| pred(d)).count() as f64
}

const COMPILE_MODELS: [ModelSpec; 8] = [
    spec("toy", 32),
    spec("squeezenet-1.1", 224),
    spec("mobilenet-v2", 224),
    spec("mnasnet-1.0", 224),
    spec("efficientnet-v1-b0", 224),
    spec("resnet-50", 224),
    spec("vgg-16", 224),
    spec("bert", 16),
];

/// Each operation compiles one model, at its seeded input extent, with a
/// cold cost cache. Besides [`check_plan`], every compile of a model must
/// reproduce the first plan found for it: the search is deterministic.
pub fn compile(seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let cfg = EngineConfig::pimflow();
    let extents = draw_extents(&COMPILE_MODELS, &mut Rng::seed_from_u64(seed));
    let mut run = Run::new(names(&COMPILE_MODELS, &extents), trace);
    let graphs = run.setup(|| build_all(&COMPILE_MODELS, &extents))?;
    let mut first: Vec<Option<ExecutionPlan>> = vec![None; graphs.len()];
    run.measure(0, seconds, |tr, m, i| {
        let g = &graphs[m];
        let t = Instant::now();
        let plan = tr.span("search", m, i, || Search::new(g, &cfg).pool(1).run());
        let plan = plan.map_err(|e| format!("search on {}: {e}", g.name))?;
        let transformed = tr.span("apply", m, i, || apply_plan(g, &plan));
        let transformed = transformed.map_err(|e| format!("apply on {}: {e}", g.name))?;
        let host_ms = elapsed_ms(t);
        check_plan(g, &plan, &transformed)?;
        if first[m].get_or_insert_with(|| plan.clone()) != &plan {
            return Err(format!(
                "{}: a second search found a different plan",
                g.name
            ));
        }
        Ok(Op {
            input: 0,
            host_ms,
            sim_p50_us: plan.predicted_us,
            sim_p99_us: plan.predicted_us,
            attempted: 1,
            failed: 0,
            counters: vec![
                (
                    "pim_decisions",
                    count_decisions(&plan, |d| !matches!(d, Decision::Gpu)),
                ),
                (
                    "fused_groups",
                    count_decisions(&plan, |d| matches!(d, Decision::Fused { .. })),
                ),
            ],
        })
    });
    Ok(run)
}

/// Inference runs real convolutions on the host, so the CNNs take half
/// their native image side to keep a run's operation count high. The
/// encoder is left out: the executor materialises its weights on every
/// run, so its time is a third of a gigabyte of page faults rather than
/// arithmetic.
const INFER_MODELS: [ModelSpec; 5] = [
    spec("toy", 32),
    spec("squeezenet-1.1", 112),
    spec("mobilenet-v2", 112),
    spec("mnasnet-1.0", 112),
    spec("resnet-50", 112),
];

/// A compiled model ready to serve inferences.
struct Deployed {
    original: Graph,
    transformed: Graph,
    predicted_us: f64,
    inputs: Vec<Tensor>,
    reference: Vec<Tensor>,
}

/// Set-up compiles every model at its seeded input extent. The
/// untransformed models' outputs on seeded inputs are computed after the
/// timed set-up, as the benchmark's oracle. Each operation then runs one
/// inference of a compiled graph on the executor (checked against the
/// oracle) and simulates it on the engine.
pub fn infer(seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let cfg = EngineConfig::pimflow();
    let exec = ExecOptions {
        jobs: Some(1),
        ..ExecOptions::default()
    };
    let mut rng = Rng::seed_from_u64(seed);
    let extents = draw_extents(&INFER_MODELS, &mut rng);
    let mut run = Run::new(names(&INFER_MODELS, &extents), trace);
    let mut deployed: Vec<Deployed> = run.setup(|| {
        build_all(&INFER_MODELS, &extents)?
            .into_iter()
            .map(|original| {
                let (plan, transformed) = compile_model(&original, &cfg)?;
                Ok(Deployed {
                    original,
                    transformed,
                    predicted_us: plan.predicted_us,
                    inputs: Vec::new(),
                    reference: Vec::new(),
                })
            })
            .collect()
    })?;
    for d in &mut deployed {
        d.inputs = input_tensors(&d.original, rng.next_u64());
        d.reference = run_graph_with(&d.original, &d.inputs, &exec)
            .map_err(|e| format!("reference run of {}: {e}", d.original.name))?
            .outputs;
    }
    let tol = Tolerance::end_to_end();
    run.measure(1, seconds, |tr, m, i| {
        let d = &deployed[m];
        let name = &d.transformed.name;
        let t = Instant::now();
        let out = tr.span("executor", m, i, || {
            run_graph_with(&d.transformed, &d.inputs, &exec)
        });
        let out = out.map_err(|e| format!("executor on {name}: {e}"))?;
        let report = tr.span("engine", m, i, || execute(&d.transformed, &cfg));
        let report = report.map_err(|e| format!("engine on {name}: {e}"))?;
        let host_ms = elapsed_ms(t);
        if out.outputs.len() != d.reference.len() {
            return Err(format!("{name}: output count changed"));
        }
        for (got, want) in out.outputs.iter().zip(&d.reference) {
            tol.check(got.data(), want.data())
                .map_err(|e| format!("{name}: outputs differ from the original model: {e}"))?;
        }
        let total = report.total_us;
        if !(total > 0.0 && total.is_finite()) {
            return Err(format!("{name}: simulated {total} us"));
        }
        Ok(Op {
            input: 0,
            host_ms,
            sim_p50_us: total,
            sim_p99_us: total,
            attempted: 1,
            failed: 0,
            counters: vec![
                (
                    "fidelity_gap",
                    (total - d.predicted_us).abs() / d.predicted_us,
                ),
                ("pim_busy_share", report.pim_busy_us / total),
                (
                    "host_pim_kib",
                    (report.transfer_bytes + report.host_to_pim_bytes) as f64 / 1024.0,
                ),
                ("energy_uj", report.energy_uj),
                (
                    "exec_peak_mib",
                    out.stats.peak_live_bytes as f64 / (1024.0 * 1024.0),
                ),
            ],
        })
    });
    Ok(run)
}

/// Largest batch the serving and fleet batchers form, as in the serving
/// sweep of `figures serve` (the command line's default is 8). Every
/// episode compiles a plan for every batch size up front, so this bounds an
/// episode's host work.
const MAX_BATCH: usize = 4;

/// Distinct seeded traffic inputs per model. Episodes cycle over them, so
/// a run that fits this many rounds reports simulated latencies that do
/// not depend on how many more it fits.
const TRAFFIC_INPUTS: usize = 4;

/// The traffic input an operation uses: its round modulo
/// [`TRAFFIC_INPUTS`].
fn traffic_input(i: u64, models: usize) -> usize {
    (i / models as u64) as usize % TRAFFIC_INPUTS
}

/// A start-up's one-request run must complete that request.
fn check_startup(what: &str, arrived: u64, completed: u64, p50_us: f64) -> Result<(), String> {
    if arrived == 0 || completed != arrived || !(p50_us > 0.0 && p50_us.is_finite()) {
        return Err(format!(
            "{what} start-up: {completed} of {arrived} requests served, p50 {p50_us} us"
        ));
    }
    Ok(())
}

/// The oracle run after a timed start-up: each model's single-request
/// graph compiles to a sound plan under the policy the servers run.
fn check_models(models: &[&str]) -> Result<(), String> {
    let cfg = Policy::Pimflow.engine_config();
    for name in models {
        let g = models::by_name(name).ok_or(format!("unknown model {name}"))?;
        let (plan, transformed) = compile_model(&g, &cfg)?;
        check_plan(&g, &plan, &transformed)?;
    }
    Ok(())
}

/// Serving models and their offered Poisson load, requests per second:
/// toy and mobilenet-v2 at 2000 rps, the rate of the README's fault
/// injection example and a point of the serving sweep of `figures serve`;
/// resnet-50 at the 100 rps of the README's serving example.
const SERVE_MODELS: [(&str, f64); 3] = [
    ("toy", 2_000.0),
    ("mobilenet-v2", 2_000.0),
    ("resnet-50", 100.0),
];

/// Expected requests per serving episode. A model's window is this many
/// requests at its rate, so every p99 has fifty requests beyond it.
const SERVE_REQUESTS: f64 = 5_000.0;

/// A serving run of `model` over the arrival times `times_us`, with
/// plans precompiled for every batch size.
fn serve_config(model: &str, times_us: Vec<f64>, window_s: f64) -> ServeConfig {
    ServeConfig {
        arrival: ArrivalSpec::Trace { times_us },
        duration_s: window_s,
        max_batch: MAX_BATCH,
        precompile: true,
        faults: FaultScenario::none(),
        ..ServeConfig::new(model, Policy::Pimflow)
    }
}

/// Set-up starts one server per model: `pimflow_serve::run` with plans
/// precompiled and a single request at t = 0. The plan check runs after
/// the timed set-up. Each operation is then one serving episode over one
/// of the model's seeded Poisson arrival traces. An episode starts with
/// empty caches and compiles a plan for every batch size before serving,
/// so its host work does not depend on which batch sizes the traffic
/// happens to form.
pub fn serve(seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let model_names: Vec<&str> = SERVE_MODELS.iter().map(|m| m.0).collect();
    let mut state = seed;
    let traces: Vec<Vec<Vec<f64>>> = SERVE_MODELS
        .iter()
        .map(|&(_, rps)| {
            (0..TRAFFIC_INPUTS)
                .map(|_| {
                    let spec = ArrivalSpec::Poisson { rps };
                    arrival_times_us(&spec, SERVE_REQUESTS / rps, splitmix64(&mut state))
                })
                .collect()
        })
        .collect();
    let mut run = Run::new(model_names.iter().map(|m| m.to_string()).collect(), trace);
    run.setup(|| {
        for model in &model_names {
            let r = pimflow_serve::run(&serve_config(model, vec![0.0], 1e-3))
                .map_err(|e| format!("starting {model}: {e}"))?
                .report;
            check_startup(model, r.counters.arrived, r.counters.completed, r.p50_us)?;
        }
        Ok(())
    })?;
    check_models(&model_names)?;
    run.measure(0, seconds, |tr, m, i| {
        let (model, rps) = SERVE_MODELS[m];
        let input = traffic_input(i, SERVE_MODELS.len());
        let times_us = traces[m][input].clone();
        let arrivals = times_us.len() as u64;
        let cfg = serve_config(model, times_us, SERVE_REQUESTS / rps);
        let t = Instant::now();
        let out = tr.span("serve", m, i, || pimflow_serve::run(&cfg));
        let r = out.map_err(|e| format!("serving {model}: {e}"))?.report;
        let host_ms = elapsed_ms(t);
        let c = &r.counters;
        if c.arrived != arrivals || !(r.p50_us > 0.0 && r.p99_us >= r.p50_us) {
            return Err(format!(
                "serving {model}: {} of {arrivals} arrivals, p50 {} us, p99 {} us",
                c.arrived, r.p50_us, r.p99_us
            ));
        }
        let completed = c.completed.max(1) as f64;
        let channels = r.pim_channel_utilization.len().max(1) as f64;
        Ok(Op {
            input,
            host_ms,
            sim_p50_us: r.p50_us,
            sim_p99_us: r.p99_us,
            attempted: c.arrived,
            failed: c.arrived - c.completed.min(c.arrived),
            counters: vec![
                ("cost_cache_hit_rate", hit_rate(&r.cost_cache)),
                ("mean_batch", c.completed as f64 / c.batches.max(1) as f64),
                (
                    "pim_busy_share",
                    r.pim_channel_utilization.iter().sum::<f64>() / channels,
                ),
                (
                    "host_pim_kib",
                    r.host_pim_traffic_bytes as f64 / completed / 1024.0,
                ),
                ("energy_uj", r.energy_uj / completed),
                ("fused_groups", r.fused_groups as f64),
            ],
        })
    });
    Ok(run)
}

/// Simulated seconds of traffic per fleet episode, as in the README's
/// fleet example.
const FLEET_WINDOW_S: f64 = 0.5;

/// The model every fleet tenant sends.
const FLEET_MODEL: &str = "mobilenet-v2";

/// The fleet scenario of the README's `pimflow fleet` example without its
/// faults and autoscaler: three full PIMFlow nodes and two 6-channel edge
/// nodes behind the SLO-aware router, four tenants sharing 8000 rps of
/// mobilenet-v2 traffic in the command line's Zipf(1.2) split. Where the
/// example gives every tenant diurnal traffic, the tenants here send
/// steady, bursty, diurnal and steady streams, each shape with the
/// parameters the command line gives it.
fn fleet_config(seed: u64) -> FleetConfig {
    let mut tenants = FleetConfig::heavy_tailed_tenants(4, FLEET_MODEL, 8_000.0, 1.2);
    for (i, t) in tenants.iter_mut().enumerate() {
        let TrafficSpec::Poisson { rps } = t.traffic else {
            continue;
        };
        match i {
            1 => {
                t.traffic = TrafficSpec::Bursty {
                    base_rps: rps * 0.5,
                    burst_rps: rps * 2.5,
                    mean_dwell_s: FLEET_WINDOW_S / 10.0,
                }
            }
            2 => {
                t.traffic = TrafficSpec::Diurnal {
                    mean_rps: rps,
                    amplitude: 0.8,
                    period_s: FLEET_WINDOW_S,
                }
            }
            _ => {}
        }
    }
    let mut cfg = FleetConfig::new(0, tenants);
    cfg.classes = vec![
        NodeClass::new("big", Policy::Pimflow, 3),
        NodeClass {
            pim_channels: Some(6),
            ..NodeClass::new("edge", Policy::Pimflow, 2)
        },
    ];
    cfg.router = RouterPolicy::SloAware;
    cfg.duration_s = FLEET_WINDOW_S;
    cfg.max_batch = MAX_BATCH;
    cfg.precompile = true;
    cfg.seed = seed;
    cfg
}

/// Set-up starts the fleet: `run_fleet` on the scenario with one request
/// per tenant at t = 0, which compiles the router's estimates and every
/// node's plans. The plan check runs after the timed set-up. Each
/// operation is then one fleet episode with one of the seeded fleet seeds,
/// from which every tenant's traffic stream derives.
pub fn fleet(seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let mut state = seed;
    let seeds: Vec<u64> = (0..TRAFFIC_INPUTS)
        .map(|_| splitmix64(&mut state))
        .collect();
    let mut startup = fleet_config(0);
    for t in &mut startup.tenants {
        t.traffic = TrafficSpec::Fixed { rps: 1.0 };
    }
    startup.duration_s = 1e-3;
    let mut run = Run::new(vec![FLEET_MODEL.to_string()], trace);
    run.setup(|| {
        let r = run_fleet(&startup)
            .map_err(|e| format!("starting the fleet: {e}"))?
            .report;
        check_startup("fleet", r.arrived, r.completed, r.p50_us)
    })?;
    check_models(&[FLEET_MODEL])?;
    run.measure(0, seconds, |tr, m, i| {
        let input = traffic_input(i, 1);
        let cfg = fleet_config(seeds[input]);
        let t = Instant::now();
        let out = tr.span("fleet", m, i, || run_fleet(&cfg));
        let r = out.map_err(|e| format!("fleet: {e}"))?.report;
        let host_ms = elapsed_ms(t);
        if r.dropped != 0 || r.rejected != 0 || !(r.p50_us > 0.0 && r.p99_us >= r.p50_us) {
            return Err(format!(
                "fleet: {} dropped, {} rejected, p50 {} us, p99 {} us",
                r.dropped, r.rejected, r.p50_us, r.p99_us
            ));
        }
        let completed = r.completed.max(1) as f64;
        let batches: u64 = r.nodes.iter().map(|n| n.batches).sum();
        let cost = r
            .nodes
            .iter()
            .fold(CacheCounters::default(), |acc, n| CacheCounters {
                hits: acc.hits + n.cost_cache.hits,
                misses: acc.misses + n.cost_cache.misses,
                entries: acc.entries + n.cost_cache.entries,
            });
        Ok(Op {
            input,
            host_ms,
            sim_p50_us: r.p50_us,
            sim_p99_us: r.p99_us,
            attempted: r.arrived,
            failed: r.arrived - r.completed.min(r.arrived),
            counters: vec![
                ("cost_cache_hit_rate", hit_rate(&cost)),
                ("mean_batch", r.completed as f64 / batches.max(1) as f64),
                ("node_utilization", r.fleet_utilization),
                (
                    "energy_uj",
                    r.nodes.iter().map(|n| n.energy_uj).sum::<f64>() / completed,
                ),
            ],
        })
    });
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every extent a seed can draw builds a valid graph.
    #[test]
    fn every_seeded_extent_builds() {
        for s in COMPILE_MODELS.iter().chain(&INFER_MODELS) {
            for z in s.extents() {
                if let Err(e) = s.build(z) {
                    panic!("{e}");
                }
            }
        }
    }
}
