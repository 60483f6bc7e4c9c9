//! Single-node serving: [`ServeConfig`], [`ServeReport`] and [`run`].
//!
//! A serving run is one node behind one tenant. [`run`] materializes the
//! arrival stream, hands it to the one discrete-event loop ([`crate::sim`])
//! as a one-node, one-tenant fleet whose node also replays the run's
//! channel faults, and folds the node's accumulators into a
//! [`ServeReport`]. The loop does the rest: dynamic batching, the LRU plan
//! cache (one plan per model, policy, batch size and channel mask), plan
//! repair and batch retries on channel failures, and the event trace.

use crate::arrival::{arrival_times_us, ArrivalSpec};
use crate::cache::DEFAULT_PLAN_CACHE_CAP;
use crate::config::{FleetConfig, NodeClass, TenantSpec};
use crate::events::EventLog;
use crate::fault::FaultScenario;
use crate::metrics::Counters;
use crate::sim::{simulate, NodeSpec};
use crate::traffic::TrafficSpec;
use pimflow::costcache::CacheCounters;
use pimflow::policy::Policy;
use pimflow_ir::models;
use pimflow_json::json_struct;
use std::fmt;

/// Configuration of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Model name; aliases such as `resnet50` normalize to the zoo's
    /// canonical `resnet-50` spelling.
    pub model: String,
    /// Offloading mechanism the device runs under.
    pub policy: Policy,
    /// Arrival stream.
    pub arrival: ArrivalSpec,
    /// Run window in seconds (arrivals beyond it are dropped; queued work
    /// still drains).
    pub duration_s: f64,
    /// PRNG seed (Poisson arrivals).
    pub seed: u64,
    /// Dynamic batching: maximum batch size.
    pub max_batch: usize,
    /// Dynamic batching: flush timeout after the oldest arrival, us.
    pub batch_timeout_us: f64,
    /// LRU plan-cache capacity (plans); [`ServeConfig::new`] uses
    /// [`DEFAULT_PLAN_CACHE_CAP`].
    pub plan_cache_cap: usize,
    /// Compile plans for every batch size `1..=max_batch` on the worker
    /// pool before serving starts (width from `PIMFLOW_JOBS`/`--jobs`).
    /// The serving timeline is unchanged — compilation is host work, not
    /// simulated time — so every metric except the cache counters matches
    /// the lazy path; cold-start misses just move off the serving loop.
    pub precompile: bool,
    /// Channel failures/recoveries to replay during the run.
    pub faults: FaultScenario,
    /// After each plan repair, also run the full Algorithm-1 search under
    /// the degraded mask and record the plan-quality gap (the
    /// `repair_quality_delta` report field). Costs one extra search per
    /// repair; off by default.
    pub measure_replan: bool,
}

impl ServeConfig {
    /// Default serving parameters for `model` under `policy`: 100 fixed
    /// RPS for 5 seconds, batches of up to 8 with a 2 ms timeout, seed 0,
    /// no faults, and a plan-cache capacity of [`DEFAULT_PLAN_CACHE_CAP`].
    pub fn new(model: impl Into<String>, policy: Policy) -> Self {
        ServeConfig {
            model: model.into(),
            policy,
            arrival: ArrivalSpec::Fixed { rps: 100.0 },
            duration_s: 5.0,
            seed: 0,
            max_batch: 8,
            batch_timeout_us: 2_000.0,
            plan_cache_cap: DEFAULT_PLAN_CACHE_CAP,
            precompile: false,
            faults: FaultScenario::none(),
            measure_replan: false,
        }
    }
}

/// Why a serving run could not start or finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The model name matched nothing in the zoo, even after normalization.
    UnknownModel(String),
    /// The model could not be batched (shape inference failed).
    Batch(String),
    /// The compiler pipeline (search / plan application / engine) failed.
    Compile(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel(m) => write!(
                f,
                "unknown model `{m}` (try: toy, mobilenet-v2, resnet-50, vgg-16, ...)"
            ),
            ServeError::Batch(e) => write!(f, "batching the model failed: {e}"),
            ServeError::Compile(e) => write!(f, "compiling a batch failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Canonicalizes a model name against the zoo: exact names pass through,
/// and separator-insensitive aliases (`resnet50`, `ResNet_50`) resolve to
/// the canonical spelling. Returns `None` for unknown models.
///
/// # Examples
///
/// ```
/// assert_eq!(pimflow_serve::normalize_model_name("resnet50").as_deref(), Some("resnet-50"));
/// assert_eq!(pimflow_serve::normalize_model_name("toy").as_deref(), Some("toy"));
/// assert_eq!(pimflow_serve::normalize_model_name("gpt-5"), None);
/// ```
pub fn normalize_model_name(name: &str) -> Option<String> {
    const KNOWN: &[&str] = &[
        "toy",
        "efficientnet-v1-b0",
        "efficientnet-v1-b2",
        "efficientnet-v1-b4",
        "efficientnet-v1-b6",
        "mobilenet-v2",
        "mnasnet-1.0",
        "resnet-18",
        "resnet-34",
        "resnet-50",
        "vgg-16",
        "squeezenet-1.1",
        "unet-small",
        "bert-3",
        "bert-64",
    ];
    if models::by_name(name).is_some() {
        return Some(name.to_string());
    }
    let canon = |s: &str| {
        s.chars()
            .filter(char::is_ascii_alphanumeric)
            .collect::<String>()
            .to_ascii_lowercase()
    };
    let target = canon(name);
    KNOWN
        .iter()
        .find(|k| canon(k) == target)
        .map(|k| k.to_string())
}

/// Metrics summary of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Canonical model name.
    pub model: String,
    /// Policy display name.
    pub policy: String,
    /// Monotonic counters.
    pub counters: Counters,
    /// Time of the last batch completion, microseconds (0 when idle).
    pub makespan_us: f64,
    /// Completed requests per second of makespan.
    pub throughput_rps: f64,
    /// Median end-to-end request latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Worst latency, microseconds.
    pub max_us: f64,
    /// Plan-cache hit rate over all dispatches.
    pub cache_hit_rate: f64,
    /// `(batch size, batches dispatched)` pairs, ascending.
    pub batch_sizes: Vec<(usize, u64)>,
    /// Per-PIM-channel MAC-pipeline busy fraction of the makespan.
    pub pim_channel_utilization: Vec<f64>,
    /// Total simulated energy, microjoules.
    pub energy_uj: f64,
    /// Total host↔PIM traffic over every flown batch (including aborted
    /// attempts), bytes: PIM→host drains plus host→PIM GWRITE payload
    /// fetches. Fusion-enabled plans keep inter-layer activations near the
    /// banks, so this is the serving-level view of the traffic the fused
    /// search removes.
    pub host_pim_traffic_bytes: u64,
    /// Fused-group count of the last profile flown (a gauge of the plan in
    /// effect at run end; 0 for policies whose search never flips a group).
    pub fused_groups: usize,
    /// Per-group member counts of that same last-flown profile, in group
    /// order — shows *which* groups the search flipped and how deep.
    pub fused_group_members: Vec<usize>,
    /// Total PIM-pipeline time hidden by overlapped fusion epochs across
    /// every flown batch (including aborted attempts), microseconds.
    /// Accumulated like `energy_uj`, so it is the serving-level view of
    /// the gap the overlap-aware epoch semantics closed.
    pub overlap_hidden_us: f64,
    /// Median latency of requests completing before the first failure
    /// (equals `p50_us` when the run has no faults).
    pub p50_before_us: f64,
    /// p99 of requests completing before the first failure.
    pub p99_before_us: f64,
    /// Median latency of requests completing while ≥ 1 channel is down.
    pub p50_during_us: f64,
    /// p99 of requests completing while ≥ 1 channel is down.
    pub p99_during_us: f64,
    /// Median latency of requests completing after full recovery.
    pub p50_after_us: f64,
    /// p99 of requests completing after full recovery.
    pub p99_after_us: f64,
    /// Fraction of completed requests served by an all-GPU batch (PIM
    /// fully evicted by faults — or never used by the policy).
    pub gpu_fallback_fraction: f64,
    /// Mean relative plan-quality gap of repair vs full replan,
    /// `(repair.predicted_us - replan.predicted_us) / replan.predicted_us`
    /// averaged over repairs. Only populated with
    /// [`ServeConfig::measure_replan`]; 0 means repair matched the full
    /// search.
    pub repair_quality_delta: f64,
    /// Hit/miss/entry counters of the run-wide cost cache every search in
    /// this run (precompile, lazy compiles, retries, repairs, replan
    /// measurements) shared. Hits are PIM workload timings reused instead
    /// of re-simulated. Deterministic at any worker-pool width.
    pub cost_cache: CacheCounters,
}

json_struct!(ServeReport {
    model,
    policy,
    counters,
    makespan_us,
    throughput_rps,
    p50_us,
    p95_us,
    p99_us,
    mean_us,
    max_us,
    cache_hit_rate,
    batch_sizes,
    pim_channel_utilization,
    energy_uj,
    host_pim_traffic_bytes,
    fused_groups,
    fused_group_members,
    overlap_hidden_us,
    p50_before_us,
    p99_before_us,
    p50_during_us,
    p99_during_us,
    p50_after_us,
    p99_after_us,
    gpu_fallback_fraction,
    repair_quality_delta,
    cost_cache,
});

/// A finished serving run: the metrics summary plus the JSONL event trace.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Metrics summary.
    pub report: ServeReport,
    /// Event trace (one compact JSON object per line).
    pub events: EventLog,
}

/// Runs the serving simulation described by `cfg`: the one event loop
/// with one node of `cfg.policy` and one tenant sending `cfg.arrival`.
///
/// # Errors
///
/// Returns [`ServeError`] when the model is unknown, cannot be batched, or
/// a batch fails to compile.
pub fn run(cfg: &ServeConfig) -> Result<ServeRun, ServeError> {
    let fleet = FleetConfig {
        classes: vec![NodeClass::new("node", cfg.policy, 1)],
        // The loop reads arrivals from the stream below, not the spec.
        tenants: vec![TenantSpec::new(
            "serve",
            cfg.model.clone(),
            TrafficSpec::Fixed { rps: 0.0 },
        )],
        duration_s: cfg.duration_s,
        seed: cfg.seed,
        max_batch: cfg.max_batch,
        batch_timeout_us: cfg.batch_timeout_us,
        plan_cache_cap: cfg.plan_cache_cap,
        precompile: cfg.precompile,
        ..FleetConfig::new(1, Vec::new())
    };
    let arrivals = arrival_times_us(&cfg.arrival, cfg.duration_s, cfg.seed);
    let node = NodeSpec {
        channel_faults: cfg.faults.clone(),
        measure_replan: cfg.measure_replan,
    };
    let (outcome, stats) = simulate(&fleet, vec![arrivals], &[node])?;
    let s = stats.into_iter().next().expect("one node");
    let fleet = outcome.report;
    let (tenant, node) = (&fleet.tenants[0], &fleet.nodes[0]);
    let makespan_us = fleet.makespan_us;
    let counters = Counters {
        arrived: tenant.arrived,
        completed: tenant.completed,
        batches: node.batches,
        cache_hits: s.cache_hits,
        cache_misses: node.batches - s.cache_hits,
        search_invocations: s.search_invocations,
        fault_events: s.fault_events,
        retries: node.retries,
        repairs: s.repairs,
    };
    let report = ServeReport {
        model: tenant.model.clone(),
        policy: node.policy.clone(),
        counters,
        makespan_us,
        throughput_rps: fleet.throughput_rps,
        p50_us: tenant.p50_us,
        p95_us: tenant.p95_us,
        p99_us: tenant.p99_us,
        mean_us: tenant.mean_us,
        max_us: tenant.max_us,
        cache_hit_rate: node.cache_hit_rate,
        batch_sizes: s.batch_sizes,
        pim_channel_utilization: s
            .pim_busy_us
            .iter()
            .map(|&b| {
                if makespan_us > 0.0 {
                    (b / makespan_us).min(1.0)
                } else {
                    0.0
                }
            })
            .collect(),
        energy_uj: node.energy_uj,
        host_pim_traffic_bytes: s.host_pim_traffic_bytes,
        fused_groups: s.fused_group_members.len(),
        fused_group_members: s.fused_group_members,
        overlap_hidden_us: s.overlap_hidden_us,
        p50_before_us: s.phase_hists[0].quantile(0.50),
        p99_before_us: s.phase_hists[0].quantile(0.99),
        p50_during_us: s.phase_hists[1].quantile(0.50),
        p99_during_us: s.phase_hists[1].quantile(0.99),
        p50_after_us: s.phase_hists[2].quantile(0.50),
        p99_after_us: s.phase_hists[2].quantile(0.99),
        gpu_fallback_fraction: if counters.completed > 0 {
            s.completed_gpu_only as f64 / counters.completed as f64
        } else {
            0.0
        },
        repair_quality_delta: if s.repair_delta_count > 0 {
            s.repair_delta_sum / s.repair_delta_count as f64
        } else {
            0.0
        },
        cost_cache: node.cost_cache,
    };
    Ok(ServeRun {
        report,
        events: outcome.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::compile_batch;
    use pimflow::costcache::CostCache;
    use pimflow::engine::EngineConfig;

    fn toy_cfg() -> ServeConfig {
        ServeConfig {
            arrival: ArrivalSpec::Fixed { rps: 2000.0 },
            duration_s: 0.05,
            ..ServeConfig::new("toy", Policy::Pimflow)
        }
    }

    /// A scenario that reliably interrupts the toy run: most channels die
    /// early in the window, all recover before it ends.
    fn stormy_cfg() -> ServeConfig {
        ServeConfig {
            faults: FaultScenario::from_seed(0xFA17, 16, 1.0, 0.05),
            ..toy_cfg()
        }
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let run = run(&toy_cfg()).unwrap();
        let c = run.report.counters;
        assert_eq!(c.arrived, 100);
        assert_eq!(c.completed, 100);
        assert!(c.batches > 0 && c.batches <= c.arrived);
        let by_size: u64 = run
            .report
            .batch_sizes
            .iter()
            .map(|&(s, n)| s as u64 * n)
            .sum();
        assert_eq!(by_size, 100, "batch sizes must partition the requests");
    }

    #[test]
    fn search_runs_once_per_batch_size() {
        let run = run(&toy_cfg()).unwrap();
        let c = run.report.counters;
        let distinct = run.report.batch_sizes.len() as u64;
        assert_eq!(
            c.search_invocations, distinct,
            "search must run exactly once per (model, policy, batch size)"
        );
        assert_eq!(c.cache_misses, distinct);
        assert_eq!(c.cache_hits + c.cache_misses, c.batches);
    }

    #[test]
    fn baseline_policy_never_searches() {
        let cfg = ServeConfig {
            policy: Policy::Baseline,
            ..toy_cfg()
        };
        let run = run(&cfg).unwrap();
        assert_eq!(run.report.counters.search_invocations, 0);
        assert!(
            run.report.pim_channel_utilization.is_empty(),
            "no PIM channels on baseline"
        );
    }

    #[test]
    fn latency_includes_queueing_delay() {
        // One request, huge timeout window never reached because the run
        // drains; latency is exec-only. Then a slow second request forces
        // queueing behind the first batch.
        let cfg = ServeConfig {
            arrival: ArrivalSpec::Trace {
                times_us: vec![0.0, 1.0],
            },
            duration_s: 1.0,
            max_batch: 1,
            ..ServeConfig::new("toy", Policy::Baseline)
        };
        let run = run(&cfg).unwrap();
        assert_eq!(run.report.counters.batches, 2);
        // The second request waits for the first batch: max > mean.
        assert!(run.report.max_us > run.report.mean_us);
    }

    #[test]
    fn small_plan_cache_evicts_and_recompiles() {
        // Arrival spacing that alternates batch sizes 2, 1, 2, 1: a
        // capacity-1 cache thrashes (every dispatch misses) while a roomy
        // cache compiles each size once — and the simulated timeline is
        // identical either way, because compilation is host work.
        let base = ServeConfig {
            arrival: ArrivalSpec::Trace {
                times_us: vec![0.0, 1.0, 50_000.0, 100_000.0, 100_001.0, 150_000.0],
            },
            duration_s: 1.0,
            max_batch: 2,
            ..ServeConfig::new("toy", Policy::Pimflow)
        };
        let roomy = run(&ServeConfig {
            plan_cache_cap: 16,
            ..base.clone()
        })
        .unwrap();
        let tiny = run(&ServeConfig {
            plan_cache_cap: 1,
            ..base
        })
        .unwrap();
        assert_eq!(roomy.report.batch_sizes, vec![(1, 2), (2, 2)]);
        assert_eq!(roomy.report.counters.cache_misses, 2);
        assert_eq!(tiny.report.counters.cache_misses, 4, "capacity 1 thrashes");
        assert!(
            tiny.report.counters.search_invocations > roomy.report.counters.search_invocations,
            "evictions force recompiles"
        );
        assert_eq!(roomy.report.makespan_us, tiny.report.makespan_us);
        assert_eq!(roomy.report.p50_us, tiny.report.p50_us);
        assert_eq!(
            roomy.report.counters.completed,
            tiny.report.counters.completed
        );
    }

    #[test]
    fn unknown_model_is_rejected() {
        let cfg = ServeConfig::new("gpt-5", Policy::Pimflow);
        assert!(matches!(run(&cfg), Err(ServeError::UnknownModel(_))));
    }

    #[test]
    fn pim_channels_are_utilized_under_pimflow() {
        let run = run(&toy_cfg()).unwrap();
        let util = &run.report.pim_channel_utilization;
        assert_eq!(util.len(), 16);
        assert!(
            util.iter().any(|&u| u > 0.0),
            "PIMFlow serving must touch PIM channels"
        );
        assert!(util.iter().all(|&u| (0.0..=1.0).contains(&u)));
    }

    #[test]
    fn precompiled_run_matches_lazy_run() {
        let lazy = run(&toy_cfg()).unwrap();
        let cfg = ServeConfig {
            precompile: true,
            ..toy_cfg()
        };
        let warm = run(&cfg).unwrap();
        // The simulated timeline is identical — compilation happens on the
        // host, not in simulated time.
        assert_eq!(lazy.report.p50_us, warm.report.p50_us);
        assert_eq!(lazy.report.p95_us, warm.report.p95_us);
        assert_eq!(lazy.report.p99_us, warm.report.p99_us);
        assert_eq!(lazy.report.mean_us, warm.report.mean_us);
        assert_eq!(lazy.report.max_us, warm.report.max_us);
        assert_eq!(lazy.report.makespan_us, warm.report.makespan_us);
        assert_eq!(lazy.report.energy_uj, warm.report.energy_uj);
        assert_eq!(lazy.report.batch_sizes, warm.report.batch_sizes);
        // Traces differ only in the per-dispatch cache outcome field.
        assert_eq!(
            lazy.events
                .to_jsonl()
                .replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
            warm.events.to_jsonl(),
            "event traces must agree on everything but cache outcomes"
        );
        // Parallel precompilation itself is deterministic.
        let warm2 = run(&cfg).unwrap();
        assert_eq!(warm.report, warm2.report);
        assert_eq!(warm.events.to_jsonl(), warm2.events.to_jsonl());
        // Only the cache accounting differs: every dispatch hits.
        assert_eq!(warm.report.counters.cache_misses, 0);
        assert_eq!(
            warm.report.counters.cache_hits,
            warm.report.counters.batches
        );
        assert_eq!(warm.report.cache_hit_rate, 1.0);
        assert_eq!(
            warm.report.counters.search_invocations, cfg.max_batch as u64,
            "one search per precompiled batch size"
        );
        // The run-wide cost cache was exercised and its counters are
        // deterministic even though precompilation shares one live cache
        // across parallel workers.
        assert!(warm.report.cost_cache.entries > 0);
        assert!(warm.report.cost_cache.hits > 0);
        assert_eq!(warm.report.cost_cache, warm2.report.cost_cache);
    }

    #[test]
    fn precompile_shares_cost_entries_across_batch_sizes() {
        // Batching scales PIM workload rows linearly and the MD-DP ratio
        // grid scales them fractionally, so batch 2 at ratio r/2 folds to
        // the same WorkloadKey as batch 1 at ratio r: one shared cache must
        // end up strictly smaller than two independent ones.
        let base = models::by_name("toy").unwrap();
        let engine_cfg: EngineConfig = Policy::Pimflow.engine_config();
        let opts = Policy::Pimflow.search_options();

        let solo1 = CostCache::new();
        compile_batch(&base, 1, &engine_cfg, &opts, &solo1).unwrap();
        let solo2 = CostCache::new();
        compile_batch(&base, 2, &engine_cfg, &opts, &solo2).unwrap();
        let independent = solo1.counters().entries + solo2.counters().entries;

        let shared = CostCache::new();
        compile_batch(&base, 1, &engine_cfg, &opts, &shared).unwrap();
        let after_first = shared.counters();
        compile_batch(&base, 2, &engine_cfg, &opts, &shared).unwrap();
        let after_both = shared.counters();

        assert_eq!(
            after_first,
            solo1.counters(),
            "first compile sees a cold cache"
        );
        assert!(
            after_both.entries < independent,
            "batch sizes must share cost entries: shared {} vs independent {}",
            after_both.entries,
            independent
        );
        assert!(
            after_both.hits > after_first.hits,
            "the second batch size must hit entries profiled by the first"
        );
    }

    #[test]
    fn report_serializes() {
        let run = run(&toy_cfg()).unwrap();
        let json = pimflow_json::to_string(&run.report);
        let back: ServeReport = pimflow_json::from_str(&json).unwrap();
        assert_eq!(run.report, back);
    }

    #[test]
    fn faultless_runs_report_empty_fault_metrics() {
        let run = run(&toy_cfg()).unwrap();
        let r = &run.report;
        assert_eq!(r.counters.fault_events, 0);
        assert_eq!(r.counters.retries, 0);
        assert_eq!(r.counters.repairs, 0);
        assert_eq!(
            r.p50_before_us, r.p50_us,
            "no faults: everything is `before`"
        );
        assert_eq!(r.p50_during_us, 0.0);
        assert_eq!(r.p50_after_us, 0.0);
        assert_eq!(r.repair_quality_delta, 0.0);
        assert_eq!(r.gpu_fallback_fraction, 0.0, "PIMFlow batches use PIM");
    }

    #[test]
    fn mid_stream_failures_drop_no_requests() {
        let run = run(&stormy_cfg()).unwrap();
        let c = run.report.counters;
        assert_eq!(c.arrived, c.completed, "faults must not drop requests");
        assert!(c.fault_events > 0, "the storm must actually land");
        assert!(c.repairs > 0, "down transitions must repair cached plans");
        assert!(
            run.report.p50_during_us > 0.0,
            "some requests must complete inside the fault window"
        );
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let a = run(&stormy_cfg()).unwrap();
        let b = run(&stormy_cfg()).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.events.to_jsonl(), b.events.to_jsonl());
    }

    #[test]
    fn retried_batches_pay_the_wasted_time() {
        // A run where a retry happened must not be faster than the healthy
        // run: degraded plans are never better and aborts waste time.
        let healthy = run(&toy_cfg()).unwrap();
        let stormy = run(&stormy_cfg()).unwrap();
        if stormy.report.counters.retries > 0 {
            assert!(stormy.report.makespan_us >= healthy.report.makespan_us - 1e-6);
        }
        let jsonl = stormy.events.to_jsonl();
        assert!(jsonl.contains("\"event\":\"fault\""));
    }

    #[test]
    fn measure_replan_records_a_quality_delta() {
        let cfg = ServeConfig {
            measure_replan: true,
            ..stormy_cfg()
        };
        let run = run(&cfg).unwrap();
        assert!(run.report.counters.repairs > 0);
        // Repair can only lose quality relative to the full search (both
        // are cost-model predictions, so the gap is one-sided).
        assert!(
            run.report.repair_quality_delta >= -1e-9,
            "delta {}",
            run.report.repair_quality_delta
        );
    }
}
