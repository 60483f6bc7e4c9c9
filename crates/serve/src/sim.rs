//! The discrete-event serving loop — the one simulator behind both
//! [`run_fleet`] and [`crate::run`].
//!
//! One run drives N simulated PIM-GPU nodes (possibly of heterogeneous
//! [`NodeClass`](crate::config::NodeClass)es) from per-tenant arrival
//! streams. Each arrival passes admission control (the tenant's token
//! bucket, then queue-depth shedding), is routed to a node by the
//! configured [`RouterPolicy`], and joins that node's per-model batching
//! queue. Whenever a node's device is free and a queue is ready, the node
//! takes a FIFO batch, compiles it through its LRU plan cache — batching
//! the model with [`pimflow::batch::with_batch`], searching an execution
//! plan once per (model, policy, batch size, channel mask), and pricing
//! the batch on the execution engine — and flies it for the batch latency.
//! Single-node serving ([`crate::run`]) is this loop with one node and one
//! tenant.
//!
//! ## Channel faults
//!
//! A node may replay a channel-granular [`FaultScenario`] (serving's
//! `--faults`). A down transition folds into the node's [`ChannelMask`],
//! *repairs* every cached plan of the node onto the degraded mask
//! ([`pimflow::search::ExecutionPlan::repair`] — a cheap re-pricing walk,
//! not a full Algorithm-1 search) and aborts + retries an in-flight batch
//! that was using the failed channel on the same node, paying the wasted
//! execution time in its latency. Recoveries switch future dispatches back
//! to the healthy plans (masks are part of the cache key, so degraded plans
//! never leak into healthy serving).
//!
//! ## Node faults and drains
//!
//! The fleet's [`FaultScenario`] works at node granularity: a down
//! transition of "channel" `k` hard-fails node `k`. Its in-flight batch
//! aborts and every queued request is *rerouted* (bypassing admission — an
//! admitted request is never dropped), paying the detour in its latency.
//! Recoveries bring the node back as active. Autoscaler drains are the
//! graceful version: a draining node takes no new routes, finishes its
//! queue, and parks in standby.
//!
//! ## Determinism
//!
//! The event loop is strictly sequential with a total order on event
//! candidates — `(time, kind, node, model)` with kind priority completion
//! < fault < autoscaler-tick < arrival < dispatch — and all randomness
//! comes from per-tenant streams derived from the seed. Worker pools are
//! only used for host-side compilation (precompile and the execution-mode
//! search itself), which is width-deterministic, so the whole
//! [`FleetReport`] and event trace are byte-identical at any
//! `PIMFLOW_JOBS` width. Events are recorded in simulated-time order.
//!
//! The node class is the unit of compilation. Every node of a class shares
//! the class's [`CostCache`], so a PIM timing profiled on one node is
//! reused by every lazy compile and repair on its siblings; cached values
//! are pure, so sharing changes only the class's counters, never a plan.
//! Precompile searches each `(class, model, batch size)` once and inserts
//! the one profile into every node of the class, in task order, so each
//! node's LRU plan cache and search count are those of a node that had
//! compiled its own copy. Plan caches, and the lazy misses they take,
//! stay per node.

use crate::admission::TokenBucket;
use crate::autoscale::{decide, ScaleDecision, ScaleSignal};
use crate::cache::{PlanCache, PlanKey};
use crate::config::{FleetConfig, RouterPolicy};
use crate::events::EventLog;
use crate::fault::{FaultEvent, FaultScenario};
use crate::metrics::Histogram;
use crate::profile::{compile_batch, compile_err, repair_batch, BatchProfile};
use crate::queue::{BatchQueue, QueuedRequest};
use crate::router::{route, NodeLoad};
use crate::serve::{normalize_model_name, ServeError};
use crate::traffic::{tenant_seed, traffic_times_us};
use pimflow::batch::with_batch;
use pimflow::costcache::{CacheCounters, CostCache};
use pimflow::engine::{ChannelMask, EngineConfig};
use pimflow::search::{Search, SearchOptions};
use pimflow_ir::{models, Graph};
use pimflow_json::{json_struct, Json};
use pimflow_pool::WorkerPool;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Why a fleet run could not start or finish.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The fleet configuration is structurally invalid.
    Config(String),
    /// Per-node model handling failed (unknown model, batching, compile).
    Serve(ServeError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(m) => write!(f, "invalid fleet config: {m}"),
            FleetError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<ServeError> for FleetError {
    fn from(e: ServeError) -> Self {
        FleetError::Serve(e)
    }
}

/// Lifecycle state of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Accepting routes and dispatching.
    Active,
    /// Finishing its queue; no new routes.
    Draining,
    /// Idle pool capacity the autoscaler can activate.
    Standby,
    /// Hard-failed by the fault scenario.
    Down,
}

impl NodeState {
    fn name(self) -> &'static str {
        match self {
            NodeState::Active => "active",
            NodeState::Draining => "draining",
            NodeState::Standby => "standby",
            NodeState::Down => "down",
        }
    }
}

/// A batch executing on a node's device.
#[derive(Debug, Clone)]
struct InFlight {
    batch_id: u64,
    model_idx: usize,
    start_us: f64,
    finish_us: f64,
    exec_us: f64,
    requests: Vec<QueuedRequest>,
    /// The profile of the current attempt.
    profile: Arc<BatchProfile>,
}

/// Per-node settings no public configuration carries: the single-node
/// server's channel faults and repair-quality measurement.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeSpec {
    /// Channel failures/recoveries replayed on this node.
    pub channel_faults: FaultScenario,
    /// After each plan repair, also run the full search under the degraded
    /// mask and record the plan-quality gap.
    pub measure_replan: bool,
}

/// Per-node accumulators that only the single-node report reads.
#[derive(Debug, Default)]
pub(crate) struct NodeStats {
    /// Dispatches whose plan-cache lookup hit.
    pub cache_hits: u64,
    /// Times the execution-mode search ran on this node.
    pub search_invocations: u64,
    /// Channel transitions replayed.
    pub fault_events: u64,
    /// Cached plans repaired after a channel failure.
    pub repairs: u64,
    /// `(batch size, batches dispatched)` pairs, ascending.
    pub batch_sizes: Vec<(usize, u64)>,
    /// Per-PIM-channel busy time of completed batches, microseconds.
    pub pim_busy_us: Vec<f64>,
    /// Host↔PIM traffic of every flown attempt, bytes.
    pub host_pim_traffic_bytes: u64,
    /// Overlap-hidden PIM time of every flown attempt, microseconds.
    pub overlap_hidden_us: f64,
    /// Fused-group member counts of the last completed batch's profile.
    pub fused_group_members: Vec<usize>,
    /// Completed requests whose batch ran entirely on the GPU.
    pub completed_gpu_only: u64,
    /// Latency of requests completing before / during / after the node's
    /// channel-fault window.
    pub phase_hists: [Histogram; 3],
    /// Sum and count of the repair-vs-replan quality gaps measured.
    pub repair_delta_sum: f64,
    pub repair_delta_count: u64,
}

/// One simulated PIM-GPU node.
#[derive(Debug)]
struct Node {
    class_idx: usize,
    class_name: String,
    policy_name: String,
    engine_cfg: EngineConfig,
    search_opts: Option<SearchOptions>,
    state: NodeState,
    /// One dynamic-batching queue per co-resident model.
    queues: Vec<BatchQueue>,
    cache: PlanCache<Arc<BatchProfile>>,
    /// The node class's cost cache (a shared handle).
    cost_cache: CostCache,
    inflight: Option<InFlight>,
    busy_us: f64,
    window_busy_us: f64,
    energy_uj: f64,
    batches: u64,
    completed: u64,
    retries: u64,
    /// Channels currently up.
    mask: ChannelMask,
    /// Channel transitions to replay, sorted, and the replay cursor.
    channel_faults: Vec<FaultEvent>,
    next_fault: usize,
    /// The `[start, end]` window with at least one channel down.
    fault_window: Option<(f64, f64)>,
    measure_replan: bool,
    /// `(model, batch size)` pairs compiled on this node: the plans a
    /// channel failure repairs.
    compiled: BTreeSet<(usize, usize)>,
    stats: NodeStats,
}

impl Node {
    fn queue_depth(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    fn is_idle(&self) -> bool {
        self.inflight.is_none() && self.queues.iter().all(|q| q.is_empty())
    }

    fn accepts_routes(&self) -> bool {
        self.state == NodeState::Active
    }

    /// Earliest `(time, model)` this node could dispatch a batch, or `None`
    /// when it cannot dispatch at all. Ties across models break toward the
    /// lower model index.
    fn dispatch_candidate(&self, now_us: f64, run_draining: bool) -> Option<(f64, usize)> {
        if self.inflight.is_some() || !matches!(self.state, NodeState::Active | NodeState::Draining)
        {
            return None;
        }
        let draining = run_draining || self.state == NodeState::Draining;
        let mut best: Option<(f64, usize)> = None;
        for (m, q) in self.queues.iter().enumerate() {
            if q.is_empty() {
                continue;
            }
            let at = if q.len() >= q.max_batch() || draining {
                now_us
            } else {
                now_us.max(q.flush_deadline_us().expect("non-empty queue"))
            };
            if best.is_none_or(|(bt, _)| at < bt) {
                best = Some((at, m));
            }
        }
        best
    }

    fn plan_key(&self, model: &str, size: usize, mask: ChannelMask) -> PlanKey {
        PlanKey {
            model: model.to_string(),
            policy: self.policy_name.clone(),
            batch: size,
            mask: mask.bits(),
        }
    }

    /// The profile of a `size` batch of `model` under the current mask,
    /// compiled into the plan cache on a miss. Returns it with whether the
    /// lookup hit.
    fn profile(
        &mut self,
        graph: &Graph,
        model: &str,
        size: usize,
    ) -> Result<(Arc<BatchProfile>, bool), ServeError> {
        let key = self.plan_key(model, size, self.mask);
        let (mask, engine_cfg, search_opts, cost_cache) = (
            self.mask,
            &self.engine_cfg,
            &self.search_opts,
            &self.cost_cache,
        );
        let mut failure = None;
        let (profile, hit) = self.cache.get_or_insert_with(key, || {
            let profile = compile_batch(
                graph,
                size,
                &engine_cfg.with_mask(mask),
                search_opts,
                cost_cache,
            )
            .unwrap_or_else(|e| {
                failure = Some(e);
                BatchProfile::empty()
            });
            Arc::new(profile)
        });
        let profile = Arc::clone(profile);
        if let Some(e) = failure {
            return Err(e);
        }
        self.stats.search_invocations += (!hit && self.search_opts.is_some()) as u64;
        Ok((profile, hit))
    }

    /// Charges one flown attempt of `profile` to the node.
    fn charge(&mut self, profile: &BatchProfile) {
        self.energy_uj += profile.energy_uj;
        self.stats.host_pim_traffic_bytes += profile.host_pim_traffic_bytes;
        self.stats.overlap_hidden_us += profile.overlap_hidden_us();
    }

    /// After a channel failure moved the mask off `old`, migrates every
    /// cached plan onto the current mask via the cheap repair path,
    /// walking (model, size) in ascending order so the walk is
    /// deterministic. Healthy entries stay cached under their own mask
    /// for when the channel recovers.
    fn repair_all(
        &mut self,
        graphs: &[Graph],
        models: &[String],
        old: ChannelMask,
    ) -> Result<(), ServeError> {
        let new = self.mask;
        for &(mi, size) in &self.compiled {
            let key = self.plan_key(&models[mi], size, new);
            if self.cache.peek(&key).is_some() {
                continue;
            }
            let Some(source) = self.cache.peek(&self.plan_key(&models[mi], size, old)) else {
                continue;
            };
            let repaired = repair_batch(
                &graphs[mi],
                size,
                &self.engine_cfg,
                source,
                old,
                new,
                &self.cost_cache,
            )?;
            self.stats.repairs += 1;
            if self.measure_replan {
                if let (Some(opts), Some(repaired_plan)) = (&self.search_opts, &repaired.plan) {
                    let batched = with_batch(&graphs[mi], size)
                        .map_err(|e| ServeError::Batch(e.to_string()))?;
                    let replanned = Search::new(&batched, &self.engine_cfg.with_mask(new))
                        .options(*opts)
                        .cache(&self.cost_cache)
                        .run()
                        .map_err(compile_err)?;
                    self.stats.search_invocations += 1;
                    let denom = replanned.predicted_us.max(1e-12);
                    self.stats.repair_delta_sum +=
                        (repaired_plan.predicted_us - replanned.predicted_us) / denom;
                    self.stats.repair_delta_count += 1;
                }
            }
            self.cache.insert(key, Arc::new(repaired));
        }
        Ok(())
    }
}

/// Latency phase of a request relative to the fault window.
fn phase_of(finish_us: f64, window: Option<(f64, f64)>) -> usize {
    match window {
        None => 0,
        Some((start, _)) if finish_us < start => 0,
        Some((_, end)) if finish_us <= end => 1,
        Some(_) => 2,
    }
}

/// Per-tenant serving summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant display name.
    pub name: String,
    /// Canonical model name.
    pub model: String,
    /// Requests that arrived within the run window.
    pub arrived: u64,
    /// Requests past admission control and routed to a node.
    pub admitted: u64,
    /// Requests whose batch completed.
    pub completed: u64,
    /// Requests rejected by the tenant's token bucket.
    pub rejected_rate_limited: u64,
    /// Requests shed because the routed-to node's queue was too deep.
    pub rejected_shed: u64,
    /// Requests rejected because no node was accepting traffic.
    pub rejected_unavailable: u64,
    /// Median end-to-end latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Worst latency, microseconds.
    pub max_us: f64,
}

json_struct!(TenantReport {
    name,
    model,
    arrived,
    admitted,
    completed,
    rejected_rate_limited,
    rejected_shed,
    rejected_unavailable,
    p50_us,
    p95_us,
    p99_us,
    mean_us,
    max_us
});

/// Per-node serving summary.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Node id.
    pub node: usize,
    /// Node-class display name.
    pub class: String,
    /// Policy display name.
    pub policy: String,
    /// Batches dispatched on this node.
    pub batches: u64,
    /// Requests completed on this node.
    pub completed: u64,
    /// In-flight batches aborted by a node or channel failure.
    pub retries: u64,
    /// Device busy time (completed batches), microseconds.
    pub busy_us: f64,
    /// Busy fraction of the fleet makespan.
    pub utilization: f64,
    /// Simulated energy, microjoules.
    pub energy_uj: f64,
    /// Plan-cache hit rate over this node's lookups.
    pub cache_hit_rate: f64,
    /// Counters of the cost cache this node shares with every node of its
    /// class: they include its siblings' lookups.
    pub cost_cache: CacheCounters,
    /// Lifecycle state at the end of the run.
    pub final_state: String,
}

json_struct!(NodeReport {
    node,
    class,
    policy,
    batches,
    completed,
    retries,
    busy_us,
    utilization,
    energy_uj,
    cache_hit_rate,
    cost_cache,
    final_state
});

/// Metrics summary of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Router policy display name.
    pub router: String,
    /// Run window, seconds.
    pub duration_s: f64,
    /// Fleet seed.
    pub seed: u64,
    /// Requests that arrived across all tenants.
    pub arrived: u64,
    /// Requests admitted (routed to a node).
    pub admitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected by admission control (all reasons).
    pub rejected: u64,
    /// Admitted requests never served (only possible when every node is
    /// down and none recovers; healthy and recovering fleets report 0).
    pub dropped: u64,
    /// Time of the last batch completion, microseconds.
    pub makespan_us: f64,
    /// Completed requests per second of makespan.
    pub throughput_rps: f64,
    /// Mean busy fraction across all nodes over the makespan.
    pub fleet_utilization: f64,
    /// Rejected requests as a fraction of arrivals.
    pub rejection_rate: f64,
    /// Fleet-wide median latency, microseconds.
    pub p50_us: f64,
    /// Fleet-wide 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Fleet-wide mean latency, microseconds.
    pub mean_us: f64,
    /// Fleet-wide worst latency, microseconds.
    pub max_us: f64,
    /// Node up/down transitions replayed.
    pub node_fault_events: u64,
    /// Requests rerouted off a failed node.
    pub rerouted: u64,
    /// Standby nodes activated (autoscaler or emergency).
    pub scale_ups: u64,
    /// Active nodes drained by the autoscaler.
    pub scale_downs: u64,
    /// Per-tenant summaries, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Per-node summaries, in node order.
    pub nodes: Vec<NodeReport>,
}

json_struct!(FleetReport {
    router,
    duration_s,
    seed,
    arrived,
    admitted,
    completed,
    rejected,
    dropped,
    makespan_us,
    throughput_rps,
    fleet_utilization,
    rejection_rate,
    p50_us,
    p99_us,
    mean_us,
    max_us,
    node_fault_events,
    rerouted,
    scale_ups,
    scale_downs,
    tenants,
    nodes
});

/// A finished fleet run: the metrics summary plus the JSONL event trace.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Metrics summary.
    pub report: FleetReport,
    /// Event trace (one compact JSON object per line).
    pub events: EventLog,
}

/// Identity of one admitted request, indexed by its global id.
#[derive(Debug, Clone, Copy)]
struct RequestMeta {
    tenant: usize,
    model_idx: usize,
    arrival_us: f64,
}

/// Per-tenant monotonic counters.
#[derive(Debug, Clone, Copy, Default)]
struct TenantCounters {
    arrived: u64,
    admitted: u64,
    completed: u64,
    rej_rate: u64,
    rej_shed: u64,
    rej_unavail: u64,
}

/// Load snapshot of every route-eligible node, ascending node id. The
/// per-(class, model) service-time estimates exist only under the
/// SLO-aware router, the one policy that reads `est_finish_us`.
fn eligible_loads(nodes: &[Node], est_us: Option<&[Vec<f64>]>, now_us: f64) -> Vec<NodeLoad> {
    nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.accepts_routes())
        .map(|(id, n)| {
            let est_finish_us = est_us.map_or(0.0, |est_us| {
                let mut est = n
                    .inflight
                    .as_ref()
                    .map(|f| (f.finish_us - now_us).max(0.0))
                    .unwrap_or(0.0);
                for (m, q) in n.queues.iter().enumerate() {
                    est += q.len() as f64 * est_us[n.class_idx][m];
                }
                est
            });
            NodeLoad {
                node: id,
                queue_depth: n.queue_depth(),
                est_finish_us,
            }
        })
        .collect()
}

/// Activates the lowest-id standby node, if any. Returns its id.
fn activate_standby(nodes: &mut [Node]) -> Option<usize> {
    let id = nodes.iter().position(|n| n.state == NodeState::Standby)?;
    nodes[id].state = NodeState::Active;
    Some(id)
}

/// What the event loop decided to do next.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Complete(usize),
    Fault,
    ChannelFault(usize),
    Tick,
    Arrival,
    Dispatch(usize, usize),
}

/// Runs the fleet simulation described by `cfg`.
///
/// # Errors
///
/// Returns [`FleetError`] when the configuration is invalid, a model is
/// unknown, or a batch fails to compile.
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetOutcome, FleetError> {
    cfg.validate().map_err(FleetError::Config)?;
    let streams = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(ti, t)| traffic_times_us(&t.traffic, cfg.duration_s, tenant_seed(cfg.seed, ti)))
        .collect();
    let (outcome, _) = simulate(cfg, streams, &[])?;
    Ok(outcome)
}

/// The event loop. `streams[t]` holds tenant `t`'s sorted arrival times
/// (the tenants' `traffic` specs are not read); `specs[n]` holds node
/// `n`'s extra settings (nodes past its end get the defaults). Returns the
/// outcome and each node's single-node accumulators.
pub(crate) fn simulate(
    cfg: &FleetConfig,
    streams: Vec<Vec<f64>>,
    specs: &[NodeSpec],
) -> Result<(FleetOutcome, Vec<NodeStats>), ServeError> {
    // Intern the models tenants reference: one graph + one queue slot per
    // distinct canonical name.
    let mut model_names: Vec<String> = Vec::new();
    let mut tenant_model: Vec<usize> = Vec::new();
    for t in &cfg.tenants {
        let name = normalize_model_name(&t.model)
            .ok_or_else(|| ServeError::UnknownModel(t.model.clone()))?;
        let idx = match model_names.iter().position(|m| *m == name) {
            Some(i) => i,
            None => {
                model_names.push(name);
                model_names.len() - 1
            }
        };
        tenant_model.push(idx);
    }
    let graphs: Vec<Graph> = model_names
        .iter()
        .map(|m| models::by_name(m).expect("normalized names resolve"))
        .collect();

    // Build the nodes, class by class, each holding its class's cost
    // cache; the last `initial_standby` ids start parked.
    let class_caches: Vec<CostCache> = cfg.classes.iter().map(|_| CostCache::new()).collect();
    let mut nodes: Vec<Node> = Vec::new();
    for (ci, class) in cfg.classes.iter().enumerate() {
        for _ in 0..class.count {
            let spec = specs.get(nodes.len()).cloned().unwrap_or_default();
            let engine_cfg = class.engine_config();
            nodes.push(Node {
                class_idx: ci,
                class_name: class.name.clone(),
                policy_name: class.policy.name().to_string(),
                search_opts: class.policy.search_options(),
                state: NodeState::Active,
                queues: (0..model_names.len())
                    .map(|_| BatchQueue::new(cfg.max_batch, cfg.batch_timeout_us))
                    .collect(),
                cache: PlanCache::new(cfg.plan_cache_cap),
                cost_cache: class_caches[ci].clone(),
                inflight: None,
                busy_us: 0.0,
                window_busy_us: 0.0,
                energy_uj: 0.0,
                batches: 0,
                completed: 0,
                retries: 0,
                mask: engine_cfg.pim_channel_mask,
                fault_window: spec.channel_faults.degraded_window_us(),
                channel_faults: spec.channel_faults.events,
                next_fault: 0,
                measure_replan: spec.measure_replan,
                compiled: BTreeSet::new(),
                stats: NodeStats {
                    pim_busy_us: vec![0.0; engine_cfg.pim_channels],
                    ..NodeStats::default()
                },
                engine_cfg,
            });
        }
    }
    let n_nodes = nodes.len();
    for k in 0..cfg.initial_standby {
        nodes[n_nodes - 1 - k].state = NodeState::Standby;
    }

    // Warm every plan cache: one worker-pool task per (class, model, batch
    // size) compiles on the class's cost cache, and its profile goes into
    // every node of the class, in task order — deterministic at any pool
    // width. Host work; the simulated timeline is unchanged.
    let mut batch1: Vec<Vec<Option<Arc<BatchProfile>>>> =
        vec![vec![None; model_names.len()]; cfg.classes.len()];
    if cfg.precompile {
        let mut tasks: Vec<(usize, usize, usize)> = Vec::new();
        for ci in 0..cfg.classes.len() {
            for mi in 0..model_names.len() {
                for size in 1..=cfg.max_batch {
                    tasks.push((ci, mi, size));
                }
            }
        }
        let pool = WorkerPool::from_env();
        let compiled = pool.map(&tasks, |_, &(ci, mi, size)| {
            let class = &cfg.classes[ci];
            compile_batch(
                &graphs[mi],
                size,
                &class.engine_config(),
                &class.policy.search_options(),
                &class_caches[ci],
            )
        });
        for (&(ci, mi, size), result) in tasks.iter().zip(compiled) {
            let profile = Arc::new(result?);
            for node in nodes.iter_mut().filter(|n| n.class_idx == ci) {
                node.stats.search_invocations += node.search_opts.is_some() as u64;
                node.compiled.insert((mi, size));
                let key = node.plan_key(&model_names[mi], size, node.mask);
                node.cache.insert(key, Arc::clone(&profile));
            }
            if size == 1 {
                batch1[ci][mi] = Some(profile);
            }
        }
    }

    // Per-(class, model) service-time estimates for the SLO-aware router:
    // the batch-1 plan's predicted latency, read from the precompiled
    // profile or else compiled once per class on the class's cost cache.
    // Host work, done only for the router that reads it.
    let est_us = if cfg.router == RouterPolicy::SloAware {
        let mut est_us = vec![vec![0.0f64; model_names.len()]; cfg.classes.len()];
        for (ci, class) in cfg.classes.iter().enumerate() {
            for (mi, g) in graphs.iter().enumerate() {
                let p = match batch1[ci][mi].take() {
                    Some(p) => p,
                    None => Arc::new(compile_batch(
                        g,
                        1,
                        &class.engine_config(),
                        &class.policy.search_options(),
                        &class_caches[ci],
                    )?),
                };
                est_us[ci][mi] = p
                    .plan
                    .as_ref()
                    .map(|plan| plan.predicted_us)
                    .unwrap_or(p.latency_us);
            }
        }
        Some(est_us)
    } else {
        None
    };
    let est_us = est_us.as_deref();

    // Merge the per-tenant arrival streams into one global timeline; ties
    // break by tenant index, and the stable sort keeps each tenant's own
    // stream in order.
    struct Arrival {
        t_us: f64,
        tenant: usize,
    }
    let mut arrivals: Vec<Arrival> = Vec::new();
    for (ti, stream) in streams.into_iter().enumerate() {
        arrivals.extend(stream.into_iter().map(|t_us| Arrival { t_us, tenant: ti }));
    }
    arrivals.sort_by(|a, b| {
        a.t_us
            .partial_cmp(&b.t_us)
            .expect("finite arrival times")
            .then(a.tenant.cmp(&b.tenant))
    });

    let mut buckets: Vec<TokenBucket> = cfg
        .tenants
        .iter()
        .map(|t| TokenBucket::new(t.rate_limit_rps, t.burst))
        .collect();
    let mut tc = vec![TenantCounters::default(); cfg.tenants.len()];
    let mut tenant_hists = vec![Histogram::new(); cfg.tenants.len()];
    let mut fleet_hist = Histogram::new();
    let mut metas: Vec<RequestMeta> = Vec::new();
    let mut events = EventLog::new();
    // Admitted requests with nowhere to go (every node down); flushed on
    // the next recovery, counted as drops if none comes.
    let mut parked: Vec<QueuedRequest> = Vec::new();
    let mut rr_cursor = 0usize;
    let mut batch_seq = 0u64;
    let mut node_fault_events = 0u64;
    let mut rerouted = 0u64;
    let mut scale_ups = 0u64;
    let mut scale_downs = 0u64;
    let mut now_us = 0.0f64;
    let mut makespan_us = 0.0f64;
    let mut next_arr = 0usize;
    let mut fault_idx = 0usize;
    let mut next_tick_us = if cfg.autoscale.enabled {
        cfg.autoscale.interval_us
    } else {
        f64::INFINITY
    };

    // Re-enqueues an already-admitted request after its node failed:
    // bypasses admission and shedding (zero-drop guarantee), falls back to
    // emergency standby activation, and parks only when the whole fleet is
    // down.
    macro_rules! reroute_admitted {
        ($req:expr, $nodes:expr, $at:expr) => {{
            let req: QueuedRequest = $req;
            let meta = metas[req.id as usize];
            let mut cands = eligible_loads($nodes, est_us, $at);
            if cands.is_empty() {
                if let Some(id) = activate_standby($nodes) {
                    scale_ups += 1;
                    events.record($at, "activate", vec![("node", Json::Num(id as f64))]);
                    cands = eligible_loads($nodes, est_us, $at);
                }
            }
            if cands.is_empty() {
                parked.push(req);
            } else {
                let nid = route(cfg.router, &mut rr_cursor, &cands);
                rerouted += 1;
                events.record(
                    $at,
                    "reroute",
                    vec![
                        ("request", Json::Num(req.id as f64)),
                        ("node", Json::Num(nid as f64)),
                    ],
                );
                $nodes[nid].queues[meta.model_idx].push(req);
            }
        }};
    }

    loop {
        let run_draining = next_arr >= arrivals.len();
        let work_left = nodes.iter().any(|n| !n.is_idle());
        let faults_left = fault_idx < cfg.node_faults.events.len();
        if run_draining && !work_left && (parked.is_empty() || !faults_left) {
            break;
        }

        // Pick the next event: earliest time wins; at equal times the kind
        // priority (completion < fault < tick < arrival < dispatch) and
        // then the node/model order decide. `<` comparisons keep the first
        // (lowest-id) candidate on exact ties.
        let mut best_t = f64::INFINITY;
        let mut best_prio = u8::MAX;
        let mut best_ev: Option<Ev> = None;
        let offer = |t: f64,
                     prio: u8,
                     ev: Ev,
                     best_t: &mut f64,
                     best_prio: &mut u8,
                     best_ev: &mut Option<Ev>| {
            if t < *best_t || (t == *best_t && prio < *best_prio) {
                *best_t = t;
                *best_prio = prio;
                *best_ev = Some(ev);
            }
        };
        for (id, node) in nodes.iter().enumerate() {
            if let Some(fl) = &node.inflight {
                offer(
                    fl.finish_us,
                    0,
                    Ev::Complete(id),
                    &mut best_t,
                    &mut best_prio,
                    &mut best_ev,
                );
            }
        }
        if let Some(e) = cfg.node_faults.events.get(fault_idx) {
            offer(
                e.at_us.max(now_us),
                1,
                Ev::Fault,
                &mut best_t,
                &mut best_prio,
                &mut best_ev,
            );
        }
        for (id, node) in nodes.iter().enumerate() {
            if let Some(e) = node.channel_faults.get(node.next_fault) {
                offer(
                    e.at_us.max(now_us),
                    1,
                    Ev::ChannelFault(id),
                    &mut best_t,
                    &mut best_prio,
                    &mut best_ev,
                );
            }
        }
        if next_tick_us.is_finite() && (work_left || !run_draining) {
            offer(
                next_tick_us.max(now_us),
                2,
                Ev::Tick,
                &mut best_t,
                &mut best_prio,
                &mut best_ev,
            );
        }
        if let Some(a) = arrivals.get(next_arr) {
            offer(
                a.t_us.max(now_us),
                3,
                Ev::Arrival,
                &mut best_t,
                &mut best_prio,
                &mut best_ev,
            );
        }
        for (id, node) in nodes.iter().enumerate() {
            if let Some((at, mi)) = node.dispatch_candidate(now_us, run_draining) {
                offer(
                    at,
                    4,
                    Ev::Dispatch(id, mi),
                    &mut best_t,
                    &mut best_prio,
                    &mut best_ev,
                );
            }
        }

        let Some(ev) = best_ev else {
            // Nothing can ever fire again (e.g. parked work with no
            // recovery left was handled by the break above).
            break;
        };
        now_us = now_us.max(best_t);

        match ev {
            Ev::Complete(nid) => {
                let node = &mut nodes[nid];
                let fl = node.inflight.take().expect("offered completion");
                node.busy_us += fl.exec_us;
                node.window_busy_us += fl.exec_us;
                node.completed += fl.requests.len() as u64;
                makespan_us = makespan_us.max(fl.finish_us);
                let phase = phase_of(fl.finish_us, node.fault_window);
                for req in &fl.requests {
                    let meta = metas[req.id as usize];
                    let latency = fl.finish_us - meta.arrival_us;
                    tenant_hists[meta.tenant].record(latency);
                    fleet_hist.record(latency);
                    node.stats.phase_hists[phase].record(latency);
                    tc[meta.tenant].completed += 1;
                }
                let stats = &mut node.stats;
                if fl.profile.gpu_only() {
                    stats.completed_gpu_only += fl.requests.len() as u64;
                }
                for (acc, b) in stats
                    .pim_busy_us
                    .iter_mut()
                    .zip(&fl.profile.pim_channel_busy_us)
                {
                    *acc += b;
                }
                stats.fused_group_members =
                    fl.profile.fused_groups.iter().map(|g| g.members).collect();
                events.record(
                    fl.finish_us,
                    "complete",
                    vec![
                        ("node", Json::Num(nid as f64)),
                        ("batch", Json::Num(fl.batch_id as f64)),
                        ("size", Json::Num(fl.requests.len() as f64)),
                        ("exec_us", Json::Num(fl.exec_us)),
                    ],
                );
                if node.state == NodeState::Draining && node.is_idle() {
                    node.state = NodeState::Standby;
                    events.record(
                        fl.finish_us,
                        "drained",
                        vec![("node", Json::Num(nid as f64))],
                    );
                }
            }
            Ev::Fault => {
                let e = cfg.node_faults.events[fault_idx].clone();
                fault_idx += 1;
                node_fault_events += 1;
                let nid = e.channel;
                events.record(
                    e.at_us,
                    if e.up { "node_up" } else { "node_down" },
                    vec![("node", Json::Num(nid as f64))],
                );
                if nid >= n_nodes {
                    continue;
                }
                if e.up {
                    if nodes[nid].state == NodeState::Down {
                        nodes[nid].state = NodeState::Active;
                    }
                    // A recovery may unpark stranded requests.
                    let stranded: Vec<QueuedRequest> = std::mem::take(&mut parked);
                    for req in stranded {
                        reroute_admitted!(req, &mut nodes, now_us);
                    }
                } else if nodes[nid].state != NodeState::Down {
                    let mut strays: Vec<QueuedRequest> = Vec::new();
                    if let Some(fl) = nodes[nid].inflight.take() {
                        nodes[nid].retries += 1;
                        events.record(
                            e.at_us,
                            "abort",
                            vec![
                                ("node", Json::Num(nid as f64)),
                                ("batch", Json::Num(fl.batch_id as f64)),
                                ("wasted_us", Json::Num(e.at_us - fl.start_us)),
                            ],
                        );
                        strays.extend(fl.requests);
                    }
                    for q in &mut nodes[nid].queues {
                        while !q.is_empty() {
                            strays.extend(q.take_batch());
                        }
                    }
                    nodes[nid].state = NodeState::Down;
                    for req in strays {
                        reroute_admitted!(req, &mut nodes, now_us);
                    }
                }
            }
            Ev::ChannelFault(nid) => {
                let node = &mut nodes[nid];
                let e = node.channel_faults[node.next_fault].clone();
                node.next_fault += 1;
                node.stats.fault_events += 1;
                events.record(
                    e.at_us,
                    "fault",
                    vec![
                        ("node", Json::Num(nid as f64)),
                        ("channel", Json::Num(e.channel as f64)),
                        ("up", Json::Bool(e.up)),
                    ],
                );
                let old_mask = node.mask;
                node.mask = if e.up {
                    old_mask.with(e.channel)
                } else {
                    old_mask.without(e.channel)
                };
                if e.up || node.mask == old_mask {
                    continue; // recoveries never interrupt a running batch
                }
                node.repair_all(&graphs, &model_names, old_mask)?;
                // An in-flight batch using the failed channel aborts and
                // re-dispatches at once on the degraded plan, paying the
                // wasted time. Requests are never dropped.
                let Some((mi, size, batch_id, start_us)) = node
                    .inflight
                    .as_ref()
                    .filter(|fl| fl.profile.uses_channel(e.channel))
                    .map(|fl| (fl.model_idx, fl.requests.len(), fl.batch_id, fl.start_us))
                else {
                    continue;
                };
                node.retries += 1;
                events.record(
                    e.at_us,
                    "retry",
                    vec![
                        ("node", Json::Num(nid as f64)),
                        ("batch", Json::Num(batch_id as f64)),
                        ("channel", Json::Num(e.channel as f64)),
                        ("wasted_us", Json::Num(e.at_us - start_us)),
                    ],
                );
                let (profile, _) = node.profile(&graphs[mi], &model_names[mi], size)?;
                node.charge(&profile);
                let fl = node.inflight.as_mut().expect("retried batch is in flight");
                fl.start_us = e.at_us;
                fl.exec_us = profile.latency_us;
                fl.finish_us = e.at_us + profile.latency_us;
                fl.profile = profile;
            }
            Ev::Tick => {
                let at = next_tick_us;
                next_tick_us += cfg.autoscale.interval_us;
                let active = nodes
                    .iter()
                    .filter(|n| n.state == NodeState::Active)
                    .count();
                let standby = nodes
                    .iter()
                    .filter(|n| n.state == NodeState::Standby)
                    .count();
                let queued: usize = nodes.iter().map(|n| n.queue_depth()).sum();
                let busy: f64 = nodes.iter().map(|n| n.window_busy_us).sum();
                let utilization =
                    (busy / (cfg.autoscale.interval_us * active.max(1) as f64)).min(1.0);
                for node in &mut nodes {
                    node.window_busy_us = 0.0;
                }
                let sig = ScaleSignal {
                    queued_total: queued,
                    active_nodes: active,
                    standby_nodes: standby,
                    utilization,
                };
                match decide(&cfg.autoscale, &sig) {
                    ScaleDecision::Up => {
                        if let Some(id) = activate_standby(&mut nodes) {
                            scale_ups += 1;
                            events.record(at, "scale_up", vec![("node", Json::Num(id as f64))]);
                        }
                    }
                    ScaleDecision::Down => {
                        if let Some(id) = nodes.iter().rposition(|n| n.state == NodeState::Active) {
                            scale_downs += 1;
                            events.record(at, "scale_down", vec![("node", Json::Num(id as f64))]);
                            if nodes[id].is_idle() {
                                nodes[id].state = NodeState::Standby;
                            } else {
                                nodes[id].state = NodeState::Draining;
                            }
                        }
                    }
                    ScaleDecision::Hold => {}
                }
            }
            Ev::Arrival => {
                let a = &arrivals[next_arr];
                next_arr += 1;
                let tenant = a.tenant;
                let t_us = a.t_us;
                let id = metas.len() as u64;
                metas.push(RequestMeta {
                    tenant,
                    model_idx: tenant_model[tenant],
                    arrival_us: t_us,
                });
                tc[tenant].arrived += 1;
                if !buckets[tenant].try_take(t_us) {
                    tc[tenant].rej_rate += 1;
                    events.record(
                        t_us,
                        "reject",
                        vec![
                            ("request", Json::Num(id as f64)),
                            ("tenant", Json::Num(tenant as f64)),
                            ("reason", Json::Str("rate_limit".into())),
                        ],
                    );
                    continue;
                }
                let mut cands = eligible_loads(&nodes, est_us, now_us);
                if cands.is_empty() {
                    if let Some(act) = activate_standby(&mut nodes) {
                        scale_ups += 1;
                        events.record(t_us, "activate", vec![("node", Json::Num(act as f64))]);
                        cands = eligible_loads(&nodes, est_us, now_us);
                    }
                }
                if cands.is_empty() {
                    tc[tenant].rej_unavail += 1;
                    events.record(
                        t_us,
                        "reject",
                        vec![
                            ("request", Json::Num(id as f64)),
                            ("tenant", Json::Num(tenant as f64)),
                            ("reason", Json::Str("unavailable".into())),
                        ],
                    );
                    continue;
                }
                let nid = route(cfg.router, &mut rr_cursor, &cands);
                if cfg.admission.shed_queue_depth > 0
                    && nodes[nid].queue_depth() >= cfg.admission.shed_queue_depth
                {
                    tc[tenant].rej_shed += 1;
                    events.record(
                        t_us,
                        "reject",
                        vec![
                            ("request", Json::Num(id as f64)),
                            ("tenant", Json::Num(tenant as f64)),
                            ("reason", Json::Str("shed".into())),
                        ],
                    );
                    continue;
                }
                tc[tenant].admitted += 1;
                nodes[nid].queues[tenant_model[tenant]].push(QueuedRequest {
                    id,
                    arrival_us: t_us,
                });
                events.record(
                    t_us,
                    "route",
                    vec![
                        ("request", Json::Num(id as f64)),
                        ("tenant", Json::Num(tenant as f64)),
                        ("node", Json::Num(nid as f64)),
                    ],
                );
            }
            Ev::Dispatch(nid, mi) => {
                let node = &mut nodes[nid];
                let batch = node.queues[mi].take_batch();
                let size = batch.len();
                let (profile, hit) = node.profile(&graphs[mi], &model_names[mi], size)?;
                node.compiled.insert((mi, size));
                let batch_id = batch_seq;
                batch_seq += 1;
                node.batches += 1;
                node.stats.cache_hits += hit as u64;
                let sizes = &mut node.stats.batch_sizes;
                match sizes.binary_search_by_key(&size, |&(s, _)| s) {
                    Ok(i) => sizes[i].1 += 1,
                    Err(i) => sizes.insert(i, (size, 1)),
                }
                node.charge(&profile);
                let exec_us = profile.latency_us;
                events.record(
                    now_us,
                    "dispatch",
                    vec![
                        ("node", Json::Num(nid as f64)),
                        ("batch", Json::Num(batch_id as f64)),
                        ("model", Json::Str(model_names[mi].clone())),
                        ("size", Json::Num(size as f64)),
                        ("cache", Json::Str(if hit { "hit" } else { "miss" }.into())),
                    ],
                );
                node.inflight = Some(InFlight {
                    batch_id,
                    model_idx: mi,
                    start_us: now_us,
                    finish_us: now_us + exec_us,
                    exec_us,
                    requests: batch,
                    profile,
                });
            }
        }
    }

    let dropped = parked.len() as u64;
    let arrived: u64 = tc.iter().map(|t| t.arrived).sum();
    let admitted: u64 = tc.iter().map(|t| t.admitted).sum();
    let completed: u64 = tc.iter().map(|t| t.completed).sum();
    let rejected: u64 = tc
        .iter()
        .map(|t| t.rej_rate + t.rej_shed + t.rej_unavail)
        .sum();
    let tenants = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(ti, t)| TenantReport {
            name: t.name.clone(),
            model: model_names[tenant_model[ti]].clone(),
            arrived: tc[ti].arrived,
            admitted: tc[ti].admitted,
            completed: tc[ti].completed,
            rejected_rate_limited: tc[ti].rej_rate,
            rejected_shed: tc[ti].rej_shed,
            rejected_unavailable: tc[ti].rej_unavail,
            p50_us: tenant_hists[ti].quantile(0.50),
            p95_us: tenant_hists[ti].quantile(0.95),
            p99_us: tenant_hists[ti].quantile(0.99),
            mean_us: tenant_hists[ti].mean(),
            max_us: tenant_hists[ti].max(),
        })
        .collect();
    let node_reports = nodes
        .iter()
        .enumerate()
        .map(|(id, n)| NodeReport {
            node: id,
            class: n.class_name.clone(),
            policy: n.policy_name.clone(),
            batches: n.batches,
            completed: n.completed,
            retries: n.retries,
            busy_us: n.busy_us,
            utilization: if makespan_us > 0.0 {
                (n.busy_us / makespan_us).min(1.0)
            } else {
                0.0
            },
            energy_uj: n.energy_uj,
            cache_hit_rate: n.cache.hit_rate(),
            cost_cache: n.cost_cache.counters(),
            final_state: n.state.name().to_string(),
        })
        .collect();
    let total_busy: f64 = nodes.iter().map(|n| n.busy_us).sum();
    let report = FleetReport {
        router: cfg.router.name().to_string(),
        duration_s: cfg.duration_s,
        seed: cfg.seed,
        arrived,
        admitted,
        completed,
        rejected,
        dropped,
        makespan_us,
        throughput_rps: if makespan_us > 0.0 {
            completed as f64 / (makespan_us * 1e-6)
        } else {
            0.0
        },
        fleet_utilization: if makespan_us > 0.0 {
            (total_busy / (makespan_us * n_nodes as f64)).min(1.0)
        } else {
            0.0
        },
        rejection_rate: if arrived > 0 {
            rejected as f64 / arrived as f64
        } else {
            0.0
        },
        p50_us: fleet_hist.quantile(0.50),
        p99_us: fleet_hist.quantile(0.99),
        mean_us: fleet_hist.mean(),
        max_us: fleet_hist.max(),
        node_fault_events,
        rerouted,
        scale_ups,
        scale_downs,
        tenants,
        nodes: node_reports,
    };
    let stats = nodes.into_iter().map(|n| n.stats).collect();
    Ok((FleetOutcome { report, events }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionConfig, AutoscaleConfig, TenantSpec};
    use crate::traffic::TrafficSpec;

    fn two_tenant_cfg() -> FleetConfig {
        FleetConfig {
            seed: 7,
            ..FleetConfig::new(
                2,
                vec![
                    TenantSpec::new("alpha", "toy", TrafficSpec::Poisson { rps: 2_000.0 }),
                    TenantSpec::new("beta", "toy", TrafficSpec::Poisson { rps: 1_000.0 }),
                ],
            )
        }
    }

    #[test]
    fn fleet_serves_every_admitted_request() {
        let out = run_fleet(&two_tenant_cfg()).unwrap();
        let r = &out.report;
        assert!(r.arrived > 50, "arrived {}", r.arrived);
        assert_eq!(r.admitted, r.arrived, "no admission limits configured");
        assert_eq!(r.completed, r.admitted);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.dropped, 0);
        assert!(r.p99_us >= r.p50_us);
        let node_completed: u64 = r.nodes.iter().map(|n| n.completed).sum();
        assert_eq!(node_completed, r.completed);
        let tenant_completed: u64 = r.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(tenant_completed, r.completed);
        assert!(r.nodes.iter().all(|n| n.final_state == "active"));
    }

    #[test]
    fn same_seed_replays_byte_identically() {
        let a = run_fleet(&two_tenant_cfg()).unwrap();
        let b = run_fleet(&two_tenant_cfg()).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.events.to_jsonl(), b.events.to_jsonl());
        let c = run_fleet(&FleetConfig {
            seed: 8,
            ..two_tenant_cfg()
        })
        .unwrap();
        assert_ne!(a.events.to_jsonl(), c.events.to_jsonl());
    }

    #[test]
    fn rate_limit_rejects_and_accounts() {
        let mut cfg = two_tenant_cfg();
        cfg.tenants[0].rate_limit_rps = 500.0; // offered 2000
        cfg.tenants[0].burst = 2;
        let r = run_fleet(&cfg).unwrap().report;
        let t0 = &r.tenants[0];
        assert!(t0.rejected_rate_limited > 0);
        assert_eq!(
            t0.arrived,
            t0.completed + t0.rejected_rate_limited + t0.rejected_shed + t0.rejected_unavailable
        );
        // The unlimited tenant is untouched.
        assert_eq!(r.tenants[1].rejected_rate_limited, 0);
        assert_eq!(r.tenants[1].arrived, r.tenants[1].completed);
        assert!(r.rejection_rate > 0.0);
    }

    #[test]
    fn shedding_bounds_queue_depth() {
        let mut cfg = two_tenant_cfg();
        cfg.tenants[0].traffic = TrafficSpec::Poisson { rps: 20_000.0 };
        cfg.admission = AdmissionConfig {
            shed_queue_depth: 4,
        };
        let r = run_fleet(&cfg).unwrap().report;
        let shed: u64 = r.tenants.iter().map(|t| t.rejected_shed).sum();
        assert!(shed > 0, "overload must shed");
        assert_eq!(r.arrived, r.completed + r.rejected);
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn node_failures_reroute_without_drops() {
        let mut cfg = two_tenant_cfg();
        // Node 1 dies a third of the way in and recovers late.
        let mut faults = FaultScenario::none();
        faults.push(cfg.duration_s * 1e6 * 0.3, 1, false);
        faults.push(cfg.duration_s * 1e6 * 0.8, 1, true);
        cfg.node_faults = faults;
        let r = run_fleet(&cfg).unwrap().report;
        assert_eq!(r.node_fault_events, 2);
        assert_eq!(r.completed, r.admitted, "zero drops under node faults");
        assert_eq!(r.dropped, 0);
        assert!(
            r.nodes[0].completed > r.nodes[1].completed,
            "survivor carries the load"
        );
    }

    #[test]
    fn autoscaler_activates_standby_under_backlog() {
        let mut cfg = two_tenant_cfg();
        cfg.classes[0].count = 4;
        cfg.initial_standby = 3;
        cfg.tenants[0].traffic = TrafficSpec::Poisson { rps: 30_000.0 };
        cfg.autoscale = AutoscaleConfig {
            enabled: true,
            interval_us: 2_000.0,
            up_queue_per_active: 4.0,
            down_utilization: 0.05,
        };
        let r = run_fleet(&cfg).unwrap().report;
        assert!(r.scale_ups > 0, "backlog must trigger scale-ups");
        assert_eq!(r.completed, r.admitted);
        assert!(
            r.nodes.iter().filter(|n| n.batches > 0).count() > 1,
            "activated nodes must take work"
        );
    }

    #[test]
    fn heterogeneous_fleet_uses_both_classes() {
        let mut cfg = two_tenant_cfg();
        cfg.classes = vec![
            crate::config::NodeClass::new("big", pimflow::policy::Policy::Pimflow, 1),
            crate::config::NodeClass {
                pim_channels: Some(4),
                ..crate::config::NodeClass::new("edge", pimflow::policy::Policy::Pimflow, 1)
            },
        ];
        cfg.router = RouterPolicy::SloAware;
        let r = run_fleet(&cfg).unwrap().report;
        assert_eq!(r.nodes[0].class, "big");
        assert_eq!(r.nodes[1].class, "edge");
        assert_eq!(r.completed, r.admitted);
        assert!(r.nodes.iter().all(|n| n.batches > 0));
    }

    #[test]
    fn precompiled_fleet_matches_lazy_timeline() {
        let lazy = run_fleet(&two_tenant_cfg()).unwrap();
        let warm = run_fleet(&FleetConfig {
            precompile: true,
            ..two_tenant_cfg()
        })
        .unwrap();
        assert_eq!(lazy.report.p50_us, warm.report.p50_us);
        assert_eq!(lazy.report.p99_us, warm.report.p99_us);
        assert_eq!(lazy.report.makespan_us, warm.report.makespan_us);
        assert_eq!(lazy.report.completed, warm.report.completed);
        // Warm caches hit on every dispatch.
        assert!(warm.report.nodes.iter().all(|n| n.cache_hit_rate == 1.0));
    }

    #[test]
    fn precompiled_slo_fleet_matches_lazy_timeline() {
        // The SLO router's estimates come from the precompiled batch-1
        // profiles in one run and from cold compiles in the other. The
        // load queues requests, so the estimates steer routing.
        let hetero = |precompile| FleetConfig {
            classes: vec![
                crate::config::NodeClass::new("big", pimflow::policy::Policy::Pimflow, 2),
                crate::config::NodeClass {
                    pim_channels: Some(4),
                    ..crate::config::NodeClass::new("edge", pimflow::policy::Policy::Pimflow, 2)
                },
            ],
            router: RouterPolicy::SloAware,
            precompile,
            tenants: vec![
                TenantSpec::new("alpha", "toy", TrafficSpec::Poisson { rps: 20_000.0 }),
                TenantSpec::new("beta", "toy", TrafficSpec::Poisson { rps: 10_000.0 }),
            ],
            duration_s: 0.02,
            ..two_tenant_cfg()
        };
        let lazy = run_fleet(&hetero(false)).unwrap();
        let warm = run_fleet(&hetero(true)).unwrap();
        assert!(lazy.report.completed > 50);
        assert_eq!(lazy.report.p50_us, warm.report.p50_us);
        assert_eq!(lazy.report.p99_us, warm.report.p99_us);
        assert_eq!(lazy.report.makespan_us, warm.report.makespan_us);
        assert_eq!(lazy.report.completed, warm.report.completed);
    }

    #[test]
    fn report_serializes_and_round_trips() {
        let r = run_fleet(&two_tenant_cfg()).unwrap().report;
        let json = pimflow_json::to_string(&r);
        let back: FleetReport = pimflow_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn unknown_model_is_rejected() {
        let cfg = FleetConfig::new(
            1,
            vec![TenantSpec::new(
                "t",
                "gpt-5",
                TrafficSpec::Fixed { rps: 10.0 },
            )],
        );
        assert!(matches!(
            run_fleet(&cfg),
            Err(FleetError::Serve(ServeError::UnknownModel(_)))
        ));
    }
}
