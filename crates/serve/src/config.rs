//! Fleet configuration: node classes, tenants, router/admission/autoscaler
//! knobs, and the top-level [`FleetConfig`] the simulator runs.

use crate::cache::DEFAULT_PLAN_CACHE_CAP;
use crate::fault::FaultScenario;
use crate::traffic::{zipf_weights, TrafficSpec};
use pimflow::engine::{ChannelMask, EngineConfig};
use pimflow::policy::Policy;
use pimflow_json::json_unit_enum;

/// How the router picks a node for an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Rotate through the eligible nodes in order, ignoring load.
    RoundRobin,
    /// Pick the eligible node with the fewest queued requests.
    LeastLoaded,
    /// Pick the eligible node with the earliest predicted completion of
    /// one more request, using per-class batch latency predictions from
    /// the compiled plans
    /// ([`ExecutionPlan::predicted_us`](pimflow::search::ExecutionPlan)).
    SloAware,
}

json_unit_enum!(RouterPolicy {
    RoundRobin,
    LeastLoaded,
    SloAware
});

impl RouterPolicy {
    /// Display name, used in reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::LeastLoaded => "least-loaded",
            RouterPolicy::SloAware => "slo-aware",
        }
    }

    /// Parses a CLI spelling (`rr`, `round-robin`, `least-loaded`, `slo`,
    /// ...). Returns `None` for unknown names.
    pub fn from_cli(name: &str) -> Option<RouterPolicy> {
        match name.to_ascii_lowercase().as_str() {
            "rr" | "round-robin" | "roundrobin" => Some(RouterPolicy::RoundRobin),
            "least" | "least-loaded" | "leastloaded" | "queue" => Some(RouterPolicy::LeastLoaded),
            "slo" | "slo-aware" | "sloaware" | "latency" => Some(RouterPolicy::SloAware),
            _ => None,
        }
    }
}

/// One class of identical PIM-GPU nodes in the fleet. Heterogeneous fleets
/// mix classes — e.g. big 16-channel PIMFlow nodes next to small 8-channel
/// edge nodes, per the edge-to-cloud motivation in PAPERS.md.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeClass {
    /// Class display name (`big`, `edge`, ...).
    pub name: String,
    /// Offloading policy the class's devices run under.
    pub policy: Policy,
    /// PIM channel-count override; `None` keeps the policy default.
    pub pim_channels: Option<usize>,
    /// Number of nodes of this class.
    pub count: usize,
}

impl NodeClass {
    /// A class of `count` nodes with the policy's stock device config.
    pub fn new(name: impl Into<String>, policy: Policy, count: usize) -> Self {
        NodeClass {
            name: name.into(),
            policy,
            pim_channels: None,
            count,
        }
    }

    /// The engine configuration of one node of this class.
    pub fn engine_config(&self) -> EngineConfig {
        let mut cfg = self.policy.engine_config();
        if let Some(n) = self.pim_channels {
            cfg.pim_channels = n;
            cfg.pim_channel_mask = ChannelMask::all();
        }
        cfg
    }
}

/// One tenant: a named traffic stream against one model, with its own
/// token-bucket rate limit.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant display name.
    pub name: String,
    /// Model the tenant's requests run (zoo name or alias).
    pub model: String,
    /// Arrival stream.
    pub traffic: TrafficSpec,
    /// Token-bucket refill rate, requests per second; `0` disables rate
    /// limiting for this tenant.
    pub rate_limit_rps: f64,
    /// Token-bucket depth (burst allowance), requests.
    pub burst: usize,
}

impl TenantSpec {
    /// An unlimited tenant with the given traffic.
    pub fn new(name: impl Into<String>, model: impl Into<String>, traffic: TrafficSpec) -> Self {
        TenantSpec {
            name: name.into(),
            model: model.into(),
            traffic,
            rate_limit_rps: 0.0,
            burst: 1,
        }
    }
}

/// Queue-depth shedding knobs (token buckets live per tenant in
/// [`TenantSpec`]). The default (`0`) disables shedding.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdmissionConfig {
    /// Reject a new request when the routed-to node already holds this
    /// many queued requests; `0` disables shedding.
    pub shed_queue_depth: usize,
}

/// Autoscaler knobs; see [`crate::autoscale`] for the decision rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Whether the autoscaler runs at all.
    pub enabled: bool,
    /// Interval between autoscaler evaluations, microseconds.
    pub interval_us: f64,
    /// Scale up when total queued requests exceed this many per active
    /// node.
    pub up_queue_per_active: f64,
    /// Drain a node when window utilization falls below this fraction (and
    /// nothing is queued).
    pub down_utilization: f64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            enabled: false,
            interval_us: 50_000.0,
            up_queue_per_active: 8.0,
            down_utilization: 0.15,
        }
    }
}

/// Configuration of one fleet simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Node classes; nodes are numbered in class order (class 0's nodes
    /// first).
    pub classes: Vec<NodeClass>,
    /// Tenants sharing the fleet.
    pub tenants: Vec<TenantSpec>,
    /// Run window in seconds (arrivals beyond it are dropped; queued work
    /// still drains).
    pub duration_s: f64,
    /// Fleet seed; per-tenant stream seeds derive from it.
    pub seed: u64,
    /// Dynamic batching: maximum batch size (per node, per model).
    pub max_batch: usize,
    /// Dynamic batching: flush timeout after the oldest arrival, us.
    pub batch_timeout_us: f64,
    /// Per-node LRU plan-cache capacity.
    pub plan_cache_cap: usize,
    /// Routing policy.
    pub router: RouterPolicy,
    /// Queue-depth shedding.
    pub admission: AdmissionConfig,
    /// Autoscaler.
    pub autoscale: AutoscaleConfig,
    /// Nodes (counting from the highest id down) that start in standby —
    /// the pool the autoscaler can grow into.
    pub initial_standby: usize,
    /// Node-granular fault scenario: `channel` indexes the *node*, a down
    /// transition hard-fails the whole node, an up transition restores it.
    pub node_faults: FaultScenario,
    /// Compile every (node class, model, batch size) plan once on the
    /// worker pool before the simulation starts (width from
    /// `PIMFLOW_JOBS`) and warm every node of the class with it. Host
    /// work: the simulated timeline is unchanged.
    pub precompile: bool,
}

impl FleetConfig {
    /// A single-class fleet of `nodes` PIMFlow nodes with the given
    /// tenants: 50 ms run, seed 0, batches of up to 8 with a 2 ms timeout,
    /// least-loaded routing, no shedding, no autoscaler, no faults.
    pub fn new(nodes: usize, tenants: Vec<TenantSpec>) -> Self {
        FleetConfig {
            classes: vec![NodeClass::new("node", Policy::Pimflow, nodes)],
            tenants,
            duration_s: 0.05,
            seed: 0,
            max_batch: 8,
            batch_timeout_us: 2_000.0,
            plan_cache_cap: DEFAULT_PLAN_CACHE_CAP,
            router: RouterPolicy::LeastLoaded,
            admission: AdmissionConfig::default(),
            autoscale: AutoscaleConfig::default(),
            initial_standby: 0,
            node_faults: FaultScenario::none(),
            precompile: false,
        }
    }

    /// Total node count across all classes.
    pub fn node_count(&self) -> usize {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Builds a heavy-tailed tenant mix: `n` tenants named `t0..`, all on
    /// `model`, sharing `total_rps` of Poisson traffic Zipf(`alpha`)-style
    /// (tenant 0 heaviest), unlimited rate.
    pub fn heavy_tailed_tenants(
        n: usize,
        model: &str,
        total_rps: f64,
        alpha: f64,
    ) -> Vec<TenantSpec> {
        zipf_weights(n, alpha)
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                TenantSpec::new(
                    format!("t{i}"),
                    model,
                    TrafficSpec::Poisson { rps: total_rps * w },
                )
            })
            .collect()
    }

    /// Validates structural invariants before a run.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.classes.is_empty() || self.node_count() == 0 {
            return Err("fleet needs at least one node".into());
        }
        if self.tenants.is_empty() {
            return Err("fleet needs at least one tenant".into());
        }
        if self.duration_s <= 0.0 {
            return Err("duration must be positive".into());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be at least 1".into());
        }
        if self.plan_cache_cap == 0 {
            return Err("plan_cache_cap must be at least 1".into());
        }
        if self.initial_standby >= self.node_count() {
            return Err("at least one node must start active".into());
        }
        for class in &self.classes {
            if class.pim_channels == Some(0) && class.policy != Policy::Baseline {
                return Err(format!("class `{}`: pim_channels must be >= 1", class.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_policy_round_trips_cli_names() {
        for (s, p) in [
            ("rr", RouterPolicy::RoundRobin),
            ("round-robin", RouterPolicy::RoundRobin),
            ("least-loaded", RouterPolicy::LeastLoaded),
            ("slo", RouterPolicy::SloAware),
            ("SLO-Aware", RouterPolicy::SloAware),
        ] {
            assert_eq!(RouterPolicy::from_cli(s), Some(p), "{s}");
        }
        assert_eq!(RouterPolicy::from_cli("random"), None);
    }

    #[test]
    fn node_class_overrides_pim_channels() {
        let class = NodeClass {
            pim_channels: Some(8),
            ..NodeClass::new("edge", Policy::Pimflow, 2)
        };
        assert_eq!(class.engine_config().pim_channels, 8);
        assert_eq!(
            NodeClass::new("big", Policy::Pimflow, 1)
                .engine_config()
                .pim_channels,
            Policy::Pimflow.engine_config().pim_channels
        );
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        let tenants = vec![TenantSpec::new(
            "t0",
            "toy",
            TrafficSpec::Fixed { rps: 100.0 },
        )];
        assert!(FleetConfig::new(2, tenants.clone()).validate().is_ok());
        assert!(FleetConfig::new(0, tenants.clone()).validate().is_err());
        assert!(FleetConfig::new(2, Vec::new()).validate().is_err());
        let mut cfg = FleetConfig::new(2, tenants.clone());
        cfg.initial_standby = 2;
        assert!(cfg.validate().is_err());
        let mut cfg = FleetConfig::new(2, tenants);
        cfg.max_batch = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn heavy_tailed_tenants_split_the_load() {
        let tenants = FleetConfig::heavy_tailed_tenants(4, "toy", 1000.0, 1.2);
        assert_eq!(tenants.len(), 4);
        let rates: Vec<f64> = tenants
            .iter()
            .map(|t| match t.traffic {
                TrafficSpec::Poisson { rps } => rps,
                _ => unreachable!(),
            })
            .collect();
        assert!((rates.iter().sum::<f64>() - 1000.0).abs() < 1e-9);
        assert!(rates[0] > rates[3] * 2.0, "rank 0 dominates: {rates:?}");
    }
}
