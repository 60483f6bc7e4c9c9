//! Fleet-serving experiment: routers, faults, and autoscaling at fleet
//! scale.
//!
//! Runs the [`pimflow_fleet`] simulator over a fixed heterogeneous
//! scenario — big 16-channel PIMFlow nodes next to reduced-channel edge
//! nodes, heavy-tailed multi-tenant traffic — once per router policy, then
//! replays the same fleet under a seeded node-fault scenario and under the
//! autoscaler. `figures fleet` writes the result as `BENCH_fleet.json`.
//!
//! The artifact records three grep-able invariants CI checks:
//!
//! - `zero_drops_on_healthy_fleet` — every admitted request completes on
//!   every healthy router run.
//! - `slo_router_beats_round_robin` — the SLO-aware router's *worst-tenant*
//!   p99 is no worse than round-robin's on the heterogeneous fleet (the
//!   point of predicting latency instead of rotating blindly).
//! - `zero_drops_under_node_faults` — node failures reroute admitted
//!   requests instead of dropping them.
//!
//! The whole simulation is deterministic (no wall-clock in any reported
//! number), so these are hard invariants, not host-dependent measurements.

use pimflow::policy::Policy;
use pimflow_fleet::{
    run_fleet, AutoscaleConfig, FleetConfig, FleetError, NodeClass, RouterPolicy, TrafficSpec,
};
use pimflow_json::json_struct;

/// One router policy evaluated at one offered-load point of the shared
/// heterogeneous scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterPoint {
    /// Router display name.
    pub router: String,
    /// Total offered load at this point, requests per second.
    pub rps: f64,
    /// Fleet-wide median latency, microseconds.
    pub p50_us: f64,
    /// Fleet-wide 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Worst per-tenant p99 latency, microseconds (the multi-tenant SLO
    /// number: the tenant the router treats worst).
    pub worst_tenant_p99_us: f64,
    /// Mean busy fraction across all nodes over the makespan.
    pub fleet_utilization: f64,
    /// Completed requests per second of makespan.
    pub throughput_rps: f64,
    /// Rejected requests as a fraction of arrivals.
    pub rejection_rate: f64,
    /// Requests completed.
    pub completed: u64,
    /// Admitted requests never served (must be 0 on a healthy fleet).
    pub dropped: u64,
}

json_struct!(RouterPoint {
    router,
    rps,
    p50_us,
    p99_us,
    worst_tenant_p99_us,
    fleet_utilization,
    throughput_rps,
    rejection_rate,
    completed,
    dropped
});

/// Per-tenant latency row from the SLO-aware run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPoint {
    /// Tenant display name.
    pub name: String,
    /// Requests that arrived.
    pub arrived: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected (all admission reasons).
    pub rejected: u64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
}

json_struct!(TenantPoint {
    name,
    arrived,
    completed,
    rejected,
    p50_us,
    p99_us
});

/// The seeded node-fault replay on the same fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPoint {
    /// Node up/down transitions replayed.
    pub node_fault_events: u64,
    /// Requests rerouted off failed nodes.
    pub rerouted: u64,
    /// In-flight batches aborted by failures.
    pub aborted_batches: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Admitted requests never served (must be 0: recoveries unpark).
    pub dropped: u64,
    /// Fleet-wide p99 under faults, microseconds.
    pub p99_us: f64,
}

json_struct!(FaultPoint {
    node_fault_events,
    rerouted,
    aborted_batches,
    completed,
    admitted,
    dropped,
    p99_us
});

/// The autoscaler replay: diurnal load against a mostly-standby fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalePoint {
    /// Standby nodes activated.
    pub scale_ups: u64,
    /// Active nodes drained.
    pub scale_downs: u64,
    /// Requests completed.
    pub completed: u64,
    /// Admitted requests never served.
    pub dropped: u64,
    /// Fleet-wide p99, microseconds.
    pub p99_us: f64,
}

json_struct!(AutoscalePoint {
    scale_ups,
    scale_downs,
    completed,
    dropped,
    p99_us
});

/// The full fleet artifact written to `BENCH_fleet.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBenchReport {
    /// Model every tenant serves.
    pub model: String,
    /// Run window per scenario, seconds.
    pub duration_s: f64,
    /// Fleet seed shared by every scenario.
    pub seed: u64,
    /// Full-size nodes in the fleet.
    pub big_nodes: usize,
    /// Reduced-channel edge nodes in the fleet.
    pub edge_nodes: usize,
    /// PIM channels per edge node.
    pub edge_channels: usize,
    /// Tenants sharing the fleet.
    pub tenants: usize,
    /// Offered-load points swept, requests per second.
    pub rps_points: Vec<f64>,
    /// Whether this is the reduced CI (`--smoke`) configuration.
    pub smoke: bool,
    /// One entry per (offered load, router policy) on the healthy fleet.
    pub routers: Vec<RouterPoint>,
    /// Per-tenant rows from the SLO-aware run at the lightest load point.
    pub tenant_points: Vec<TenantPoint>,
    /// The seeded node-fault replay (least-loaded router, heaviest load).
    pub faults: FaultPoint,
    /// The autoscaler replay (diurnal load, standby pool, lightest load).
    pub autoscale: AutoscalePoint,
    /// Every healthy router run completed all admitted requests.
    pub zero_drops_on_healthy_fleet: bool,
    /// SLO-aware worst-tenant p99 <= round-robin worst-tenant p99 on at
    /// least one swept load point.
    pub slo_router_beats_round_robin: bool,
    /// The fault replay completed all admitted requests.
    pub zero_drops_under_node_faults: bool,
}

json_struct!(FleetBenchReport {
    model,
    duration_s,
    seed,
    big_nodes,
    edge_nodes,
    edge_channels,
    tenants,
    rps_points,
    smoke,
    routers,
    tenant_points,
    faults,
    autoscale,
    zero_drops_on_healthy_fleet,
    slo_router_beats_round_robin,
    zero_drops_under_node_faults
});

/// Parameters of the fleet benchmark scenario.
#[derive(Debug, Clone)]
pub struct FleetSweepConfig {
    /// Model every tenant serves.
    pub model: String,
    /// Run window per scenario, seconds.
    pub duration_s: f64,
    /// Fleet seed.
    pub seed: u64,
    /// Full-size PIMFlow nodes.
    pub big_nodes: usize,
    /// Reduced-channel edge nodes.
    pub edge_nodes: usize,
    /// PIM channels per edge node.
    pub edge_channels: usize,
    /// Tenants (heavy-tailed Zipf split of the total load).
    pub tenants: usize,
    /// Offered-load points to sweep, requests per second.
    pub rps_points: Vec<f64>,
    /// Zipf exponent of the tenant mix.
    pub alpha: f64,
}

impl Default for FleetSweepConfig {
    fn default() -> Self {
        FleetSweepConfig {
            model: "toy".into(),
            duration_s: 0.2,
            seed: 7,
            big_nodes: 2,
            edge_nodes: 2,
            edge_channels: 6,
            tenants: 4,
            rps_points: vec![12_000.0, 60_000.0],
            alpha: 1.2,
        }
    }
}

impl FleetSweepConfig {
    /// The reduced configuration CI runs (`figures fleet --smoke`): same
    /// fleet shape, a quarter of the window.
    pub fn smoke() -> Self {
        FleetSweepConfig {
            duration_s: 0.05,
            ..FleetSweepConfig::default()
        }
    }

    /// The base [`FleetConfig`] of the scenario at one offered load
    /// (least-loaded router, no faults, no autoscaler); the sweep varies
    /// router/faults/autoscale on top of it.
    fn fleet_config(&self, total_rps: f64) -> FleetConfig {
        let mut cfg = FleetConfig::new(
            0,
            FleetConfig::heavy_tailed_tenants(self.tenants, &self.model, total_rps, self.alpha),
        );
        cfg.classes = vec![
            NodeClass::new("big", Policy::Pimflow, self.big_nodes),
            NodeClass {
                pim_channels: Some(self.edge_channels),
                ..NodeClass::new("edge", Policy::Pimflow, self.edge_nodes)
            },
        ];
        cfg.duration_s = self.duration_s;
        cfg.seed = self.seed;
        cfg
    }
}

/// Runs the three-part fleet benchmark: router comparison, fault replay,
/// autoscaler replay.
///
/// # Errors
///
/// Propagates [`FleetError`] from the first failing scenario.
pub fn sweep(cfg: &FleetSweepConfig, smoke: bool) -> Result<FleetBenchReport, FleetError> {
    // Part 1: one healthy run per (offered load, router policy) pair on
    // the same fleet.
    let light_rps = cfg.rps_points.first().copied().unwrap_or(12_000.0);
    let heavy_rps = cfg.rps_points.last().copied().unwrap_or(light_rps);
    let mut routers = Vec::new();
    let mut tenant_points = Vec::new();
    for &rps in &cfg.rps_points {
        for router in [
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastLoaded,
            RouterPolicy::SloAware,
        ] {
            let mut fc = cfg.fleet_config(rps);
            fc.router = router;
            let r = run_fleet(&fc)?.report;
            let worst = r.tenants.iter().map(|t| t.p99_us).fold(0.0f64, f64::max);
            routers.push(RouterPoint {
                router: r.router.clone(),
                rps,
                p50_us: r.p50_us,
                p99_us: r.p99_us,
                worst_tenant_p99_us: worst,
                fleet_utilization: r.fleet_utilization,
                throughput_rps: r.throughput_rps,
                rejection_rate: r.rejection_rate,
                completed: r.completed,
                dropped: r.dropped,
            });
            if router == RouterPolicy::SloAware && rps == light_rps {
                tenant_points = r
                    .tenants
                    .iter()
                    .map(|t| TenantPoint {
                        name: t.name.clone(),
                        arrived: t.arrived,
                        completed: t.completed,
                        rejected: t.rejected_rate_limited
                            + t.rejected_shed
                            + t.rejected_unavailable,
                        p50_us: t.p50_us,
                        p99_us: t.p99_us,
                    })
                    .collect();
            }
        }
    }

    // Part 2: the same fleet under a seeded node-fault scenario, at the
    // heaviest load.
    let mut fault_cfg = cfg.fleet_config(heavy_rps);
    fault_cfg.node_faults = pimflow_serve::FaultScenario::from_seed(
        cfg.seed,
        fault_cfg.node_count(),
        0.5,
        cfg.duration_s,
    );
    let fr = run_fleet(&fault_cfg)?.report;
    let faults = FaultPoint {
        node_fault_events: fr.node_fault_events,
        rerouted: fr.rerouted,
        aborted_batches: fr.nodes.iter().map(|n| n.retries).sum(),
        completed: fr.completed,
        admitted: fr.admitted,
        dropped: fr.dropped,
        p99_us: fr.p99_us,
    };

    // Part 3: diurnal load against one active node and a standby pool,
    // with the autoscaler growing and shrinking the fleet.
    let mut auto_cfg = cfg.fleet_config(light_rps);
    for t in &mut auto_cfg.tenants {
        if let TrafficSpec::Poisson { rps } = t.traffic {
            t.traffic = TrafficSpec::Diurnal {
                mean_rps: rps,
                amplitude: 0.9,
                period_s: cfg.duration_s,
            };
        }
    }
    auto_cfg.initial_standby = auto_cfg.node_count() - 1;
    auto_cfg.autoscale = AutoscaleConfig {
        enabled: true,
        interval_us: cfg.duration_s * 1e6 / 40.0,
        up_queue_per_active: 4.0,
        down_utilization: 0.10,
    };
    let ar = run_fleet(&auto_cfg)?.report;
    let autoscale = AutoscalePoint {
        scale_ups: ar.scale_ups,
        scale_downs: ar.scale_downs,
        completed: ar.completed,
        dropped: ar.dropped,
        p99_us: ar.p99_us,
    };

    // The SLO router must win (or tie) the worst-tenant tail on at least
    // one swept load point against blind rotation.
    let slo_beats_rr = cfg.rps_points.iter().any(|&rps| {
        let worst = |name: &str| {
            routers
                .iter()
                .find(|p| p.rps == rps && p.router == name)
                .expect("swept")
                .worst_tenant_p99_us
        };
        worst("slo-aware") <= worst("round-robin")
    });
    Ok(FleetBenchReport {
        model: cfg.model.clone(),
        duration_s: cfg.duration_s,
        seed: cfg.seed,
        big_nodes: cfg.big_nodes,
        edge_nodes: cfg.edge_nodes,
        edge_channels: cfg.edge_channels,
        tenants: cfg.tenants,
        rps_points: cfg.rps_points.clone(),
        smoke,
        zero_drops_on_healthy_fleet: routers.iter().all(|p| p.dropped == 0),
        slo_router_beats_round_robin: slo_beats_rr,
        zero_drops_under_node_faults: faults.dropped == 0,
        routers,
        tenant_points,
        faults,
        autoscale,
    })
}

/// Runs the fleet benchmark and writes `BENCH_fleet.json` under `dir`.
/// Returns the report and the path written. `smoke` selects the reduced
/// CI configuration.
///
/// # Errors
///
/// Returns a rendered error when a scenario or the write fails.
pub fn write_bench_artifact(
    dir: &std::path::Path,
    smoke: bool,
) -> Result<(FleetBenchReport, std::path::PathBuf), String> {
    let cfg = if smoke {
        FleetSweepConfig::smoke()
    } else {
        FleetSweepConfig::default()
    };
    let report = sweep(&cfg, smoke).map_err(|e| e.to_string())?;
    crate::write_json_artifact(dir, "BENCH_fleet.json", report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetSweepConfig {
        FleetSweepConfig {
            duration_s: 0.03,
            ..FleetSweepConfig::default()
        }
    }

    #[test]
    fn sweep_covers_routers_faults_and_autoscale() {
        let report = sweep(&tiny(), true).unwrap();
        assert_eq!(report.routers.len(), 3 * report.rps_points.len());
        assert!(report.zero_drops_on_healthy_fleet);
        assert!(report.zero_drops_under_node_faults);
        assert_eq!(report.tenant_points.len(), report.tenants);
        assert!(report.routers.iter().all(|p| p.completed > 0));
        assert!(report.faults.node_fault_events > 0);
        let json = pimflow_json::to_string(&report);
        let back: FleetBenchReport = pimflow_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn slo_router_never_trails_round_robin_on_worst_tenant() {
        let report = sweep(&tiny(), true).unwrap();
        assert!(
            report.slo_router_beats_round_robin,
            "slo worst-tenant p99 must not exceed round-robin's: {:?}",
            report
                .routers
                .iter()
                .map(|p| (p.router.clone(), p.worst_tenant_p99_us))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = sweep(&tiny(), true).unwrap();
        let b = sweep(&tiny(), true).unwrap();
        assert_eq!(a, b);
    }
}
