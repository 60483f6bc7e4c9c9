//! Serving and fleet share one discrete-event loop. A fault-free fleet of
//! one node with one tenant must reproduce `pimflow_serve::run` exactly,
//! and every event trace the loop writes must be in simulated-time order.

use pimflow::policy::Policy;
use pimflow_fleet::{run_fleet, FleetConfig, NodeClass, TenantSpec, TrafficSpec};
use pimflow_json::Json;
use pimflow_serve::{run, ArrivalSpec, FaultScenario, ServeConfig};

fn serve_cfg(model: &str, rps: f64, duration_s: f64) -> ServeConfig {
    ServeConfig {
        arrival: ArrivalSpec::Fixed { rps },
        duration_s,
        ..ServeConfig::new(model, Policy::Pimflow)
    }
}

/// The fleet spelling of `cfg`: one node of the same policy, one tenant
/// sending the same fixed-rate stream, identical batching and plan cache.
fn one_node_fleet(cfg: &ServeConfig) -> FleetConfig {
    let ArrivalSpec::Fixed { rps } = cfg.arrival else {
        panic!("fixed-rate traffic only");
    };
    FleetConfig {
        classes: vec![NodeClass::new("node", cfg.policy, 1)],
        duration_s: cfg.duration_s,
        max_batch: cfg.max_batch,
        batch_timeout_us: cfg.batch_timeout_us,
        plan_cache_cap: cfg.plan_cache_cap,
        ..FleetConfig::new(
            1,
            vec![TenantSpec::new(
                "solo",
                cfg.model.clone(),
                TrafficSpec::Fixed { rps },
            )],
        )
    }
}

#[test]
fn one_node_one_tenant_fleet_equals_serve() {
    for (model, rps) in [
        ("toy", 2_000.0),
        ("toy", 20_000.0),
        ("mobilenet-v2", 8_000.0),
    ] {
        let cfg = serve_cfg(model, rps, 0.02);
        let serve = run(&cfg).expect("serve runs").report;
        let fleet = run_fleet(&one_node_fleet(&cfg)).expect("fleet runs").report;
        let node = &fleet.nodes[0];
        let at = format!("{model} at {rps} rps");
        assert!(serve.counters.completed > 0, "{at}: serve must do work");
        assert_eq!(fleet.p50_us, serve.p50_us, "{at}: p50");
        assert_eq!(fleet.p99_us, serve.p99_us, "{at}: p99");
        assert_eq!(fleet.makespan_us, serve.makespan_us, "{at}: makespan");
        assert_eq!(fleet.completed, serve.counters.completed, "{at}: completed");
        assert_eq!(node.energy_uj, serve.energy_uj, "{at}: energy");
        assert_eq!(node.cache_hit_rate, serve.cache_hit_rate, "{at}: hit rate");
        assert_eq!(node.cost_cache, serve.cost_cache, "{at}: cost cache");
    }
}

/// Asserts that `t_us` never decreases from one trace line to the next.
fn assert_time_ordered(jsonl: &str, what: &str) {
    let mut last = f64::NEG_INFINITY;
    let mut lines = 0;
    for (i, line) in jsonl.lines().enumerate() {
        let t = Json::parse(line)
            .and_then(|j| j.field("t_us")?.number())
            .unwrap_or_else(|e| panic!("{what}: line {i} has no numeric t_us: {e}"));
        assert!(
            t >= last,
            "{what}: line {i} steps back in time ({t} after {last}): {line}"
        );
        last = t;
        lines += 1;
    }
    assert!(lines > 10, "{what}: the trace must have content");
}

#[test]
fn serve_traces_are_time_ordered_with_and_without_faults() {
    let healthy = ServeConfig {
        arrival: ArrivalSpec::Poisson { rps: 8_000.0 },
        seed: 1,
        ..serve_cfg("mobilenet-v2", 8_000.0, 0.02)
    };
    let stormy = ServeConfig {
        faults: FaultScenario::from_seed(0xFA17, 16, 1.0, healthy.duration_s),
        ..healthy.clone()
    };
    for (what, cfg) in [("healthy serve", healthy), ("faulty serve", stormy)] {
        let out = run(&cfg).expect("serve runs");
        assert_time_ordered(&out.events.to_jsonl(), what);
    }
}

#[test]
fn fleet_traces_are_time_ordered_with_and_without_faults() {
    let healthy = FleetConfig {
        seed: 3,
        duration_s: 0.03,
        ..FleetConfig::new(
            3,
            vec![
                TenantSpec::new("a", "toy", TrafficSpec::Poisson { rps: 6_000.0 }),
                TenantSpec::new("b", "toy", TrafficSpec::Poisson { rps: 3_000.0 }),
            ],
        )
    };
    let faulty = FleetConfig {
        node_faults: FaultScenario::from_seed(5, 3, 0.6, healthy.duration_s),
        ..healthy.clone()
    };
    for (what, cfg) in [("healthy fleet", healthy), ("faulty fleet", faulty)] {
        let out = run_fleet(&cfg).expect("fleet runs");
        assert_time_ordered(&out.events.to_jsonl(), what);
    }
}
