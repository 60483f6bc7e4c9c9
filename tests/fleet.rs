//! Fleet determinism contract: a fleet run is a pure function of its
//! configuration. The worker pool only parallelizes host-side compilation
//! (the execution-mode search and the optional precompile pass), never the
//! simulated timeline, so the full [`FleetReport`] and the JSONL event
//! trace must be byte-identical at every `PIMFLOW_JOBS` width — including
//! under a seeded node-failure scenario, where the zero-drop guarantee
//! (admitted requests are rerouted, never lost) must also hold.

use pimflow_fleet::{
    run_fleet, AutoscaleConfig, FleetConfig, FleetReport, NodeClass, RouterPolicy, TenantSpec,
    TrafficSpec,
};
use pimflow_serve::FaultScenario;

/// Pool widths exercised: inline (1), partial shard (2), more workers
/// than compile tasks need (8) — mirrors `tests/parallelism.rs`.
const WIDTHS: [usize; 3] = [1, 2, 8];

/// A fleet that exercises every subsystem at once: heterogeneous classes,
/// mixed traffic shapes, rate limits, shedding, SLO routing, and the
/// parallel precompile pass.
fn busy_fleet() -> FleetConfig {
    let mut cfg = FleetConfig::new(
        0,
        vec![
            TenantSpec {
                rate_limit_rps: 3_000.0,
                burst: 8,
                ..TenantSpec::new("heavy", "toy", TrafficSpec::Poisson { rps: 4_000.0 })
            },
            TenantSpec::new(
                "wave",
                "toy",
                TrafficSpec::Diurnal {
                    mean_rps: 1_500.0,
                    amplitude: 0.8,
                    period_s: 0.04,
                },
            ),
            TenantSpec::new(
                "spiky",
                "toy",
                TrafficSpec::Bursty {
                    base_rps: 500.0,
                    burst_rps: 4_000.0,
                    mean_dwell_s: 0.005,
                },
            ),
        ],
    );
    cfg.classes = vec![
        NodeClass::new("big", pimflow::policy::Policy::Pimflow, 2),
        NodeClass {
            pim_channels: Some(6),
            ..NodeClass::new("edge", pimflow::policy::Policy::Pimflow, 1)
        },
    ];
    cfg.duration_s = 0.04;
    cfg.seed = 13;
    cfg.router = RouterPolicy::SloAware;
    cfg.admission.shed_queue_depth = 64;
    cfg.precompile = true;
    cfg
}

/// The same fleet under a seeded node-fault scenario and the autoscaler.
fn faulty_fleet() -> FleetConfig {
    let mut cfg = busy_fleet();
    cfg.classes[0].count = 3;
    cfg.initial_standby = 1;
    cfg.autoscale = AutoscaleConfig {
        enabled: true,
        interval_us: 2_000.0,
        up_queue_per_active: 8.0,
        down_utilization: 0.05,
    };
    cfg.node_faults = FaultScenario::from_seed(99, cfg.node_count(), 0.6, cfg.duration_s);
    cfg
}

fn run_at_width(cfg: &FleetConfig, jobs: usize) -> (FleetReport, String) {
    std::env::set_var(pimflow_pool::JOBS_ENV_VAR, jobs.to_string());
    let out = run_fleet(cfg).expect("fleet runs");
    std::env::remove_var(pimflow_pool::JOBS_ENV_VAR);
    (out.report, out.events.to_jsonl())
}

#[test]
fn fleet_report_is_byte_identical_at_every_pool_width() {
    let cfg = busy_fleet();
    let (base_report, base_events) = run_at_width(&cfg, 1);
    assert!(base_report.completed > 100, "fleet must do real work");
    let expected = pimflow_json::to_string(&base_report);
    for jobs in WIDTHS {
        let (report, events) = run_at_width(&cfg, jobs);
        assert_eq!(
            pimflow_json::to_string(&report),
            expected,
            "report diverged at {jobs} workers"
        );
        assert_eq!(
            events, base_events,
            "event trace diverged at {jobs} workers"
        );
    }
}

#[test]
fn node_faults_stay_deterministic_and_lossless_at_every_width() {
    let cfg = faulty_fleet();
    let (base_report, base_events) = run_at_width(&cfg, 1);
    assert!(
        base_report.node_fault_events > 0,
        "the scenario must actually fail nodes"
    );
    assert_eq!(
        base_report.dropped, 0,
        "admitted requests must be rerouted, never dropped"
    );
    assert_eq!(base_report.completed, base_report.admitted);
    let expected = pimflow_json::to_string(&base_report);
    for jobs in WIDTHS {
        let (report, events) = run_at_width(&cfg, jobs);
        assert_eq!(
            pimflow_json::to_string(&report),
            expected,
            "fault replay diverged at {jobs} workers"
        );
        assert_eq!(
            events, base_events,
            "fault trace diverged at {jobs} workers"
        );
    }
}

#[test]
fn distinct_seeds_produce_distinct_timelines() {
    let cfg = busy_fleet();
    let (_, events_a) = run_at_width(&cfg, 1);
    let other = FleetConfig { seed: 14, ..cfg };
    let (_, events_b) = run_at_width(&other, 1);
    assert_ne!(events_a, events_b, "the seed must matter");
}

/// A fault-free toy fleet of the given node classes behind the SLO-aware
/// router.
fn toy_fleet(classes: Vec<NodeClass>, precompile: bool) -> FleetConfig {
    FleetConfig {
        classes,
        router: RouterPolicy::SloAware,
        duration_s: 0.02,
        seed: 5,
        precompile,
        ..FleetConfig::new(
            1,
            vec![
                TenantSpec::new("a", "toy", TrafficSpec::Poisson { rps: 6_000.0 }),
                TenantSpec::new("b", "toy", TrafficSpec::Poisson { rps: 3_000.0 }),
            ],
        )
    }
}

/// A class of `count` stock PIMFlow nodes named `node`.
fn node(count: usize) -> NodeClass {
    NodeClass::new("node", pimflow::policy::Policy::Pimflow, count)
}

/// `report` with every node's cost-cache counters cleared.
fn without_cost_cache(mut report: FleetReport) -> FleetReport {
    for n in &mut report.nodes {
        n.cost_cache = Default::default();
    }
    report
}

#[test]
fn precompile_compiles_each_class_plan_once() {
    let solo = run_fleet(&toy_fleet(vec![node(1)], true)).expect("fleet runs");
    let trio = run_fleet(&toy_fleet(vec![node(3)], true)).expect("fleet runs");
    let counters = solo.report.nodes[0].cost_cache;
    assert!(counters.entries > 0, "precompile must profile PIM work");
    // The three nodes share one cost cache. Its counters equal a lone
    // node's only if each (model, batch size) was searched once.
    for n in &trio.report.nodes {
        assert_eq!(n.cost_cache, counters, "node {}", n.node);
        assert_eq!(n.cache_hit_rate, 1.0, "node {} runs warm", n.node);
    }
}

#[test]
fn a_class_shared_cost_cache_moves_only_its_counters() {
    for precompile in [true, false] {
        let shared = run_fleet(&toy_fleet(vec![node(3)], precompile)).expect("fleet runs");
        let split = run_fleet(&toy_fleet(vec![node(1); 3], precompile)).expect("fleet runs");
        assert_eq!(
            shared.events.to_jsonl(),
            split.events.to_jsonl(),
            "precompile {precompile}: event trace"
        );
        let shared_misses = shared.report.nodes[0].cost_cache.misses;
        let split_misses: u64 = split.report.nodes.iter().map(|n| n.cost_cache.misses).sum();
        assert!(
            shared_misses < split_misses,
            "precompile {precompile}: the class profiles each timing once \
             ({shared_misses} vs {split_misses} misses)"
        );
        assert_eq!(
            without_cost_cache(shared.report),
            without_cost_cache(split.report),
            "precompile {precompile}: report"
        );
    }
}
