//! Fault-resilience contracts across the stack: plan repair must be
//! deterministic at every worker-pool width, a no-op on healthy hardware,
//! mask-respecting and never optimistic for arbitrary seeded fault masks,
//! every zoo execution must keep the engine's timeline and byte-count
//! invariants under a seeded mask, and the serving runtime must replay a seeded mid-stream
//! fault scenario byte-identically (report and JSONL trace) while dropping
//! nothing.
//!
//! The fault seed honors the `PIMFLOW_FAULTS` environment variable (the
//! knob the CI matrix turns) and falls back to a fixed constant, so a
//! plain `cargo test` run is reproducible and a seeded CI run stresses a
//! different scenario.

use pimflow::engine::{execute, ChannelMask, EngineConfig, ExecutionReport};
use pimflow::policy::Policy;
use pimflow::search::{apply_plan, Search, SearchOptions};
use pimflow_ir::{models, Graph, Placement, ValueId};
use pimflow_rng::Rng;
use pimflow_serve::{run, ArrivalSpec, FaultScenario, ServeConfig};
use std::collections::{HashMap, HashSet};

/// Fault seed: `PIMFLOW_FAULTS` when set (the CI matrix knob), else fixed.
fn fault_seed() -> u64 {
    match std::env::var("PIMFLOW_FAULTS") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("PIMFLOW_FAULTS must be an integer seed, got `{v}`")),
        Err(_) => 0xFA17,
    }
}

/// A deterministic degraded mask drawn from the fault seed: knocks out
/// `downs` distinct channels, never the whole pool.
fn seeded_mask(rng: &mut Rng, pim_channels: usize, downs: usize) -> ChannelMask {
    let mut mask = ChannelMask::all();
    let mut taken = 0;
    while taken < downs.min(pim_channels - 1) {
        let c = rng.below(pim_channels as u64) as usize;
        if mask.is_up(c) {
            mask = mask.without(c);
            taken += 1;
        }
    }
    mask
}

#[test]
fn repair_is_deterministic_at_every_pool_width() {
    let cfg = EngineConfig::pimflow();
    let g = models::mobilenet_v2();
    let plan = Search::new(&g, &cfg)
        .options(SearchOptions::default())
        .pool(1)
        .run()
        .expect("zoo models search");
    let mut rng = Rng::seed_from_u64(fault_seed());
    let mask = seeded_mask(&mut rng, cfg.pim_channels, cfg.pim_channels / 2);
    let repaired = plan.repair(&g, &cfg, mask, None).expect("repair succeeds");
    let expected = pimflow_json::to_string(&repaired);
    // Repair is sequential by contract, but the *input* plan comes from
    // the pooled search: the whole pipeline must be width-invariant.
    for jobs in [2usize, 8] {
        let p = Search::new(&g, &cfg)
            .options(SearchOptions::default())
            .pool(jobs)
            .run()
            .expect("zoo models search");
        let r = p.repair(&g, &cfg, mask, None).expect("repair succeeds");
        assert_eq!(
            pimflow_json::to_string(&r),
            expected,
            "repaired plan diverged at {jobs} workers"
        );
    }
    // Searching directly under the degraded mask is equally
    // width-invariant (the full-replan path the runtime compares against).
    let masked = cfg.with_mask(mask);
    let direct = Search::new(&g, &masked)
        .options(SearchOptions::default())
        .pool(1)
        .run()
        .expect("masked search");
    for jobs in [2usize, 8] {
        let d = Search::new(&g, &masked)
            .options(SearchOptions::default())
            .pool(jobs)
            .run()
            .expect("masked search");
        assert_eq!(
            pimflow_json::to_string(&d),
            pimflow_json::to_string(&direct),
            "masked search diverged at {jobs} workers"
        );
    }
}

#[test]
fn repair_with_the_full_mask_is_a_no_op() {
    let cfg = EngineConfig::pimflow();
    let g = models::squeezenet();
    let plan = Search::new(&g, &cfg)
        .options(SearchOptions::default())
        .pool(1)
        .run()
        .expect("zoo models search");
    let repaired = plan
        .repair(&g, &cfg, ChannelMask::all(), None)
        .expect("repair succeeds");
    assert_eq!(
        pimflow_json::to_string(&plan),
        pimflow_json::to_string(&repaired),
        "healthy-mask repair must return the plan unchanged"
    );
    // Masking only channels beyond the configured pool is equally healthy.
    let beyond = ChannelMask::all().without(63);
    assert!(cfg.pim_channels <= 63, "test assumes a <64-channel pool");
    let repaired = plan
        .repair(&g, &cfg, beyond, None)
        .expect("repair succeeds");
    assert_eq!(
        pimflow_json::to_string(&plan),
        pimflow_json::to_string(&repaired)
    );
}

/// For arbitrary seeded fault masks: the repaired plan executes without
/// touching any masked-out channel, and its predicted latency is never
/// better than the healthy plan's (losing channels cannot speed you up).
#[test]
fn repaired_plans_respect_the_mask_and_are_never_optimistic() {
    let cfg = EngineConfig::pimflow();
    let mut rng = Rng::seed_from_u64(fault_seed() ^ 0x5eed);
    for model in ["toy", "squeezenet-1.1"] {
        let g = models::by_name(model).expect("known model");
        let plan = Search::new(&g, &cfg)
            .options(SearchOptions::default())
            .pool(1)
            .run()
            .expect("zoo models search");
        for _ in 0..4 {
            let downs = 1 + rng.below(cfg.pim_channels as u64 - 1) as usize;
            let mask = seeded_mask(&mut rng, cfg.pim_channels, downs);
            let repaired = plan.repair(&g, &cfg, mask, None).expect("repair succeeds");
            assert!(
                repaired.predicted_us >= plan.predicted_us - 1e-9,
                "{model}: repair under {downs} downed channels predicted \
                 {:.3} us, better than the healthy {:.3} us",
                repaired.predicted_us,
                plan.predicted_us
            );
            let transformed = apply_plan(&g, &repaired).expect("repaired plan applies");
            let report = execute(&transformed, &cfg.with_mask(mask)).expect("masked execute");
            for (ch, busy) in report.pim_channel_busy_us.iter().enumerate() {
                assert!(
                    mask.is_up(ch) || *busy == 0.0,
                    "{model}: masked-out channel {ch} accumulated {busy} us of work"
                );
            }
        }
    }
}

/// Engine invariants on every zoo model's default plan, under the full
/// mask and under a seeded mask with three channels down: every node runs
/// inside the makespan, no channel is busier than the PIM stream, the PIM
/// stream is not busier than the makespan, and a failed channel gets no
/// work.
/// The engine's two boundary byte totals recounted from the timeline's
/// devices and the graph's value sizes: `(host_to_pim_bytes,
/// transfer_bytes)`. A value not produced on PIM (graph inputs included)
/// crosses into the PIM channels once if some PIM-timed node reads it; a
/// PIM-produced value crosses back once if some GPU-timed node reads it.
fn recount_crossings(g: &Graph, r: &ExecutionReport) -> (u64, u64) {
    let device: HashMap<&str, Placement> = r
        .timings
        .iter()
        .map(|t| (t.name.as_str(), t.device))
        .collect();
    assert_eq!(device.len(), g.node_ids().count(), "one timing per node");
    let on_pim = |node: &pimflow_ir::Node| device[node.name.as_str()] == Placement::Pim;
    let mut produced_on_pim: HashMap<ValueId, bool> =
        g.inputs().iter().map(|&v| (v, false)).collect();
    // Each value with the devices that read it.
    let mut reads: HashSet<(ValueId, bool)> = HashSet::new();
    for id in g.node_ids() {
        let node = g.node(id);
        produced_on_pim.insert(node.output, on_pim(node));
        reads.extend(node.inputs.iter().map(|&v| (v, on_pim(node))));
    }
    let bytes = |v: ValueId| {
        g.value(v)
            .desc
            .as_ref()
            .map_or(0, |d| d.size_bytes() as u64)
    };
    let crossing = |read_on_pim: bool| -> u64 {
        reads
            .iter()
            .filter(|&&(v, on)| on == read_on_pim && produced_on_pim[&v] != read_on_pim)
            .map(|&(v, _)| bytes(v))
            .sum()
    };
    (crossing(true), crossing(false))
}

#[test]
fn zoo_executions_keep_the_engine_invariants_under_a_mask() {
    let cfg = EngineConfig::pimflow();
    let mut rng = Rng::seed_from_u64(fault_seed() ^ 0x200);
    let degraded = seeded_mask(&mut rng, cfg.pim_channels, 3);
    let mut crossed = (0u64, 0u64);
    for model in [
        "toy",
        "mobilenet-v2",
        "efficientnet-v1-b0",
        "mnasnet-1.0",
        "resnet-18",
        "resnet-34",
        "resnet-50",
        "vgg-16",
        "squeezenet-1.1",
        "unet-small",
        "bert-3",
        "bert-64",
    ] {
        let g = models::by_name(model).expect("known model");
        let plan = Search::new(&g, &cfg)
            .options(SearchOptions::default())
            .run()
            .expect("zoo models search");
        let transformed = apply_plan(&g, &plan).expect("plan applies");
        for mask in [ChannelMask::all(), degraded] {
            let r = execute(&transformed, &cfg.with_mask(mask)).expect("execute");
            let case = format!("{model} under {:#x}", mask.bits());
            for t in &r.timings {
                assert!(
                    0.0 <= t.start_us && t.start_us <= t.finish_us && t.finish_us <= r.total_us,
                    "{case}: {} runs {}..{} us of {} us",
                    t.name,
                    t.start_us,
                    t.finish_us,
                    r.total_us
                );
            }
            assert!(
                r.pim_busy_us <= r.total_us,
                "{case}: PIM stream busier than the makespan"
            );
            assert_eq!(r.pim_channel_busy_us.len(), cfg.pim_channels, "{case}");
            for (ch, &busy) in r.pim_channel_busy_us.iter().enumerate() {
                assert!(busy <= r.pim_busy_us, "{case}: channel {ch} busy {busy} us");
                assert!(
                    mask.is_up(ch) || busy == 0.0,
                    "{case}: masked-out channel {ch} busy {busy} us"
                );
            }
            assert_eq!(
                recount_crossings(&transformed, &r),
                (r.host_to_pim_bytes, r.transfer_bytes),
                "{case}: (host_to_pim_bytes, transfer_bytes)"
            );
            crossed.0 += r.host_to_pim_bytes;
            crossed.1 += r.transfer_bytes;
        }
    }
    assert!(crossed.0 > 0 && crossed.1 > 0, "the zoo crosses both ways");
}

#[test]
fn seeded_fault_serving_replays_byte_identically_and_drops_nothing() {
    let seed = fault_seed();
    let policy = Policy::Pimflow;
    let pool = policy.engine_config().pim_channels;
    let cfg = ServeConfig {
        arrival: ArrivalSpec::Poisson { rps: 2000.0 },
        duration_s: 0.05,
        seed,
        faults: FaultScenario::from_seed(seed, pool, 1.0, 0.05),
        measure_replan: true,
        ..ServeConfig::new("toy".to_string(), policy)
    };
    let a = run(&cfg).expect("serve run");
    assert!(
        a.report.counters.fault_events > 0,
        "scenario must inject at least one transition"
    );
    assert_eq!(
        a.report.counters.arrived, a.report.counters.completed,
        "mid-stream faults must not drop requests"
    );
    let b = run(&cfg).expect("serve run");
    assert_eq!(
        pimflow_json::to_string(&a.report),
        pimflow_json::to_string(&b.report),
        "serve report diverged between identical seeded runs"
    );
    assert_eq!(
        a.events.to_jsonl(),
        b.events.to_jsonl(),
        "JSONL event trace diverged between identical seeded runs"
    );
}
