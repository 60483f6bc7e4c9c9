//! Cross-crate property tests: the transformation passes preserve model
//! semantics for *arbitrary* layer shapes, ratios, and stage counts, and
//! the simulator obeys its structural invariants under random workloads.
//! Cases are drawn from a seeded `pimflow-rng` generator (the workspace
//! builds offline, so `proptest` is not available).

use pimflow::codegen::{generate_blocks, generate_program, PimWorkload};
use pimflow::engine::{execute, EngineConfig};
use pimflow::passes::{find_chains, pipeline_chain, split_node};
use pimflow_ir::{ActivationKind, Graph, GraphBuilder, Op, Shape};
use pimflow_isa::{validate_program, MachineSpec};
use pimflow_kernels::{input_tensors, run_graph};
use pimflow_pimsim::{schedule, NewtonInterpreter, PimConfig, ScheduleGranularity};
use pimflow_rng::Rng;

const CASES: usize = 24;

const GRANULARITIES: [ScheduleGranularity; 3] = [
    ScheduleGranularity::GAct,
    ScheduleGranularity::ReadRes,
    ScheduleGranularity::Comp,
];

fn outputs_match(a: &Graph, b: &Graph, tol: f32) {
    let inputs = input_tensors(a, 4242);
    let xa = run_graph(a, &inputs).expect("original runs");
    let xb = run_graph(b, &inputs).expect("transformed runs");
    for (x, y) in xa.iter().zip(&xb) {
        assert!(
            x.allclose(y, tol),
            "outputs differ by {}",
            x.max_abs_diff(y)
        );
    }
}

/// MD-DP conv splitting is semantics-preserving for arbitrary shapes,
/// kernels, strides, and split ratios.
#[test]
fn mddp_split_preserves_conv_semantics() {
    let mut rng = Rng::seed_from_u64(0xc405_0001);
    let mut checked = 0;
    while checked < CASES {
        let h = rng.range_usize(5, 14);
        let w = rng.range_usize(4, 10);
        let ic = rng.range_usize(1, 5);
        let oc = rng.range_usize(1, 7);
        let k = *rng.pick(&[1usize, 3, 5]);
        let stride = rng.range_usize(1, 3);
        let ratio = rng.range_u32(1, 10) * 10;
        let pad = k / 2;
        if h + 2 * pad < k || w + 2 * pad < k {
            continue;
        }
        let mut b = GraphBuilder::new("p");
        let x = b.input(Shape::nhwc(1, h, w, ic));
        let y = b.conv(x, oc, k, stride, pad);
        let g = b.finish(y);
        // Need at least 2 output rows to split.
        let out_h = g.value(g.outputs()[0]).desc.as_ref().unwrap().shape.h();
        if out_h < 2 {
            continue;
        }
        checked += 1;

        let mut t = g.clone();
        let id = t.node_ids().next().unwrap();
        split_node(&mut t, id, ratio).expect("split applies");
        outputs_match(&g, &t, 1e-4);
    }
}

/// Splitting a conv with a fused epilogue keeps the epilogue semantics.
#[test]
fn mddp_split_with_epilogue_preserves_semantics() {
    let mut rng = Rng::seed_from_u64(0xc405_0002);
    for _ in 0..CASES {
        let h = rng.range_usize(6, 12);
        let ic = rng.range_usize(1, 4);
        let oc = rng.range_usize(2, 6);
        let ratio = rng.range_u32(1, 10) * 10;
        let mut b = GraphBuilder::new("pe");
        let x = b.input(Shape::nhwc(1, h, h, ic));
        let y = b.conv_act(x, oc, 3, 1, 1, ActivationKind::Relu6);
        let g = b.finish(y);
        let mut t = g.clone();
        let id = t
            .node_ids()
            .find(|&i| matches!(t.node(i).op, Op::Conv2d(_)))
            .unwrap();
        split_node(&mut t, id, ratio).expect("split applies");
        outputs_match(&g, &t, 1e-4);
    }
}

/// Pipelining a 1x1–DW–1x1 chain is semantics-preserving for arbitrary
/// channel widths and stage counts.
#[test]
fn pipelining_preserves_semantics() {
    let mut rng = Rng::seed_from_u64(0xc405_0003);
    for _ in 0..CASES {
        let h = rng.range_usize(6, 12);
        let w = rng.range_usize(4, 8);
        let ic = rng.range_usize(1, 4);
        let hidden = rng.range_usize(2, 7);
        let oc = rng.range_usize(1, 5);
        let stages = rng.range_usize(2, 4);
        let mut b = GraphBuilder::new("chain");
        let x = b.input(Shape::nhwc(1, h, w, ic));
        let y = b.conv1x1(x, hidden);
        let y = b.relu6(y);
        let y = b.dwconv(y, hidden, 3, 1, 1);
        let y = b.relu6(y);
        let y = b.conv1x1(y, oc);
        let g = b.finish(y);
        let mut t = g.clone();
        let chain = find_chains(&t).into_iter().next().unwrap();
        pipeline_chain(&mut t, &chain, stages).expect("chain pipelines");
        outputs_match(&g, &t, 1e-4);
    }
}

/// The command generator covers every MAC of a workload: COMP capacity
/// is never below the workload's MAC count, and input rows are covered
/// exactly once.
#[test]
fn codegen_covers_workload() {
    let mut rng = Rng::seed_from_u64(0xc405_0004);
    for _ in 0..CASES {
        let rows = rng.range_usize(1, 600);
        let k = rng.range_usize(1, 3000);
        let oc = rng.range_usize(1, 1200);
        let w = PimWorkload {
            rows,
            k_elems: k,
            out_channels: oc,
            strided: false,
            segments: 1,
        };
        let cfg = PimConfig::default();
        let blocks = generate_blocks(&w, &cfg);
        let covered: usize = blocks.iter().map(|b| b.buffer_rows as usize).sum();
        assert_eq!(covered, rows);
        let comps: u64 = blocks.iter().map(|b| b.total_comps()).sum();
        assert!(comps * cfg.macs_per_comp() as u64 >= w.macs());
    }
}

/// Every program the code generator + scheduler emit obeys the ISA
/// protocol (buffers staged before read, a row activated before MAC
/// bursts, results computed before drains, payloads within buffer
/// capacity, balanced barriers) on the configuration's buffers.
#[test]
fn codegen_traces_are_protocol_valid() {
    let mut rng = Rng::seed_from_u64(0xc405_0005);
    for _ in 0..CASES {
        let rows = rng.range_usize(1, 400);
        let k = rng.range_usize(1, 4096);
        let oc = rng.range_usize(1, 2048);
        let channels = rng.range_usize(1, 17);
        let granularity = *rng.pick(&GRANULARITIES);
        let w = PimWorkload {
            rows,
            k_elems: k,
            out_channels: oc,
            strided: false,
            segments: 1,
        };
        let cfg = PimConfig::default();
        let spec = MachineSpec {
            num_buffers: cfg.num_global_buffers,
            buffer_bytes: cfg.global_buffer_bytes,
        };
        let program = generate_program(&w, &cfg, channels, granularity);
        if let Err(v) = validate_program(&program, &spec) {
            panic!("invalid program for rows={rows} k={k} oc={oc}: {v}");
        }
    }
}

/// The command scheduler conserves work at every granularity and the
/// merged cycle count is the max over channels.
#[test]
fn scheduler_conserves_work() {
    let mut rng = Rng::seed_from_u64(0xc405_0006);
    for _ in 0..CASES {
        let rows = rng.range_usize(1, 200);
        let k = rng.range_usize(1, 1024);
        let oc = rng.range_usize(1, 512);
        let channels = rng.range_usize(1, 17);
        let granularity = *rng.pick(&GRANULARITIES);
        let w = PimWorkload {
            rows,
            k_elems: k,
            out_channels: oc,
            strided: false,
            segments: 1,
        };
        let cfg = PimConfig::default();
        let blocks = generate_blocks(&w, &cfg);
        let comps_expected: u64 = blocks.iter().map(|b| b.total_comps()).sum();
        let program = schedule(&blocks, channels, granularity, &cfg);
        assert_eq!(program.num_channels(), channels);
        let (stats, _) = NewtonInterpreter::new(&cfg).run(&program);
        // Splitting may only *add* COMPs (reduction-split rounding), never lose them.
        assert!(stats.comps >= comps_expected);
        assert!(stats.macs >= w.macs());
    }
}

/// The execution engine produces finite, positive latency and energy for
/// small random graphs.
#[test]
fn engine_total_is_finite_and_positive() {
    for seed in 0u64..CASES as u64 {
        let mut b = GraphBuilder::new("rand");
        let x = b.input(Shape::nhwc(1, 8 + (seed % 5) as usize, 8, 3));
        let y = b.conv_act(x, 8, 3, 1, 1, ActivationKind::Relu);
        let y = b.conv1x1(y, 16);
        let y = b.gap(y);
        let y = b.flatten(y);
        let y = b.dense(y, 10);
        let g = b.finish(y);
        let r = execute(&g, &EngineConfig::pimflow()).unwrap();
        assert!(r.total_us.is_finite() && r.total_us > 0.0);
        assert!(r.energy_uj.is_finite() && r.energy_uj > 0.0);
    }
}
