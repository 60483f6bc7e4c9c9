//! Cross-crate integration: the wave-scheduled parallel executor and its
//! liveness-based tensor arena never change results.
//!
//! The executor's contract is strict: for a fixed `(graph, inputs)` the
//! output bytes are identical at every worker width and under every
//! [`MemoryMode`], and the memory counters (peak bytes, drops, steals,
//! arena reuse) are identical at every width. These tests enforce the
//! contract across the model zoo, across transformed (split + pipelined)
//! graphs, and across a seeded family of random graphs.

use pimflow::engine::EngineConfig;
use pimflow::search::{apply_plan, Decision, ExecutionPlan, Search, SearchOptions};
use pimflow_ir::{infer_shapes, models, ActivationKind, Graph, GraphBuilder, Shape};
use pimflow_kernels::{
    input_tensors, run_graph_with, ExecOptions, ExecOutput, GemmPath, MemoryMode, Tolerance,
};
use pimflow_rng::Rng;

const WIDTHS: [usize; 3] = [1, 2, 8];

fn run_path(g: &Graph, seed: u64, jobs: usize, memory: MemoryMode, gemm: GemmPath) -> ExecOutput {
    let inputs = input_tensors(g, seed);
    run_graph_with(
        g,
        &inputs,
        &ExecOptions {
            jobs: Some(jobs),
            memory,
            gemm: Some(gemm),
        },
    )
    .expect("zoo graphs execute")
}

/// Asserts the executor contract for one graph: byte-identical outputs at
/// every width and memory mode — on **both** GEMM paths (the micro-kernel
/// fast path and the scalar exact oracle) — with width-invariant memory
/// counters, and the two paths within the documented kernel tolerance of
/// each other.
fn assert_width_and_mode_invariant(g: &Graph, seed: u64) {
    let mut per_path = Vec::new();
    for gemm in [GemmPath::Fast, GemmPath::Exact] {
        let baseline = run_path(g, seed, 1, MemoryMode::Arena, gemm);
        for &jobs in &WIDTHS[1..] {
            let wide = run_path(g, seed, jobs, MemoryMode::Arena, gemm);
            for (a, b) in baseline.outputs.iter().zip(&wide.outputs) {
                assert_eq!(
                    a.data(),
                    b.data(),
                    "{}: {gemm:?} outputs must be byte-identical at {jobs} jobs",
                    g.name
                );
            }
            let (s1, sw) = (&baseline.stats, &wide.stats);
            assert_eq!(s1.peak_live_bytes, sw.peak_live_bytes, "{}", g.name);
            assert_eq!(s1.retained_bytes, sw.retained_bytes, "{}", g.name);
            assert_eq!(s1.dropped_tensors, sw.dropped_tensors, "{}", g.name);
            assert_eq!(s1.stolen_buffers, sw.stolen_buffers, "{}", g.name);
            assert_eq!(s1.arena_reuses, sw.arena_reuses, "{}", g.name);
            assert_eq!(s1.arena_allocs, sw.arena_allocs, "{}", g.name);
            assert_eq!(s1.waves, sw.waves, "{}", g.name);
        }
        for memory in [MemoryMode::Retain, MemoryMode::Drop] {
            let other = run_path(g, seed, 2, memory, gemm);
            for (a, b) in baseline.outputs.iter().zip(&other.outputs) {
                assert_eq!(
                    a.data(),
                    b.data(),
                    "{}: {gemm:?} outputs must not depend on {memory:?}",
                    g.name
                );
            }
        }
        per_path.push(baseline);
    }
    // Fast vs exact: per-layer reassociation compounds through depth, so
    // whole-graph outputs are held to the end-to-end tolerance tier.
    let tol = Tolerance::end_to_end();
    for (fast, exact) in per_path[0].outputs.iter().zip(&per_path[1].outputs) {
        tol.check(fast.data(), exact.data()).unwrap_or_else(|e| {
            panic!("{}: fast path drifted past tolerance vs exact: {e}", g.name)
        });
    }
}

#[test]
fn zoo_outputs_are_width_and_mode_invariant() {
    for g in [
        models::toy(),
        models::mobilenet_v2_scaled(0.35),
        models::unet_small(),
        models::bert_like(4),
    ] {
        assert_width_and_mode_invariant(&g, 42);
    }
}

#[test]
fn transformed_graphs_are_width_invariant() {
    // Split (MD-DP) and pipelined graphs exercise Slice/Concat twins and
    // shared weight keys — the param-cache path.
    let g = models::toy();
    let cfg = EngineConfig::pimflow();
    for opts in [
        SearchOptions::default(),
        SearchOptions {
            offload_only: true,
            allow_pipeline: true,
            pipeline_stages: 2,
            ..Default::default()
        },
    ] {
        let plan = Search::new(&g, &cfg)
            .options(opts)
            .run()
            .expect("search succeeds");
        let transformed = apply_plan(&g, &plan).expect("plan applies");
        assert_width_and_mode_invariant(&transformed, 17);
    }
}

#[test]
fn arena_cuts_peak_memory_on_resnet50() {
    // The acceptance bar: peak live bytes with the liveness plan must sit
    // far below the sum of all intermediates a retain-everything executor
    // holds (resnet-50 is ~180 tensors deep with small late layers).
    let g = models::by_name("resnet-50").expect("zoo has resnet-50");
    let out = run_path(&g, 3, 1, MemoryMode::Arena, GemmPath::Fast);
    let s = &out.stats;
    assert!(s.dropped_tensors + s.stolen_buffers > 100, "{s:?}");
    assert!(s.arena_reuses > 0, "residual towers must recycle buffers");
    assert!(
        s.peak_live_bytes * 4 <= s.retained_bytes,
        "liveness plan too weak: peak {} vs retained {}",
        s.peak_live_bytes,
        s.retained_bytes
    );
}

/// Builds a random-but-valid CNN from a seeded RNG: conv/depthwise/pool
/// trunk with residual adds and a slice/concat fork, closed by
/// gap/flatten/dense/softmax.
fn random_graph(seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(format!("random-{seed}"));
    let c0 = 2 + rng.range_usize(0, 4);
    let hw = 8 + 2 * rng.range_usize(0, 4);
    let x = b.input(Shape::nhwc(1, hw, hw, c0));
    let mut y = x;
    let mut channels = c0;
    let layers = 3 + rng.range_usize(0, 4);
    for _ in 0..layers {
        match rng.range_usize(0, 6) {
            0 => {
                let oc = 2 + rng.range_usize(0, 6);
                let k = [1, 3][rng.range_usize(0, 2)];
                y = b.conv(y, oc, k, 1, k / 2);
                channels = oc;
            }
            1 => {
                y = b.dwconv(y, channels, 3, 1, 1);
            }
            2 => {
                y = b.bn(y);
            }
            3 => {
                let kind = [
                    ActivationKind::Relu,
                    ActivationKind::Relu6,
                    ActivationKind::Swish,
                ][rng.range_usize(0, 3)];
                y = match kind {
                    ActivationKind::Relu => b.relu(y),
                    ActivationKind::Relu6 => b.relu6(y),
                    _ => {
                        let s = b.identity(y);
                        let m = b.conv1x1(s, channels);
                        b.add(m, s)
                    }
                };
            }
            4 => {
                // Residual fork: a 1x1 branch re-joined by add — two nodes
                // in one wave, one value consumed twice.
                let branch = b.conv1x1(y, channels);
                let branch = b.relu(branch);
                y = b.add(branch, y);
            }
            _ => {
                // Channel fork: two 1x1 projections concatenated — the
                // Slice/Concat data-movement path.
                let left = b.conv1x1(y, channels);
                let right = b.conv1x1(y, channels.max(2) / 2);
                y = b.concat(vec![left, right], 3);
                channels += channels.max(2) / 2;
            }
        }
    }
    let y = b.gap(y);
    let y = b.flatten(y);
    let y = b.dense(y, 5);
    let y = b.softmax(y);
    b.finish(y)
}

#[test]
fn random_graphs_keep_the_contract() {
    for case in 0..8u64 {
        let g = random_graph(0x5EED_0000 + case);
        assert_width_and_mode_invariant(&g, 100 + case);
    }
}

/// FNV-1a over the bit patterns of every output value, in output order.
fn output_hash(out: &ExecOutput) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for t in &out.outputs {
        for v in t.data() {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// A zoo model at a small square input extent.
fn zoo_at(name: &str, px: usize) -> Graph {
    let mut g = models::by_name(name).expect("zoo model");
    for v in g.inputs().to_vec() {
        if let Some(desc) = g.value_mut(v).desc.as_mut() {
            desc.shape = desc.shape.with_dim(1, px).with_dim(2, px);
        }
    }
    infer_shapes(&mut g).expect("model runs at this extent");
    g
}

/// Pinned executor results for one graph: the output bit hash per GEMM
/// path, and per memory mode (`Retain`, `Drop`, `Arena`) the counters
/// `(param_cache_hits, param_cache_misses, peak_live_bytes, arena_reuses,
/// arena_allocs)`.
struct Pin {
    graph: &'static str,
    fast: u64,
    exact: u64,
    stats: [(usize, usize, usize, u64, u64); 3],
}

const PIN_MODES: [MemoryMode; 3] = [MemoryMode::Retain, MemoryMode::Drop, MemoryMode::Arena];

/// A plan that MD-DP-splits every PIM candidate whose output has more
/// than one row, cycling through four GPU shares. At the small extents
/// pinned here the search keeps every layer on the GPU, so this is what
/// puts `Slice`, `Concat`, `Pad`, parameter views and twin weight keys
/// into the transformed graphs.
fn split_everything(g: &Graph) -> ExecutionPlan {
    let splittable = |id| {
        let shape = &g
            .value(g.node(id).output)
            .desc
            .as_ref()
            .expect("shaped")
            .shape;
        g.is_pim_candidate(id) && (shape.rank() == 2 || shape.h() > 1)
    };
    let decisions = g
        .topo_order()
        .expect("zoo graphs are acyclic")
        .into_iter()
        .filter(|&id| splittable(id))
        .enumerate()
        .map(|(i, id)| {
            let decision = Decision::Split {
                gpu_percent: [30, 50, 70, 0][i % 4],
            };
            (g.node(id).name.clone(), decision)
        })
        .collect();
    ExecutionPlan {
        model: g.name.clone(),
        decisions,
        profiles: Vec::new(),
        predicted_us: 1.0,
        conv_layer_us: 0.0,
    }
}

/// The pinned graphs, labelled as in [`PINS`]: each zoo model at a small
/// extent, original and transformed by [`split_everything`].
fn pinned_graphs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for (name, px) in [
        ("toy", 32),
        ("squeezenet-1.1", 48),
        ("mobilenet-v2", 32),
        ("mnasnet-1.0", 32),
        ("resnet-50", 32),
    ] {
        let g = zoo_at(name, px);
        let transformed = apply_plan(&g, &split_everything(&g)).expect("plan applies");
        out.push((name.to_string(), g));
        out.push((format!("{name}+split"), transformed));
    }
    out
}

/// Pins the executor's observable results: the output bits and the
/// memory and parameter-cache counters of every pinned graph, on both GEMM
/// paths, at one and two workers, in every memory mode. A kernel or
/// staging rewrite must leave all of them unchanged. The last check runs
/// the path `PIMFLOW_EXACT_KERNELS` selects, so CI covers the exact path
/// through its environment route too. A graph without a pin fails with
/// the row to add.
#[test]
fn executor_results_are_pinned() {
    let env_path = GemmPath::from_env();
    let mut missing = Vec::new();
    for (label, g) in pinned_graphs() {
        let pin = PINS.iter().find(|p| p.graph == label);
        let mut hashes = [0u64; 2];
        let mut stats = [(0, 0, 0, 0, 0); 3];
        for (p, gemm) in [GemmPath::Fast, GemmPath::Exact].into_iter().enumerate() {
            for jobs in [1, 2] {
                for (m, memory) in PIN_MODES.into_iter().enumerate() {
                    let out = run_path(&g, 7, jobs, memory, gemm);
                    let s = &out.stats;
                    hashes[p] = output_hash(&out);
                    stats[m] = (
                        s.param_cache_hits,
                        s.param_cache_misses,
                        s.peak_live_bytes,
                        s.arena_reuses,
                        s.arena_allocs,
                    );
                    if let Some(pin) = pin {
                        let want = [pin.fast, pin.exact][p];
                        assert_eq!(
                            hashes[p], want,
                            "{label}: {gemm:?} output bits at {jobs} jobs, {memory:?}"
                        );
                        assert_eq!(
                            stats[m], pin.stats[m],
                            "{label}: {gemm:?} stats at {jobs} jobs, {memory:?}"
                        );
                    }
                }
            }
        }
        let Some(pin) = pin else {
            missing.push(format!(
                "    Pin {{ graph: {label:?}, fast: {:#018x}, exact: {:#018x}, stats: {stats:?} }},",
                hashes[0], hashes[1]
            ));
            continue;
        };
        // The path `PIMFLOW_EXACT_KERNELS` selects reproduces its pin.
        let inputs = input_tensors(&g, 7);
        let opts = ExecOptions {
            jobs: Some(2),
            ..ExecOptions::default()
        };
        let out = run_graph_with(&g, &inputs, &opts).expect("zoo graphs execute");
        let want = match env_path {
            GemmPath::Fast => pin.fast,
            GemmPath::Exact => pin.exact,
        };
        assert_eq!(
            output_hash(&out),
            want,
            "{label}: {env_path:?} via the environment"
        );
    }
    assert!(
        missing.is_empty(),
        "unpinned graphs:\n{}",
        missing.join("\n")
    );
}

/// Recorded on the executor before its data-movement and weight-staging
/// rewrite, which had to leave every value unchanged.
const PINS: &[Pin] = &[
    Pin {
        graph: "toy",
        fast: 0x38a357e3f2f1f539,
        exact: 0xf807b3ba91e5d694,
        stats: [
            (0, 10, 1192488, 0, 0),
            (0, 10, 524288, 0, 0),
            (0, 10, 393216, 0, 6),
        ],
    },
    Pin {
        graph: "toy+split",
        fast: 0x38a357e3f2f1f539,
        exact: 0xf807b3ba91e5d694,
        stats: [
            (6, 10, 1875592, 0, 0),
            (6, 10, 524288, 0, 0),
            (6, 10, 524288, 1, 19),
        ],
    },
    Pin {
        graph: "squeezenet-1.1",
        fast: 0x71e47e27731a9181,
        exact: 0xb830da55f59f3377,
        stats: [
            (0, 52, 1044640, 0, 0),
            (0, 52, 270848, 0, 0),
            (0, 52, 166400, 19, 19),
        ],
    },
    Pin {
        graph: "squeezenet-1.1+split",
        fast: 0x71e47e27731a9181,
        exact: 0xb830da55f59f3377,
        stats: [
            (40, 52, 1627808, 0, 0),
            (40, 52, 270848, 0, 0),
            (40, 52, 270848, 60, 64),
        ],
    },
    Pin {
        graph: "mobilenet-v2",
        fast: 0x459a15ce92a271f3,
        exact: 0xc288e9a05eb42ec1,
        stats: [
            (0, 106, 1087776, 0, 0),
            (0, 106, 196608, 0, 0),
            (0, 106, 122880, 26, 28),
        ],
    },
    Pin {
        graph: "mobilenet-v2+split",
        fast: 0x459a15ce92a271f3,
        exact: 0xc288e9a05eb42ec1,
        stats: [
            (42, 106, 1587920, 0, 0),
            (42, 106, 196608, 0, 0),
            (42, 106, 196608, 91, 49),
        ],
    },
    Pin {
        graph: "mnasnet-1.0",
        fast: 0x1fd9a52b431d3299,
        exact: 0x3141f1ab967917b8,
        stats: [
            (0, 106, 887456, 0, 0),
            (0, 106, 98304, 0, 0),
            (0, 106, 65536, 26, 28),
        ],
    },
    Pin {
        graph: "mnasnet-1.0+split",
        fast: 0x1fd9a52b431d3299,
        exact: 0x3141f1ab967917b8,
        stats: [
            (38, 108, 1286128, 0, 0),
            (38, 108, 98304, 0, 0),
            (38, 108, 98304, 83, 51),
        ],
    },
    Pin {
        graph: "resnet-50",
        fast: 0x9630f8a4fd96234f,
        exact: 0xf09add3972092a8d,
        stats: [
            (0, 108, 2191264, 0, 0),
            (0, 108, 196608, 0, 0),
            (0, 108, 147456, 43, 13),
        ],
    },
    Pin {
        graph: "resnet-50+split",
        fast: 0x9630f8a4fd96234f,
        exact: 0xf09add3972092a8d,
        stats: [
            (66, 110, 3750288, 0, 0),
            (66, 110, 196608, 0, 0),
            (66, 110, 196608, 163, 39),
        ],
    },
];
