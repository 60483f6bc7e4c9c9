//! The Newton pricing contract: the compiler prices PIM layers by
//! streaming their block schedule through the channel timing engine —
//! each shared channel-stream prefix simulated once, steady-state command
//! periods fast-forwarded — and never through a compiled program. The ISA
//! program stays the artifact, so the two must agree bit for bit: for
//! every zoo PIM candidate and for seeded random shapes, under every
//! fusion role, granularity, channel count, MD-DP row fraction and PIM
//! config, the pricer's merged and per-channel statistics equal
//! interpreting `generate_fused_program`'s output command by command, and
//! overlap-linked group pricing equals interpreting
//! `generate_group_program_overlapped`'s output.

use pimflow::codegen::{
    execute_group_overlapped, execute_workload, generate_block_runs, generate_fused_program,
    generate_group_program_overlapped, price_fused_chain, PimWorkload,
};
use pimflow_ir::models;
use pimflow_isa::FusedRole;
use pimflow_pimsim::{ChannelStats, NewtonInterpreter, PimConfig, ScheduleGranularity};
use pimflow_rng::Rng;

/// Every model of the zoo (`models::by_name`), whose PIM candidates the
/// contract covers.
const MODELS: [&str; 15] = [
    "toy",
    "squeezenet-1.1",
    "mobilenet-v2",
    "mnasnet-1.0",
    "efficientnet-v1-b0",
    "efficientnet-v1-b2",
    "efficientnet-v1-b4",
    "efficientnet-v1-b6",
    "resnet-18",
    "resnet-34",
    "resnet-50",
    "vgg-16",
    "unet-small",
    "bert-3",
    "bert-64",
];

const ROLES: [FusedRole; 4] = [
    FusedRole::Standalone,
    FusedRole::Head,
    FusedRole::Middle,
    FusedRole::Tail,
];

const GRANULARITIES: [ScheduleGranularity; 3] = [
    ScheduleGranularity::Comp,
    ScheduleGranularity::ReadRes,
    ScheduleGranularity::GAct,
];

const CHANNELS: [usize; 3] = [1, 5, 16];

/// MD-DP row fractions: the whole layer down to a 3% PIM share.
const FRACTIONS: [f64; 4] = [1.0, 0.5, 0.1, 0.03];

/// The PIM configurations: Newton++ (`PimConfig::default()`), Newton+
/// (one buffer, no latency hiding, no strided GWRITE), the AiM-like and
/// HBM-PIM-like substrates (the latter's short refresh interval stresses
/// refresh chunking), and Newton++ with refresh disabled (no refresh
/// deadline bounds a fast-forward).
fn configs() -> [(&'static str, PimConfig); 5] {
    let mut no_refresh = PimConfig::newton_plus_plus();
    no_refresh.timing.t_refi = 0;
    [
        ("newton_plus_plus", PimConfig::newton_plus_plus()),
        ("newton_plus", PimConfig::newton_plus()),
        ("aim_like", PimConfig::aim_like()),
        ("hbm_pim_like", PimConfig::hbm_pim_like()),
        ("no_refresh", no_refresh),
    ]
}

/// Each model's PIM candidates as workloads, in topological order.
fn candidates(name: &str) -> Vec<PimWorkload> {
    let g = models::by_name(name).expect("zoo model");
    g.node_ids()
        .filter(|&id| g.is_pim_candidate(id))
        .map(|id| PimWorkload::from_node(&g, id))
        .collect()
}

/// `w` with its rows scaled to `frac`, as the search scales an MD-DP split.
fn scaled(w: PimWorkload, frac: f64) -> PimWorkload {
    PimWorkload {
        rows: ((w.rows as f64 * frac).round() as usize).max(1),
        ..w
    }
}

/// Interprets a compiled program on the Newton engine, returning the
/// merged and per-channel statistics.
fn interpret(
    program: &pimflow_isa::IsaProgram,
    cfg: &PimConfig,
) -> (ChannelStats, Vec<ChannelStats>) {
    NewtonInterpreter::new(cfg).run(program)
}

/// Every distinct PIM candidate workload of the zoo.
fn zoo_workloads() -> Vec<PimWorkload> {
    let mut workloads: Vec<PimWorkload> = Vec::new();
    for name in MODELS {
        for w in candidates(name) {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
        }
    }
    workloads
}

/// Checks that streaming `w`'s schedule prices it exactly as interpreting
/// its compiled program does.
fn check_workload(
    w: &PimWorkload,
    cfg_name: &str,
    cfg: &PimConfig,
    granularity: ScheduleGranularity,
    channels: usize,
    role: FusedRole,
) {
    let program = generate_fused_program(w, cfg, channels, granularity, role);
    let (merged, per_channel) = interpret(&program, cfg);
    let (exec, streamed) = execute_workload(w, cfg, channels, granularity, role);
    let case = format!("{w:?} under {cfg_name}, {granularity}, {channels} ch, {role:?}");
    assert_eq!(exec.stats, merged, "merged stats: {case}");
    assert_eq!(streamed, per_channel, "per-channel stats: {case}");
    assert_eq!(
        exec.time_us.to_bits(),
        (cfg.cycles_to_ns(merged.cycles) * 1e-3).to_bits(),
        "time: {case}"
    );
}

/// Checks every zoo candidate at every row fraction, granularity, channel
/// count and role under `cfg`.
fn check_layers(cfg_name: &str, cfg: &PimConfig) {
    let workloads = zoo_workloads();
    assert!(workloads.len() > 100, "zoo candidates: {}", workloads.len());
    for w in &workloads {
        for frac in FRACTIONS {
            let w = scaled(*w, frac);
            for granularity in GRANULARITIES {
                for channels in CHANNELS {
                    for role in ROLES {
                        check_workload(&w, cfg_name, cfg, granularity, channels, role);
                    }
                }
            }
        }
    }
}

#[test]
fn streamed_layer_pricing_equals_interpreting_the_program_on_newton_plus_plus() {
    check_layers("newton_plus_plus", &PimConfig::newton_plus_plus());
}

#[test]
fn streamed_layer_pricing_equals_interpreting_the_program_on_newton_plus() {
    check_layers("newton_plus", &PimConfig::newton_plus());
}

#[test]
fn streamed_layer_pricing_equals_interpreting_the_program_on_hbm_pim() {
    check_layers("hbm_pim_like", &PimConfig::hbm_pim_like());
}

/// Block counts around the channel count, where the scheduler's
/// round-robin deal is most uneven or exactly even: fewer full blocks than
/// channels, whole multiples of the channel count, and each with and
/// without a trailing partial block.
#[test]
fn streamed_pricing_holds_for_block_counts_around_the_channel_count() {
    for (cfg_name, cfg) in configs() {
        let rows_per_block = cfg.num_global_buffers;
        for channels in [5usize, 16] {
            for blocks in [1, 2, channels - 1, channels, 2 * channels, 3 * channels] {
                for tail_rows in 0..rows_per_block.min(2) {
                    let w = PimWorkload {
                        rows: blocks * rows_per_block + tail_rows,
                        k_elems: 576,
                        out_channels: 96,
                        strided: false,
                        segments: 1,
                    };
                    for granularity in GRANULARITIES {
                        for role in ROLES {
                            check_workload(&w, cfg_name, &cfg, granularity, channels, role);
                        }
                    }
                }
            }
        }
    }
}

/// Seeded random shapes beyond the zoo's, a sixth of them with 50 000
/// rows or more so the streams cross many refresh windows.
#[test]
fn streamed_pricing_holds_for_random_workload_shapes() {
    let mut rng = Rng::seed_from_u64(0x5EED_F0F0);
    let configs = configs();
    for case in 0..240 {
        let (cfg_name, cfg) = *rng.pick(&configs);
        let long = case % 6 == 0;
        let w = PimWorkload {
            rows: if long {
                rng.range_usize(50_000, 120_001)
            } else {
                rng.range_usize(1, 3_000)
            },
            k_elems: rng.range_usize(1, if long { 600 } else { 5_000 }),
            out_channels: rng.range_usize(1, if long { 300 } else { 2_500 }),
            strided: rng.range_u32(0, 2) == 1,
            segments: rng.range_usize(1, 10),
        };
        let granularity = *rng.pick(&GRANULARITIES);
        let channels = rng.range_usize(1, 25);
        let role = *rng.pick(&ROLES);
        check_workload(&w, cfg_name, &cfg, granularity, channels, role);
    }
}

/// Fusion groups of 2 and 3 consecutive PIM candidates of every model.
fn groups() -> Vec<Vec<(PimWorkload, FusedRole)>> {
    let mut out: Vec<Vec<(PimWorkload, FusedRole)>> = Vec::new();
    for name in MODELS {
        let ws = candidates(name);
        for len in [2usize, 3] {
            for window in ws.windows(len) {
                let members: Vec<(PimWorkload, FusedRole)> = window
                    .iter()
                    .enumerate()
                    .map(|(k, &w)| {
                        let role = match k {
                            0 => FusedRole::Head,
                            k if k == len - 1 => FusedRole::Tail,
                            _ => FusedRole::Middle,
                        };
                        (w, role)
                    })
                    .collect();
                if !out.contains(&members) {
                    out.push(members);
                }
            }
        }
    }
    out
}

#[test]
fn streamed_group_pricing_equals_interpreting_the_overlapped_program() {
    let groups = groups();
    assert!(groups.len() > 100, "zoo groups: {}", groups.len());
    for (cfg_name, cfg) in configs() {
        for group in &groups {
            for frac in [1.0, 0.1] {
                let members: Vec<(PimWorkload, FusedRole)> =
                    group.iter().map(|&(w, r)| (scaled(w, frac), r)).collect();
                for granularity in GRANULARITIES {
                    for channels in [5usize, 16] {
                        let program = generate_group_program_overlapped(
                            &members,
                            &cfg,
                            channels,
                            granularity,
                        );
                        let (merged, _) = interpret(&program, &cfg);
                        let (streamed, _) =
                            execute_group_overlapped(&members, &cfg, channels, granularity);
                        assert_eq!(
                            streamed, merged,
                            "{members:?} under {cfg_name}, {granularity}, {channels} ch"
                        );
                    }
                }
            }
        }
    }
}

/// One long overlap-linked chain: six consecutive mobilenet-v2
/// candidates, so every channel carries six members' streams back to back.
#[test]
fn streamed_pricing_holds_for_a_six_member_group() {
    let ws = candidates("mobilenet-v2");
    let members: Vec<(PimWorkload, FusedRole)> = ws[3..9]
        .iter()
        .enumerate()
        .map(|(k, &w)| {
            let role = match k {
                0 => FusedRole::Head,
                5 => FusedRole::Tail,
                _ => FusedRole::Middle,
            };
            (w, role)
        })
        .collect();
    for (cfg_name, cfg) in configs() {
        for granularity in GRANULARITIES {
            for channels in [3usize, 16, 24] {
                let program =
                    generate_group_program_overlapped(&members, &cfg, channels, granularity);
                let (merged, _) = interpret(&program, &cfg);
                assert_eq!(
                    execute_group_overlapped(&members, &cfg, channels, granularity).0,
                    merged,
                    "six members under {cfg_name}, {granularity}, {channels} ch"
                );
            }
        }
    }
}

#[test]
fn empty_groups_and_workloads_price_to_zero() {
    let cfg = PimConfig::default();
    let (merged, _) = execute_group_overlapped(&[], &cfg, 4, ScheduleGranularity::Comp);
    assert_eq!(merged, ChannelStats::default());
    let chain = price_fused_chain(&[], &cfg, 4, |_, _| 1.0);
    assert_eq!(
        (chain.chain_us, chain.hidden_us, chain.scale),
        (0.0, 0.0, 1.0)
    );
    let empty = PimWorkload {
        rows: 0,
        k_elems: 16,
        out_channels: 16,
        strided: false,
        segments: 1,
    };
    let (exec, per_channel) =
        execute_workload(&empty, &cfg, 4, ScheduleGranularity::Comp, FusedRole::Head);
    assert_eq!(exec.stats, ChannelStats::default());
    assert_eq!(per_channel, vec![ChannelStats::default(); 4]);
}

/// Shapes for the split path: a mid-size pointwise layer, a wide one, a
/// deep reduction, a tiny filter (one G_ACT, so `Comp` must split the
/// reduction) and a strided 3x3 convolution.
const SPLIT_SHAPES: [(usize, usize, bool, usize); 5] = [
    (576, 96, false, 1),
    (64, 1024, false, 1),
    (4800, 40, false, 1),
    (27, 16, false, 1),
    (1152, 128, true, 9),
];

/// `blocks` row groups of `shape` under `cfg`, the last one `tail_rows`
/// short of full when `tail_rows > 0`.
fn split_workload(
    (k_elems, out_channels, strided, segments): (usize, usize, bool, usize),
    cfg: &PimConfig,
    blocks: usize,
    tail_rows: usize,
) -> PimWorkload {
    PimWorkload {
        rows: blocks * cfg.num_global_buffers - tail_rows,
        k_elems,
        out_channels,
        strided,
        segments,
    }
}

/// Whether the scheduler splits `w`'s blocks for `channels` channels:
/// at least one block, and fewer than two per channel.
fn takes_the_split_path(w: &PimWorkload, cfg: &PimConfig, channels: usize) -> bool {
    let blocks: usize = generate_block_runs(w, cfg).iter().map(|&(_, n)| n).sum();
    (1..2 * channels).contains(&blocks)
}

const SPLIT_GRANULARITIES: [ScheduleGranularity; 2] =
    [ScheduleGranularity::Comp, ScheduleGranularity::ReadRes];

/// Layers with fewer blocks than twice the channel count, which the
/// scheduler splits into column stripes and reduction parts dealt by the
/// LPT greedy: every block count from one up, with and without a short
/// last row group, under every role and both splitting granularities.
#[test]
fn streamed_pricing_holds_on_the_split_path() {
    for (cfg_name, cfg) in configs() {
        for channels in [5usize, 8, 16] {
            for shape in SPLIT_SHAPES {
                for blocks in 1..2 * channels {
                    for tail_rows in [0, cfg.num_global_buffers / 2] {
                        let w = split_workload(shape, &cfg, blocks, tail_rows);
                        assert!(takes_the_split_path(&w, &cfg, channels), "{w:?}");
                        for granularity in SPLIT_GRANULARITIES {
                            for role in ROLES {
                                check_workload(&w, cfg_name, &cfg, granularity, channels, role);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Overlap-linked groups whose every member takes the split path: merged
/// and per-channel statistics equal interpreting the group's program.
#[test]
fn streamed_group_pricing_holds_when_every_member_splits() {
    let mut rng = Rng::seed_from_u64(0x5B1_17ED);
    for (cfg_name, cfg) in configs() {
        for channels in [5usize, 8, 16] {
            for case in 0..12 {
                let len = 2 + case % 3;
                let members: Vec<(PimWorkload, FusedRole)> = (0..len)
                    .map(|k| {
                        let shape = *rng.pick(&SPLIT_SHAPES);
                        let blocks = rng.range_usize(1, 2 * channels);
                        let tail_rows = rng.range_usize(0, cfg.num_global_buffers);
                        let role = match k {
                            0 => FusedRole::Head,
                            k if k == len - 1 => FusedRole::Tail,
                            _ => FusedRole::Middle,
                        };
                        (split_workload(shape, &cfg, blocks, tail_rows), role)
                    })
                    .collect();
                for (w, _) in &members {
                    assert!(takes_the_split_path(w, &cfg, channels), "{w:?}");
                }
                for granularity in SPLIT_GRANULARITIES {
                    let program =
                        generate_group_program_overlapped(&members, &cfg, channels, granularity);
                    let (merged, per_channel) = interpret(&program, &cfg);
                    let (streamed, streamed_per_channel) =
                        execute_group_overlapped(&members, &cfg, channels, granularity);
                    let case =
                        format!("{members:?} under {cfg_name}, {granularity}, {channels} ch");
                    assert_eq!(streamed, merged, "merged stats: {case}");
                    assert_eq!(
                        streamed_per_channel, per_channel,
                        "per-channel stats: {case}"
                    );
                }
            }
        }
    }
}
