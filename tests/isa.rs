//! Cross-crate contracts of the typed PIM ISA layer.
//!
//! Three properties hold the refactor together:
//!
//! 1. **Golden encoding** — the textual mnemonic of every instruction is
//!    pinned byte for byte, so serialized programs stay replayable across
//!    releases.
//! 2. **Interpreter identity** — for seeded random workloads and for the
//!    compiled kernels of zoo PIM candidates, encoding to text, decoding,
//!    and interpreting on the Newton engine reports exactly the merged
//!    and per-channel statistics of running the scheduled command traces
//!    directly, or of the streamed pricer the search uses. The ISA is a
//!    lens over the simulator, not a second cost model.
//! 3. **Plan stability** — Newton plans are pool-width invariant, and
//!    legacy split JSON decodes unchanged.

use pimflow::backend::{Backend, DramPimBackend, KernelArtifact};
use pimflow::codegen::{execute_workload, PimWorkload};
use pimflow::engine::EngineConfig;
use pimflow::search::{Decision, Search, SearchOptions};
use pimflow_ir::models;
use pimflow_isa::{
    inst_to_line, parse_program, program_to_text, FusedRole, IsaProgram, PimInst, PROGRAM_HEADER,
};
use pimflow_pimsim::{
    lift_traces, run_channels, schedule, ChannelStats, CommandBlock, NewtonInterpreter, PimConfig,
    RunOptions, ScheduleGranularity,
};
use pimflow_rng::Rng;

/// Every mnemonic of the v1 text format, pinned byte for byte.
#[test]
fn golden_isa_text_encoding() {
    let cases = [
        (
            PimInst::BufWrite {
                buffer: 2,
                bytes: 256,
            },
            "BUFWRITE buf=2 bytes=256",
        ),
        (PimInst::RowActivate { row: 7 }, "ROWACT row=7"),
        (
            PimInst::MacBurst {
                buffer: 1,
                repeat: 16,
            },
            "MACBURST buf=1 repeat=16",
        ),
        (PimInst::Drain { bytes: 64 }, "DRAIN bytes=64"),
        (PimInst::HostBurst { bytes: 512 }, "HOSTBURST bytes=512"),
        (PimInst::Barrier, "BARRIER"),
    ];
    for (inst, line) in &cases {
        assert_eq!(inst_to_line(inst), *line);
    }
    assert_eq!(PROGRAM_HEADER, "# pimflow pim-isa v1");
    let program = pimflow_isa::IsaProgram::from_channels(vec![
        vec![
            PimInst::BufWrite {
                buffer: 2,
                bytes: 256,
            },
            PimInst::Barrier,
        ],
        vec![PimInst::RowActivate { row: 7 }, PimInst::Barrier],
    ]);
    assert_eq!(
        program_to_text(&program),
        "# pimflow pim-isa v1 channel=0\n\
         BUFWRITE buf=2 bytes=256\n\
         BARRIER\n\
         # pimflow pim-isa v1 channel=1\n\
         ROWACT row=7\n\
         BARRIER\n"
    );
}

fn random_blocks(rng: &mut Rng) -> Vec<CommandBlock> {
    (0..rng.range_usize(1, 8))
        .map(|_| CommandBlock {
            buffer_rows: rng.range_u32(1, 4) as u8,
            gwrite_bytes: rng.range_u32(32, 512),
            gwrites_per_row: rng.range_u32(1, 3) as u16,
            gacts: rng.range_u32(1, 12),
            comps_per_gact: rng.range_u32(1, 24),
            readres_bytes: rng.range_u32(16, 256),
            oc_splits: rng.range_u32(1, 8) as u16,
            row_base: rng.range_u32(0, 64),
        })
        .collect()
}

/// A program to round-trip and the merged and per-channel statistics its
/// interpretation must reproduce.
struct Case {
    label: String,
    program: IsaProgram,
    merged: ChannelStats,
    per_channel: Vec<ChannelStats>,
}

/// Encode → decode → interpret equals the direct timing: for seeded random
/// workloads over every scheduling granularity and several channel counts,
/// lowered to the ISA and checked against running the scheduled traces;
/// and for every PIM candidate of toy and mobilenet-v2, compiled by the
/// Newton++ backend and checked against the backend's reported statistics
/// and the streamed pricer the search uses.
#[test]
fn interpreted_isa_matches_direct_timing_on_random_workloads() {
    let cfg = PimConfig::default();
    let mut rng = Rng::seed_from_u64(0x1517_c0de);
    let random = (0..24).map(|trial| {
        let blocks = random_blocks(&mut rng);
        let channels = [1, 2, 4, 16][trial % 4];
        let granularity = [
            ScheduleGranularity::GAct,
            ScheduleGranularity::ReadRes,
            ScheduleGranularity::Comp,
        ][trial % 3];
        let traces = schedule(&blocks, channels, granularity, &cfg, &RunOptions::new());
        let mut per_channel = Vec::new();
        let mut collect = |_: usize, s: &ChannelStats| per_channel.push(*s);
        let merged = run_channels(&cfg, &traces, RunOptions::new().on_channel(&mut collect));
        Case {
            label: format!("trial {trial}"),
            program: lift_traces(&traces),
            merged,
            per_channel,
        }
    });
    let be = DramPimBackend::newton_plus_plus();
    assert_eq!(
        be.pim, cfg,
        "the zoo cases compile for the configuration they interpret on"
    );
    let zoo = ["toy", "mobilenet-v2"].into_iter().flat_map(|name| {
        let g = models::by_name(name).expect("zoo model");
        g.node_ids()
            .filter(|&id| g.is_pim_candidate(id))
            .map(|id| {
                let label = format!("{name}/{}", g.node(id).name);
                let kernel = be.compile(&g, id).expect("zoo candidate compiles");
                let KernelArtifact::PimProgram(program) = kernel.artifact else {
                    panic!("{label}: the PIM backend emits an ISA program");
                };
                let (priced, per_channel) = execute_workload(
                    &PimWorkload::from_node(&g, id),
                    &be.pim,
                    be.channels,
                    be.granularity,
                    FusedRole::Standalone,
                );
                assert_eq!(
                    kernel.pim_stats,
                    Some(priced.stats),
                    "{label}: compiled stats"
                );
                Case {
                    label,
                    program,
                    merged: priced.stats,
                    per_channel,
                }
            })
            .collect::<Vec<_>>()
    });
    for case in random.chain(zoo) {
        let label = &case.label;
        let decoded =
            parse_program(&program_to_text(&case.program)).expect("emitted program parses");
        assert_eq!(
            decoded, case.program,
            "{label}: text round-trip must be exact"
        );
        let mut per_channel = Vec::new();
        let mut collect = |_: usize, s: &ChannelStats| per_channel.push(*s);
        let interpreted =
            NewtonInterpreter::new(&cfg).run(&decoded, RunOptions::new().on_channel(&mut collect));
        assert_eq!(
            interpreted, case.merged,
            "{label}: ISA interpretation diverged from the direct run"
        );
        assert_eq!(
            per_channel, case.per_channel,
            "{label}: per-channel statistics diverged from the direct run"
        );
    }
}

/// Newton-only plans are byte-identical whether the search routes costs
/// through the ISA at pool width 1 or 2 — the width-invariance the
/// refactor must preserve.
#[test]
fn newton_plans_are_width_invariant() {
    let g = models::toy();
    let cfg = EngineConfig::pimflow();
    let opts = SearchOptions::default();
    let plans: Vec<String> = [1usize, 2]
        .iter()
        .map(|&w| {
            let plan = Search::new(&g, &cfg)
                .options(opts)
                .pool(w)
                .run()
                .expect("toy search");
            pimflow_json::to_string(&plan)
        })
        .collect();
    assert_eq!(plans[0], plans[1]);
}

/// A hand-written legacy plan document (no backend field) decodes to a
/// split, which runs on Newton like every PIM decision.
#[test]
fn legacy_split_json_defaults_to_newton() {
    let json = r#"{"Split": {"gpu_percent": 40}}"#;
    let d: Decision = pimflow_json::from_str(json).unwrap();
    assert_eq!(d, Decision::Split { gpu_percent: 40 });
}
