//! Property tests for the DRAM-PIM timing engine and scheduler, driven by
//! seeded random cases from `pimflow-rng` (the workspace builds offline, so
//! `proptest` is not available).

use pimflow_isa::PimInst;
use pimflow_pimsim::{
    schedule, ChannelEngine, CommandBlock, NewtonInterpreter, PimConfig, ScheduleGranularity,
};
use pimflow_rng::Rng;

const CASES: usize = 64;

fn random_block(rng: &mut Rng) -> CommandBlock {
    CommandBlock {
        buffer_rows: rng.range_u32(1, 5) as u8,
        gwrite_bytes: rng.range_u32(1, 4096),
        gwrites_per_row: rng.range_u32(1, 4) as u16,
        gacts: rng.range_u32(1, 40),
        comps_per_gact: rng.range_u32(1, 33),
        readres_bytes: rng.range_u32(1, 2048),
        oc_splits: rng.range_u32(1, 17) as u16,
        row_base: 0,
    }
}

/// Run-length-encoded COMP bursts are cycle-exact with their expansion,
/// for arbitrary traces.
#[test]
fn rle_comp_is_exact() {
    let mut rng = Rng::seed_from_u64(0x7151_0001);
    for _ in 0..CASES {
        let repeats: Vec<u32> = (0..rng.range_usize(1, 10))
            .map(|_| rng.range_u32(1, 50))
            .collect();
        let cfg = PimConfig::default();
        let mut rle = vec![
            PimInst::BufWrite {
                buffer: 0,
                bytes: 128,
            },
            PimInst::RowActivate { row: 0 },
        ];
        let mut expanded = rle.clone();
        for &r in &repeats {
            rle.push(PimInst::MacBurst {
                buffer: 0,
                repeat: r,
            });
            for _ in 0..r {
                expanded.push(PimInst::MacBurst {
                    buffer: 0,
                    repeat: 1,
                });
            }
        }
        rle.push(PimInst::Drain { bytes: 32 });
        expanded.push(PimInst::Drain { bytes: 32 });
        let a = ChannelEngine::new(cfg).run(&rle);
        let b = ChannelEngine::new(cfg).run(&expanded);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.comps, b.comps);
        assert_eq!(a.macs, b.macs);
    }
}

/// GWRITE latency hiding never slows a block down.
#[test]
fn hiding_never_hurts() {
    let mut rng = Rng::seed_from_u64(0x7151_0002);
    for _ in 0..CASES {
        let block = random_block(&mut rng);
        let trace: Vec<PimInst> = block.expand().collect();
        let hidden = ChannelEngine::new(PimConfig::default()).run(&trace);
        let cfg = PimConfig {
            gwrite_latency_hiding: false,
            ..PimConfig::default()
        };
        let exposed = ChannelEngine::new(cfg).run(&trace);
        assert!(
            hidden.cycles <= exposed.cycles,
            "hidden {} > exposed {}",
            hidden.cycles,
            exposed.cycles
        );
    }
}

/// Block expansion preserves command counts exactly.
#[test]
fn expansion_counts() {
    let mut rng = Rng::seed_from_u64(0x7151_0003);
    for _ in 0..CASES {
        let block = random_block(&mut rng);
        let stats =
            ChannelEngine::new(PimConfig::default()).run(&block.expand().collect::<Vec<_>>());
        assert_eq!(stats.comps, block.total_comps());
        assert_eq!(stats.gwrites, block.total_gwrites());
        // Open-row reuse can only reduce issued activations; refreshes may
        // add one controller re-activation each.
        assert!(stats.gacts <= block.gacts as u64 + stats.refreshes);
        assert_eq!(stats.readres, 1);
    }
}

/// Scheduling onto any channel count conserves MAC work and yields a
/// finish time no less than a perfectly balanced lower bound.
#[test]
fn schedule_conserves_and_bounds() {
    let mut rng = Rng::seed_from_u64(0x7151_0004);
    let granularities = [
        ScheduleGranularity::GAct,
        ScheduleGranularity::ReadRes,
        ScheduleGranularity::Comp,
    ];
    for _ in 0..CASES {
        let blocks: Vec<CommandBlock> = (0..rng.range_usize(1, 12))
            .map(|_| random_block(&mut rng))
            .collect();
        let channels = rng.range_usize(1, 17);
        let granularity = *rng.pick(&granularities);
        let cfg = PimConfig::default();
        let program = schedule(&blocks, channels, granularity, &cfg);
        assert_eq!(program.num_channels(), channels);
        let (stats, _) = NewtonInterpreter::new(&cfg).run(&program);
        let min_comps: u64 = blocks.iter().map(|b| b.total_comps()).sum();
        assert!(stats.comps >= min_comps);
        // Lower bound: total COMP cycles spread perfectly over channels.
        let lower = min_comps * cfg.timing.t_ccd as u64 / channels as u64;
        assert!(
            stats.cycles >= lower / 2,
            "cycles {} below bound {}",
            stats.cycles,
            lower
        );
    }
}

/// Cycle counts are deterministic.
#[test]
fn timing_is_deterministic() {
    let mut rng = Rng::seed_from_u64(0x7151_0005);
    for _ in 0..CASES {
        let block = random_block(&mut rng);
        let a = ChannelEngine::new(PimConfig::default()).run(&block.expand().collect::<Vec<_>>());
        let b = ChannelEngine::new(PimConfig::default()).run(&block.expand().collect::<Vec<_>>());
        assert_eq!(a, b);
    }
}

/// Merging parallel channel stats takes the max cycles and sums work.
#[test]
fn merge_parallel_semantics() {
    let mut rng = Rng::seed_from_u64(0x7151_0006);
    for _ in 0..CASES {
        let b1 = random_block(&mut rng);
        let b2 = random_block(&mut rng);
        let cfg = PimConfig::default();
        let s1 = ChannelEngine::new(cfg).run(&b1.expand().collect::<Vec<_>>());
        let s2 = ChannelEngine::new(cfg).run(&b2.expand().collect::<Vec<_>>());
        let m = s1.merge_parallel(&s2);
        assert_eq!(m.cycles, s1.cycles.max(s2.cycles));
        assert_eq!(m.comps, s1.comps + s2.comps);
        assert_eq!(m.macs, s1.macs + s2.macs);
    }
}
