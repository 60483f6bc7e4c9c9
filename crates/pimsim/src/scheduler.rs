//! PIM command scheduling across channels (§4.3.1, Fig. 6).
//!
//! The command generator produces a stream of [`CommandBlock`]s per layer
//! tile. This scheduler distributes them over the PIM-enabled channels so
//! that no channel idles "when matrices to be placed in memory are too
//! small, which is often the case for 1x1 CONV layers". Three granularities
//! progressively increase channel-level parallelism:
//!
//! * [`ScheduleGranularity::GAct`] — blocks are atomic; a block's whole
//!   `GWRITE/G_ACT/COMP/READRES` sequence runs on one channel.
//! * [`ScheduleGranularity::ReadRes`] — a block may split along its output
//!   columns: each part streams its own filter stripe (own G_ACTs, fewer of
//!   them) and reads its own result slice, at the cost of replicating the
//!   input GWRITEs on every participating channel.
//! * [`ScheduleGranularity::Comp`] — a block may additionally split along
//!   the reduction (k) dimension: parts compute partial sums, so each part
//!   pays the full READRES for its partial results plus the replicated
//!   GWRITEs. Most parallel, most overhead.

use crate::command::{CommandBlock, PimCommand};
use crate::config::PimConfig;
use crate::fault::FaultPlan;
use crate::timing::RunOptions;
use std::cmp::Reverse;

/// How finely blocks may be split across channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleGranularity {
    /// Whole blocks (coarsest, Fig. 6 (1)).
    GAct,
    /// Split along output columns (Fig. 6 (2)).
    ReadRes,
    /// Split along output columns and the reduction dimension (finest,
    /// Fig. 6 (3)).
    Comp,
}

impl std::fmt::Display for ScheduleGranularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleGranularity::GAct => f.write_str("G_ACT"),
            ScheduleGranularity::ReadRes => f.write_str("READRES"),
            ScheduleGranularity::Comp => f.write_str("COMP"),
        }
    }
}

/// Rough per-block cycle estimate used for load balancing (LPT greedy).
pub fn estimate_block_cycles(b: &CommandBlock, cfg: &PimConfig) -> u64 {
    let t = cfg.timing;
    let gwrite = if cfg.gwrite_latency_hiding {
        b.total_gwrites() // issue slots only
    } else {
        b.total_gwrites()
            * (t.t_rcd_wr as u64 + (b.gwrite_bytes as u64).div_ceil(cfg.io_bytes_per_cycle as u64))
    };
    let act = b.gacts as u64 * (t.t_rcd_rd as u64).max(t.t_rc() as u64 / 2);
    let comp = b.total_comps() * t.t_ccd as u64;
    let read = t.t_cl as u64
        + (b.readres_bytes as u64 * b.buffer_rows as u64).div_ceil(cfg.io_bytes_per_cycle as u64);
    gwrite + act + comp + read
}

/// Splits `block` into `factor` parts along the output-column axis.
///
/// Each part owns `1/factor` of the filter stripes (G_ACTs and result bytes
/// divide) but must receive the full input rows (GWRITEs replicate).
fn split_output_columns(
    block: &CommandBlock,
    factor: u32,
) -> impl Iterator<Item = CommandBlock> + Clone {
    let b = *block;
    let whole = (factor <= 1).then_some(b);
    let factor = factor.min(b.oc_splits as u32).min(b.gacts.max(1)).max(1);
    let parts = if whole.is_some() { 0 } else { factor };
    let (base_gacts, extra) = (b.gacts / factor, b.gacts % factor);
    whole.into_iter().chain((0..parts).filter_map(move |i| {
        let gacts = base_gacts + u32::from(i < extra);
        (gacts > 0).then(|| CommandBlock {
            gacts,
            readres_bytes: (b.readres_bytes / factor).max(1),
            oc_splits: (b.oc_splits as u32 / factor).max(1) as u16,
            // Each column stripe streams its own filter rows: those of
            // the stripes before it.
            row_base: b.row_base + i * base_gacts + i.min(extra),
            ..b
        })
    }))
}

/// Splits `block` into `factor` parts along the reduction (k) dimension.
///
/// COMPs per activation divide; every part reads out **full-size partial
/// results** that the engine later accumulates, so READRES does not shrink.
fn split_reduction(block: &CommandBlock, factor: u32) -> impl Iterator<Item = CommandBlock> {
    let b = *block;
    let whole = (factor <= 1).then_some(b);
    let factor = factor.min(b.comps_per_gact.max(1)).max(1);
    let parts = if whole.is_some() { 0 } else { factor };
    let (base, extra) = (b.comps_per_gact / factor, b.comps_per_gact % factor);
    whole.into_iter().chain((0..parts).filter_map(move |i| {
        let comps = base + u32::from(i < extra);
        (comps > 0).then(|| CommandBlock {
            comps_per_gact: comps,
            gwrite_bytes: (b.gwrite_bytes / factor).max(1),
            ..b
        })
    }))
}

/// Whether [`split_for_channels`] splits `len` blocks for `channels` live
/// channels (otherwise it returns them unchanged).
fn splits(len: usize, channels: usize, granularity: ScheduleGranularity) -> bool {
    len > 0 && channels > 1 && len < channels * 2 && granularity != ScheduleGranularity::GAct
}

/// Splits blocks as allowed by `granularity` until there are enough units to
/// occupy `channels` channels (or the split axes are exhausted).
pub fn split_for_channels(
    blocks: &[CommandBlock],
    channels: usize,
    granularity: ScheduleGranularity,
) -> Vec<CommandBlock> {
    if !splits(blocks.len(), channels, granularity) {
        return blocks.to_vec();
    }
    let target = channels * 2; // enough units for LPT to balance
    let per_block = (target as u32).div_ceil(blocks.len() as u32);
    let mut units = Vec::new();
    for b in blocks {
        let col_parts = split_output_columns(b, per_block);
        let cols = col_parts.clone().count();
        if granularity == ScheduleGranularity::Comp && cols < per_block as usize {
            // Output columns alone were not enough; split the reduction too.
            let remaining = per_block.div_ceil(cols as u32);
            units.extend(col_parts.flat_map(|p| split_reduction(&p, remaining)));
        } else {
            units.extend(col_parts);
        }
    }
    units
}

/// One channel's share of an assignment: `(unit, repeat)` runs in program
/// order, each `repeat` back-to-back copies of `units[unit]`.
pub type UnitRuns = Vec<(usize, usize)>;

/// Blocks in run-length form: `(block, count)` runs in program order,
/// each `count` back-to-back copies of `block`.
pub type BlockRuns = [(CommandBlock, usize)];

/// Distributes blocks across `channels` channels without expanding them:
/// takes the blocks as [`BlockRuns`] and returns the schedulable units
/// (the blocks, split as `granularity` allows) and, per physical channel,
/// the run-length list of units it runs in program order. [`schedule`] is
/// this assignment expanded into command traces; pricing paths that
/// simulate the units directly share the same assignment, so there is
/// exactly one load balancer.
///
/// Assignment is longest-processing-time greedy on the per-block cycle
/// estimate, which keeps channel loads balanced without simulating twice.
/// The common case has a closed form: on a healthy plan, blocks that are
/// not split and are one run of `n` copies of a body plus at most one
/// trailing block no heavier than the body (what the code generator
/// emits) deal round robin — channel `c` runs `n / C + [c < n % C]` body
/// copies and the tail lands on channel `n % C`. That is exactly the
/// greedy's output on such input, computed in O(C) from the runs alone.
/// Every other input expands its runs, runs the greedy and coalesces each
/// channel's consecutive equal units into runs.
///
/// With a [`FaultPlan`] attached to `opts`, dead channels receive no
/// units, derated channels are LPT-weighted by their remaining bandwidth
/// so the balanced makespan accounts for their slower bus, and a channel
/// with a pending stall is pre-loaded with the stall's duration
/// (pessimistically assuming the freeze lands inside the layer). The
/// per-channel callback, if any, is ignored here — it belongs to
/// [`run_channels`](crate::timing::run_channels).
///
/// The returned run lists always have `channels` entries so entry `i`
/// always corresponds to physical channel `i`.
///
/// # Panics
///
/// Panics if `channels == 0` or the plan leaves no channel alive.
pub fn assign(
    blocks: &BlockRuns,
    channels: usize,
    granularity: ScheduleGranularity,
    cfg: &PimConfig,
    opts: &RunOptions<'_>,
) -> (Vec<CommandBlock>, Vec<UnitRuns>) {
    assert!(channels > 0, "need at least one PIM channel");
    let len = blocks.iter().map(|&(_, n)| n).sum();
    if opts.faults.is_none_or(FaultPlan::is_healthy) && !splits(len, channels, granularity) {
        if let Some(assignment) = round_robin(blocks, channels, cfg) {
            return assignment;
        }
    }
    let blocks: Vec<CommandBlock> = blocks
        .iter()
        .flat_map(|&(b, n)| std::iter::repeat_n(b, n))
        .collect();
    let (units, channel_of) = lpt(&blocks, channels, granularity, cfg, opts);
    let mut runs: Vec<UnitRuns> = vec![Vec::new(); channels];
    for (i, &ch) in channel_of.iter().enumerate() {
        match runs[ch].last_mut() {
            Some((unit, repeat)) if units[*unit] == units[i] => *repeat += 1,
            _ => runs[ch].push((i, 1)),
        }
    }
    (units, runs)
}

/// The closed-form LPT assignment of [`assign`], or `None` if `blocks` are
/// not one body run plus at most one no-heavier tail.
fn round_robin(
    blocks: &BlockRuns,
    channels: usize,
    cfg: &PimConfig,
) -> Option<(Vec<CommandBlock>, Vec<UnitRuns>)> {
    let (body, n, tail) = match *blocks {
        [] => return Some((Vec::new(), vec![Vec::new(); channels])),
        [(body, n)] => (body, n, None),
        [(body, n), (tail, 1)] if tail != body => (body, n, Some(tail)),
        _ => return None,
    };
    let estimate = estimate_block_cycles(&body, cfg);
    // A zero estimate never raises a load, so the greedy would stack every
    // block on channel 0 instead of dealing them out.
    if estimate == 0 || tail.is_some_and(|t| estimate_block_cycles(&t, cfg) > estimate) {
        return None;
    }
    let mut runs: Vec<UnitRuns> = (0..channels)
        .map(|c| match n / channels + usize::from(c < n % channels) {
            0 => Vec::new(),
            repeat => vec![(0, repeat)],
        })
        .collect();
    let mut units = vec![body];
    if let Some(tail) = tail {
        units.push(tail);
        runs[n % channels].push((1, 1));
    }
    Some((units, runs))
}

/// `blocks` in run-length form, consecutive equal blocks coalesced.
fn block_runs(blocks: &[CommandBlock]) -> Vec<(CommandBlock, usize)> {
    let mut runs: Vec<(CommandBlock, usize)> = Vec::new();
    for &b in blocks {
        match runs.last_mut() {
            Some((body, n)) if *body == b => *n += 1,
            _ => runs.push((b, 1)),
        }
    }
    runs
}

/// The LPT greedy behind [`assign`]: the units and the physical channel
/// each unit runs on (a channel runs its units in program order).
fn lpt(
    blocks: &[CommandBlock],
    channels: usize,
    granularity: ScheduleGranularity,
    cfg: &PimConfig,
    opts: &RunOptions<'_>,
) -> (Vec<CommandBlock>, Vec<usize>) {
    assert!(channels > 0, "need at least one PIM channel");
    let healthy;
    let plan = match opts.faults {
        Some(p) => p,
        None => {
            healthy = FaultPlan::healthy();
            &healthy
        }
    };
    let alive = plan.alive_channels(channels);
    assert!(!alive.is_empty(), "need at least one live PIM channel");
    let units = split_for_channels(blocks, alive.len(), granularity);
    let estimates: Vec<u64> = units
        .iter()
        .map(|u| estimate_block_cycles(u, cfg))
        .collect();
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&i| Reverse(estimates[i]));

    // LPT over the live channels only, with per-channel weighting: a block
    // on a derated channel costs proportionally more, and a pending stall
    // counts as load the channel must drain before it can help.
    let mut loads: Vec<u64> = alive
        .iter()
        .map(|&ch| plan.stall(ch).map_or(0, |(_, duration)| duration))
        .collect();
    let mut channel_of = vec![0; units.len()];
    for i in order {
        let slot = (0..alive.len()).min_by_key(|&s| loads[s]).expect("alive");
        loads[slot] += estimates[i] * 100 / plan.derate_percent(alive[slot]) as u64;
        channel_of[i] = alive[slot];
    }
    (units, channel_of)
}

/// Each physical channel's unit indices in program order, from the
/// channel each unit runs on.
fn per_channel(channel_of: &[usize], channels: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); channels];
    for (i, &ch) in channel_of.iter().enumerate() {
        out[ch].push(i);
    }
    out
}

/// Distributes blocks across `channels` channels and expands each channel's
/// assignment into a command trace: [`assign`] followed by block
/// expansion, so the traces carry exactly the assignment's load balance
/// and fault routing (dead channels receive empty traces).
///
/// The returned vector always has `channels` entries so trace index `i`
/// always corresponds to physical channel `i`.
///
/// # Panics
///
/// Panics if `channels == 0` or the plan leaves no channel alive.
pub fn schedule(
    blocks: &[CommandBlock],
    channels: usize,
    granularity: ScheduleGranularity,
    cfg: &PimConfig,
    opts: &RunOptions<'_>,
) -> Vec<Vec<PimCommand>> {
    let (units, per_channel) = assign(&block_runs(blocks), channels, granularity, cfg, opts);
    per_channel
        .iter()
        .map(|runs| {
            runs.iter()
                .flat_map(|&(unit, repeat)| {
                    let block = units[unit];
                    (0..repeat).flat_map(move |_| block.expand())
                })
                .collect()
        })
        .collect()
}

/// Measurement-guided refinement of [`schedule`]: simulate the LPT
/// assignment, then iteratively move the cheapest block off the slowest
/// channel onto the fastest one while the makespan improves.
///
/// The estimate-based LPT greedy can misjudge blocks whose cost is dominated
/// by state-dependent effects (open-row hits, refresh alignment); measuring
/// with the actual timing engine closes that gap. Guaranteed to return an
/// assignment no worse than plain [`schedule`].
///
/// # Panics
///
/// Panics if `channels == 0`.
pub fn schedule_refined(
    blocks: &[CommandBlock],
    channels: usize,
    granularity: ScheduleGranularity,
    cfg: &PimConfig,
    max_rounds: usize,
) -> Vec<Vec<PimCommand>> {
    // Start from the LPT assignment (indices into `units` per channel).
    let (units, channel_of) = lpt(blocks, channels, granularity, cfg, &RunOptions::new());
    let mut assignment = per_channel(&channel_of, channels);
    let expand_channel = |idxs: &[usize]| -> Vec<PimCommand> {
        let mut sorted: Vec<usize> = idxs.to_vec();
        sorted.sort_unstable();
        sorted.iter().flat_map(|&i| units[i].expand()).collect()
    };
    let measure = |idxs: &[usize]| -> u64 {
        crate::timing::ChannelEngine::new(*cfg)
            .run(&expand_channel(idxs))
            .cycles
    };

    let mut cycles: Vec<u64> = assignment.iter().map(|a| measure(a)).collect();
    for _ in 0..max_rounds {
        let slow = (0..channels)
            .max_by_key(|&c| cycles[c])
            .expect("channels > 0");
        let fast = (0..channels)
            .min_by_key(|&c| cycles[c])
            .expect("channels > 0");
        if slow == fast || assignment[slow].len() <= 1 {
            break;
        }
        // Move the estimated-cheapest unit from the slowest channel.
        let (pos, _) = assignment[slow]
            .iter()
            .enumerate()
            .min_by_key(|(_, &i)| estimate_block_cycles(&units[i], cfg))
            .expect("non-empty");
        let unit = assignment[slow].remove(pos);
        assignment[fast].push(unit);
        let new_slow = measure(&assignment[slow]);
        let new_fast = measure(&assignment[fast]);
        let old_makespan = *cycles.iter().max().expect("non-empty");
        let new_makespan = cycles
            .iter()
            .enumerate()
            .map(|(c, &v)| {
                if c == slow {
                    new_slow
                } else if c == fast {
                    new_fast
                } else {
                    v
                }
            })
            .max()
            .expect("non-empty");
        if new_makespan >= old_makespan {
            // Revert and stop: no further improvement available this way.
            let unit = assignment[fast].pop().expect("just pushed");
            assignment[slow].insert(pos, unit);
            break;
        }
        cycles[slow] = new_slow;
        cycles[fast] = new_fast;
    }

    assignment.iter().map(|idxs| expand_channel(idxs)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{run_channels, RunOptions};

    fn small_layer_block() -> CommandBlock {
        // A 1x1-conv-like block: tiny filter, few G_ACTs, lots of splittable
        // output columns.
        CommandBlock {
            buffer_rows: 4,
            gwrite_bytes: 128,
            gwrites_per_row: 1,
            gacts: 16,
            comps_per_gact: 16,
            readres_bytes: 64,
            oc_splits: 16,
            row_base: 0,
        }
    }

    #[test]
    fn gact_granularity_keeps_blocks_whole() {
        let blocks = vec![small_layer_block(); 3];
        let units = split_for_channels(&blocks, 16, ScheduleGranularity::GAct);
        assert_eq!(units.len(), 3);
    }

    #[test]
    fn readres_granularity_splits_columns() {
        let blocks = vec![small_layer_block()];
        let units = split_for_channels(&blocks, 8, ScheduleGranularity::ReadRes);
        assert!(units.len() > 1, "expected splits, got {}", units.len());
        // Total G_ACTs preserved.
        let total: u32 = units.iter().map(|u| u.gacts).sum();
        assert_eq!(total, 16);
        // Total result bytes approximately preserved.
        let bytes: u32 = units.iter().map(|u| u.readres_bytes).sum();
        assert!(bytes <= 64 + units.len() as u32);
    }

    #[test]
    fn finer_granularity_is_faster_for_small_layers() {
        // The Fig. 6 effect: a single small block on 8 channels.
        let cfg = PimConfig::default();
        let blocks = vec![small_layer_block()];
        let mut prev = u64::MAX;
        for g in [
            ScheduleGranularity::GAct,
            ScheduleGranularity::ReadRes,
            ScheduleGranularity::Comp,
        ] {
            let traces = schedule(&blocks, 8, g, &cfg, &RunOptions::new());
            let cycles = run_channels(&cfg, &traces, RunOptions::new()).cycles;
            assert!(
                cycles <= prev,
                "granularity {g:?} slower: {cycles} > {prev}"
            );
            prev = cycles;
        }
        // And the finest must be strictly better than the coarsest here.
        let coarse = run_channels(
            &cfg,
            &schedule(
                &blocks,
                8,
                ScheduleGranularity::GAct,
                &cfg,
                &RunOptions::new(),
            ),
            RunOptions::new(),
        );
        let fine = run_channels(
            &cfg,
            &schedule(
                &blocks,
                8,
                ScheduleGranularity::Comp,
                &cfg,
                &RunOptions::new(),
            ),
            RunOptions::new(),
        );
        assert!(fine.cycles < coarse.cycles);
    }

    #[test]
    fn large_layers_are_unaffected_by_granularity() {
        let cfg = PimConfig::default();
        let blocks = vec![small_layer_block(); 64];
        let a = run_channels(
            &cfg,
            &schedule(
                &blocks,
                8,
                ScheduleGranularity::GAct,
                &cfg,
                &RunOptions::new(),
            ),
            RunOptions::new(),
        );
        let b = run_channels(
            &cfg,
            &schedule(
                &blocks,
                8,
                ScheduleGranularity::Comp,
                &cfg,
                &RunOptions::new(),
            ),
            RunOptions::new(),
        );
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.comps, b.comps);
    }

    #[test]
    fn work_is_conserved_at_gact_granularity() {
        let cfg = PimConfig::default();
        let blocks = vec![small_layer_block(); 10];
        let traces = schedule(
            &blocks,
            4,
            ScheduleGranularity::GAct,
            &cfg,
            &RunOptions::new(),
        );
        let merged = run_channels(&cfg, &traces, RunOptions::new());
        let serial: u64 = blocks.iter().map(|b| b.total_comps()).sum();
        assert_eq!(merged.comps, serial);
    }

    #[test]
    fn more_channels_never_slower() {
        let cfg = PimConfig::default();
        let blocks = vec![small_layer_block(); 32];
        let mut prev = u64::MAX;
        for ch in [1usize, 2, 4, 8, 16] {
            let traces = schedule(
                &blocks,
                ch,
                ScheduleGranularity::Comp,
                &cfg,
                &RunOptions::new(),
            );
            let cycles = run_channels(&cfg, &traces, RunOptions::new()).cycles;
            assert!(cycles <= prev, "{ch} channels slower: {cycles} > {prev}");
            prev = cycles;
        }
    }

    #[test]
    #[should_panic(expected = "at least one PIM channel")]
    fn zero_channels_panics() {
        schedule(
            &[],
            0,
            ScheduleGranularity::GAct,
            &PimConfig::default(),
            &RunOptions::new(),
        );
    }

    #[test]
    fn dead_channels_receive_no_work() {
        use crate::fault::{ChannelFault, FaultKind};
        let cfg = PimConfig::default();
        let blocks = vec![small_layer_block(); 12];
        let plan = FaultPlan::healthy()
            .with(ChannelFault {
                channel: 0,
                kind: FaultKind::Dead,
            })
            .with(ChannelFault {
                channel: 3,
                kind: FaultKind::Dead,
            });
        let traces = schedule(
            &blocks,
            4,
            ScheduleGranularity::GAct,
            &cfg,
            &RunOptions::new().faults(&plan),
        );
        assert_eq!(traces.len(), 4, "trace index must stay = channel index");
        assert!(traces[0].is_empty() && traces[3].is_empty());
        assert!(!traces[1].is_empty() && !traces[2].is_empty());
        // All work lands on the survivors.
        let merged = run_channels(&cfg, &traces, RunOptions::new().faults(&plan));
        let expected: u64 = blocks.iter().map(|b| b.total_comps()).sum();
        assert_eq!(merged.comps, expected);
    }

    #[test]
    fn derated_channel_gets_less_work() {
        use crate::fault::{ChannelFault, FaultKind};
        let cfg = PimConfig::default();
        let blocks = vec![small_layer_block(); 32];
        let plan = FaultPlan::healthy().with(ChannelFault {
            channel: 0,
            kind: FaultKind::Derate { percent: 25 },
        });
        let traces = schedule(
            &blocks,
            4,
            ScheduleGranularity::GAct,
            &cfg,
            &RunOptions::new().faults(&plan),
        );
        let slow = traces[0].len();
        let healthy_min = traces[1..].iter().map(Vec::len).min().unwrap();
        assert!(
            slow < healthy_min,
            "derated channel got {slow} cmds, healthy min {healthy_min}"
        );
    }

    #[test]
    fn healthy_fault_plan_matches_plain_schedule() {
        let cfg = PimConfig::default();
        let blocks = vec![small_layer_block(); 9];
        let plain = schedule(
            &blocks,
            4,
            ScheduleGranularity::Comp,
            &cfg,
            &RunOptions::new(),
        );
        let healthy = FaultPlan::healthy();
        let faulty = schedule(
            &blocks,
            4,
            ScheduleGranularity::Comp,
            &cfg,
            &RunOptions::new().faults(&healthy),
        );
        assert_eq!(plain, faulty);
    }

    #[test]
    #[should_panic(expected = "live PIM channel")]
    fn all_dead_panics() {
        use crate::fault::{ChannelFault, FaultKind};
        let plan = FaultPlan::healthy().with(ChannelFault {
            channel: 0,
            kind: FaultKind::Dead,
        });
        schedule(
            &[],
            1,
            ScheduleGranularity::GAct,
            &PimConfig::default(),
            &RunOptions::new().faults(&plan),
        );
    }

    #[test]
    fn refined_schedule_never_worse_than_lpt() {
        let cfg = PimConfig::default();
        // Heterogeneous block mix to give LPT something to misjudge.
        let mut blocks = Vec::new();
        for i in 0..24u32 {
            blocks.push(CommandBlock {
                buffer_rows: 1 + (i % 4) as u8,
                gwrite_bytes: 64 + i * 37,
                gwrites_per_row: 1,
                gacts: 1 + i % 7,
                comps_per_gact: 1 + (i * 5) % 32,
                readres_bytes: 32 + i * 11,
                oc_splits: 4,
                row_base: i * 100,
            });
        }
        for ch in [3usize, 7, 16] {
            let lpt = run_channels(
                &cfg,
                &schedule(
                    &blocks,
                    ch,
                    ScheduleGranularity::GAct,
                    &cfg,
                    &RunOptions::new(),
                ),
                RunOptions::new(),
            );
            let refined = run_channels(
                &cfg,
                &schedule_refined(&blocks, ch, ScheduleGranularity::GAct, &cfg, 32),
                RunOptions::new(),
            );
            assert!(
                refined.cycles <= lpt.cycles,
                "{ch} channels: refined {} > lpt {}",
                refined.cycles,
                lpt.cycles
            );
            assert_eq!(refined.comps, lpt.comps, "work must be conserved");
        }
    }

    #[test]
    fn refined_schedule_conserves_work() {
        let cfg = PimConfig::default();
        let blocks = vec![small_layer_block(); 9];
        let traces = schedule_refined(&blocks, 4, ScheduleGranularity::Comp, &cfg, 16);
        let stats = run_channels(&cfg, &traces, RunOptions::new());
        let expected: u64 = blocks.iter().map(|b| b.total_comps()).sum();
        assert!(stats.comps >= expected);
    }
    /// The greedy's assignment as each channel's block sequence.
    fn greedy_blocks(
        blocks: &[CommandBlock],
        channels: usize,
        granularity: ScheduleGranularity,
        cfg: &PimConfig,
        opts: &RunOptions<'_>,
    ) -> Vec<Vec<CommandBlock>> {
        let (units, channel_of) = lpt(blocks, channels, granularity, cfg, opts);
        per_channel(&channel_of, channels)
            .iter()
            .map(|idxs| idxs.iter().map(|&i| units[i]).collect())
            .collect()
    }

    /// [`assign`]'s runs expanded into each channel's block sequence,
    /// checking on the way that the runs are maximal and non-empty.
    fn expanded_runs(units: &[CommandBlock], runs: &[UnitRuns]) -> Vec<Vec<CommandBlock>> {
        runs.iter()
            .map(|runs| {
                for pair in runs.windows(2) {
                    assert_ne!(units[pair[0].0], units[pair[1].0], "runs not maximal");
                }
                runs.iter()
                    .flat_map(|&(unit, repeat)| {
                        assert!(repeat > 0, "empty run");
                        std::iter::repeat_n(units[unit], repeat)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn run_length_assignment_expands_to_the_greedy() {
        use crate::fault::FaultPlan;
        use pimflow_rng::Rng;
        let cfg = PimConfig::default();
        let mut rng = Rng::seed_from_u64(0x5CED);
        // Cases seen per tail class: none, lighter, equal, heavier.
        let mut tails = [0usize; 4];
        let mut closed_form = 0usize;
        for case in 0..1500 {
            let body = CommandBlock {
                buffer_rows: rng.range_u32(2, 9) as u8,
                gwrite_bytes: rng.range_u32(2, 4096),
                gwrites_per_row: rng.range_u32(1, 10) as u16,
                gacts: rng.range_u32(1, 64),
                comps_per_gact: rng.range_u32(1, 33),
                readres_bytes: rng.range_u32(2, 1024),
                oc_splits: rng.range_u32(1, 17) as u16,
                row_base: 0,
            };
            let n = rng.range_usize(1, 201);
            let mut blocks = vec![body; n];
            let tail = match case % 4 {
                0 => None,
                // Fewer rows: no heavier than the body.
                1 => Some(CommandBlock {
                    buffer_rows: rng.range_u32(1, body.buffer_rows as u32) as u8,
                    ..body
                }),
                // Another row base: a different block, the same estimate.
                2 => Some(CommandBlock {
                    row_base: 1 + rng.range_u32(0, 64),
                    ..body
                }),
                _ => Some(CommandBlock {
                    gacts: body.gacts + rng.range_u32(1, 8),
                    ..body
                }),
            };
            if let Some(t) = tail {
                let (e, et) = (
                    estimate_block_cycles(&body, &cfg),
                    estimate_block_cycles(&t, &cfg),
                );
                tails[1 + usize::from(et >= e) + usize::from(et > e)] += 1;
                blocks.push(t);
            } else {
                tails[0] += 1;
            }
            let channels = rng.range_usize(1, 33);
            let granularity = *rng.pick(&[
                ScheduleGranularity::GAct,
                ScheduleGranularity::ReadRes,
                ScheduleGranularity::Comp,
            ]);
            let faults = FaultPlan::from_seed(rng.next_u64(), channels, rng.next_f64());
            for opts in [RunOptions::new(), RunOptions::new().faults(&faults)] {
                let (units, runs) =
                    assign(&block_runs(&blocks), channels, granularity, &cfg, &opts);
                let case = format!("case {case}: {n} + {tail:?} on {channels} ch, {granularity}");
                assert_eq!(runs.len(), channels, "{case}");
                assert_eq!(
                    expanded_runs(&units, &runs),
                    greedy_blocks(&blocks, channels, granularity, &cfg, &opts),
                    "{case}"
                );
                if opts.faults.is_some_and(|f| !f.is_healthy()) {
                    // Faults take the greedy path: one unit per block.
                    assert!(units.len() >= blocks.len(), "{case}");
                } else if units.len() < blocks.len() {
                    closed_form += 1;
                }
            }
        }
        assert!(tails.iter().all(|&k| k > 50), "tail classes: {tails:?}");
        assert!(closed_form > 500, "closed form taken {closed_form} times");
    }
}
