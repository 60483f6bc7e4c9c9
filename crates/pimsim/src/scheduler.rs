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

use crate::command::CommandBlock;
use crate::config::PimConfig;
use pimflow_isa::IsaProgram;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Whether [`split_for_channels`] splits `len` blocks for `channels`
/// channels (otherwise it returns them unchanged).
fn splits(len: usize, channels: usize, granularity: ScheduleGranularity) -> bool {
    len > 0 && channels > 1 && len < channels * 2 && granularity != ScheduleGranularity::GAct
}

/// The parts each of `len` blocks splits into for `channels` channels,
/// or `None` if [`split_for_channels`] keeps them whole.
fn parts_per_block(len: usize, channels: usize, granularity: ScheduleGranularity) -> Option<u32> {
    // Enough units for LPT to balance.
    splits(len, channels, granularity).then(|| (channels as u32 * 2).div_ceil(len as u32))
}

/// Appends `block`'s parts to `units`: `per_block` output-column stripes,
/// and at `Comp` granularity reduction parts of each stripe when the
/// stripes alone fall short. Stripes partition the block's filter rows and
/// reduction parts share their stripe's, so any two parts of one block
/// have equal or disjoint row ranges.
fn split_block(
    block: &CommandBlock,
    per_block: u32,
    granularity: ScheduleGranularity,
    units: &mut Vec<CommandBlock>,
) {
    let col_parts = split_output_columns(block, per_block);
    let cols = col_parts.clone().count();
    if granularity == ScheduleGranularity::Comp && cols < per_block as usize {
        // Output columns alone were not enough; split the reduction too.
        let remaining = per_block.div_ceil(cols as u32);
        units.extend(col_parts.flat_map(|p| split_reduction(&p, remaining)));
    } else {
        units.extend(col_parts);
    }
}

/// Splits blocks as allowed by `granularity` until there are enough units to
/// occupy `channels` channels (or the split axes are exhausted).
pub fn split_for_channels(
    blocks: &[CommandBlock],
    channels: usize,
    granularity: ScheduleGranularity,
) -> Vec<CommandBlock> {
    let Some(per_block) = parts_per_block(blocks.len(), channels, granularity) else {
        return blocks.to_vec();
    };
    let mut units = Vec::new();
    for b in blocks {
        split_block(b, per_block, granularity, &mut units);
    }
    units
}

/// Blocks in run-length form: `(block, count)` runs in program order,
/// each `count` back-to-back copies of `block`.
pub type BlockRuns = [(CommandBlock, usize)];

/// The result of [`assign`]: the schedulable units and, per physical
/// channel, the `(unit, repeat)` runs it executes in program order, each
/// `repeat` back-to-back copies of `units[unit]`. Runs are maximal and
/// non-empty; an idle channel has none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// The blocks, split as the granularity allows.
    pub units: Vec<CommandBlock>,
    /// Every channel's runs, channel after channel.
    runs: Vec<(usize, usize)>,
    /// Where each channel's runs end in `runs`.
    ends: Vec<usize>,
}

impl Assignment {
    /// Channels, idle ones included.
    pub fn channels(&self) -> usize {
        self.ends.len()
    }

    /// Channel `channel`'s runs in program order.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= self.channels()`.
    pub fn runs(&self, channel: usize) -> &[(usize, usize)] {
        let start = channel.checked_sub(1).map_or(0, |c| self.ends[c]);
        &self.runs[start..self.ends[channel]]
    }

    /// Closes the current channel's runs: later pushes go to the next.
    fn end_channel(&mut self) {
        self.ends.push(self.runs.len());
    }

    /// Appends a copy of unit `unit` to the current channel, extending
    /// its last run if that run is of an equal unit.
    fn push(&mut self, unit: usize) {
        let start = self.ends.last().copied().unwrap_or(0);
        match self.runs[start..].last_mut() {
            Some((last, repeat)) if self.units[*last] == self.units[unit] => *repeat += 1,
            _ => self.runs.push((unit, 1)),
        }
    }
}

/// Distributes blocks across `channels` channels without expanding them:
/// takes the blocks as [`BlockRuns`] and returns the schedulable units
/// (the blocks, split as `granularity` allows) and, per physical channel,
/// the run-length list of units it runs in program order. [`schedule`] is
/// this assignment expanded into an ISA program; pricing paths that
/// simulate the units directly share the same assignment, so there is
/// exactly one load balancer.
///
/// Assignment is longest-processing-time greedy on the per-block cycle
/// estimate, which keeps channel loads balanced without simulating twice.
/// The common case has a closed form: blocks that are not split and are
/// one run of `n` copies of a body plus at most one trailing block no
/// heavier than the body (what the code generator emits) deal round
/// robin — channel `c` runs `n / C + [c < n % C]` body copies and the
/// tail lands on channel `n % C`. That is exactly the
/// greedy's output on such input, computed in O(C) from the runs alone.
/// Every other input goes through the greedy proper, which splits and
/// estimates each run's block once, deals units heaviest first (ties in
/// program order) to the least-loaded channel (ties to the lowest
/// channel) through a min-heap, and coalesces each channel's consecutive
/// equal units into runs.
///
/// The assignment always has `channels` channels, so channel `i` is
/// always physical channel `i`.
///
/// # Panics
///
/// Panics if `channels == 0`.
pub fn assign(
    blocks: &BlockRuns,
    channels: usize,
    granularity: ScheduleGranularity,
    cfg: &PimConfig,
) -> Assignment {
    assert!(channels > 0, "need at least one PIM channel");
    let len = blocks.iter().map(|&(_, n)| n).sum();
    if !splits(len, channels, granularity) {
        if let Some(assignment) = round_robin(blocks, channels, cfg) {
            return assignment;
        }
    }
    let (units, channel_of) = lpt(blocks, channels, granularity, cfg);
    // Each channel's units in program order: a counting sort by channel,
    // after which `ends[c]` is where channel `c`'s units end.
    let mut ends = vec![0; channels + 1];
    for &c in &channel_of {
        ends[c + 1] += 1;
    }
    for c in 0..channels {
        ends[c + 1] += ends[c];
    }
    let mut by_channel = vec![0; units.len()];
    for (unit, &c) in channel_of.iter().enumerate() {
        by_channel[ends[c]] = unit;
        ends[c] += 1;
    }
    let mut assignment = Assignment {
        units,
        runs: Vec::with_capacity(by_channel.len()),
        ends: Vec::with_capacity(channels),
    };
    let mut start = 0;
    for &end in &ends[..channels] {
        for &unit in &by_channel[start..end] {
            assignment.push(unit);
        }
        assignment.end_channel();
        start = end;
    }
    assignment
}

/// The closed-form LPT assignment of [`assign`], or `None` if `blocks` are
/// not one body run plus at most one no-heavier tail.
fn round_robin(blocks: &BlockRuns, channels: usize, cfg: &PimConfig) -> Option<Assignment> {
    let (body, n, tail) = match *blocks {
        [] => (None, 0, None),
        [(body, n)] => (Some(body), n, None),
        [(body, n), (tail, 1)] if tail != body => (Some(body), n, Some(tail)),
        _ => return None,
    };
    if let Some(body) = body {
        let estimate = estimate_block_cycles(&body, cfg);
        // A zero estimate never raises a load, so the greedy would stack
        // every block on channel 0 instead of dealing them out.
        if estimate == 0 || tail.is_some_and(|t| estimate_block_cycles(&t, cfg) > estimate) {
            return None;
        }
    }
    let mut assignment = Assignment {
        units: body.into_iter().chain(tail).collect(),
        runs: Vec::with_capacity(channels + 1),
        ends: Vec::with_capacity(channels),
    };
    for c in 0..channels {
        match n / channels + usize::from(c < n % channels) {
            0 => {}
            repeat => assignment.runs.push((0, repeat)),
        }
        if tail.is_some() && c == n % channels {
            assignment.runs.push((1, 1));
        }
        assignment.end_channel();
    }
    Some(assignment)
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

/// The LPT greedy behind [`assign`]: the units — the expanded blocks,
/// split by [`split_for_channels`] — and the channel each unit runs on
/// (a channel runs its units in program order).
///
/// Every copy of a run splits into the same parts with the same
/// estimates, so each run's block is split and estimated once and its
/// parts replicated. Units deal in decreasing estimate, ties in program
/// order (a stable sort), each to the channel with the least load, ties
/// to the lowest channel: a `(load, channel)` min-heap picks exactly the
/// channel a first-minimum scan would.
fn lpt(
    blocks: &BlockRuns,
    channels: usize,
    granularity: ScheduleGranularity,
    cfg: &PimConfig,
) -> (Vec<CommandBlock>, Vec<usize>) {
    let len = blocks.iter().map(|&(_, n)| n).sum();
    let per_block = parts_per_block(len, channels, granularity);
    let capacity = len * per_block.unwrap_or(1) as usize;
    let mut units = Vec::with_capacity(capacity);
    // `(estimate, unit)`, in dealing order once sorted.
    let mut order: Vec<(Reverse<u64>, usize)> = Vec::with_capacity(capacity);
    for &(block, n) in blocks {
        let first = units.len();
        match per_block {
            Some(per_block) => split_block(&block, per_block, granularity, &mut units),
            None => units.push(block),
        }
        let parts = units.len() - first;
        let estimates = units[first..].iter().map(|u| estimate_block_cycles(u, cfg));
        order.extend(estimates.zip(first..).map(|(e, unit)| (Reverse(e), unit)));
        for copy in 1..n {
            units.extend_from_within(first..first + parts);
            for k in first..first + parts {
                order.push((order[k].0, k + copy * parts));
            }
        }
    }
    order.sort_unstable();

    let mut loads: BinaryHeap<Reverse<(u64, usize)>> =
        (0..channels).map(|c| Reverse((0, c))).collect();
    let mut channel_of = vec![0; units.len()];
    for (Reverse(estimate), unit) in order {
        let mut least = loads.peek_mut().expect("channels > 0");
        let Reverse((load, channel)) = *least;
        *least = Reverse((load + estimate, channel));
        channel_of[unit] = channel;
    }
    (units, channel_of)
}

/// Distributes blocks across `channels` channels and expands each channel's
/// assignment into its instruction stream: [`assign`] followed by block
/// expansion, so the program carries exactly the assignment's load
/// balance. The program is barrier-free.
///
/// The program always has `channels` streams, so stream `i` always
/// corresponds to physical channel `i`.
///
/// # Panics
///
/// Panics if `channels == 0`.
pub fn schedule(
    blocks: &[CommandBlock],
    channels: usize,
    granularity: ScheduleGranularity,
    cfg: &PimConfig,
) -> IsaProgram {
    let assignment = assign(&block_runs(blocks), channels, granularity, cfg);
    IsaProgram::from_channels(
        (0..assignment.channels())
            .map(|channel| {
                assignment
                    .runs(channel)
                    .iter()
                    .flat_map(|&(unit, repeat)| {
                        let block = assignment.units[unit];
                        (0..repeat).flat_map(move |_| block.expand())
                    })
                    .collect()
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::NewtonInterpreter;
    use pimflow_isa::PimInst;

    /// Interprets `program`, returning the merged statistics.
    fn run(cfg: &PimConfig, program: &IsaProgram) -> crate::ChannelStats {
        NewtonInterpreter::new(cfg).run(program).0
    }

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
            let program = schedule(&blocks, 8, g, &cfg);
            let cycles = run(&cfg, &program).cycles;
            assert!(
                cycles <= prev,
                "granularity {g:?} slower: {cycles} > {prev}"
            );
            prev = cycles;
        }
        // And the finest must be strictly better than the coarsest here.
        let coarse = run(&cfg, &schedule(&blocks, 8, ScheduleGranularity::GAct, &cfg));
        let fine = run(&cfg, &schedule(&blocks, 8, ScheduleGranularity::Comp, &cfg));
        assert!(fine.cycles < coarse.cycles);
    }

    #[test]
    fn large_layers_are_unaffected_by_granularity() {
        let cfg = PimConfig::default();
        let blocks = vec![small_layer_block(); 64];
        let a = run(&cfg, &schedule(&blocks, 8, ScheduleGranularity::GAct, &cfg));
        let b = run(&cfg, &schedule(&blocks, 8, ScheduleGranularity::Comp, &cfg));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.comps, b.comps);
    }

    #[test]
    fn work_is_conserved_at_gact_granularity() {
        let cfg = PimConfig::default();
        let blocks = vec![small_layer_block(); 10];
        let program = schedule(&blocks, 4, ScheduleGranularity::GAct, &cfg);
        let merged = run(&cfg, &program);
        let serial: u64 = blocks.iter().map(|b| b.total_comps()).sum();
        assert_eq!(merged.comps, serial);
    }

    #[test]
    fn more_channels_never_slower() {
        let cfg = PimConfig::default();
        let blocks = vec![small_layer_block(); 32];
        let mut prev = u64::MAX;
        for ch in [1usize, 2, 4, 8, 16] {
            let program = schedule(&blocks, ch, ScheduleGranularity::Comp, &cfg);
            let cycles = run(&cfg, &program).cycles;
            assert!(cycles <= prev, "{ch} channels slower: {cycles} > {prev}");
            prev = cycles;
        }
    }

    #[test]
    #[should_panic(expected = "at least one PIM channel")]
    fn zero_channels_panics() {
        schedule(&[], 0, ScheduleGranularity::GAct, &PimConfig::default());
    }

    /// The greedy as it ran before it took run-length input, kept as the
    /// reference for [`assign`]: expand the runs, split the blocks,
    /// estimate every unit, stable-sort them heaviest first, give each the
    /// first least-loaded channel by a linear scan, and coalesce each
    /// channel's consecutive equal units into runs.
    fn reference_assign(
        blocks: &BlockRuns,
        channels: usize,
        granularity: ScheduleGranularity,
        cfg: &PimConfig,
    ) -> (Vec<CommandBlock>, Vec<Vec<(usize, usize)>>) {
        let blocks: Vec<CommandBlock> = blocks
            .iter()
            .flat_map(|&(b, n)| std::iter::repeat_n(b, n))
            .collect();
        let units = split_for_channels(&blocks, channels, granularity);
        let estimates: Vec<u64> = units
            .iter()
            .map(|u| estimate_block_cycles(u, cfg))
            .collect();
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by_key(|&i| Reverse(estimates[i]));
        let mut loads = vec![0u64; channels];
        let mut channel_of = vec![0; units.len()];
        for i in order {
            let channel = (0..channels).min_by_key(|&c| loads[c]).unwrap();
            loads[channel] += estimates[i];
            channel_of[i] = channel;
        }
        let mut runs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); channels];
        for (i, &ch) in channel_of.iter().enumerate() {
            match runs[ch].last_mut() {
                Some((unit, repeat)) if units[*unit] == units[i] => *repeat += 1,
                _ => runs[ch].push((i, 1)),
            }
        }
        (units, runs)
    }

    /// The reference greedy's assignment as each channel's block sequence.
    fn greedy_blocks(
        blocks: &[CommandBlock],
        channels: usize,
        granularity: ScheduleGranularity,
        cfg: &PimConfig,
    ) -> Vec<Vec<CommandBlock>> {
        let (units, runs) = reference_assign(&block_runs(blocks), channels, granularity, cfg);
        expanded_runs(&units, &runs)
    }

    /// Each channel's runs of `a`, in channel order.
    fn channel_runs(a: &Assignment) -> Vec<Vec<(usize, usize)>> {
        (0..a.channels()).map(|c| a.runs(c).to_vec()).collect()
    }

    /// Per-channel runs expanded into each channel's block sequence,
    /// checking on the way that the runs are maximal and non-empty.
    fn expanded_runs(
        units: &[CommandBlock],
        runs: &[Vec<(usize, usize)>],
    ) -> Vec<Vec<CommandBlock>> {
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
            let assignment = assign(&block_runs(&blocks), channels, granularity, &cfg);
            let (units, runs) = (&assignment.units, channel_runs(&assignment));
            let case = format!("case {case}: {n} + {tail:?} on {channels} ch, {granularity}");
            assert_eq!(runs.len(), channels, "{case}");
            assert_eq!(
                expanded_runs(units, &runs),
                greedy_blocks(&blocks, channels, granularity, &cfg),
                "{case}"
            );
            closed_form += usize::from(units.len() < blocks.len());
        }
        assert!(tails.iter().all(|&k| k > 50), "tail classes: {tails:?}");
        assert!(closed_form > 500, "closed form taken {closed_form} times");
    }

    /// A random block as the code generator emits one: filter rows from 0.
    fn random_block(rng: &mut pimflow_rng::Rng) -> CommandBlock {
        CommandBlock {
            buffer_rows: rng.range_u32(2, 9) as u8,
            gwrite_bytes: rng.range_u32(2, 4096),
            gwrites_per_row: rng.range_u32(1, 10) as u16,
            gacts: rng.range_u32(1, 64),
            comps_per_gact: rng.range_u32(1, 33),
            readres_bytes: rng.range_u32(2, 1024),
            oc_splits: rng.range_u32(1, 17) as u16,
            row_base: 0,
        }
    }

    #[test]
    fn split_path_assignment_equals_the_reference_greedy() {
        use pimflow_rng::Rng;
        let cfg = PimConfig::default();
        let mut rng = Rng::seed_from_u64(0x1B7_5EED);
        let (mut split, mut whole) = (0usize, 0usize);
        for case in 0..6000 {
            let channels = rng.range_usize(1, 25);
            let granularity = *rng.pick(&[
                ScheduleGranularity::GAct,
                ScheduleGranularity::ReadRes,
                ScheduleGranularity::Comp,
            ]);
            // Mostly the split path's 1 <= blocks < 2 x channels, as a body
            // run plus an optional lighter tail; else up to four arbitrary
            // runs of any length.
            let mut blocks = Vec::new();
            if case % 4 != 0 {
                let body = random_block(&mut rng);
                let n = rng.range_usize(1, 2 * channels + 1);
                blocks.push((body, n));
                if rng.range_u32(0, 2) == 0 {
                    let rows = rng.range_u32(1, body.buffer_rows as u32) as u8;
                    blocks.push((
                        CommandBlock {
                            buffer_rows: rows,
                            ..body
                        },
                        1,
                    ));
                }
            } else {
                for _ in 0..rng.range_usize(1, 5) {
                    let n = rng.range_usize(1, 3 * channels + 1);
                    blocks.push((random_block(&mut rng), n));
                }
            }
            let got = assign(&blocks, channels, granularity, &cfg);
            let want = reference_assign(&blocks, channels, granularity, &cfg);
            let len: usize = blocks.iter().map(|&(_, n)| n).sum();
            let case = format!("case {case}: {blocks:?} on {channels} ch, {granularity}");
            if !splits(len, channels, granularity) && round_robin(&blocks, channels, &cfg).is_some()
            {
                // The closed form coalesces units; it deals the same.
                assert_eq!(
                    expanded_runs(&got.units, &channel_runs(&got)),
                    expanded_runs(&want.0, &want.1),
                    "{case}"
                );
                continue;
            }
            if got.units.len() > len {
                split += 1;
            } else {
                whole += 1;
            }
            assert_eq!((got.units.clone(), channel_runs(&got)), want, "{case}");
        }
        assert!(split > 1000 && whole > 1000, "split {split}, whole {whole}");
    }

    /// Whether two units' filter-row ranges are equal or disjoint.
    fn equal_or_disjoint(a: &CommandBlock, b: &CommandBlock) -> bool {
        let (a0, a1) = (a.row_base, a.row_base + a.gacts);
        let (b0, b1) = (b.row_base, b.row_base + b.gacts);
        (a0, a1) == (b0, b1) || a1 <= b0 || b1 <= a0
    }

    /// The precondition of renaming filter rows: whatever the code
    /// generator's blocks (rows from 0, a tail with fewer input rows), the
    /// units [`split_for_channels`] and [`assign`] emit have pairwise equal
    /// or disjoint row ranges.
    #[test]
    fn emitted_units_have_equal_or_disjoint_row_ranges() {
        use pimflow_rng::Rng;
        let cfg = PimConfig::default();
        let mut rng = Rng::seed_from_u64(0xD15_0147);
        let mut split = 0usize;
        for case in 0..1500 {
            let body = random_block(&mut rng);
            let n = rng.range_usize(1, 40);
            let mut blocks = vec![(body, n)];
            if case % 2 == 0 {
                let rows = rng.range_u32(1, body.buffer_rows as u32) as u8;
                let tail = CommandBlock {
                    buffer_rows: rows,
                    ..body
                };
                blocks.push((tail, 1));
            }
            let channels = rng.range_usize(1, 33);
            let granularity = *rng.pick(&[
                ScheduleGranularity::GAct,
                ScheduleGranularity::ReadRes,
                ScheduleGranularity::Comp,
            ]);
            let expanded: Vec<CommandBlock> = blocks
                .iter()
                .flat_map(|&(b, n)| std::iter::repeat_n(b, n))
                .collect();
            let emitted = [
                split_for_channels(&expanded, channels, granularity),
                assign(&blocks, channels, granularity, &cfg).units,
            ];
            for units in &emitted {
                split += usize::from(units.len() > expanded.len());
                for (i, a) in units.iter().enumerate() {
                    for b in &units[i + 1..] {
                        assert!(
                            equal_or_disjoint(a, b),
                            "case {case}: {a:?} and {b:?} overlap ({channels} ch, {granularity})"
                        );
                    }
                }
            }
        }
        assert!(split > 1000, "split {split} times");
    }

    /// A channel engine reads filter rows only by equality with the open
    /// row (and, fast-forwarding, relative to a period's rows), so renaming
    /// every unit's row range injectively — equal ranges to equal ones,
    /// disjoint to disjoint — leaves a unit stream's statistics unchanged,
    /// whether it runs command by command or through
    /// [`ChannelEngine::run_blocks`].
    #[test]
    fn renaming_row_ranges_keeps_engine_stats() {
        use crate::timing::ChannelEngine;
        use pimflow_rng::Rng;
        let mut rng = Rng::seed_from_u64(0x2E_4A3E);
        let configs = [
            PimConfig::newton_plus_plus(),
            PimConfig::newton_plus(),
            PimConfig::hbm_pim_like(),
        ];
        for case in 0..300 {
            let cfg = *rng.pick(&configs);
            // A few ranges of filter rows, each of one length; some units
            // share a range, and some ranges sit back to back.
            let ranges = rng.range_usize(1, 6);
            let lengths: Vec<u32> = (0..ranges).map(|_| rng.range_u32(1, 12)).collect();
            let place = |rng: &mut Rng| -> Vec<u32> {
                let mut order: Vec<usize> = (0..ranges).collect();
                for i in (1..ranges).rev() {
                    order.swap(i, rng.range_usize(0, i + 1));
                }
                let mut bases = vec![0; ranges];
                let mut next = rng.range_u32(0, 3);
                for r in order {
                    bases[r] = next;
                    next += lengths[r] + rng.range_u32(0, 3);
                }
                bases
            };
            let (from, to) = (place(&mut rng), place(&mut rng));
            let steps: Vec<(CommandBlock, usize)> = (0..rng.range_usize(1, 8))
                .map(|_| {
                    let r = rng.range_usize(0, ranges);
                    let block = CommandBlock {
                        buffer_rows: rng.range_u32(1, cfg.num_global_buffers as u32 + 1) as u8,
                        gacts: lengths[r],
                        row_base: from[r],
                        ..random_block(&mut rng)
                    };
                    (block, rng.range_usize(1, 300))
                })
                .collect();
            let renamed: Vec<(CommandBlock, usize)> = steps
                .iter()
                .map(|&(b, n)| {
                    let r = from.iter().position(|&base| base == b.row_base).unwrap();
                    (
                        CommandBlock {
                            row_base: to[r],
                            ..b
                        },
                        n,
                    )
                })
                .collect();
            let by_command = |steps: &[(CommandBlock, usize)]| {
                let trace: Vec<PimInst> = steps
                    .iter()
                    .flat_map(|&(b, n)| (0..n).flat_map(move |_| b.expand()))
                    .collect();
                ChannelEngine::new(cfg).run(&trace)
            };
            let by_blocks = |steps: &[(CommandBlock, usize)]| {
                let mut engine = ChannelEngine::new(cfg);
                for (b, n) in steps {
                    engine.run_blocks(b, *n as u64, |c| c);
                }
                engine.finish()
            };
            let want = by_command(&steps);
            assert_eq!(
                by_command(&renamed),
                want,
                "case {case}: {steps:?} -> {to:?}"
            );
            assert_eq!(
                by_blocks(&renamed),
                want,
                "case {case}: {steps:?} -> {to:?}"
            );
        }
    }
}
