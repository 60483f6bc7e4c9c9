//! DRAM-PIM command generation (§4.3.1).
//!
//! Lowers a CONV or FC node into [`CommandBlock`]s: the filter matrix is
//! assumed pre-placed in the memory cell arrays (§2.2), input-matrix rows
//! stream through the global buffers via GWRITE, and each group of
//! `num_global_buffers` rows shares one streaming pass over the filter tile
//! (the command-reuse optimization, §4.1). The blocks are then distributed
//! over the PIM channels by the command scheduler and timed by the
//! DRAM-PIM simulator.
//!
//! Two paths share one block schedule. The `generate_*program` functions
//! compile it into the typed ISA program — the artifact the PIM backend
//! carries, prints and validates. The `execute_*` pricers stream the same schedule
//! straight into the channel timing engine, with filter rows renamed to a
//! canonical form, simulating each distinct channel-stream prefix once
//! and fast-forwarding steady-state command periods; their statistics are
//! bit-identical to interpreting the compiled program (`tests/pricer.rs`
//! holds that contract).

use pimflow_ir::{Conv2dAttrs, Graph, NodeId, Op, Shape};
use pimflow_isa::{FusedRole, IsaProgram};
use pimflow_kernels::lowered_dims;
use pimflow_pimsim::{
    assign, pim_energy_nj, schedule, Assignment, ChannelEngine, ChannelStats, CommandBlock,
    PimConfig, PimEnergyParams, ScheduleGranularity,
};

/// A PIM-offloadable workload in lowered (matrix) form. The default is
/// the empty workload (no rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct PimWorkload {
    /// Input-matrix rows to process.
    pub rows: usize,
    /// Reduction length per row.
    pub k_elems: usize,
    /// Output channels (filter-matrix columns).
    pub out_channels: usize,
    /// Whether GWRITE rows gather non-contiguous input (k > 1x1 conv).
    pub strided: bool,
    /// Contiguous input segments per row when strided (kh * kw for NHWC).
    pub segments: usize,
}

impl PimWorkload {
    /// Lowers a convolution over `input_shape`.
    pub fn from_conv(input_shape: &Shape, attrs: &Conv2dAttrs) -> Self {
        let d = lowered_dims(input_shape, attrs);
        PimWorkload {
            rows: d.rows,
            k_elems: d.k_elems,
            out_channels: d.out_channels,
            strided: d.strided,
            segments: (attrs.kernel.h * attrs.kernel.w).max(1),
        }
    }

    /// Lowers a dense layer over a `[rows, features]` input.
    pub fn from_dense(rows: usize, in_features: usize, out_features: usize) -> Self {
        PimWorkload {
            rows,
            k_elems: in_features,
            out_channels: out_features,
            strided: false,
            segments: 1,
        }
    }

    /// Lowers graph node `id` (must be a PIM-candidate CONV or FC).
    ///
    /// # Panics
    ///
    /// Panics if the node is not a CONV/FC or shapes are missing.
    pub fn from_node(graph: &Graph, id: NodeId) -> Self {
        let node = graph.node(id);
        let in_shape = &graph
            .value(node.inputs[0])
            .desc
            .as_ref()
            .expect("shapes inferred")
            .shape;
        match &node.op {
            Op::Conv2d(a) => PimWorkload::from_conv(in_shape, a),
            Op::Dense(a) => PimWorkload::from_dense(in_shape.n(), in_shape.c(), a.out_features),
            other => panic!("node `{}` ({other}) is not PIM-offloadable", node.name),
        }
    }

    /// Total MAC operations of the workload.
    pub fn macs(&self) -> u64 {
        self.rows as u64 * self.k_elems as u64 * self.out_channels as u64
    }
}

/// Generates the command blocks for a workload under `cfg`: the
/// [`generate_block_runs`] expanded into one block per row group.
pub fn generate_blocks(w: &PimWorkload, cfg: &PimConfig) -> Vec<CommandBlock> {
    generate_block_runs(w, cfg)
        .into_iter()
        .flat_map(|(b, n)| std::iter::repeat_n(b, n))
        .collect()
}

/// Generates the command blocks for a workload under `cfg`, in run-length
/// form: one run of identical full blocks, then the trimmed last group if
/// the rows do not divide evenly.
///
/// Each block processes up to `cfg.num_global_buffers` input rows: GWRITE
/// fills one buffer per row, a G_ACT stream walks the filter tile once, and
/// each activated row's column I/Os are COMPed against every live buffer
/// before moving on (G_ACT reuse). Rows whose reduction exceeds the buffer
/// capacity are k-tiled; the result latches accumulate across tiles so only
/// one READRES per row group is needed.
pub fn generate_block_runs(w: &PimWorkload, cfg: &PimConfig) -> Vec<(CommandBlock, usize)> {
    if w.rows == 0 || w.k_elems == 0 || w.out_channels == 0 {
        return Vec::new();
    }
    let elem_bytes = 2u32; // PIM-native f16
    let buffer_rows = cfg.num_global_buffers.min(w.rows).max(1) as u8;
    let k_tiles = w.k_elems.div_ceil(cfg.buffer_elems()).max(1);
    let oc_per_bank = w.out_channels.div_ceil(cfg.banks).max(1);

    // Filter elements resident per bank, and the activations/column I/Os
    // needed to stream them once per buffer row.
    let filter_elems_per_bank = w.k_elems * oc_per_bank;
    let gacts = filter_elems_per_bank
        .div_ceil(cfg.row_elems_per_bank())
        .max(1) as u32;
    let column_ios = w.k_elems.div_ceil(cfg.elems_per_column_io()) * oc_per_bank;
    let comps_per_gact = (column_ios as u32).div_ceil(gacts).max(1);

    let segments = if w.strided && !cfg.strided_gwrite {
        w.segments
    } else {
        1
    };
    let gwrites_per_row = (k_tiles * segments).max(1) as u16;

    let block = CommandBlock {
        buffer_rows,
        gwrite_bytes: (w.k_elems as u32) * elem_bytes,
        gwrites_per_row,
        gacts,
        comps_per_gact,
        readres_bytes: (w.out_channels as u32) * elem_bytes,
        oc_splits: w.out_channels.min(cfg.banks) as u16,
        // All row groups stream the same resident filter rows, so they
        // share row ids: consecutive blocks on a channel hit the open row.
        row_base: 0,
    };

    // Full groups, then the last group trimmed to the remaining rows.
    let (full, rem) = (w.rows / buffer_rows as usize, w.rows % buffer_rows as usize);
    let mut runs = Vec::with_capacity(2);
    if full > 0 {
        runs.push((block, full));
    }
    if rem != 0 {
        let tail = CommandBlock {
            buffer_rows: rem as u8,
            ..block
        };
        runs.push((tail, 1));
    }
    runs
}

/// Compiles a workload into a typed ISA program: generate the command
/// blocks and schedule them over `channels` channels. This is the
/// artifact the PIM backend carries, prints and validates; the streamed
/// pricer ([`execute_workload`]) reports exactly what interpreting it
/// under [`pimflow_pimsim::NewtonInterpreter`] does.
///
/// # Panics
///
/// Panics if `channels == 0`.
pub fn generate_program(
    w: &PimWorkload,
    cfg: &PimConfig,
    channels: usize,
    granularity: ScheduleGranularity,
) -> IsaProgram {
    schedule(&generate_blocks(w, cfg), channels, granularity, cfg)
}

/// Like [`generate_program`], but lowered for a fusion-group member: the
/// bus crossings `role` elides (the input staging of a fused consumer, the
/// result drain of a fused producer) become `BANKFEED`s, so intermediate
/// activations stay resident near the banks. `FusedRole::Standalone`
/// produces exactly [`generate_program`]'s output.
pub fn generate_fused_program(
    w: &PimWorkload,
    cfg: &PimConfig,
    channels: usize,
    granularity: ScheduleGranularity,
    role: FusedRole,
) -> IsaProgram {
    role.rewrite_program(&generate_program(w, cfg, channels, granularity))
}

/// Compiles a whole fusion group into one overlap-linked program: each
/// member lowers under its [`FusedRole`] (as [`generate_fused_program`]),
/// members are concatenated with [`IsaProgram::append_overlapped`] — the
/// relaxed separator that splits no epochs — and every member's
/// `ROWACT` rows are offset past its predecessors' so the continuous
/// per-channel walk sees no spurious cross-member row-buffer hits.
///
/// Interpreting the result runs each channel's member streams back to
/// back through one carried engine state, so a consumer's staging tail
/// hides under the producer's MAC/drain tail on busier channels. This is
/// *not* structurally never worse than the member sum (a continuous run
/// can cross refresh windows the per-member reset avoids), which is why
/// the compiler prices fused groups as the min of both compositions.
///
/// # Panics
///
/// Panics if `channels == 0`.
pub fn generate_group_program_overlapped(
    members: &[(PimWorkload, FusedRole)],
    cfg: &PimConfig,
    channels: usize,
    granularity: ScheduleGranularity,
) -> IsaProgram {
    let mut linked: Option<IsaProgram> = None;
    let mut row_base = 0u32;
    for (w, role) in members {
        let mut p = generate_fused_program(w, cfg, channels, granularity, *role);
        p.offset_rows(row_base);
        row_base = p.max_row().map(|r| r.saturating_add(1)).unwrap_or(row_base);
        match &mut linked {
            Some(chain) => chain.append_overlapped(&p),
            None => linked = Some(p),
        }
    }
    linked.unwrap_or_else(|| IsaProgram::new(channels.max(1)))
}

/// How a fusion group's heavy chain is priced, as [`price_fused_chain`]
/// composes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedChainTime {
    /// The members run back to back, one epoch each: the sum of their
    /// standalone (fused-role) times, µs.
    pub back_to_back_us: f64,
    /// The committed chain time: `min(back_to_back_us, overlapped)`, where
    /// `overlapped` runs the members overlap-linked in one epoch, µs.
    pub chain_us: f64,
    /// Member time the committed composition hides:
    /// `back_to_back_us - chain_us`, zero when back to back wins, µs.
    pub hidden_us: f64,
    /// Factor that maps each member's standalone time to its share of the
    /// chain: `chain_us / back_to_back_us` when overlap pays, else 1.
    pub scale: f64,
}

/// Prices a fusion group's heavy chain: the cheaper of running `members`
/// back to back (the sum of `member_us` over them, taken in member order)
/// and overlap-linked in one epoch ([`generate_group_program_overlapped`],
/// streamed rather than compiled), where a consumer's staging tail hides
/// under the producer's MAC/drain tail. This is the one place the
/// composition is decided: the search's group pricing and the engine's
/// overlap credit both read it. `member_us` supplies each member's
/// standalone time, so each caller keeps its own memo.
///
/// Overlap is not structurally never worse (a continuous run can cross
/// refresh windows that per-epoch engine resets avoid), hence the `min`,
/// which keeps the fused candidate space a superset of the back-to-back
/// one. A chain of fewer than two members has nothing to overlap. Members
/// are scheduled at COMP granularity, as the engine runs them.
///
/// # Panics
///
/// Panics if `channels == 0` and `members` has two or more entries.
pub fn price_fused_chain(
    members: &[(PimWorkload, FusedRole)],
    cfg: &PimConfig,
    channels: usize,
    mut member_us: impl FnMut(PimWorkload, FusedRole) -> f64,
) -> FusedChainTime {
    let mut back_to_back_us = 0.0f64;
    for &(w, role) in members {
        back_to_back_us += member_us(w, role);
    }
    let chain_us = if members.len() < 2 {
        back_to_back_us
    } else {
        let (stats, _) =
            execute_group_overlapped(members, cfg, channels, ScheduleGranularity::Comp);
        back_to_back_us.min(cfg.cycles_to_ns(stats.cycles) * 1e-3)
    };
    FusedChainTime {
        back_to_back_us,
        chain_us,
        hidden_us: back_to_back_us - chain_us,
        scale: if chain_us < back_to_back_us {
            chain_us / back_to_back_us
        } else {
            1.0
        },
    }
}

/// One member's share of a streamed group: its LPT assignment, and for
/// each unit the first unit of its shape (equal to it but for
/// `row_base`).
struct Assigned {
    assignment: Assignment,
    shape: Vec<usize>,
}

impl Assigned {
    fn new(assignment: Assignment) -> Self {
        let units = &assignment.units;
        let rowless = |u: usize| CommandBlock {
            row_base: 0,
            ..units[u]
        };
        let mut shapes: Vec<usize> = Vec::new();
        let shape = (0..units.len())
            .map(
                |u| match shapes.iter().find(|&&s| rowless(s) == rowless(u)) {
                    Some(&s) => s,
                    None => {
                        shapes.push(u);
                        u
                    }
                },
            )
            .collect();
        Assigned { assignment, shape }
    }
}

/// One step of a channel's stream in row-canonical form: `repeat`
/// back-to-back copies of member `member`'s unit `shape`, its filter rows
/// renamed to start at `row_base`. Steps order by member, shape, rows and
/// then length, so runs of one unit sort shortest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Step {
    member: usize,
    shape: usize,
    row_base: u32,
    repeat: usize,
}

impl Step {
    /// What the step runs, regardless of how many copies.
    fn unit(&self) -> (usize, usize, u32) {
        (self.member, self.shape, self.row_base)
    }
}

/// Channels `order[lo..hi]` of the walk in [`execute_group_overlapped`], which
/// share their stream up to copy `done` of step `step`.
#[derive(Debug, Clone, Copy)]
struct Group {
    lo: usize,
    hi: usize,
    step: usize,
    done: usize,
}

/// The Newton pricer behind [`execute_workload`] and
/// [`price_fused_chain`]: simulates `members` — lowered under
/// their roles and overlap-linked as [`generate_group_program_overlapped`]
/// compiles them; a single `Standalone` member is [`generate_program`] —
/// straight from the block schedule. Returns the merged statistics and
/// each channel's own statistics, in channel order, equal to interpreting
/// the compiled program bit for bit.
///
/// A channel's command stream is its sequence of unit runs, member after
/// member, and a healthy channel engine is a pure function of the config
/// and the stream. It reads filter rows only by equality with the open
/// row and by offsets within a period, and the units of a schedule have
/// equal or disjoint row ranges (column stripes partition a block's rows;
/// reduction parts and a layer's blocks share them; each member's rows
/// lie past its predecessors'). So each channel's stream is put in
/// row-canonical form, every `(member, row_base)` renamed to the next
/// free rows in first-use order, which keeps each G_ACT's hit or miss
/// and hence every statistic. Column stripes dealt one to a channel then
/// read alike, and only a few distinct streams remain.
///
/// The walk sorts the channels by canonical stream, so channels sharing
/// a prefix are adjacent, and simulates each distinct prefix once: a
/// group of channels moves together while its next unit agrees, takes
/// as many copies as all of its channels still have
/// ([`ChannelEngine::run_blocks`], which fast-forwards steady-state
/// periods), and clones the engine only where the streams branch.
/// [`ChannelStats`] is all-integer, so folding the per-channel results in
/// channel order reproduces interpreting the compiled program exactly.
///
/// # Panics
///
/// Panics if `channels == 0`.
pub fn execute_group_overlapped(
    members: &[(PimWorkload, FusedRole)],
    cfg: &PimConfig,
    channels: usize,
    granularity: ScheduleGranularity,
) -> (ChannelStats, Vec<ChannelStats>) {
    let assigned: Vec<Assigned> = members
        .iter()
        .map(|(w, _)| {
            let blocks = generate_block_runs(w, cfg);
            let assignment = assign(&blocks, channels, granularity, cfg);
            Assigned::new(assignment)
        })
        .collect();
    // Every channel's canonical stream, channel after channel.
    let runs =
        (0..channels).flat_map(|ch| assigned.iter().map(move |a| a.assignment.runs(ch).len()));
    let mut steps: Vec<Step> = Vec::with_capacity(runs.sum());
    let mut ends: Vec<usize> = Vec::with_capacity(channels);
    // `(member, row_base, gacts, canonical row_base)` on the current channel.
    let mut renamed: Vec<(usize, u32, u32, u32)> = Vec::new();
    for ch in 0..channels {
        renamed.clear();
        let mut free = 0u32;
        for (member, a) in assigned.iter().enumerate() {
            for &(u, repeat) in a.assignment.runs(ch) {
                let unit = a.assignment.units[u];
                let row_base = match renamed
                    .iter()
                    .find(|r| (r.0, r.1) == (member, unit.row_base))
                {
                    Some(&(_, _, gacts, base)) => {
                        debug_assert_eq!(
                            gacts, unit.gacts,
                            "units sharing a row base share its rows"
                        );
                        base
                    }
                    None => {
                        let base = free;
                        free += unit.gacts;
                        renamed.push((member, unit.row_base, unit.gacts, base));
                        base
                    }
                };
                steps.push(Step {
                    member,
                    shape: a.shape[u],
                    row_base,
                    repeat,
                });
            }
        }
        ends.push(steps.len());
    }
    let stream = |ch: usize| &steps[if ch == 0 { 0 } else { ends[ch - 1] }..ends[ch]];
    let mut order: Vec<usize> = (0..channels).collect();
    order.sort_unstable_by(|&a, &b| stream(a).cmp(stream(b)));
    let step_of = |i: usize, step: usize| stream(order[i])[step];

    let mut per_channel = vec![ChannelStats::default(); channels];
    let start = Group {
        lo: 0,
        hi: channels,
        step: 0,
        done: 0,
    };
    let mut pending = vec![(ChannelEngine::new(*cfg), start)];
    while let Some((mut engine, mut g)) = pending.pop() {
        loop {
            // Streams ending here sort first and finish with this engine.
            let ended = (g.lo..g.hi)
                .take_while(|&i| stream(order[i]).len() == g.step)
                .count();
            if ended == g.hi - g.lo {
                let stats = engine.finish();
                for &ch in &order[g.lo..g.hi] {
                    per_channel[ch] = stats;
                }
                break;
            }
            if ended > 0 {
                let stats = engine.clone().finish();
                for &ch in &order[g.lo..g.lo + ended] {
                    per_channel[ch] = stats;
                }
                g.lo += ended;
            }
            // Channels whose next unit differs sort after the lead's and
            // branch off with a clone.
            let lead = step_of(g.lo, g.step);
            let same = g.lo
                + (g.lo..g.hi)
                    .take_while(|&i| step_of(i, g.step).unit() == lead.unit())
                    .count();
            if same < g.hi {
                pending.push((engine.clone(), Group { lo: same, ..g }));
            }
            // Runs of the lead's unit sort by length: the lead's is the
            // shortest, and the channels whose run goes on branch off.
            let role = members[lead.member].1;
            let block = CommandBlock {
                row_base: lead.row_base,
                ..assigned[lead.member].assignment.units[lead.shape]
            };
            engine.run_blocks(&block, (lead.repeat - g.done) as u64, |inst| {
                role.rewrite(inst)
            });
            let through = g.lo
                + (g.lo..same)
                    .take_while(|&i| step_of(i, g.step).repeat == lead.repeat)
                    .count();
            if through < same {
                let going_on = Group {
                    lo: through,
                    hi: same,
                    done: lead.repeat,
                    ..g
                };
                pending.push((engine.clone(), going_on));
            }
            g = Group {
                lo: g.lo,
                hi: through,
                step: g.step + 1,
                done: 0,
            };
        }
    }
    let merged = per_channel
        .iter()
        .fold(ChannelStats::default(), |acc, s| acc.merge_parallel(s));
    (merged, per_channel)
}

/// Result of executing a PIM workload on the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimExecution {
    /// Wall-clock time in microseconds (slowest channel).
    pub time_us: f64,
    /// Merged channel statistics.
    pub stats: ChannelStats,
    /// Energy in microjoules.
    pub energy_uj: f64,
}

/// Compiles and executes a workload lowered for fusion-group role `role`
/// (see [`generate_fused_program`]; `Standalone` is the unfused lowering)
/// on `channels` PIM channels, returning timing and energy plus each
/// channel's own statistics (index = channel), for per-channel utilization
/// accounting. The statistics equal interpreting the generated program
/// bit for bit.
///
/// # Panics
///
/// Panics if `channels == 0`.
pub fn execute_workload(
    w: &PimWorkload,
    cfg: &PimConfig,
    channels: usize,
    granularity: ScheduleGranularity,
    role: FusedRole,
) -> (PimExecution, Vec<ChannelStats>) {
    let (stats, per_channel) = execute_group_overlapped(&[(*w, role)], cfg, channels, granularity);
    let energy_uj = pim_energy_nj(&stats, cfg, &PimEnergyParams::default(), channels) * 1e-3;
    let exec = PimExecution {
        time_us: cfg.cycles_to_ns(stats.cycles) * 1e-3,
        stats,
        energy_uj,
    };
    (exec, per_channel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodecost::{gpu_kernel_us, kernel_us};
    use pimflow_gpusim::GpuConfig;
    use pimflow_ir::Hw;

    /// The unfused lowering's execution at command granularity.
    fn exec(w: &PimWorkload, cfg: &PimConfig, channels: usize) -> PimExecution {
        execute_workload(
            w,
            cfg,
            channels,
            ScheduleGranularity::Comp,
            FusedRole::Standalone,
        )
        .0
    }

    fn pointwise(rows_side: usize, ic: usize, oc: usize) -> PimWorkload {
        PimWorkload::from_conv(
            &Shape::nhwc(1, rows_side, rows_side, ic),
            &Conv2dAttrs::pointwise(oc),
        )
    }

    #[test]
    fn block_generation_covers_all_rows() {
        let w = pointwise(14, 64, 128);
        let cfg = PimConfig::default();
        let blocks = generate_blocks(&w, &cfg);
        let rows: usize = blocks.iter().map(|b| b.buffer_rows as usize).sum();
        assert_eq!(rows, 14 * 14);
    }

    #[test]
    fn comp_count_covers_all_macs() {
        // Every MAC must be backed by COMP capacity: comps * 256 >= macs,
        // with padding waste bounded by the column-I/O rounding.
        let w = pointwise(14, 64, 128);
        let cfg = PimConfig::default();
        let blocks = generate_blocks(&w, &cfg);
        let comps: u64 = blocks.iter().map(|b| b.total_comps()).sum();
        let capacity = comps * cfg.macs_per_comp() as u64;
        assert!(
            capacity >= w.macs(),
            "capacity {capacity} < macs {}",
            w.macs()
        );
        assert!(capacity < w.macs() * 4, "excessive padding waste");
    }

    #[test]
    fn fc_layer_is_an_order_of_magnitude_faster_on_pim_than_gpu() {
        // The headline Newton result (§2.1): memory-bound FC layers gain
        // ~10-20x on PIM. VGG-16's fc6: 25088 -> 4096, batch 1, 16 PIM
        // channels vs a 32-channel GPU.
        let w = PimWorkload::from_dense(1, 25088, 4096);
        let pim = exec(&w, &PimConfig::default(), 16);
        let gpu_cfg = GpuConfig::rtx2060_like();
        let p = pimflow_gpusim::KernelProfile::matvec(4096, 25088, 1);
        let gpu_us = kernel_us(&p, &gpu_cfg, 32);
        let speedup = gpu_us / pim.time_us;
        assert!(
            (5.0..40.0).contains(&speedup),
            "PIM {:.1}us vs GPU {gpu_us:.1}us (speedup {speedup:.1})",
            pim.time_us
        );
    }

    #[test]
    fn newton_pp_beats_newton_p() {
        // The PIM-command optimizations must help (Fig. 14: ~22% combined).
        let w = pointwise(28, 96, 576);
        let npp = exec(&w, &PimConfig::newton_plus_plus(), 16);
        let np = exec(&w, &PimConfig::newton_plus(), 16);
        assert!(
            npp.time_us < np.time_us,
            "Newton++ {:.1}us vs Newton+ {:.1}us",
            npp.time_us,
            np.time_us
        );
    }

    #[test]
    fn strided_conv_pays_more_gwrites_without_extension() {
        let attrs = Conv2dAttrs {
            out_channels: 64,
            kernel: Hw::square(3),
            stride: Hw::square(1),
            padding: Hw::square(1),
            groups: 1,
        };
        let w = PimWorkload::from_conv(&Shape::nhwc(1, 28, 28, 64), &attrs);
        let mut no_ext = PimConfig::newton_plus_plus();
        no_ext.strided_gwrite = false;
        let blocks_ext = generate_blocks(&w, &PimConfig::newton_plus_plus());
        let blocks_no = generate_blocks(&w, &no_ext);
        assert_eq!(blocks_ext[0].gwrites_per_row, 1);
        assert_eq!(blocks_no[0].gwrites_per_row, 9);
    }

    #[test]
    fn pim_time_scales_down_with_channels() {
        let w = pointwise(28, 96, 576);
        let cfg = PimConfig::default();
        let t4 = exec(&w, &cfg, 4).time_us;
        let t16 = exec(&w, &cfg, 16).time_us;
        assert!(t16 < t4 / 2.0, "4ch {t4:.1}us vs 16ch {t16:.1}us");
    }

    #[test]
    fn big_dense_conv_favors_gpu() {
        // A VGG-style 3x3x512 conv: the GPU should win clearly (§3 obs. 2 /
        // Fig. 9: ResNet/VGG conv layers gain less from PIM).
        let attrs = Conv2dAttrs {
            out_channels: 512,
            kernel: Hw::square(3),
            stride: Hw::square(1),
            padding: Hw::square(1),
            groups: 1,
        };
        let shape = Shape::nhwc(1, 28, 28, 512);
        let w = PimWorkload::from_conv(&shape, &attrs);
        let pim = exec(&w, &PimConfig::default(), 16);

        let mut b = pimflow_ir::GraphBuilder::new("t");
        let x = b.input(shape);
        let y = b.conv(x, 512, 3, 1, 1);
        let g = b.finish(y);
        let id = g
            .node_ids()
            .find(|&i| matches!(g.node(i).op, Op::Conv2d(_)))
            .unwrap();
        let gpu = gpu_kernel_us(&g, id, 1.0, &GpuConfig::rtx2060_like(), 32);
        assert!(
            gpu < pim.time_us,
            "GPU {gpu:.1}us should beat PIM {:.1}us on dense conv",
            pim.time_us
        );
    }

    #[test]
    fn pointwise_conv_is_contested() {
        // Mid-network 1x1 conv: PIM and GPU within ~3x of each other
        // (the MD-DP split opportunity, §3 obs. 2).
        let shape = Shape::nhwc(1, 14, 14, 256);
        let w = PimWorkload::from_conv(&shape, &Conv2dAttrs::pointwise(1024));
        let pim = exec(&w, &PimConfig::default(), 16);

        let mut b = pimflow_ir::GraphBuilder::new("t");
        let x = b.input(shape);
        let y = b.conv1x1(x, 1024);
        let g = b.finish(y);
        let id = g
            .node_ids()
            .find(|&i| matches!(g.node(i).op, Op::Conv2d(_)))
            .unwrap();
        let gpu = gpu_kernel_us(&g, id, 1.0, &GpuConfig::rtx2060_like(), 16);
        let ratio = gpu / pim.time_us;
        assert!(
            (1.0 / 3.5..3.5).contains(&ratio),
            "GPU {gpu:.1}us vs PIM {:.1}us (ratio {ratio:.2})",
            pim.time_us
        );
    }

    #[test]
    fn overlapped_group_program_is_one_epoch_with_disjoint_rows() {
        let cfg = PimConfig::newton_plus_plus();
        let members = [
            (pointwise(14, 64, 96), FusedRole::Head),
            (pointwise(14, 96, 64), FusedRole::Tail),
        ];
        let p = generate_group_program_overlapped(&members, &cfg, 4, ScheduleGranularity::Comp);
        // Relaxed separators only: the whole group interprets as one
        // continuous epoch per channel.
        assert_eq!(p.epochs().unwrap().len(), 1);
        // The tail's activations were offset past the head's, so the
        // carried row state never aliases across members.
        let head = generate_fused_program(
            &members[0].0,
            &cfg,
            4,
            ScheduleGranularity::Comp,
            FusedRole::Head,
        );
        let head_max = head.max_row().unwrap();
        assert!(p.max_row().unwrap() > head_max);
        let run = || execute_group_overlapped(&members, &cfg, 4, ScheduleGranularity::Comp);
        let t = run();
        assert!(t.0.cycles > 0);
        assert_eq!(t, run(), "bitwise reproducible");
    }

    /// Over every fusion candidate of four zoo models, the committed chain
    /// time is exactly `min(back_to_back, overlapped)` and never above
    /// back-to-back, the member times are summed in member order, and the
    /// credit the engine applies follows from the two.
    #[test]
    fn fused_chain_pricing_takes_the_overlap_min_on_zoo_groups() {
        use crate::engine::EngineConfig;
        use crate::passes::find_fusion_groups;
        use pimflow_ir::{infer_shapes, models};
        let cfg = EngineConfig::pimflow();
        let (pim, channels) = (cfg.pim, cfg.effective_pim_channels());
        let granularity = ScheduleGranularity::Comp;
        let mut resnet = models::resnet50();
        for v in resnet.inputs().to_vec() {
            if let Some(desc) = resnet.value_mut(v).desc.as_mut() {
                desc.shape = desc.shape.with_dim(1, 112).with_dim(2, 112);
            }
        }
        infer_shapes(&mut resnet).unwrap();
        let graphs = [
            models::toy(),
            models::mobilenet_v2(),
            resnet,
            models::bert_like(3),
        ];
        let (mut groups, mut overlap_paid) = (0, 0);
        for g in &graphs {
            for group in find_fusion_groups(g) {
                let last = group.heavy.len() - 1;
                let members: Vec<(PimWorkload, FusedRole)> = group
                    .heavy
                    .iter()
                    .enumerate()
                    .map(|(k, &id)| {
                        let role = match k {
                            0 => FusedRole::Head,
                            k if k == last => FusedRole::Tail,
                            _ => FusedRole::Middle,
                        };
                        (PimWorkload::from_node(g, id), role)
                    })
                    .collect();
                let times: Vec<f64> = members
                    .iter()
                    .map(|(w, role)| {
                        execute_workload(w, &pim, channels, granularity, *role)
                            .0
                            .time_us
                    })
                    .collect();
                let back_to_back = times.iter().fold(0.0, |sum, t| sum + t);
                let (stats, _) = execute_group_overlapped(&members, &pim, channels, granularity);
                let overlapped = pim.cycles_to_ns(stats.cycles) * 1e-3;
                let mut member_times = members.iter().zip(&times);
                let priced = price_fused_chain(&members, &pim, channels, |w, role| {
                    let (&(want_w, want_role), &t) = member_times.next().unwrap();
                    assert_eq!((w, role), (want_w, want_role), "members in chain order");
                    t
                });
                assert!(member_times.next().is_none(), "every member priced once");
                let at = format!("{}: {members:?}", g.name);
                assert_eq!(
                    priced.back_to_back_us.to_bits(),
                    back_to_back.to_bits(),
                    "{at}"
                );
                assert_eq!(
                    priced.chain_us.to_bits(),
                    back_to_back.min(overlapped).to_bits(),
                    "{at}"
                );
                assert!(priced.chain_us <= priced.back_to_back_us, "{at}");
                assert_eq!(priced.hidden_us, priced.back_to_back_us - priced.chain_us);
                if priced.hidden_us > 0.0 {
                    overlap_paid += 1;
                    assert_eq!(priced.scale, priced.chain_us / priced.back_to_back_us);
                } else {
                    assert_eq!(priced.scale, 1.0);
                }
                groups += 1;
            }
        }
        assert!(groups > 0 && overlap_paid > 0, "{overlap_paid} of {groups}");
    }

    #[test]
    fn empty_workload_generates_nothing() {
        let w = PimWorkload {
            rows: 0,
            k_elems: 16,
            out_channels: 16,
            strided: false,
            segments: 1,
        };
        assert!(generate_blocks(&w, &PimConfig::default()).is_empty());
    }
}
