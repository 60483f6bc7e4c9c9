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
//! straight into the channel timing engine, simulating each shared
//! channel-stream prefix once and fast-forwarding steady-state command
//! periods; their statistics are bit-identical to interpreting the
//! compiled program (`tests/pricer.rs` holds that contract).

use pimflow_gpusim::GpuConfig;
use pimflow_ir::{Conv2dAttrs, Graph, NodeId, Op, Shape};
use pimflow_isa::{FusedRole, IsaProgram, PimInst};
use pimflow_kernels::lowered_dims;
use pimflow_pimsim::{
    assign, lift_command, lift_traces, pim_energy_nj, schedule, ChannelEngine, ChannelStats,
    CommandBlock, NewtonInterpreter, PimCommand, PimConfig, PimEnergyParams, RunOptions,
    ScheduleGranularity, UnitRuns,
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
/// blocks, schedule them over `channels` channels, and lift the scheduled
/// traces into `pimflow-isa` form. This is the artifact the PIM backend
/// carries — interpreting it under [`NewtonInterpreter`] reproduces the
/// legacy trace timing bit-exactly (lift and lower are exact inverses).
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
    let blocks = generate_blocks(w, cfg);
    let traces = schedule(&blocks, channels, granularity, cfg, &RunOptions::new());
    lift_traces(&traces)
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

/// Prices a fusion group as one overlap-linked program (see
/// [`generate_group_program_overlapped`]), returning the chain's
/// wall-clock microseconds on the Newton model. The schedule is streamed
/// into the timing engine rather than compiled; the cycles equal those of
/// interpreting the compiled program bit for bit.
///
/// # Panics
///
/// Panics if `channels == 0`.
pub fn execute_group_overlapped_us(
    members: &[(PimWorkload, FusedRole)],
    cfg: &PimConfig,
    channels: usize,
    granularity: ScheduleGranularity,
) -> f64 {
    let (stats, _) = stream_members(members, cfg, channels, granularity);
    cfg.cycles_to_ns(stats.cycles) * 1e-3
}

/// One member's share of a streamed group: its LPT assignment, its role,
/// and the row offset its overlap link applies.
struct StreamedMember {
    units: Vec<CommandBlock>,
    runs: Vec<UnitRuns>,
    role: FusedRole,
    row_offset: u32,
}

impl StreamedMember {
    /// The member's command for unit command `cmd`: the role's bus
    /// elisions applied through the ISA rewrite, then the row offset.
    fn lower(&self, cmd: PimCommand) -> PimCommand {
        let inst = match self.role.rewrite(lift_command(cmd)) {
            PimInst::RowActivate { row } => PimInst::RowActivate {
                row: row.saturating_add(self.row_offset),
            },
            other => other,
        };
        NewtonInterpreter::lower_inst(&inst).expect("block commands lower to commands")
    }
}

/// Where a channel's stream stands: at copy `done` of its `step`-th run.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    channel: usize,
    step: usize,
    done: usize,
}

/// The Newton pricer: simulates `members` — lowered under their roles and
/// overlap-linked as [`generate_group_program_overlapped`] compiles them;
/// a single `Standalone` member is [`generate_program`] — straight from
/// the block schedule. Returns the merged statistics and each channel's
/// own statistics, in channel order.
///
/// A channel's command stream is its sequence of unit runs, member after
/// member, and a healthy channel engine is a pure function of the config
/// and the stream. Channel streams share prefixes — round robin deals each
/// channel `body^(q+1)`, `body^q` or `body^q·tail` — so the walk simulates
/// every shared prefix once: channels move together while their next
/// unit agrees, take as many copies as all of them still have
/// ([`ChannelEngine::run_blocks`], which fast-forwards steady-state
/// periods), and the engine is cloned where their streams branch.
/// [`ChannelStats`] is all-integer, so folding the per-channel results in
/// channel order reproduces interpreting the compiled program exactly.
fn stream_members(
    members: &[(PimWorkload, FusedRole)],
    cfg: &PimConfig,
    channels: usize,
    granularity: ScheduleGranularity,
) -> (ChannelStats, Vec<ChannelStats>) {
    let mut row_base = 0u32;
    let streamed: Vec<StreamedMember> = members
        .iter()
        .map(|(w, role)| {
            let blocks = generate_block_runs(w, cfg);
            let (units, runs) = assign(&blocks, channels, granularity, cfg, &RunOptions::new());
            let row_offset = row_base;
            // Each member's rows start past its predecessors' (the
            // `offset_rows` step of the overlap-linked compilation).
            if let Some(max) = units.iter().filter_map(CommandBlock::max_row).max() {
                row_base = max.saturating_add(row_offset).saturating_add(1);
            }
            StreamedMember {
                units,
                runs,
                role: *role,
                row_offset,
            }
        })
        .collect();
    // Each channel's stream as `(member, unit, repeat)` steps.
    let streams: Vec<Vec<(usize, usize, usize)>> = (0..channels)
        .map(|ch| {
            streamed
                .iter()
                .enumerate()
                .flat_map(|(m, member)| member.runs[ch].iter().map(move |&(u, n)| (m, u, n)))
                .collect()
        })
        .collect();
    let next = |c: &Cursor| {
        let (m, u, _) = streams[c.channel][c.step];
        (m, streamed[m].units[u])
    };
    let mut per_channel = vec![ChannelStats::default(); channels];
    let start: Vec<Cursor> = (0..channels)
        .map(|channel| Cursor {
            channel,
            step: 0,
            done: 0,
        })
        .collect();
    let mut pending = vec![(ChannelEngine::new(*cfg), start)];
    while let Some((mut engine, mut group)) = pending.pop() {
        loop {
            // Channels whose streams end here finish with this engine.
            let (ended, live): (Vec<Cursor>, Vec<Cursor>) = group
                .into_iter()
                .partition(|c| c.step == streams[c.channel].len());
            if let Some(first) = ended.first() {
                per_channel[first.channel] = engine.clone().finish();
                for c in &ended[1..] {
                    per_channel[c.channel] = per_channel[first.channel];
                }
            }
            let Some(lead) = live.first() else { break };
            // Channels whose next unit differs branch off with a clone.
            let key = next(lead);
            let (same, other): (Vec<Cursor>, Vec<Cursor>) =
                live.into_iter().partition(|c| next(c) == key);
            if !other.is_empty() {
                pending.push((engine.clone(), other));
            }
            let copies = same
                .iter()
                .map(|c| streams[c.channel][c.step].2 - c.done)
                .min()
                .expect("a live channel");
            let member = &streamed[key.0];
            engine.run_blocks(&key.1, copies as u64, |cmd| member.lower(cmd));
            group = same;
            for c in &mut group {
                c.done += copies;
                if c.done == streams[c.channel][c.step].2 {
                    c.step += 1;
                    c.done = 0;
                }
            }
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
    let (stats, per_channel) = stream_members(&[(*w, role)], cfg, channels, granularity);
    let energy_uj = pim_energy_nj(&stats, cfg, &PimEnergyParams::default(), channels) * 1e-3;
    let exec = PimExecution {
        time_us: cfg.cycles_to_ns(stats.cycles) * 1e-3,
        stats,
        energy_uj,
    };
    (exec, per_channel)
}

/// Convenience: GPU execution time of graph node `id` (standalone launch) in
/// microseconds with `channels` memory channels.
pub fn gpu_node_time_us(graph: &Graph, id: NodeId, cfg: &GpuConfig, channels: usize) -> f64 {
    let p = pimflow_gpusim::kernel_for_node(graph, id);
    pimflow_gpusim::kernel_time_with_launch_us(&p, cfg, channels)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let gpu_us = pimflow_gpusim::kernel_time_with_launch_us(&p, &gpu_cfg, 32);
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
        let gpu = gpu_node_time_us(&g, id, &GpuConfig::rtx2060_like(), 32);
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
        let gpu = gpu_node_time_us(&g, id, &GpuConfig::rtx2060_like(), 16);
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
        let t = execute_group_overlapped_us(&members, &cfg, 4, ScheduleGranularity::Comp);
        assert!(t > 0.0);
        assert_eq!(
            t.to_bits(),
            execute_group_overlapped_us(&members, &cfg, 4, ScheduleGranularity::Comp).to_bits(),
            "bitwise reproducible"
        );
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
