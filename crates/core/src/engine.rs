//! Mixed-parallel execution engine (§4.2, §4.3.1).
//!
//! Simulates a transformed graph on the PIM-enabled GPU memory system: GPU
//! kernels and PIM kernels run on two parallel streams, nodes start when
//! their data dependencies and their device are free, and data crossing the
//! GPU/PIM channel boundary pays the memory-network transfer (Fig. 4). The
//! overlap the MD-DP and pipelining transformations create — independent
//! GPU- and PIM-placed nodes — turns into wall-clock overlap here.
//!
//! GPU-side fusion: BN / activation / element-wise nodes directly consuming
//! a GPU convolution or GEMM are epilogue-fused (no launch, no extra DRAM
//! round-trip), matching the cuDNN/CUTLASS mappings the artifact relies on.

use crate::codegen::{execute_group_overlapped_us, execute_workload, PimWorkload};
use crate::costcache::CacheCounters;
use crate::error::Result;
use crate::memopt::{data_move_bytes, is_data_move};
use crate::placement::{isa_role, FusedNodeRole, FusionTag, Placement};
use pimflow_gpusim::{kernel_for_node, GpuConfig};
use pimflow_ir::{ActivationKind, Graph, Op, ValueId};
use pimflow_isa::FusedRole;
use pimflow_json::json_struct;
use pimflow_pimsim::{ChannelStats, PimConfig, PimEnergyParams, ScheduleGranularity};
use std::collections::{BTreeMap, HashMap};

/// Availability mask over the PIM channels: bit `c` set means channel `c`
/// is up. The default mask reports every channel available; masks only
/// matter for the first `pim_channels` bits of a configuration.
///
/// The mask is the compiler-level view of the fault model: hard-failed
/// channels are cleared (the search and the engine route no work there),
/// while stalled or derated channels stay set — they are slow, not gone.
/// `ChannelMask::from_bits(plan.availability_mask(total))` is the mask a
/// simulator-level [`pimflow_pimsim::FaultPlan`] implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelMask(u64);

impl Default for ChannelMask {
    fn default() -> Self {
        ChannelMask::all()
    }
}

impl ChannelMask {
    /// Every channel available.
    pub fn all() -> Self {
        ChannelMask(u64::MAX)
    }

    /// A mask from raw bits (bit `c` = channel `c` up).
    pub fn from_bits(bits: u64) -> Self {
        ChannelMask(bits)
    }

    /// Raw bit representation.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Whether channel `c` is up (channels ≥ 64 are always reported up).
    pub fn is_up(self, c: usize) -> bool {
        c >= 64 || self.0 & (1 << c) != 0
    }

    /// This mask with channel `c` marked down.
    pub fn without(self, c: usize) -> Self {
        if c >= 64 {
            self
        } else {
            ChannelMask(self.0 & !(1 << c))
        }
    }

    /// This mask with channel `c` marked up again.
    pub fn with(self, c: usize) -> Self {
        if c >= 64 {
            self
        } else {
            ChannelMask(self.0 | (1 << c))
        }
    }

    /// Number of available channels among the first `total`.
    pub fn count_up(self, total: usize) -> usize {
        (0..total).filter(|&c| self.is_up(c)).count()
    }
}

/// Full system configuration for one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// GPU model.
    pub gpu: GpuConfig,
    /// DRAM-PIM model (command set + timing).
    pub pim: PimConfig,
    /// Memory channels serving the GPU.
    pub gpu_channels: usize,
    /// PIM-enabled memory channels (0 = plain GPU memory).
    pub pim_channels: usize,
    /// Which of the `pim_channels` channels are currently available.
    /// Defaults to all; clear bits to model hard channel failures.
    pub pim_channel_mask: ChannelMask,
    /// PIM command scheduling granularity.
    pub granularity: ScheduleGranularity,
    /// Whether the memory layout optimizer (§4.3.2) is active.
    pub memopt: bool,
    /// Fixed latency per cross-boundary transfer, microseconds.
    pub transfer_latency_us: f64,
}

impl EngineConfig {
    /// The paper's GPU baseline: all 32 channels serve the GPU, no PIM.
    pub fn baseline_gpu() -> Self {
        EngineConfig {
            gpu: GpuConfig::rtx2060_like(),
            pim: PimConfig::newton_plus_plus(),
            gpu_channels: 32,
            pim_channels: 0,
            pim_channel_mask: ChannelMask::all(),
            granularity: ScheduleGranularity::Comp,
            memopt: true,
            transfer_latency_us: 0.3,
        }
    }

    /// The PIMFlow configuration: 16 GPU + 16 PIM channels (the sweet spot
    /// of Fig. 13), Newton++ command set, memory optimizer on.
    pub fn pimflow() -> Self {
        EngineConfig {
            gpu_channels: 16,
            pim_channels: 16,
            ..EngineConfig::baseline_gpu()
        }
    }

    /// Newton+ hardware: original command set (1 buffer, no strided GWRITE,
    /// no latency hiding) on the same 16/16 channel split.
    pub fn newton_plus() -> Self {
        EngineConfig {
            pim: PimConfig::newton_plus(),
            ..EngineConfig::pimflow()
        }
    }

    /// This configuration restricted to the channels `mask` reports up.
    pub fn with_mask(&self, mask: ChannelMask) -> Self {
        EngineConfig {
            pim_channel_mask: mask,
            ..self.clone()
        }
    }

    /// PIM channels that are both configured and currently available.
    pub fn effective_pim_channels(&self) -> usize {
        self.pim_channel_mask.count_up(self.pim_channels)
    }

    /// Indices of the available PIM channels, ascending.
    pub fn available_pim_channels(&self) -> Vec<usize> {
        (0..self.pim_channels)
            .filter(|&c| self.pim_channel_mask.is_up(c))
            .collect()
    }
}

/// Inter-channel memory-network bandwidth, GB/s (§4.1 "memory networks"
/// between GPU and PIM channels). The network connects all 32 channels, so
/// a tensor striped over the PIM channels drains over many links at once.
pub const LINK_GBPS: f64 = 256.0;

/// Where a node ran and for how long.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTiming {
    /// Node name.
    pub name: String,
    /// Device the node executed on.
    pub device: Placement,
    /// Start time, microseconds.
    pub start_us: f64,
    /// Finish time, microseconds.
    pub finish_us: f64,
    /// True if the node was epilogue-fused (zero-latency).
    pub fused: bool,
}

/// Component-wise energy breakdown of one execution, microjoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// GPU dynamic energy (FLOPs + DRAM traffic of GPU kernels).
    pub gpu_dynamic_uj: f64,
    /// PIM dynamic energy (activations, COMPs, channel I/O).
    pub pim_dynamic_uj: f64,
    /// Memory-network transfer energy for cross-boundary movement.
    pub transfer_uj: f64,
    /// Static/leakage energy over the makespan.
    pub static_uj: f64,
}

impl EnergyBreakdown {
    /// Total energy in microjoules.
    pub fn total_uj(&self) -> f64 {
        self.gpu_dynamic_uj + self.pim_dynamic_uj + self.transfer_uj + self.static_uj
    }
}

/// Result of simulating one inference.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// End-to-end latency, microseconds.
    pub total_us: f64,
    /// Total energy, microjoules.
    pub energy_uj: f64,
    /// Component-wise energy breakdown (sums to `energy_uj`).
    pub energy_breakdown: EnergyBreakdown,
    /// Cycles the GPU stream was busy.
    pub gpu_busy_us: f64,
    /// Cycles the PIM stream was busy.
    pub pim_busy_us: f64,
    /// Bytes moved across the GPU/PIM channel boundary (PIM → GPU result
    /// returns over the memory network).
    pub transfer_bytes: u64,
    /// Bytes of host-resident operands fetched into the PIM channels
    /// (GPU → PIM, the GWRITE payloads). Together with `transfer_bytes`
    /// this is the total host↔PIM traffic of the execution — the metric
    /// fusion groups exist to shrink.
    pub host_to_pim_bytes: u64,
    /// MAC-pipeline busy time of each PIM channel, microseconds (length
    /// `cfg.pim_channels`; empty when no PIM channels are configured).
    pub pim_channel_busy_us: Vec<f64>,
    /// Hit/miss/entry counters of the engine's per-execution PIM workload
    /// memo: repeated blocks (identical [`PimWorkload`]s) are simulated once
    /// and every further occurrence is a hit. This memo is local to one
    /// `execute` call — unlike the search-side [`crate::costcache::CostCache`]
    /// it also carries per-channel stats, so it is not shared across runs.
    pub cost_cache: CacheCounters,
    /// One entry per fusion group present in the graph (ordered by group
    /// id): how many nodes ride in it and how much member time the
    /// overlapped single-epoch lowering hides versus back-to-back epochs.
    pub fused_groups: Vec<FusedGroupStat>,
    /// Per-node timeline in execution order.
    pub timings: Vec<NodeTiming>,
}

/// Per-fusion-group execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedGroupStat {
    /// Group id (the `gid` of the members' [`FusionTag`]s).
    pub gid: usize,
    /// Total member nodes in the group (heavy layers and riders).
    pub members: usize,
    /// Member time hidden by overlapping the members in one epoch:
    /// `max(0, sum of standalone member times - overlapped chain time)`.
    /// Zero when the group runs back-to-back (overlap did not pay) or no
    /// PIM channels are up.
    pub overlap_hidden_us: f64,
}

json_struct!(FusedGroupStat {
    gid,
    members,
    overlap_hidden_us
});

json_struct!(NodeTiming {
    name,
    device,
    start_us,
    finish_us,
    fused
});
json_struct!(EnergyBreakdown {
    gpu_dynamic_uj,
    pim_dynamic_uj,
    transfer_uj,
    static_uj
});
json_struct!(ExecutionReport {
    total_us,
    energy_uj,
    energy_breakdown,
    gpu_busy_us,
    pim_busy_us,
    transfer_bytes,
    host_to_pim_bytes,
    pim_channel_busy_us,
    cost_cache,
    fused_groups,
    timings,
});

impl ExecutionReport {
    /// Timing entry for `name`, if present.
    pub fn timing(&self, name: &str) -> Option<&NodeTiming> {
        self.timings.iter().find(|t| t.name == name)
    }
}

/// True for ops cuDNN/CUTLASS can fuse into a preceding conv/GEMM epilogue.
pub fn op_is_fusable(op: &Op) -> bool {
    matches!(op, Op::BatchNorm | Op::Add | Op::Mul)
        || matches!(op, Op::Activation(k) if *k != ActivationKind::Softmax)
}

fn is_heavy_compute(op: &Op) -> bool {
    matches!(op, Op::Conv2d(_) | Op::Dense(_))
}

/// Simulates `graph` under `cfg` and returns the timeline report.
///
/// Node placement follows the [`Node::placement`](pimflow_ir::Node::placement)
/// field set by the transformation passes. Nodes placed on PIM when no PIM
/// channel is configured *and available* (`cfg.effective_pim_channels() ==
/// 0`) fall back to the GPU; with a partial [`ChannelMask`] the offloaded
/// work is scheduled over the surviving channels only.
///
/// # Errors
///
/// Returns [`Error::Graph`](crate::error::Error::Graph) if the graph is
/// cyclic.
///
/// # Panics
///
/// Panics if shapes have not been inferred (an internal invariant: every
/// graph built through [`pimflow_ir::GraphBuilder`] or the passes has them).
pub fn execute(graph: &Graph, cfg: &EngineConfig) -> Result<ExecutionReport> {
    let order = graph.topo_order()?;
    let effective_channels = cfg.effective_pim_channels();
    let available = cfg.available_pim_channels();

    // Per-value readiness: time available and locations that already hold it.
    #[derive(Clone)]
    struct ValueState {
        time: f64,
        at_pim: bool,
        at_gpu: bool,
        bytes: u64,
    }
    let mut values: HashMap<ValueId, ValueState> = HashMap::new();
    for &v in graph.inputs() {
        let bytes = graph
            .value(v)
            .desc
            .as_ref()
            .map(|d| d.size_bytes() as u64)
            .unwrap_or(0);
        values.insert(
            v,
            ValueState {
                time: 0.0,
                at_pim: false,
                at_gpu: true,
                bytes,
            },
        );
    }

    let mut gpu_free = 0.0f64;
    let mut pim_free = 0.0f64;
    let mut gpu_busy = 0.0f64;
    let mut pim_busy = 0.0f64;
    let mut transfer_bytes = 0u64;
    let mut host_to_pim_bytes = 0u64;
    let mut gpu_dynamic_uj = 0.0f64;
    let mut pim_stats_total = ChannelStats::default();
    let mut timings = Vec::with_capacity(order.len());
    let mut pim_channel_busy_us = vec![0.0f64; cfg.pim_channels];
    let mut pim_memo: HashMap<(PimWorkload, FusedRole), (f64, ChannelStats, Vec<f64>)> =
        HashMap::new();
    let mut memo_hits = 0u64;
    let mut memo_misses = 0u64;
    // Device that produced each value (for fusion decisions).
    let mut produced_on_gpu_conv: HashMap<ValueId, bool> = HashMap::new();

    // Pre-scan the fusion groups: collect each group's heavy-member chain
    // and price it both back-to-back (sum of standalone member times) and
    // overlap-linked in one epoch (carried engine state, imbalance hides
    // under the neighbours' tails). The better composition wins — the
    // per-member durations below are scaled by `chain/sum` when overlap
    // pays, and never inflated when it does not.
    let mut group_members: BTreeMap<usize, usize> = BTreeMap::new();
    let mut group_chain: BTreeMap<usize, Vec<(PimWorkload, FusedRole)>> = BTreeMap::new();
    for &id in &order {
        let node = graph.node(id);
        let Some(FusionTag { gid, role }) = node.placement.fusion() else {
            continue;
        };
        *group_members.entry(gid).or_default() += 1;
        if effective_channels > 0 && is_heavy_compute(&node.op) && role != FusedNodeRole::Rider {
            group_chain
                .entry(gid)
                .or_default()
                .push((PimWorkload::from_node(graph, id), isa_role(role)));
        }
    }
    let mut overlap_scale: HashMap<usize, f64> = HashMap::new();
    let mut fused_groups = Vec::with_capacity(group_members.len());
    for (&gid, &members) in &group_members {
        let chain = group_chain.get(&gid).map(Vec::as_slice).unwrap_or(&[]);
        let (scale, hidden_us) = if chain.len() >= 2 {
            let sum_us: f64 = chain
                .iter()
                .map(|(w, r)| {
                    execute_workload(w, &cfg.pim, effective_channels, cfg.granularity, *r)
                        .0
                        .time_us
                })
                .sum();
            let chain_us =
                execute_group_overlapped_us(chain, &cfg.pim, effective_channels, cfg.granularity);
            if sum_us > 0.0 && chain_us < sum_us {
                (chain_us / sum_us, sum_us - chain_us)
            } else {
                (1.0, 0.0)
            }
        } else {
            (1.0, 0.0)
        };
        overlap_scale.insert(gid, scale);
        fused_groups.push(FusedGroupStat {
            gid,
            members,
            overlap_hidden_us: hidden_us,
        });
    }

    let link_bw_bytes_per_us = LINK_GBPS * 1e3; // GB/s -> bytes/us

    for id in order {
        let node = graph.node(id);
        let out_bytes = graph
            .value(node.output)
            .desc
            .as_ref()
            .map(|d| d.size_bytes() as u64)
            .unwrap_or(0);
        let mut device = node.placement.device();
        let fusion = node.placement.fusion();
        // AiM-style in-PIM activation (extension ablation): a single-input
        // element-wise op whose operand lives in the PIM channels is applied
        // by the PIM logic while results drain — no GPU kernel, no transfer.
        let pim_activation = cfg.pim.activation_in_pim
            && effective_channels > 0
            && op_is_fusable(&node.op)
            && node.inputs.len() == 1
            && values
                .get(&node.inputs[0])
                .map(|s| s.at_pim && !s.at_gpu)
                .unwrap_or(false);
        // Fusion-group rider: an element-wise node between two fused heavy
        // layers is applied near the banks during the BANKFEED hand-off —
        // no kernel, no bus crossing. Unlike the AiM ablation this needs no
        // special activation hardware flag; it is what the fused lowering
        // means. Residual rejoins (`Add`/`Mul`) qualify too, as long as
        // *every* operand is already PIM-resident — which holds exactly
        // when the skip forked inside the group (the head's staging or a
        // member's output), the condition the fusion walker enforces.
        let fused_rider = fusion.map(|t| t.role) == Some(FusedNodeRole::Rider)
            && effective_channels > 0
            && op_is_fusable(&node.op)
            && !node.inputs.is_empty()
            && node
                .inputs
                .iter()
                .all(|v| values.get(v).map(|s| s.at_pim).unwrap_or(false));
        // Near-bank re-addressing: a contiguous row-range `Slice` (axis 1)
        // or a zero-`Pad` of a value resident only in the PIM channels
        // selects a row range or appends zero rows — bank addressing, not
        // data movement, so nothing crosses the bus and the result stays
        // near the banks. The MD-DP and pipelining passes emit such
        // slices and halo pads when a part they cut is read from a value
        // only the PIM channels hold (EfficientNet, MobileNet-v2 and
        // MnasNet plans take this path).
        let near_bank_move = (matches!(&node.op, Op::Slice(a) if a.axis == 1)
            || matches!(node.op, Op::Pad(_)))
            && !node.inputs.is_empty()
            && node.inputs.iter().all(|v| {
                values
                    .get(v)
                    .map(|s| s.at_pim && !s.at_gpu)
                    .unwrap_or(false)
            });
        if pim_activation || fused_rider || near_bank_move {
            device = Placement::Pim;
        } else if device == Placement::Pim
            && (effective_channels == 0 || !is_heavy_compute(&node.op))
        {
            device = Placement::Gpu;
        }

        // Dependency readiness + cross-boundary transfers.
        let mut ready = 0.0f64;
        for &input in &node.inputs {
            let state = values.get_mut(&input).expect("topological order");
            let mut t = state.time;
            match device {
                // GWRITE itself fetches input data from the GPU channels
                // (§4.1), so GPU->PIM pays only the controller latency; the
                // payload time is inside the PIM command trace.
                Placement::Pim => {
                    if !state.at_pim {
                        t += cfg.transfer_latency_us;
                        host_to_pim_bytes += state.bytes;
                        state.at_pim = true;
                    }
                }
                // PIM->GPU results travel back over the memory network
                // (Fig. 4, movement (4)).
                Placement::Gpu => {
                    if !state.at_gpu {
                        t += cfg.transfer_latency_us + state.bytes as f64 / link_bw_bytes_per_us;
                        transfer_bytes += state.bytes;
                        state.at_gpu = true;
                    }
                }
            }
            ready = ready.max(t);
        }

        // Node cost.
        let profile = kernel_for_node(graph, id);
        let mut fused = false;
        let (start, finish) = if pim_activation || fused_rider {
            // Applied by the PIM activation units during READRES drain
            // (AiM ablation), or near the banks during the BANKFEED
            // hand-off (fusion-group rider).
            fused = true;
            (ready, ready)
        } else if near_bank_move {
            // Addressing only: no kernel, no occupancy, no crossing.
            (ready, ready)
        } else if is_data_move(graph, id) {
            let bytes = data_move_bytes(graph, id, cfg.memopt);
            if bytes == 0 {
                // Free view: no kernel, no resource occupancy.
                (ready, ready)
            } else {
                let dur = bytes as f64 / cfg.gpu.mem_bandwidth(cfg.gpu_channels.max(1)) * 1e6
                    + cfg.gpu.kernel_launch_us;
                gpu_dynamic_uj += bytes as f64 * cfg.gpu.dram_pj_per_byte * 1e-6;
                let start = ready.max(gpu_free);
                gpu_free = start + dur;
                gpu_busy += dur;
                (start, start + dur)
            }
        } else if device == Placement::Pim {
            let workload = PimWorkload::from_node(graph, id);
            // Fused heavy members lower under their group role: the
            // memo key carries the role because the rewritten program
            // prices differently from the standalone one.
            let role = fusion.map(|t| isa_role(t.role)).unwrap_or_default();
            let (dur, stats, busy_us) = match pim_memo.get(&(workload, role)) {
                Some(cached) => {
                    memo_hits += 1;
                    cached.clone()
                }
                None => {
                    memo_misses += 1;
                    // Only the channels the mask reports up take part; the
                    // workload is scheduled across the survivors.
                    let (exec, per_channel) = execute_workload(
                        &workload,
                        &cfg.pim,
                        effective_channels,
                        cfg.granularity,
                        role,
                    );
                    let busy_us: Vec<f64> = per_channel
                        .iter()
                        .map(|s| cfg.pim.cycles_to_ns(s.comp_busy_cycles) * 1e-3)
                        .collect();
                    let entry = (exec.time_us, exec.stats, busy_us);
                    pim_memo.insert((workload, role), entry.clone());
                    entry
                }
            };
            // Scatter the survivors' busy time back to physical channel
            // indices; masked-out channels stay at zero.
            for (slot, b) in busy_us.iter().enumerate() {
                if let Some(&ch) = available.get(slot) {
                    pim_channel_busy_us[ch] += b;
                }
            }
            pim_stats_total = pim_stats_total.merge_parallel(&stats);
            // Overlap credit: members of an overlap-linked group finish
            // earlier than their standalone times sum to — each member's
            // wall-clock share shrinks proportionally. Busy counters stay
            // unscaled: the MAC work is still done, only idle gaps hide.
            let dur = match fusion {
                Some(t) => dur * overlap_scale.get(&t.gid).copied().unwrap_or(1.0),
                None => dur,
            };
            let start = ready.max(pim_free);
            pim_free = start + dur;
            pim_busy += dur;
            (start, start + dur)
        } else {
            // GPU compute node: fusable epilogues ride along for free. TVM
            // fuses element-wise chains into the producing kernel — a conv,
            // a GEMM, or a preceding element-wise kernel (injective
            // fusion) — so an epilogue is standalone only when its producer
            // is a PIM node, a data-movement view, or a graph input.
            let producer_is_gpu_kernel = node
                .inputs
                .first()
                .and_then(|v| produced_on_gpu_conv.get(v))
                .copied()
                .unwrap_or(false);
            if op_is_fusable(&node.op) && producer_is_gpu_kernel {
                fused = true;
                gpu_dynamic_uj += profile.flops * cfg.gpu.dynamic_pj_per_flop * 1e-6;
                (ready, ready)
            } else {
                let dur = pimflow_gpusim::kernel_time_with_launch_us(
                    &profile,
                    &cfg.gpu,
                    cfg.gpu_channels.max(1),
                );
                gpu_dynamic_uj += (profile.flops * cfg.gpu.dynamic_pj_per_flop
                    + profile.dram_bytes * cfg.gpu.dram_pj_per_byte)
                    * 1e-6;
                let start = ready.max(gpu_free);
                gpu_free = start + dur;
                gpu_busy += dur;
                (start, start + dur)
            }
        };

        // Any GPU compute kernel (or a node fused into one) can host further
        // element-wise epilogues; data-movement views and PIM nodes cannot.
        let hosts_fusion = device == Placement::Gpu
            && !is_data_move(graph, id)
            && (is_heavy_compute(&node.op)
                || fused
                || op_is_fusable(&node.op)
                || matches!(node.op, Op::Pool(_) | Op::GlobalAvgPool));
        produced_on_gpu_conv.insert(node.output, hosts_fusion);

        values.insert(
            node.output,
            ValueState {
                time: finish,
                at_pim: device == Placement::Pim,
                at_gpu: device == Placement::Gpu,
                bytes: out_bytes,
            },
        );
        timings.push(NodeTiming {
            name: node.name.clone(),
            device,
            start_us: start,
            finish_us: finish,
            fused,
        });
    }

    let total_us = timings.iter().map(|t| t.finish_us).fold(0.0, f64::max);
    // Energy: GPU dynamic (per node) + PIM dynamic (from command stats)
    // + GPU static power over the makespan. The PIM static share is folded
    // into the command-level energy model.
    let pim_dynamic_uj = pimflow_pimsim::pim_energy_nj(
        &ChannelStats {
            cycles: 0,
            ..pim_stats_total
        },
        &cfg.pim,
        &PimEnergyParams::default(),
        effective_channels,
    ) * 1e-3;
    let transfer_uj = transfer_bytes as f64 * 0.04 * 1e-3; // link I/O energy
    let static_uj = cfg.gpu.static_w * total_us;
    let energy_breakdown = EnergyBreakdown {
        gpu_dynamic_uj,
        pim_dynamic_uj,
        transfer_uj,
        static_uj,
    };

    Ok(ExecutionReport {
        total_us,
        energy_uj: energy_breakdown.total_uj(),
        energy_breakdown,
        gpu_busy_us: gpu_busy,
        pim_busy_us: pim_busy,
        transfer_bytes,
        host_to_pim_bytes,
        pim_channel_busy_us,
        cost_cache: CacheCounters {
            hits: memo_hits,
            misses: memo_misses,
            entries: pim_memo.len() as u64,
        },
        fused_groups,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{find_chains, pipeline_chain, split_node, PatternKind};
    use pimflow_ir::models;

    #[test]
    fn baseline_executes_toy() {
        let g = models::toy();
        let r = execute(&g, &EngineConfig::baseline_gpu()).unwrap();
        assert!(r.total_us > 0.0 && r.total_us.is_finite());
        assert_eq!(r.pim_busy_us, 0.0);
        assert!(r.energy_uj > 0.0);
    }

    #[test]
    fn fusion_zeroes_epilogue_latency() {
        let g = models::toy();
        let r = execute(&g, &EngineConfig::baseline_gpu()).unwrap();
        let relu = r.timing("relu_2").unwrap();
        assert!(relu.fused);
        assert_eq!(relu.start_us, relu.finish_us);
    }

    #[test]
    fn full_pim_offload_uses_pim_stream() {
        let mut g = models::toy();
        let id = g.find_node("conv_3").unwrap();
        split_node(&mut g, id, 0).unwrap();
        let r = execute(&g, &EngineConfig::pimflow()).unwrap();
        assert!(r.pim_busy_us > 0.0);
        assert_eq!(g.node(id).placement.device(), Placement::Pim);
        let t = r.timing("conv_3").unwrap();
        assert_eq!(t.device, Placement::Pim);
    }

    #[test]
    fn pim_tag_falls_back_to_gpu_without_pim_channels() {
        let mut g = models::toy();
        let id = g.find_node("conv_3").unwrap();
        split_node(&mut g, id, 0).unwrap();
        let r = execute(&g, &EngineConfig::baseline_gpu()).unwrap();
        assert_eq!(r.pim_busy_us, 0.0);
    }

    #[test]
    fn mddp_split_overlaps_gpu_and_pim() {
        let mut g = models::toy();
        let id = g.find_node("conv_3").unwrap();
        split_node(&mut g, id, 50).unwrap();
        let r = execute(&g, &EngineConfig::pimflow()).unwrap();
        let a = r.timing("mddp_a_conv_3").unwrap().clone();
        let b = r.timing("mddp_b_conv_3").unwrap().clone();
        assert_eq!((a.device, b.device), (Placement::Gpu, Placement::Pim));
        // The two halves must overlap in time (that is the whole point).
        assert!(
            a.start_us < b.finish_us && b.start_us < a.finish_us,
            "GPU part {:?}..{:?} vs PIM part {:?}..{:?}",
            a.start_us,
            a.finish_us,
            b.start_us,
            b.finish_us
        );
    }

    #[test]
    fn pipelined_stages_overlap() {
        let mut g = models::toy();
        let chain = find_chains(&g)
            .into_iter()
            .find(|c| c.pattern == PatternKind::PwDwPw)
            .unwrap();
        pipeline_chain(&mut g, &chain, 2).unwrap();
        let r = execute(&g, &EngineConfig::pimflow()).unwrap();
        assert!(r.pim_busy_us > 0.0);
        assert!(r.gpu_busy_us > 0.0);
    }

    #[test]
    fn memopt_reduces_total_time_for_split_graphs() {
        let mut g = models::toy();
        let id = g.find_node("conv_1").unwrap();
        split_node(&mut g, id, 50).unwrap();
        let with = execute(&g, &EngineConfig::pimflow()).unwrap();
        let mut cfg = EngineConfig::pimflow();
        cfg.memopt = false;
        let without = execute(&g, &cfg).unwrap();
        assert!(
            with.total_us < without.total_us,
            "memopt {} vs plain {}",
            with.total_us,
            without.total_us
        );
    }

    #[test]
    fn pim_memo_counters_account_for_every_offloaded_node() {
        let mut g = models::toy();
        let id = g.find_node("conv_3").unwrap();
        split_node(&mut g, id, 0).unwrap();
        let r = execute(&g, &EngineConfig::pimflow()).unwrap();
        let pim_nodes = r
            .timings
            .iter()
            .filter(|t| t.device == Placement::Pim && !t.fused)
            .count() as u64;
        assert!(pim_nodes > 0);
        assert_eq!(r.cost_cache.hits + r.cost_cache.misses, pim_nodes);
        assert_eq!(r.cost_cache.entries, r.cost_cache.misses);
        // GPU-only execution touches the memo not at all.
        let base = execute(&models::toy(), &EngineConfig::baseline_gpu()).unwrap();
        assert_eq!(base.cost_cache, CacheCounters::default());
    }

    #[test]
    fn fused_group_reports_stats_and_residual_rider_rides_free() {
        use crate::passes::{find_fusion_groups, fuse_group};
        use pimflow_ir::{GraphBuilder, Shape};
        // conv -> conv -> add(skip): fused as one group, the add is a
        // two-input rider whose operands are both PIM-resident, so it
        // applies near the banks at zero latency.
        let mut b = GraphBuilder::new("res");
        let x = b.input(Shape::nhwc(1, 8, 8, 16));
        let y = b.conv1x1(x, 16);
        let z = b.conv1x1(y, 16);
        let w = b.add(z, y);
        let mut g = b.finish(w);
        let group = find_fusion_groups(&g).into_iter().next().unwrap();
        fuse_group(&mut g, &group, 0).unwrap();
        let r = execute(&g, &EngineConfig::pimflow()).unwrap();
        let add = r.timings.iter().find(|t| t.name.contains("add_3")).unwrap();
        assert_eq!(add.device, Placement::Pim);
        assert!(add.fused, "residual rider should apply near the banks");
        assert_eq!(add.start_us, add.finish_us);
        // The report surfaces the group: 3 members, non-negative overlap
        // credit (never inflates the group).
        assert_eq!(r.fused_groups.len(), 1);
        assert_eq!(r.fused_groups[0].gid, 0);
        assert_eq!(r.fused_groups[0].members, 3);
        assert!(r.fused_groups[0].overlap_hidden_us >= 0.0);
        // Without PIM channels the stat degrades to zero hidden time.
        let base = execute(&g, &EngineConfig::baseline_gpu()).unwrap();
        assert_eq!(base.fused_groups.len(), 1);
        assert_eq!(base.fused_groups[0].overlap_hidden_us, 0.0);
    }

    #[test]
    fn report_is_deterministic() {
        let g = models::toy();
        let a = execute(&g, &EngineConfig::pimflow()).unwrap();
        let b = execute(&g, &EngineConfig::pimflow()).unwrap();
        assert_eq!(a.total_us, b.total_us);
        assert_eq!(a.energy_uj, b.energy_uj);
    }

    #[test]
    fn timeline_respects_dependencies() {
        let g = models::toy();
        let r = execute(&g, &EngineConfig::baseline_gpu()).unwrap();
        for (i, id) in g.topo_order().unwrap().iter().enumerate() {
            let t = &r.timings[i];
            assert_eq!(t.name, g.node(*id).name);
            for p in g.predecessors(*id) {
                let pt = r.timings.iter().find(|x| x.name == g.node(p).name).unwrap();
                assert!(pt.finish_us <= t.start_us + 1e-9);
            }
        }
    }
}

#[cfg(test)]
mod transfer_tests {
    use super::*;
    use crate::passes::split_node;
    use pimflow_ir::models;

    #[test]
    fn transfers_count_pim_to_gpu_only() {
        // Full offload of one conv: its input rides on GWRITE (no link
        // traffic), its output crosses back once for the GPU consumer.
        let mut g = models::toy();
        let id = g.find_node("conv_3").unwrap();
        split_node(&mut g, id, 0).unwrap();
        let r = execute(&g, &EngineConfig::pimflow()).unwrap();
        assert_eq!(g.node(id).placement.device(), Placement::Pim);
        let conv_out = g
            .value(g.node(g.find_node("conv_3").unwrap()).output)
            .desc
            .as_ref()
            .unwrap()
            .size_bytes() as u64;
        assert!(
            r.transfer_bytes >= conv_out,
            "output must cross the boundary"
        );
        // FC output (10 values) also crosses; bound the total tightly.
        assert!(
            r.transfer_bytes <= 2 * conv_out + 1024,
            "no double counting: {}",
            r.transfer_bytes
        );
    }

    #[test]
    fn repeated_consumers_pay_the_transfer_once() {
        use pimflow_ir::{GraphBuilder, Shape};
        // A PIM conv whose output feeds two GPU consumers: the value moves
        // across the memory network once and is then GPU-resident.
        let mut b = GraphBuilder::new("fanout");
        let x = b.input(Shape::nhwc(1, 8, 8, 16));
        let y = b.conv1x1(x, 32);
        let r1 = b.relu(y);
        let r2 = b.relu6(y);
        let z = b.add(r1, r2);
        let mut g = b.finish(z);
        let id = g.find_node("conv_1").unwrap();
        split_node(&mut g, id, 0).unwrap();
        let r = execute(&g, &EngineConfig::pimflow()).unwrap();
        let out_bytes = 8 * 8 * 32 * 2u64;
        assert_eq!(r.transfer_bytes, out_bytes, "exactly one crossing");
    }
}

#[cfg(test)]
mod energy_tests {
    use super::*;
    use crate::passes::split_node;
    use pimflow_ir::models;

    #[test]
    fn breakdown_sums_to_total() {
        let g = models::toy();
        let r = execute(&g, &EngineConfig::baseline_gpu()).unwrap();
        assert!((r.energy_breakdown.total_uj() - r.energy_uj).abs() < 1e-9);
        assert_eq!(r.energy_breakdown.pim_dynamic_uj, 0.0, "no PIM in baseline");
        assert!(r.energy_breakdown.static_uj > 0.0);
    }

    #[test]
    fn pim_offload_shifts_dynamic_energy() {
        let mut g = models::toy();
        let id = g.find_node("conv_3").unwrap();
        split_node(&mut g, id, 0).unwrap();
        let r = execute(&g, &EngineConfig::pimflow()).unwrap();
        assert!(r.energy_breakdown.pim_dynamic_uj > 0.0);
        assert!(r.energy_breakdown.transfer_uj > 0.0);
        let base = execute(&models::toy(), &EngineConfig::baseline_gpu()).unwrap();
        assert!(
            r.energy_breakdown.gpu_dynamic_uj < base.energy_breakdown.gpu_dynamic_uj,
            "offloading must reduce GPU dynamic energy"
        );
    }
}

#[cfg(test)]
mod aim_tests {
    use super::*;
    use crate::passes::split_node;
    use pimflow_ir::models;

    fn aim_cfg() -> EngineConfig {
        EngineConfig {
            pim: pimflow_pimsim::PimConfig::aim_like(),
            ..EngineConfig::pimflow()
        }
    }

    #[test]
    fn in_pim_activation_removes_the_epilogue_kernel() {
        let mut g = models::toy();
        let id = g.find_node("conv_3").unwrap();
        split_node(&mut g, id, 0).unwrap();
        // Newton++: the relu6 after the offloaded conv is a real GPU kernel.
        let newton = execute(&g, &EngineConfig::pimflow()).unwrap();
        let t = newton.timing("relu6_4").unwrap();
        assert!(
            t.finish_us > t.start_us,
            "epilogue must cost time on Newton++"
        );
        // AiM-like: it is absorbed into the PIM read-out.
        let aim = execute(&g, &aim_cfg()).unwrap();
        let t = aim.timing("relu6_4").unwrap();
        assert!(t.fused, "epilogue must fuse into PIM drain");
        assert_eq!(t.finish_us, t.start_us);
        assert!(aim.total_us < newton.total_us);
    }

    #[test]
    fn in_pim_activation_never_hurts_end_to_end() {
        for name in ["toy", "mobilenet-v2"] {
            let g = models::by_name(name).unwrap();
            let plan = crate::search::Search::new(&g, &aim_cfg()).run().unwrap();
            let transformed = crate::search::apply_plan(&g, &plan).unwrap();
            let aim = execute(&transformed, &aim_cfg()).unwrap();

            let plan_n = crate::search::Search::new(&g, &EngineConfig::pimflow())
                .run()
                .unwrap();
            let transformed_n = crate::search::apply_plan(&g, &plan_n).unwrap();
            let newton = execute(&transformed_n, &EngineConfig::pimflow()).unwrap();
            assert!(
                aim.total_us <= newton.total_us * 1.01,
                "{name}: AiM {:.1} vs Newton++ {:.1}",
                aim.total_us,
                newton.total_us
            );
        }
    }
}
