//! Execution mode and task size search (§4.2.2, Algorithm 1).
//!
//! For every PIM-candidate node the search profiles MD-DP splits at 10%
//! ratio intervals (11 samples including the 0/100 full-offload endpoints),
//! measures every pipelining candidate subgraph at each chain length, and
//! combines the per-node/per-chain costs with dynamic programming:
//!
//! ```text
//! T[i] = min( C[i][1] + T[i+1],  C[i][j] + T[i+j] )   (lines 23–28)
//! ```
//!
//! The paper performs these measurements on the simulated hardware; we do
//! the same — PIM costs come from command-trace execution on the DRAM-PIM
//! simulator, GPU costs, data moves, result drains and epilogue fusion from
//! [`crate::nodecost`], the rules the engine executes with — and record
//! them in a serializable profile log, mirroring the artifact's metadata
//! log file.
//!
//! [`Search`] is the one entry point. Its measurement loops — per-node
//! MD-DP profiling, per-chain pipeline costing and per-group fusion
//! costing — are embarrassingly parallel and run on a
//! [`pimflow_pool::WorkerPool`] (the builder's [`pool`](Search::pool)
//! knob; unset, the pool is sized from `PIMFLOW_JOBS`). Every per-item
//! cost is a pure function of the graph and config, and results are
//! merged in input order, so a pool of any width returns a plan
//! byte-identical to the sequential search.
//!
//! ## Cost caching
//!
//! PIM cost queries flow through one memoized lookup over a two-tier
//! cache: each worker resolves [`WorkloadKey`]s against its private,
//! unsynchronized [`MemoShard`] backed by an immutable snapshot of a
//! shared [`CostCache`] table, and shards merge
//! back at the end of each phase — the same deterministic points where the
//! per-search memo shards have always merged. By default every search uses
//! a private scratch cache (exactly the historical behaviour); pass a
//! long-lived cache via [`Search::cache`] to reuse PIM simulations across
//! `run` calls — repeated-block models, batch sweeps, and the serving
//! precompile path then skip most of their simulator work. Cached and
//! uncached searches return byte-identical plans at any pool width, because
//! the cache memoizes a pure function ([`crate::costcache::pim_cost_us`]).
//!
//! ## Fault awareness
//!
//! The search honors the [`ChannelMask`] carried by
//! [`EngineConfig::pim_channel_mask`]: PIM costs are simulated over the
//! surviving channels only, so a plan computed under a reduced mask already
//! prices the degraded hardware. When a channel dies *after* a plan was
//! computed, [`ExecutionPlan::repair`] re-prices the existing decisions
//! under the new mask — migrating work back to the GPU where the shrunken
//! PIM capacity no longer pays — without rerunning the full Algorithm-1
//! grid search. Repair prices through the search's own helpers (the same
//! profiler, topo walk and rider-cost attribution), so a kept decision
//! costs exactly what the search would charge for it under that mask.

use crate::codegen::{price_fused_chain, PimWorkload};
use crate::costcache::{pim_cost_us, CostCache, CostTable, MemoShard, WorkloadKey};
use crate::engine::{ChannelMask, EngineConfig};
use crate::error::Result;
use crate::nodecost::{self, op_is_fusable};
use crate::passes::fusion::{find_fusion_groups, FusionGroup};
use crate::passes::pipeline::{find_chains, Chain};
use crate::placement::Placement;
use pimflow_ir::{Graph, NodeId, Op};
use pimflow_isa::FusedRole;
use pimflow_json::{json_struct, FromJson, Json, JsonError, ToJson};
use pimflow_pool::WorkerPool;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Stage count of every pipeline candidate the search prices (2 in the
/// paper). Plans with other stage counts still apply and execute; Fig. 15
/// sweeps them through [`estimate_chain_pipelined_us`].
const SEARCH_PIPELINE_STAGES: usize = 2;

/// Which execution modes the search may choose from (varies per offloading
/// mechanism, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    /// Ratio step in percent for MD-DP samples (10 in the paper). When
    /// `offload_only` is set, only 0 and 100 are sampled.
    pub ratio_step: u32,
    /// Restrict MD-DP to full offload / full GPU (Newton+/Newton++ and
    /// PIMFlow-pl behaviour).
    pub offload_only: bool,
    /// Whether pipelining candidates are considered. The search prices
    /// them at 2 stages, as in the paper.
    pub allow_pipeline: bool,
    /// Whether fusion-group candidates are considered: producer→consumer
    /// runs of PIM-eligible layers priced as one fused region whose
    /// intermediate activations never cross the channel bus. The fused
    /// options only extend the DP's candidate set, so a search with fusion
    /// enabled never predicts a worse time than one without.
    pub allow_fusion: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            ratio_step: 10,
            offload_only: false,
            allow_pipeline: true,
            allow_fusion: true,
        }
    }
}

/// Per-node decision chosen by the search.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Keep the node on the GPU.
    Gpu,
    /// MD-DP split: `gpu_percent`% of the rows on GPU (0 = full offload).
    Split {
        /// Percent of work on the GPU.
        gpu_percent: u32,
    },
    /// Pipeline the chain starting here over `node_names` with this many
    /// stages.
    Pipeline {
        /// Names of the chain nodes, in order.
        node_names: Vec<String>,
        /// Stage count.
        stages: usize,
    },
    /// Fuse the group starting here: every member runs on the PIM side and
    /// inter-member activations stay near the banks (the producer's drain
    /// and the consumer's input staging collapse into `BANKFEED`s). A
    /// fused group is always a full offload: plan JSON whose `Fused` entry
    /// carries a `gpu_percent` (an interior GPU/PIM row split of the
    /// group) is rejected on decode.
    Fused {
        /// Names of the group nodes — heavy layers and the element-wise
        /// riders between them — in order.
        node_names: Vec<String>,
    },
}

/// Profiled costs of one PIM-candidate layer (one artifact
/// `PIMFlow/layerwise` record).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Node name.
    pub name: String,
    /// `(gpu_percent, estimated microseconds)` samples.
    pub samples: Vec<(u32, f64)>,
    /// Best sample.
    pub best_ratio: u32,
    /// Best time in microseconds.
    pub best_us: f64,
    /// Full-GPU time in microseconds.
    pub gpu_us: f64,
}

/// The search result: per-node decisions plus the profile log.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// Model name the plan was computed for.
    pub model: String,
    /// Decision per node name (nodes not listed stay on GPU).
    pub decisions: Vec<(String, Decision)>,
    /// Layer profiles recorded during the search.
    pub profiles: Vec<LayerProfile>,
    /// Predicted end-to-end time of the plan, microseconds.
    pub predicted_us: f64,
    /// Predicted total time attributed to PIM-candidate CONV layers under
    /// the chosen decisions (the Fig. 9 per-layer metric; FC excluded).
    pub conv_layer_us: f64,
}

// `Decision` carries payloads, so the derive-like macros don't apply; the
// impls below keep the serde externally-tagged shape.
impl ToJson for Decision {
    fn to_json(&self) -> Json {
        match self {
            Decision::Gpu => Json::Str("Gpu".into()),
            Decision::Split { gpu_percent } => Json::obj(vec![(
                "Split",
                Json::obj(vec![("gpu_percent", gpu_percent.to_json())]),
            )]),
            Decision::Pipeline { node_names, stages } => Json::obj(vec![(
                "Pipeline",
                Json::obj(vec![
                    ("node_names", node_names.to_json()),
                    ("stages", stages.to_json()),
                ]),
            )]),
            Decision::Fused { node_names } => Json::obj(vec![(
                "Fused",
                Json::obj(vec![("node_names", node_names.to_json())]),
            )]),
        }
    }
}

impl FromJson for Decision {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Str(s) if s == "Gpu" => Ok(Decision::Gpu),
            Json::Obj(fields) if fields.len() == 1 => {
                let (tag, payload) = &fields[0];
                match tag.as_str() {
                    "Split" => {
                        reject_backend_tag(payload)?;
                        Ok(Decision::Split {
                            gpu_percent: u32::from_json(payload.field("gpu_percent")?)?,
                        })
                    }
                    "Pipeline" => Ok(Decision::Pipeline {
                        node_names: Vec::from_json(payload.field("node_names")?)?,
                        stages: usize::from_json(payload.field("stages")?)?,
                    }),
                    "Fused" => {
                        reject_backend_tag(payload)?;
                        // Older plans recorded a GPU/PIM row split of the
                        // whole group here. Running one as a full offload
                        // would execute a different plan than was priced.
                        if payload.field("gpu_percent").is_ok() {
                            return Err(JsonError::msg(
                                "fused decision carries `gpu_percent`: the interior \
                                 split of fusion groups was removed; re-run the search",
                            ));
                        }
                        Ok(Decision::Fused {
                            node_names: Vec::from_json(payload.field("node_names")?)?,
                        })
                    }
                    other => Err(JsonError::msg(format!(
                        "unknown Decision variant `{other}`"
                    ))),
                }
            }
            other => Err(JsonError::msg(format!(
                "expected Decision as string or single-field object, got {other}"
            ))),
        }
    }
}

/// Older plans could place a `Split` or `Fused` decision on a crossbar
/// compute-in-array model, which the engine never executed; Newton
/// decisions never carried the field. Decoding such a plan as Newton would
/// run a different plan than was priced, so a `backend` field is an error.
fn reject_backend_tag(payload: &Json) -> Result<(), JsonError> {
    match payload.field("backend") {
        Ok(_) => Err(JsonError::msg(
            "decision carries `backend`: the crossbar PIM backend was removed \
             and every PIM decision runs on Newton; re-run the search",
        )),
        Err(_) => Ok(()),
    }
}

json_struct!(LayerProfile {
    name,
    samples,
    best_ratio,
    best_us,
    gpu_us
});
json_struct!(ExecutionPlan {
    model,
    decisions,
    profiles,
    predicted_us,
    conv_layer_us
});

impl ExecutionPlan {
    /// Decision for a node name, defaulting to GPU.
    pub fn decision(&self, name: &str) -> Decision {
        self.decisions
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.clone())
            .unwrap_or(Decision::Gpu)
    }

    /// Distribution of chosen MD-DP GPU ratios over PIM-candidate layers
    /// (Table 2): `(ratio, share)` pairs over the 10% grid 0,10,...,100,
    /// extended with any off-grid ratio a non-divisor `ratio_step` chose.
    ///
    /// Candidates the search left on the GPU carry an explicit
    /// [`Decision::Gpu`] entry and count toward the 100% bucket, so the
    /// shares sum to 1 over *all* PIM-candidate layers (pipelined chains
    /// excluded — they have no single ratio).
    pub fn ratio_distribution(&self) -> Vec<(u32, f64)> {
        let mut counts: BTreeMap<u32, usize> = (0..=100).step_by(10).map(|r| (r, 0)).collect();
        let mut total = 0usize;
        for (_, d) in &self.decisions {
            let r = match d {
                Decision::Gpu => 100,
                Decision::Split { gpu_percent, .. } => *gpu_percent,
                // Pipelined chains and fused groups have no single ratio.
                Decision::Pipeline { .. } | Decision::Fused { .. } => continue,
            };
            *counts.entry(r).or_insert(0) += 1;
            total += 1;
        }
        counts
            .into_iter()
            .map(|(r, c)| {
                (
                    r,
                    if total == 0 {
                        0.0
                    } else {
                        c as f64 / total as f64
                    },
                )
            })
            .collect()
    }

    /// Cheap replan after channel faults: re-prices this plan's decisions
    /// under `mask` and migrates work back to the GPU wherever the
    /// shrunken PIM capacity no longer pays, without rerunning the full
    /// Algorithm-1 grid search.
    ///
    /// Kept decisions keep their ratios and stages — only the
    /// keep-or-drop choice is revisited — so a repair is one sequential
    /// walk over the search's own pricing helpers (deterministic
    /// regardless of `PIMFLOW_JOBS`). When the mask leaves the effective
    /// channel count unchanged the plan is returned as-is. The repaired
    /// plan's `predicted_us` is never below the original's, and never
    /// assigns work to a masked-out channel; `profiles` are carried over
    /// unchanged (they describe the healthy hardware).
    ///
    /// With `cache`, workloads already priced under the repair mask (by an
    /// earlier search or repair) are reused, and this repair's fresh
    /// simulations are merged back: the serving runtime repairs every
    /// cached plan through one cache, so plans for different batch sizes
    /// share the re-pricing work. `None` uses a private scratch memo; the
    /// repaired plan is byte-identical either way.
    ///
    /// Compare against `Search::new(graph, &cfg.with_mask(mask)).run()` to
    /// measure how much plan quality the shortcut gives up.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Graph`] when `graph` has no topological
    /// order, or [`crate::Error::NotApplicable`] when the plan references
    /// nodes, chains or fusion groups `graph` does not have.
    pub fn repair(
        &self,
        graph: &Graph,
        cfg: &EngineConfig,
        mask: ChannelMask,
        cache: Option<&CostCache>,
    ) -> Result<ExecutionPlan> {
        let masked = cfg.with_mask(mask);
        if masked.effective_pim_channels() == cfg.effective_pim_channels() {
            return Ok(self.clone());
        }
        let walk = TopoWalk::new(graph)?;
        let pim_available = masked.effective_pim_channels() > 0;
        let base = cache.map(CostCache::snapshot).unwrap_or_default();
        let mut profiler = Profiler::new(graph, &masked, base);
        let decided: HashMap<&str, &Decision> = self
            .decisions
            .iter()
            .map(|(n, d)| (n.as_str(), d))
            .collect();
        for name in decided.keys() {
            if graph.find_node(name).is_none() {
                return Err(crate::Error::NotApplicable(format!(
                    "plan references unknown node `{name}`"
                )));
            }
        }

        let mut decisions = Vec::new();
        let mut predicted_us = 0.0f64;
        let mut conv_layer_us = 0.0f64;
        let mut i = 0usize;
        while i < walk.order.len() {
            let id = walk.order[i];
            let name = graph.node(id).name.clone();
            let solo = profiler.solo(id);
            let decision = decided.get(name.as_str()).copied();
            // Re-price on the ratio and stages the plan chose:
            // repair migrates work, it does not re-run the search. The
            // search records regions contiguous in topo order and anchored
            // at their first node, so a region must sit exactly there.
            let unknown = |what: &str| {
                crate::Error::NotApplicable(format!("plan references unknown {what} at `{name}`"))
            };
            let at_i = |nodes: &[NodeId], names: &[String]| {
                named(graph, nodes, names) && walk.region_start(nodes) == Some(i)
            };
            let (nodes, region_us, kept) = match decision {
                Some(Decision::Gpu) | None => {
                    predicted_us += solo;
                    if is_candidate_conv(graph, id) {
                        conv_layer_us += solo;
                    }
                    if decision.is_some() {
                        decisions.push((name, Decision::Gpu));
                    }
                    i += 1;
                    continue;
                }
                Some(split @ Decision::Split { gpu_percent }) => {
                    let split_us = if pim_available && graph.is_pim_candidate(id) {
                        profiler.mddp_cost(id, *gpu_percent)
                    } else {
                        f64::INFINITY
                    };
                    let (cost, repaired) = if split_us < solo {
                        (split_us, split.clone())
                    } else {
                        (solo, Decision::Gpu)
                    };
                    predicted_us += cost;
                    if is_candidate_conv(graph, id) {
                        conv_layer_us += cost;
                    }
                    decisions.push((name, repaired));
                    i += 1;
                    continue;
                }
                Some(kept @ Decision::Pipeline { node_names, stages }) => {
                    let chain = find_chains(graph)
                        .into_iter()
                        .find(|c| at_i(&c.nodes, node_names))
                        .ok_or_else(|| unknown("chain"))?;
                    let cost =
                        pim_available.then(|| profiler.pipeline_cost(&chain, (*stages).max(2)));
                    (chain.nodes, cost, kept)
                }
                Some(kept @ Decision::Fused { node_names }) => {
                    let group = find_fusion_groups(graph)
                        .into_iter()
                        .find(|g| at_i(&g.nodes, node_names))
                        .ok_or_else(|| unknown("fusion group"))?;
                    let cost = pim_available.then(|| profiler.fused_group_cost(&group));
                    (group.nodes, cost, kept)
                }
            };
            // Keep the region while it still beats its members'
            // GPU-resident cost; otherwise dissolve it, every member
            // falling back to the GPU.
            let region_us = region_us.unwrap_or(f64::INFINITY);
            let gpu_us: f64 = nodes.iter().map(|&nid| profiler.solo(nid)).sum();
            if region_us < gpu_us {
                let riders = rider_cost(graph, &nodes, |nid| profiler.solo(nid));
                predicted_us += region_us;
                conv_layer_us += (region_us - riders).max(0.0);
                decisions.push((name, kept.clone()));
            } else {
                predicted_us += gpu_us;
                for &nid in &nodes {
                    if graph.is_pim_candidate(nid) {
                        let c = profiler.solo(nid);
                        if is_candidate_conv(graph, nid) {
                            conv_layer_us += c;
                        }
                        decisions.push((graph.node(nid).name.clone(), Decision::Gpu));
                    }
                }
            }
            i += nodes.len();
        }

        if let Some(c) = cache {
            c.merge([profiler.into_shard()]);
        }
        Ok(ExecutionPlan {
            model: self.model.clone(),
            decisions,
            profiles: self.profiles.clone(),
            predicted_us,
            conv_layer_us,
        })
    }
}

/// Profiling context (memoizes PIM simulations through the two-tier cost
/// cache).
///
/// Under the worker pool each worker owns one `Profiler`, so workers never
/// serialize on a shared map: lookups resolve against the worker's private
/// [`MemoShard`], then the immutable base snapshot, and only misses run the
/// simulator. The cache memoizes values of a pure function, so shard
/// boundaries and merge order cannot change any cost — only how often the
/// simulator reruns.
struct Profiler<'g> {
    graph: &'g Graph,
    cfg: EngineConfig,
    /// Template of every key this profiler looks up, built once by
    /// [`WorkloadKey::new`], so the hot path re-rolls keys without
    /// re-hashing the config.
    template: WorkloadKey,
    /// Immutable snapshot of the shared cross-search table.
    base: Arc<CostTable>,
    /// Private shard: keys this profiler had to price itself.
    shard: MemoShard,
}

impl<'g> Profiler<'g> {
    /// A profiler backed by `base`, a snapshot of the shared cost table
    /// taken at the start of the current search phase (empty for a
    /// private scratch memo).
    fn new(graph: &'g Graph, cfg: &EngineConfig, base: Arc<CostTable>) -> Self {
        Profiler {
            graph,
            template: WorkloadKey::new(PimWorkload::default(), cfg),
            cfg: cfg.clone(),
            base,
            shard: MemoShard::new(),
        }
    }

    /// Consumes the profiler, returning its memo shard for merging.
    fn into_shard(self) -> MemoShard {
        self.shard
    }

    /// Channels the PIM estimates run over: those the mask reports
    /// available, min 1 so the cost model stays total (callers gate
    /// offload on the real count).
    fn channels(&self) -> usize {
        self.template.channels as usize
    }

    /// The key of `w`: the template re-rolled with the workload.
    fn key(&self, w: PimWorkload) -> WorkloadKey {
        self.template.with_workload(w)
    }

    /// The one memoized lookup: `key`'s cost from the private shard, else
    /// the base snapshot, else `price` it and record it in the shard with
    /// the lookups the pricing made in turn. Every lookup counts, hit or
    /// miss.
    fn memo(&mut self, key: WorkloadKey, price: impl FnOnce(&mut Self) -> f64) -> f64 {
        self.shard.count_lookup();
        if let Some(t) = self.shard.get(&key).or_else(|| self.base.get(&key)) {
            return t;
        }
        let before = self.shard.lookups();
        let t = price(self);
        let nested = self.shard.lookups() - before;
        self.shard.insert(key, t, nested);
        t
    }

    /// PIM time of workload `w` lowered for fusion-group role `role`,
    /// microseconds (fused roles price the elided bus crossings as
    /// `BANKFEED`s).
    fn time(&mut self, w: PimWorkload, role: FusedRole) -> f64 {
        let key = self.key(w).with_role(role);
        self.memo(key, |p| pim_cost_us(&key, &p.cfg.pim))
    }

    /// `frac` of node `id`'s rows as a workload (at least one row).
    fn rows(&self, id: NodeId, frac: f64) -> PimWorkload {
        let mut w = PimWorkload::from_node(self.graph, id);
        w.rows = ((w.rows as f64 * frac).round() as usize).max(1);
        w
    }

    /// GPU time of `frac` of node `id`'s rows (standalone launch),
    /// microseconds.
    fn gpu_time(&self, id: NodeId, frac: f64) -> f64 {
        nodecost::gpu_kernel_us(self.graph, id, frac, &self.cfg.gpu, self.cfg.gpu_channels)
    }

    /// Node `id`'s cost in the all-GPU timeline
    /// ([`nodecost::gpu_resident_us`]), microseconds: the single-node
    /// cost every region competes with.
    fn solo(&self, id: NodeId) -> f64 {
        nodecost::gpu_resident_us(self.graph, id, &self.cfg.gpu, self.cfg.gpu_channels)
    }

    /// Result-return transfer cost for `frac` of node `id`'s output.
    fn transfer_out(&self, id: NodeId, frac: f64) -> f64 {
        let bytes = self
            .graph
            .value(self.graph.node(id).output)
            .desc
            .as_ref()
            .map(|d| d.size_bytes() as f64)
            .unwrap_or(0.0)
            * frac;
        nodecost::drain_us(bytes)
    }

    /// Standalone GPU cost of the epilogue slice that *stops being fused*
    /// when `frac` of node `id`'s rows leave the GPU: the MD-DP pass
    /// replicates the epilogue per part, so only the PIM part's slice turns
    /// into a real element-wise kernel.
    fn defusion_penalty(&mut self, id: NodeId, frac: f64) -> f64 {
        // AiM-style PIM activation units apply the epilogue in memory.
        if self.cfg.pim.activation_in_pim {
            return 0.0;
        }
        let succ = self.graph.successors(id);
        if succ.len() != 1 {
            return 0.0;
        }
        let next = succ[0];
        let next_node = self.graph.node(next);
        if !op_is_fusable(&next_node.op) {
            return 0.0;
        }
        if next_node.inputs.len() == 1 {
            // The MD-DP pass replicates single-input epilogues per part, so
            // only the PIM slice becomes a standalone kernel.
            self.gpu_time(next, frac)
        } else {
            // Two-input epilogues (residual Add) stay behind the concat and
            // run standalone over the full tensor.
            self.gpu_time(next, 1.0)
        }
    }

    /// MD-DP cost of node `id` at `gpu_percent`, including the epilogue
    /// de-fusion penalty on the PIM slice. At `gpu_percent == 100` no PIM
    /// model is consulted.
    fn mddp_cost(&mut self, id: NodeId, gpu_percent: u32) -> f64 {
        match gpu_percent {
            100 => self.gpu_time(id, 1.0),
            0 => {
                let w = self.rows(id, 1.0);
                self.time(w, FusedRole::Standalone)
                    + self.transfer_out(id, 1.0)
                    + self.defusion_penalty(id, 1.0)
            }
            r => {
                let f = r as f64 / 100.0;
                let gpu = self.gpu_time(id, f);
                let w = self.rows(id, 1.0 - f);
                let pim = self.time(w, FusedRole::Standalone) + self.transfer_out(id, 1.0 - f);
                // The de-fused epilogue is a GPU kernel: it serializes on
                // the GPU stream after the GPU part (and after the PIM
                // results arrive), so it adds to the critical path rather
                // than overlapping it.
                gpu.max(pim) + self.defusion_penalty(id, 1.0 - f)
            }
        }
    }

    /// Wavefront estimate of a pipelined chain: `stages` parts, conv cells
    /// on their device, element-wise nodes following a PIM conv charged as
    /// standalone GPU kernels, following a GPU conv fused for free.
    fn pipeline_cost(&mut self, chain: &Chain, stages: usize) -> f64 {
        let mut gpu_free = 0.0f64;
        let mut pim_free = 0.0f64;
        // finish[p] = completion time of part p at the current chain depth.
        let mut finish = vec![0.0f64; stages];
        let mut prev_device = Placement::Gpu;
        for &nid in &chain.nodes {
            let node = self.graph.node(nid);
            let (device, cell) = match &node.op {
                Op::Conv2d(a) => {
                    let device = if a.is_pointwise() {
                        Placement::Pim
                    } else {
                        Placement::Gpu
                    };
                    let frac = 1.0 / stages as f64;
                    let dur = match device {
                        Placement::Pim => {
                            let w = self.rows(nid, frac);
                            self.time(w, FusedRole::Standalone) + self.transfer_out(nid, frac)
                        }
                        Placement::Gpu => self.gpu_time(nid, frac),
                    };
                    (device, dur)
                }
                _ => {
                    // Element-wise rider: free when fused behind a GPU conv,
                    // a small bandwidth-bound kernel after a PIM conv.
                    if prev_device == Placement::Gpu {
                        (Placement::Gpu, 0.0)
                    } else {
                        let dur = self.gpu_time(nid, 1.0 / stages as f64);
                        (Placement::Gpu, dur)
                    }
                }
            };
            for slot in finish.iter_mut() {
                let start = match device {
                    Placement::Gpu => slot.max(gpu_free),
                    Placement::Pim => slot.max(pim_free),
                };
                let end = start + cell;
                match device {
                    Placement::Gpu => gpu_free = end,
                    Placement::Pim => pim_free = end,
                }
                *slot = end;
            }
            prev_device = device;
        }
        // The concat joining the final parts breaks epilogue fusion for the
        // node that follows the chain, exactly as in the MD-DP case.
        let last_conv = *chain.nodes.last().expect("chain non-empty");
        finish[stages - 1] + self.defusion_penalty(last_conv, 1.0)
    }

    /// Deterministic fingerprint of a group's heavy-member chain (shapes
    /// and order), used to key group-level chain-cost cache entries: two
    /// groups whose members happen to share a head shape must not collide.
    /// Never zero — zero marks ordinary per-member keys.
    fn group_fingerprint(&self, group: &FusionGroup) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for (k, &id) in group.heavy.iter().enumerate() {
            k.hash(&mut hasher);
            PimWorkload::from_node(self.graph, id).hash(&mut hasher);
        }
        hasher.finish().max(1)
    }

    /// The group's heavy members as `(workload, fused role)` pairs, in
    /// chain order.
    fn fused_members(&self, group: &FusionGroup) -> Vec<(PimWorkload, FusedRole)> {
        let last = group.heavy.len() - 1;
        group
            .heavy
            .iter()
            .enumerate()
            .map(|(k, &id)| {
                let role = if k == 0 {
                    FusedRole::Head
                } else if k == last {
                    FusedRole::Tail
                } else {
                    FusedRole::Middle
                };
                (self.rows(id, 1.0), role)
            })
            .collect()
    }

    /// PIM time of a fused group's heavy chain, as [`price_fused_chain`]
    /// commits it, with the member times read through [`Self::time`].
    /// Element-wise riders between the members are applied during the
    /// hand-off and cost nothing. The result is memoized group-level: the
    /// key is the head's workload re-rolled with the group fingerprint, so
    /// it can never answer a per-member lookup.
    fn fused_chain_time(&mut self, group: &FusionGroup) -> f64 {
        let head = PimWorkload::from_node(self.graph, group.heavy[0]);
        let key = self
            .key(head)
            .with_role(FusedRole::Head)
            .with_group(self.group_fingerprint(group));
        self.memo(key, |p| {
            let members = p.fused_members(group);
            let (pim, channels) = (p.cfg.pim, p.channels());
            price_fused_chain(&members, &pim, channels, |w, role| p.time(w, role)).chain_us
        })
    }

    /// Cost of running `group` as one fused region: chain time plus the
    /// last member's result-return transfer and epilogue de-fusion
    /// penalty — the last *node*, not the last heavy layer, because a
    /// trailing residual rider's output is what actually leaves the region.
    fn fused_group_cost(&mut self, group: &FusionGroup) -> f64 {
        let last = *group.nodes.last().expect("fusion group has members");
        self.fused_chain_time(group)
            + self.transfer_out(last, 1.0)
            + self.defusion_penalty(last, 1.0)
    }
}

/// Public cost-model access for harnesses (Fig. 10/11 style analyses):
/// estimated time of `chain` when pipelined with `stages` stages.
pub fn estimate_chain_pipelined_us(
    graph: &Graph,
    cfg: &EngineConfig,
    chain: &Chain,
    stages: usize,
) -> f64 {
    Profiler::new(graph, cfg, Arc::default()).pipeline_cost(chain, stages.max(2))
}

/// MD-DP sample grid of `opts`, in ascending order. Both endpoints are
/// always present: 0 (full offload) and 100 (full GPU) anchor the search
/// even when `ratio_step` does not divide 100 (step 30 samples
/// 0,30,60,90,100 — not 0,30,60,90).
fn ratio_grid(opts: &SearchOptions) -> Vec<u32> {
    if opts.offload_only {
        return vec![0, 100];
    }
    let mut grid: Vec<u32> = (0..=100).step_by(opts.ratio_step.max(1) as usize).collect();
    if *grid.last().expect("grid starts at 0") != 100 {
        grid.push(100);
    }
    grid
}

/// The topological order the search's DP and [`ExecutionPlan::repair`]
/// both walk, with each node's position in it.
struct TopoWalk {
    order: Vec<NodeId>,
    index_of: HashMap<NodeId, usize>,
}

impl TopoWalk {
    /// The walk over `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Graph`] when `graph` has no topological
    /// order.
    fn new(graph: &Graph) -> Result<Self> {
        let order = graph.topo_order()?;
        let index_of = order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        Ok(TopoWalk { order, index_of })
    }

    /// Position of a region's first node when its members occupy
    /// consecutive positions of the walk — the only regions the DP (which
    /// consumes whole index ranges) and repair take.
    fn region_start(&self, nodes: &[NodeId]) -> Option<usize> {
        let start = self.index_of[nodes.first()?];
        let contiguous = nodes
            .iter()
            .enumerate()
            .all(|(k, nid)| self.index_of[nid] == start + k);
        contiguous.then_some(start)
    }
}

/// Whether `nodes` carry exactly `names`, in order.
fn named(graph: &Graph, nodes: &[NodeId], names: &[String]) -> bool {
    nodes.len() == names.len()
        && nodes
            .iter()
            .zip(names)
            .all(|(&nid, n)| &graph.node(nid).name == n)
}

/// The names of `nodes`, in order.
fn names(graph: &Graph, nodes: &[NodeId]) -> Vec<String> {
    nodes
        .iter()
        .map(|&nid| graph.node(nid).name.clone())
        .collect()
}

/// Whether node `id` counts toward the Fig. 9 conv-layer metric: a CONV
/// layer that is a PIM candidate.
fn is_candidate_conv(graph: &Graph, id: NodeId) -> bool {
    matches!(graph.node(id).op, Op::Conv2d(_)) && graph.is_pim_candidate(id)
}

/// What a region's riders — every member but its candidate convs (DW
/// convs, element-wise) — would cost anyway, at `cost_of` each. Only the
/// rest of a region's cost is attributed to the conv-layer metric.
fn rider_cost(graph: &Graph, nodes: &[NodeId], cost_of: impl FnMut(NodeId) -> f64) -> f64 {
    nodes
        .iter()
        .copied()
        .filter(|&nid| !is_candidate_conv(graph, nid))
        .map(cost_of)
        .sum()
}

/// Per-node outcome of the profiling phase (lines 1-7 of Algorithm 1),
/// computed independently per node so the phase parallelizes.
struct NodeOutcome {
    cost: f64,
    decision: Decision,
    candidate: bool,
    profile: Option<LayerProfile>,
}

/// A multi-node step the DP can take — a pipelined chain or a fused
/// group, contiguous in the walk — with its priced cost and the decision
/// that records it.
struct Region {
    nodes: Vec<NodeId>,
    cost: f64,
    decision: Decision,
}

/// Builder for the execution mode and task size search (Algorithm 1),
/// the one entry point to it:
///
/// ```
/// use pimflow::engine::EngineConfig;
/// use pimflow::search::{Search, SearchOptions};
/// use pimflow_ir::models;
///
/// # fn main() -> pimflow::error::Result<()> {
/// let graph = models::toy();
/// let cfg = EngineConfig::pimflow();
/// let plan = Search::new(&graph, &cfg)
///     .options(SearchOptions::default())
///     .pool(2)
///     .run()?;
/// assert!(plan.predicted_us > 0.0);
/// # Ok(())
/// # }
/// ```
///
/// Unset knobs keep their defaults: [`SearchOptions::default`] for the
/// mode space, a [`WorkerPool`] sized from `PIMFLOW_JOBS` for the
/// measurement loops, a private scratch [`CostCache`], and the channel
/// mask already carried by the config.
#[derive(Debug)]
pub struct Search<'g> {
    graph: &'g Graph,
    cfg: EngineConfig,
    opts: SearchOptions,
    pool: Option<WorkerPool>,
    cache: Option<CostCache>,
}

impl<'g> Search<'g> {
    /// Starts a search over `graph` with the hardware models in `cfg`.
    pub fn new(graph: &'g Graph, cfg: &EngineConfig) -> Self {
        Search {
            graph,
            cfg: cfg.clone(),
            opts: SearchOptions::default(),
            pool: None,
            cache: None,
        }
    }

    /// Restricts the mode space per offloading mechanism (§5).
    pub fn options(mut self, opts: SearchOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Fans the measurement loops out over `jobs` workers (1 = run
    /// sequentially on the caller's thread). Without this knob the pool is
    /// sized from `PIMFLOW_JOBS`. Any width returns a byte-identical plan.
    pub fn pool(mut self, jobs: usize) -> Self {
        self.pool = Some(if jobs <= 1 {
            WorkerPool::sequential()
        } else {
            WorkerPool::new(jobs)
        });
        self
    }

    /// Backs this search with a long-lived [`CostCache`]: PIM simulations
    /// whose [`WorkloadKey`] is already in the cache are reused instead of
    /// rerun, and this search's fresh results are merged back for later
    /// callers. The handle is cheap to clone (`Arc`). Without this knob the
    /// search uses a private scratch cache, which behaves exactly like the
    /// historical per-search memo. The resulting plan is byte-identical
    /// either way.
    pub fn cache(mut self, cache: &CostCache) -> Self {
        self.cache = Some(cache.clone());
        self
    }

    /// Runs Algorithm 1 and returns the chosen plan.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Graph`] when `graph` is structurally
    /// invalid (e.g. cyclic) and no topological order exists.
    pub fn run(self) -> Result<ExecutionPlan> {
        let pool = self.pool.unwrap_or_else(WorkerPool::from_env);
        let cache = self.cache.unwrap_or_default();
        run_search(self.graph, &self.cfg, &self.opts, &pool, &cache)
    }
}

/// The search body behind the [`Search`] builder.
///
/// The per-node MD-DP profiling, the per-chain pipeline costing and the
/// per-group fusion costing fan out over `pool`; each worker profiles with
/// its own memo shard (shard-per-worker, so workers never contend on one
/// map) and results are merged in input order. Every phase reads an
/// immutable snapshot of `cache` and merges its shards back when it ends —
/// a later phase's snapshot therefore already contains every workload the
/// earlier ones priced. The returned plan is bit-identical for any pool
/// width, including [`WorkerPool::sequential`], and for any cache state.
fn run_search(
    graph: &Graph,
    cfg: &EngineConfig,
    opts: &SearchOptions,
    pool: &WorkerPool,
    cache: &CostCache,
) -> Result<ExecutionPlan> {
    let walk = TopoWalk::new(graph)?;
    let order = &walk.order;
    let n = order.len();
    let pim_available = cfg.effective_pim_channels() > 0;

    // Single-node costs: lines 1-7 of Algorithm 1, one independent task per
    // node.
    let base = cache.snapshot();
    let (outcomes, shards) = pool.map_with(
        order,
        || Profiler::new(graph, cfg, base.clone()),
        |profiler, _, &id| {
            let gpu_only = profiler.solo(id);
            if !(graph.is_pim_candidate(id) && pim_available) {
                return NodeOutcome {
                    cost: gpu_only,
                    decision: Decision::Gpu,
                    candidate: false,
                    profile: None,
                };
            }
            // Nodes whose split axis is degenerate (1x1 spatial convs in
            // squeeze-excite blocks, width-1 FCs) only offer the offload
            // endpoints.
            let splittable = match &graph.node(id).op {
                Op::Conv2d(_) => graph
                    .value(graph.node(id).output)
                    .desc
                    .as_ref()
                    .map(|d| d.shape.h() >= 2)
                    .unwrap_or(false),
                Op::Dense(a) => {
                    let rows = graph
                        .value(graph.node(id).inputs[0])
                        .desc
                        .as_ref()
                        .map(|d| d.shape.n())
                        .unwrap_or(1);
                    rows >= 2 || a.out_features >= 2
                }
                _ => false,
            };
            let ratios: Vec<u32> = if !splittable {
                vec![0, 100]
            } else {
                ratio_grid(opts)
            };
            let mut samples = Vec::with_capacity(ratios.len());
            let mut best = (100u32, gpu_only);
            for r in ratios {
                let t = profiler.mddp_cost(id, r);
                samples.push((r, t));
                if t < best.1 {
                    best = (r, t);
                }
            }
            let profile = LayerProfile {
                name: graph.node(id).name.clone(),
                samples,
                best_ratio: best.0,
                best_us: best.1,
                gpu_us: gpu_only,
            };
            let decision = if best.0 == 100 {
                Decision::Gpu
            } else {
                Decision::Split {
                    gpu_percent: best.0,
                }
            };
            NodeOutcome {
                cost: best.1,
                decision,
                candidate: true,
                profile: Some(profile),
            }
        },
    );
    // Merge the worker memo shards into the shared table (worker-index
    // order; contents are pure, so only recompute rates — never values —
    // depend on the sharding).
    cache.merge(shards.into_iter().map(Profiler::into_shard));

    let profiles: Vec<LayerProfile> = outcomes.iter().filter_map(|o| o.profile.clone()).collect();
    let single_cost: Vec<f64> = outcomes.iter().map(|o| o.cost).collect();

    // Pipeline candidates: lines 8-15, one independent task per chain
    // contiguous in the walk. Workers start from a fresh snapshot that
    // already contains the node phase's merged shards, so shared PIM
    // workloads are not re-simulated.
    let mut chain_list: Vec<(usize, Chain)> = Vec::new();
    if opts.allow_pipeline && pim_available {
        chain_list = find_chains(graph)
            .into_iter()
            .filter_map(|c| Some((walk.region_start(&c.nodes)?, c)))
            .collect();
    }
    let stages = SEARCH_PIPELINE_STAGES;
    let base = cache.snapshot();
    let (chain_costs, chain_shards) = pool.map_with(
        &chain_list,
        || Profiler::new(graph, cfg, base.clone()),
        |profiler, _, (_, chain)| profiler.pipeline_cost(chain, stages),
    );
    cache.merge(chain_shards.into_iter().map(Profiler::into_shard));

    // Fusion-group candidates: runs of PIM-eligible heavy layers whose
    // inter-layer activations can stay near the banks, contiguous in the
    // walk like chains. One independent pricing task per group; workers
    // snapshot the table the earlier phases filled.
    let mut group_list: Vec<(usize, FusionGroup)> = Vec::new();
    if opts.allow_fusion && pim_available {
        group_list = find_fusion_groups(graph)
            .into_iter()
            .filter_map(|g| Some((walk.region_start(&g.nodes)?, g)))
            .collect();
    }
    let base = cache.snapshot();
    let (group_costs, group_shards) = pool.map_with(
        &group_list,
        || Profiler::new(graph, cfg, base.clone()),
        |profiler, _, (_, group)| profiler.fused_group_cost(group),
    );
    cache.merge(group_shards.into_iter().map(Profiler::into_shard));

    // Every region option per start position: chains first, then groups,
    // so DP ties keep preferring chains.
    let mut regions: HashMap<usize, Vec<Region>> = HashMap::new();
    for ((start, chain), cost) in chain_list.into_iter().zip(chain_costs) {
        let decision = Decision::Pipeline {
            node_names: names(graph, &chain.nodes),
            stages,
        };
        regions.entry(start).or_default().push(Region {
            nodes: chain.nodes,
            cost,
            decision,
        });
    }
    for ((start, group), cost) in group_list.into_iter().zip(group_costs) {
        let decision = Decision::Fused {
            node_names: names(graph, &group.nodes),
        };
        regions.entry(start).or_default().push(Region {
            nodes: group.nodes,
            cost,
            decision,
        });
    }

    // DP combine: lines 23-28 (suffix form over the topo order). The
    // candidate set at each index is the single-node decision plus every
    // region starting there; disabling fusion removes options without
    // adding any, so the fused search's minimum can never be worse.
    let mut t = vec![0.0f64; n + 1];
    let mut choice: Vec<Option<usize>> = vec![None; n];
    for i in (0..n).rev() {
        let mut best = single_cost[i] + t[i + 1];
        for (k, region) in regions.get(&i).into_iter().flatten().enumerate() {
            let total = region.cost + t[i + region.nodes.len()];
            if total < best {
                best = total;
                choice[i] = Some(k);
            }
        }
        t[i] = best;
    }

    // Reconstruct decisions and attribute conv-layer time (Fig. 9 top).
    let mut decisions = Vec::new();
    let mut conv_layer_us = 0.0f64;
    let mut i = 0usize;
    while i < n {
        let id = order[i];
        let name = graph.node(id).name.clone();
        if let Some(k) = choice[i] {
            let region = regions
                .get_mut(&i)
                .expect("chosen region exists")
                .swap_remove(k);
            let riders = rider_cost(graph, &region.nodes, |nid| single_cost[walk.index_of[&nid]]);
            conv_layer_us += (region.cost - riders).max(0.0);
            decisions.push((name, region.decision));
            i += region.nodes.len();
        } else {
            if is_candidate_conv(graph, id) {
                conv_layer_us += single_cost[i];
            }
            // Every profiled candidate gets an explicit decision — GPU
            // included — so `ratio_distribution` counts the 100% bucket's
            // real mass (Table 2). Non-candidates always stay on GPU and
            // are omitted as before.
            if outcomes[i].candidate {
                decisions.push((name, outcomes[i].decision.clone()));
            }
            i += 1;
        }
    }

    Ok(ExecutionPlan {
        model: graph.name.clone(),
        decisions,
        profiles,
        predicted_us: t[0],
        conv_layer_us,
    })
}

/// Applies `plan` to a fresh copy of `graph`, returning the transformed
/// graph ready for the execution engine. The passes infer only the nodes
/// they append; one full [`infer_shapes`](pimflow_ir::infer_shapes) at the
/// end validates the result and re-derives every shape.
///
/// # Errors
///
/// Returns [`crate::Error::NotApplicable`] if the plan references nodes
/// that do not exist in `graph` or a decision cannot be applied (plans are
/// only valid for the graph they were computed on).
pub fn apply_plan(graph: &Graph, plan: &ExecutionPlan) -> Result<Graph> {
    let mut out = apply_decisions(graph, plan)?;
    pimflow_ir::infer_shapes(&mut out)?;
    Ok(out)
}

/// [`apply_plan`] without its closing full shape inference.
fn apply_decisions(graph: &Graph, plan: &ExecutionPlan) -> Result<Graph> {
    let mut out = graph.clone();
    let mut fused_gid = 0usize;
    for (name, decision) in &plan.decisions {
        match decision {
            Decision::Gpu => {}
            Decision::Split { gpu_percent, .. } => {
                let id = out.find_node(name).ok_or_else(|| {
                    crate::Error::NotApplicable(format!("plan references unknown node `{name}`"))
                })?;
                crate::passes::split_node(&mut out, id, *gpu_percent)?;
            }
            Decision::Fused { node_names, .. } => {
                let ids = node_names
                    .iter()
                    .map(|n| {
                        out.find_node(n).ok_or_else(|| {
                            crate::Error::NotApplicable(format!(
                                "plan references unknown node `{n}` in fusion group at `{name}`"
                            ))
                        })
                    })
                    .collect::<Result<Vec<NodeId>>>()?;
                let heavy: Vec<NodeId> = ids
                    .iter()
                    .copied()
                    .filter(|&id| crate::passes::fusion::is_fusion_heavy(&out, id))
                    .collect();
                let group = FusionGroup { nodes: ids, heavy };
                crate::passes::fuse_group(&mut out, &group, fused_gid)?;
                fused_gid += 1;
            }
            Decision::Pipeline { node_names, stages } => {
                let chain = find_chains(&out)
                    .into_iter()
                    .find(|c| named(&out, &c.nodes, node_names))
                    .ok_or_else(|| {
                        crate::Error::NotApplicable(format!(
                            "plan references unknown chain at `{name}`"
                        ))
                    })?;
                crate::passes::pipeline_chain(&mut out, &chain, *stages)?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute;
    use pimflow_ir::models;
    use pimflow_kernels::{input_tensors, run_graph};

    fn pimflow_cfg() -> EngineConfig {
        EngineConfig::pimflow()
    }

    #[test]
    fn search_produces_offload_decisions_for_toy() {
        let g = models::toy();
        let plan = Search::new(&g, &pimflow_cfg()).run().unwrap();
        assert!(
            !plan.decisions.is_empty(),
            "toy model should offload something"
        );
        assert!(plan.predicted_us > 0.0);
        assert!(!plan.profiles.is_empty());
    }

    #[test]
    fn profiles_have_eleven_samples_at_default_step() {
        let g = models::toy();
        let plan = Search::new(&g, &pimflow_cfg()).run().unwrap();
        for p in &plan.profiles {
            assert_eq!(p.samples.len(), 11, "{}", p.name);
        }
    }

    #[test]
    fn offload_only_restricts_ratios() {
        let g = models::toy();
        let opts = SearchOptions {
            offload_only: true,
            allow_pipeline: false,
            ..Default::default()
        };
        let plan = Search::new(&g, &pimflow_cfg()).options(opts).run().unwrap();
        for (_, d) in &plan.decisions {
            match d {
                Decision::Split { gpu_percent, .. } => assert_eq!(*gpu_percent, 0),
                Decision::Gpu => {}
                // A fused group is a full offload, so it is compatible
                // with the offload-only mode space.
                Decision::Fused { .. } => {}
                Decision::Pipeline { .. } => panic!("pipeline disabled"),
            }
        }
    }

    #[test]
    fn plan_applies_and_preserves_semantics() {
        let g = models::toy();
        let plan = Search::new(&g, &pimflow_cfg()).run().unwrap();
        let transformed = apply_plan(&g, &plan).unwrap();
        transformed.validate().unwrap();
        let inputs = input_tensors(&g, 5);
        let a = run_graph(&g, &inputs).unwrap();
        let b = run_graph(&transformed, &inputs).unwrap();
        assert!(
            a[0].allclose(&b[0], 1e-4),
            "diff {}",
            a[0].max_abs_diff(&b[0])
        );
    }

    /// The passes infer only the nodes they append, so on every zoo model
    /// the graph they leave is exactly what a fresh full inference derives,
    /// and `apply_plan`'s closing inference changes nothing.
    #[test]
    fn pass_shape_inference_matches_a_fresh_full_inference() {
        const ZOO: [&str; 15] = [
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
        // Decisions seen: offload, MD-DP split, fused, pipeline — one
        // pass each.
        let mut seen = [false; 4];
        let unfused = SearchOptions {
            allow_fusion: false,
            ..Default::default()
        };
        for (name, opts) in ZOO
            .iter()
            .flat_map(|name| [(name, SearchOptions::default()), (name, unfused)])
        {
            let g = models::by_name(name).expect("zoo model");
            let plan = Search::new(&g, &pimflow_cfg()).options(opts).run().unwrap();
            for (_, d) in &plan.decisions {
                match d {
                    Decision::Split { gpu_percent: 0, .. } => seen[0] = true,
                    Decision::Split { .. } => seen[1] = true,
                    Decision::Fused { .. } => seen[2] = true,
                    Decision::Pipeline { .. } => seen[3] = true,
                    Decision::Gpu => {}
                }
            }
            let passes = apply_decisions(&g, &plan).unwrap();
            let mut fresh = passes.clone();
            for id in fresh.node_ids().collect::<Vec<_>>() {
                let out = fresh.node(id).output;
                fresh.value_mut(out).desc = None;
            }
            pimflow_ir::infer_shapes(&mut fresh).unwrap();
            for id in passes.node_ids() {
                let out = passes.node(id).output;
                assert_eq!(
                    passes.value(out).desc,
                    fresh.value(out).desc,
                    "{name}: `{}`",
                    passes.node(id).name
                );
            }
            let json = pimflow_json::to_string(&fresh);
            assert_eq!(pimflow_json::to_string(&passes), json, "{name}");
            let applied = apply_plan(&g, &plan).unwrap();
            assert_eq!(pimflow_json::to_string(&applied), json, "{name}");
        }
        assert_eq!(seen, [true; 4], "decision kinds covered");
    }

    #[test]
    fn plan_execution_beats_gpu_baseline_on_toy() {
        let g = models::toy();
        let plan = Search::new(&g, &pimflow_cfg()).run().unwrap();
        let transformed = apply_plan(&g, &plan).unwrap();
        let base = execute(&g, &EngineConfig::baseline_gpu()).unwrap();
        let opt = execute(&transformed, &pimflow_cfg()).unwrap();
        assert!(
            opt.total_us < base.total_us,
            "PIMFlow {:.1}us vs baseline {:.1}us",
            opt.total_us,
            base.total_us
        );
    }

    #[test]
    fn search_is_deterministic() {
        let g = models::toy();
        let a = Search::new(&g, &pimflow_cfg()).run().unwrap();
        let b = Search::new(&g, &pimflow_cfg()).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn dp_never_worse_than_all_gpu() {
        let g = models::toy();
        let plan = Search::new(&g, &pimflow_cfg()).run().unwrap();
        let cfg = pimflow_cfg();
        let all_gpu: f64 = g
            .node_ids()
            .map(|id| nodecost::gpu_resident_us(&g, id, &cfg.gpu, cfg.gpu_channels))
            .sum();
        assert!(plan.predicted_us <= all_gpu + 1e-9);
    }

    #[test]
    fn ratio_distribution_sums_to_one() {
        let g = models::toy();
        let plan = Search::new(&g, &pimflow_cfg()).run().unwrap();
        let dist = plan.ratio_distribution();
        let total: f64 = dist.iter().map(|(_, s)| s).sum();
        if plan
            .decisions
            .iter()
            .any(|(_, d)| !matches!(d, Decision::Pipeline { .. }))
        {
            assert!((total - 1.0).abs() < 1e-9, "total {total}");
        }
    }

    #[test]
    fn ratio_grid_always_contains_both_endpoints() {
        // Regression: `(0..=100).step_by(30)` samples 0,30,60,90 and loses
        // the full-GPU endpoint whenever the step does not divide 100.
        for step in [7u32, 10, 30, 33, 100] {
            let opts = SearchOptions {
                ratio_step: step,
                ..Default::default()
            };
            let grid = ratio_grid(&opts);
            assert_eq!(*grid.first().unwrap(), 0, "step {step}");
            assert_eq!(*grid.last().unwrap(), 100, "step {step}");
            assert!(
                grid.windows(2).all(|w| w[0] < w[1]),
                "step {step}: {grid:?}"
            );
        }
        let g = models::toy();
        let opts = SearchOptions {
            ratio_step: 30,
            allow_pipeline: false,
            ..Default::default()
        };
        let plan = Search::new(&g, &pimflow_cfg()).options(opts).run().unwrap();
        for p in &plan.profiles {
            let ratios: Vec<u32> = p.samples.iter().map(|&(r, _)| r).collect();
            assert!(ratios.contains(&0), "{}: {ratios:?}", p.name);
            assert!(ratios.contains(&100), "{}: {ratios:?}", p.name);
        }
    }

    #[test]
    fn finer_ratio_step_is_never_worse_per_candidate() {
        let g = models::toy();
        let cfg = pimflow_cfg();
        let fine = Search::new(&g, &cfg).run().unwrap(); // step 10
        let coarse = Search::new(&g, &cfg)
            .options(SearchOptions {
                ratio_step: 50,
                ..Default::default()
            })
            .run()
            .unwrap();
        assert!(!fine.profiles.is_empty());
        assert_eq!(fine.profiles.len(), coarse.profiles.len());
        for (f, c) in fine.profiles.iter().zip(&coarse.profiles) {
            assert_eq!(f.name, c.name);
            // The fine grid is a superset of the coarse grid, so its
            // minimum can only be lower.
            assert!(
                f.best_us <= c.best_us + 1e-9,
                "{}: fine {} > coarse {}",
                f.name,
                f.best_us,
                c.best_us
            );
        }
    }

    #[test]
    fn ratio_distribution_counts_gpu_resident_candidates() {
        // Regression: candidates the search leaves on the GPU must carry an
        // explicit Decision::Gpu entry and fill the 100% bucket; they used
        // to be dropped from `decisions` entirely, so Table 2 shares missed
        // the bucket's real mass.
        let g = models::toy();
        let mut cfg = pimflow_cfg();
        // Make offloading hopeless: a PIM clocked at 1 Hz takes an eternity
        // over any row, so the best ratio is 100 for every candidate.
        cfg.pim.clock_ghz = 1e-9;
        let opts = SearchOptions {
            allow_pipeline: false,
            ..Default::default()
        };
        let plan = Search::new(&g, &cfg).options(opts).run().unwrap();
        assert!(!plan.profiles.is_empty());
        assert_eq!(
            plan.decisions.len(),
            plan.profiles.len(),
            "one explicit decision per profiled candidate"
        );
        assert!(plan
            .decisions
            .iter()
            .all(|(_, d)| matches!(d, Decision::Gpu)));
        let dist = plan.ratio_distribution();
        let total: f64 = dist.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        let full_gpu = dist.iter().find(|&&(r, _)| r == 100).unwrap().1;
        assert!((full_gpu - 1.0).abs() < 1e-9, "100%% bucket {full_gpu}");
    }

    #[test]
    fn off_grid_ratios_still_sum_to_one() {
        // A non-divisor step picks ratios outside the 10% reporting grid;
        // the distribution must include them instead of dropping them.
        let plan = ExecutionPlan {
            model: "synthetic".into(),
            decisions: vec![
                ("a".into(), Decision::Split { gpu_percent: 33 }),
                ("b".into(), Decision::Gpu),
            ],
            profiles: Vec::new(),
            predicted_us: 1.0,
            conv_layer_us: 0.0,
        };
        let dist = plan.ratio_distribution();
        let total: f64 = dist.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        assert!(dist.iter().any(|&(r, s)| r == 33 && (s - 0.5).abs() < 1e-9));
    }

    #[test]
    fn parallel_pools_match_sequential_on_toy() {
        let g = models::toy();
        let opts = SearchOptions::default();
        let baseline = Search::new(&g, &pimflow_cfg())
            .options(opts)
            .pool(1)
            .run()
            .unwrap();
        let expected = pimflow_json::to_string(&baseline);
        for jobs in [2usize, 8] {
            let plan = Search::new(&g, &pimflow_cfg())
                .options(opts)
                .pool(jobs)
                .run()
                .unwrap();
            assert_eq!(pimflow_json::to_string(&plan), expected, "jobs {jobs}");
        }
    }

    #[test]
    fn cached_search_matches_cold_and_reuses_entries() {
        let g = models::toy();
        let cold = Search::new(&g, &pimflow_cfg()).run().unwrap();
        let cache = crate::costcache::CostCache::new();
        let warm1 = Search::new(&g, &pimflow_cfg()).cache(&cache).run().unwrap();
        let after_first = cache.counters();
        assert!(after_first.entries > 0, "search must populate the cache");
        assert!(after_first.misses > 0);
        let warm2 = Search::new(&g, &pimflow_cfg()).cache(&cache).run().unwrap();
        let after_second = cache.counters();
        let expected = pimflow_json::to_string(&cold);
        assert_eq!(pimflow_json::to_string(&warm1), expected);
        assert_eq!(pimflow_json::to_string(&warm2), expected);
        assert_eq!(
            after_second.entries, after_first.entries,
            "a repeat search must add no entries"
        );
        assert_eq!(after_second.misses, after_first.misses);
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn cached_repair_matches_uncached_repair() {
        let g = models::toy();
        let cfg = pimflow_cfg();
        let plan = Search::new(&g, &cfg).run().unwrap();
        let mask = ChannelMask::from_bits(0b11);
        let plain = plan.repair(&g, &cfg, mask, None).unwrap();
        let cache = crate::costcache::CostCache::new();
        let cached = plan.repair(&g, &cfg, mask, Some(&cache)).unwrap();
        assert_eq!(
            pimflow_json::to_string(&plain),
            pimflow_json::to_string(&cached)
        );
        let first = cache.counters();
        assert!(first.entries > 0, "repair must feed the cache");
        // A second repair under the same mask is answered from the table.
        let again = plan.repair(&g, &cfg, mask, Some(&cache)).unwrap();
        assert_eq!(
            pimflow_json::to_string(&plain),
            pimflow_json::to_string(&again)
        );
        let second = cache.counters();
        assert_eq!(second.entries, first.entries);
        assert_eq!(second.misses, first.misses);
        assert!(second.hits > first.hits);
    }

    #[test]
    fn masked_out_search_keeps_everything_on_gpu() {
        let g = models::toy();
        let cfg = pimflow_cfg();
        let plan = Search::new(&g, &cfg.with_mask(ChannelMask::from_bits(0)))
            .run()
            .unwrap();
        assert!(plan
            .decisions
            .iter()
            .all(|(_, d)| matches!(d, Decision::Gpu)));
    }

    #[test]
    fn repair_with_full_mask_is_identity() {
        let g = models::toy();
        let cfg = pimflow_cfg();
        let plan = Search::new(&g, &cfg).run().unwrap();
        let repaired = plan.repair(&g, &cfg, ChannelMask::all(), None).unwrap();
        assert_eq!(
            pimflow_json::to_string(&plan),
            pimflow_json::to_string(&repaired)
        );
    }

    #[test]
    fn repair_never_beats_the_original_prediction() {
        let g = models::toy();
        let cfg = pimflow_cfg();
        let plan = Search::new(&g, &cfg).run().unwrap();
        // Kill all but one channel.
        let mask = ChannelMask::from_bits(0b1);
        let repaired = plan.repair(&g, &cfg, mask, None).unwrap();
        assert!(
            repaired.predicted_us >= plan.predicted_us - 1e-9,
            "repaired {} < original {}",
            repaired.predicted_us,
            plan.predicted_us
        );
    }

    #[test]
    fn repair_under_empty_mask_falls_back_to_gpu_everywhere() {
        let g = models::toy();
        let cfg = pimflow_cfg();
        let plan = Search::new(&g, &cfg).run().unwrap();
        let repaired = plan
            .repair(&g, &cfg, ChannelMask::from_bits(0), None)
            .unwrap();
        assert!(repaired
            .decisions
            .iter()
            .all(|(_, d)| matches!(d, Decision::Gpu)));
        // A plan with zero PIM work must execute without touching PIM.
        let transformed = apply_plan(&g, &repaired).unwrap();
        let report = execute(&transformed, &cfg.with_mask(ChannelMask::from_bits(0))).unwrap();
        assert!(report.pim_channel_busy_us.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn repair_rejects_plans_for_other_graphs() {
        let g = models::toy();
        let cfg = pimflow_cfg();
        let mut plan = Search::new(&g, &cfg).run().unwrap();
        plan.decisions.push(("no-such-node".into(), Decision::Gpu));
        let err = plan.repair(&g, &cfg, ChannelMask::from_bits(0b1), None);
        assert!(matches!(err, Err(crate::Error::NotApplicable(_))));
    }

    #[test]
    fn plan_serializes_roundtrip() {
        let g = models::toy();
        let plan = Search::new(&g, &pimflow_cfg()).run().unwrap();
        let json = pimflow_json::to_string(&plan);
        let back: ExecutionPlan = pimflow_json::from_str(&json).unwrap();
        assert_eq!(plan.model, back.model);
        assert_eq!(plan.decisions, back.decisions);
        assert_eq!(plan.profiles.len(), back.profiles.len());
    }
}
