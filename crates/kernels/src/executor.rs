//! Graph executor: evaluates a [`Graph`] over concrete tensors.
//!
//! Parameters are regenerated deterministically from each node's
//! `weight_key` (see [`crate::params`]), so execution is a pure function of
//! `(graph structure, weight keys, inputs)`. Two graphs that are supposed to
//! be semantically equivalent — e.g. before and after the MD-DP split pass —
//! can therefore be compared by running both on the same input.
//!
//! # Wave-scheduled execution
//!
//! [`run_graph_with`] partitions the topological order into dependency
//! *waves* (see [`crate::schedule::ExecPlan`]) and, when more than one
//! worker is configured, evaluates each wave on a scoped worker pool:
//!
//! * a wave with **one** dominant kernel shards that kernel across workers
//!   (row ranges for GEMM-style convolutions and dense layers, channel
//!   ranges for depthwise convolutions);
//! * a wave with **several** heavy kernels runs them node-parallel, merged
//!   back in wave order.
//!
//! Per-output-element accumulation order is identical at any split, so the
//! outputs are **byte-identical** to sequential execution at every
//! `PIMFLOW_JOBS` width.
//!
//! # Liveness-based memory plan
//!
//! With [`MemoryMode::Drop`] or [`MemoryMode::Arena`] the executor consults
//! the graph's liveness analysis and drops every intermediate tensor at the
//! end of the wave that consumed it last, instead of retaining the whole
//! environment until the run ends. `Arena` additionally recycles the freed
//! buffers through a size-bucketed free list ([`crate::schedule::Arena`])
//! and lets element-wise nodes *steal* a dying input's buffer outright. All
//! allocation and free decisions are made on the main thread in wave order,
//! so every counter in [`ExecStats`] is independent of the worker width.
//!
//! # Staging parameters
//!
//! Each wave's nodes are *staged* before they run: output shape checked,
//! parameters fetched. A conv or dense node's weight matrix is staged in
//! the form its [`GemmPath`] reads. The fast path generates it straight
//! into the micro-kernel's packed panels
//! ([`crate::params::param_cols_packed`]), so no row-major matrix is built
//! and nothing is repacked. The exact path generates the row-major matrix
//! its scalar loop reads. Weight keys shared by several nodes (MD-DP and
//! pipeline twins) are generated once per run and memoized in that form.

use crate::im2col::KernelError;
use crate::microkernel::{GemmPath, PackedB};
use crate::ops;
use crate::params::{param_cols, param_cols_packed, param_vec, ParamRole};
use crate::schedule::{Arena, ExecPlan};
use crate::tensor::Tensor;
use pimflow_ir::{Graph, GraphError, Node, Op, Shape, ValueId};
use pimflow_pool::{chunk_ranges, WorkerPool};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Minimum multiply-accumulate count for a node to be worth sharding or
/// running node-parallel; anything lighter is evaluated inline on the main
/// thread where the dispatch overhead would dominate.
pub const SHARD_MIN_MACS: usize = 1 << 18;

/// Errors produced while executing a graph.
#[derive(Debug)]
pub enum ExecError {
    /// The graph itself is malformed.
    Graph(GraphError),
    /// An input tensor was missing or had the wrong shape.
    Input(String),
    /// A kernel rejected its operands.
    Kernel(KernelError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Graph(e) => write!(f, "graph error: {e}"),
            ExecError::Input(m) => write!(f, "input error: {m}"),
            ExecError::Kernel(e) => write!(f, "kernel error: {e}"),
        }
    }
}

impl Error for ExecError {}

impl From<GraphError> for ExecError {
    fn from(e: GraphError) -> Self {
        ExecError::Graph(e)
    }
}

impl From<KernelError> for ExecError {
    fn from(e: KernelError) -> Self {
        ExecError::Kernel(e)
    }
}

/// What the executor does with intermediate tensors once their last
/// consumer has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryMode {
    /// Keep every value alive until the run ends (the legacy behaviour).
    Retain,
    /// Drop dead intermediates at wave boundaries; every output still gets
    /// a fresh allocation.
    Drop,
    /// Drop dead intermediates *and* recycle their buffers through a
    /// size-bucketed arena; element-wise nodes steal dying input buffers.
    #[default]
    Arena,
}

/// Execution configuration for [`run_graph_with`].
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Worker width for wave and intra-op parallelism. `None` reads the
    /// `PIMFLOW_JOBS` environment variable (falling back to the host's
    /// available parallelism), mirroring the search pipeline.
    pub jobs: Option<usize>,
    /// Intermediate-tensor policy; defaults to [`MemoryMode::Arena`].
    pub memory: MemoryMode,
    /// GEMM kernel path for conv and dense nodes. `None` reads the
    /// `PIMFLOW_EXACT_KERNELS` environment variable (defaulting to the
    /// register-blocked [`GemmPath::Fast`] micro-kernel); `Some` pins the
    /// path explicitly. Either path is byte-identical to itself at every
    /// worker width; [`GemmPath::Exact`] additionally reproduces the
    /// pre-micro-kernel executor bit for bit.
    pub gemm: Option<GemmPath>,
}

/// Counters describing one [`run_graph_with`] call.
///
/// Everything here is decided on the main thread in wave order, so for a
/// given `(graph, inputs, memory mode)` every field is identical at every
/// worker width except `sharded_nodes`/`node_parallel_nodes` (which count
/// what the pool actually did).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Nodes executed.
    pub nodes: usize,
    /// Dependency waves in the schedule.
    pub waves: usize,
    /// Peak bytes of simultaneously-live tensors (inputs + intermediates).
    pub peak_live_bytes: usize,
    /// Total bytes of all tensors ever inserted — what
    /// [`MemoryMode::Retain`] would hold at the end of the run.
    pub retained_bytes: usize,
    /// Intermediates dropped at wave boundaries.
    pub dropped_tensors: usize,
    /// Dying input buffers taken over in place by element-wise nodes.
    pub stolen_buffers: usize,
    /// Output buffers served from the arena's free list.
    pub arena_reuses: u64,
    /// Output buffers that had to be freshly allocated.
    pub arena_allocs: u64,
    /// Bytes still parked in the arena when the run finished.
    pub arena_held_bytes: usize,
    /// Heavy nodes sharded across workers (intra-op parallelism).
    pub sharded_nodes: usize,
    /// Heavy nodes evaluated node-parallel within a wave.
    pub node_parallel_nodes: usize,
    /// Parameter fetches served from the twin-node cache.
    pub param_cache_hits: usize,
    /// Parameter fetches that generated vectors (cached or transient).
    pub param_cache_misses: usize,
}

/// Outputs plus execution statistics from [`run_graph_with`].
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// One tensor per graph output, in graph-output order.
    pub outputs: Vec<Tensor>,
    /// Counters for this run.
    pub stats: ExecStats,
}

/// Cache key of one generated parameter tensor: weight key, role and the
/// column window realized.
type ParamKey = (u64, ParamRole, usize, usize);

/// Memoizes parameters for *twin* weight keys — keys shared by more than
/// one node (pipelined batch halves, MD-DP splits), where regenerating per
/// node would redo identical RNG work. Unique keys stay transient so a big
/// model's parameters are never all resident at once. Conv and dense
/// weights are memoized in the form their GEMM path reads.
struct ParamCache {
    twins: HashSet<u64>,
    vectors: HashMap<ParamKey, Arc<Vec<f32>>>,
    packed: HashMap<ParamKey, Arc<PackedB>>,
    hits: usize,
    misses: usize,
}

impl ParamCache {
    fn new(graph: &Graph, order: &[pimflow_ir::NodeId]) -> Self {
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for &id in order {
            let node = graph.node(id);
            if matches!(node.op, Op::Conv2d(_) | Op::Dense(_) | Op::BatchNorm) {
                *counts.entry(node.weight_key).or_insert(0) += 1;
            }
        }
        ParamCache {
            twins: counts
                .into_iter()
                .filter_map(|(k, n)| (n > 1).then_some(k))
                .collect(),
            vectors: HashMap::new(),
            packed: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the parameter vector for `(key, role)` over the column
    /// window `window` (full width for unsliced nodes), generating it with
    /// `gen` on a miss.
    fn fetch(
        &mut self,
        key: u64,
        role: ParamRole,
        window: (usize, usize),
        gen: impl FnOnce() -> Vec<f32>,
    ) -> Arc<Vec<f32>> {
        let twin = self.twins.contains(&key);
        let counts = (&mut self.hits, &mut self.misses);
        let ck = (key, role, window.0, window.1);
        memo(twin, &mut self.vectors, counts, ck, gen)
    }

    /// [`ParamCache::fetch`] for a weight matrix generated packed.
    fn fetch_packed(
        &mut self,
        key: u64,
        window: (usize, usize),
        gen: impl FnOnce() -> PackedB,
    ) -> Arc<PackedB> {
        let twin = self.twins.contains(&key);
        let counts = (&mut self.hits, &mut self.misses);
        let ck = (key, ParamRole::Weight, window.0, window.1);
        memo(twin, &mut self.packed, counts, ck, gen)
    }
}

/// One cache lookup: a twin key is served from, or stored in, `entries`;
/// a unique key is generated transiently. Counts the hit or miss.
fn memo<T>(
    twin: bool,
    entries: &mut HashMap<ParamKey, Arc<T>>,
    (hits, misses): (&mut usize, &mut usize),
    ck: ParamKey,
    gen: impl FnOnce() -> T,
) -> Arc<T> {
    if !twin {
        *misses += 1;
        return Arc::new(gen());
    }
    if let Some(v) = entries.get(&ck) {
        *hits += 1;
        return v.clone();
    }
    *misses += 1;
    let v = Arc::new(gen());
    entries.insert(ck, v.clone());
    v
}

/// A node staged for execution: output shape validated, parameters fetched.
struct Staged<'g> {
    node: &'g Node,
    out_shape: Shape,
    kind: Kind,
    macs: usize,
}

/// A conv or dense weight matrix, in the form its [`GemmPath`] reads. Both
/// are built once at staging and shared by every row block and sharded
/// worker.
enum Weights {
    /// Panels for the micro-kernel ([`GemmPath::Fast`]), generated straight
    /// into packed form.
    Packed(Arc<PackedB>),
    /// The row-major `[fan_in, out]` matrix for the scalar loop
    /// ([`GemmPath::Exact`]).
    RowMajor(Arc<Vec<f32>>),
}

enum Kind {
    Conv {
        w: Weights,
        b: Arc<Vec<f32>>,
    },
    Depthwise {
        w: Arc<Vec<f32>>,
        b: Arc<Vec<f32>>,
    },
    Dense {
        w: Weights,
        b: Arc<Vec<f32>>,
    },
    Bn {
        scale: Arc<Vec<f32>>,
        shift: Arc<Vec<f32>>,
    },
    Simple,
}

impl Staged<'_> {
    /// Worth handing to the pool: a dominant kernel with enough MACs to
    /// amortize dispatch.
    fn heavy(&self) -> bool {
        !matches!(self.kind, Kind::Bn { .. } | Kind::Simple) && self.macs >= SHARD_MIN_MACS
    }
}

/// Weight/bias for a CONV (groups = 1) or FC node, honouring an optional
/// [`ParamView`]: a node split along its output axis sees exactly columns
/// `begin..end` of the original `[fan_in, orig_out]` matrix, generated
/// directly without materializing the full matrix — packed on the fast
/// path ([`param_cols_packed`]), row-major on the exact one
/// ([`param_cols`]).
///
/// [`ParamView`]: pimflow_ir::ParamView
fn gemm_params(
    cache: &mut ParamCache,
    key: u64,
    fan_in: usize,
    out: usize,
    view: Option<&pimflow_ir::ParamView>,
    gemm: GemmPath,
) -> (Weights, Arc<Vec<f32>>) {
    let (row_len, begin, end) = match view {
        None => (out, 0, out),
        Some(v) => {
            assert_eq!(
                v.len(),
                out,
                "param view width must match node output width"
            );
            (v.orig_out, v.begin, v.end)
        }
    };
    let window = (begin, end);
    let w = match gemm {
        GemmPath::Fast => Weights::Packed(cache.fetch_packed(key, window, || {
            param_cols_packed(key, ParamRole::Weight, fan_in, row_len, begin, end, fan_in)
        })),
        GemmPath::Exact => Weights::RowMajor(cache.fetch(key, ParamRole::Weight, window, || {
            param_cols(key, ParamRole::Weight, fan_in, row_len, begin, end, fan_in)
        })),
    };
    let b = cache.fetch(key, ParamRole::Bias, window, || {
        param_cols(key, ParamRole::Bias, 1, row_len, begin, end, fan_in)
    });
    (w, b)
}

/// Validates a node against its input shapes, computes its output shape,
/// and fetches its parameters.
fn stage<'g>(
    graph: &'g Graph,
    id: pimflow_ir::NodeId,
    env: &[Option<Tensor>],
    cache: &mut ParamCache,
    gemm: GemmPath,
) -> Result<Staged<'g>, ExecError> {
    let node = graph.node(id);
    let shape_of = |i: usize| -> &Shape {
        env[node.inputs[i].index()]
            .as_ref()
            .expect("wave order guarantees inputs are computed")
            .shape()
    };
    let xs = shape_of(0);
    let key = node.weight_key;
    let (out_shape, kind, macs) = match &node.op {
        Op::Conv2d(a) => {
            let out_shape = ops::conv2d_out_shape(xs, a)?;
            let ic = xs.c();
            if a.groups > 1 {
                let fan_in = a.kernel.h * a.kernel.w;
                let w = cache.fetch(key, ParamRole::Weight, (0, a.out_channels), || {
                    param_vec(key, ParamRole::Weight, fan_in * ic, fan_in)
                });
                let b = cache.fetch(key, ParamRole::Bias, (0, a.out_channels), || {
                    param_vec(key, ParamRole::Bias, a.out_channels, fan_in)
                });
                let macs = out_shape.numel() * fan_in;
                (out_shape, Kind::Depthwise { w, b }, macs)
            } else {
                let fan_in = a.kernel.h * a.kernel.w * ic;
                let view = node.param_view.as_ref();
                let (w, b) = gemm_params(cache, key, fan_in, a.out_channels, view, gemm);
                let macs = out_shape.numel() * fan_in;
                (out_shape, Kind::Conv { w, b }, macs)
            }
        }
        Op::Dense(a) => {
            if xs.rank() != 2 {
                return Err(KernelError::ShapeMismatch(format!(
                    "dense input must be 2-D, got {xs}"
                ))
                .into());
            }
            let in_f = xs.c();
            let view = node.param_view.as_ref();
            let (w, b) = gemm_params(cache, key, in_f, a.out_features, view, gemm);
            let out_shape = Shape::rf(xs.n(), a.out_features);
            let macs = out_shape.numel() * in_f;
            (out_shape, Kind::Dense { w, b }, macs)
        }
        Op::BatchNorm => {
            let c = xs.c();
            let scale = cache.fetch(key, ParamRole::BnScale, (0, c), || {
                param_vec(key, ParamRole::BnScale, c, 1)
            });
            let shift = cache.fetch(key, ParamRole::BnShift, (0, c), || {
                param_vec(key, ParamRole::BnShift, c, 1)
            });
            (xs.clone(), Kind::Bn { scale, shift }, 0)
        }
        Op::Activation(_) | Op::Identity => (xs.clone(), Kind::Simple, 0),
        Op::Add => {
            let bs = shape_of(1);
            if xs != bs {
                return Err(
                    KernelError::ShapeMismatch(format!("add operands {xs} vs {bs}")).into(),
                );
            }
            (xs.clone(), Kind::Simple, 0)
        }
        Op::Mul => {
            let bs = shape_of(1);
            let broadcast = xs.rank() == 4
                && bs.rank() == 4
                && (bs.h(), bs.w()) == (1, 1)
                && xs.c() == bs.c()
                && xs.n() == bs.n();
            if xs != bs && !broadcast {
                return Err(KernelError::ShapeMismatch(format!(
                    "mul operands {xs} vs {bs} (not equal, not [N,1,1,C] broadcast)"
                ))
                .into());
            }
            (xs.clone(), Kind::Simple, 0)
        }
        Op::Pool(a) => (ops::pool_out_shape(xs, a)?, Kind::Simple, 0),
        Op::GlobalAvgPool => (Shape::nhwc(xs.n(), 1, 1, xs.c()), Kind::Simple, 0),
        Op::Pad(a) => (
            Shape::nhwc(xs.n(), xs.h() + a.extra_h(), xs.w() + a.extra_w(), xs.c()),
            Kind::Simple,
            0,
        ),
        Op::Slice(a) => {
            if a.axis >= xs.rank() || a.is_empty() || a.end > xs.dim(a.axis) {
                return Err(KernelError::ShapeMismatch(format!(
                    "slice {}..{} along axis {} of {xs}",
                    a.begin, a.end, a.axis
                ))
                .into());
            }
            (xs.with_dim(a.axis, a.len()), Kind::Simple, 0)
        }
        Op::Concat(a) => {
            let shapes: Vec<&Shape> = (0..node.inputs.len()).map(shape_of).collect();
            (ops::concat_out_shape(&shapes, a.axis)?, Kind::Simple, 0)
        }
        Op::Flatten => (Shape::rf(xs.n(), xs.numel() / xs.n()), Kind::Simple, 0),
        Op::Upsample { factor } => {
            if *factor == 0 {
                return Err(KernelError::Unsupported("upsample factor 0".into()).into());
            }
            (
                Shape::nhwc(xs.n(), xs.h() * factor, xs.w() * factor, xs.c()),
                Kind::Simple,
                0,
            )
        }
    };
    Ok(Staged {
        node,
        out_shape,
        kind,
        macs,
    })
}

/// Mutable execution state: the value environment plus the memory plan.
struct Runner {
    mode: MemoryMode,
    env: Vec<Option<Tensor>>,
    /// Remaining input-slot uses per value; 0 means dead (or stolen).
    remaining: Vec<usize>,
    /// Graph outputs — never dropped or stolen.
    sticky: Vec<bool>,
    arena: Arena,
    /// Reusable im2col scratch for inline convolutions.
    scratch: Vec<f32>,
    live_bytes: usize,
    stats: ExecStats,
}

impl Runner {
    /// A zero-filled output tensor, recycled through the arena when the
    /// mode allows.
    fn alloc(&mut self, shape: &Shape) -> Tensor {
        let numel = shape.numel();
        let buf = if self.mode == MemoryMode::Arena {
            self.arena.take(numel)
        } else {
            vec![0.0; numel]
        };
        Tensor::from_vec(shape.clone(), buf)
    }

    /// Publishes a value and updates the live/peak accounting.
    fn insert(&mut self, v: ValueId, t: Tensor) {
        let bytes = t.size_bytes();
        self.live_bytes += bytes;
        self.stats.retained_bytes += bytes;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.live_bytes);
        self.env[v.index()] = Some(t);
    }

    /// Removes a value from the environment (for stealing or dropping).
    fn take_value(&mut self, v: ValueId) -> Tensor {
        let t = self.env[v.index()].take().expect("value must be live");
        self.live_bytes -= t.size_bytes();
        t
    }

    /// True if `v`'s buffer may be taken over in place: arena mode, not a
    /// graph output, and this is its single remaining use.
    fn can_steal(&self, v: ValueId) -> bool {
        self.mode == MemoryMode::Arena
            && !self.sticky[v.index()]
            && self.remaining[v.index()] == 1
            && self.env[v.index()].is_some()
    }

    /// Takes over `v`'s buffer for in-place evaluation.
    fn steal(&mut self, v: ValueId) -> Tensor {
        let t = self.take_value(v);
        self.remaining[v.index()] = 0;
        self.stats.stolen_buffers += 1;
        t
    }

    /// Drops `v` if it is live, returning its buffer to the arena.
    fn drop_value(&mut self, v: ValueId) {
        if self.env[v.index()].is_none() {
            return;
        }
        let t = self.take_value(v);
        self.stats.dropped_tensors += 1;
        if self.mode == MemoryMode::Arena {
            self.arena.give(t.into_data());
        }
    }

    /// Wave-boundary liveness update: consume one use per input slot of
    /// every node in the wave, dropping values whose count reaches zero,
    /// plus any output nobody consumes.
    fn finish_wave(&mut self, staged: &[Staged<'_>]) {
        if self.mode == MemoryMode::Retain {
            return;
        }
        for s in staged {
            for &v in &s.node.inputs {
                let i = v.index();
                if self.remaining[i] == 0 {
                    continue; // stolen mid-wave, or freed via another slot
                }
                self.remaining[i] -= 1;
                if self.remaining[i] == 0 && !self.sticky[i] {
                    self.drop_value(v);
                }
            }
            let o = s.node.output;
            if self.remaining[o.index()] == 0 && !self.sticky[o.index()] {
                self.drop_value(o); // dead on arrival: no consumers
            }
        }
    }

    /// Evaluates one node inline on the main thread.
    fn eval_inline(&mut self, s: &Staged<'_>) -> Result<(), ExecError> {
        let node = s.node;
        let in0 = node.inputs[0];
        match (&node.op, &s.kind) {
            (Op::Conv2d(a), Kind::Conv { w, b }) => {
                let mut out = self.alloc(&s.out_shape);
                let rows = s.out_shape.numel() / a.out_channels;
                let x = self.env[in0.index()].as_ref().expect("live input");
                conv_rows(x, w, b, a, 0..rows, &mut self.scratch, out.data_mut())?;
                self.insert(node.output, out);
            }
            (Op::Conv2d(a), Kind::Depthwise { w, b }) => {
                let mut out = self.alloc(&s.out_shape);
                let c = s.out_shape.c();
                let x = self.env[in0.index()].as_ref().expect("live input");
                ops::conv2d_direct_channels_into(x, w, b, a, 0..c, out.data_mut());
                self.insert(node.output, out);
            }
            (Op::Dense(a), Kind::Dense { w, b }) => {
                let mut out = self.alloc(&s.out_shape);
                let x = self.env[in0.index()].as_ref().expect("live input");
                dense_rows(x, w, b, a, 0..s.out_shape.n(), out.data_mut());
                self.insert(node.output, out);
            }
            (Op::BatchNorm, Kind::Bn { scale, shift }) => {
                let mut t = self.copy_or_steal(in0, &s.out_shape);
                ops::batch_norm_assign(&mut t, scale, shift);
                self.insert(node.output, t);
            }
            (Op::Activation(k), Kind::Simple) => {
                let mut t = self.copy_or_steal(in0, &s.out_shape);
                ops::activation_inplace(&mut t, *k);
                self.insert(node.output, t);
            }
            (Op::Add, Kind::Simple) => {
                let mut t = self.copy_or_steal(in0, &s.out_shape);
                let rhs = self.env[node.inputs[1].index()]
                    .as_ref()
                    .expect("live input");
                ops::add_assign(&mut t, rhs)?;
                self.insert(node.output, t);
            }
            (Op::Mul, Kind::Simple) => {
                let mut t = self.copy_or_steal(in0, &s.out_shape);
                let rhs = self.env[node.inputs[1].index()]
                    .as_ref()
                    .expect("live input");
                ops::mul_assign(&mut t, rhs)?;
                self.insert(node.output, t);
            }
            (Op::Identity, Kind::Simple) => {
                let t = self.copy_or_steal(in0, &s.out_shape);
                self.insert(node.output, t);
            }
            (Op::Flatten, Kind::Simple) => {
                // A flatten is a reshape: when the input dies here, rewrap
                // its buffer with the new shape at zero cost.
                let t = if self.can_steal(in0) {
                    Tensor::from_vec(s.out_shape.clone(), self.steal(in0).into_data())
                } else {
                    let mut out = self.alloc(&s.out_shape);
                    let x = self.env[in0.index()].as_ref().expect("live input");
                    out.data_mut().copy_from_slice(x.data());
                    out
                };
                self.insert(node.output, t);
            }
            (Op::Pool(a), Kind::Simple) => {
                let mut out = self.alloc(&s.out_shape);
                let x = self.env[in0.index()].as_ref().expect("live input");
                ops::pool_into(x, a, &mut out);
                self.insert(node.output, out);
            }
            (Op::GlobalAvgPool, Kind::Simple) => {
                let mut out = self.alloc(&s.out_shape);
                let x = self.env[in0.index()].as_ref().expect("live input");
                ops::gap_into(x, &mut out);
                self.insert(node.output, out);
            }
            (Op::Pad(a), Kind::Simple) => {
                let mut out = self.alloc(&s.out_shape);
                let x = self.env[in0.index()].as_ref().expect("live input");
                ops::pad_into(x, a, &mut out);
                self.insert(node.output, out);
            }
            (Op::Slice(a), Kind::Simple) => {
                let mut out = self.alloc(&s.out_shape);
                let x = self.env[in0.index()].as_ref().expect("live input");
                ops::slice_into(x, a, &mut out);
                self.insert(node.output, out);
            }
            (Op::Concat(a), Kind::Simple) => {
                let mut out = self.alloc(&s.out_shape);
                let tensors: Vec<&Tensor> = node
                    .inputs
                    .iter()
                    .map(|v| self.env[v.index()].as_ref().expect("live input"))
                    .collect();
                ops::concat_into(&tensors, a.axis, &mut out);
                self.insert(node.output, out);
            }
            (Op::Upsample { factor }, Kind::Simple) => {
                let mut out = self.alloc(&s.out_shape);
                let x = self.env[in0.index()].as_ref().expect("live input");
                ops::upsample_into(x, *factor, &mut out);
                self.insert(node.output, out);
            }
            _ => unreachable!("op/kind mismatch in staging"),
        }
        Ok(())
    }

    /// The input tensor, either stolen in place (arena mode, last use) or
    /// copied into a recycled buffer.
    fn copy_or_steal(&mut self, v: ValueId, shape: &Shape) -> Tensor {
        if self.can_steal(v) {
            self.steal(v)
        } else {
            let mut out = self.alloc(shape);
            let x = self.env[v.index()].as_ref().expect("live input");
            out.data_mut().copy_from_slice(x.data());
            out
        }
    }

    /// Shards a single heavy node across the pool: row ranges for
    /// conv/dense, channel ranges for depthwise. Bit-identical to inline
    /// evaluation because per-element accumulation order is split-invariant.
    fn eval_sharded(&mut self, s: &Staged<'_>, pool: &WorkerPool) -> Result<(), ExecError> {
        let node = s.node;
        let mut out = self.alloc(&s.out_shape);
        let x = self.env[node.inputs[0].index()]
            .as_ref()
            .expect("live input");
        match (&node.op, &s.kind) {
            (Op::Conv2d(a), Kind::Conv { w, b }) => {
                let oc = a.out_channels;
                let rows = s.out_shape.numel() / oc;
                let items = split_rows(out.data_mut(), rows, oc, pool.jobs());
                let (results, _) =
                    pool.map_consume_with(items, Vec::new, |scratch, _i, (r, slice)| {
                        conv_rows(x, w, b, a, r, scratch, slice)
                    });
                for r in results {
                    r?;
                }
            }
            (Op::Dense(a), Kind::Dense { w, b }) => {
                let items =
                    split_rows(out.data_mut(), s.out_shape.n(), a.out_features, pool.jobs());
                pool.map_consume(items, |_i, (r, slice)| dense_rows(x, w, b, a, r, slice));
            }
            (Op::Conv2d(a), Kind::Depthwise { w, b }) => {
                let (w, b) = (w.as_slice(), b.as_slice());
                let c = s.out_shape.c();
                let spatial = s.out_shape.numel() / c;
                let ranges = chunk_ranges(c, pool.jobs());
                let chunks = pool.map(&ranges, |_, r| {
                    let mut buf = vec![0.0f32; spatial * r.len()];
                    ops::conv2d_direct_channels_into(x, w, b, a, r.clone(), &mut buf);
                    buf
                });
                let od = out.data_mut();
                for (r, chunk) in ranges.iter().zip(chunks) {
                    let width = r.len();
                    for row in 0..spatial {
                        od[row * c + r.start..row * c + r.end]
                            .copy_from_slice(&chunk[row * width..(row + 1) * width]);
                    }
                }
            }
            _ => unreachable!("only heavy kernels are sharded"),
        }
        self.stats.sharded_nodes += 1;
        self.insert(node.output, out);
        Ok(())
    }

    /// Runs several heavy nodes of one wave node-parallel, each worker
    /// computing whole nodes into main-thread-allocated outputs.
    fn eval_node_parallel(
        &mut self,
        heavies: &[&Staged<'_>],
        pool: &WorkerPool,
    ) -> Result<(), ExecError> {
        let mut outs: Vec<Tensor> = heavies.iter().map(|s| self.alloc(&s.out_shape)).collect();
        {
            let env = &self.env;
            let items: Vec<(&Staged<'_>, &mut Tensor)> =
                heavies.iter().copied().zip(outs.iter_mut()).collect();
            let (results, _) = pool.map_consume_with(items, Vec::new, |scratch, _i, (s, out)| {
                let x = env[s.node.inputs[0].index()].as_ref().expect("live input");
                match (&s.node.op, &s.kind) {
                    (Op::Conv2d(a), Kind::Conv { w, b }) => {
                        let rows = s.out_shape.numel() / a.out_channels;
                        conv_rows(x, w, b, a, 0..rows, scratch, out.data_mut())
                    }
                    (Op::Conv2d(a), Kind::Depthwise { w, b }) => {
                        let c = s.out_shape.c();
                        ops::conv2d_direct_channels_into(x, w, b, a, 0..c, out.data_mut());
                        Ok(())
                    }
                    (Op::Dense(a), Kind::Dense { w, b }) => {
                        dense_rows(x, w, b, a, 0..s.out_shape.n(), out.data_mut());
                        Ok(())
                    }
                    _ => unreachable!("only heavy kernels run node-parallel"),
                }
            });
            for r in results {
                r?;
            }
        }
        self.stats.node_parallel_nodes += heavies.len();
        for (s, out) in heavies.iter().zip(outs) {
            self.insert(s.node.output, out);
        }
        Ok(())
    }
}

/// Lowered rows `rows` of a regular convolution on the path `w` is
/// staged for.
fn conv_rows(
    x: &Tensor,
    w: &Weights,
    b: &[f32],
    a: &pimflow_ir::Conv2dAttrs,
    rows: Range<usize>,
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) -> Result<(), KernelError> {
    match w {
        Weights::Packed(p) => ops::conv2d_rows_packed(x, p, b, a, rows, scratch, out),
        Weights::RowMajor(w) => ops::conv2d_rows_into(x, w, b, a, rows, scratch, out),
    }
}

/// Output rows `rows` of a dense layer on the path `w` is staged for.
fn dense_rows(
    x: &Tensor,
    w: &Weights,
    b: &[f32],
    a: &pimflow_ir::DenseAttrs,
    rows: Range<usize>,
    out: &mut [f32],
) {
    match w {
        Weights::Packed(p) => ops::dense_rows_packed(x, p, b, rows, out),
        Weights::RowMajor(w) => ops::dense_rows_into(x, w, b, a.out_features, rows, out),
    }
}

/// Splits the flat output of a row-major `[rows, width]` tensor into
/// per-worker `(row_range, slice)` pieces.
fn split_rows(
    mut data: &mut [f32],
    rows: usize,
    width: usize,
    parts: usize,
) -> Vec<(std::ops::Range<usize>, &mut [f32])> {
    let ranges = chunk_ranges(rows, parts);
    let mut out = Vec::with_capacity(ranges.len());
    for r in ranges {
        let (head, tail) = std::mem::take(&mut data).split_at_mut(r.len() * width);
        out.push((r, head));
        data = tail;
    }
    out
}

/// Runs `graph` under explicit execution options, returning outputs plus
/// [`ExecStats`].
///
/// Outputs are byte-identical for every `jobs` width and every
/// [`MemoryMode`]; only wall-clock time and the memory counters change.
/// Switching [`GemmPath`] changes conv/dense outputs within
/// [`crate::tolerance::Tolerance::kernel_default`] (the fast path
/// reassociates the bias addition); each path is itself width-invariant.
///
/// # Errors
///
/// Returns [`ExecError`] if the graph is malformed, inputs are missing or
/// mis-shaped, or a kernel rejects its operands.
///
/// # Examples
///
/// ```
/// use pimflow_ir::models;
/// use pimflow_kernels::{input_tensors, run_graph_with, ExecOptions};
///
/// let g = models::toy();
/// let inputs = input_tensors(&g, 7);
/// let out = run_graph_with(&g, &inputs, &ExecOptions::default()).unwrap();
/// assert_eq!(out.outputs[0].shape().c(), 10);
/// assert!(out.stats.peak_live_bytes <= out.stats.retained_bytes);
/// ```
pub fn run_graph_with(
    graph: &Graph,
    inputs: &[Tensor],
    opts: &ExecOptions,
) -> Result<ExecOutput, ExecError> {
    if inputs.len() != graph.inputs().len() {
        return Err(ExecError::Input(format!(
            "expected {} inputs, got {}",
            graph.inputs().len(),
            inputs.len()
        )));
    }
    for (&vid, tensor) in graph.inputs().iter().zip(inputs) {
        if let Some(desc) = &graph.value(vid).desc {
            if &desc.shape != tensor.shape() {
                return Err(ExecError::Input(format!(
                    "input `{}` expects shape {}, got {}",
                    graph.value(vid).name,
                    desc.shape,
                    tensor.shape()
                )));
            }
        }
    }

    let plan = ExecPlan::new(graph)?;
    let pool = match opts.jobs {
        Some(j) => WorkerPool::new(j),
        None => WorkerPool::from_env(),
    };
    let gemm = opts.gemm.unwrap_or_else(GemmPath::from_env);
    let mut cache = ParamCache::new(graph, &plan.liveness.order);
    let mut runner = Runner {
        mode: opts.memory,
        env: (0..graph.value_count()).map(|_| None).collect(),
        remaining: plan.liveness.use_counts.clone(),
        sticky: plan.liveness.sticky.clone(),
        arena: Arena::new(),
        scratch: Vec::new(),
        live_bytes: 0,
        stats: ExecStats {
            nodes: plan.node_count(),
            waves: plan.waves.len(),
            ..ExecStats::default()
        },
    };

    for (&vid, tensor) in graph.inputs().iter().zip(inputs) {
        runner.insert(vid, tensor.clone());
    }
    if runner.mode != MemoryMode::Retain {
        // An input nothing consumes is dead on arrival.
        for &vid in graph.inputs() {
            if runner.remaining[vid.index()] == 0 && !runner.sticky[vid.index()] {
                runner.drop_value(vid);
            }
        }
    }

    for wave in &plan.waves {
        let staged: Vec<Staged<'_>> = wave
            .iter()
            .map(|&id| stage(graph, id, &runner.env, &mut cache, gemm))
            .collect::<Result<_, _>>()?;
        let heavy_idx: Vec<usize> = staged
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.heavy().then_some(i))
            .collect();
        if pool.jobs() > 1 && heavy_idx.len() == 1 {
            runner.eval_sharded(&staged[heavy_idx[0]], &pool)?;
            for (i, s) in staged.iter().enumerate() {
                if i != heavy_idx[0] {
                    runner.eval_inline(s)?;
                }
            }
        } else if pool.jobs() > 1 && heavy_idx.len() > 1 {
            let heavies: Vec<&Staged<'_>> = heavy_idx.iter().map(|&i| &staged[i]).collect();
            runner.eval_node_parallel(&heavies, &pool)?;
            for (i, s) in staged.iter().enumerate() {
                if !heavy_idx.contains(&i) {
                    runner.eval_inline(s)?;
                }
            }
        } else {
            for s in &staged {
                runner.eval_inline(s)?;
            }
        }
        runner.finish_wave(&staged);
    }

    runner.stats.arena_reuses = runner.arena.reuses;
    runner.stats.arena_allocs = runner.arena.allocs;
    runner.stats.arena_held_bytes = runner.arena.held_bytes();
    runner.stats.param_cache_hits = cache.hits;
    runner.stats.param_cache_misses = cache.misses;

    let outputs = graph
        .outputs()
        .iter()
        .map(|v| {
            runner.env[v.index()].clone().ok_or_else(|| {
                ExecError::Input(format!("output value #{} never computed", v.index()))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ExecOutput {
        outputs,
        stats: runner.stats,
    })
}

/// Runs `graph` on the given input tensors (one per graph input, in order)
/// and returns the output tensors (one per graph output, in order), using
/// default options: worker width from `PIMFLOW_JOBS`, arena memory mode.
///
/// # Errors
///
/// Returns [`ExecError`] if the graph is malformed or inputs are missing or
/// mis-shaped.
///
/// # Examples
///
/// ```
/// use pimflow_ir::models;
/// use pimflow_kernels::{run_graph, input_tensors};
///
/// let g = models::toy();
/// let inputs = input_tensors(&g, 7);
/// let out = run_graph(&g, &inputs).unwrap();
/// assert_eq!(out[0].shape().c(), 10);
/// ```
pub fn run_graph(graph: &Graph, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
    Ok(run_graph_with(graph, inputs, &ExecOptions::default())?.outputs)
}

/// Generates deterministic input tensors for every graph input (values in
/// `[-1, 1]` seeded by `seed`), for use in equivalence tests and examples.
pub fn input_tensors(graph: &Graph, seed: u64) -> Vec<Tensor> {
    graph
        .inputs()
        .iter()
        .enumerate()
        .map(|(i, &vid)| {
            let shape = graph
                .value(vid)
                .desc
                .as_ref()
                .expect("graph inputs always carry shapes")
                .shape
                .clone();
            let mut rng =
                pimflow_rng::Rng::seed_from_u64(seed.wrapping_add(i as u64 * 0x1234_5678));
            Tensor::from_fn(shape, |_| rng.range_f32(-1.0, 1.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimflow_ir::models;

    fn run_with(g: &Graph, seed: u64, jobs: usize, memory: MemoryMode) -> ExecOutput {
        let inputs = input_tensors(g, seed);
        run_graph_with(
            g,
            &inputs,
            &ExecOptions {
                jobs: Some(jobs),
                memory,
                gemm: None,
            },
        )
        .unwrap()
    }

    #[test]
    fn toy_model_runs_end_to_end() {
        let g = models::toy();
        let inputs = input_tensors(&g, 1);
        let out = run_graph(&g, &inputs).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].shape().c(), 10);
        // Output must be finite and non-degenerate.
        assert!(out[0].data().iter().all(|v| v.is_finite()));
        let spread = out[0].data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(spread > 0.0, "all-zero output suggests broken wiring");
    }

    #[test]
    fn execution_is_deterministic() {
        let g = models::toy();
        let inputs = input_tensors(&g, 9);
        let a = run_graph(&g, &inputs).unwrap();
        let b = run_graph(&g, &inputs).unwrap();
        assert!(a[0].allclose(&b[0], 0.0));
    }

    #[test]
    fn different_inputs_give_different_outputs() {
        let g = models::toy();
        let a = run_graph(&g, &input_tensors(&g, 1)).unwrap();
        let b = run_graph(&g, &input_tensors(&g, 2)).unwrap();
        assert!(!a[0].allclose(&b[0], 1e-7));
    }

    #[test]
    fn wrong_input_count_errors() {
        let g = models::toy();
        assert!(matches!(run_graph(&g, &[]), Err(ExecError::Input(_))));
    }

    #[test]
    fn wrong_input_shape_errors() {
        let g = models::toy();
        let bad = vec![Tensor::zeros(pimflow_ir::Shape::nhwc(1, 8, 8, 3))];
        assert!(matches!(run_graph(&g, &bad), Err(ExecError::Input(_))));
    }

    #[test]
    fn bert_like_runs() {
        let g = models::bert_like(2);
        let out = run_graph(&g, &input_tensors(&g, 3)).unwrap();
        assert_eq!(out[0].shape().n(), 2);
        assert!(out[0].data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn memory_modes_agree_bitwise() {
        let g = models::toy();
        let retain = run_with(&g, 5, 1, MemoryMode::Retain);
        let drop = run_with(&g, 5, 1, MemoryMode::Drop);
        let arena = run_with(&g, 5, 1, MemoryMode::Arena);
        assert_eq!(retain.outputs[0].data(), drop.outputs[0].data());
        assert_eq!(retain.outputs[0].data(), arena.outputs[0].data());
        // Drop/arena modes must actually free intermediates.
        assert!(drop.stats.peak_live_bytes < drop.stats.retained_bytes);
        assert!(drop.stats.dropped_tensors > 0);
        assert!(arena.stats.stolen_buffers > 0, "toy has elementwise chains");
        // Retain mode ends holding everything.
        assert_eq!(retain.stats.peak_live_bytes, retain.stats.retained_bytes);
        assert_eq!(retain.stats.dropped_tensors, 0);
    }

    #[test]
    fn worker_width_does_not_change_outputs_or_memory_stats() {
        let g = models::toy();
        let w1 = run_with(&g, 11, 1, MemoryMode::Arena);
        let w4 = run_with(&g, 11, 4, MemoryMode::Arena);
        assert_eq!(w1.outputs[0].data(), w4.outputs[0].data());
        assert_eq!(w1.stats.peak_live_bytes, w4.stats.peak_live_bytes);
        assert_eq!(w1.stats.retained_bytes, w4.stats.retained_bytes);
        assert_eq!(w1.stats.dropped_tensors, w4.stats.dropped_tensors);
        assert_eq!(w1.stats.stolen_buffers, w4.stats.stolen_buffers);
        assert_eq!(w1.stats.arena_reuses, w4.stats.arena_reuses);
        assert_eq!(w1.stats.arena_allocs, w4.stats.arena_allocs);
        // Sequential runs never shard.
        assert_eq!(w1.stats.sharded_nodes + w1.stats.node_parallel_nodes, 0);
    }

    #[test]
    fn kernel_errors_surface_as_exec_errors() {
        // add with mismatched operand shapes must not panic. Built on the
        // raw graph API: the builder's shape inference would reject it.
        use pimflow_ir::{DataType, PoolAttrs, PoolKind};
        let mut g = Graph::new("bad-add");
        let x = g.add_input("x", Shape::nhwc(1, 4, 4, 3), DataType::F32);
        let pooled = g.add_node(
            "pool",
            Op::Pool(PoolAttrs {
                kind: PoolKind::Max,
                kernel: pimflow_ir::Hw::square(2),
                stride: pimflow_ir::Hw::square(2),
                padding: pimflow_ir::Hw::square(0),
            }),
            vec![x],
        );
        let bad = g.add_node("bad", Op::Add, vec![x, pooled]);
        g.mark_output(bad);
        let inputs = input_tensors(&g, 1);
        assert!(matches!(
            run_graph(&g, &inputs),
            Err(ExecError::Kernel(KernelError::ShapeMismatch(_)))
        ));
    }
}
