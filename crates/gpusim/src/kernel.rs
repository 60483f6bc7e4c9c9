//! Kernel profiles: the per-node workload descriptions the latency and
//! energy models consume.
//!
//! This is the boundary that replaces Accel-Sim traces: instead of replaying
//! instruction traces, each graph node is summarized by its FLOP count, its
//! minimum DRAM traffic, and two shape hints (parallel output elements and
//! reduction depth) that drive the SM-efficiency heuristic.

use pimflow_ir::{analysis, Graph, NodeId, Op};

/// Coarse kernel classes with distinct efficiency behaviour on a GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Dense convolution with spatial kernel > 1x1 (cuDNN implicit GEMM).
    ConvRegular,
    /// 1x1 convolution (GEMM-shaped).
    ConvPointwise,
    /// Depthwise convolution (little data reuse, low SM efficiency).
    ConvDepthwise,
    /// Fully-connected layer (matrix-vector at batch 1).
    Dense,
    /// Element-wise / activation / normalization kernels.
    Elementwise,
    /// Pooling kernels.
    Pool,
    /// Pure data movement (pad/slice/concat when not optimized away).
    DataMove,
}

/// Workload summary of one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Kernel class.
    pub kind: KernelKind,
    /// Floating-point operations (2 per MAC).
    pub flops: f64,
    /// Minimum DRAM traffic in bytes (inputs + weights + outputs, assuming
    /// on-chip reuse within the kernel).
    pub dram_bytes: f64,
    /// Independent output elements (thread-level parallelism available).
    pub parallel_items: f64,
    /// Reduction depth per output element.
    pub inner_dim: f64,
    /// Arithmetic reduction from a fast convolution algorithm: cuDNN runs
    /// unit-stride 3x3 convolutions with Winograd F(2x2,3x3), ~2.25x fewer
    /// multiplies at ~80% transform efficiency. 1.0 everywhere else.
    pub algo_speedup: f64,
}

impl KernelProfile {
    /// Profile of a GEMV `y[m] = W[m,k] x[k]` (batch-1 FC), used directly by
    /// the Fig. 8 validation harness.
    pub fn matvec(m: usize, k: usize, batch: usize) -> Self {
        let flops = 2.0 * (m * k * batch) as f64;
        let bytes = 2.0 * ((m * k) + batch * (k + m)) as f64;
        KernelProfile {
            kind: KernelKind::Dense,
            flops,
            dram_bytes: bytes,
            parallel_items: (m * batch) as f64,
            inner_dim: k as f64,
            algo_speedup: 1.0,
        }
    }
}

/// Builds the kernel profile of graph node `id`. Requires inferred shapes.
///
/// # Panics
///
/// Panics if shape inference has not run.
pub fn kernel_for_node(graph: &Graph, id: NodeId) -> KernelProfile {
    let node = graph.node(id);
    let cost = analysis::node_cost(graph, id);
    let out_desc = graph
        .value(node.output)
        .desc
        .as_ref()
        .expect("shapes inferred");
    let elem = out_desc.dtype.size_bytes() as f64;
    let out_elems = out_desc.shape.numel() as f64;
    let dram_bytes = (cost.loads + cost.stores) as f64 * elem;
    let flops = cost.flops() as f64;

    let mut algo_speedup = 1.0;
    let (kind, inner_dim) = match &node.op {
        Op::Conv2d(a) => {
            let in_c = graph.in_channels(id) as f64;
            if a.groups > 1 {
                (KernelKind::ConvDepthwise, (a.kernel.h * a.kernel.w) as f64)
            } else if a.is_pointwise() {
                (KernelKind::ConvPointwise, in_c)
            } else {
                if a.kernel.h == 3 && a.kernel.w == 3 && a.stride.h == 1 && a.stride.w == 1 {
                    // Winograd F(2x2,3x3): 2.25x fewer multiplies, ~80%
                    // realized after transform overheads.
                    algo_speedup = 1.8;
                }
                (
                    KernelKind::ConvRegular,
                    (a.kernel.h * a.kernel.w) as f64 * in_c,
                )
            }
        }
        Op::Dense(_) => {
            let in_f = graph.in_channels(id) as f64;
            (KernelKind::Dense, in_f)
        }
        Op::Pool(_) | Op::GlobalAvgPool => (KernelKind::Pool, 1.0),
        Op::Pad(_)
        | Op::Slice(_)
        | Op::Concat(_)
        | Op::Flatten
        | Op::Upsample { .. }
        | Op::Identity => (KernelKind::DataMove, 1.0),
        _ => (KernelKind::Elementwise, 1.0),
    };

    KernelProfile {
        kind,
        flops,
        dram_bytes,
        parallel_items: out_elems,
        inner_dim,
        algo_speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimflow_ir::models;

    #[test]
    fn toy_nodes_classify() {
        let g = models::toy();
        let kinds: Vec<KernelKind> = g
            .topo_order()
            .unwrap()
            .into_iter()
            .map(|id| kernel_for_node(&g, id).kind)
            .collect();
        assert!(kinds.contains(&KernelKind::ConvRegular));
        assert!(kinds.contains(&KernelKind::ConvPointwise));
        assert!(kinds.contains(&KernelKind::ConvDepthwise));
        assert!(kinds.contains(&KernelKind::Dense));
    }

    #[test]
    fn matvec_profile_counts() {
        let p = KernelProfile::matvec(4096, 4096, 1);
        assert_eq!(p.flops, 2.0 * 4096.0 * 4096.0);
        assert!(p.dram_bytes > 2.0 * 4096.0 * 4096.0); // weights dominate
        assert_eq!(p.parallel_items, 4096.0);
    }

    #[test]
    fn identity_moves_no_flops() {
        let g = models::bert_like(1);
        let id = g
            .node_ids()
            .find(|&i| matches!(g.node(i).op, Op::Identity))
            .unwrap();
        let p = kernel_for_node(&g, id);
        assert_eq!(p.kind, KernelKind::DataMove);
        assert_eq!(p.flops, 0.0);
    }
}
