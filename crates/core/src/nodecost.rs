//! Per-node costs shared by the engine and the search.
//!
//! Algorithm 1 prices a plan on the same substrate the runtime executes
//! (§4.2, §5), so every rule that says what one node costs lives here,
//! once: the GPU kernel time of a node or of a fraction of its rows, the
//! time of a data-movement kernel, the PIM→GPU result drain, and which
//! GPU kernels host a fused element-wise epilogue. [`crate::engine`]
//! composes these into its two-stream timeline and [`crate::search`] into
//! its DP costs. PIM workloads are priced by [`crate::codegen`]'s streamed
//! Newton pricer; fused chains by [`crate::codegen::price_fused_chain`].

use crate::memopt::{data_move_bytes, is_data_move};
use pimflow_gpusim::{kernel_for_node, kernel_time_with_launch_us, GpuConfig, KernelProfile};
use pimflow_ir::{analysis, ActivationKind, Graph, NodeId, Op};

/// Inter-channel memory-network bandwidth, GB/s (§4.1 "memory networks"
/// between GPU and PIM channels). The network connects all 32 channels, so
/// a tensor striped over the PIM channels drains over many links at once.
pub const LINK_GBPS: f64 = 256.0;

/// Fixed controller latency of one GPU/PIM boundary crossing,
/// microseconds. The engine charges it on every crossing: a GPU→PIM
/// operand fetch (whose payload time is inside the PIM program's GWRITEs)
/// and each PIM→GPU result drain. The search charges it on drains only.
pub const TRANSFER_LATENCY_US: f64 = 0.3;

/// True for ops cuDNN/CUTLASS can fuse into a preceding conv/GEMM epilogue.
pub fn op_is_fusable(op: &Op) -> bool {
    matches!(op, Op::BatchNorm | Op::Add | Op::Mul)
        || matches!(op, Op::Activation(k) if *k != ActivationKind::Softmax)
}

/// Whether node `id`, run as a GPU kernel, can host further element-wise
/// epilogues: TVM fuses element-wise chains into the producing kernel — a
/// conv, a GEMM, a pooling kernel or a preceding element-wise kernel
/// (injective fusion). Data-movement views and softmax cannot.
fn hosts_epilogue(graph: &Graph, id: NodeId) -> bool {
    let op = &graph.node(id).op;
    !is_data_move(graph, id)
        && (op_is_fusable(op)
            || matches!(
                op,
                Op::Conv2d(_) | Op::Dense(_) | Op::Pool(_) | Op::GlobalAvgPool
            ))
}

/// Whether node `id`, run on the GPU, is an epilogue fused into the kernel
/// that produced its first input: it costs no launch and no DRAM round
/// trip. `on_gpu(p)` says whether producer `p` ran on the GPU; an epilogue
/// is standalone when its producer is a PIM node, a data-movement view or
/// a graph input.
pub fn fuses_into_producer(graph: &Graph, id: NodeId, on_gpu: impl Fn(NodeId) -> bool) -> bool {
    let node = graph.node(id);
    op_is_fusable(&node.op)
        && node
            .inputs
            .first()
            .and_then(|&v| graph.producer(v))
            .is_some_and(|p| on_gpu(p) && hosts_epilogue(graph, p))
}

/// GPU kernel profile of `frac` of node `id`'s rows: FLOPs, activation
/// traffic and parallelism scale with the split, weight traffic does not.
/// At `frac == 1.0` it is the node's own profile.
pub fn gpu_profile(graph: &Graph, id: NodeId, frac: f64) -> KernelProfile {
    let p = kernel_for_node(graph, id);
    if frac == 1.0 {
        return p;
    }
    let weight_bytes = analysis::node_cost(graph, id).weight_elems as f64 * 2.0;
    let act_bytes = (p.dram_bytes - weight_bytes).max(0.0);
    KernelProfile {
        flops: p.flops * frac,
        dram_bytes: weight_bytes + act_bytes * frac,
        parallel_items: (p.parallel_items * frac).max(1.0),
        ..p
    }
}

/// Time of one standalone launch of `profile` on a GPU served by
/// `channels` memory channels, microseconds.
pub fn kernel_us(profile: &KernelProfile, gpu: &GpuConfig, channels: usize) -> f64 {
    kernel_time_with_launch_us(profile, gpu, channels.max(1))
}

/// GPU kernel time (standalone launch) of `frac` of node `id`'s rows,
/// microseconds.
pub fn gpu_kernel_us(
    graph: &Graph,
    id: NodeId,
    frac: f64,
    gpu: &GpuConfig,
    channels: usize,
) -> f64 {
    kernel_us(&gpu_profile(graph, id, frac), gpu, channels)
}

/// Time of a data-movement kernel that copies `bytes` at the GPU's memory
/// bandwidth, microseconds; 0 for a free view (`bytes == 0`), which
/// launches nothing.
pub fn data_move_us(bytes: u64, gpu: &GpuConfig, channels: usize) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    bytes as f64 / gpu.mem_bandwidth(channels.max(1)) * 1e6 + gpu.kernel_launch_us
}

/// Time for `bytes` of PIM-resident results to drain to the GPU over the
/// memory network (Fig. 4, movement (4)): the crossing's latency plus the
/// payload at [`LINK_GBPS`], microseconds.
pub fn drain_us(bytes: f64) -> f64 {
    TRANSFER_LATENCY_US + bytes / (LINK_GBPS * 1e3)
}

/// Cost of node `id` inside the all-GPU timeline, microseconds: a
/// data-movement kernel (0 for a free view), 0 for an epilogue fused into
/// its producer, else its standalone kernel time. This is what the engine
/// charges a node of an untransformed graph without PIM channels.
pub fn gpu_resident_us(graph: &Graph, id: NodeId, gpu: &GpuConfig, channels: usize) -> f64 {
    if is_data_move(graph, id) {
        data_move_us(data_move_bytes(graph, id), gpu, channels)
    } else if fuses_into_producer(graph, id, |_| true) {
        0.0
    } else {
        gpu_kernel_us(graph, id, 1.0, gpu, channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute, EngineConfig};
    use crate::search::Search;
    use pimflow_ir::{models, GraphBuilder, Shape};

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

    /// Under the GPU baseline both sides are a serial sum of the same node
    /// costs, so the search's prediction is the engine's timeline.
    fn assert_one_price(g: &Graph) {
        let cfg = EngineConfig::baseline_gpu();
        let predicted = Search::new(g, &cfg).run().unwrap().predicted_us;
        let executed = execute(g, &cfg).unwrap().total_us;
        assert!(
            (predicted - executed).abs() <= 1e-12 * executed,
            "{}: predicted {predicted} vs executed {executed}",
            g.name
        );
    }

    #[test]
    fn gpu_only_search_predicts_the_engine_on_every_zoo_model() {
        for name in ZOO {
            let g = models::by_name(name).unwrap();
            assert_one_price(&g);
        }
    }

    #[test]
    fn epilogue_after_softmax_runs_standalone_in_both() {
        // dense -> softmax -> relu: softmax hosts no epilogue, so the relu
        // is a kernel of its own in the search and in the engine.
        let mut b = GraphBuilder::new("softmax_epilogue");
        let x = b.input(Shape::new(vec![4, 64]));
        let y = b.dense(x, 32);
        let s = b.softmax(y);
        let r = b.relu(s);
        let g = b.finish(r);
        let relu = g.producer(g.outputs()[0]).unwrap();
        assert!(!fuses_into_producer(&g, relu, |_| true));
        let report = execute(&g, &EngineConfig::baseline_gpu()).unwrap();
        let t = report.timing(&g.node(relu).name).unwrap();
        assert!(!t.fused && t.finish_us > t.start_us);
        assert_one_price(&g);
    }

    /// `gpu_profile` skips the scaling at `frac == 1.0`. That moves no bit,
    /// because scaling by 1.0 is exact: the weights are part of the
    /// traffic, every byte count is an integer-valued `f64`, and every
    /// kernel has at least one parallel item.
    #[test]
    fn whole_rows_need_no_scaling() {
        for name in ZOO {
            let g = models::by_name(name).unwrap();
            for id in g.node_ids() {
                let p = kernel_for_node(&g, id);
                let weight_bytes = analysis::node_cost(&g, id).weight_elems as f64 * 2.0;
                assert!(p.dram_bytes >= weight_bytes && p.dram_bytes.fract() == 0.0);
                assert!(p.parallel_items >= 1.0);
            }
        }
    }
}
