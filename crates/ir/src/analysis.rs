//! Static graph analyses used by the preliminary study (§3) and Fig. 1.
//!
//! * per-node MAC counts, load/store traffic, and arithmetic intensity
//!   ("# of MAC divided by # of LD/ST", Fig. 1 right);
//! * layer classification (1x1 CONV / depthwise CONV / other CONV / FC),
//!   used for the runtime breakdown (Fig. 1 left);
//! * inter-node parallelism statistics (observation 1 of §3).

use crate::graph::{Graph, GraphError, NodeId, ValueId};
use crate::ops::{Op, PoolKind};
use std::collections::HashSet;

/// Coarse layer class used in Fig. 1's runtime breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerClass {
    /// 1x1 (pointwise) convolution.
    PointwiseConv,
    /// Depthwise convolution.
    DepthwiseConv,
    /// Any other convolution (3x3, 5x5, 7x7, ...).
    RegularConv,
    /// Fully-connected layer.
    Fc,
    /// Everything else (activations, pooling, element-wise, data movement).
    Other,
}

impl LayerClass {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            LayerClass::PointwiseConv => "1x1 conv",
            LayerClass::DepthwiseConv => "dw conv",
            LayerClass::RegularConv => "conv",
            LayerClass::Fc => "fc",
            LayerClass::Other => "other",
        }
    }
}

/// Static cost summary of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCost {
    /// Multiply-accumulate operations.
    pub macs: u64,
    /// Elements loaded (inputs + weights).
    pub loads: u64,
    /// Elements stored (outputs).
    pub stores: u64,
    /// Weight elements (subset of `loads`).
    pub weight_elems: u64,
}

impl NodeCost {
    /// Arithmetic intensity: MACs per load/store element (Fig. 1 right).
    pub fn arithmetic_intensity(&self) -> f64 {
        let ldst = self.loads + self.stores;
        if ldst == 0 {
            0.0
        } else {
            self.macs as f64 / ldst as f64
        }
    }

    /// FLOPs (2 per MAC).
    pub fn flops(&self) -> u64 {
        self.macs * 2
    }
}

/// Classifies a node for the Fig. 1 breakdown. Requires inferred shapes.
pub fn classify(graph: &Graph, id: NodeId) -> LayerClass {
    let node = graph.node(id);
    match &node.op {
        Op::Conv2d(a) => {
            let in_c = graph.in_channels(id);
            if a.is_depthwise_for(in_c) {
                LayerClass::DepthwiseConv
            } else if a.is_pointwise() {
                LayerClass::PointwiseConv
            } else {
                LayerClass::RegularConv
            }
        }
        Op::Dense(_) => LayerClass::Fc,
        _ => LayerClass::Other,
    }
}

/// Computes the static cost of node `id`. Requires inferred shapes.
///
/// # Panics
///
/// Panics if shapes have not been inferred for the node's inputs/output.
pub fn node_cost(graph: &Graph, id: NodeId) -> NodeCost {
    let node = graph.node(id);
    let out = graph
        .value(node.output)
        .desc
        .as_ref()
        .expect("shape inference must run before analysis");
    let in0 = graph
        .value(node.inputs[0])
        .desc
        .as_ref()
        .expect("shape inference must run before analysis");
    let out_elems = out.shape.numel() as u64;
    let in_elems: u64 = node
        .inputs
        .iter()
        .map(|&v| {
            graph
                .value(v)
                .desc
                .as_ref()
                .map(|d| d.shape.numel() as u64)
                .unwrap_or(0)
        })
        .sum();
    match &node.op {
        Op::Conv2d(a) => {
            let in_c = in0.shape.c() as u64;
            let k = (a.kernel.h * a.kernel.w) as u64;
            let (macs, weight_elems) = if a.groups > 1 {
                // Depthwise: one filter plane per channel.
                (out_elems * k, in_c * k)
            } else {
                (out_elems * k * in_c, in_c * k * a.out_channels as u64)
            };
            NodeCost {
                macs,
                loads: in_elems + weight_elems,
                stores: out_elems,
                weight_elems,
            }
        }
        Op::Dense(a) => {
            let in_f = in0.shape.c() as u64;
            let weight_elems = in_f * a.out_features as u64;
            NodeCost {
                macs: out_elems * in_f,
                loads: in_elems + weight_elems,
                stores: out_elems,
                weight_elems,
            }
        }
        Op::Pool(p) => {
            let window = (p.kernel.h * p.kernel.w) as u64;
            let macs = match p.kind {
                // Average pooling performs a true accumulate per window
                // element; max pooling is compare-only (no MACs).
                PoolKind::Avg => out_elems * window,
                PoolKind::Max => 0,
            };
            NodeCost {
                macs,
                loads: in_elems,
                stores: out_elems,
                weight_elems: 0,
            }
        }
        Op::GlobalAvgPool => NodeCost {
            macs: in_elems,
            loads: in_elems,
            stores: out_elems,
            weight_elems: 0,
        },
        Op::Add | Op::Mul | Op::BatchNorm | Op::Activation(_) => NodeCost {
            macs: out_elems,
            loads: in_elems,
            stores: out_elems,
            weight_elems: 0,
        },
        Op::Pad(_)
        | Op::Slice(_)
        | Op::Concat(_)
        | Op::Flatten
        | Op::Upsample { .. }
        | Op::Identity => NodeCost {
            macs: 0,
            loads: in_elems,
            stores: out_elems,
            weight_elems: 0,
        },
    }
}

/// Per-class aggregate of [`NodeCost`] over a whole model.
#[derive(Debug, Clone, Default)]
pub struct ModelProfile {
    /// `(class, total MACs, total load/store elements, node count)` rows.
    pub rows: Vec<(LayerClass, u64, u64, usize)>,
}

impl ModelProfile {
    /// Fraction of total MACs attributed to `class`.
    pub fn mac_share(&self, class: LayerClass) -> f64 {
        let total: u64 = self.rows.iter().map(|r| r.1).sum();
        if total == 0 {
            return 0.0;
        }
        self.rows
            .iter()
            .find(|r| r.0 == class)
            .map(|r| r.1 as f64 / total as f64)
            .unwrap_or(0.0)
    }
}

/// Aggregates costs per layer class (the static analogue of Fig. 1 left).
pub fn profile_model(graph: &Graph) -> ModelProfile {
    let classes = [
        LayerClass::PointwiseConv,
        LayerClass::DepthwiseConv,
        LayerClass::RegularConv,
        LayerClass::Fc,
        LayerClass::Other,
    ];
    let mut rows = Vec::new();
    for class in classes {
        let mut macs = 0;
        let mut ldst = 0;
        let mut count = 0;
        for id in graph.node_ids() {
            if classify(graph, id) == class {
                let c = node_cost(graph, id);
                macs += c.macs;
                ldst += c.loads + c.stores;
                count += 1;
            }
        }
        rows.push((class, macs, ldst, count));
    }
    ModelProfile { rows }
}

/// Value liveness over a topological execution order.
///
/// This is the planning half of the executor's tensor arena: from it the
/// executor knows, for every value, how many input slots still read it
/// (`use_counts`), whether it must survive to the end of the run
/// (`sticky` — graph outputs), and the step after which its buffer can be
/// recycled (`last_use`). All vectors are indexed by
/// [`ValueId::index`](crate::graph::ValueId::index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    /// The topological node order the analysis is computed over.
    pub order: Vec<NodeId>,
    /// How many node-input slots read each value. A node consuming the
    /// same value twice contributes two uses, so an executor decrementing
    /// once per input slot reaches zero exactly at the value's death.
    pub use_counts: Vec<usize>,
    /// True for values that must outlive the whole run (graph outputs).
    pub sticky: Vec<bool>,
    /// Position in `order` of the last node reading each value, or `None`
    /// if no live node reads it.
    pub last_use: Vec<Option<usize>>,
}

impl Liveness {
    /// Step at which a value's buffer dies: its last use, or `birth` when
    /// nothing reads it (a dead-on-arrival intermediate). Sticky values
    /// never die; callers must check [`Liveness::sticky`] first.
    pub fn death_step(&self, v: ValueId, birth: usize) -> usize {
        self.last_use[v.index()].unwrap_or(birth)
    }
}

/// Computes [`Liveness`] for `graph` over its deterministic topological
/// order.
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] if the graph is cyclic.
pub fn liveness(graph: &Graph) -> Result<Liveness, GraphError> {
    let order = graph.topo_order()?;
    let n_values = graph.value_count();
    let mut use_counts = vec![0usize; n_values];
    let mut last_use = vec![None; n_values];
    for (step, &id) in order.iter().enumerate() {
        for &input in &graph.node(id).inputs {
            use_counts[input.index()] += 1;
            last_use[input.index()] = Some(step);
        }
    }
    let mut sticky = vec![false; n_values];
    for &out in graph.outputs() {
        sticky[out.index()] = true;
    }
    Ok(Liveness {
        order,
        use_counts,
        sticky,
        last_use,
    })
}

/// Peak activation memory of a single inference, in bytes.
///
/// Computes [`liveness`] over the topological order: a value is live from
/// its producer until its last consumer (graph outputs stay live to the
/// end). This is the number the GPU-PIM dual configuration must respect —
/// §3 argues the split-channel design achieves PIM acceleration "without
/// sacrificing GPU performance and increasing DRAM size", i.e. the same
/// activation footprint. It is also the floor the executor's tensor arena
/// is tested against.
///
/// # Panics
///
/// Panics if the graph is cyclic. Values without inferred shapes count as
/// zero bytes.
pub fn peak_activation_bytes(graph: &Graph) -> u64 {
    let lv = liveness(graph).expect("graph must be acyclic");
    let bytes_of = |v: ValueId| -> u64 {
        graph
            .value(v)
            .desc
            .as_ref()
            .map(|d| d.size_bytes() as u64)
            .unwrap_or(0)
    };

    // Values released after each step (sticky values never release).
    let mut deaths_at: Vec<Vec<ValueId>> = vec![Vec::new(); lv.order.len()];
    let mut release = |v: ValueId, birth: usize| {
        if !lv.sticky[v.index()] && !deaths_at.is_empty() {
            deaths_at[lv.death_step(v, birth)].push(v);
        }
    };
    for &input in graph.inputs() {
        release(input, 0);
    }
    for (step, &id) in lv.order.iter().enumerate() {
        release(graph.node(id).output, step);
    }

    let mut live: u64 = graph.inputs().iter().map(|&v| bytes_of(v)).sum();
    let mut peak = 0u64;
    for (step, &id) in lv.order.iter().enumerate() {
        live += bytes_of(graph.node(id).output);
        peak = peak.max(live);
        for &dead in &deaths_at[step] {
            live -= bytes_of(dead);
        }
    }
    peak
}

/// Fraction of nodes that have at least one other node with **no** data-flow
/// dependency in either direction (observation 1 of §3: most CNN graphs have
/// little inherent inter-node parallelism).
pub fn independent_node_fraction(graph: &Graph) -> f64 {
    let order = match graph.topo_order() {
        Ok(o) => o,
        Err(_) => return 0.0,
    };
    let n = order.len();
    if n <= 1 {
        return 0.0;
    }
    // reach[i] = set of nodes reachable from order[i] (including itself).
    let pos: std::collections::HashMap<NodeId, usize> =
        order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut reach: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    for (i, &id) in order.iter().enumerate().rev() {
        reach[i].insert(i);
        let mut acc: HashSet<usize> = HashSet::new();
        for s in graph.successors(id) {
            acc.extend(reach[pos[s]].iter().copied());
        }
        reach[i].extend(acc);
    }
    let mut independent = 0usize;
    for i in 0..n {
        let has_peer = (0..n).any(|j| j != i && !reach[i].contains(&j) && !reach[j].contains(&i));
        if has_peer {
            independent += 1;
        }
    }
    independent as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::ops::{ActivationKind, Conv2dAttrs, DenseAttrs, Hw};
    use crate::shape_infer::infer_shapes;
    use crate::tensor::{DataType, Shape};

    fn pointwise_graph() -> (Graph, NodeId) {
        let mut g = Graph::new("t");
        let x = g.add_input("x", Shape::nhwc(1, 14, 14, 64), DataType::F16);
        let y = g.add_node("pw", Op::Conv2d(Conv2dAttrs::pointwise(128)), vec![x]);
        g.mark_output(y);
        infer_shapes(&mut g).unwrap();
        let id = g.find_node("pw").unwrap();
        (g, id)
    }

    #[test]
    fn pointwise_macs_match_formula() {
        let (g, id) = pointwise_graph();
        let c = node_cost(&g, id);
        assert_eq!(c.macs, 14 * 14 * 128 * 64);
        assert_eq!(c.weight_elems, 64 * 128);
        assert_eq!(c.stores, 14 * 14 * 128);
    }

    #[test]
    fn pointwise_intensity_is_moderate() {
        // The paper's key observation: 1x1 convs have FC-like (low-moderate)
        // intensity, far below a dense 3x3 conv with the same channels.
        let (g, id) = pointwise_graph();
        let ai_pw = node_cost(&g, id).arithmetic_intensity();

        let mut g2 = Graph::new("t2");
        let x = g2.add_input("x", Shape::nhwc(1, 14, 14, 64), DataType::F16);
        let y = g2.add_node(
            "c3",
            Op::Conv2d(Conv2dAttrs {
                out_channels: 128,
                kernel: Hw::square(3),
                stride: Hw::square(1),
                padding: Hw::square(1),
                groups: 1,
            }),
            vec![x],
        );
        g2.mark_output(y);
        infer_shapes(&mut g2).unwrap();
        let ai_3x3 = node_cost(&g2, g2.find_node("c3").unwrap()).arithmetic_intensity();
        assert!(ai_3x3 > 2.0 * ai_pw, "3x3 AI {ai_3x3} vs 1x1 AI {ai_pw}");
    }

    #[test]
    fn fc_is_memory_bound() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", Shape::rf(1, 4096), DataType::F16);
        let y = g.add_node("fc", Op::Dense(DenseAttrs { out_features: 4096 }), vec![x]);
        g.mark_output(y);
        infer_shapes(&mut g).unwrap();
        let c = node_cost(&g, g.find_node("fc").unwrap());
        // Batch 1 FC: ~1 MAC per weight element loaded.
        assert!(c.arithmetic_intensity() < 1.1);
        assert_eq!(c.macs, 4096 * 4096);
    }

    #[test]
    fn depthwise_macs() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", Shape::nhwc(1, 14, 14, 96), DataType::F16);
        let y = g.add_node(
            "dw",
            Op::Conv2d(Conv2dAttrs {
                out_channels: 96,
                kernel: Hw::square(3),
                stride: Hw::square(1),
                padding: Hw::square(1),
                groups: 96,
            }),
            vec![x],
        );
        g.mark_output(y);
        infer_shapes(&mut g).unwrap();
        let id = g.find_node("dw").unwrap();
        assert_eq!(classify(&g, id), LayerClass::DepthwiseConv);
        assert_eq!(node_cost(&g, id).macs, 14 * 14 * 96 * 9);
    }

    #[test]
    fn straight_line_graph_has_no_parallelism() {
        let mut g = Graph::new("line");
        let x = g.add_input("x", Shape::nhwc(1, 8, 8, 4), DataType::F16);
        let a = g.add_node("a", Op::Activation(ActivationKind::Relu), vec![x]);
        let b = g.add_node("b", Op::Activation(ActivationKind::Relu), vec![a]);
        let c = g.add_node("c", Op::Activation(ActivationKind::Relu), vec![b]);
        g.mark_output(c);
        assert_eq!(independent_node_fraction(&g), 0.0);
    }

    #[test]
    fn diamond_graph_has_parallel_nodes() {
        let mut g = Graph::new("d");
        let x = g.add_input("x", Shape::nhwc(1, 8, 8, 4), DataType::F16);
        let a = g.add_node("a", Op::Activation(ActivationKind::Relu), vec![x]);
        let b = g.add_node("b", Op::Activation(ActivationKind::Relu), vec![a]);
        let c = g.add_node("c", Op::Activation(ActivationKind::Relu), vec![a]);
        let d = g.add_node("d", Op::Add, vec![b, c]);
        g.mark_output(d);
        // b and c are mutually independent: 2 of 4 nodes.
        let f = independent_node_fraction(&g);
        assert!((f - 0.5).abs() < 1e-9, "fraction {f}");
    }

    #[test]
    fn peak_memory_of_a_chain_is_two_tensors() {
        let mut g = Graph::new("line");
        let x = g.add_input("x", Shape::nhwc(1, 8, 8, 4), crate::tensor::DataType::F16);
        let a = g.add_node("a", Op::Activation(ActivationKind::Relu), vec![x]);
        let b = g.add_node("b", Op::Activation(ActivationKind::Relu), vec![a]);
        g.mark_output(b);
        crate::shape_infer::infer_shapes(&mut g).unwrap();
        let tensor = 8 * 8 * 4 * 2u64;
        // At any step at most input+output of one op are live.
        assert_eq!(peak_activation_bytes(&g), 2 * tensor);
    }

    #[test]
    fn residual_holds_an_extra_tensor_live() {
        let mut g = Graph::new("res");
        let x = g.add_input("x", Shape::nhwc(1, 8, 8, 4), crate::tensor::DataType::F16);
        let a = g.add_node("a", Op::Activation(ActivationKind::Relu), vec![x]);
        let b = g.add_node("b", Op::Activation(ActivationKind::Relu), vec![a]);
        let c = g.add_node("c", Op::Add, vec![b, x]); // x stays live across a, b
        g.mark_output(c);
        crate::shape_infer::infer_shapes(&mut g).unwrap();
        let tensor = 8 * 8 * 4 * 2u64;
        assert_eq!(peak_activation_bytes(&g), 3 * tensor);
    }

    #[test]
    fn liveness_counts_uses_and_marks_outputs_sticky() {
        let mut g = Graph::new("res");
        let x = g.add_input("x", Shape::nhwc(1, 8, 8, 4), crate::tensor::DataType::F16);
        let a = g.add_node("a", Op::Activation(ActivationKind::Relu), vec![x]);
        let b = g.add_node("b", Op::Activation(ActivationKind::Relu), vec![a]);
        let c = g.add_node("c", Op::Add, vec![b, x]);
        g.mark_output(c);
        let lv = liveness(&g).unwrap();
        assert_eq!(lv.order.len(), 3);
        // x feeds `a` and `c`; a.out feeds `b`; c.out feeds nothing.
        assert_eq!(lv.use_counts[x.index()], 2);
        assert_eq!(lv.use_counts[a.index()], 1);
        assert_eq!(lv.use_counts[c.index()], 0);
        // x's last reader is `c` at step 2; a.out dies at step 1.
        assert_eq!(lv.last_use[x.index()], Some(2));
        assert_eq!(lv.last_use[a.index()], Some(1));
        assert_eq!(lv.last_use[c.index()], None);
        assert_eq!(lv.death_step(c, 2), 2);
        assert!(lv.sticky[c.index()]);
        assert!(!lv.sticky[x.index()]);
        assert!(!lv.sticky[b.index()]);
    }

    #[test]
    fn same_value_consumed_twice_counts_two_uses() {
        let mut g = Graph::new("dup");
        let x = g.add_input("x", Shape::nhwc(1, 4, 4, 2), crate::tensor::DataType::F16);
        let y = g.add_node("double", Op::Add, vec![x, x]);
        g.mark_output(y);
        let lv = liveness(&g).unwrap();
        assert_eq!(lv.use_counts[x.index()], 2);
    }

    #[test]
    fn model_zoo_peak_memory_is_sane() {
        // MobileNetV2's peak live activations at 224x224 f16 should be a
        // few MB (its expanded 112x112x96 tensors), far below DRAM sizes.
        let g = crate::models::mobilenet_v2();
        let peak = peak_activation_bytes(&g);
        let mb = peak as f64 / 1e6;
        assert!((1.0..64.0).contains(&mb), "peak {mb} MB");
    }

    #[test]
    fn profile_sums_to_model_total() {
        let (g, id) = pointwise_graph();
        let p = profile_model(&g);
        let total: u64 = p.rows.iter().map(|r| r.1).sum();
        assert_eq!(total, node_cost(&g, id).macs);
        assert!((p.mac_share(LayerClass::PointwiseConv) - 1.0).abs() < 1e-12);
    }
}
