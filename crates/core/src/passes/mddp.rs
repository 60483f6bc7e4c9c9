//! Multi-device parallelization pass (§4.2.1).
//!
//! Splits a single PIM-candidate node into a GPU part and a PIM part that
//! execute the same operator on disjoint portions of the data (MD-DP mode):
//! the input is sliced, each part convolves/multiplies its slice, and the
//! outputs are concatenated back into a tensor equivalent to the original
//! node's output (Fig. 5, node 2 -> 2(A)/2(B)).
//!
//! Split axes:
//! * CONV — output height (NHWC H slices are contiguous, so the memory
//!   optimizer can make the slice/concat free);
//! * FC with multiple input rows (e.g. BERT at seq > 1) — input rows;
//! * FC with one input row (CNN classifier heads) — output features, with a
//!   [`ParamView`] so each part owns its column slice of the weight matrix.
//!
//! [`ParamView`]: pimflow_ir::graph::ParamView

use crate::passes::split_util::emit_conv_part;
use crate::placement::{NodePlacement, Placement};
use crate::Error;
use pimflow_ir::{
    infer_shapes_from, ConcatAttrs, DenseAttrs, Graph, NodeId, Op, ParamView, SliceAttrs, ValueId,
};

/// Outcome of [`split_node`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitOutcome {
    /// Ratio 100: the node stays on the GPU untouched.
    AllGpu,
    /// Ratio 0: the node was placed to run fully on PIM.
    AllPim(NodeId),
    /// The node was split; the concat output replaces the original value.
    Split {
        /// GPU part node.
        gpu: NodeId,
        /// PIM part node.
        pim: NodeId,
        /// Concat joining the parts.
        concat: NodeId,
    },
}

fn producer_of(graph: &Graph, v: ValueId) -> NodeId {
    graph
        .producer(v)
        .expect("value was just produced by a node")
}

/// Applies the MD-DP split to node `id` with `gpu_percent`% of the work on
/// the GPU (0 = full PIM offload, 100 = full GPU; matching the Table 2
/// ratio convention "split ratio to GPU, 0: total offload").
///
/// Infers the shapes of the nodes it appends. Every other value keeps its
/// shape: the concat that replaces the node's output has the same shape.
///
/// # Errors
///
/// Returns [`Error::NotApplicable`] if the node is not a PIM candidate
/// or is too small to split at the requested ratio, and
/// [`Error::BadRatio`] if `gpu_percent > 100`.
pub fn split_node(graph: &mut Graph, id: NodeId, gpu_percent: u32) -> Result<SplitOutcome, Error> {
    if gpu_percent > 100 {
        return Err(Error::BadRatio(gpu_percent));
    }
    if !graph.is_pim_candidate(id) {
        return Err(Error::NotApplicable(format!(
            "`{}` is not a PIM-candidate node",
            graph.node(id).name
        )));
    }
    if gpu_percent == 100 {
        return Ok(SplitOutcome::AllGpu);
    }
    if gpu_percent == 0 {
        graph.node_mut(id).placement = NodePlacement::Pim;
        return Ok(SplitOutcome::AllPim(id));
    }

    let first_part = graph.next_node_id();
    let node = graph.node(id).clone();
    let out_shape = graph
        .value(node.output)
        .desc
        .as_ref()
        .expect("shapes inferred")
        .shape
        .clone();

    let (gpu_out, pim_out, concat_axis) = match &node.op {
        Op::Conv2d(_) => {
            let oh = out_shape.h();
            if oh < 2 {
                return Err(Error::NotApplicable(format!(
                    "`{}` output height {oh} cannot be split",
                    node.name
                )));
            }
            let gpu_rows = ((oh as u64 * gpu_percent as u64 + 50) / 100) as usize;
            let gpu_rows = gpu_rows.clamp(1, oh - 1);
            let input = node.inputs[0];
            let a = emit_conv_part(graph, id, input, &(0..gpu_rows), Placement::Gpu, "mddp_a_");
            let b = emit_conv_part(graph, id, input, &(gpu_rows..oh), Placement::Pim, "mddp_b_");
            (a, b, 1)
        }
        Op::Dense(d) => {
            let rows = out_shape.n();
            let input = node.inputs[0];
            if rows > 1 {
                // Row split: both parts share the full weight matrix.
                let gpu_rows = ((rows as u64 * gpu_percent as u64 + 50) / 100) as usize;
                let gpu_rows = gpu_rows.clamp(1, rows - 1);
                let ranges = [
                    (0..gpu_rows, Placement::Gpu, "mddp_a_"),
                    (gpu_rows..rows, Placement::Pim, "mddp_b_"),
                ];
                let mut parts = Vec::new();
                for (r, placement, tag) in ranges {
                    let sliced = graph.add_node(
                        format!("{tag}{}_slice", node.name),
                        Op::Slice(SliceAttrs {
                            axis: 0,
                            begin: r.start,
                            end: r.end,
                        }),
                        vec![input],
                    );
                    let part = graph.add_node_with_key(
                        format!("{tag}{}", node.name),
                        node.op.clone(),
                        vec![sliced],
                        node.weight_key,
                    );
                    let pid = producer_of(graph, part);
                    graph.node_mut(pid).param_view = node.param_view;
                    graph.node_mut(pid).placement = placement.into();
                    parts.push(part);
                }
                (parts[0], parts[1], 0)
            } else {
                // Single-row FC: split the output features (weight columns).
                let of = d.out_features;
                if of < 2 {
                    return Err(Error::NotApplicable(format!(
                        "`{}` has {of} output features; cannot split",
                        node.name
                    )));
                }
                let gpu_of = (((of as u64) * gpu_percent as u64 + 50) / 100) as usize;
                let gpu_of = gpu_of.clamp(1, of - 1);
                // Compose with a pre-existing view if the node was already a
                // column slice of some larger original.
                let base = node.param_view.unwrap_or(ParamView {
                    orig_out: of,
                    begin: 0,
                    end: of,
                });
                let mk = |graph: &mut Graph,
                          range: std::ops::Range<usize>,
                          placement: Placement,
                          tag: &str| {
                    let part = graph.add_node_with_key(
                        format!("{tag}{}", node.name),
                        Op::Dense(DenseAttrs {
                            out_features: range.len(),
                        }),
                        vec![input],
                        node.weight_key,
                    );
                    let pid = producer_of(graph, part);
                    graph.node_mut(pid).param_view = Some(ParamView {
                        orig_out: base.orig_out,
                        begin: base.begin + range.start,
                        end: base.begin + range.end,
                    });
                    graph.node_mut(pid).placement = placement.into();
                    part
                };
                let a = mk(graph, 0..gpu_of, Placement::Gpu, "mddp_a_");
                let b = mk(graph, gpu_of..of, Placement::Pim, "mddp_b_");
                (a, b, 1)
            }
        }
        other => {
            return Err(Error::NotApplicable(format!(
                "`{}` ({other}) is not splittable",
                node.name
            )))
        }
    };

    // Replicate the fusable epilogue chain (BN/activations) onto each part:
    // the GPU part keeps its epilogue fused, the PIM part's epilogue becomes
    // a GPU kernel over only its slice, and the concat moves after them.
    let gpu_node = producer_of(graph, gpu_out);
    let pim_node = producer_of(graph, pim_out);
    let mut replaced_value = node.output;
    let mut removed = vec![id];
    let mut parts = [gpu_out, pim_out];
    if concat_axis == 1 && matches!(node.op, Op::Conv2d(_)) {
        for e in epilogue_chain(graph, id) {
            let e_node = graph.node(e).clone();
            for (i, part) in parts.iter_mut().enumerate() {
                *part = graph.add_node_with_key(
                    format!("mddp_p{i}_{}", e_node.name),
                    e_node.op.clone(),
                    vec![*part],
                    e_node.weight_key,
                );
            }
            replaced_value = e_node.output;
            removed.push(e);
        }
    }

    let concat = graph.add_node(
        format!("mddp_{}_concat", node.name),
        Op::Concat(ConcatAttrs { axis: concat_axis }),
        parts.to_vec(),
    );
    graph.replace_uses(replaced_value, concat);
    for r in removed {
        graph.remove_node(r);
    }
    infer_shapes_from(graph, first_part)?;
    Ok(SplitOutcome::Split {
        gpu: gpu_node,
        pim: pim_node,
        concat: producer_of(graph, concat),
    })
}

/// The run of single-input element-wise nodes (BN / activations) hanging off
/// `id` in a single-consumer chain — the epilogue that would be fused into
/// the node on the GPU.
fn epilogue_chain(graph: &Graph, id: NodeId) -> Vec<NodeId> {
    let mut chain = Vec::new();
    let mut cur = id;
    loop {
        let succ = graph.successors(cur);
        if succ.len() != 1 {
            break;
        }
        let next = succ[0];
        let node = graph.node(next);
        if node.inputs.len() != 1 || !crate::nodecost::op_is_fusable(&node.op) {
            break;
        }
        chain.push(next);
        cur = next;
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimflow_ir::{models, GraphBuilder, Shape};
    use pimflow_kernels::{input_tensors, run_graph};

    fn assert_equivalent(original: &Graph, transformed: &Graph, tol: f32) {
        let inputs = input_tensors(original, 17);
        let a = run_graph(original, &inputs).unwrap();
        let b = run_graph(transformed, &inputs).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(
                x.allclose(y, tol),
                "outputs differ by {}",
                x.max_abs_diff(y)
            );
        }
    }

    #[test]
    fn conv_split_preserves_semantics_at_all_ratios() {
        for ratio in [10, 30, 50, 70, 90] {
            let original = models::toy();
            let mut t = original.clone();
            // Split the 3x3 stem conv (stresses boundary padding).
            let id = t.find_node("conv_1").unwrap();
            let outcome = split_node(&mut t, id, ratio).unwrap();
            assert!(matches!(outcome, SplitOutcome::Split { .. }));
            assert_equivalent(&original, &t, 1e-4);
        }
    }

    #[test]
    fn pointwise_split_preserves_semantics() {
        let original = models::toy();
        let mut t = original.clone();
        let id = t.find_node("conv_3").unwrap(); // 1x1 conv
        split_node(&mut t, id, 40).unwrap();
        assert_equivalent(&original, &t, 1e-4);
    }

    #[test]
    fn strided_conv_split_preserves_semantics() {
        let mut b = GraphBuilder::new("strided");
        let x = b.input(Shape::nhwc(1, 13, 11, 3));
        let y = b.conv(x, 8, 3, 2, 1);
        let original = b.finish(y);
        for ratio in [20, 50, 80] {
            let mut t = original.clone();
            let id = t.node_ids().next().unwrap();
            split_node(&mut t, id, ratio).unwrap();
            assert_equivalent(&original, &t, 1e-4);
        }
    }

    #[test]
    fn dense_single_row_split_uses_param_view() {
        let original = models::toy();
        let mut t = original.clone();
        let id = t.find_node("fc_11").unwrap();
        let outcome = split_node(&mut t, id, 50).unwrap();
        let SplitOutcome::Split { gpu, pim, .. } = outcome else {
            panic!("expected a split")
        };
        assert!(t.node(gpu).param_view.is_some());
        assert!(t.node(pim).param_view.is_some());
        assert_equivalent(&original, &t, 1e-4);
    }

    #[test]
    fn dense_multi_row_split_slices_rows() {
        let original = models::bert_like(8);
        let mut t = original.clone();
        let id = t
            .node_ids()
            .find(|&i| matches!(t.node(i).op, Op::Dense(_)))
            .unwrap();
        split_node(&mut t, id, 50).unwrap();
        assert_equivalent(&original, &t, 2e-3);
    }

    #[test]
    fn ratio_zero_tags_pim() {
        let mut t = models::toy();
        let id = t.find_node("conv_3").unwrap();
        let outcome = split_node(&mut t, id, 0).unwrap();
        let SplitOutcome::AllPim(nid) = outcome else {
            panic!()
        };
        assert_eq!(t.node(nid).name, "conv_3");
        assert_eq!(t.node(nid).placement, NodePlacement::Pim);
        // Graph unchanged numerically.
        assert_equivalent(&models::toy(), &t, 0.0);
    }

    #[test]
    fn ratio_hundred_is_noop() {
        let mut t = models::toy();
        let id = t.find_node("conv_3").unwrap();
        assert_eq!(split_node(&mut t, id, 100).unwrap(), SplitOutcome::AllGpu);
        assert_eq!(t.node_count(), models::toy().node_count());
    }

    #[test]
    fn depthwise_is_rejected() {
        let mut t = models::toy();
        let id = t.find_node("dwconv_5").unwrap();
        assert!(matches!(
            split_node(&mut t, id, 50),
            Err(Error::NotApplicable(_))
        ));
    }

    #[test]
    fn out_of_range_ratio_is_rejected() {
        let mut t = models::toy();
        let id = t.find_node("conv_3").unwrap();
        assert!(matches!(
            split_node(&mut t, id, 101),
            Err(Error::BadRatio(101))
        ));
        // Graph untouched by the rejected call.
        assert_eq!(t.node_count(), models::toy().node_count());
    }

    #[test]
    fn split_marks_devices() {
        let mut t = models::toy();
        let id = t.find_node("conv_3").unwrap();
        let SplitOutcome::Split { gpu, pim, .. } = split_node(&mut t, id, 50).unwrap() else {
            panic!()
        };
        assert_eq!(t.node(gpu).name, "mddp_a_conv_3");
        assert_eq!(t.node(gpu).placement, NodePlacement::Gpu);
        assert_eq!(t.node(pim).name, "mddp_b_conv_3");
        assert_eq!(t.node(pim).placement, NodePlacement::Pim);
    }
}
