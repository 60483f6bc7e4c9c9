//! Graph cleanup passes.
//!
//! The PIM-aware transformations accumulate structural residue — `Identity`
//! nodes, slices of slices, single-input concats, unused nodes. These
//! canonicalization passes tidy the graph after transformation, exactly as
//! the artifact relies on ONNX simplification. All passes are
//! semantics-preserving (verified against the reference executor in the
//! tests) and idempotent.

use pimflow_ir::{infer_shapes, Graph, GraphError, NodeId, Op, SliceAttrs};
use std::collections::HashSet;

/// Removes `Identity` nodes by rewiring their consumers to the input.
///
/// Returns the number of nodes removed.
pub fn eliminate_identities(graph: &mut Graph) -> usize {
    let ids: Vec<NodeId> = graph
        .node_ids()
        .filter(|&id| matches!(graph.node(id).op, Op::Identity))
        .collect();
    for &id in &ids {
        let node = graph.node(id);
        let (input, output) = (node.inputs[0], node.output);
        graph.replace_uses(output, input);
        graph.remove_node(id);
    }
    ids.len()
}

/// Fuses `Slice(Slice(x))` chains along the same axis into a single slice.
///
/// Returns the number of slices fused away.
pub fn fuse_slices(graph: &mut Graph) -> usize {
    let mut fused = 0;
    loop {
        let candidate = graph.node_ids().find_map(|id| {
            let Op::Slice(outer) = graph.node(id).op else {
                return None;
            };
            let inner_id = graph.producer(graph.node(id).inputs[0])?;
            let Op::Slice(inner) = graph.node(inner_id).op else {
                return None;
            };
            if inner.axis != outer.axis {
                return None;
            }
            // Only fold when the inner slice has no other consumers.
            if graph.successors(inner_id).len() != 1 {
                return None;
            }
            Some((id, inner_id, inner, outer))
        });
        let Some((id, inner_id, inner, outer)) = candidate else {
            break;
        };
        let combined = SliceAttrs {
            axis: inner.axis,
            begin: inner.begin + outer.begin,
            end: inner.begin + outer.end,
        };
        let source = graph.node(inner_id).inputs[0];
        {
            let node = graph.node_mut(id);
            node.op = Op::Slice(combined);
            node.inputs = vec![source];
        }
        graph.remove_node(inner_id);
        fused += 1;
    }
    fused
}

/// Replaces single-input `Concat` nodes with their operand.
///
/// Returns the number of concats removed.
pub fn drop_trivial_concats(graph: &mut Graph) -> usize {
    let ids: Vec<NodeId> = graph
        .node_ids()
        .filter(|&id| {
            matches!(graph.node(id).op, Op::Concat(_)) && graph.node(id).inputs.len() == 1
        })
        .collect();
    for &id in &ids {
        let node = graph.node(id);
        let (input, output) = (node.inputs[0], node.output);
        graph.replace_uses(output, input);
        graph.remove_node(id);
    }
    ids.len()
}

/// Removes nodes whose outputs reach no graph output (dead code).
///
/// Returns the number of nodes removed.
pub fn eliminate_dead_nodes(graph: &mut Graph) -> usize {
    // Mark live nodes by walking backwards from the outputs.
    let mut live: HashSet<NodeId> = HashSet::new();
    let mut stack: Vec<NodeId> = graph
        .outputs()
        .iter()
        .filter_map(|&v| graph.producer(v))
        .collect();
    while let Some(id) = stack.pop() {
        if !live.insert(id) {
            continue;
        }
        stack.extend(graph.predecessors(id));
    }
    let dead: Vec<NodeId> = graph.node_ids().filter(|id| !live.contains(id)).collect();
    for &id in &dead {
        graph.remove_node(id);
    }
    dead.len()
}

/// Runs all cleanup passes to a fixed point and re-infers shapes.
///
/// Returns the total number of nodes removed or rewritten.
///
/// # Errors
///
/// Returns [`GraphError`] if the cleaned graph fails validation (a bug in a
/// pass — cleanup must never break a valid graph).
pub fn cleanup(graph: &mut Graph) -> Result<usize, GraphError> {
    let mut total = 0;
    loop {
        let round = eliminate_identities(graph)
            + fuse_slices(graph)
            + drop_trivial_concats(graph)
            + eliminate_dead_nodes(graph);
        total += round;
        if round == 0 {
            break;
        }
    }
    infer_shapes(graph)?;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimflow_ir::{models, GraphBuilder, Shape};
    use pimflow_kernels::{input_tensors, run_graph};

    fn assert_equivalent(a: &Graph, b: &Graph) {
        let inputs = input_tensors(a, 31);
        let xa = run_graph(a, &inputs).unwrap();
        let xb = run_graph(b, &inputs).unwrap();
        for (x, y) in xa.iter().zip(&xb) {
            assert!(x.allclose(y, 0.0), "cleanup changed semantics");
        }
    }

    #[test]
    fn identities_are_removed() {
        let mut b = GraphBuilder::new("t");
        let x = b.input(Shape::nhwc(1, 4, 4, 2));
        let y = b.identity(x);
        let y = b.identity(y);
        let y = b.relu(y);
        let mut g = b.finish(y);
        let before = g.clone();
        let removed = cleanup(&mut g).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(g.node_count(), 1);
        assert_equivalent(&before, &g);
    }

    #[test]
    fn nested_slices_fuse() {
        let mut b = GraphBuilder::new("t");
        let x = b.input(Shape::nhwc(1, 10, 4, 2));
        let s1 = b.slice(
            x,
            SliceAttrs {
                axis: 1,
                begin: 2,
                end: 9,
            },
        );
        let s2 = b.slice(
            s1,
            SliceAttrs {
                axis: 1,
                begin: 1,
                end: 5,
            },
        );
        let mut g = b.finish(s2);
        let before = g.clone();
        cleanup(&mut g).unwrap();
        assert_eq!(g.node_count(), 1);
        let id = g.node_ids().next().unwrap();
        let Op::Slice(attrs) = g.node(id).op else {
            panic!()
        };
        assert_eq!((attrs.begin, attrs.end), (3, 7));
        assert_equivalent(&before, &g);
    }

    #[test]
    fn cross_axis_slices_do_not_fuse() {
        let mut b = GraphBuilder::new("t");
        let x = b.input(Shape::nhwc(1, 10, 6, 2));
        let s1 = b.slice(
            x,
            SliceAttrs {
                axis: 1,
                begin: 0,
                end: 5,
            },
        );
        let s2 = b.slice(
            s1,
            SliceAttrs {
                axis: 2,
                begin: 1,
                end: 4,
            },
        );
        let mut g = b.finish(s2);
        cleanup(&mut g).unwrap();
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn shared_inner_slice_is_preserved() {
        // The inner slice feeds two consumers: fusing would break one.
        let mut b = GraphBuilder::new("t");
        let x = b.input(Shape::nhwc(1, 10, 4, 2));
        let s1 = b.slice(
            x,
            SliceAttrs {
                axis: 1,
                begin: 2,
                end: 9,
            },
        );
        let s2 = b.slice(
            s1,
            SliceAttrs {
                axis: 1,
                begin: 0,
                end: 3,
            },
        );
        let r = b.relu(s1);
        let s2r = b.relu(s2);
        let pad = b.pad(
            s2r,
            pimflow_ir::PadAttrs {
                top: 0,
                bottom: 4,
                left: 0,
                right: 0,
            },
        );
        let y = b.add(pad, r);
        let mut g = b.finish(y);
        let before = g.clone();
        cleanup(&mut g).unwrap();
        assert_equivalent(&before, &g);
    }

    #[test]
    fn dead_branches_are_pruned() {
        let mut b = GraphBuilder::new("t");
        let x = b.input(Shape::nhwc(1, 4, 4, 2));
        let used = b.relu(x);
        let _dead = b.conv1x1(x, 64); // never reaches the output
        let g_out = used;
        let mut g = b.finish(g_out);
        let removed = cleanup(&mut g).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn cleanup_is_idempotent_on_clean_graphs() {
        let mut g = models::toy();
        let removed = cleanup(&mut g).unwrap();
        assert_eq!(removed, 0);
        assert_eq!(g.node_count(), models::toy().node_count());
    }

    #[test]
    fn cleanup_after_full_flow_preserves_semantics() {
        use crate::engine::EngineConfig;
        use crate::search::{apply_plan, Search};
        let g = models::toy();
        let plan = Search::new(&g, &EngineConfig::pimflow()).run().unwrap();
        let mut t = apply_plan(&g, &plan).unwrap();
        let before = t.clone();
        cleanup(&mut t).unwrap();
        t.validate().unwrap();
        assert_equivalent(&before, &t);
        assert!(t.node_count() <= before.node_count());
    }

    #[test]
    fn bert_identities_disappear() {
        let mut g = models::bert_like(2);
        let before_count = g.node_count();
        let removed = cleanup(&mut g).unwrap();
        assert!(
            removed >= 12,
            "12 attention identities expected, removed {removed}"
        );
        assert!(g.node_count() < before_count);
    }
}
