//! Pipelining pass (§4.2.1, §4.2.2).
//!
//! Takes a subgraph of consecutive nodes — one of the paper's three
//! patterns, `1x1–DW` (Type 1), `DW–1x1` (Type 2), `1x1–DW–1x1` (Type 3),
//! with the BN/activation nodes between the convolutions carried along —
//! and splits every node into pipeline-stage parts over the output height.
//! Part `p` of stage `t` depends only on parts `0..=p` of stage `t-1`, so
//! GPU stages (depthwise convs, element-wise epilogues) overlap PIM stages
//! (1x1 convs) in a wavefront; the inserted `concat` before later parts
//! "enforces data dependency for boundary elements when filters are bigger
//! than 1x1" exactly as in Fig. 5 (nodes 3(A)/3(B)/4(A)/4(B)).

use crate::passes::split_util::{
    conv_input_span, emit_conv_on_span, emit_elementwise_part, even_ranges, rows_from_parts,
};
use crate::placement::Placement;
use crate::Error;
use pimflow_ir::{
    analysis::{classify, LayerClass},
    infer_shapes_from, ConcatAttrs, Graph, NodeId, Op, ValueId,
};
use std::ops::Range;

/// The three pipeline subgraph patterns evaluated in the paper (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Type 1: 1x1 CONV followed by DW CONV.
    PwDw,
    /// Type 2: DW CONV followed by 1x1 CONV.
    DwPw,
    /// Type 3: 1x1 CONV, DW CONV, 1x1 CONV.
    PwDwPw,
}

impl PatternKind {
    /// Conv-layer class sequence of the pattern.
    pub fn classes(self) -> &'static [LayerClass] {
        match self {
            PatternKind::PwDw => &[LayerClass::PointwiseConv, LayerClass::DepthwiseConv],
            PatternKind::DwPw => &[LayerClass::DepthwiseConv, LayerClass::PointwiseConv],
            PatternKind::PwDwPw => &[
                LayerClass::PointwiseConv,
                LayerClass::DepthwiseConv,
                LayerClass::PointwiseConv,
            ],
        }
    }
}

/// A pipelining candidate: a linear chain of nodes whose conv skeleton
/// matches one of the patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// All chain nodes in order (convs and the element-wise nodes between
    /// them).
    pub nodes: Vec<NodeId>,
    /// The conv nodes only, in order.
    pub convs: Vec<NodeId>,
    /// Which pattern the conv skeleton matches.
    pub pattern: PatternKind,
}

/// True for nodes that ride along inside a chain: the shared rider
/// classification lives in [`split_util`](crate::passes::split_util) —
/// this is a re-export-style alias kept for the scanner below and its
/// callers.
pub(crate) use crate::passes::split_util::is_linear_rider as is_chain_elementwise;

/// The single consumer of `id`'s output, if it has exactly one and that
/// consumer uses it as its only input.
pub(crate) fn sole_linear_successor(graph: &Graph, id: NodeId) -> Option<NodeId> {
    let consumers = graph.successors(id);
    if consumers.len() != 1 {
        return None;
    }
    let next = consumers[0];
    if graph.node(next).inputs.len() != 1 {
        return None;
    }
    Some(next)
}

/// Walks forward from `start`, collecting the linear run of nodes the
/// `is_heavy` predicate accepts, separated by element-wise riders. Stops
/// at the first node that is neither, has multiple consumers, or has
/// multiple inputs, and trims trailing riders so the run ends at a heavy
/// node. Returns `(all nodes, heavy nodes)` in order.
///
/// This is the one chain scanner in the codebase: the pipelining pass
/// instantiates it with "any conv" (then classifies the skeleton against
/// the [`PatternKind`]s), the fusion pass with "PIM-eligible heavy layer".
pub(crate) fn linear_run_by(
    graph: &Graph,
    start: NodeId,
    max_heavy: usize,
    is_heavy: impl Fn(&Graph, NodeId) -> bool,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut nodes = vec![start];
    let mut heavy = vec![start];
    let mut cur = start;
    while let Some(next) = sole_linear_successor(graph, cur) {
        if is_heavy(graph, next) {
            if heavy.len() == max_heavy {
                break;
            }
            nodes.push(next);
            heavy.push(next);
        } else if is_chain_elementwise(&graph.node(next).op) {
            nodes.push(next);
        } else {
            break;
        }
        cur = next;
    }
    // Trim trailing element-wise nodes after the last heavy node: the run
    // ends at a heavy node (epilogues stay outside the subgraph).
    while let Some(&last) = nodes.last() {
        if is_heavy(graph, last) {
            break;
        }
        nodes.pop();
    }
    (nodes, heavy)
}

/// Finds all pipelining candidates in the graph (§4.2.2: extracted
/// subgraph patterns of 1x1 and DW CONV layers), longest pattern first at
/// each start node. Nodes already claimed by an earlier chain do not start
/// a new scan: the overlapping interior chains that used to come out of
/// re-scanning a claimed run were redundant DP options (the suffix DP can
/// never take both), and dropping them keeps one canonical candidate per
/// site.
pub fn find_chains(graph: &Graph) -> Vec<Chain> {
    let mut chains = Vec::new();
    let Ok(order) = graph.topo_order() else {
        return chains;
    };
    let mut claimed: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
    for &start in &order {
        if claimed.contains(&start) || !matches!(graph.node(start).op, Op::Conv2d(_)) {
            continue;
        }
        let (nodes, convs) = linear_run_by(graph, start, 3, |g, id| {
            matches!(g.node(id).op, Op::Conv2d(_))
        });
        let classes: Vec<LayerClass> = convs.iter().map(|&c| classify(graph, c)).collect();
        let pattern = [PatternKind::PwDwPw, PatternKind::PwDw, PatternKind::DwPw]
            .into_iter()
            .find(|p| classes.starts_with(p.classes()));
        if let Some(pattern) = pattern {
            let mut push_chain = |pattern: PatternKind| {
                let keep = pattern.classes().len();
                let convs: Vec<NodeId> = convs.iter().copied().take(keep).collect();
                let last_conv = *convs.last().expect("pattern is non-empty");
                let cut = nodes
                    .iter()
                    .position(|&n| n == last_conv)
                    .expect("pattern convs come from the walked node list");
                let nodes: Vec<NodeId> = nodes.iter().copied().take(cut + 1).collect();
                claimed.extend(nodes.iter().copied());
                chains.push(Chain {
                    nodes,
                    convs,
                    pattern,
                });
            };
            push_chain(pattern);
            // Algorithm 1 lines 11-15 expand candidate subgraphs one conv at
            // a time, so shorter prefixes are candidates of their own: a
            // 1x1-DW-1x1 site also offers its 1x1-DW prefix, and the DP
            // picks the profitable length.
            if pattern == PatternKind::PwDwPw {
                push_chain(PatternKind::PwDw);
            }
        }
    }
    chains
}

/// Pipeline-transforms `chain` with `stages` pipeline parts.
///
/// Every chain node is split into up to `stages` H-parts; 1x1 convs are
/// placed on PIM, depthwise convs and element-wise nodes on the GPU. The
/// final parts are concatenated and the original chain removed. Infers the
/// shapes of the appended parts; the join has the chain output's shape.
///
/// # Errors
///
/// Returns [`Error::NotApplicable`] if the chain is degenerate (final
/// height too small to split).
pub fn pipeline_chain(graph: &mut Graph, chain: &Chain, stages: usize) -> Result<(), Error> {
    let first_part = graph.next_node_id();
    if stages < 2 {
        return Err(Error::NotApplicable(
            "need at least 2 pipeline stages".into(),
        ));
    }
    let last = *chain.nodes.last().expect("chain non-empty");
    let last_out = graph.node(last).output;
    let final_h = graph
        .value(last_out)
        .desc
        .as_ref()
        .expect("shapes inferred")
        .shape
        .h();
    if final_h < stages {
        return Err(Error::NotApplicable(format!(
            "final height {final_h} < {stages} stages"
        )));
    }

    let n = chain.nodes.len();
    // Output height of each chain node.
    let heights: Vec<usize> = chain
        .nodes
        .iter()
        .map(|&id| {
            graph
                .value(graph.node(id).output)
                .desc
                .as_ref()
                .unwrap()
                .shape
                .h()
        })
        .collect();

    // Cumulative part-end boundaries per chain node, back-propagated from
    // the final ranges through each node's receptive field.
    let final_ranges = even_ranges(final_h, stages);
    let parts_n = final_ranges.len();
    let mut ends: Vec<Vec<usize>> = vec![vec![0; parts_n]; n];
    for (p, r) in final_ranges.iter().enumerate() {
        ends[n - 1][p] = r.end;
    }
    for t in (0..n - 1).rev() {
        let (row, rest) = ends[t..].split_first_mut().expect("t < n");
        let next_row = &rest[0];
        for (end, &next_end) in row.iter_mut().zip(next_row) {
            let need = match &graph.node(chain.nodes[t + 1]).op {
                Op::Conv2d(a) => {
                    if next_end == 0 {
                        0
                    } else {
                        conv_input_span(a, heights[t], &(0..next_end)).rows.end
                    }
                }
                _ => next_end, // element-wise: identity receptive field
            };
            *end = need.min(heights[t]);
        }
        // Boundaries must be monotone and the last part covers everything.
        for p in 1..parts_n {
            let prev = ends[t][p - 1];
            if ends[t][p] < prev {
                ends[t][p] = prev;
            }
        }
        ends[t][parts_n - 1] = heights[t];
    }

    // Emit stage parts front to back.
    let chain_input = graph.node(chain.nodes[0]).inputs[0];
    // parts[t] = list of (value, output rows) for chain node t.
    let mut parts: Vec<Vec<(ValueId, Range<usize>)>> = Vec::with_capacity(n);
    for t in 0..n {
        let node_id = chain.nodes[t];
        let op = graph.node(node_id).op.clone();
        let placement = match classify(graph, node_id) {
            LayerClass::PointwiseConv => Placement::Pim,
            _ => Placement::Gpu,
        };
        let mut these = Vec::new();
        for p in 0..parts_n {
            let begin = if p == 0 { 0 } else { ends[t][p - 1] };
            let end = ends[t][p];
            if begin >= end {
                continue;
            }
            let tag = format!("pl{p}_");
            let value = match &op {
                Op::Conv2d(a) => {
                    let in_h = if t == 0 {
                        graph.value(chain_input).desc.as_ref().unwrap().shape.h()
                    } else {
                        heights[t - 1]
                    };
                    let span = conv_input_span(a, in_h, &(begin..end));
                    let input = if t == 0 {
                        rows_from_parts(
                            graph,
                            &[(chain_input, 0..in_h)],
                            &span.rows,
                            &format!("{tag}{}_in", graph.node(node_id).name),
                        )
                    } else {
                        rows_from_parts(
                            graph,
                            &parts[t - 1],
                            &span.rows,
                            &format!("{tag}{}_in", graph.node(node_id).name),
                        )
                    };
                    emit_conv_on_span(
                        graph,
                        node_id,
                        input,
                        span.pad_top,
                        span.pad_bottom,
                        placement,
                        &tag,
                    )
                }
                _ => {
                    let input = if t == 0 {
                        rows_from_parts(graph, &[(chain_input, 0..heights[0])], &(begin..end), &tag)
                    } else {
                        rows_from_parts(
                            graph,
                            &parts[t - 1],
                            &(begin..end),
                            &format!("{tag}{}_in", graph.node(node_id).name),
                        )
                    };
                    emit_elementwise_part(graph, node_id, vec![input], &tag)
                }
            };
            these.push((value, begin..end));
        }
        parts.push(these);
    }

    // Join the final parts and swap the chain out of the graph.
    let final_parts = parts.last().expect("chain non-empty");
    let joined = if final_parts.len() == 1 {
        final_parts[0].0
    } else {
        graph.add_node(
            format!("pl_{}_concat", graph.node(last).name),
            Op::Concat(ConcatAttrs { axis: 1 }),
            final_parts.iter().map(|(v, _)| *v).collect(),
        )
    };
    graph.replace_uses(last_out, joined);
    for &id in &chain.nodes {
        graph.remove_node(id);
    }
    infer_shapes_from(graph, first_part)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimflow_ir::{models, GraphBuilder, Shape};
    use pimflow_kernels::{input_tensors, run_graph};

    fn assert_equivalent(original: &Graph, transformed: &Graph, tol: f32) {
        let inputs = input_tensors(original, 23);
        let a = run_graph(original, &inputs).unwrap();
        let b = run_graph(transformed, &inputs).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!(
                x.allclose(y, tol),
                "outputs differ by {}",
                x.max_abs_diff(y)
            );
        }
    }

    /// A MobileNet-style inverted-residual core: 1x1 -> bn/relu6 -> dw ->
    /// bn/relu6 -> 1x1.
    fn pw_dw_pw_graph() -> Graph {
        let mut b = GraphBuilder::new("block");
        let x = b.input(Shape::nhwc(1, 12, 10, 8));
        let y = b.conv1x1(x, 24);
        let y = b.bn(y);
        let y = b.relu6(y);
        let y = b.dwconv(y, 24, 3, 1, 1);
        let y = b.bn(y);
        let y = b.relu6(y);
        let y = b.conv1x1(y, 16);
        b.finish(y)
    }

    #[test]
    fn finds_type3_chain_in_block() {
        let g = pw_dw_pw_graph();
        let chains = find_chains(&g);
        assert!(
            chains.iter().any(|c| c.pattern == PatternKind::PwDwPw),
            "{chains:?}"
        );
        let c = chains
            .iter()
            .find(|c| c.pattern == PatternKind::PwDwPw)
            .unwrap();
        assert_eq!(c.convs.len(), 3);
        assert_eq!(c.nodes.len(), 7);
        // Algorithm 1 also registers the Type-1 prefix of the same site.
        assert!(
            chains
                .iter()
                .any(|p| p.pattern == PatternKind::PwDw && p.nodes[0] == c.nodes[0]),
            "prefix chain missing"
        );
    }

    #[test]
    fn finds_chains_in_toy_and_mobilenet() {
        let toy = models::toy();
        let chains = find_chains(&toy);
        assert!(chains.iter().any(|c| c.pattern == PatternKind::PwDwPw));

        let mbv2 = models::mobilenet_v2();
        let chains = find_chains(&mbv2);
        let t3 = chains
            .iter()
            .filter(|c| c.pattern == PatternKind::PwDwPw)
            .count();
        assert!(
            t3 >= 10,
            "MobileNetV2 should have many 1x1-DW-1x1 chains, got {t3}"
        );
    }

    #[test]
    fn pipeline_type3_preserves_semantics() {
        for stages in [2, 3, 4] {
            let original = pw_dw_pw_graph();
            let mut t = original.clone();
            let chain = find_chains(&t)
                .into_iter()
                .find(|c| c.pattern == PatternKind::PwDwPw)
                .unwrap();
            pipeline_chain(&mut t, &chain, stages).unwrap();
            assert_equivalent(&original, &t, 1e-4);
        }
    }

    #[test]
    fn pipeline_type1_and_type2_preserve_semantics() {
        // Type 1: pw -> dw.
        let original = {
            let mut b = GraphBuilder::new("t1");
            let x = b.input(Shape::nhwc(1, 9, 7, 6));
            let y = b.conv1x1(x, 12);
            let y = b.dwconv(y, 12, 3, 1, 1);
            b.finish(y)
        };
        let mut t = original.clone();
        let chain = find_chains(&t)
            .into_iter()
            .find(|c| c.pattern == PatternKind::PwDw)
            .unwrap();
        pipeline_chain(&mut t, &chain, 2).unwrap();
        assert_equivalent(&original, &t, 1e-4);

        // Type 2: dw -> pw.
        let original = {
            let mut b = GraphBuilder::new("t2");
            let x = b.input(Shape::nhwc(1, 9, 7, 6));
            let y = b.dwconv(x, 6, 3, 1, 1);
            let y = b.conv1x1(y, 12);
            b.finish(y)
        };
        let mut t = original.clone();
        let chain = find_chains(&t)
            .into_iter()
            .find(|c| c.pattern == PatternKind::DwPw)
            .unwrap();
        pipeline_chain(&mut t, &chain, 2).unwrap();
        assert_equivalent(&original, &t, 1e-4);
    }

    #[test]
    fn pipeline_with_strided_dw_preserves_semantics() {
        let original = {
            let mut b = GraphBuilder::new("t");
            let x = b.input(Shape::nhwc(1, 14, 6, 4));
            let y = b.conv1x1(x, 8);
            let y = b.relu6(y);
            let y = b.dwconv(y, 8, 3, 2, 1);
            b.finish(y)
        };
        let mut t = original.clone();
        let chain = find_chains(&t)
            .into_iter()
            .find(|c| c.pattern == PatternKind::PwDw)
            .unwrap();
        pipeline_chain(&mut t, &chain, 2).unwrap();
        assert_equivalent(&original, &t, 1e-4);
    }

    #[test]
    fn pipelined_graph_has_pim_and_gpu_stage_nodes() {
        let mut t = pw_dw_pw_graph();
        let chain = find_chains(&t)
            .into_iter()
            .find(|c| c.pattern == PatternKind::PwDwPw)
            .unwrap();
        pipeline_chain(&mut t, &chain, 2).unwrap();
        let pim_nodes: Vec<&str> = t
            .node_ids()
            .filter(|&id| t.node(id).placement.device() == Placement::Pim)
            .map(|id| t.node(id).name.as_str())
            .collect();
        // Two 1x1 convs x two parts on PIM.
        assert_eq!(pim_nodes.len(), 4, "{pim_nodes:?}");
        assert!(
            pim_nodes.iter().all(|n| n.starts_with("pl")),
            "{pim_nodes:?}"
        );
    }

    #[test]
    fn residual_block_chain_stops_at_fanout() {
        // The expanded 1x1 of an inverted residual with a skip connection:
        // its input value fans out, but the chain itself is still linear.
        let mut b = GraphBuilder::new("res");
        let x = b.input(Shape::nhwc(1, 8, 8, 16));
        let y = b.conv1x1(x, 48);
        let y = b.dwconv(y, 48, 3, 1, 1);
        let y = b.conv1x1(y, 16);
        let y = b.add(y, x);
        let g = b.finish(y);
        let chains = find_chains(&g);
        let c = chains
            .iter()
            .find(|c| c.pattern == PatternKind::PwDwPw)
            .unwrap();
        // Chain must not include the Add.
        assert_eq!(c.nodes.len(), 3);
    }

    #[test]
    fn too_small_final_height_is_rejected() {
        let mut b = GraphBuilder::new("tiny");
        let x = b.input(Shape::nhwc(1, 1, 4, 4));
        let y = b.conv1x1(x, 8);
        let y = b.dwconv(y, 8, 1, 1, 0);
        let mut g = b.finish(y);
        let chain = find_chains(&g).into_iter().next().unwrap();
        assert!(matches!(
            pipeline_chain(&mut g, &chain, 2),
            Err(Error::NotApplicable(_))
        ));
    }
}
