//! Fusion-group pass: keep inter-layer activations near the banks.
//!
//! A fusion group is a producer→consumer run of PIM-eligible heavy layers
//! (non-depthwise convs and FC layers, the [`Graph::is_pim_candidate`]
//! set) connected through single-input element-wise riders. When the
//! whole run executes on the PIM side, the intermediate activations never
//! need to cross the channel bus: the producer's result `DRAIN` and the
//! consumer's input staging `BUFWRITE` collapse into `BANKFEED`s (see
//! [`pimflow_isa::FusedRole`]), and the riders between them are applied
//! near the banks during the hand-off.
//!
//! The pass itself is a pure placement transformation: it sets each
//! member's [`NodePlacement::Fused`] annotation (group id and role) and
//! changes no dataflow, so a fused graph is numerically identical to the
//! original by construction. The engine reads the annotation to price the
//! fused lowering; Algorithm 1 decides where fusing pays (see
//! [`Decision::Fused`](crate::search::Decision::Fused)).

use crate::passes::split_util::{is_linear_rider, is_residual_rider};
use crate::placement::{FusedNodeRole, FusionTag, NodePlacement};
use crate::Error;
use pimflow_ir::{Graph, NodeId, ValueId};
use std::collections::HashSet;

/// A fusion candidate: a linear run of PIM-eligible heavy layers and the
/// element-wise riders between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionGroup {
    /// All group nodes in order (heavy layers and riders).
    pub nodes: Vec<NodeId>,
    /// The heavy layers only, in order (at least two).
    pub heavy: Vec<NodeId>,
}

/// True for layers that can anchor or extend a fusion group: the PIM
/// candidates (non-depthwise, ungrouped convs and FC layers). Depthwise
/// convs, pools, and multi-input ops terminate a group.
pub fn is_fusion_heavy(graph: &Graph, id: NodeId) -> bool {
    graph.is_pim_candidate(id)
}

/// Finds all fusion candidates: maximal residual-aware runs of two or
/// more heavy layers, scanned in topological order. Runs claimed by an
/// earlier group do not start a new scan, so the returned groups are
/// disjoint.
///
/// Unlike the pipelining pass's strictly linear scanner, the fusion
/// walker continues past skip-connection fan-outs whose rejoin lands
/// back inside the group: when a member's output feeds one followable
/// trunk successor *and* one two-input residual rider (`Add`/`Mul`), the
/// walker follows the trunk and absorbs the rider once every operand is
/// group-resident — the element-wise rejoin becomes a near-bank rider
/// instead of a group terminator, which is what lets ResNet-style
/// bottleneck towers fuse end to end. A fan-out whose rejoin never
/// resolves (a projection shortcut, a true graph split) rolls the group
/// back to the fork.
pub fn find_fusion_groups(graph: &Graph) -> Vec<FusionGroup> {
    let mut groups = Vec::new();
    let Ok(order) = graph.topo_order() else {
        return groups;
    };
    let mut claimed: HashSet<NodeId> = HashSet::new();
    for &start in &order {
        if claimed.contains(&start) || !is_fusion_heavy(graph, start) {
            continue;
        }
        let (nodes, heavy) = residual_run(graph, start);
        if heavy.len() < 2 {
            continue;
        }
        claimed.extend(nodes.iter().copied());
        groups.push(FusionGroup { nodes, heavy });
    }
    groups
}

/// Walks forward from heavy node `start`, collecting the residual-aware
/// run described on [`find_fusion_groups`]. Returns `(all nodes, heavy
/// nodes)` in order.
fn residual_run(graph: &Graph, start: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut nodes = vec![start];
    let mut heavy = vec![start];
    // Values resident near the banks once the group executes fused: the
    // head's own inputs (staged for it) and every member's output.
    let mut available: HashSet<ValueId> = graph.node(start).inputs.iter().copied().collect();
    available.insert(graph.node(start).output);
    // Unresolved skip fan-outs: the forked value plus the group length at
    // the fork, so a skip that never rejoins rolls the group back to it.
    let mut pending: Vec<(ValueId, usize, usize)> = Vec::new();
    let mut cur = start;
    loop {
        let out = graph.node(cur).output;
        let consumers = graph.successors(cur);
        let next = match consumers {
            [one] => *one,
            [a, b] => {
                // Skip-connection fan-out: exactly one trunk successor to
                // keep walking and one residual rider that must rejoin
                // downstream with group-resident operands.
                let trunk = |id: NodeId| {
                    graph.node(id).inputs.len() == 1
                        && (is_fusion_heavy(graph, id) || is_linear_rider(&graph.node(id).op))
                };
                let rejoiner = |id: NodeId| {
                    let n = graph.node(id);
                    is_residual_rider(&n.op) && n.inputs.len() == 2 && n.inputs.contains(&out)
                };
                if trunk(*a) && rejoiner(*b) {
                    pending.push((out, nodes.len(), heavy.len()));
                    *a
                } else if trunk(*b) && rejoiner(*a) {
                    pending.push((out, nodes.len(), heavy.len()));
                    *b
                } else {
                    break;
                }
            }
            _ => break,
        };
        let node = graph.node(next);
        if node.inputs.len() == 1 && is_fusion_heavy(graph, next) {
            nodes.push(next);
            heavy.push(next);
        } else if node.inputs.len() == 1 && is_linear_rider(&node.op) {
            nodes.push(next);
        } else if is_residual_rider(&node.op) && node.inputs.iter().all(|v| available.contains(v)) {
            // The rejoin: every operand is already group-resident, so the
            // element-wise op applies near the banks during the hand-off.
            nodes.push(next);
            pending.retain(|(v, _, _)| !node.inputs.contains(v));
        } else {
            break;
        }
        available.insert(node.output);
        cur = next;
    }
    // Skips that never rejoined leave the fused region through the bus
    // anyway: roll back to the earliest unresolved fork.
    if let Some(&(_, n_len, h_len)) = pending.iter().min_by_key(|&&(_, n, _)| n) {
        nodes.truncate(n_len);
        heavy.truncate(h_len);
    }
    // Trim trailing single-input riders so linear runs still end at a
    // heavy node (epilogues stay outside the region, as before); a
    // trailing residual rejoin stays — pricing it near the banks is the
    // point of absorbing it.
    while let Some(&last) = nodes.last() {
        if is_fusion_heavy(graph, last) || is_residual_rider(&graph.node(last).op) {
            break;
        }
        nodes.pop();
    }
    (nodes, heavy)
}

/// Marks `group`'s members as fusion group `gid`: the first heavy layer
/// becomes the head, the last the tail, interior heavy layers middles,
/// and the element-wise nodes between them riders. The transformation is
/// annotation-only — names, dataflow, shapes, and numerics are untouched.
///
/// # Errors
///
/// Returns [`Error::NotApplicable`] when the group has fewer than two
/// heavy layers, a member is already placed on PIM, a listed
/// rider is not element-wise, or a heavy member is not in the node list.
pub fn fuse_group(graph: &mut Graph, group: &FusionGroup, gid: usize) -> Result<(), Error> {
    if group.heavy.len() < 2 {
        return Err(Error::NotApplicable(
            "fusion group needs at least two heavy layers".into(),
        ));
    }
    let heavy: HashSet<NodeId> = group.heavy.iter().copied().collect();
    for &id in &group.heavy {
        if !group.nodes.contains(&id) {
            return Err(Error::NotApplicable(
                "fusion group heavy layer missing from its node list".into(),
            ));
        }
    }
    for &id in &group.nodes {
        let node = graph.node(id);
        if node.placement != NodePlacement::Gpu {
            return Err(Error::NotApplicable(format!(
                "node `{}` is already placed",
                node.name
            )));
        }
        if !heavy.contains(&id) && !is_linear_rider(&node.op) && !is_residual_rider(&node.op) {
            return Err(Error::NotApplicable(format!(
                "fusion rider `{}` is not element-wise",
                node.name
            )));
        }
    }
    let first = group.heavy[0];
    let last = *group.heavy.last().expect("checked above");
    for &id in &group.nodes {
        let role = if !heavy.contains(&id) {
            FusedNodeRole::Rider
        } else if id == first {
            FusedNodeRole::Head
        } else if id == last {
            FusedNodeRole::Tail
        } else {
            FusedNodeRole::Middle
        };
        graph.node_mut(id).placement = NodePlacement::Fused(FusionTag { gid, role });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use pimflow_ir::{models, GraphBuilder, Op, Shape};
    use pimflow_kernels::{input_tensors, run_graph};

    /// `(group id, role, name)` of a fused node.
    fn membership(g: &Graph, id: NodeId) -> (usize, FusedNodeRole, &str) {
        let node = g.node(id);
        let tag = node.placement.fusion().expect("fused node");
        (tag.gid, tag.role, node.name.as_str())
    }

    #[test]
    fn toy_has_one_group_over_the_leading_convs() {
        let g = models::toy();
        let groups = find_fusion_groups(&g);
        assert_eq!(groups.len(), 1, "{groups:?}");
        let names: Vec<&str> = groups[0]
            .nodes
            .iter()
            .map(|&id| g.node(id).name.as_str())
            .collect();
        assert_eq!(names, ["conv_1", "relu_2", "conv_3"]);
        assert_eq!(groups[0].heavy.len(), 2);
    }

    #[test]
    fn depthwise_and_pool_terminate_groups() {
        // pw -> dw -> pw: the dw conv is not fusion-heavy and not
        // element-wise, so no group spans it.
        let mut b = GraphBuilder::new("block");
        let x = b.input(Shape::nhwc(1, 8, 8, 8));
        let y = b.conv1x1(x, 16);
        let y = b.dwconv(y, 16, 3, 1, 1);
        let y = b.conv1x1(y, 8);
        let g = b.finish(y);
        assert!(find_fusion_groups(&g).is_empty());
    }

    #[test]
    fn residual_rejoin_extends_groups() {
        // conv -> conv where the intermediate also feeds a residual Add
        // that rejoins right after: both operands are group-resident, so
        // the Add rides near the banks instead of terminating the group.
        let mut b = GraphBuilder::new("res");
        let x = b.input(Shape::nhwc(1, 8, 8, 16));
        let y = b.conv1x1(x, 16);
        let z = b.conv1x1(y, 16);
        let w = b.add(z, y);
        let mut g = b.finish(w);
        let groups = find_fusion_groups(&g);
        assert_eq!(groups.len(), 1, "{groups:?}");
        let group = &groups[0];
        assert_eq!(group.heavy.len(), 2);
        assert_eq!(group.nodes.len(), 3);
        let names: Vec<&str> = group
            .nodes
            .iter()
            .map(|&id| g.node(id).name.as_str())
            .collect();
        assert_eq!(names, ["conv_1", "conv_2", "add_3"]);
        // The trailing rejoin fuses as a rider behind the tail.
        fuse_group(&mut g, group, 7).unwrap();
        let roles: Vec<_> = group.nodes.iter().map(|&id| membership(&g, id)).collect();
        assert_eq!(roles[0], (7, FusedNodeRole::Head, "conv_1"));
        assert_eq!(roles[1], (7, FusedNodeRole::Tail, "conv_2"));
        assert_eq!(roles[2], (7, FusedNodeRole::Rider, "add_3"));
    }

    #[test]
    fn resnet_identity_block_fuses_through_the_add() {
        // conv1x1 -> relu -> conv3x3 -> relu -> conv1x1 -> add(skip) ->
        // relu: the canonical identity bottleneck. The skip forks off the
        // block input (the head's own staged input), so the add rejoins
        // with both operands group-resident and the whole tower fuses.
        let mut b = GraphBuilder::new("bneck");
        let x = b.input(Shape::nhwc(1, 14, 14, 64));
        let skip = b.conv1x1(x, 64);
        let y = b.conv1x1(skip, 16);
        let y = b.relu(y);
        let y = b.conv(y, 16, 3, 1, 1);
        let y = b.relu(y);
        let y = b.conv1x1(y, 64);
        let y = b.add(y, skip);
        let y = b.relu(y);
        let g = b.finish(y);
        let groups = find_fusion_groups(&g);
        assert_eq!(groups.len(), 1, "{groups:?}");
        // skip conv + 3 tower convs all land in one group, add included.
        assert_eq!(groups[0].heavy.len(), 4, "{groups:?}");
        let last = *groups[0].nodes.last().unwrap();
        assert!(matches!(g.node(last).op, Op::Add));
    }

    #[test]
    fn projection_shortcut_terminates_groups() {
        // The add's second operand comes from a conv outside the run, so
        // the rejoin is not group-resident: the group stops at the last
        // trunk conv and the add stays outside.
        let mut b = GraphBuilder::new("proj");
        let x = b.input(Shape::nhwc(1, 8, 8, 16));
        let y1 = b.conv1x1(x, 16);
        let y2 = b.conv1x1(y1, 16);
        let y3 = b.conv1x1(y2, 32);
        let sc = b.conv1x1(x, 32);
        let w = b.add(y3, sc);
        let g = b.finish(w);
        let groups = find_fusion_groups(&g);
        assert_eq!(groups.len(), 1, "{groups:?}");
        assert_eq!(groups[0].heavy.len(), 3);
        assert_eq!(groups[0].nodes.len(), 3);
        assert!(!groups[0]
            .nodes
            .iter()
            .any(|&id| matches!(g.node(id).op, Op::Add)));
    }

    #[test]
    fn unresolved_skip_rolls_back_to_fork() {
        // The skip forks at conv_1's output but the trunk hits a
        // depthwise conv before the add rejoins: the fork never resolves
        // inside the group, so the walk rolls back and no group remains.
        let mut b = GraphBuilder::new("deadskip");
        let x = b.input(Shape::nhwc(1, 8, 8, 16));
        let y = b.conv1x1(x, 16);
        let z = b.conv1x1(y, 16);
        let d = b.dwconv(z, 16, 3, 1, 1);
        let w = b.add(d, y);
        let g = b.finish(w);
        assert!(find_fusion_groups(&g).is_empty());
    }

    #[test]
    fn groups_are_disjoint_and_maximal() {
        // conv -> relu -> conv -> relu -> conv: one group of three heavy
        // layers, not two overlapping pairs.
        let mut b = GraphBuilder::new("deep");
        let x = b.input(Shape::nhwc(1, 8, 8, 4));
        let y = b.conv1x1(x, 8);
        let y = b.relu(y);
        let y = b.conv1x1(y, 8);
        let y = b.relu(y);
        let y = b.conv1x1(y, 4);
        let g = b.finish(y);
        let groups = find_fusion_groups(&g);
        assert_eq!(groups.len(), 1, "{groups:?}");
        assert_eq!(groups[0].heavy.len(), 3);
        assert_eq!(groups[0].nodes.len(), 5);
    }

    #[test]
    fn fuse_group_is_annotation_only_and_preserves_numerics() {
        let original = models::toy();
        let mut fused = original.clone();
        let group = find_fusion_groups(&fused).into_iter().next().unwrap();
        fuse_group(&mut fused, &group, 0).unwrap();
        // Placement annotations landed with the right roles; names stay.
        let roles: Vec<_> = group
            .nodes
            .iter()
            .map(|&id| membership(&fused, id))
            .collect();
        assert_eq!(roles[0], (0, FusedNodeRole::Head, "conv_1"));
        assert_eq!(roles[1], (0, FusedNodeRole::Rider, "relu_2"));
        assert_eq!(roles[2], (0, FusedNodeRole::Tail, "conv_3"));
        for &id in &group.nodes {
            assert_eq!(fused.node(id).placement.device(), Placement::Pim);
        }
        // Annotation-only: outputs are bit-identical.
        let inputs = input_tensors(&original, 11);
        let a = run_graph(&original, &inputs).unwrap();
        let b = run_graph(&fused, &inputs).unwrap();
        assert_eq!(a[0].max_abs_diff(&b[0]), 0.0);
    }

    #[test]
    fn fuse_group_rejects_degenerate_groups() {
        let mut g = models::toy();
        let id = g.find_node("conv_1").unwrap();
        let solo = FusionGroup {
            nodes: vec![id],
            heavy: vec![id],
        };
        assert!(matches!(
            fuse_group(&mut g, &solo, 0),
            Err(Error::NotApplicable(_))
        ));
        // Double-fusing the same nodes is rejected: they are already
        // placed.
        let group = find_fusion_groups(&g).into_iter().next().unwrap();
        fuse_group(&mut g, &group, 0).unwrap();
        assert!(matches!(
            fuse_group(&mut g, &group, 1),
            Err(Error::NotApplicable(_))
        ));
    }
}
