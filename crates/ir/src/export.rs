//! Graph interchange: JSON serialization (the role of ONNX files in the
//! original artifact) and Graphviz DOT export for visual inspection of
//! transformed graphs.

use crate::graph::{Graph, NodeId};
use crate::placement::Placement;
use std::fmt::Write as _;

impl Graph {
    /// Serializes the graph (structure, shapes, weight keys, parameter
    /// views, placements) to JSON. The inverse of [`Graph::from_json`].
    ///
    /// # Errors
    ///
    /// Never fails in practice; the `Result` is kept so callers are ready
    /// for stricter formats later.
    pub fn to_json(&self) -> Result<String, pimflow_json::JsonError> {
        Ok(pimflow_json::to_string_pretty(self))
    }

    /// Deserializes a graph previously produced by [`Graph::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`pimflow_json::JsonError`] on malformed input.
    pub fn from_json(json: &str) -> Result<Graph, pimflow_json::JsonError> {
        pimflow_json::from_str(json)
    }

    /// Renders the graph in Graphviz DOT format. PIM-placed nodes are
    /// drawn as filled boxes so device placement is visible at a glance.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
        for (i, &input) in self.inputs().iter().enumerate() {
            let shape = self
                .value(input)
                .desc
                .as_ref()
                .map(|d| d.to_string())
                .unwrap_or_default();
            let _ = writeln!(out, "  in{i} [label=\"input {shape}\", shape=ellipse];");
        }
        let dot_id = |id: NodeId| format!("n{}", id.index());
        for id in self.node_ids() {
            let node = self.node(id);
            let style = if node.placement.device() == Placement::Pim {
                ", style=filled, fillcolor=lightblue"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {} [label=\"{}\\n{}\"{}];",
                dot_id(id),
                node.name.replace('"', "'"),
                node.op,
                style
            );
        }
        for id in self.node_ids() {
            let node = self.node(id);
            for &input in &node.inputs {
                match self.producer(input) {
                    Some(p) => {
                        let _ = writeln!(out, "  {} -> {};", dot_id(p), dot_id(id));
                    }
                    None => {
                        if let Some(pos) = self.inputs().iter().position(|&v| v == input) {
                            let _ = writeln!(out, "  in{pos} -> {};", dot_id(id));
                        }
                    }
                }
            }
        }
        let _ = writeln!(out, "}}");
        out
    }
}

impl Graph {
    /// One-paragraph statistics of the model: node/class counts, MACs,
    /// parameter and peak-activation footprints. Requires inferred shapes.
    ///
    /// # Panics
    ///
    /// Panics if shapes have not been inferred.
    pub fn summary(&self) -> String {
        use crate::analysis::{classify, node_cost, peak_activation_bytes, LayerClass};
        let mut macs = 0u64;
        let mut params = 0u64;
        let mut counts = [0usize; 5];
        for id in self.node_ids() {
            let c = node_cost(self, id);
            macs += c.macs;
            params += c.weight_elems;
            let idx = match classify(self, id) {
                LayerClass::PointwiseConv => 0,
                LayerClass::DepthwiseConv => 1,
                LayerClass::RegularConv => 2,
                LayerClass::Fc => 3,
                LayerClass::Other => 4,
            };
            counts[idx] += 1;
        }
        format!(
            "{}: {} nodes ({} 1x1 conv, {} dw conv, {} conv, {} fc, {} other),              {:.1} MMACs, {:.1} M params, peak activations {:.2} MB",
            self.name,
            self.node_count(),
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            counts[4],
            macs as f64 / 1e6,
            params as f64 / 1e6,
            peak_activation_bytes(self) as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ParamView;
    use crate::models;
    use crate::ops::{ConcatAttrs, DenseAttrs, Op};
    use crate::placement::{FusedNodeRole, FusionTag, NodePlacement};
    use crate::shape_infer::infer_shapes;

    #[test]
    fn json_roundtrip_preserves_structure() {
        let g = models::toy();
        let json = g.to_json().unwrap();
        let mut back = Graph::from_json(&json).unwrap();
        assert_eq!(back.name, g.name);
        assert_eq!(back.node_count(), g.node_count());
        back.validate().unwrap();
        infer_shapes(&mut back).unwrap();
        // Same node names, ops, and weight keys.
        for id in g.node_ids() {
            let a = g.node(id);
            let b = back
                .find_node(&a.name)
                .map(|i| back.node(i))
                .expect("node survives");
            assert_eq!(a.op, b.op);
            assert_eq!(a.weight_key, b.weight_key);
        }
    }

    /// Toy transformed by hand the way the passes do it: `conv_1 ->
    /// relu_2 -> conv_3` fused as group 0, and `fc_11` split over its
    /// output features into a GPU part and a PIM part joined by a concat.
    fn fused_and_split_toy() -> Graph {
        let mut g = models::toy();
        for (name, role) in [
            ("conv_1", FusedNodeRole::Head),
            ("relu_2", FusedNodeRole::Rider),
            ("conv_3", FusedNodeRole::Tail),
        ] {
            let id = g.find_node(name).unwrap();
            g.node_mut(id).placement = NodePlacement::Fused(FusionTag { gid: 0, role });
        }
        let fc = g.find_node("fc_11").unwrap();
        let fc_node = g.node(fc).clone();
        let parts = [
            (0..4, NodePlacement::Gpu, "mddp_a_"),
            (4..10, NodePlacement::Pim, "mddp_b_"),
        ]
        .map(|(cols, device, tag)| {
            let out = g.add_node_with_key(
                format!("{tag}fc_11"),
                Op::Dense(DenseAttrs {
                    out_features: cols.len(),
                }),
                fc_node.inputs.clone(),
                fc_node.weight_key,
            );
            let part = g.node_mut(g.producer(out).unwrap());
            part.param_view = Some(ParamView {
                orig_out: 10,
                begin: cols.start,
                end: cols.end,
            });
            part.placement = device;
            out
        });
        let concat = g.add_node(
            "mddp_fc_11_concat",
            Op::Concat(ConcatAttrs { axis: 1 }),
            parts.to_vec(),
        );
        g.replace_uses(fc_node.output, concat);
        g.remove_node(fc);
        infer_shapes(&mut g).unwrap();
        g
    }

    #[test]
    fn json_roundtrip_preserves_semantics() {
        for (g, pim_nodes) in [(models::toy(), 0), (fused_and_split_toy(), 4)] {
            let back = Graph::from_json(&g.to_json().unwrap()).unwrap();
            // Weight keys, views and placements survive, so downstream
            // execution is bit-identical; structurally the serialization
            // must be a fixed point.
            assert_eq!(pimflow_json::to_string(&g), pimflow_json::to_string(&back));
            for id in g.node_ids() {
                assert_eq!(g.node(id).placement, back.node(id).placement);
            }
            let on_pim = back
                .node_ids()
                .filter(|&id| back.node(id).placement.device() == Placement::Pim)
                .count();
            assert_eq!(on_pim, pim_nodes, "{}", g.name);
        }
    }

    #[test]
    fn dot_contains_all_nodes_and_marks_pim() {
        let mut g = models::toy();
        let id = g.find_node("conv_3").unwrap();
        assert!(!g.to_dot().contains("lightblue"), "GPU nodes stay plain");
        g.node_mut(id).placement = NodePlacement::Pim;
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph"));
        for id in g.node_ids() {
            assert!(
                dot.contains(&g.node(id).name.replace('"', "'")),
                "{}",
                g.node(id).name
            );
        }
        assert_eq!(
            dot.matches("lightblue").count(),
            1,
            "PIM nodes must be highlighted"
        );
        assert_eq!(dot.matches(" -> ").count(), 11); // edges = node inputs
    }

    #[test]
    fn summary_mentions_the_essentials() {
        let s = models::mobilenet_v2().summary();
        assert!(s.contains("mobilenet-v2"));
        assert!(s.contains("MMACs"));
        assert!(s.contains("1x1 conv"));
        assert!(s.contains("peak activations"));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Graph::from_json("{not json").is_err());
    }
}
