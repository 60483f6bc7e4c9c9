//! The model graph: a DAG of operator nodes over tensor values.
//!
//! This plays the role of the ONNX protobuf graph in the original PIMFlow
//! artifact. Transformation passes edit the graph in place: nodes can be
//! added, removed (tombstoned), and uses of a value can be rewired, which is
//! exactly the vocabulary the multi-device parallelization and pipelining
//! passes (§4.2.1) need.

use crate::ops::Op;
use crate::placement::NodePlacement;
use crate::tensor::{DataType, Shape, TensorDesc};
use pimflow_json::{json_struct, FromJson, Json, JsonError, ToJson};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a tensor value within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub(crate) usize);

impl ValueId {
    /// Raw index (stable for the lifetime of the graph).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index (stable for the lifetime of the graph).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A tensor value: either a graph input or the output of exactly one node.
#[derive(Debug, Clone)]
pub struct Value {
    /// Human-readable name.
    pub name: String,
    /// Shape and dtype, filled in by [`crate::shape_infer::infer_shapes`].
    pub desc: Option<TensorDesc>,
    /// Producing node, if any (graph inputs have none).
    pub producer: Option<NodeId>,
}

/// A window into a node's original parameter tensor along the output
/// (channel/feature) axis.
///
/// When a pass splits a CONV/FC node along its *output* dimension, each part
/// must see the matching **columns** of the original weight matrix, not
/// freshly generated weights of the smaller shape. The executor regenerates
/// the full `[.., orig_out]` parameters from the weight key and then keeps
/// columns `begin..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamView {
    /// Output width of the original (unsplit) node.
    pub orig_out: usize,
    /// First output column this part owns.
    pub begin: usize,
    /// One past the last output column this part owns.
    pub end: usize,
}

impl ParamView {
    /// Number of output columns in the view.
    pub fn len(&self) -> usize {
        self.end - self.begin
    }

    /// True if the view selects no columns.
    pub fn is_empty(&self) -> bool {
        self.end <= self.begin
    }
}

/// An operator node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable name, unique within the graph.
    pub name: String,
    /// The operator.
    pub op: Op,
    /// Input values, in operator order.
    pub inputs: Vec<ValueId>,
    /// The single output value.
    pub output: ValueId,
    /// Deterministic seed for this node's parameters (weights/bias).
    ///
    /// Transformation passes that split a node **clone** this key so both
    /// halves regenerate identical weights — the property the numerical
    /// equivalence tests rely on.
    pub weight_key: u64,
    /// Output-axis window into the original parameters, set by passes that
    /// split a node along its output dimension (see [`ParamView`]).
    pub param_view: Option<ParamView>,
    /// Device placement and fusion-group membership, written by the
    /// transformation passes. New nodes start on the GPU.
    pub placement: NodePlacement,
}

/// Errors returned by graph construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph contains a cycle. The field names the lowest-id node that
    /// cannot be ordered: one on a cycle or downstream of one.
    Cycle(String),
    /// A node received the wrong number of inputs.
    Arity {
        /// Offending node name.
        node: String,
        /// Expected input count (`None` = at least 2).
        expected: Option<usize>,
        /// Actual input count.
        actual: usize,
    },
    /// Shapes are inconsistent with the operator semantics.
    Shape {
        /// Offending node name.
        node: String,
        /// Description of the problem.
        message: String,
    },
    /// A referenced value or node does not exist (or was removed).
    Dangling(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Cycle(n) => write!(f, "graph contains a cycle through node `{n}`"),
            GraphError::Arity {
                node,
                expected,
                actual,
            } => match expected {
                Some(e) => write!(f, "node `{node}` expects {e} inputs, got {actual}"),
                None => write!(f, "node `{node}` expects at least 2 inputs, got {actual}"),
            },
            GraphError::Shape { node, message } => {
                write!(f, "shape error at node `{node}`: {message}")
            }
            GraphError::Dangling(what) => write!(f, "dangling reference: {what}"),
        }
    }
}

impl Error for GraphError {}

/// A directed acyclic graph of operator nodes.
///
/// # Examples
///
/// ```
/// use pimflow_ir::{Graph, Op, Conv2dAttrs, Shape, DataType};
///
/// let mut g = Graph::new("tiny");
/// let x = g.add_input("x", Shape::nhwc(1, 8, 8, 3), DataType::F16);
/// let y = g.add_node("conv0", Op::Conv2d(Conv2dAttrs::pointwise(16)), vec![x]);
/// g.mark_output(y);
/// pimflow_ir::infer_shapes(&mut g).unwrap();
/// assert_eq!(g.value(y).desc.as_ref().unwrap().shape, Shape::nhwc(1, 8, 8, 16));
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    /// Model name (e.g. `"mobilenet-v2"`).
    pub name: String,
    values: Vec<Value>,
    nodes: Vec<Option<Node>>,
    inputs: Vec<ValueId>,
    outputs: Vec<ValueId>,
    next_weight_key: u64,
    /// Every value's consumers, built by the first query that needs them.
    /// Every method that adds a value or may change a node drops it, so it
    /// never goes stale, and building a graph never builds it.
    consumers: OnceLock<ConsumerIndex>,
}

/// Each value's live consuming nodes, ascending by id, in one table: the
/// consumers of value `v` are `nodes[starts[v]..starts[v + 1]]`. A node
/// reading a value twice is listed once; an input id past the value table
/// is left out.
#[derive(Debug, Clone)]
struct ConsumerIndex {
    starts: Vec<usize>,
    nodes: Vec<NodeId>,
}

impl ConsumerIndex {
    fn new(graph: &Graph) -> Self {
        let values = graph.values.len();
        // Each live node with the values it reads, each value once.
        let uses = || {
            graph.node_ids().flat_map(move |id| {
                let inputs = &graph.node(id).inputs;
                inputs
                    .iter()
                    .enumerate()
                    .filter(move |&(i, v)| v.0 < values && !inputs[..i].contains(v))
                    .map(move |(_, v)| (v.0, id))
            })
        };
        let mut starts = vec![0usize; values + 1];
        for (v, _) in uses() {
            starts[v + 1] += 1;
        }
        for v in 0..values {
            starts[v + 1] += starts[v];
        }
        let mut next = starts.clone();
        let mut nodes = vec![NodeId(0); starts[values]];
        for (v, id) in uses() {
            nodes[next[v]] = id;
            next[v] += 1;
        }
        ConsumerIndex { starts, nodes }
    }

    fn of(&self, v: ValueId) -> &[NodeId] {
        match self.starts.get(v.0..v.0 + 2) {
            Some(&[lo, hi]) => &self.nodes[lo..hi],
            _ => &[],
        }
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            values: Vec::new(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            next_weight_key: 1,
            consumers: OnceLock::new(),
        }
    }

    /// Adds a graph input value.
    pub fn add_input(&mut self, name: impl Into<String>, shape: Shape, dtype: DataType) -> ValueId {
        self.consumers.take();
        let id = ValueId(self.values.len());
        self.values.push(Value {
            name: name.into(),
            desc: Some(TensorDesc::new(shape, dtype)),
            producer: None,
        });
        self.inputs.push(id);
        id
    }

    /// Adds a node with a fresh weight key; returns its output value.
    pub fn add_node(&mut self, name: impl Into<String>, op: Op, inputs: Vec<ValueId>) -> ValueId {
        let key = self.next_weight_key;
        self.next_weight_key += 1;
        self.add_node_with_key(name, op, inputs, key)
    }

    /// Adds a node with an explicit weight key (used by passes that split a
    /// node and must preserve its parameters); returns its output value.
    pub fn add_node_with_key(
        &mut self,
        name: impl Into<String>,
        op: Op,
        inputs: Vec<ValueId>,
        weight_key: u64,
    ) -> ValueId {
        self.consumers.take();
        let name = name.into();
        let node_id = NodeId(self.nodes.len());
        let out_id = ValueId(self.values.len());
        self.values.push(Value {
            name: format!("{name}.out"),
            desc: None,
            producer: Some(node_id),
        });
        self.nodes.push(Some(Node {
            name,
            op,
            inputs,
            output: out_id,
            weight_key,
            param_view: None,
            placement: NodePlacement::Gpu,
        }));
        self.next_weight_key = self.next_weight_key.max(weight_key + 1);
        out_id
    }

    /// Marks a value as a graph output.
    pub fn mark_output(&mut self, v: ValueId) {
        self.outputs.push(v);
    }

    /// Replaces the graph output `old` with `new` (used when a pass rewrites
    /// the final node of the graph).
    pub fn replace_output(&mut self, old: ValueId, new: ValueId) {
        for o in &mut self.outputs {
            if *o == old {
                *o = new;
            }
        }
    }

    /// Graph inputs.
    pub fn inputs(&self) -> &[ValueId] {
        &self.inputs
    }

    /// Graph outputs.
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }

    /// The value record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.0]
    }

    /// Mutable value record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn value_mut(&mut self, id: ValueId) -> &mut Value {
        &mut self.values[id.0]
    }

    /// The node record for `id`, or `None` if the node was removed.
    pub fn try_node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0).and_then(|n| n.as_ref())
    }

    /// The node record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or was removed.
    pub fn node(&self, id: NodeId) -> &Node {
        self.try_node(id)
            .expect("node was removed or never existed")
    }

    /// Mutable node record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or was removed.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.consumers.take();
        self.nodes[id.0]
            .as_mut()
            .expect("node was removed or never existed")
    }

    /// Removes a node, leaving its output value dangling. Callers must
    /// rewire consumers of the output first (see [`Graph::replace_uses`]).
    pub fn remove_node(&mut self, id: NodeId) {
        self.consumers.take();
        self.nodes[id.0] = None;
    }

    /// Iterates over live node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| NodeId(i)))
    }

    /// The id the next added node will get. A pass records it before
    /// appending nodes and hands it to
    /// [`infer_shapes_from`](crate::shape_infer::infer_shapes_from).
    pub fn next_node_id(&self) -> NodeId {
        NodeId(self.nodes.len())
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Number of values (including dangling ones).
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Rewires every use of `old` (as a node input or graph output) to `new`.
    pub fn replace_uses(&mut self, old: ValueId, new: ValueId) {
        self.consumers.take();
        for node in self.nodes.iter_mut().flatten() {
            for input in &mut node.inputs {
                if *input == old {
                    *input = new;
                }
            }
        }
        self.replace_output(old, new);
    }

    /// Live nodes that consume `v` as an input, ascending by id (none for
    /// an id past the value table).
    pub fn consumers(&self, v: ValueId) -> &[NodeId] {
        self.consumers
            .get_or_init(|| ConsumerIndex::new(self))
            .of(v)
    }

    /// The node producing `v`, if `v` is not a graph input and its producer
    /// is still live.
    pub fn producer(&self, v: ValueId) -> Option<NodeId> {
        self.value(v)
            .producer
            .filter(|&id| self.try_node(id).is_some())
    }

    /// Live predecessor nodes of `id` (producers of its inputs),
    /// deduplicated — a node consuming the same value twice (or two values
    /// of one producer) lists that producer once, keeping edge counts
    /// consistent with [`Graph::successors`] for topological sorting.
    pub fn predecessors(&self, id: NodeId) -> Vec<NodeId> {
        let mut preds: Vec<NodeId> = self
            .node(id)
            .inputs
            .iter()
            .filter_map(|&v| self.producer(v))
            .collect();
        preds.sort_unstable();
        preds.dedup();
        preds
    }

    /// Live successor nodes of `id` (consumers of its output).
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        self.consumers(self.node(id).output)
    }

    /// Kahn topological order over live nodes, in O(nodes + edges).
    ///
    /// The order is deterministic: nodes without live predecessors in
    /// ascending id, then each sorted node's newly unlocked successors in
    /// ascending id, first in first out.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if the graph is cyclic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let mut indegree = vec![0usize; self.nodes.len()];
        for id in self.node_ids() {
            for succ in self.successors(id) {
                indegree[succ.0] += 1;
            }
        }
        let mut ready: VecDeque<NodeId> =
            self.node_ids().filter(|id| indegree[id.0] == 0).collect();
        let mut sorted: Vec<NodeId> = Vec::with_capacity(self.nodes.len());
        while let Some(id) = ready.pop_front() {
            sorted.push(id);
            for &succ in self.successors(id) {
                indegree[succ.0] -= 1;
                if indegree[succ.0] == 0 {
                    ready.push_back(succ);
                }
            }
        }
        // Every node left unsorted still waits on a predecessor; name the
        // lowest id so a cyclic graph always reports the same node.
        match self.node_ids().find(|id| indegree[id.0] > 0) {
            Some(stuck) => Err(GraphError::Cycle(self.node(stuck).name.clone())),
            None => Ok(sorted),
        }
    }

    /// Structural validation: arities, acyclicity, live references, and
    /// every value id inside the value table.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] found.
    pub fn validate(&self) -> Result<(), GraphError> {
        for id in self.node_ids() {
            let node = self.node(id);
            let actual = node.inputs.len();
            match node.op.arity() {
                Some(e) if actual != e => {
                    return Err(GraphError::Arity {
                        node: node.name.clone(),
                        expected: Some(e),
                        actual,
                    })
                }
                None if actual < 2 => {
                    return Err(GraphError::Arity {
                        node: node.name.clone(),
                        expected: None,
                        actual,
                    })
                }
                _ => {}
            }
            if node.output.0 >= self.values.len() {
                return Err(GraphError::Dangling(format!(
                    "node `{}` writes value #{}",
                    node.name, node.output.0
                )));
            }
            for &v in &node.inputs {
                if v.0 >= self.values.len() {
                    return Err(GraphError::Dangling(format!(
                        "node `{}` reads value #{}",
                        node.name, v.0
                    )));
                }
                // An input must be a graph input or have a live producer.
                let val = self.value(v);
                if val.producer.is_some() && self.producer(v).is_none() {
                    return Err(GraphError::Dangling(format!(
                        "node `{}` reads output of a removed node (value `{}`)",
                        node.name, val.name
                    )));
                }
            }
        }
        for &o in &self.outputs {
            if o.0 >= self.values.len() {
                return Err(GraphError::Dangling(format!("graph output #{}", o.0)));
            }
        }
        self.topo_order().map(|_| ())
    }

    /// Input channels seen by `id` (the channel dim of its first input), or
    /// 0 if shapes have not been inferred.
    pub fn in_channels(&self, id: NodeId) -> usize {
        self.node(id)
            .inputs
            .first()
            .and_then(|&v| self.value(v).desc.as_ref())
            .map(|d| d.shape.c())
            .unwrap_or(0)
    }

    /// True if node `id` is a PIM offload candidate (FC or non-depthwise
    /// CONV, §4.2.1). Requires shapes to be inferred.
    pub fn is_pim_candidate(&self, id: NodeId) -> bool {
        self.node(id).op.is_pim_candidate_for(self.in_channels(id))
    }

    /// Finds a live node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_ids().find(|&id| self.node(id).name == name)
    }
}

impl ToJson for ValueId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for ValueId {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        usize::from_json(json).map(ValueId)
    }
}

impl ToJson for NodeId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for NodeId {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        usize::from_json(json).map(NodeId)
    }
}

json_struct!(Value {
    name,
    desc,
    producer
});
json_struct!(ParamView {
    orig_out,
    begin,
    end
});
json_struct!(Node {
    name,
    op,
    inputs,
    output,
    weight_key,
    param_view,
    placement
});

impl ToJson for Graph {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("values".into(), self.values.to_json()),
            ("nodes".into(), self.nodes.to_json()),
            ("inputs".into(), self.inputs.to_json()),
            ("outputs".into(), self.outputs.to_json()),
            ("next_weight_key".into(), self.next_weight_key.to_json()),
        ])
    }
}

/// Decodes the graph's own fields; the consumer index starts empty.
impl FromJson for Graph {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Graph {
            name: FromJson::from_json(json.field("name")?)?,
            values: FromJson::from_json(json.field("values")?)?,
            nodes: FromJson::from_json(json.field("nodes")?)?,
            inputs: FromJson::from_json(json.field("inputs")?)?,
            outputs: FromJson::from_json(json.field("outputs")?)?,
            next_weight_key: FromJson::from_json(json.field("next_weight_key")?)?,
            consumers: OnceLock::new(),
        })
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph {} ({} nodes)", self.name, self.node_count())?;
        let order = self.topo_order().map_err(|_| fmt::Error)?;
        for id in order {
            let n = self.node(id);
            let shape = self
                .value(n.output)
                .desc
                .as_ref()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "?".into());
            writeln!(f, "  {:<28} {:<36} -> {}", n.name, n.op.to_string(), shape)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{ActivationKind, ConcatAttrs, Conv2dAttrs};
    use std::collections::HashMap;

    fn diamond() -> Graph {
        let mut g = Graph::new("diamond");
        let x = g.add_input("x", Shape::nhwc(1, 4, 4, 2), DataType::F16);
        let a = g.add_node("a", Op::Conv2d(Conv2dAttrs::pointwise(4)), vec![x]);
        let b = g.add_node(
            "b",
            Op::Activation(crate::ops::ActivationKind::Relu),
            vec![a],
        );
        let c = g.add_node(
            "c",
            Op::Activation(crate::ops::ActivationKind::Relu),
            vec![a],
        );
        let d = g.add_node("d", Op::Add, vec![b, c]);
        g.mark_output(d);
        g
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let g = diamond();
        let order = g.topo_order().unwrap();
        let pos: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for id in g.node_ids() {
            for p in g.predecessors(id) {
                assert!(pos[&p] < pos[&id], "{:?} before {:?}", p, id);
            }
        }
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn topo_order_is_first_in_first_out() {
        // `b` unlocks after `c` and `d` are already ready, so it sorts
        // after them although its id is lower.
        let mut g = Graph::new("fifo");
        let x = g.add_input("x", Shape::nhwc(1, 2, 2, 2), DataType::F16);
        let relu = || Op::Activation(ActivationKind::Relu);
        let a = g.add_node("a", relu(), vec![x]);
        for (name, input) in [("b", a), ("c", x), ("d", x)] {
            let out = g.add_node(name, relu(), vec![input]);
            g.mark_output(out);
        }
        let names: Vec<&str> = g
            .topo_order()
            .unwrap()
            .into_iter()
            .map(|id| g.node(id).name.as_str())
            .collect();
        assert_eq!(names, ["a", "c", "d", "b"]);
    }

    #[test]
    fn cycle_error_names_the_lowest_unsorted_node() {
        // head -> a -> b -> c -> tail, then `a` rewired to read `c`: the
        // 3-cycle a -> b -> c -> a, with `tail` stuck downstream of it.
        let mut g = Graph::new("cyclic");
        let x = g.add_input("x", Shape::nhwc(1, 2, 2, 2), DataType::F16);
        let relu = || Op::Activation(ActivationKind::Relu);
        let head = g.add_node("head", relu(), vec![x]);
        let a = g.add_node("a", relu(), vec![head]);
        let b = g.add_node("b", relu(), vec![a]);
        let c = g.add_node("c", relu(), vec![b]);
        let tail = g.add_node("tail", relu(), vec![c]);
        g.mark_output(tail);
        g.replace_uses(head, c);
        for _ in 0..8 {
            assert_eq!(g.topo_order(), Err(GraphError::Cycle("a".into())));
            assert_eq!(g.validate(), Err(GraphError::Cycle("a".into())));
        }
    }

    #[test]
    fn validate_accepts_diamond() {
        diamond().validate().unwrap();
    }

    #[test]
    fn arity_error_detected() {
        let mut g = Graph::new("bad");
        let x = g.add_input("x", Shape::rf(1, 4), DataType::F16);
        let y = g.add_node("add", Op::Add, vec![x]);
        g.mark_output(y);
        assert!(matches!(g.validate(), Err(GraphError::Arity { .. })));
    }

    #[test]
    fn removing_producer_is_detected() {
        let mut g = diamond();
        let a = g.find_node("a").unwrap();
        g.remove_node(a);
        assert!(matches!(g.validate(), Err(GraphError::Dangling(_))));
    }

    #[test]
    fn replace_uses_rewires_consumers_and_outputs() {
        let mut g = diamond();
        let a = g.find_node("a").unwrap();
        let a_out = g.node(a).output;
        let x = g.inputs()[0];
        g.replace_uses(a_out, x);
        g.remove_node(a);
        g.validate().unwrap();
        let b = g.find_node("b").unwrap();
        assert_eq!(g.node(b).inputs, vec![x]);
    }

    /// Checks every consumer and successor list against a scan of the
    /// live nodes; an id past the value table has no consumers.
    fn assert_consumers_fresh(g: &Graph, when: &str) {
        let scan = |v: ValueId| -> Vec<NodeId> {
            if v.0 >= g.value_count() {
                return Vec::new();
            }
            g.node_ids()
                .filter(|&id| g.node(id).inputs.contains(&v))
                .collect()
        };
        for v in (0..g.value_count() + 2).map(ValueId) {
            assert_eq!(g.consumers(v), scan(v), "{when}: value {v:?}");
        }
        for id in g.node_ids() {
            assert_eq!(g.successors(id), scan(g.node(id).output), "{when}");
        }
    }

    #[test]
    fn consumers_and_successors() {
        let mut g = diamond();
        let a = g.find_node("a").unwrap();
        assert_eq!(g.successors(a).len(), 2);
        // Every mutator runs on a graph whose index is built.
        assert_consumers_fresh(&g, "built");
        let x = g.inputs()[0];
        let a_out = g.node(a).output;
        let y = g.add_input("y", Shape::nhwc(1, 4, 4, 2), DataType::F16);
        assert_consumers_fresh(&g, "add_input");
        let e = g.add_node("e", Op::Add, vec![a_out, y]);
        assert_consumers_fresh(&g, "add_node");
        let f = g.add_node_with_key("f", Op::Add, vec![e, e], 7);
        assert_consumers_fresh(&g, "add_node_with_key");
        let d = g.find_node("d").unwrap();
        g.node_mut(d).inputs[0] = f;
        assert_consumers_fresh(&g, "node_mut");
        g.replace_uses(a_out, x);
        assert_consumers_fresh(&g, "replace_uses");
        g.remove_node(a);
        assert_consumers_fresh(&g, "remove_node");
        // A JSON round trip carries no index: it is built from the decoded
        // graph.
        for name in [
            "toy",
            "efficientnet-v1-b0",
            "efficientnet-v1-b2",
            "efficientnet-v1-b4",
            "efficientnet-v1-b6",
            "mobilenet-v2",
            "mnasnet-1.0",
            "resnet-18",
            "resnet-34",
            "resnet-50",
            "vgg-16",
            "squeezenet-1.1",
            "unet-small",
            "bert-3",
            "bert-64",
        ] {
            let g = crate::models::by_name(name).unwrap();
            assert_consumers_fresh(&g, name);
            let back = Graph::from_json(&g.to_json().unwrap()).unwrap();
            assert_consumers_fresh(&back, name);
            assert_eq!(back.topo_order(), g.topo_order(), "{name}");
        }
    }

    #[test]
    fn value_ids_past_the_table_are_rejected_without_panics() {
        let g = diamond();
        let past = Json::Num(g.value_count() as f64);
        // Node `b` (node 1) reads, then writes, a value id one past the
        // table.
        for (field, value) in [("inputs", Json::Arr(vec![past.clone()])), ("output", past)] {
            let mut json = ToJson::to_json(&g);
            let Json::Obj(graph) = &mut json else {
                unreachable!()
            };
            let Some((_, Json::Arr(nodes))) = graph.iter_mut().find(|(k, _)| k == "nodes") else {
                unreachable!()
            };
            let Json::Obj(b) = &mut nodes[1] else {
                unreachable!()
            };
            b.iter_mut().find(|(k, _)| k == field).unwrap().1 = value;
            let bad = Graph::from_json(&json.to_string_compact()).unwrap();
            assert!(
                matches!(bad.validate(), Err(GraphError::Dangling(_))),
                "{field}"
            );
            assert_consumers_fresh(&bad, field);
            assert!(bad.topo_order().is_ok(), "{field}");
            assert_eq!(bad.find_node("b"), g.find_node("b"), "{field}");
        }
    }

    #[test]
    fn concat_requires_two_inputs() {
        let mut g = Graph::new("c");
        let x = g.add_input("x", Shape::nhwc(1, 2, 2, 2), DataType::F16);
        let y = g.add_node("cat", Op::Concat(ConcatAttrs { axis: 1 }), vec![x]);
        g.mark_output(y);
        assert!(matches!(
            g.validate(),
            Err(GraphError::Arity {
                expected: None,
                actual: 1,
                ..
            })
        ));
    }

    #[test]
    fn weight_keys_are_unique_by_default() {
        let g = diamond();
        let mut keys: Vec<u64> = g.node_ids().map(|id| g.node(id).weight_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn display_contains_node_names() {
        let mut g = diamond();
        crate::shape_infer::infer_shapes(&mut g).unwrap();
        let s = g.to_string();
        assert!(s.contains("diamond"));
        assert!(s.contains("conv1x1"));
    }
}
