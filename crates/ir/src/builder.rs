//! Ergonomic graph construction for the model zoo.

use crate::graph::{Graph, ValueId};
use crate::ops::{
    ActivationKind, ConcatAttrs, Conv2dAttrs, DenseAttrs, Hw, Op, PadAttrs, PoolAttrs, PoolKind,
    SliceAttrs,
};
use crate::tensor::{DataType, Shape};

/// Builder that wraps a [`Graph`] with auto-named convenience constructors.
///
/// # Examples
///
/// ```
/// use pimflow_ir::{GraphBuilder, Shape};
///
/// let mut b = GraphBuilder::new("demo");
/// let x = b.input(Shape::nhwc(1, 32, 32, 3));
/// let y = b.conv(x, 16, 3, 1, 1);
/// let y = b.relu(y);
/// let g = b.finish(y);
/// assert_eq!(g.node_count(), 2);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    graph: Graph,
    counter: usize,
    dtype: DataType,
}

impl GraphBuilder {
    /// Creates a builder for a graph named `name` with f16 tensors.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            graph: Graph::new(name),
            counter: 0,
            dtype: DataType::F16,
        }
    }

    fn next_name(&mut self, prefix: &str) -> String {
        let n = self.counter;
        self.counter += 1;
        format!("{prefix}_{n}")
    }

    /// Adds a graph input.
    pub fn input(&mut self, shape: Shape) -> ValueId {
        let name = self.next_name("input");
        self.graph.add_input(name, shape, self.dtype)
    }

    /// Regular convolution: square kernel `k`, stride `s`, padding `p`.
    pub fn conv(
        &mut self,
        x: ValueId,
        out_channels: usize,
        k: usize,
        s: usize,
        p: usize,
    ) -> ValueId {
        let name = self.next_name("conv");
        self.graph.add_node(
            name,
            Op::Conv2d(Conv2dAttrs {
                out_channels,
                kernel: Hw::square(k),
                stride: Hw::square(s),
                padding: Hw::square(p),
                groups: 1,
            }),
            vec![x],
        )
    }

    /// Pointwise (1x1) convolution.
    pub fn conv1x1(&mut self, x: ValueId, out_channels: usize) -> ValueId {
        self.conv(x, out_channels, 1, 1, 0)
    }

    /// Depthwise convolution over `channels` channels.
    pub fn dwconv(&mut self, x: ValueId, channels: usize, k: usize, s: usize, p: usize) -> ValueId {
        let name = self.next_name("dwconv");
        self.graph.add_node(
            name,
            Op::Conv2d(Conv2dAttrs {
                out_channels: channels,
                kernel: Hw::square(k),
                stride: Hw::square(s),
                padding: Hw::square(p),
                groups: channels,
            }),
            vec![x],
        )
    }

    /// Fully-connected layer.
    pub fn dense(&mut self, x: ValueId, out_features: usize) -> ValueId {
        let name = self.next_name("fc");
        self.graph
            .add_node(name, Op::Dense(DenseAttrs { out_features }), vec![x])
    }

    /// Inference-mode batch normalization.
    pub fn bn(&mut self, x: ValueId) -> ValueId {
        let name = self.next_name("bn");
        self.graph.add_node(name, Op::BatchNorm, vec![x])
    }

    /// Unary activation.
    pub fn act(&mut self, x: ValueId, kind: ActivationKind) -> ValueId {
        let name = self.next_name(Op::Activation(kind).mnemonic());
        self.graph.add_node(name, Op::Activation(kind), vec![x])
    }

    /// ReLU.
    pub fn relu(&mut self, x: ValueId) -> ValueId {
        self.act(x, ActivationKind::Relu)
    }

    /// ReLU6.
    pub fn relu6(&mut self, x: ValueId) -> ValueId {
        self.act(x, ActivationKind::Relu6)
    }

    /// Swish (SiLU).
    pub fn swish(&mut self, x: ValueId) -> ValueId {
        self.act(x, ActivationKind::Swish)
    }

    /// Element-wise addition.
    pub fn add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        let name = self.next_name("add");
        self.graph.add_node(name, Op::Add, vec![a, b])
    }

    /// Element-wise multiplication (supports `[N,1,1,C]` broadcast).
    pub fn mul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        let name = self.next_name("mul");
        self.graph.add_node(name, Op::Mul, vec![a, b])
    }

    /// Max pooling.
    pub fn maxpool(&mut self, x: ValueId, k: usize, s: usize, p: usize) -> ValueId {
        let name = self.next_name("maxpool");
        self.graph.add_node(
            name,
            Op::Pool(PoolAttrs {
                kind: PoolKind::Max,
                kernel: Hw::square(k),
                stride: Hw::square(s),
                padding: Hw::square(p),
            }),
            vec![x],
        )
    }

    /// Average pooling.
    pub fn avgpool(&mut self, x: ValueId, k: usize, s: usize, p: usize) -> ValueId {
        let name = self.next_name("avgpool");
        self.graph.add_node(
            name,
            Op::Pool(PoolAttrs {
                kind: PoolKind::Avg,
                kernel: Hw::square(k),
                stride: Hw::square(s),
                padding: Hw::square(p),
            }),
            vec![x],
        )
    }

    /// Global average pooling.
    pub fn gap(&mut self, x: ValueId) -> ValueId {
        let name = self.next_name("gap");
        self.graph.add_node(name, Op::GlobalAvgPool, vec![x])
    }

    /// Flatten to 2-D.
    pub fn flatten(&mut self, x: ValueId) -> ValueId {
        let name = self.next_name("flatten");
        self.graph.add_node(name, Op::Flatten, vec![x])
    }

    /// Zero padding.
    pub fn pad(&mut self, x: ValueId, attrs: PadAttrs) -> ValueId {
        let name = self.next_name("pad");
        self.graph.add_node(name, Op::Pad(attrs), vec![x])
    }

    /// Single-axis slice.
    pub fn slice(&mut self, x: ValueId, attrs: SliceAttrs) -> ValueId {
        let name = self.next_name("slice");
        self.graph.add_node(name, Op::Slice(attrs), vec![x])
    }

    /// Concatenation.
    pub fn concat(&mut self, inputs: Vec<ValueId>, axis: usize) -> ValueId {
        let name = self.next_name("concat");
        self.graph
            .add_node(name, Op::Concat(ConcatAttrs { axis }), inputs)
    }

    /// Softmax over the last dimension.
    pub fn softmax(&mut self, x: ValueId) -> ValueId {
        self.act(x, ActivationKind::Softmax)
    }

    /// Pass-through node (used to stand in for operators outside the op set,
    /// e.g. the negligible attention matmuls of the BERT-like model).
    pub fn identity(&mut self, x: ValueId) -> ValueId {
        let name = self.next_name("id");
        self.graph.add_node(name, Op::Identity, vec![x])
    }

    /// Conv → activation, the deployed form of the conv/BN/act block:
    /// inference graphs arrive with batch norm folded into the convolution
    /// weights (standard ONNX/TVM simplification), so the model zoo emits
    /// no BN nodes.
    pub fn conv_act(
        &mut self,
        x: ValueId,
        out_channels: usize,
        k: usize,
        s: usize,
        p: usize,
        act: ActivationKind,
    ) -> ValueId {
        let y = self.conv(x, out_channels, k, s, p);
        self.act(y, act)
    }

    /// DW-Conv → activation (batch norm folded, see [`GraphBuilder::conv_act`]).
    pub fn dw_act(
        &mut self,
        x: ValueId,
        channels: usize,
        k: usize,
        s: usize,
        p: usize,
        act: ActivationKind,
    ) -> ValueId {
        let y = self.dwconv(x, channels, k, s, p);
        self.act(y, act)
    }

    /// Marks `output` as the graph output, runs shape inference, and returns
    /// the finished graph.
    ///
    /// # Panics
    ///
    /// Panics if the constructed graph fails validation or shape inference —
    /// model-zoo construction bugs should fail loudly.
    pub fn finish(mut self, output: ValueId) -> Graph {
        self.graph.mark_output(output);
        crate::shape_infer::infer_shapes(&mut self.graph)
            .expect("model zoo graph must be well-formed");
        self.graph
    }

    /// Access to the underlying graph during construction.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access to the underlying graph — the escape hatch for adding
    /// operators the builder has no helper for (e.g. `Upsample` in the
    /// U-Net model).
    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_names_are_unique() {
        let mut b = GraphBuilder::new("t");
        let x = b.input(Shape::nhwc(1, 8, 8, 3));
        let a = b.conv1x1(x, 4);
        let c = b.conv1x1(a, 4);
        let g = b.finish(c);
        let mut names: Vec<String> = g.node_ids().map(|id| g.node(id).name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), g.node_count());
    }

    #[test]
    fn finish_runs_shape_inference() {
        let mut b = GraphBuilder::new("t");
        let x = b.input(Shape::nhwc(1, 8, 8, 3));
        let y = b.gap(x);
        let g = b.finish(y);
        let out = g.outputs()[0];
        assert_eq!(
            g.value(out).desc.as_ref().unwrap().shape,
            Shape::nhwc(1, 1, 1, 3)
        );
    }
}
