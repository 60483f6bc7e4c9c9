//! Shape inference.
//!
//! Walks the graph in topological order and fills in [`Value::desc`] for
//! every node output, validating operator semantics along the way. This is
//! the pass every other component (analysis, lowering, the search engine)
//! depends on, mirroring ONNX shape inference in the original artifact.
//!
//! [`Value::desc`]: crate::graph::Value::desc

use crate::graph::{Graph, GraphError, NodeId};
use crate::ops::{ActivationKind, Op};
use crate::tensor::{Shape, TensorDesc};

fn shape_err(graph: &Graph, id: NodeId, message: impl Into<String>) -> GraphError {
    GraphError::Shape {
        node: graph.node(id).name.clone(),
        message: message.into(),
    }
}

/// Output spatial extent of a convolution/pooling window.
///
/// Returns `None` when the window does not fit (invalid configuration).
pub fn conv_out_extent(input: usize, kernel: usize, stride: usize, pad: usize) -> Option<usize> {
    let padded = input + 2 * pad;
    if padded < kernel || stride == 0 {
        return None;
    }
    Some((padded - kernel) / stride + 1)
}

fn infer_node(graph: &Graph, id: NodeId) -> Result<TensorDesc, GraphError> {
    let node = graph.node(id);
    let input_desc = |i: usize| -> Result<TensorDesc, GraphError> {
        let v = *node
            .inputs
            .get(i)
            .ok_or_else(|| shape_err(graph, id, format!("missing input {i}")))?;
        graph
            .value(v)
            .desc
            .clone()
            .ok_or_else(|| shape_err(graph, id, format!("input {i} has no inferred shape")))
    };
    let x = input_desc(0)?;
    let out = match &node.op {
        Op::Conv2d(a) => {
            if x.shape.rank() != 4 {
                return Err(shape_err(
                    graph,
                    id,
                    format!("conv input must be NHWC, got {}", x.shape),
                ));
            }
            let (h, w, c) = (x.shape.h(), x.shape.w(), x.shape.c());
            if a.groups != 1 && !a.is_depthwise_for(c) {
                return Err(shape_err(
                    graph,
                    id,
                    format!(
                        "unsupported grouped conv: groups={} in_c={} out_c={}",
                        a.groups, c, a.out_channels
                    ),
                ));
            }
            let oh = conv_out_extent(h, a.kernel.h, a.stride.h, a.padding.h).ok_or_else(|| {
                shape_err(
                    graph,
                    id,
                    format!("kernel {} does not fit input h={h}", a.kernel),
                )
            })?;
            let ow = conv_out_extent(w, a.kernel.w, a.stride.w, a.padding.w).ok_or_else(|| {
                shape_err(
                    graph,
                    id,
                    format!("kernel {} does not fit input w={w}", a.kernel),
                )
            })?;
            TensorDesc::new(Shape::nhwc(x.shape.n(), oh, ow, a.out_channels), x.dtype)
        }
        Op::Dense(a) => {
            if x.shape.rank() != 2 {
                return Err(shape_err(
                    graph,
                    id,
                    format!("dense input must be 2-D, got {}", x.shape),
                ));
            }
            TensorDesc::new(Shape::rf(x.shape.n(), a.out_features), x.dtype)
        }
        Op::Activation(k) => {
            if *k == ActivationKind::Softmax && x.shape.rank() < 2 {
                return Err(shape_err(graph, id, "softmax requires rank >= 2"));
            }
            x.clone()
        }
        Op::Add => {
            let y = input_desc(1)?;
            if x.shape != y.shape {
                return Err(shape_err(
                    graph,
                    id,
                    format!("add operands differ: {} vs {}", x.shape, y.shape),
                ));
            }
            x.clone()
        }
        Op::Mul => {
            let y = input_desc(1)?;
            let broadcast_ok = x.shape.rank() == 4
                && y.shape.rank() == 4
                && y.shape.h() == 1
                && y.shape.w() == 1
                && y.shape.n() == x.shape.n()
                && y.shape.c() == x.shape.c();
            if x.shape != y.shape && !broadcast_ok {
                return Err(shape_err(
                    graph,
                    id,
                    format!("mul operands differ: {} vs {}", x.shape, y.shape),
                ));
            }
            x.clone()
        }
        Op::Pool(a) => {
            if x.shape.rank() != 4 {
                return Err(shape_err(graph, id, "pool input must be NHWC"));
            }
            let oh = conv_out_extent(x.shape.h(), a.kernel.h, a.stride.h, a.padding.h)
                .ok_or_else(|| shape_err(graph, id, "pool window does not fit (h)"))?;
            let ow = conv_out_extent(x.shape.w(), a.kernel.w, a.stride.w, a.padding.w)
                .ok_or_else(|| shape_err(graph, id, "pool window does not fit (w)"))?;
            TensorDesc::new(Shape::nhwc(x.shape.n(), oh, ow, x.shape.c()), x.dtype)
        }
        Op::GlobalAvgPool => {
            if x.shape.rank() != 4 {
                return Err(shape_err(
                    graph,
                    id,
                    "global average pool input must be NHWC",
                ));
            }
            TensorDesc::new(Shape::nhwc(x.shape.n(), 1, 1, x.shape.c()), x.dtype)
        }
        Op::BatchNorm => {
            if x.shape.rank() != 4 {
                return Err(shape_err(graph, id, "batchnorm input must be NHWC"));
            }
            x.clone()
        }
        Op::Pad(p) => {
            if x.shape.rank() != 4 {
                return Err(shape_err(graph, id, "pad input must be NHWC"));
            }
            TensorDesc::new(
                Shape::nhwc(
                    x.shape.n(),
                    x.shape.h() + p.extra_h(),
                    x.shape.w() + p.extra_w(),
                    x.shape.c(),
                ),
                x.dtype,
            )
        }
        Op::Slice(s) => {
            if s.axis >= x.shape.rank() {
                return Err(shape_err(
                    graph,
                    id,
                    format!("slice axis {} out of range for {}", s.axis, x.shape),
                ));
            }
            if s.is_empty() || s.end > x.shape.dim(s.axis) {
                return Err(shape_err(
                    graph,
                    id,
                    format!(
                        "slice {}..{} invalid for axis extent {}",
                        s.begin,
                        s.end,
                        x.shape.dim(s.axis)
                    ),
                ));
            }
            TensorDesc::new(x.shape.with_dim(s.axis, s.len()), x.dtype)
        }
        Op::Concat(c) => {
            if c.axis >= x.shape.rank() {
                return Err(shape_err(
                    graph,
                    id,
                    format!("concat axis {} out of range", c.axis),
                ));
            }
            let mut total = 0;
            for i in 0..node.inputs.len() {
                let d = input_desc(i)?;
                if d.shape.rank() != x.shape.rank() {
                    return Err(shape_err(graph, id, "concat operands have different ranks"));
                }
                for ax in 0..x.shape.rank() {
                    if ax != c.axis && d.shape.dim(ax) != x.shape.dim(ax) {
                        return Err(shape_err(
                            graph,
                            id,
                            format!(
                                "concat operand {i} mismatches on axis {ax}: {} vs {}",
                                d.shape, x.shape
                            ),
                        ));
                    }
                }
                total += d.shape.dim(c.axis);
            }
            TensorDesc::new(x.shape.with_dim(c.axis, total), x.dtype)
        }
        Op::Flatten => {
            if x.shape.rank() < 2 {
                return Err(shape_err(graph, id, "flatten requires rank >= 2"));
            }
            let rest: usize = x.shape.0[1..].iter().product();
            TensorDesc::new(Shape::rf(x.shape.n(), rest), x.dtype)
        }
        Op::Upsample { factor } => {
            if x.shape.rank() != 4 {
                return Err(shape_err(graph, id, "upsample input must be NHWC"));
            }
            if *factor == 0 {
                return Err(shape_err(graph, id, "upsample factor must be >= 1"));
            }
            TensorDesc::new(
                Shape::nhwc(
                    x.shape.n(),
                    x.shape.h() * factor,
                    x.shape.w() * factor,
                    x.shape.c(),
                ),
                x.dtype,
            )
        }
        Op::Identity => x.clone(),
    };
    Ok(out)
}

/// Runs shape inference over the whole graph.
///
/// # Errors
///
/// Returns [`GraphError`] if the graph is cyclic, an operator receives
/// inputs of the wrong rank/extent, or an input value has no shape.
///
/// # Examples
///
/// ```
/// use pimflow_ir::{models, infer_shapes};
/// let mut g = models::toy();
/// infer_shapes(&mut g).unwrap();
/// ```
pub fn infer_shapes(graph: &mut Graph) -> Result<(), GraphError> {
    graph.validate()?;
    let order = graph.topo_order()?;
    infer_in_order(graph, order)
}

/// Infers the shapes of the live nodes with ids from `first` on, in id
/// order, from the shapes already on their inputs. Passes call it on the
/// nodes they append, where id order is topological: a node is appended
/// only after its inputs exist. It neither validates nor sorts the graph,
/// and it leaves every other value's shape as it is, so the pass must keep
/// the shapes of the values it rewires unchanged.
///
/// # Errors
///
/// Returns [`GraphError::Shape`] if an appended operator receives inputs
/// of the wrong rank/extent or an input value has no shape.
pub fn infer_shapes_from(graph: &mut Graph, first: NodeId) -> Result<(), GraphError> {
    let appended: Vec<NodeId> = (first.index()..graph.next_node_id().index())
        .map(NodeId)
        .filter(|&id| graph.try_node(id).is_some())
        .collect();
    infer_in_order(graph, appended)
}

fn infer_in_order(graph: &mut Graph, order: Vec<NodeId>) -> Result<(), GraphError> {
    for id in order {
        let desc = infer_node(graph, id)?;
        let out = graph.node(id).output;
        graph.value_mut(out).desc = Some(desc);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{
        ConcatAttrs, Conv2dAttrs, DenseAttrs, Hw, PadAttrs, PoolAttrs, PoolKind, SliceAttrs,
    };
    use crate::tensor::DataType;

    fn shape_of(g: &Graph, v: crate::graph::ValueId) -> Shape {
        g.value(v).desc.as_ref().unwrap().shape.clone()
    }

    #[test]
    fn conv_out_extent_math() {
        assert_eq!(conv_out_extent(224, 7, 2, 3), Some(112));
        assert_eq!(conv_out_extent(56, 3, 1, 1), Some(56));
        assert_eq!(conv_out_extent(4, 7, 1, 0), None);
        assert_eq!(conv_out_extent(8, 3, 0, 1), None);
    }

    #[test]
    fn conv_shapes() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", Shape::nhwc(1, 56, 56, 64), DataType::F16);
        let y = g.add_node(
            "c",
            Op::Conv2d(Conv2dAttrs {
                out_channels: 128,
                kernel: Hw::square(3),
                stride: Hw::square(2),
                padding: Hw::square(1),
                groups: 1,
            }),
            vec![x],
        );
        g.mark_output(y);
        infer_shapes(&mut g).unwrap();
        assert_eq!(shape_of(&g, y), Shape::nhwc(1, 28, 28, 128));
    }

    #[test]
    fn depthwise_keeps_channels() {
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
        assert_eq!(shape_of(&g, y), Shape::nhwc(1, 14, 14, 96));
    }

    #[test]
    fn bad_group_count_rejected() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", Shape::nhwc(1, 14, 14, 96), DataType::F16);
        let y = g.add_node(
            "gc",
            Op::Conv2d(Conv2dAttrs {
                out_channels: 96,
                kernel: Hw::square(3),
                stride: Hw::square(1),
                padding: Hw::square(1),
                groups: 4,
            }),
            vec![x],
        );
        g.mark_output(y);
        assert!(matches!(
            infer_shapes(&mut g),
            Err(GraphError::Shape { .. })
        ));
    }

    #[test]
    fn dense_and_flatten() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", Shape::nhwc(1, 7, 7, 512), DataType::F16);
        let f = g.add_node("fl", Op::Flatten, vec![x]);
        let y = g.add_node("fc", Op::Dense(DenseAttrs { out_features: 1000 }), vec![f]);
        g.mark_output(y);
        infer_shapes(&mut g).unwrap();
        assert_eq!(shape_of(&g, f), Shape::rf(1, 7 * 7 * 512));
        assert_eq!(shape_of(&g, y), Shape::rf(1, 1000));
    }

    #[test]
    fn slice_and_concat_roundtrip_shape() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", Shape::nhwc(1, 10, 8, 4), DataType::F16);
        let a = g.add_node(
            "s0",
            Op::Slice(SliceAttrs {
                axis: 1,
                begin: 0,
                end: 6,
            }),
            vec![x],
        );
        let b = g.add_node(
            "s1",
            Op::Slice(SliceAttrs {
                axis: 1,
                begin: 6,
                end: 10,
            }),
            vec![x],
        );
        let y = g.add_node("cat", Op::Concat(ConcatAttrs { axis: 1 }), vec![a, b]);
        g.mark_output(y);
        infer_shapes(&mut g).unwrap();
        assert_eq!(shape_of(&g, a), Shape::nhwc(1, 6, 8, 4));
        assert_eq!(shape_of(&g, y), Shape::nhwc(1, 10, 8, 4));
    }

    #[test]
    fn pad_grows_spatial_dims() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", Shape::nhwc(1, 5, 5, 3), DataType::F16);
        let y = g.add_node(
            "p",
            Op::Pad(PadAttrs {
                top: 1,
                bottom: 2,
                left: 0,
                right: 1,
            }),
            vec![x],
        );
        g.mark_output(y);
        infer_shapes(&mut g).unwrap();
        assert_eq!(shape_of(&g, y), Shape::nhwc(1, 8, 6, 3));
    }

    #[test]
    fn pooling_shapes() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", Shape::nhwc(1, 112, 112, 64), DataType::F16);
        let y = g.add_node(
            "mp",
            Op::Pool(PoolAttrs {
                kind: PoolKind::Max,
                kernel: Hw::square(3),
                stride: Hw::square(2),
                padding: Hw::square(1),
            }),
            vec![x],
        );
        let z = g.add_node("gap", Op::GlobalAvgPool, vec![y]);
        g.mark_output(z);
        infer_shapes(&mut g).unwrap();
        assert_eq!(shape_of(&g, y), Shape::nhwc(1, 56, 56, 64));
        assert_eq!(shape_of(&g, z), Shape::nhwc(1, 1, 1, 64));
    }

    #[test]
    fn mul_broadcast_se_block() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", Shape::nhwc(1, 14, 14, 32), DataType::F16);
        let s = g.add_input("scale", Shape::nhwc(1, 1, 1, 32), DataType::F16);
        let y = g.add_node("mul", Op::Mul, vec![x, s]);
        g.mark_output(y);
        infer_shapes(&mut g).unwrap();
        assert_eq!(shape_of(&g, y), Shape::nhwc(1, 14, 14, 32));
    }

    #[test]
    fn add_shape_mismatch_rejected() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", Shape::nhwc(1, 4, 4, 8), DataType::F16);
        let y = g.add_input("y", Shape::nhwc(1, 4, 4, 16), DataType::F16);
        let z = g.add_node("add", Op::Add, vec![x, y]);
        g.mark_output(z);
        assert!(matches!(
            infer_shapes(&mut g),
            Err(GraphError::Shape { .. })
        ));
    }

    #[test]
    fn invalid_slice_rejected() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", Shape::nhwc(1, 4, 4, 8), DataType::F16);
        let z = g.add_node(
            "s",
            Op::Slice(SliceAttrs {
                axis: 1,
                begin: 2,
                end: 7,
            }),
            vec![x],
        );
        g.mark_output(z);
        assert!(matches!(
            infer_shapes(&mut g),
            Err(GraphError::Shape { .. })
        ));
    }
}
