//! Memory layout optimizer (§4.3.2).
//!
//! Splitting and pipelining insert `Slice`, `Pad`, and `Concat` operators
//! that "incur significant data copy overheads, making most splitting
//! attempts futile". The optimizer eliminates them:
//!
//! * slicing/concatenating along the **height** dimension of an NHWC tensor
//!   (or the row dimension of a 2-D tensor) is a no-op when the parts live
//!   in contiguous memory — PIMFlow lays split tensors out contiguously;
//! * `Pad` disappears by pre-allocating the padded buffer, zero-initializing
//!   it, and having the producer write from the padding offset.
//!
//! The optimizer is a *cost model*: it decides how many bytes each
//! data-movement node actually copies; the search and the execution engine
//! charge copy kernels accordingly. It is always on, as in the paper's
//! system.

use pimflow_ir::{Graph, NodeId, Op};

/// True if a slice/concat along `axis` of a tensor of rank `rank` touches
/// contiguous memory (outermost non-batch axes in row-major layout).
fn axis_is_contiguous(rank: usize, axis: usize) -> bool {
    match rank {
        4 => axis <= 1, // N or H of NHWC
        2 => axis == 0, // rows of [rows, features]
        _ => axis == 0,
    }
}

/// Bytes physically copied by data-movement node `id`.
///
/// Returns 0 for compute nodes. Contiguous-axis slices/concats, all pads
/// and `Flatten`/`Identity` are free views.
///
/// # Panics
///
/// Panics if shape inference has not run.
pub fn data_move_bytes(graph: &Graph, id: NodeId) -> u64 {
    let node = graph.node(id);
    let out = graph
        .value(node.output)
        .desc
        .as_ref()
        .expect("shapes inferred");
    let out_bytes = out.size_bytes() as u64;
    match &node.op {
        Op::Flatten | Op::Identity => 0,
        // Upsampling physically writes the expanded tensor.
        Op::Upsample { .. } => out_bytes,
        Op::Slice(s) if !axis_is_contiguous(out.shape.rank(), s.axis) => out_bytes,
        Op::Concat(c) if !axis_is_contiguous(out.shape.rank(), c.axis) => out_bytes,
        _ => 0,
    }
}

/// True if `id` is a data-movement node (as opposed to compute).
pub fn is_data_move(graph: &Graph, id: NodeId) -> bool {
    matches!(
        graph.node(id).op,
        Op::Pad(_)
            | Op::Slice(_)
            | Op::Concat(_)
            | Op::Flatten
            | Op::Upsample { .. }
            | Op::Identity
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimflow_ir::{GraphBuilder, PadAttrs, Shape, SliceAttrs};

    fn graph_with_moves() -> Graph {
        let mut b = GraphBuilder::new("m");
        let x = b.input(Shape::nhwc(1, 8, 6, 4));
        let s_h = b.slice(
            x,
            SliceAttrs {
                axis: 1,
                begin: 0,
                end: 4,
            },
        );
        let s_w = b.slice(
            x,
            SliceAttrs {
                axis: 2,
                begin: 0,
                end: 3,
            },
        );
        let p = b.pad(
            s_h,
            PadAttrs {
                top: 1,
                bottom: 1,
                left: 0,
                right: 0,
            },
        );
        let c = b.concat(vec![p, p], 1);
        let _ = s_w;
        b.finish(c)
    }

    #[test]
    fn h_slice_is_free_with_memopt() {
        let g = graph_with_moves();
        let s_h = g.find_node("slice_1").unwrap();
        assert_eq!(data_move_bytes(&g, s_h), 0);
    }

    #[test]
    fn w_slice_always_copies() {
        let g = graph_with_moves();
        let s_w = g.find_node("slice_2").unwrap();
        assert_eq!(data_move_bytes(&g, s_w), 8 * 3 * 4 * 2);
    }

    #[test]
    fn pad_is_free_with_memopt() {
        let g = graph_with_moves();
        let p = g.find_node("pad_3").unwrap();
        assert_eq!(data_move_bytes(&g, p), 0);
    }

    #[test]
    fn h_concat_is_free_with_memopt() {
        let g = graph_with_moves();
        let c = g.find_node("concat_4").unwrap();
        assert_eq!(data_move_bytes(&g, c), 0);
    }

    #[test]
    fn compute_nodes_move_nothing() {
        let g = pimflow_ir::models::toy();
        let conv = g.find_node("conv_1").unwrap();
        assert_eq!(data_move_bytes(&g, conv), 0);
        assert!(!is_data_move(&g, conv));
    }
}
