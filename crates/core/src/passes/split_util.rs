//! Shared machinery for H-dimension splitting of CONV-family nodes.
//!
//! Both PIM-aware transformation passes (§4.2.1) slice tensors along the
//! output-height dimension: the multi-device parallelization pass to create
//! GPU/PIM halves, the pipelining pass to create pipeline stage parts. This
//! module computes receptive-field-exact input ranges and emits the
//! `Slice -> Pad -> Conv` part subgraphs whose concatenation is numerically
//! identical to the original node (the property tests in `mddp`/`pipeline`
//! verify this against the reference executor).

use crate::placement::Placement;
use pimflow_ir::{Conv2dAttrs, Graph, NodeId, Op, PadAttrs, SliceAttrs, ValueId};
use std::ops::Range;

/// True for nodes that ride along inside a linear PIM region as
/// single-input element-wise work (`BatchNorm`, any activation except
/// `Softmax`, whose normalization needs full-tensor reductions). This is
/// the one rider classification in the codebase: the pipelining pass and
/// the fusion-group pass both consume it.
pub(crate) fn is_linear_rider(op: &Op) -> bool {
    matches!(op, Op::BatchNorm)
        || matches!(
            op,
            Op::Activation(k) if *k != pimflow_ir::ActivationKind::Softmax
        )
}

/// True for two-input element-wise ops that can rejoin a skip connection
/// inside a fused region (residual `Add`, squeeze-excite `Mul`): row-local
/// over their aligned operands, so they apply near the banks during the
/// fused hand-off once both inputs are PIM-resident.
pub(crate) fn is_residual_rider(op: &Op) -> bool {
    matches!(op, Op::Add | Op::Mul)
}

/// Input-row requirements of a conv output-row range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSpan {
    /// Input rows `[start, end)` to slice from the full input.
    pub rows: Range<usize>,
    /// Zero rows to re-add on top (the part contains the tensor's top edge).
    pub pad_top: usize,
    /// Zero rows to re-add at the bottom.
    pub pad_bottom: usize,
}

/// Computes which input rows (and residual padding) a conv needs to produce
/// output rows `out_rows`, given input height `in_h`.
///
/// # Panics
///
/// Panics if `out_rows` is empty.
pub fn conv_input_span(attrs: &Conv2dAttrs, in_h: usize, out_rows: &Range<usize>) -> InputSpan {
    assert!(!out_rows.is_empty(), "output row range must be non-empty");
    let (k, s, p) = (
        attrs.kernel.h as isize,
        attrs.stride.h as isize,
        attrs.padding.h as isize,
    );
    let first = out_rows.start as isize * s - p;
    let last_excl = (out_rows.end as isize - 1) * s + k - p;
    let start = first.max(0) as usize;
    let end = (last_excl.min(in_h as isize)) as usize;
    let pad_top = (-first).max(0) as usize;
    let pad_bottom = (last_excl - in_h as isize).max(0) as usize;
    InputSpan {
        rows: start..end,
        pad_top,
        pad_bottom,
    }
}

/// Emits a padding-free copy of conv node `orig` over `input` (which must
/// already contain exactly the input-row span of the intended output rows),
/// re-applying `pad_top`/`pad_bottom` and the original width padding
/// explicitly via a `Pad` node.
///
/// Returns the part's output value.
///
/// # Panics
///
/// Panics if `orig` is not a conv node.
pub fn emit_conv_on_span(
    graph: &mut Graph,
    orig: NodeId,
    input: ValueId,
    pad_top: usize,
    pad_bottom: usize,
    placement: Placement,
    tag: &str,
) -> ValueId {
    let node = graph.node(orig).clone();
    let attrs = match &node.op {
        Op::Conv2d(a) => *a,
        other => panic!("emit_conv_on_span on non-conv `{}` ({other})", node.name),
    };
    let mut x = input;
    if pad_top > 0 || pad_bottom > 0 || attrs.padding.w > 0 {
        x = graph.add_node(
            format!("{}{}_pad", tag, node.name),
            Op::Pad(PadAttrs {
                top: pad_top,
                bottom: pad_bottom,
                left: attrs.padding.w,
                right: attrs.padding.w,
            }),
            vec![x],
        );
    }
    let mut part_attrs = attrs;
    part_attrs.padding = pimflow_ir::Hw::new(0, 0);
    let out = graph.add_node_with_key(
        format!("{}{}", tag, node.name),
        Op::Conv2d(part_attrs),
        vec![x],
        node.weight_key,
    );
    // H-splits keep the full output-channel set; propagate any existing
    // output-axis view unchanged.
    let part = graph.node_mut(graph.producer(out).expect("just added"));
    part.param_view = node.param_view;
    part.placement = placement.into();
    out
}

/// Emits one split part of conv node `orig`: slices the needed input rows
/// out of `input` (a full-height tensor), then delegates to
/// [`emit_conv_on_span`].
///
/// Returns the part's output value.
///
/// # Panics
///
/// Panics if `orig` is not a conv node or shapes are missing.
pub fn emit_conv_part(
    graph: &mut Graph,
    orig: NodeId,
    input: ValueId,
    out_rows: &Range<usize>,
    placement: Placement,
    tag: &str,
) -> ValueId {
    let node_name = graph.node(orig).name.clone();
    let attrs = match &graph.node(orig).op {
        Op::Conv2d(a) => *a,
        other => panic!("emit_conv_part on non-conv `{node_name}` ({other})"),
    };
    let in_shape = graph
        .value(input)
        .desc
        .as_ref()
        .expect("shapes inferred")
        .shape
        .clone();
    let span = conv_input_span(&attrs, in_shape.h(), out_rows);

    let mut x = input;
    if span.rows != (0..in_shape.h()) {
        x = graph.add_node(
            format!("{}{}_slice", tag, node_name),
            Op::Slice(SliceAttrs {
                axis: 1,
                begin: span.rows.start,
                end: span.rows.end,
            }),
            vec![x],
        );
    }
    emit_conv_on_span(
        graph,
        orig,
        x,
        span.pad_top,
        span.pad_bottom,
        placement,
        tag,
    )
}

/// Emits a copy of an elementwise node (`BatchNorm`, `Activation`, `Add`,
/// `Mul`) operating on one H-part. `inputs` must already be the part-local
/// operands.
pub fn emit_elementwise_part(
    graph: &mut Graph,
    orig: NodeId,
    inputs: Vec<ValueId>,
    tag: &str,
) -> ValueId {
    let node = graph.node(orig).clone();
    graph.add_node_with_key(
        format!("{}{}", tag, node.name),
        node.op.clone(),
        inputs,
        node.weight_key,
    )
}

/// Assembles rows `need` (in full-tensor coordinates) from per-part output
/// values.
///
/// `parts` lists `(value, rows)` in order, covering the full tensor
/// contiguously. Emits slices (and a concat if the range spans parts);
/// returns the assembled value. When `need` equals one part exactly, that
/// part's value is returned untouched.
///
/// # Panics
///
/// Panics if `need` is not covered by `parts`.
pub fn rows_from_parts(
    graph: &mut Graph,
    parts: &[(ValueId, Range<usize>)],
    need: &Range<usize>,
    tag: &str,
) -> ValueId {
    assert!(!need.is_empty(), "row range must be non-empty");
    let mut pieces: Vec<ValueId> = Vec::new();
    for (i, (value, rows)) in parts.iter().enumerate() {
        let lo = need.start.max(rows.start);
        let hi = need.end.min(rows.end);
        if lo >= hi {
            continue;
        }
        if lo == rows.start && hi == rows.end {
            pieces.push(*value);
        } else {
            let local = (lo - rows.start)..(hi - rows.start);
            let v = graph.add_node(
                format!("{tag}_take{i}"),
                Op::Slice(SliceAttrs {
                    axis: 1,
                    begin: local.start,
                    end: local.end,
                }),
                vec![*value],
            );
            pieces.push(v);
        }
    }
    assert!(
        !pieces.is_empty(),
        "rows {need:?} not covered by parts {:?}",
        parts.iter().map(|p| p.1.clone()).collect::<Vec<_>>()
    );
    if pieces.len() == 1 {
        pieces[0]
    } else {
        graph.add_node(
            format!("{tag}_gather"),
            Op::Concat(pimflow_ir::ConcatAttrs { axis: 1 }),
            pieces,
        )
    }
}

/// Splits `0..total` into `n` near-equal contiguous ranges (earlier ranges
/// take the remainder). Ranges are never empty; if `total < n`, fewer than
/// `n` ranges are returned.
pub fn even_ranges(total: usize, n: usize) -> Vec<Range<usize>> {
    let n = n.min(total).max(1);
    let base = total / n;
    let extra = total % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimflow_ir::Hw;

    #[test]
    fn input_span_interior_part() {
        // 3x3 s1 p1 over H=10: output rows 4..7 need input rows 3..8.
        let attrs = Conv2dAttrs {
            out_channels: 8,
            kernel: Hw::square(3),
            stride: Hw::square(1),
            padding: Hw::square(1),
            groups: 1,
        };
        let s = conv_input_span(&attrs, 10, &(4..7));
        assert_eq!(s.rows, 3..8);
        assert_eq!((s.pad_top, s.pad_bottom), (0, 0));
    }

    #[test]
    fn input_span_top_part_keeps_padding() {
        let attrs = Conv2dAttrs {
            out_channels: 8,
            kernel: Hw::square(3),
            stride: Hw::square(1),
            padding: Hw::square(1),
            groups: 1,
        };
        let s = conv_input_span(&attrs, 10, &(0..5));
        assert_eq!(s.rows, 0..6);
        assert_eq!((s.pad_top, s.pad_bottom), (1, 0));
    }

    #[test]
    fn input_span_strided() {
        // 3x3 s2 p1 over H=11 -> OH=6; output rows 3..6 need input 5..11 + 1 bottom pad.
        let attrs = Conv2dAttrs {
            out_channels: 8,
            kernel: Hw::square(3),
            stride: Hw::square(2),
            padding: Hw::square(1),
            groups: 1,
        };
        let s = conv_input_span(&attrs, 11, &(3..6));
        assert_eq!(s.rows, 5..11);
        assert_eq!((s.pad_top, s.pad_bottom), (0, 1));
    }

    #[test]
    fn even_ranges_cover_total() {
        let rs = even_ranges(10, 3);
        assert_eq!(rs, vec![0..4, 4..7, 7..10]);
        assert_eq!(even_ranges(2, 5).len(), 2);
        assert_eq!(even_ranges(7, 1), vec![0..7]);
    }
}
