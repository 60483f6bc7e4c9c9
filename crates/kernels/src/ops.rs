//! Reference implementations of every operator in the IR.
//!
//! These are deliberately straightforward loop nests: they are the
//! correctness oracle for the transformation passes, not a fast runtime.
//! They still avoid work their arithmetic does not need: data-movement
//! operators (`slice`, `concat`, `pad`, `upsample`) copy contiguous blocks
//! rather than single elements, and depthwise convolution and pooling run
//! their channel loop innermost, where it vectorizes, without changing any
//! element's order of operations.
//!
//! Each operator comes in up to three flavours:
//!
//! * the plain allocating form (`conv2d`, `pool`, ...) — validates its
//!   operands and returns `Result`, the public oracle API;
//! * an `_into` form writing into a caller-provided (zero-filled) output —
//!   what the executor's tensor arena calls so freed buffers get recycled
//!   instead of reallocated;
//! * for the heavy kernels, a *sharded* form over a row or channel range
//!   ([`conv2d_rows_into`], [`conv2d_direct_channels_into`],
//!   [`dense_rows_into`]) — the unit of intra-op parallelism. Each output
//!   element's floating-point accumulation order is independent of the
//!   sharding, so any split produces bit-identical results.

use crate::im2col::{gemm_accumulate, im2col_rows, lowered_dims, KernelError};
use crate::microkernel::{self, Epilogue, GemmPath, PackedB};
use crate::probe::{self, ProbePoint};
use crate::tensor::Tensor;
use pimflow_ir::shape_infer::conv_out_extent;
use pimflow_ir::{ActivationKind, Conv2dAttrs, PadAttrs, PoolAttrs, PoolKind, Shape, SliceAttrs};
use std::ops::Range;

/// Lowered rows streamed through the GEMM per block: bounds the im2col
/// scratch to `CONV_ROW_BLOCK * k_elems` floats instead of the whole
/// lowered matrix, while keeping each GEMM call large enough to amortize
/// its k-blocking.
pub const CONV_ROW_BLOCK: usize = 128;

fn shape_err(msg: impl Into<String>) -> KernelError {
    KernelError::ShapeMismatch(msg.into())
}

/// Output shape of a convolution over `in_shape`, with the operand
/// validation that used to live in asserts.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if the input is not 4-D or the
/// kernel does not fit, and [`KernelError::Unsupported`] for grouped
/// convolutions that are not depthwise.
pub fn conv2d_out_shape(in_shape: &Shape, attrs: &Conv2dAttrs) -> Result<Shape, KernelError> {
    if in_shape.rank() != 4 {
        return Err(shape_err(format!(
            "conv input must be NHWC, got {in_shape}"
        )));
    }
    if attrs.out_channels == 0 {
        // Downstream GEMM cores divide by the column count; a zero-channel
        // conv is a malformed graph, not a valid empty computation.
        return Err(shape_err("conv out_channels must be non-zero"));
    }
    let ic = in_shape.c();
    if attrs.groups > 1 && !attrs.is_depthwise_for(ic) {
        return Err(KernelError::Unsupported(format!(
            "grouped conv (groups = {}, ic = {ic}, oc = {}) is not depthwise",
            attrs.groups, attrs.out_channels
        )));
    }
    let oh = conv_out_extent(
        in_shape.h(),
        attrs.kernel.h,
        attrs.stride.h,
        attrs.padding.h,
    )
    .ok_or_else(|| {
        shape_err(format!(
            "kernel {} does not fit input {in_shape}",
            attrs.kernel
        ))
    })?;
    let ow = conv_out_extent(
        in_shape.w(),
        attrs.kernel.w,
        attrs.stride.w,
        attrs.padding.w,
    )
    .ok_or_else(|| {
        shape_err(format!(
            "kernel {} does not fit input {in_shape}",
            attrs.kernel
        ))
    })?;
    Ok(Shape::nhwc(in_shape.n(), oh, ow, attrs.out_channels))
}

/// Output shape of a spatial pooling over `in_shape`.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if the input is not 4-D or the
/// window does not fit.
pub fn pool_out_shape(in_shape: &Shape, attrs: &PoolAttrs) -> Result<Shape, KernelError> {
    if in_shape.rank() != 4 {
        return Err(shape_err(format!(
            "pool input must be NHWC, got {in_shape}"
        )));
    }
    let oh = conv_out_extent(
        in_shape.h(),
        attrs.kernel.h,
        attrs.stride.h,
        attrs.padding.h,
    )
    .ok_or_else(|| {
        shape_err(format!(
            "window {} does not fit input {in_shape}",
            attrs.kernel
        ))
    })?;
    let ow = conv_out_extent(
        in_shape.w(),
        attrs.kernel.w,
        attrs.stride.w,
        attrs.padding.w,
    )
    .ok_or_else(|| {
        shape_err(format!(
            "window {} does not fit input {in_shape}",
            attrs.kernel
        ))
    })?;
    Ok(Shape::nhwc(in_shape.n(), oh, ow, in_shape.c()))
}

fn check_conv_params(
    x: &Tensor,
    weights: &[f32],
    bias: &[f32],
    attrs: &Conv2dAttrs,
) -> Result<Shape, KernelError> {
    let out_shape = conv2d_out_shape(x.shape(), attrs)?;
    let ic = x.shape().c();
    let expect_w = if attrs.groups > 1 {
        attrs.kernel.h * attrs.kernel.w * ic
    } else {
        attrs.kernel.h * attrs.kernel.w * ic * attrs.out_channels
    };
    if weights.len() != expect_w {
        return Err(shape_err(format!(
            "conv weight length {} (expected {expect_w})",
            weights.len()
        )));
    }
    if bias.len() != attrs.out_channels {
        return Err(shape_err(format!(
            "conv bias length {} (expected {})",
            bias.len(),
            attrs.out_channels
        )));
    }
    Ok(out_shape)
}

/// 2-D convolution over an NHWC input.
///
/// Weight layout: `[kh][kw][ic_per_group][oc]` flattened row-major for
/// regular convolution and `[kh][kw][c]` for depthwise.
///
/// Regular (groups = 1) convolutions stream [`CONV_ROW_BLOCK`]-row blocks
/// of the lowered input through a GEMM. The path is chosen by
/// [`GemmPath`] (read from `PIMFLOW_EXACT_KERNELS`; pin it with
/// [`conv2d_with`]): [`GemmPath::Fast`] packs the weight matrix once and
/// runs the register-blocked micro-kernel with a fused bias epilogue
/// ([`conv2d_rows_packed`]) — within
/// [`crate::tolerance::Tolerance::kernel_default`] of the oracle, the bias
/// joining after the products instead of seeding them; [`GemmPath::Exact`]
/// bias-seeds and runs the scalar loop ([`conv2d_rows_into`]),
/// bit-identical to [`conv2d_direct`]. Both paths are bit-identical to
/// themselves at any intra-op row sharding. Depthwise convolutions take
/// the per-channel direct nest ([`conv2d_direct_channels_into`]) on either
/// path.
///
/// # Errors
///
/// Returns [`KernelError`] if shapes/lengths are inconsistent with `attrs`.
pub fn conv2d(
    x: &Tensor,
    weights: &[f32],
    bias: &[f32],
    attrs: &Conv2dAttrs,
) -> Result<Tensor, KernelError> {
    conv2d_with(x, weights, bias, attrs, GemmPath::from_env())
}

/// [`conv2d`] with an explicit [`GemmPath`] instead of the environment
/// lookup.
///
/// # Errors
///
/// Same contract as [`conv2d`].
pub fn conv2d_with(
    x: &Tensor,
    weights: &[f32],
    bias: &[f32],
    attrs: &Conv2dAttrs,
    path: GemmPath,
) -> Result<Tensor, KernelError> {
    let out_shape = check_conv_params(x, weights, bias, attrs)?;
    let mut out = Tensor::zeros(out_shape);
    conv2d_into(x, weights, bias, attrs, path, &mut out)?;
    Ok(out)
}

/// Fills a pre-allocated, correctly-shaped output (validation already done
/// by [`check_conv_params`] / the executor's shape pass).
pub(crate) fn conv2d_into(
    x: &Tensor,
    weights: &[f32],
    bias: &[f32],
    attrs: &Conv2dAttrs,
    path: GemmPath,
    out: &mut Tensor,
) -> Result<(), KernelError> {
    if attrs.groups > 1 {
        // The full channel range writes the output layout directly.
        let c = x.shape().c();
        conv2d_direct_channels_into(x, weights, bias, attrs, 0..c, out.data_mut());
        Ok(())
    } else {
        let rows = out.shape().n() * out.shape().h() * out.shape().w();
        let mut scratch = Vec::new();
        match path {
            GemmPath::Fast => {
                let dims = lowered_dims(x.shape(), attrs);
                let packed = microkernel::pack_b(weights, dims.k_elems, dims.out_channels);
                conv2d_rows_packed(
                    x,
                    &packed,
                    bias,
                    attrs,
                    0..rows,
                    &mut scratch,
                    out.data_mut(),
                )
            }
            GemmPath::Exact => conv2d_rows_into(
                x,
                weights,
                bias,
                attrs,
                0..rows,
                &mut scratch,
                out.data_mut(),
            ),
        }
    }
}

/// Computes lowered rows `rows` of a regular (groups = 1) convolution into
/// `out` (length `rows.len() * out_channels`, the contiguous slice of the
/// NHWC output covering those rows). `scratch` is the caller's reusable
/// im2col buffer — per-worker scratch under intra-op sharding.
///
/// Streams [`CONV_ROW_BLOCK`] rows at a time: bias-seed, lower, GEMM. The
/// per-element accumulation order (`k` ascending) is independent of both
/// the block size and the row range, so any sharding of the row space is
/// bit-identical to the unsharded run.
///
/// # Errors
///
/// Returns [`KernelError::Unsupported`] for grouped attrs.
///
/// # Panics
///
/// Panics if `out` does not match the row range or the range is out of
/// bounds.
pub fn conv2d_rows_into(
    x: &Tensor,
    weights: &[f32],
    bias: &[f32],
    attrs: &Conv2dAttrs,
    rows: Range<usize>,
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) -> Result<(), KernelError> {
    let _probe = probe::span(ProbePoint::ConvRowsExact);
    let dims = lowered_dims(x.shape(), attrs);
    let oc = attrs.out_channels;
    assert_eq!(out.len(), rows.len() * oc, "conv output slice length");
    let mut begin = rows.start;
    while begin < rows.end {
        let end = (begin + CONV_ROW_BLOCK).min(rows.end);
        im2col_rows(x, attrs, begin, end, scratch)?;
        let block = &mut out[(begin - rows.start) * oc..(end - rows.start) * oc];
        // Direct conv starts each accumulator at the bias; seed the output
        // rows the same way so this path reproduces it bit for bit.
        for row in block.chunks_exact_mut(oc) {
            row.copy_from_slice(bias);
        }
        gemm_accumulate(scratch, weights, block, dims.k_elems, oc);
        begin = end;
    }
    Ok(())
}

/// Fast-path counterpart of [`conv2d_rows_into`]: streams the same
/// [`CONV_ROW_BLOCK`]-row im2col blocks through the register-blocked
/// micro-kernel against a pre-packed weight matrix
/// (the `[k_elems, oc]` filter as a [`PackedB`]), with the bias fused into
/// the store epilogue.
///
/// The pack is taken by reference so the executor builds it **once per
/// node** at staging time (generating the weights straight into it) and
/// shares it across every row block and every sharded worker. Per output
/// element the products accumulate in ascending `k` order and the bias
/// joins last — independent of the row range, so sharding stays
/// bit-identical; relative to the bias-seeded oracle the one reassociated
/// addition is bounded by [`crate::tolerance::Tolerance::kernel_default`].
///
/// # Errors
///
/// Returns [`KernelError::Unsupported`] for grouped attrs.
///
/// # Panics
///
/// Panics if the pack's dimensions disagree with `attrs`, `out` does not
/// match the row range, or the range is out of bounds.
pub fn conv2d_rows_packed(
    x: &Tensor,
    packed: &PackedB,
    bias: &[f32],
    attrs: &Conv2dAttrs,
    rows: Range<usize>,
    scratch: &mut Vec<f32>,
    out: &mut [f32],
) -> Result<(), KernelError> {
    let _probe = probe::span(ProbePoint::ConvRowsFast);
    let dims = lowered_dims(x.shape(), attrs);
    let oc = attrs.out_channels;
    assert_eq!(packed.k(), dims.k_elems, "packed weight k dimension");
    assert_eq!(packed.n(), oc, "packed weight column count");
    assert_eq!(out.len(), rows.len() * oc, "conv output slice length");
    let mut begin = rows.start;
    while begin < rows.end {
        let end = (begin + CONV_ROW_BLOCK).min(rows.end);
        im2col_rows(x, attrs, begin, end, scratch)?;
        let block = &mut out[(begin - rows.start) * oc..(end - rows.start) * oc];
        microkernel::gemm_packed(scratch, packed, block, Epilogue::Bias(bias));
        begin = end;
    }
    Ok(())
}

/// Computes channels `channels` of a depthwise convolution into `out`, laid
/// out `[n * oh * ow, channels.len()]` (channel-local). For the full
/// channel range this *is* the NHWC output layout; for a sub-range the
/// caller scatters the chunk into the final tensor.
///
/// The channel loop is innermost: each output pixel's channel slice is
/// seeded with the bias, then every in-bounds tap `(ky, kx)`, in ascending
/// order, adds `x[.., c] * w[.., c]` across the slice in one
/// vectorizable pass. Each output element is still accumulated
/// independently in the oracle's order (bias, then `ky`, `kx` ascending),
/// so the result is bit-identical to [`conv2d_direct`] and to any channel
/// sharding.
///
/// # Panics
///
/// Panics if `out` does not match the channel range, the range is out of
/// bounds, or `attrs` is not depthwise for the input.
pub fn conv2d_direct_channels_into(
    x: &Tensor,
    weights: &[f32],
    bias: &[f32],
    attrs: &Conv2dAttrs,
    channels: Range<usize>,
    out: &mut [f32],
) {
    let _probe = probe::span(ProbePoint::DepthwiseDirect);
    let (n, ih, iw, ic) = (x.shape().n(), x.shape().h(), x.shape().w(), x.shape().c());
    let (kh, kw) = (attrs.kernel.h, attrs.kernel.w);
    let (sh, sw) = (attrs.stride.h, attrs.stride.w);
    let (ph, pw) = (attrs.padding.h, attrs.padding.w);
    assert!(
        attrs.is_depthwise_for(ic),
        "channel sharding is depthwise-only"
    );
    assert!(channels.end <= ic, "channel range out of bounds");
    let oh = (ih + 2 * ph - kh) / sh + 1;
    let ow = (iw + 2 * pw - kw) / sw + 1;
    let width = channels.len();
    assert_eq!(
        out.len(),
        n * oh * ow * width,
        "depthwise output slice length"
    );
    if width == 0 {
        return;
    }
    let xd = x.data();
    let bias = &bias[channels.clone()];
    let mut pixels = out.chunks_exact_mut(width);
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let acc = pixels.next().expect("one slice per output pixel");
                acc.copy_from_slice(bias);
                for ky in 0..kh {
                    let iy = (oy * sh + ky) as isize - ph as isize;
                    if iy < 0 || iy as usize >= ih {
                        continue;
                    }
                    for kx in 0..kw {
                        let ix = (ox * sw + kx) as isize - pw as isize;
                        if ix < 0 || ix as usize >= iw {
                            continue;
                        }
                        let at = ((b * ih + iy as usize) * iw + ix as usize) * ic + channels.start;
                        let tap = (ky * kw + kx) * ic + channels.start;
                        let xs = &xd[at..at + width];
                        let ws = &weights[tap..tap + width];
                        for ((o, &xv), &wv) in acc.iter_mut().zip(xs).zip(ws) {
                            *o += xv * wv;
                        }
                    }
                }
            }
        }
    }
}

/// Direct (naive loop nest) 2-D convolution — the numerical oracle the
/// streaming im2col path in [`conv2d`] is validated against.
///
/// # Errors
///
/// Returns [`KernelError`] if shapes/lengths are inconsistent with `attrs`.
pub fn conv2d_direct(
    x: &Tensor,
    weights: &[f32],
    bias: &[f32],
    attrs: &Conv2dAttrs,
) -> Result<Tensor, KernelError> {
    let out_shape = check_conv_params(x, weights, bias, attrs)?;
    let (n, ih, iw, ic) = (x.shape().n(), x.shape().h(), x.shape().w(), x.shape().c());
    let (kh, kw) = (attrs.kernel.h, attrs.kernel.w);
    let (sh, sw) = (attrs.stride.h, attrs.stride.w);
    let (ph, pw) = (attrs.padding.h, attrs.padding.w);
    let oc = attrs.out_channels;
    let depthwise = attrs.groups > 1;
    let (oh, ow) = (out_shape.h(), out_shape.w());
    let mut out = Tensor::zeros(out_shape);
    let xd = x.data();
    let od = out.data_mut();
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                for co in 0..oc {
                    let mut acc = bias[co];
                    for ky in 0..kh {
                        let iy = (oy * sh + ky) as isize - ph as isize;
                        if iy < 0 || iy as usize >= ih {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * sw + kx) as isize - pw as isize;
                            if ix < 0 || ix as usize >= iw {
                                continue;
                            }
                            let in_base = ((b * ih + iy as usize) * iw + ix as usize) * ic;
                            if depthwise {
                                let w = weights[(ky * kw + kx) * ic + co];
                                acc += xd[in_base + co] * w;
                            } else {
                                let w_base = ((ky * kw + kx) * ic) * oc + co;
                                for ci in 0..ic {
                                    acc += xd[in_base + ci] * weights[w_base + ci * oc];
                                }
                            }
                        }
                    }
                    od[((b * oh + oy) * ow + ox) * oc + co] = acc;
                }
            }
        }
    }
    Ok(out)
}

/// Fully-connected layer: `y = x W + b` with `W` laid out `[in][out]`.
///
/// Routed by [`GemmPath`] (read from `PIMFLOW_EXACT_KERNELS`; pin it with
/// [`dense_with`]): [`GemmPath::Fast`] packs `W` and runs the
/// register-blocked micro-kernel with the bias fused into the epilogue
/// ([`dense_rows_packed`]); [`GemmPath::Exact`] runs the bias-seeded
/// scalar nest ([`dense_rows_into`]).
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if shapes/lengths are
/// inconsistent or `out_features` is zero.
pub fn dense(
    x: &Tensor,
    weights: &[f32],
    bias: &[f32],
    out_features: usize,
) -> Result<Tensor, KernelError> {
    dense_with(x, weights, bias, out_features, GemmPath::from_env())
}

/// [`dense`] with an explicit [`GemmPath`] instead of the environment
/// lookup.
///
/// # Errors
///
/// Same contract as [`dense`].
pub fn dense_with(
    x: &Tensor,
    weights: &[f32],
    bias: &[f32],
    out_features: usize,
    path: GemmPath,
) -> Result<Tensor, KernelError> {
    if x.shape().rank() != 2 {
        return Err(shape_err(format!(
            "dense input must be 2-D, got {}",
            x.shape()
        )));
    }
    if out_features == 0 {
        return Err(shape_err("dense out_features must be non-zero"));
    }
    let (rows, in_f) = (x.shape().n(), x.shape().c());
    if weights.len() != in_f * out_features {
        return Err(shape_err(format!(
            "dense weight length {} (expected {})",
            weights.len(),
            in_f * out_features
        )));
    }
    if bias.len() != out_features {
        return Err(shape_err(format!(
            "dense bias length {} (expected {out_features})",
            bias.len()
        )));
    }
    let mut out = Tensor::zeros(Shape::rf(rows, out_features));
    match path {
        GemmPath::Fast => {
            let packed = microkernel::pack_b(weights, in_f, out_features);
            dense_rows_packed(x, &packed, bias, 0..rows, out.data_mut());
        }
        GemmPath::Exact => dense_rows_into(x, weights, bias, out_features, 0..rows, out.data_mut()),
    }
    Ok(out)
}

/// Computes output rows `rows` of a dense layer into `out` (length
/// `rows.len() * out_features`, the contiguous slice of the `[rows, out]`
/// output). Accumulation per element ascends the input features, identical
/// at any row sharding.
///
/// # Panics
///
/// Panics if `out` does not match the row range.
pub fn dense_rows_into(
    x: &Tensor,
    weights: &[f32],
    bias: &[f32],
    out_features: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let _probe = probe::span(ProbePoint::DenseRowsExact);
    let in_f = x.shape().c();
    assert_eq!(
        out.len(),
        rows.len() * out_features,
        "dense output slice length"
    );
    let xd = x.data();
    for (local, r) in rows.enumerate() {
        for o in 0..out_features {
            let mut acc = bias[o];
            for i in 0..in_f {
                acc += xd[r * in_f + i] * weights[i * out_features + o];
            }
            out[local * out_features + o] = acc;
        }
    }
}

/// Fast-path counterpart of [`dense_rows_into`] over a pre-packed weight
/// matrix: the register-blocked micro-kernel with the bias fused into the
/// store epilogue. Same sharding contract (per-element accumulation order
/// independent of the row range); same tolerance contract vs the
/// bias-seeded oracle as [`conv2d_rows_packed`].
///
/// # Panics
///
/// Panics if the pack's `k` differs from the input feature count or `out`
/// does not match the row range.
pub fn dense_rows_packed(
    x: &Tensor,
    packed: &PackedB,
    bias: &[f32],
    rows: Range<usize>,
    out: &mut [f32],
) {
    let _probe = probe::span(ProbePoint::DenseRowsFast);
    let in_f = x.shape().c();
    let out_features = packed.n();
    assert_eq!(packed.k(), in_f, "packed weight k dimension");
    assert_eq!(
        out.len(),
        rows.len() * out_features,
        "dense output slice length"
    );
    let xd = &x.data()[rows.start * in_f..rows.end * in_f];
    microkernel::gemm_packed(xd, packed, out, Epilogue::Bias(bias));
}

/// Applies a unary activation element-wise, in place (softmax is applied
/// row-wise over the last dimension). The executor uses this to overwrite a
/// dying input buffer instead of allocating a fresh one.
pub fn activation_inplace(out: &mut Tensor, kind: ActivationKind) {
    match kind {
        ActivationKind::Relu => {
            for v in out.data_mut() {
                *v = v.max(0.0);
            }
        }
        ActivationKind::Relu6 => {
            for v in out.data_mut() {
                *v = v.clamp(0.0, 6.0);
            }
        }
        ActivationKind::Sigmoid => {
            for v in out.data_mut() {
                *v = 1.0 / (1.0 + (-*v).exp());
            }
        }
        ActivationKind::Swish => {
            for v in out.data_mut() {
                *v *= 1.0 / (1.0 + (-*v).exp());
            }
        }
        ActivationKind::Gelu => {
            for v in out.data_mut() {
                // tanh approximation of GELU.
                let x3 = *v * *v * *v;
                *v = 0.5 * *v * (1.0 + ((0.797_884_6) * (*v + 0.044715 * x3)).tanh());
            }
        }
        ActivationKind::Tanh => {
            for v in out.data_mut() {
                *v = v.tanh();
            }
        }
        ActivationKind::Softmax => {
            let c = out.shape().c();
            let rows = out.shape().numel() / c;
            let d = out.data_mut();
            for r in 0..rows {
                let row = &mut d[r * c..(r + 1) * c];
                let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0;
                for v in row.iter_mut() {
                    *v = (*v - max).exp();
                    sum += *v;
                }
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }
}

/// Applies a unary activation element-wise (softmax is applied row-wise over
/// the last dimension).
pub fn activation(x: &Tensor, kind: ActivationKind) -> Tensor {
    let mut out = x.clone();
    activation_inplace(&mut out, kind);
    out
}

/// Element-wise addition, accumulating `b` into `a`.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if shapes differ.
pub fn add_assign(a: &mut Tensor, b: &Tensor) -> Result<(), KernelError> {
    if a.shape() != b.shape() {
        return Err(shape_err(format!(
            "add operands {} vs {}",
            a.shape(),
            b.shape()
        )));
    }
    for (o, &v) in a.data_mut().iter_mut().zip(b.data()) {
        *o += v;
    }
    Ok(())
}

/// Element-wise addition.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor, KernelError> {
    let mut out = a.clone();
    add_assign(&mut out, b)?;
    Ok(out)
}

/// Element-wise multiplication of `b` into `a`, with optional `[N,1,1,C]`
/// broadcast of `b`.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if shapes are incompatible.
pub fn mul_assign(a: &mut Tensor, b: &Tensor) -> Result<(), KernelError> {
    if a.shape() == b.shape() {
        for (o, &v) in a.data_mut().iter_mut().zip(b.data()) {
            *o *= v;
        }
        return Ok(());
    }
    // Broadcast path: b is [N,1,1,C].
    if a.shape().rank() != 4
        || b.shape().rank() != 4
        || (b.shape().h(), b.shape().w()) != (1, 1)
        || a.shape().c() != b.shape().c()
        || a.shape().n() != b.shape().n()
    {
        return Err(shape_err(format!(
            "mul operands {} vs {} (not equal, not [N,1,1,C] broadcast)",
            a.shape(),
            b.shape()
        )));
    }
    let (n, h, w, c) = (a.shape().n(), a.shape().h(), a.shape().w(), a.shape().c());
    let bd = b.data();
    let od = a.data_mut();
    for bi in 0..n {
        for i in 0..h * w {
            for ci in 0..c {
                od[(bi * h * w + i) * c + ci] *= bd[bi * c + ci];
            }
        }
    }
    Ok(())
}

/// Element-wise multiplication with optional `[N,1,1,C]` broadcast of `b`.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if shapes are incompatible.
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor, KernelError> {
    let mut out = a.clone();
    mul_assign(&mut out, b)?;
    Ok(out)
}

/// Inference-mode batch normalization in place:
/// `x[i] = x[i] * scale[c] + shift[c]`.
///
/// # Panics
///
/// Panics if parameter lengths do not match the channel count.
pub fn batch_norm_assign(x: &mut Tensor, scale: &[f32], shift: &[f32]) {
    let c = x.shape().c();
    assert_eq!(scale.len(), c, "bn scale length");
    assert_eq!(shift.len(), c, "bn shift length");
    for (i, v) in x.data_mut().iter_mut().enumerate() {
        let ci = i % c;
        *v = *v * scale[ci] + shift[ci];
    }
}

/// Inference-mode batch normalization: `y = x * scale[c] + shift[c]`.
///
/// # Panics
///
/// Panics if parameter lengths do not match the channel count.
pub fn batch_norm(x: &Tensor, scale: &[f32], shift: &[f32]) -> Tensor {
    let mut out = x.clone();
    batch_norm_assign(&mut out, scale, shift);
    out
}

/// Spatial pooling.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if the input is not 4-D or the
/// window does not fit.
pub fn pool(x: &Tensor, attrs: &PoolAttrs) -> Result<Tensor, KernelError> {
    let mut out = Tensor::zeros(pool_out_shape(x.shape(), attrs)?);
    pool_into(x, attrs, &mut out);
    Ok(out)
}

/// Fills a pre-allocated pooling output (shape already validated).
///
/// Same loop order as [`conv2d_direct_channels_into`]: each output pixel's
/// channel vector starts at the identity of the reduction, and every
/// in-bounds window tap, in ascending `(ky, kx)` order, folds in the input
/// pixel's channel vector. Per element that is the order of a
/// per-channel nest, so every channel's result is independent of the
/// others.
pub(crate) fn pool_into(x: &Tensor, attrs: &PoolAttrs, out: &mut Tensor) {
    let (n, ih, iw, c) = (x.shape().n(), x.shape().h(), x.shape().w(), x.shape().c());
    let (kh, kw) = (attrs.kernel.h, attrs.kernel.w);
    let (sh, sw) = (attrs.stride.h, attrs.stride.w);
    let (ph, pw) = (attrs.padding.h, attrs.padding.w);
    let (oh, ow) = (out.shape().h(), out.shape().w());
    if c == 0 {
        return;
    }
    let xd = x.data();
    let mut pixels = out.data_mut().chunks_exact_mut(c);
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let acc = pixels.next().expect("one slice per output pixel");
                acc.fill(match attrs.kind {
                    PoolKind::Max => f32::NEG_INFINITY,
                    PoolKind::Avg => 0.0,
                });
                let mut count = 0;
                for ky in 0..kh {
                    let iy = (oy * sh + ky) as isize - ph as isize;
                    if iy < 0 || iy as usize >= ih {
                        continue;
                    }
                    for kx in 0..kw {
                        let ix = (ox * sw + kx) as isize - pw as isize;
                        if ix < 0 || ix as usize >= iw {
                            continue;
                        }
                        let at = ((b * ih + iy as usize) * iw + ix as usize) * c;
                        let xs = &xd[at..at + c];
                        match attrs.kind {
                            PoolKind::Max => {
                                for (o, &v) in acc.iter_mut().zip(xs) {
                                    *o = o.max(v);
                                }
                            }
                            PoolKind::Avg => {
                                for (o, &v) in acc.iter_mut().zip(xs) {
                                    *o += v;
                                }
                            }
                        }
                        count += 1;
                    }
                }
                // Count-includes-padding=false semantics; an empty window
                // averages to zero.
                if attrs.kind == PoolKind::Avg {
                    if count > 0 {
                        for o in acc.iter_mut() {
                            *o /= count as f32;
                        }
                    } else {
                        acc.fill(0.0);
                    }
                }
            }
        }
    }
}

/// Global average pooling: NHWC -> `[N,1,1,C]`.
pub fn global_avg_pool(x: &Tensor) -> Tensor {
    let (n, c) = (x.shape().n(), x.shape().c());
    let mut out = Tensor::zeros(Shape::nhwc(n, 1, 1, c));
    gap_into(x, &mut out);
    out
}

/// Fills a pre-allocated, **zero-filled** GAP output (it accumulates).
pub(crate) fn gap_into(x: &Tensor, out: &mut Tensor) {
    let (n, h, w, c) = (x.shape().n(), x.shape().h(), x.shape().w(), x.shape().c());
    let xd = x.data();
    let od = out.data_mut();
    for b in 0..n {
        for i in 0..h * w {
            for ci in 0..c {
                od[b * c + ci] += xd[(b * h * w + i) * c + ci];
            }
        }
    }
    let inv = 1.0 / (h * w) as f32;
    for v in od {
        *v *= inv;
    }
}

/// Zero-pads the spatial dimensions of an NHWC tensor.
pub fn pad(x: &Tensor, attrs: &PadAttrs) -> Tensor {
    let (n, h, w, c) = (x.shape().n(), x.shape().h(), x.shape().w(), x.shape().c());
    let (oh, ow) = (h + attrs.extra_h(), w + attrs.extra_w());
    let mut out = Tensor::zeros(Shape::nhwc(n, oh, ow, c));
    pad_into(x, attrs, &mut out);
    out
}

/// Fills a pre-allocated, **zero-filled** pad output (borders stay zero):
/// each input row of `w * c` floats is one contiguous copy.
pub(crate) fn pad_into(x: &Tensor, attrs: &PadAttrs, out: &mut Tensor) {
    let (h, w, c) = (x.shape().h(), x.shape().w(), x.shape().c());
    let (oh, ow) = (out.shape().h(), out.shape().w());
    let run = w * c;
    if run == 0 {
        return;
    }
    let od = out.data_mut();
    for (row, src) in x.data().chunks_exact(run).enumerate() {
        let (b, y) = (row / h, row % h);
        let at = ((b * oh + y + attrs.top) * ow + attrs.left) * c;
        od[at..at + run].copy_from_slice(src);
    }
}

/// Product of the dimensions after `axis`: the contiguous run one index
/// along `axis` spans in a row-major tensor.
fn inner_extent(shape: &Shape, axis: usize) -> usize {
    (axis + 1..shape.rank()).map(|ax| shape.dim(ax)).product()
}

/// Slices along a single axis.
///
/// # Panics
///
/// Panics if the slice range is invalid.
pub fn slice(x: &Tensor, attrs: &SliceAttrs) -> Tensor {
    let shape = x.shape();
    assert!(attrs.axis < shape.rank(), "slice axis out of range");
    assert!(
        attrs.end <= shape.dim(attrs.axis) && !attrs.is_empty(),
        "invalid slice range"
    );
    let mut out = Tensor::zeros(shape.with_dim(attrs.axis, attrs.len()));
    slice_into(x, attrs, &mut out);
    out
}

/// Fills a pre-allocated slice output: one contiguous copy per index of
/// the dimensions before the axis, each `len * inner` floats long, where
/// `inner` is the product of the dimensions after it.
pub(crate) fn slice_into(x: &Tensor, attrs: &SliceAttrs, out: &mut Tensor) {
    let inner = inner_extent(x.shape(), attrs.axis);
    let src_run = x.shape().dim(attrs.axis) * inner;
    let run = attrs.len() * inner;
    if run == 0 {
        return;
    }
    let from = attrs.begin * inner;
    let blocks = out.data_mut().chunks_exact_mut(run);
    for (dst, src) in blocks.zip(x.data().chunks_exact(src_run)) {
        dst.copy_from_slice(&src[from..from + run]);
    }
}

/// Shape of the concatenation of `shapes` along `axis`.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if no inputs are given, the axis
/// is out of range, or the inputs disagree on any other dimension.
pub fn concat_out_shape(shapes: &[&Shape], axis: usize) -> Result<Shape, KernelError> {
    let first = *shapes
        .first()
        .ok_or_else(|| shape_err("concat needs inputs"))?;
    if axis >= first.rank() {
        return Err(shape_err(format!(
            "concat axis {axis} out of range for {first}"
        )));
    }
    let mut total_axis = 0;
    for s in shapes {
        if s.rank() != first.rank() {
            return Err(shape_err(format!("concat rank mismatch: {first} vs {s}")));
        }
        for ax in 0..first.rank() {
            if ax != axis && s.dim(ax) != first.dim(ax) {
                return Err(shape_err(format!(
                    "concat inputs {first} vs {s} differ outside axis {axis}"
                )));
            }
        }
        total_axis += s.dim(axis);
    }
    Ok(first.with_dim(axis, total_axis))
}

/// Concatenates tensors along a single axis.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if no inputs are given or shapes
/// are incompatible.
pub fn concat(inputs: &[&Tensor], axis: usize) -> Result<Tensor, KernelError> {
    let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
    let mut out = Tensor::zeros(concat_out_shape(&shapes, axis)?);
    concat_into(inputs, axis, &mut out);
    Ok(out)
}

/// Fills a pre-allocated concat output (shape already validated): each
/// input contributes one contiguous copy per index of the dimensions before
/// the axis, placed at its offset inside the output's block.
pub(crate) fn concat_into(inputs: &[&Tensor], axis: usize, out: &mut Tensor) {
    let inner = inner_extent(out.shape(), axis);
    let out_run = out.shape().dim(axis) * inner;
    if out_run == 0 {
        return;
    }
    let mut offset = 0;
    for t in inputs {
        let run = t.shape().dim(axis) * inner;
        if run > 0 {
            let blocks = out.data_mut().chunks_exact_mut(out_run);
            for (dst, src) in blocks.zip(t.data().chunks_exact(run)) {
                dst[offset..offset + run].copy_from_slice(src);
            }
        }
        offset += run;
    }
}

/// Nearest-neighbour upsampling of an NHWC tensor by `factor`.
///
/// # Panics
///
/// Panics if `factor == 0`.
pub fn upsample(x: &Tensor, factor: usize) -> Tensor {
    assert!(factor >= 1, "upsample factor must be >= 1");
    let (n, h, w, c) = (x.shape().n(), x.shape().h(), x.shape().w(), x.shape().c());
    let mut out = Tensor::zeros(Shape::nhwc(n, h * factor, w * factor, c));
    upsample_into(x, factor, &mut out);
    out
}

/// Fills a pre-allocated upsample output: each input pixel's channel
/// vector is copied `factor` times along the first output row of its
/// block, and that row is then copied to the block's other `factor - 1`
/// rows.
pub(crate) fn upsample_into(x: &Tensor, factor: usize, out: &mut Tensor) {
    let (w, c) = (x.shape().w(), x.shape().c());
    let out_row = w * factor * c;
    if out_row == 0 {
        return;
    }
    let od = out.data_mut();
    for (row, src) in x.data().chunks_exact(w * c).enumerate() {
        let first = row * factor * out_row;
        let dst = od[first..first + out_row].chunks_exact_mut(c);
        for (px, lanes) in dst.enumerate() {
            let ix = px / factor;
            lanes.copy_from_slice(&src[ix * c..(ix + 1) * c]);
        }
        for r in 1..factor {
            od.copy_within(first..first + out_row, first + r * out_row);
        }
    }
}

/// Flattens to `[N, rest]`.
pub fn flatten(x: &Tensor) -> Tensor {
    let n = x.shape().n();
    let rest = x.shape().numel() / n;
    Tensor::from_vec(Shape::rf(n, rest), x.data().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimflow_ir::Hw;

    fn seq_tensor(shape: Shape) -> Tensor {
        Tensor::from_fn(shape, |i| (i % 13) as f32 * 0.25 - 1.0)
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 conv with identity weight matrix preserves input channels.
        let x = seq_tensor(Shape::nhwc(1, 3, 3, 2));
        let w = vec![1.0, 0.0, 0.0, 1.0]; // [ic=2][oc=2] identity
        let b = vec![0.0, 0.0];
        let y = conv2d(&x, &w, &b, &Conv2dAttrs::pointwise(2)).unwrap();
        assert!(y.allclose(&x, 1e-6));
    }

    #[test]
    fn conv_matches_hand_computation() {
        // 2x2 input, 2x2 kernel, single channel: one output element.
        let x = Tensor::from_vec(Shape::nhwc(1, 2, 2, 1), vec![1.0, 2.0, 3.0, 4.0]);
        let w = vec![0.5, -1.0, 2.0, 0.25];
        let attrs = Conv2dAttrs {
            out_channels: 1,
            kernel: Hw::square(2),
            stride: Hw::square(1),
            padding: Hw::square(0),
            groups: 1,
        };
        let y = conv2d(&x, &w, &[1.0], &attrs).unwrap();
        let expect = 1.0 * 0.5 + -2.0 + 3.0 * 2.0 + 4.0 * 0.25 + 1.0;
        assert!((y.data()[0] - expect).abs() < 1e-6);
    }

    #[test]
    fn conv_padding_zero_extends() {
        let x = Tensor::from_vec(Shape::nhwc(1, 1, 1, 1), vec![3.0]);
        let attrs = Conv2dAttrs {
            out_channels: 1,
            kernel: Hw::square(3),
            stride: Hw::square(1),
            padding: Hw::square(1),
            groups: 1,
        };
        let w = vec![1.0; 9];
        let y = conv2d(&x, &w, &[0.0], &attrs).unwrap();
        assert_eq!(y.shape(), &Shape::nhwc(1, 1, 1, 1));
        assert!((y.data()[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn depthwise_scales_channels_independently() {
        let x = Tensor::from_vec(Shape::nhwc(1, 1, 1, 2), vec![2.0, 5.0]);
        let attrs = Conv2dAttrs {
            out_channels: 2,
            kernel: Hw::square(1),
            stride: Hw::square(1),
            padding: Hw::square(0),
            groups: 2,
        };
        let y = conv2d(&x, &[10.0, 100.0], &[0.0, 0.0], &attrs).unwrap();
        assert_eq!(y.data(), &[20.0, 500.0]);
    }

    #[test]
    fn conv_fast_path_matches_direct_oracle() {
        // Streaming im2col + GEMM vs the naive loop nest, across batch,
        // stride, padding, and kernel-size variations (one case spans
        // multiple CONV_ROW_BLOCKs). The exact path must be bit-identical;
        // the micro-kernel path reassociates the bias addition and must be
        // within the documented kernel tolerance.
        let tol = crate::tolerance::Tolerance::kernel_default();
        for (batch, h, w, ic, oc, k, s, p) in [
            (1, 6, 6, 3, 4, 3, 1, 1),
            (2, 9, 7, 3, 5, 3, 2, 1),
            (3, 5, 5, 2, 3, 1, 1, 0),
            (1, 8, 8, 4, 6, 5, 2, 2),
            (2, 17, 13, 3, 4, 3, 1, 1), // 2*17*13 = 442 rows > CONV_ROW_BLOCK
        ] {
            let attrs = Conv2dAttrs {
                out_channels: oc,
                kernel: Hw::square(k),
                stride: Hw::square(s),
                padding: Hw::square(p),
                groups: 1,
            };
            let x = seq_tensor(Shape::nhwc(batch, h, w, ic));
            let wts: Vec<f32> = (0..k * k * ic * oc)
                .map(|i| ((i * 7 + 3) % 13) as f32 * 0.1 - 0.6)
                .collect();
            let bias: Vec<f32> = (0..oc).map(|i| i as f32 * 0.5 - 1.0).collect();
            let direct = conv2d_direct(&x, &wts, &bias, &attrs).unwrap();

            let exact = conv2d_with(&x, &wts, &bias, &attrs, GemmPath::Exact).unwrap();
            assert_eq!(exact.shape(), direct.shape());
            assert!(
                exact.allclose(&direct, 0.0),
                "exact path must be bit-identical: max diff {}",
                exact.max_abs_diff(&direct)
            );

            let fast = conv2d_with(&x, &wts, &bias, &attrs, GemmPath::Fast).unwrap();
            assert_eq!(fast.shape(), direct.shape());
            tol.check(fast.data(), direct.data())
                .unwrap_or_else(|e| panic!("fast path outside tolerance: {e}"));
        }
    }

    #[test]
    fn conv_fast_path_row_sharding_is_bit_identical() {
        // The micro-kernel path must keep the sharding contract the scalar
        // path had: any split of the row space reproduces the unsharded
        // run byte for byte, sharing one packed weight matrix.
        let attrs = Conv2dAttrs {
            out_channels: 5,
            kernel: Hw::square(3),
            stride: Hw::square(1),
            padding: Hw::square(1),
            groups: 1,
        };
        let x = seq_tensor(Shape::nhwc(1, 11, 9, 3));
        let wts: Vec<f32> = (0..3 * 3 * 3 * 5)
            .map(|i| ((i * 5 + 1) % 17) as f32 * 0.07 - 0.5)
            .collect();
        let bias = vec![0.25; 5];
        let whole = conv2d_with(&x, &wts, &bias, &attrs, GemmPath::Fast).unwrap();
        let dims = lowered_dims(x.shape(), &attrs);
        let packed = microkernel::pack_b(&wts, dims.k_elems, dims.out_channels);
        let rows = 11 * 9;
        let oc = 5;
        for shards in [2, 3, 7] {
            let mut sharded = vec![0.0f32; rows * oc];
            let mut scratch = Vec::new();
            for r in pimflow_pool::chunk_ranges(rows, shards) {
                let out = &mut sharded[r.start * oc..r.end * oc];
                conv2d_rows_packed(&x, &packed, &bias, &attrs, r, &mut scratch, out).unwrap();
            }
            assert_eq!(whole.data(), &sharded[..], "{shards} shards");
        }
    }

    #[test]
    fn dense_fast_path_matches_oracle_and_shards_identically() {
        let x = seq_tensor(Shape::rf(13, 21));
        let wts: Vec<f32> = (0..21 * 9)
            .map(|i| ((i * 3 + 2) % 9) as f32 * 0.11 - 0.4)
            .collect();
        let bias: Vec<f32> = (0..9).map(|i| i as f32 * 0.2 - 0.7).collect();
        let exact = dense_with(&x, &wts, &bias, 9, GemmPath::Exact).unwrap();
        let fast = dense_with(&x, &wts, &bias, 9, GemmPath::Fast).unwrap();
        crate::tolerance::Tolerance::kernel_default()
            .check(fast.data(), exact.data())
            .unwrap_or_else(|e| panic!("dense fast path outside tolerance: {e}"));
        let packed = microkernel::pack_b(&wts, 21, 9);
        let mut sharded = vec![0.0f32; 13 * 9];
        for r in pimflow_pool::chunk_ranges(13, 4) {
            let out = &mut sharded[r.start * 9..r.end * 9];
            dense_rows_packed(&x, &packed, &bias, r, out);
        }
        assert_eq!(fast.data(), &sharded[..]);
    }

    #[test]
    fn conv_rejects_zero_out_channels() {
        let x = seq_tensor(Shape::nhwc(1, 4, 4, 3));
        let attrs = Conv2dAttrs::pointwise(0);
        let err = conv2d(&x, &[], &[], &attrs).unwrap_err();
        assert!(
            matches!(&err, KernelError::ShapeMismatch(m) if m.contains("non-zero")),
            "{err}"
        );
        assert!(dense(&seq_tensor(Shape::rf(2, 3)), &[], &[], 0).is_err());
    }

    #[test]
    fn conv_row_sharding_is_bit_identical() {
        let attrs = Conv2dAttrs {
            out_channels: 5,
            kernel: Hw::square(3),
            stride: Hw::square(1),
            padding: Hw::square(1),
            groups: 1,
        };
        let x = seq_tensor(Shape::nhwc(1, 11, 9, 3));
        let wts: Vec<f32> = (0..3 * 3 * 3 * 5)
            .map(|i| ((i * 5 + 1) % 17) as f32 * 0.07 - 0.5)
            .collect();
        let bias = vec![0.25; 5];
        let whole = conv2d_with(&x, &wts, &bias, &attrs, GemmPath::Exact).unwrap();
        let rows = 11 * 9;
        let oc = 5;
        let mut sharded = vec![0.0f32; rows * oc];
        let mut scratch = Vec::new();
        for r in pimflow_pool::chunk_ranges(rows, 3) {
            let out = &mut sharded[r.start * oc..r.end * oc];
            conv2d_rows_into(&x, &wts, &bias, &attrs, r, &mut scratch, out).unwrap();
        }
        assert_eq!(whole.data(), &sharded[..]);
    }

    #[test]
    fn depthwise_channel_sharding_is_bit_identical() {
        let attrs = Conv2dAttrs {
            out_channels: 6,
            kernel: Hw::square(3),
            stride: Hw::square(2),
            padding: Hw::square(1),
            groups: 6,
        };
        let x = seq_tensor(Shape::nhwc(2, 9, 7, 6));
        let wts: Vec<f32> = (0..3 * 3 * 6)
            .map(|i| ((i * 11 + 3) % 7) as f32 * 0.2 - 0.6)
            .collect();
        let bias: Vec<f32> = (0..6).map(|i| i as f32 * 0.1).collect();
        let whole = conv2d(&x, &wts, &bias, &attrs).unwrap();
        let (oh, ow) = (whole.shape().h(), whole.shape().w());
        let spatial = 2 * oh * ow;
        let mut scattered = vec![0.0f32; spatial * 6];
        for r in pimflow_pool::chunk_ranges(6, 4) {
            let width = r.len();
            let mut chunk = vec![0.0f32; spatial * width];
            conv2d_direct_channels_into(&x, &wts, &bias, &attrs, r.clone(), &mut chunk);
            for row in 0..spatial {
                for (local, co) in r.clone().enumerate() {
                    scattered[row * 6 + co] = chunk[row * width + local];
                }
            }
        }
        assert_eq!(whole.data(), &scattered[..]);
    }

    #[test]
    fn dense_row_sharding_is_bit_identical() {
        let x = seq_tensor(Shape::rf(7, 12));
        let wts: Vec<f32> = (0..12 * 5)
            .map(|i| ((i * 3 + 2) % 9) as f32 * 0.11 - 0.4)
            .collect();
        let bias = vec![0.5; 5];
        let whole = dense_with(&x, &wts, &bias, 5, GemmPath::Exact).unwrap();
        let mut sharded = [0.0f32; 7 * 5];
        for r in pimflow_pool::chunk_ranges(7, 2) {
            let out = &mut sharded[r.start * 5..r.end * 5];
            dense_rows_into(&x, &wts, &bias, 5, r, out);
        }
        assert_eq!(whole.data(), &sharded[..]);
    }

    #[test]
    fn conv_rejects_bad_operands() {
        let x = seq_tensor(Shape::nhwc(1, 4, 4, 3));
        let attrs = Conv2dAttrs::pointwise(2);
        // Wrong weight length.
        assert!(matches!(
            conv2d(&x, &[0.0; 5], &[0.0; 2], &attrs),
            Err(KernelError::ShapeMismatch(_))
        ));
        // Wrong bias length.
        assert!(matches!(
            conv2d(&x, &[0.0; 6], &[0.0; 3], &attrs),
            Err(KernelError::ShapeMismatch(_))
        ));
        // Kernel larger than padded input.
        let big = Conv2dAttrs {
            out_channels: 2,
            kernel: Hw::square(9),
            stride: Hw::square(1),
            padding: Hw::square(0),
            groups: 1,
        };
        assert!(matches!(
            conv2d(&x, &[0.0; 9 * 9 * 3 * 2], &[0.0; 2], &big),
            Err(KernelError::ShapeMismatch(_))
        ));
        // Grouped but not depthwise.
        let grouped = Conv2dAttrs {
            out_channels: 6,
            kernel: Hw::square(1),
            stride: Hw::square(1),
            padding: Hw::square(0),
            groups: 3,
        };
        assert!(matches!(
            conv2d(&x, &[0.0; 3], &[0.0; 6], &grouped),
            Err(KernelError::Unsupported(_))
        ));
        // Non-NHWC input.
        let flat = seq_tensor(Shape::rf(2, 8));
        assert!(matches!(
            conv2d(&flat, &[0.0; 6], &[0.0; 2], &attrs),
            Err(KernelError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn pool_rejects_oversized_window() {
        let x = seq_tensor(Shape::nhwc(1, 4, 4, 2));
        let attrs = PoolAttrs {
            kind: PoolKind::Max,
            kernel: Hw::square(7),
            stride: Hw::square(1),
            padding: Hw::square(0),
        };
        assert!(matches!(
            pool(&x, &attrs),
            Err(KernelError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let a = seq_tensor(Shape::rf(2, 3));
        let b = seq_tensor(Shape::rf(3, 2));
        assert!(matches!(add(&a, &b), Err(KernelError::ShapeMismatch(_))));
    }

    #[test]
    fn mul_rejects_non_broadcastable() {
        let a = seq_tensor(Shape::nhwc(1, 2, 2, 3));
        let b = seq_tensor(Shape::nhwc(1, 2, 1, 3));
        assert!(matches!(mul(&a, &b), Err(KernelError::ShapeMismatch(_))));
    }

    #[test]
    fn concat_rejects_incompatible_inputs() {
        let a = seq_tensor(Shape::nhwc(1, 2, 2, 3));
        let b = seq_tensor(Shape::nhwc(1, 3, 2, 3));
        // Inputs differ on a non-concat axis.
        assert!(matches!(
            concat(&[&a, &b], 3),
            Err(KernelError::ShapeMismatch(_))
        ));
        // Empty input list.
        assert!(matches!(concat(&[], 0), Err(KernelError::ShapeMismatch(_))));
    }

    #[test]
    fn dense_matches_matvec() {
        let x = Tensor::from_vec(Shape::rf(1, 3), vec![1.0, 2.0, 3.0]);
        // W [3][2] row-major by input.
        let w = vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let y = dense(&x, &w, &[0.5, -0.5], 2).unwrap();
        assert_eq!(y.data(), &[1.0 + 3.0 + 0.5, 2.0 + 3.0 - 0.5]);
    }

    #[test]
    fn activations_clamp() {
        let x = Tensor::from_vec(Shape::rf(1, 3), vec![-1.0, 3.0, 9.0]);
        assert_eq!(
            activation(&x, ActivationKind::Relu).data(),
            &[0.0, 3.0, 9.0]
        );
        assert_eq!(
            activation(&x, ActivationKind::Relu6).data(),
            &[0.0, 3.0, 6.0]
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = seq_tensor(Shape::rf(3, 5));
        let y = activation(&x, ActivationKind::Softmax);
        for r in 0..3 {
            let s: f32 = y.data()[r * 5..(r + 1) * 5].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn mul_broadcasts_se_scale() {
        let x = Tensor::from_vec(Shape::nhwc(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let s = Tensor::from_vec(Shape::nhwc(1, 1, 1, 2), vec![10.0, 0.5]);
        let y = mul(&x, &s).unwrap();
        assert_eq!(y.data(), &[10.0, 1.0, 30.0, 2.0]);
    }

    #[test]
    fn gap_averages() {
        let x = Tensor::from_vec(Shape::nhwc(1, 2, 2, 1), vec![1.0, 2.0, 3.0, 6.0]);
        let y = global_avg_pool(&x);
        assert_eq!(y.data(), &[3.0]);
    }

    #[test]
    fn maxpool_picks_max() {
        let x = Tensor::from_vec(Shape::nhwc(1, 2, 2, 1), vec![1.0, 7.0, 3.0, 2.0]);
        let attrs = PoolAttrs {
            kind: PoolKind::Max,
            kernel: Hw::square(2),
            stride: Hw::square(2),
            padding: Hw::square(0),
        };
        assert_eq!(pool(&x, &attrs).unwrap().data(), &[7.0]);
    }

    #[test]
    fn slice_concat_roundtrip() {
        let x = seq_tensor(Shape::nhwc(1, 6, 2, 3));
        let a = slice(
            &x,
            &SliceAttrs {
                axis: 1,
                begin: 0,
                end: 2,
            },
        );
        let b = slice(
            &x,
            &SliceAttrs {
                axis: 1,
                begin: 2,
                end: 6,
            },
        );
        let y = concat(&[&a, &b], 1).unwrap();
        assert!(y.allclose(&x, 0.0));
    }

    #[test]
    fn pad_then_slice_recovers_input() {
        let x = seq_tensor(Shape::nhwc(1, 3, 3, 2));
        let p = pad(
            &x,
            &PadAttrs {
                top: 1,
                bottom: 2,
                left: 1,
                right: 1,
            },
        );
        let inner = slice(
            &p,
            &SliceAttrs {
                axis: 1,
                begin: 1,
                end: 4,
            },
        );
        let inner = slice(
            &inner,
            &SliceAttrs {
                axis: 2,
                begin: 1,
                end: 4,
            },
        );
        assert!(inner.allclose(&x, 0.0));
    }

    #[test]
    fn bn_is_per_channel_affine() {
        let x = Tensor::from_vec(Shape::nhwc(1, 1, 2, 2), vec![1.0, 1.0, 2.0, 2.0]);
        let y = batch_norm(&x, &[2.0, 3.0], &[0.0, 1.0]);
        assert_eq!(y.data(), &[2.0, 4.0, 4.0, 7.0]);
    }

    #[test]
    fn upsample_replicates_nearest() {
        let x = Tensor::from_vec(Shape::nhwc(1, 1, 2, 1), vec![1.0, 2.0]);
        let y = upsample(&x, 2);
        assert_eq!(y.shape(), &Shape::nhwc(1, 2, 4, 1));
        assert_eq!(y.data(), &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn flatten_preserves_data() {
        let x = seq_tensor(Shape::nhwc(2, 2, 2, 2));
        let y = flatten(&x);
        assert_eq!(y.shape(), &Shape::rf(2, 8));
        assert_eq!(y.data(), x.data());
    }
}
