//! Convolution lowering (im2col).
//!
//! The paper maps CONV layers to DRAM-PIM by applying convolution lowering
//! first and then iterating matrix-vector multiplications over the rows of
//! the lowered input matrix (§2.2, Fig. 2). This module implements the
//! lowering itself; the PIM code generator consumes only its *dimensions*,
//! while tests use the full matrices to prove `conv == im2col x GEMM`.

use crate::microkernel::{self, Epilogue, GemmPath};
use crate::probe::{self, ProbePoint};
use crate::tensor::Tensor;
use pimflow_ir::{Conv2dAttrs, Shape};
use std::fmt;

/// Errors from malformed kernel inputs, the fallible counterpart of the
/// executor's [`ExecError`](crate::ExecError): validation that used to
/// panic now reports what was wrong with the operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Operand shapes are inconsistent (wrong rank, mismatched inner
    /// dimension, ...).
    ShapeMismatch(String),
    /// The operation is valid but outside what the reference kernel
    /// implements (e.g. grouped convolution in `im2col`).
    Unsupported(String),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            KernelError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Dimensions of a lowered convolution, as consumed by the DRAM-PIM code
/// generator: the filter matrix is `[k_elems, out_channels]` resident in the
/// memory cell arrays, and each of the `rows` input-matrix rows (length
/// `k_elems`) is pushed to the global buffers by GWRITE commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweredConv {
    /// Rows of the lowered input matrix (`N * OH * OW`).
    pub rows: usize,
    /// Row length (`KH * KW * IC` for regular, `KH * KW` per channel for
    /// depthwise).
    pub k_elems: usize,
    /// Columns of the filter matrix (output channels).
    pub out_channels: usize,
    /// True if each GWRITE row gathers from non-contiguous addresses
    /// (any kernel other than pointwise), requiring the strided-GWRITE
    /// command extension (§4.1).
    pub strided: bool,
}

/// Computes the lowered dimensions of a convolution over `input_shape`.
///
/// # Panics
///
/// Panics if `input_shape` is not 4-D or the kernel does not fit.
pub fn lowered_dims(input_shape: &Shape, attrs: &Conv2dAttrs) -> LoweredConv {
    assert_eq!(input_shape.rank(), 4, "conv input must be NHWC");
    let (n, h, w, c) = (
        input_shape.n(),
        input_shape.h(),
        input_shape.w(),
        input_shape.c(),
    );
    let oh = pimflow_ir::shape_infer::conv_out_extent(
        h,
        attrs.kernel.h,
        attrs.stride.h,
        attrs.padding.h,
    )
    .expect("kernel must fit input height");
    let ow = pimflow_ir::shape_infer::conv_out_extent(
        w,
        attrs.kernel.w,
        attrs.stride.w,
        attrs.padding.w,
    )
    .expect("kernel must fit input width");
    let k_spatial = attrs.kernel.h * attrs.kernel.w;
    LoweredConv {
        rows: n * oh * ow,
        k_elems: if attrs.groups > 1 {
            k_spatial
        } else {
            k_spatial * c
        },
        out_channels: attrs.out_channels,
        strided: !(attrs.kernel.h == 1
            && attrs.kernel.w == 1
            && attrs.padding.h == 0
            && attrs.padding.w == 0),
    }
}

/// Materializes the lowered input matrix `[rows, k_elems]` for a regular
/// (groups = 1) convolution over an NHWC input. Batched inputs are lowered
/// image by image: image `b` occupies rows `b * OH * OW ..`.
///
/// # Errors
///
/// Returns [`KernelError::Unsupported`] for grouped (depthwise) attrs —
/// lowering interleaves all input channels into one row, which only makes
/// sense when every filter sees every channel.
pub fn im2col(x: &Tensor, attrs: &Conv2dAttrs) -> Result<Tensor, KernelError> {
    let dims = lowered_dims(x.shape(), attrs);
    let mut buf = Vec::new();
    im2col_rows(x, attrs, 0, dims.rows, &mut buf)?;
    Ok(Tensor::from_vec(Shape::rf(dims.rows, dims.k_elems), buf))
}

/// Materializes only rows `row_begin..row_end` of the lowered input matrix
/// into `out` (cleared and refilled; a reusable scratch buffer). Row `r` of
/// the full matrix corresponds to output position `(b, oy, ox)` with
/// `r = (b * OH + oy) * OW + ox` — exactly the rows the executor streams
/// block by block through the GEMM instead of materializing the whole
/// `[rows, k_elems]` matrix, and the unit the intra-op row sharding hands
/// to each worker.
///
/// # Errors
///
/// Returns [`KernelError::Unsupported`] for grouped (depthwise) attrs.
///
/// # Panics
///
/// Panics if the row range is out of bounds for the lowered matrix.
pub fn im2col_rows(
    x: &Tensor,
    attrs: &Conv2dAttrs,
    row_begin: usize,
    row_end: usize,
    out: &mut Vec<f32>,
) -> Result<(), KernelError> {
    let _probe = probe::span(ProbePoint::Im2colRows);
    if attrs.groups != 1 {
        return Err(KernelError::Unsupported(format!(
            "im2col supports regular conv only (groups = {})",
            attrs.groups
        )));
    }
    let dims = lowered_dims(x.shape(), attrs);
    assert!(
        row_begin <= row_end && row_end <= dims.rows,
        "invalid lowered row range {row_begin}..{row_end} of {}",
        dims.rows
    );
    let (ih, iw, ic) = (x.shape().h(), x.shape().w(), x.shape().c());
    let oh = pimflow_ir::shape_infer::conv_out_extent(
        ih,
        attrs.kernel.h,
        attrs.stride.h,
        attrs.padding.h,
    )
    .unwrap();
    let ow = pimflow_ir::shape_infer::conv_out_extent(
        iw,
        attrs.kernel.w,
        attrs.stride.w,
        attrs.padding.w,
    )
    .unwrap();
    out.clear();
    out.resize((row_end - row_begin) * dims.k_elems, 0.0);
    let xd = x.data();
    let (kw, pw) = (attrs.kernel.w, attrs.padding.w);
    for row in row_begin..row_end {
        let ox = row % ow;
        let oy = (row / ow) % oh;
        let b = row / (ow * oh);
        let base = (row - row_begin) * dims.k_elems;
        // Tap `kx` reads input column `ox * stride + kx - pad`, so the
        // in-bounds taps of a kernel row are one contiguous run of
        // `kx_lo..kx_hi`, `ic` floats each, in the input and in the row
        // alike; the out-of-bounds taps stay zero.
        let x0 = ox * attrs.stride.w;
        let kx_lo = pw.saturating_sub(x0);
        let kx_hi = kw.min((iw + pw).saturating_sub(x0));
        if kx_lo >= kx_hi {
            continue;
        }
        let run = (kx_hi - kx_lo) * ic;
        for ky in 0..attrs.kernel.h {
            let iy = (oy * attrs.stride.h + ky) as isize - attrs.padding.h as isize;
            if iy < 0 || iy as usize >= ih {
                continue;
            }
            let src = ((b * ih + iy as usize) * iw + x0 + kx_lo - pw) * ic;
            let dst = base + (ky * kw + kx_lo) * ic;
            out[dst..dst + run].copy_from_slice(&xd[src..src + run]);
        }
    }
    Ok(())
}

/// Columns of `b` touched per k-block before moving down the k dimension.
/// 64 f32 rows of a typical `n` keep the hot `b` slice and the output row
/// in L1/L2 together (cache blocking, the CPU analogue of the shared-memory
/// tiling every GPU GEMM uses).
const GEMM_K_BLOCK: usize = 64;

/// The scalar oracle core shared by [`gemm`]'s exact path and the exact
/// conv path: `out[m, n] += a[m, k] x b[k, n]`, blocked over the k
/// dimension.
///
/// `k` advances in ascending order for every output element (the blocks
/// are ascending and `kk` ascends within a block), so the float
/// accumulation order — and therefore the result, bit for bit — matches
/// the naive `i, k, j` loop nest. Every product is accumulated, including
/// zero ones: an earlier `av == 0.0` skip diverged from the naive loop on
/// signed zeros (a `-0.0` accumulator survived the skip where the naive
/// loop's `+ 0.0` flushed it to `+0.0`), breaking the bit-identity claim.
///
/// Callers guarantee `n > 0` ([`gemm`] rejects zero-dimension operands and
/// `conv2d_out_shape` rejects zero output channels), so the former
/// `n.max(1)` guard — which silently computed a wrong `m` for degenerate
/// inputs — is gone.
pub(crate) fn gemm_accumulate(ad: &[f32], bd: &[f32], od: &mut [f32], k: usize, n: usize) {
    let _probe = probe::span(ProbePoint::GemmScalar);
    debug_assert!(n > 0, "gemm_accumulate callers reject n == 0");
    let m = od.len() / n;
    for kb in (0..k).step_by(GEMM_K_BLOCK) {
        let k_end = (kb + GEMM_K_BLOCK).min(k);
        for i in 0..m {
            let a_row = &ad[i * k..(i + 1) * k];
            let o_row = &mut od[i * n..(i + 1) * n];
            for kk in kb..k_end {
                let av = a_row[kk];
                let b_row = &bd[kk * n..(kk + 1) * n];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// GEMM: `[m, k] x [k, n] -> [m, n]`, bit-identical to the naive triple
/// loop on **both** paths: the default [`GemmPath::Fast`] register-blocked
/// micro-kernel accumulates each element's products in ascending `k` order
/// (see [`crate::microkernel`]), and the [`GemmPath::Exact`] scalar loop is
/// the k-blocked oracle (`gemm_accumulate`). The path is read from
/// `PIMFLOW_EXACT_KERNELS`; use [`gemm_with`] to pin it.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if either operand is not 2-D, the
/// inner dimensions disagree, or any dimension is zero.
pub fn gemm(a: &Tensor, b: &Tensor) -> Result<Tensor, KernelError> {
    gemm_with(a, b, GemmPath::from_env())
}

/// [`gemm`] with an explicit [`GemmPath`] instead of the environment
/// lookup.
///
/// # Errors
///
/// Same contract as [`gemm`].
pub fn gemm_with(a: &Tensor, b: &Tensor, path: GemmPath) -> Result<Tensor, KernelError> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(KernelError::ShapeMismatch(format!(
            "gemm operands must be 2-D, got {} and {}",
            a.shape(),
            b.shape()
        )));
    }
    let (m, k) = (a.shape().n(), a.shape().c());
    let (k2, n) = (b.shape().n(), b.shape().c());
    if k != k2 {
        return Err(KernelError::ShapeMismatch(format!(
            "gemm inner dimension mismatch: [{m}, {k}] x [{k2}, {n}]"
        )));
    }
    if m == 0 || k == 0 || n == 0 {
        return Err(KernelError::ShapeMismatch(format!(
            "gemm operands must have non-zero dimensions: [{m}, {k}] x [{k}, {n}]"
        )));
    }
    let mut out = Tensor::zeros(Shape::rf(m, n));
    match path {
        GemmPath::Fast => {
            let packed = microkernel::pack_b(b.data(), k, n);
            microkernel::gemm_packed(a.data(), &packed, out.data_mut(), Epilogue::None);
        }
        GemmPath::Exact => gemm_accumulate(a.data(), b.data(), out.data_mut(), k, n),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv2d_direct;
    use pimflow_ir::Hw;

    #[test]
    fn lowered_dims_pointwise() {
        let d = lowered_dims(&Shape::nhwc(1, 14, 14, 64), &Conv2dAttrs::pointwise(128));
        assert_eq!(d.rows, 14 * 14);
        assert_eq!(d.k_elems, 64);
        assert_eq!(d.out_channels, 128);
        assert!(!d.strided);
    }

    #[test]
    fn lowered_dims_3x3_is_strided() {
        let attrs = Conv2dAttrs {
            out_channels: 16,
            kernel: Hw::square(3),
            stride: Hw::square(1),
            padding: Hw::square(1),
            groups: 1,
        };
        let d = lowered_dims(&Shape::nhwc(1, 8, 8, 4), &attrs);
        assert_eq!(d.rows, 64);
        assert_eq!(d.k_elems, 36);
        assert!(d.strided);
    }

    #[test]
    fn im2col_gemm_equals_direct_conv() {
        // The fundamental lowering identity the PIM mapping relies on —
        // checked for batch 1 and for a batched input (each image lowered
        // to its own row block).
        let attrs = Conv2dAttrs {
            out_channels: 5,
            kernel: Hw::square(3),
            stride: Hw::square(2),
            padding: Hw::square(1),
            groups: 1,
        };
        let k_elems = 3 * 3 * 3;
        let w: Vec<f32> = (0..k_elems * 5)
            .map(|i| ((i * 13 + 5) % 11) as f32 * 0.05 - 0.25)
            .collect();
        let bias = vec![0.0; 5];
        for batch in [1, 3] {
            let x = Tensor::from_fn(Shape::nhwc(batch, 9, 7, 3), |i| {
                ((i * 31 + 7) % 17) as f32 * 0.1 - 0.8
            });
            let direct = conv2d_direct(&x, &w, &bias, &attrs).unwrap();
            let lowered = im2col(&x, &attrs).unwrap();
            let w_mat = Tensor::from_vec(Shape::rf(k_elems, 5), w.clone());
            let via_gemm = gemm(&lowered, &w_mat).unwrap();

            // Reshape direct output [n,oh,ow,oc] to [rows, oc].
            let rows = batch * direct.shape().h() * direct.shape().w();
            assert_eq!(lowered.shape().n(), rows);
            let direct2 = Tensor::from_vec(Shape::rf(rows, 5), direct.data().to_vec());
            assert!(via_gemm.allclose(&direct2, 1e-4), "batch {batch}");
        }
    }

    #[test]
    fn blocked_gemm_is_bit_identical_to_naive() {
        // k > GEMM_K_BLOCK so blocking actually splits the loop.
        let (m, k, n) = (7, 2 * GEMM_K_BLOCK + 13, 9);
        let a = Tensor::from_fn(Shape::rf(m, k), |i| ((i * 29 + 3) % 23) as f32 * 0.07 - 0.7);
        let b = Tensor::from_fn(Shape::rf(k, n), |i| {
            ((i * 17 + 11) % 19) as f32 * 0.09 - 0.8
        });
        let blocked = gemm(&a, &b).unwrap();
        let (ad, bd) = (a.data(), b.data());
        let mut naive = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    naive[i * n + j] += ad[i * k + kk] * bd[kk * n + j];
                }
            }
        }
        assert_eq!(blocked.data(), &naive[..], "accumulation order must match");
    }

    #[test]
    fn im2col_rows_matches_full_lowering() {
        let attrs = Conv2dAttrs {
            out_channels: 4,
            kernel: Hw::square(3),
            stride: Hw::square(2),
            padding: Hw::square(1),
            groups: 1,
        };
        let x = Tensor::from_fn(Shape::nhwc(2, 7, 6, 3), |i| {
            ((i * 19 + 5) % 11) as f32 - 4.0
        });
        let full = im2col(&x, &attrs).unwrap();
        let k = full.shape().c();
        let rows = full.shape().n();
        let mut scratch = Vec::new();
        for (begin, end) in [(0, rows), (0, 1), (rows - 1, rows), (3, 11), (5, 5)] {
            im2col_rows(&x, &attrs, begin, end, &mut scratch).unwrap();
            assert_eq!(
                &scratch[..],
                &full.data()[begin * k..end * k],
                "rows {begin}..{end}"
            );
        }
        // The scratch buffer is cleared between calls, not appended to.
        im2col_rows(&x, &attrs, 0, 2, &mut scratch).unwrap();
        assert_eq!(scratch.len(), 2 * k);
    }

    #[test]
    fn gemm_rejects_malformed_operands() {
        let a = Tensor::zeros(Shape::rf(2, 3));
        let b = Tensor::zeros(Shape::rf(4, 5));
        assert!(matches!(gemm(&a, &b), Err(KernelError::ShapeMismatch(_))));
        let four_d = Tensor::zeros(Shape::nhwc(1, 2, 3, 4));
        assert!(matches!(
            gemm(&four_d, &b),
            Err(KernelError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn gemm_rejects_zero_dimension_operands() {
        // Formerly the scalar core papered over n == 0 with an `n.max(1)`
        // guard (computing a bogus m from a zero-sized output); degenerate
        // operands are now a surfaced error on both paths.
        for (m, k, n) in [(0, 3, 4), (2, 0, 4), (2, 3, 0)] {
            let a = Tensor::zeros(Shape::rf(m, k));
            let b = Tensor::zeros(Shape::rf(k, n));
            for path in [GemmPath::Fast, GemmPath::Exact] {
                let err = gemm_with(&a, &b, path).unwrap_err();
                assert!(
                    matches!(&err, KernelError::ShapeMismatch(m) if m.contains("non-zero")),
                    "({m}, {k}, {n}) via {path:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn gemm_preserves_signed_zero_sums() {
        // Regression: the old `av == 0.0` skip in gemm_accumulate left a
        // `-0.0` accumulator untouched where the naive loop's `+ 0.0`
        // flushes it to `+0.0` — so the "bit-identical" claim was false
        // exactly on signed zeros. A row of `-0.0` against any B must now
        // produce `+0.0` (IEEE: -0.0 * x + 0.0 * y ... sums to +0.0) on
        // both paths.
        let a = Tensor::from_vec(Shape::rf(1, 3), vec![-0.0, -0.0, -0.0]);
        let b = Tensor::from_fn(Shape::rf(3, 4), |i| i as f32 + 1.0);
        for path in [GemmPath::Fast, GemmPath::Exact] {
            let out = gemm_with(&a, &b, path).unwrap();
            let mut naive = vec![0.0f32; 4];
            for kk in 0..3 {
                for (j, cell) in naive.iter_mut().enumerate() {
                    *cell += a.data()[kk] * b.data()[kk * 4 + j];
                }
            }
            for (got, want) in out.data().iter().zip(&naive) {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{path:?}: {got} vs naive {want}"
                );
            }
        }
    }

    #[test]
    fn fast_and_exact_paths_are_bit_identical_for_plain_gemm() {
        // Epilogue-free GEMM accumulates in the same per-element order on
        // both paths, so even the micro-kernel is bit-identical here.
        let (m, k, n) = (13, 2 * GEMM_K_BLOCK + 5, 11);
        let a = Tensor::from_fn(Shape::rf(m, k), |i| ((i * 29 + 3) % 23) as f32 * 0.07 - 0.7);
        let b = Tensor::from_fn(Shape::rf(k, n), |i| {
            ((i * 17 + 11) % 19) as f32 * 0.09 - 0.8
        });
        let fast = gemm_with(&a, &b, GemmPath::Fast).unwrap();
        let exact = gemm_with(&a, &b, GemmPath::Exact).unwrap();
        assert_eq!(fast.data(), exact.data());
    }

    #[test]
    fn im2col_rejects_grouped_conv() {
        let x = Tensor::zeros(Shape::nhwc(1, 4, 4, 8));
        let attrs = Conv2dAttrs {
            out_channels: 8,
            kernel: Hw::square(3),
            stride: Hw::square(1),
            padding: Hw::square(1),
            groups: 8,
        };
        let err = im2col(&x, &attrs).unwrap_err();
        assert!(matches!(err, KernelError::Unsupported(_)));
        assert!(err.to_string().contains("groups"));
    }
}
