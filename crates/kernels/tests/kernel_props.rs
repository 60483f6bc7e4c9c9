//! Property tests for the reference kernels: the convolution-lowering
//! identity, data-movement roundtrips and oracles, channel independence of
//! the channel-vectorized kernels, and executor determinism. Cases are
//! drawn from a seeded `pimflow-rng` generator (the workspace builds
//! offline, so `proptest` is not available).

use pimflow_ir::{Conv2dAttrs, Hw, PadAttrs, PoolAttrs, PoolKind, Shape, SliceAttrs};
use pimflow_kernels::im2col::gemm_with;
use pimflow_kernels::microkernel::{gemm_packed, KC, MC, MR, NR};
use pimflow_kernels::ops::{
    concat, conv2d, conv2d_direct, conv2d_direct_channels_into, pad, pool, slice, upsample,
};
use pimflow_kernels::{gemm, im2col, pack_b, Epilogue, GemmPath, Tensor, Tolerance};
use pimflow_rng::Rng;

const CASES: usize = 32;

fn random_tensor(rng: &mut Rng, shape: Shape) -> Tensor {
    let n = shape.numel();
    let data: Vec<f32> = (0..n).map(|_| rng.range_f32(-2.0, 2.0)).collect();
    Tensor::from_vec(shape, data)
}

/// The PIM mapping's foundation (§2.2): convolution lowering followed by
/// GEMM equals direct convolution, for arbitrary configurations.
#[test]
fn im2col_gemm_equals_direct_conv() {
    let mut rng = Rng::seed_from_u64(0x6e57_0001);
    let mut checked = 0;
    while checked < CASES {
        let n = rng.range_usize(1, 4);
        let h = rng.range_usize(3, 10);
        let w = rng.range_usize(3, 10);
        let ic = rng.range_usize(1, 4);
        let oc = rng.range_usize(1, 5);
        let k = rng.range_usize(1, 4);
        let s = rng.range_usize(1, 3);
        let p = rng.range_usize(0, 2);
        if h + 2 * p < k || w + 2 * p < k {
            continue;
        }
        checked += 1;
        let x = random_tensor(&mut rng, Shape::nhwc(n, h, w, ic));
        let wts: Vec<f32> = (0..k * k * ic * oc)
            .map(|_| rng.range_f32(-1.0, 1.0))
            .collect();
        let attrs = Conv2dAttrs {
            out_channels: oc,
            kernel: Hw::square(k),
            stride: Hw::square(s),
            padding: Hw::square(p),
            groups: 1,
        };
        let bias = vec![0.0; oc];
        // conv2d_direct is the oracle: conv2d itself routes through the
        // same im2col + GEMM being checked here.
        let direct = conv2d_direct(&x, &wts, &bias, &attrs).unwrap();
        let lowered = im2col(&x, &attrs).unwrap();
        let w_mat = Tensor::from_vec(Shape::rf(k * k * ic, oc), wts.clone());
        let via_gemm = gemm(&lowered, &w_mat).unwrap();
        let rows = n * direct.shape().h() * direct.shape().w();
        let direct2 = Tensor::from_vec(Shape::rf(rows, oc), direct.data().to_vec());
        assert!(
            via_gemm.allclose(&direct2, 1e-3),
            "diff {}",
            via_gemm.max_abs_diff(&direct2)
        );
        // And the fast path agrees with the oracle end to end.
        let fast = conv2d(&x, &wts, &bias, &attrs).unwrap();
        assert!(fast.allclose(&direct, 0.0));
    }
}

/// Slicing a tensor along H into two parts and concatenating restores
/// the original exactly.
#[test]
fn slice_concat_data_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x6e57_0002);
    for _ in 0..CASES {
        let h = rng.range_usize(2, 10);
        let w = rng.range_usize(1, 6);
        let c = rng.range_usize(1, 5);
        let cut = 1 + rng.range_usize(1, 1000) % (h - 1).max(1);
        let x = random_tensor(&mut rng, Shape::nhwc(1, h, w, c));
        let a = slice(
            &x,
            &SliceAttrs {
                axis: 1,
                begin: 0,
                end: cut,
            },
        );
        let b = slice(
            &x,
            &SliceAttrs {
                axis: 1,
                begin: cut,
                end: h,
            },
        );
        let y = concat(&[&a, &b], 1).unwrap();
        assert!(y.allclose(&x, 0.0));
    }
}

/// Padding then slicing the interior recovers the input exactly, and
/// padded borders are zero.
#[test]
fn pad_slice_recovery() {
    let mut rng = Rng::seed_from_u64(0x6e57_0003);
    for _ in 0..CASES {
        let h = rng.range_usize(2, 8);
        let w = rng.range_usize(2, 8);
        let c = rng.range_usize(1, 4);
        let t = rng.range_usize(0, 3);
        let bm = rng.range_usize(0, 3);
        let l = rng.range_usize(0, 3);
        let r = rng.range_usize(0, 3);
        let x = random_tensor(&mut rng, Shape::nhwc(1, h, w, c));
        let attrs = PadAttrs {
            top: t,
            bottom: bm,
            left: l,
            right: r,
        };
        let padded = pad(&x, &attrs);
        // Border sums must be zero.
        let mut border_sum = 0.0f32;
        for y_ in 0..padded.shape().h() {
            for x_ in 0..padded.shape().w() {
                let inside = y_ >= t && y_ < t + h && x_ >= l && x_ < l + w;
                if !inside {
                    for cc in 0..padded.shape().c() {
                        border_sum += padded.get(&[0, y_, x_, cc]).abs();
                    }
                }
            }
        }
        assert_eq!(border_sum, 0.0);
        // Interior recovers input.
        let inner = slice(
            &padded,
            &SliceAttrs {
                axis: 1,
                begin: t,
                end: t + h,
            },
        );
        let inner = slice(
            &inner,
            &SliceAttrs {
                axis: 2,
                begin: l,
                end: l + w,
            },
        );
        assert!(inner.allclose(&x, 0.0));
    }
}

/// Draws a GEMM dimension that is biased toward the blocking remainders:
/// values below the block size, exactly at it, and just past it all occur.
fn blocked_dim(rng: &mut Rng, block: usize) -> usize {
    match rng.range_usize(0, 4) {
        0 => rng.range_usize(1, block),         // strictly inside one block
        1 => block + rng.range_usize(0, 2),     // at / one past the edge
        2 => rng.range_usize(1, 2 * block + 2), // spans the boundary
        _ => 2 * block + rng.range_usize(1, block), // several blocks deep
    }
}

fn naive_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            for j in 0..n {
                out[i * n + j] += av * b[kk * n + j];
            }
        }
    }
    out
}

/// The tentpole contract, plain-GEMM half: with no epilogue, the
/// register-blocked micro-kernel is **bit-identical** to the scalar oracle
/// and to a naive triple loop, across shapes that exercise every remainder
/// (`M < MR`, `N < NR`, `K < KC`, and multi-block cases past `MC`/`KC`).
#[test]
fn microkernel_gemm_is_bit_identical_to_scalar_oracle() {
    let mut rng = Rng::seed_from_u64(0x6e57_0005);
    for case in 0..CASES {
        // Cap the largest axis per case so the multi-block draws stay fast.
        let m = if case % 3 == 0 {
            blocked_dim(&mut rng, MC)
        } else {
            blocked_dim(&mut rng, MR)
        };
        let k = if case % 3 == 1 {
            blocked_dim(&mut rng, KC)
        } else {
            rng.range_usize(1, 48)
        };
        let n = blocked_dim(&mut rng, NR);
        let a = random_tensor(&mut rng, Shape::rf(m, k));
        let b = random_tensor(&mut rng, Shape::rf(k, n));
        let fast = gemm_with(&a, &b, GemmPath::Fast).unwrap();
        let exact = gemm_with(&a, &b, GemmPath::Exact).unwrap();
        assert_eq!(
            fast.data(),
            exact.data(),
            "plain GEMM must be bit-identical across paths at ({m},{k},{n})"
        );
        let naive = naive_gemm(a.data(), b.data(), m, k, n);
        assert_eq!(
            fast.data(),
            &naive[..],
            "micro-kernel diverged from the naive loop at ({m},{k},{n})"
        );
    }
}

/// The tentpole contract, epilogue half: the fused bias(+relu) epilogue
/// adds bias *after* the products (the oracle seeds with it), so the fused
/// result is tolerance-checked — within [`Tolerance::kernel_default`] of a
/// bias-seeded naive oracle — never byte-compared.
#[test]
fn fused_epilogue_stays_within_kernel_tolerance_of_seeded_oracle() {
    let mut rng = Rng::seed_from_u64(0x6e57_0006);
    let tol = Tolerance::kernel_default();
    for _ in 0..CASES {
        let m = blocked_dim(&mut rng, MR);
        let k = rng.range_usize(1, 64);
        let n = blocked_dim(&mut rng, NR);
        let a: Vec<f32> = (0..m * k).map(|_| rng.range_f32(-2.0, 2.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.range_f32(-2.0, 2.0)).collect();
        let bias: Vec<f32> = (0..n).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let relu = rng.range_usize(0, 2) == 1;

        // Bias-seeded oracle, the accumulation order the scalar path uses.
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            want[i * n..(i + 1) * n].copy_from_slice(&bias);
        }
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    want[i * n + j] += av * b[kk * n + j];
                }
            }
        }
        if relu {
            for v in &mut want {
                *v = v.max(0.0);
            }
        }

        let packed = pack_b(&b, k, n);
        let mut got = vec![0.0f32; m * n];
        let epilogue = if relu {
            Epilogue::BiasRelu(&bias)
        } else {
            Epilogue::Bias(&bias)
        };
        gemm_packed(&a, &packed, &mut got, epilogue);
        tol.check(&got, &want).unwrap_or_else(|e| {
            panic!("fused epilogue drifted past tolerance at ({m},{k},{n}) relu={relu}: {e}")
        });
    }
}

/// One packed B serves every im2col row batch: splitting the lowered
/// matrix into arbitrary row blocks and pushing each through the shared
/// pack reproduces the one-shot product byte-for-byte, and stays within
/// tolerance of the direct-convolution oracle.
#[test]
fn batched_im2col_panels_reuse_one_pack() {
    let mut rng = Rng::seed_from_u64(0x6e57_0007);
    let tol = Tolerance::kernel_default();
    let mut checked = 0;
    while checked < CASES / 2 {
        let h = rng.range_usize(3, 9);
        let w = rng.range_usize(3, 9);
        let ic = rng.range_usize(1, 4);
        let oc = rng.range_usize(1, 12);
        let k = rng.range_usize(1, 4);
        if h < k || w < k {
            continue;
        }
        checked += 1;
        let attrs = Conv2dAttrs {
            out_channels: oc,
            kernel: Hw::square(k),
            stride: Hw::square(1),
            padding: Hw::square(0),
            groups: 1,
        };
        let x = random_tensor(&mut rng, Shape::nhwc(1, h, w, ic));
        let wts: Vec<f32> = (0..k * k * ic * oc)
            .map(|_| rng.range_f32(-1.0, 1.0))
            .collect();
        let lowered = im2col(&x, &attrs).unwrap();
        let rows = lowered.shape().dim(0);
        let kk = lowered.shape().dim(1);

        let packed = pack_b(&wts, kk, oc);
        let mut whole = vec![0.0f32; rows * oc];
        gemm_packed(lowered.data(), &packed, &mut whole, Epilogue::None);

        // Same pack, arbitrary row batches.
        let mut batched = vec![0.0f32; rows * oc];
        let mut row = 0;
        while row < rows {
            let take = (1 + rng.range_usize(0, rows)).min(rows - row);
            gemm_packed(
                &lowered.data()[row * kk..(row + take) * kk],
                &packed,
                &mut batched[row * oc..(row + take) * oc],
                Epilogue::None,
            );
            row += take;
        }
        assert_eq!(
            whole, batched,
            "row-batched GEMM over a shared pack must be byte-identical"
        );

        let bias = vec![0.0; oc];
        let direct = conv2d_direct(&x, &wts, &bias, &attrs).unwrap();
        tol.check(&batched, direct.data())
            .unwrap_or_else(|e| panic!("packed conv drifted from direct oracle: {e}"));
    }
}

/// Depthwise convolution treats channels independently: scaling each
/// channel by its own filter weight.
#[test]
fn depthwise_is_channelwise() {
    let mut rng = Rng::seed_from_u64(0x6e57_0004);
    for _ in 0..CASES {
        let c = 4;
        let vals: Vec<f32> = (0..c).map(|_| rng.range_f32(-2.0, 2.0)).collect();
        let attrs = Conv2dAttrs {
            out_channels: c,
            kernel: Hw::square(1),
            stride: Hw::square(1),
            padding: Hw::square(0),
            groups: c,
        };
        let weights: Vec<f32> = (0..c).map(|i| (i + 1) as f32).collect();
        let bias = vec![0.0; c];
        let x = Tensor::from_vec(Shape::nhwc(1, 1, 1, c), vals.clone());
        let y = conv2d(&x, &weights, &bias, &attrs).unwrap();
        for (i, (&out, &v)) in y.data().iter().zip(&vals).enumerate() {
            assert!((out - v * (i + 1) as f32).abs() < 1e-6);
        }
    }
}

/// Row-major coordinates of flat index `lin` in `shape`.
fn unravel(mut lin: usize, shape: &Shape) -> Vec<usize> {
    let mut idx = vec![0; shape.rank()];
    for ax in (0..shape.rank()).rev() {
        idx[ax] = lin % shape.dim(ax);
        lin /= shape.dim(ax);
    }
    idx
}

/// A tensor of `shape` whose every element is `f(its coordinates)`,
/// written one element at a time through `Tensor::set`.
fn from_coords(shape: Shape, mut f: impl FnMut(&[usize]) -> f32) -> Tensor {
    let mut out = Tensor::zeros(shape.clone());
    for lin in 0..shape.numel() {
        let idx = unravel(lin, &shape);
        out.set(&idx, f(&idx));
    }
    out
}

/// A random shape of rank 2 or 4 with extents 1..=5 (odd ones included).
fn random_shape(rng: &mut Rng, rank: usize) -> Shape {
    Shape::new((0..rank).map(|_| rng.range_usize(1, 6)).collect())
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: values");
}

/// The block-copy `slice`, `concat`, `pad` and `upsample` agree bit for
/// bit with per-element `get`/`set` oracles: ranks 2 and 4, every axis,
/// one to four concat inputs, odd extents, every combination of pad sides
/// and upsample factors 1–3.
#[test]
fn data_movement_ops_match_per_element_oracles() {
    let mut rng = Rng::seed_from_u64(0x6e57_0005);
    for case in 0..4 * CASES {
        for rank in [2, 4] {
            let shape = random_shape(&mut rng, rank);
            let x = random_tensor(&mut rng, shape.clone());
            for axis in 0..rank {
                // slice
                let extent = shape.dim(axis);
                let begin = rng.range_usize(0, extent);
                let end = rng.range_usize(begin + 1, extent + 1);
                let attrs = SliceAttrs { axis, begin, end };
                let want = from_coords(shape.with_dim(axis, end - begin), |idx| {
                    let mut src = idx.to_vec();
                    src[axis] += begin;
                    x.get(&src)
                });
                assert_bits_eq(
                    &slice(&x, &attrs),
                    &want,
                    &format!("slice {attrs:?} of {shape}"),
                );

                // concat: parts differ only along the axis.
                let parts: Vec<Tensor> = (0..rng.range_usize(1, 5))
                    .map(|_| {
                        let part = shape.with_dim(axis, rng.range_usize(1, 4));
                        random_tensor(&mut rng, part)
                    })
                    .collect();
                let total = parts.iter().map(|t| t.shape().dim(axis)).sum();
                let want = from_coords(shape.with_dim(axis, total), |idx| {
                    let mut src = idx.to_vec();
                    for t in &parts {
                        if src[axis] < t.shape().dim(axis) {
                            return t.get(&src);
                        }
                        src[axis] -= t.shape().dim(axis);
                    }
                    unreachable!("index past the last part")
                });
                let refs: Vec<&Tensor> = parts.iter().collect();
                let got = concat(&refs, axis).unwrap();
                assert_bits_eq(
                    &got,
                    &want,
                    &format!("concat of {} along {axis}", refs.len()),
                );
            }
        }

        let shape = random_shape(&mut rng, 4);
        let x = random_tensor(&mut rng, shape.clone());
        let (n, h, w, c) = (shape.n(), shape.h(), shape.w(), shape.c());

        // pad: the case index walks every subset of the four sides.
        let side = |bit: usize, rng: &mut Rng| {
            if case & (1 << bit) != 0 {
                rng.range_usize(1, 4)
            } else {
                0
            }
        };
        let attrs = PadAttrs {
            top: side(0, &mut rng),
            bottom: side(1, &mut rng),
            left: side(2, &mut rng),
            right: side(3, &mut rng),
        };
        let padded = Shape::nhwc(n, h + attrs.extra_h(), w + attrs.extra_w(), c);
        let want = from_coords(padded, |idx| {
            let (y, xx) = (idx[1], idx[2]);
            let inside = (attrs.top..attrs.top + h).contains(&y)
                && (attrs.left..attrs.left + w).contains(&xx);
            if inside {
                x.get(&[idx[0], y - attrs.top, xx - attrs.left, idx[3]])
            } else {
                0.0
            }
        });
        assert_bits_eq(
            &pad(&x, &attrs),
            &want,
            &format!("pad {attrs:?} of {shape}"),
        );

        // upsample
        let factor = 1 + case % 3;
        let want = from_coords(Shape::nhwc(n, h * factor, w * factor, c), |idx| {
            x.get(&[idx[0], idx[1] / factor, idx[2] / factor, idx[3]])
        });
        assert_bits_eq(
            &upsample(&x, factor),
            &want,
            &format!("upsample x{factor} of {shape}"),
        );
    }
}

/// Random cut points splitting `0..c` into consecutive ranges.
fn channel_split(rng: &mut Rng, c: usize) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < c {
        let end = rng.range_usize(start + 1, c + 1);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// The channel-vectorized depthwise convolution computes any channel range
/// exactly as the full nest and the direct oracle do: kernels 3 and 5,
/// strides 1 and 2, with and without padding.
#[test]
fn depthwise_is_bit_identical_over_any_channel_split() {
    let mut rng = Rng::seed_from_u64(0x6e57_0006);
    for case in 0..CASES {
        let k = [3, 5][case % 2];
        let s = 1 + (case / 2) % 2;
        let p = (case / 4) % 3;
        let c = rng.range_usize(1, 20);
        let (h, w) = (rng.range_usize(k, k + 6), rng.range_usize(k, k + 6));
        let shape = Shape::nhwc(rng.range_usize(1, 3), h, w, c);
        let x = random_tensor(&mut rng, shape);
        let attrs = Conv2dAttrs {
            out_channels: c,
            kernel: Hw::square(k),
            stride: Hw::square(s),
            padding: Hw::square(p),
            groups: c,
        };
        let weights: Vec<f32> = (0..k * k * c).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let bias: Vec<f32> = (0..c).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let direct = conv2d_direct(&x, &weights, &bias, &attrs).unwrap();
        let pixels = direct.shape().numel() / c;
        let mut split = vec![0.0f32; direct.shape().numel()];
        for r in channel_split(&mut rng, c) {
            let mut chunk = vec![0.0f32; pixels * r.len()];
            conv2d_direct_channels_into(&x, &weights, &bias, &attrs, r.clone(), &mut chunk);
            for (px, lanes) in chunk.chunks_exact(r.len()).enumerate() {
                split[px * c + r.start..px * c + r.end].copy_from_slice(lanes);
            }
        }
        let split = Tensor::from_vec(direct.shape().clone(), split);
        assert_bits_eq(&split, &direct, &format!("depthwise k{k} s{s} p{p} c{c}"));
        assert_bits_eq(
            &conv2d(&x, &weights, &bias, &attrs).unwrap(),
            &direct,
            "full range",
        );
    }
}

/// Per-channel pooling oracle: one channel at a time, window taps in
/// ascending `(ky, kx)` order, average over the in-bounds taps only.
fn pool_oracle(x: &Tensor, attrs: &PoolAttrs) -> Tensor {
    let out_shape = pool(x, attrs).unwrap().shape().clone();
    let (ih, iw) = (x.shape().h(), x.shape().w());
    from_coords(out_shape, |idx| {
        let (b, oy, ox, ci) = (idx[0], idx[1], idx[2], idx[3]);
        let mut acc = match attrs.kind {
            PoolKind::Max => f32::NEG_INFINITY,
            PoolKind::Avg => 0.0,
        };
        let mut count = 0;
        for ky in 0..attrs.kernel.h {
            for kx in 0..attrs.kernel.w {
                let iy = (oy * attrs.stride.h + ky) as isize - attrs.padding.h as isize;
                let ix = (ox * attrs.stride.w + kx) as isize - attrs.padding.w as isize;
                if iy < 0 || ix < 0 || iy as usize >= ih || ix as usize >= iw {
                    continue;
                }
                let v = x.get(&[b, iy as usize, ix as usize, ci]);
                match attrs.kind {
                    PoolKind::Max => acc = acc.max(v),
                    PoolKind::Avg => acc += v,
                }
                count += 1;
            }
        }
        match attrs.kind {
            PoolKind::Max => acc,
            PoolKind::Avg if count > 0 => acc / count as f32,
            PoolKind::Avg => 0.0,
        }
    })
}

/// Channel-vectorized pooling equals the per-channel oracle, and pooling
/// any channel range on its own gives that range's channels of the full
/// result: max and average, kernels 3 and 5, strides 1 and 2, padding.
#[test]
fn pooling_is_bit_identical_over_any_channel_split() {
    let mut rng = Rng::seed_from_u64(0x6e57_0007);
    for case in 0..2 * CASES {
        let kind = [PoolKind::Max, PoolKind::Avg][case % 2];
        let k = [3, 5][(case / 2) % 2];
        let attrs = PoolAttrs {
            kind,
            kernel: Hw::square(k),
            stride: Hw::square(1 + (case / 4) % 2),
            padding: Hw::square((case / 8) % 3),
        };
        let c = rng.range_usize(1, 20);
        let (h, w) = (rng.range_usize(k, k + 6), rng.range_usize(k, k + 6));
        let shape = Shape::nhwc(rng.range_usize(1, 3), h, w, c);
        let x = random_tensor(&mut rng, shape);
        let full = pool(&x, &attrs).unwrap();
        assert_bits_eq(&full, &pool_oracle(&x, &attrs), &format!("{attrs:?} c{c}"));
        for r in channel_split(&mut rng, c) {
            let part = slice(
                &x,
                &SliceAttrs {
                    axis: 3,
                    begin: r.start,
                    end: r.end,
                },
            );
            let want = slice(
                &full,
                &SliceAttrs {
                    axis: 3,
                    begin: r.start,
                    end: r.end,
                },
            );
            assert_bits_eq(
                &pool(&part, &attrs).unwrap(),
                &want,
                &format!("{attrs:?} {r:?}"),
            );
        }
    }
}
