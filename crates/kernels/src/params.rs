//! Deterministic parameter generation.
//!
//! The model zoo carries no weight data; instead every node has a
//! `weight_key` and parameters are regenerated on demand from that key.
//! Transformation passes clone the key when they split a node, so the two
//! halves see identical filters — the property that makes "transformed graph
//! ≡ original graph" testable numerically.
//!
//! Every generator here draws from one stream per `(key, role)` over the
//! one range its role maps to, so the three forms — a flat vector
//! ([`param_vec`]), a column window of a row-major matrix ([`param_cols`])
//! and the same window packed for the GEMM micro-kernel
//! ([`param_cols_packed`]) — agree bit for bit. The first two draw with
//! the sequential [`Rng::fill_range_f32`], the reference.
//!
//! The packed form is the executor's fast path and generates every conv
//! and dense weight matrix, so it is built for speed without leaving the
//! stream:
//!
//! * **lanes** — above `LANE_MIN_STREAM` positions, on a host with AVX2,
//!   the rows split into eight contiguous groups, one per [`Lanes`] lane,
//!   each started by an exact jump to its first row; the up to seven rows
//!   left over continue sequentially from where the last lane stopped;
//! * **slabs** — rows are generated into a bounded slab buffer (about
//!   `SLAB_FLOATS` floats, and at least `MIN_SLAB_ROWS` rows per lane),
//!   and each slab is written into the panels as one contiguous
//!   `rows x NR` run per panel and lane, instead of scattering every row
//!   across all panels. No row-major copy of the whole matrix ever
//!   exists.

use crate::microkernel::PackedB;
use crate::probe::{self, ProbePoint};
use pimflow_rng::{Lanes, Rng, LANES};
use std::cell::RefCell;

/// Streams (rows × row length, skipped columns included) at least this
/// long go through the lanes. Starting eight lanes costs 3–5 µs of jumps;
/// a lane value costs about 0.8 ns against 2.4 ns sequentially, so the
/// lanes break even near 3000 values.
const LANE_MIN_STREAM: usize = 4096;

/// Target floats per slab of generated rows (256 KiB, so a slab stays in
/// L2 while it is packed).
const SLAB_FLOATS: usize = 64 * 1024;

/// Rows per lane in a slab, at least: each slab writes one `rows x NR`
/// run per panel and lane, and runs shorter than about 512 bytes leave
/// the stores waiting on scattered cache misses.
const MIN_SLAB_ROWS: usize = 16;

thread_local! {
    /// This thread's slab buffer, kept across calls: a fresh buffer of a
    /// few hundred KiB per matrix costs more in page faults than the
    /// packing it serves. It holds `SLAB_FLOATS` floats, or
    /// `LANES * MIN_SLAB_ROWS` rows of the widest matrix generated if that
    /// is more (2 MiB for vgg-16's classifier).
    static SLAB: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the first `len` floats of this thread's slab buffer.
fn with_slab<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    SLAB.with_borrow_mut(|buf| {
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Rows per slab for `width`-value rows, shared by `lanes` lanes (1 on the
/// sequential path), capped at `rows`.
fn slab_rows(width: usize, lanes: usize, rows: usize) -> usize {
    (SLAB_FLOATS / (lanes * width)).max(MIN_SLAB_ROWS).min(rows)
}

/// Distinguishes the different parameter tensors of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamRole {
    /// Convolution filters / dense weight matrix.
    Weight,
    /// Additive bias.
    Bias,
    /// Batch-norm scale (gamma / sqrt(var)).
    BnScale,
    /// Batch-norm shift (beta - mean * scale).
    BnShift,
}

impl ParamRole {
    fn salt(self) -> u64 {
        match self {
            ParamRole::Weight => 0x57,
            ParamRole::Bias => 0xB1A5,
            ParamRole::BnScale => 0x5CA1E,
            ParamRole::BnShift => 0x5817F7,
        }
    }
}

fn role_rng(key: u64, role: ParamRole) -> Rng {
    let seed = key
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(role.salt().wrapping_mul(0xD1B5_4A32_D192_ED03));
    Rng::seed_from_u64(seed)
}

/// The uniform range `[lo, hi)` a role's values are drawn from.
///
/// Batch-norm scale stays in `[0.5, 1.5]`, away from zero, so activations
/// never collapse. Everything else is drawn from `[-s, s]` with
/// `s = 1/sqrt(fan_in + 1)`, which keeps activations numerically tame
/// through deep stacks (a crude Xavier/Glorot initialization — the
/// executor only needs well-conditioned numbers, not trained accuracy).
fn role_range(role: ParamRole, fan_in: usize) -> (f32, f32) {
    match role {
        ParamRole::BnScale => (0.5, 1.5),
        _ => {
            let scale = 1.0 / ((fan_in as f32) + 1.0).sqrt();
            (-scale, scale)
        }
    }
}

/// Generates `len` deterministic parameter values for `(key, role)`, drawn
/// uniformly from the role's range (see the module docs).
pub fn param_vec(key: u64, role: ParamRole, len: usize, fan_in: usize) -> Vec<f32> {
    let _probe = probe::span(ProbePoint::ParamGen);
    let (lo, hi) = role_range(role, fan_in);
    let mut out = vec![0.0f32; len];
    role_rng(key, role).fill_range_f32(&mut out, lo, hi);
    out
}

/// Checks a column window `begin..end` of `row_len`-column rows.
///
/// # Panics
///
/// Panics unless `begin <= end <= row_len`.
fn check_window(row_len: usize, begin: usize, end: usize) {
    assert!(
        begin <= end && end <= row_len,
        "invalid column window {begin}..{end} of {row_len}"
    );
}

/// Draws whole `width`-value rows into `out` from `rng`, skipping `gap`
/// positions after each — the sequential walk of a column window.
fn fill_window_rows(rng: &mut Rng, out: &mut [f32], width: usize, gap: usize, lo: f32, hi: f32) {
    for row in out.chunks_exact_mut(width) {
        rng.fill_range_f32(row, lo, hi);
        rng.skip(gap);
    }
}

/// Generates columns `begin..end` of each of the `rows` rows of the
/// row-major `[rows, row_len]` parameter matrix for `(key, role)` — the
/// values are bit-identical to generating the full matrix with
/// [`param_vec`]`(key, role, rows * row_len, fan_in)` and slicing those
/// columns out, but only `rows * (end - begin)` values are ever
/// materialized: the generator *skips* over the unused stream positions.
///
/// This is how the executor realizes a [`ParamView`] for a node split
/// along its output axis without allocating the original node's whole
/// weight matrix.
///
/// [`ParamView`]: pimflow_ir::graph::ParamView
///
/// # Panics
///
/// Panics unless `begin <= end <= row_len`.
pub fn param_cols(
    key: u64,
    role: ParamRole,
    rows: usize,
    row_len: usize,
    begin: usize,
    end: usize,
    fan_in: usize,
) -> Vec<f32> {
    let _probe = probe::span(ProbePoint::ParamGen);
    check_window(row_len, begin, end);
    let width = end - begin;
    let mut out = vec![0.0f32; rows * width];
    if width > 0 {
        let (lo, hi) = role_range(role, fan_in);
        let mut rng = role_rng(key, role);
        rng.skip(begin);
        fill_window_rows(&mut rng, &mut out, width, row_len - width, lo, hi);
    }
    out
}

/// [`param_cols`] generated straight into the GEMM micro-kernel's packed
/// panels: equal to [`pack_b`]`(&param_cols(..), rows, end - begin)`
/// without the row-major matrix in between. The executor's fast path
/// stages every conv and dense weight matrix this way, through the lanes
/// and slabs of the module docs.
///
/// [`pack_b`]: crate::microkernel::pack_b
///
/// # Panics
///
/// Panics unless `begin <= end <= row_len`.
pub fn param_cols_packed(
    key: u64,
    role: ParamRole,
    rows: usize,
    row_len: usize,
    begin: usize,
    end: usize,
    fan_in: usize,
) -> PackedB {
    let _probe = probe::span(ProbePoint::ParamGen);
    check_window(row_len, begin, end);
    let width = end - begin;
    let mut packed = PackedB::zeroed(rows, width);
    if width == 0 || rows == 0 {
        return packed;
    }
    let (lo, hi) = role_range(role, fan_in);
    let gap = row_len - width;
    let mut rng = role_rng(key, role);
    rng.skip(begin);
    // Lane `i` owns rows `i * per..(i + 1) * per` and starts at its first
    // row's window.
    let per = rows / LANES;
    let lanes = if per > 0 && rows * row_len >= LANE_MIN_STREAM {
        rng.lanes(per * row_len)
    } else {
        None
    };
    let mut done = 0;
    if let Some(mut lanes) = lanes {
        let slab = slab_rows(width, LANES, per);
        with_slab(LANES * slab * width, |buf| {
            pack_lane_rows(&mut lanes, &mut packed, buf, per, width, gap, (lo, hi));
        });
        rng = lanes.lane(LANES - 1);
        done = LANES * per;
    }
    if done < rows {
        let slab = slab_rows(width, 1, rows - done);
        with_slab(slab * width, |buf| {
            while done < rows {
                let block = &mut buf[..slab.min(rows - done) * width];
                fill_window_rows(&mut rng, block, width, gap, lo, hi);
                packed.write_rows(done, block);
                done += block.len() / width;
            }
        });
    }
    packed
}

/// Fills rows `0..LANES * per` of `packed` from `lanes`, lane `i` owning
/// rows `i * per..(i + 1) * per`, through `buf`: one slab of
/// `buf.len() / (LANES * width)` rows per lane at a time.
fn pack_lane_rows(
    lanes: &mut Lanes,
    packed: &mut PackedB,
    buf: &mut [f32],
    per: usize,
    width: usize,
    gap: usize,
    (lo, hi): (f32, f32),
) {
    let slab = buf.len() / (LANES * width);
    let mut done = 0;
    while done < per {
        let rows = slab.min(per - done);
        let block = &mut buf[..LANES * rows * width];
        lanes.fill_rows_range_f32(block, width, gap, lo, hi);
        for (lane, part) in block.chunks_exact(rows * width).enumerate() {
            packed.write_rows(lane * per + done, part);
        }
        done += rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::pack_b;

    #[test]
    fn deterministic_for_same_key() {
        let a = param_vec(42, ParamRole::Weight, 16, 9);
        let b = param_vec(42, ParamRole::Weight, 16, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn different_keys_differ() {
        let a = param_vec(1, ParamRole::Weight, 16, 9);
        let b = param_vec(2, ParamRole::Weight, 16, 9);
        assert_ne!(a, b);
    }

    #[test]
    fn roles_decorrelate() {
        let a = param_vec(1, ParamRole::Weight, 16, 9);
        let b = param_vec(1, ParamRole::Bias, 16, 9);
        assert_ne!(a, b);
    }

    #[test]
    fn bn_scale_is_positive() {
        for v in param_vec(7, ParamRole::BnScale, 64, 1) {
            assert!((0.5..=1.5).contains(&v));
        }
    }

    #[test]
    fn param_cols_equals_materialize_and_slice() {
        // The equality contract with the old sliced-params path: for every
        // role, generating only a column window must reproduce exactly the
        // values of the full matrix at those positions.
        let (rows, row_len, fan_in) = (7, 12, 9);
        for role in [
            ParamRole::Weight,
            ParamRole::Bias,
            ParamRole::BnScale,
            ParamRole::BnShift,
        ] {
            let full = param_vec(42, role, rows * row_len, fan_in);
            for (begin, end) in [(0, row_len), (0, 5), (5, 12), (3, 9), (4, 4)] {
                let mut sliced = Vec::new();
                for r in 0..rows {
                    sliced.extend_from_slice(&full[r * row_len + begin..r * row_len + end]);
                }
                let cols = param_cols(42, role, rows, row_len, begin, end, fan_in);
                assert_eq!(cols, sliced, "role {role:?} window {begin}..{end}");
            }
        }
    }

    #[test]
    fn packed_generation_equals_packing_the_generated_matrix() {
        // Windows: empty, full, at either edge, interior; the widths cover
        // n % NR != 0, a half panel and shorter, one short panel, exactly
        // one panel, and one panel plus a column.
        let (rows, row_len, fan_in) = (11, 21, 9);
        for role in [
            ParamRole::Weight,
            ParamRole::Bias,
            ParamRole::BnScale,
            ParamRole::BnShift,
        ] {
            for (begin, end) in [
                (0, 0),
                (7, 7),
                (0, 21),
                (0, 8),
                (13, 21),
                (20, 21),
                (3, 16),
                (5, 21),
                (0, 17),
            ] {
                let cols = param_cols(42, role, rows, row_len, begin, end, fan_in);
                let want = pack_b(&cols, rows, end - begin);
                let got = param_cols_packed(42, role, rows, row_len, begin, end, fan_in);
                assert_eq!(got, want, "role {role:?} window {begin}..{end}");
            }
        }
        // Zero rows pack to an empty matrix.
        let got = param_cols_packed(5, ParamRole::Weight, 0, 8, 0, 8, 1);
        assert_eq!(got, pack_b(&[], 0, 8));

        // Long streams, (rows, row_len, begin, end): LANE_MIN_STREAM - 1,
        // exactly and + 1 positions; row counts one off a multiple of the
        // lane count; lane shares one off a multiple of the 8-value tile;
        // windows of one, two and many 16-lane panels plus a column; and
        // windows with n % NR != 0 that span several slabs, through the
        // lanes and through the sequential tail.
        if Rng::seed_from_u64(0).lanes(1).is_none() {
            eprintln!("AVX2 not detected: only the portable (sequential) path ran");
        }
        let edge = LANE_MIN_STREAM;
        let slab_rows = SLAB_FLOATS / (LANES * 21);
        for (rows, row_len, begin, end) in [
            (edge / 16, 16, 0, 16),
            (edge / 16, 16, 3, 14),
            ((edge - 1) / 5, 5, 1, 4),
            ((edge + 1) / 17, 17, 0, 17),
            (LANES * 40 - 1, 13, 0, 13),
            (LANES * 40 + 1, 13, 2, 11),
            (LANES * 40 + 7, 9, 0, 9),
            (LANES * 3, 24, 0, 17),
            (edge / 40 + 1, 40, 3, 36),
            (LANES * 3 * slab_rows + 5, 30, 4, 25),
            (3 * SLAB_FLOATS / 21 + 2, 21, 0, 21),
            (LANES * 40 + 3, 4200, 100, 4197),
        ] {
            assert!(rows * row_len > 0);
            let want = pack_b(
                &param_cols(9, ParamRole::Weight, rows, row_len, begin, end, 64),
                rows,
                end - begin,
            );
            let got = param_cols_packed(9, ParamRole::Weight, rows, row_len, begin, end, 64);
            assert!(
                got == want,
                "rows {rows} row_len {row_len} window {begin}..{end}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid column window")]
    fn param_cols_packed_rejects_an_out_of_range_window() {
        param_cols_packed(1, ParamRole::Weight, 2, 8, 3, 9, 8);
    }

    #[test]
    #[should_panic(expected = "invalid column window")]
    fn param_cols_rejects_inverted_window() {
        param_cols(1, ParamRole::Weight, 2, 8, 6, 3, 8);
    }

    #[test]
    fn magnitude_shrinks_with_fan_in() {
        let wide = param_vec(3, ParamRole::Weight, 1000, 10_000);
        let max = wide.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(max < 0.011);
    }
}
