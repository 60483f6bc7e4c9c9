//! Deterministic parameter generation.
//!
//! The model zoo carries no weight data; instead every node has a
//! `weight_key` and parameters are regenerated on demand from that key.
//! Transformation passes clone the key when they split a node, so the two
//! halves see identical filters — the property that makes "transformed graph
//! ≡ original graph" testable numerically.
//!
//! Every generator here draws from one stream per `(key, role)` through
//! [`Rng::fill_range_f32`] over the one range its role maps to, so the
//! three forms — a flat vector ([`param_vec`]), a column window of a
//! row-major matrix ([`param_cols`]) and the same window packed for the
//! GEMM micro-kernel ([`param_cols_packed`]) — agree bit for bit. The
//! packed form writes each generated row straight into the panels: the
//! executor's fast path never materializes a row-major weight matrix.

use crate::microkernel::PackedB;
use crate::probe::{self, ProbePoint};
use pimflow_rng::Rng;

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

/// The row generator behind [`param_cols`] and [`param_cols_packed`]: each
/// call fills the next row's columns `begin..end` of the row-major
/// `[rows, row_len]` matrix for `(key, role)` and skips the stream past the
/// columns outside the window.
///
/// # Panics
///
/// Panics unless `begin <= end <= row_len`.
fn window_rows(
    key: u64,
    role: ParamRole,
    row_len: usize,
    begin: usize,
    end: usize,
    fan_in: usize,
) -> impl FnMut(&mut [f32]) {
    assert!(
        begin <= end && end <= row_len,
        "invalid column window {begin}..{end} of {row_len}"
    );
    let mut rng = role_rng(key, role);
    let (lo, hi) = role_range(role, fan_in);
    move |row| {
        rng.skip(begin);
        rng.fill_range_f32(row, lo, hi);
        rng.skip(row_len - end);
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
    let mut fill = window_rows(key, role, row_len, begin, end, fan_in);
    let mut out = vec![0.0f32; rows * (end - begin)];
    if begin < end {
        out.chunks_exact_mut(end - begin).for_each(&mut fill);
    }
    out
}

/// [`param_cols`] generated straight into the GEMM micro-kernel's packed
/// panels: equal to [`pack_b`]`(&param_cols(..), rows, end - begin)`
/// without the row-major matrix in between. The executor's fast path
/// stages every conv and dense weight matrix this way.
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
    let mut fill = window_rows(key, role, row_len, begin, end, fan_in);
    PackedB::from_rows(rows, end - begin, |_, row| fill(row))
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
        // n % NR != 0, one short panel, and exactly one panel.
        let (rows, row_len, fan_in) = (11, 21, 9);
        for role in [
            ParamRole::Weight,
            ParamRole::Bias,
            ParamRole::BnScale,
            ParamRole::BnShift,
        ] {
            for (begin, end) in [(0, 0), (7, 7), (0, 21), (0, 8), (13, 21), (20, 21), (3, 16)] {
                let cols = param_cols(42, role, rows, row_len, begin, end, fan_in);
                let want = pack_b(&cols, rows, end - begin);
                let got = param_cols_packed(42, role, rows, row_len, begin, end, fan_in);
                assert_eq!(got, want, "role {role:?} window {begin}..{end}");
            }
        }
        // Zero rows pack to an empty matrix.
        let got = param_cols_packed(5, ParamRole::Weight, 0, 8, 0, 8, 1);
        assert_eq!(got, pack_b(&[], 0, 8));
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
