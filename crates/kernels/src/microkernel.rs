//! Register-blocked, cache-tiled GEMM micro-kernels.
//!
//! The scalar k-blocked loop in [`mod@crate::im2col`] walks the output row
//! through memory once per `k` step — a load and a store per FLOP pair. The
//! micro-kernel here instead holds an `MR x NR` accumulator tile in
//! registers for the whole k extent, streams a packed copy of `B` whose
//! panels are laid out in exactly the order the inner loop consumes them,
//! and only touches the output when a tile is complete (BLIS-style
//! `jc -> pc -> ic -> jr -> ir` blocking, scaled down to the shapes a CNN
//! reference executor sees).
//!
//! A packed `B` comes from [`pack_b`] (an existing row-major matrix) or
//! from the parameter generator, which writes bounded slabs of weight rows
//! into the panels as it draws them
//! ([`crate::params::param_cols_packed`]), so the fast path never builds
//! the row-major matrix at all.
//!
//! # Numerical contract
//!
//! Per output element the products are accumulated in ascending `k` order,
//! spilled exactly (an f32 round-trips through memory unchanged) at [`KC`]
//! panel boundaries. Consequences, both tested:
//!
//! * with [`Epilogue::None`] the result is **bit-identical** to the naive
//!   `i, k, j` triple loop — the blocking reorders memory traffic, not the
//!   per-element float additions;
//! * with a bias epilogue ([`Epilogue::Bias`] / [`Epilogue::BiasRelu`]) the
//!   bias joins *after* the products instead of seeding the accumulator, so
//!   results differ from the bias-seeded oracle by one reassociated
//!   addition — within [`crate::tolerance::Tolerance::kernel_default`], the
//!   documented fast-path tolerance.
//!
//! Either way the accumulation order of an output element depends only on
//! its row contents and column, never on which row range a caller asked
//! for, so intra-op row sharding stays **byte-identical at any
//! `PIMFLOW_JOBS` width** (the same contract the scalar path had).
//!
//! # Instruction sets
//!
//! Each tile body is compiled twice: for the baseline target (SSE2 on
//! x86-64) and, on x86-64, for AVX2, where one `NR`-lane accumulator row
//! is one ymm register. [`gemm_packed`] picks the AVX2 instance when the
//! host has it ([`Simd::detect`]); both are bit-identical, because AVX2
//! is enabled without FMA: every product still joins its sum as one
//! rounded multiply and one rounded add, in ascending `k`. A fused
//! multiply-add rounds once and would break that. The dispatch call is
//! the only `unsafe` here.

use crate::probe::{self, ProbePoint};

/// Rows per register tile. Four accumulator rows of [`NR`] f32 lanes fit in
/// registers alongside a packed-B vector: eight xmm registers on baseline
/// x86-64, four ymm registers on the AVX2 instance, NEON on aarch64.
pub const MR: usize = 4;

/// Columns per register tile — the unrolled f32 lanes of the accumulator.
/// Packed-B panels are padded to this width so the inner loop is always a
/// fixed-trip-count, auto-vectorizable lane loop.
pub const NR: usize = 8;

/// k extent per cache panel: a `KC x NR` packed-B panel (8 KiB) stays in L1
/// while an `MR x KC` slab of `A` streams against it.
pub const KC: usize = 256;

/// Rows per L2 block: bounds the working set of `A` rows revisited per
/// packed-B panel to `MC x KC` floats.
pub const MC: usize = 64;

/// Which path a GEMM-backed kernel takes.
///
/// `Fast` is the register-blocked micro-kernel (default); `Exact` demotes
/// to the scalar k-blocked loop, which is bit-identical to the naive triple
/// loop and to the bias-seeded direct-convolution oracle. Selected per call
/// site, or process-wide via the `PIMFLOW_EXACT_KERNELS` environment
/// variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GemmPath {
    /// Register-blocked micro-kernel; outputs within the documented
    /// tolerance of the oracle (bit-identical for epilogue-free GEMM).
    #[default]
    Fast,
    /// Scalar oracle loop: byte-identical to the pre-micro-kernel executor
    /// at every worker width.
    Exact,
}

/// Environment variable forcing the exact scalar path process-wide.
pub const EXACT_ENV_VAR: &str = "PIMFLOW_EXACT_KERNELS";

impl GemmPath {
    /// Reads the path from `PIMFLOW_EXACT_KERNELS` (`1`/`true` selects
    /// [`GemmPath::Exact`]); anything else — including unset — selects
    /// [`GemmPath::Fast`].
    pub fn from_env() -> Self {
        Self::parse(std::env::var(EXACT_ENV_VAR).ok().as_deref())
    }

    /// The parse behind [`GemmPath::from_env`], separated so tests cover it
    /// without racing on the process environment.
    fn parse(value: Option<&str>) -> Self {
        match value {
            Some(v) if v == "1" || v.eq_ignore_ascii_case("true") => GemmPath::Exact,
            _ => GemmPath::Fast,
        }
    }
}

/// The instruction set a [`gemm_packed_on`] call compiles its tiles for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Simd {
    /// The baseline target's instructions (SSE2 on x86-64); runs anywhere.
    Portable,
    /// AVX2 without FMA, on x86-64 hosts that have it.
    Avx2,
}

impl Simd {
    /// The best instruction set this host runs.
    pub fn detect() -> Simd {
        if Simd::Avx2.supported() {
            Simd::Avx2
        } else {
            Simd::Portable
        }
    }

    /// Whether this host runs `self`.
    pub fn supported(self) -> bool {
        match self {
            Simd::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Simd::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Simd::Avx2 => false,
        }
    }

    /// Stable name for artifacts: `"portable"` or `"avx2"`.
    pub fn name(self) -> &'static str {
        match self {
            Simd::Portable => "portable",
            Simd::Avx2 => "avx2",
        }
    }
}

/// What the micro-kernel does to a finished accumulator tile before the
/// store. Fused into the tile loop so conv/dense epilogues cost no extra
/// pass over the output.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Store the raw products sum (plain GEMM).
    None,
    /// Add `bias[column]` to every element (conv / dense).
    Bias(&'a [f32]),
    /// Add `bias[column]`, then clamp at zero (conv + ReLU fused).
    BiasRelu(&'a [f32]),
}

/// `B` repacked into [`NR`]-wide column panels, padded with zeros to a
/// whole panel: panel `j` holds columns `j*NR ..` as `k` rows of `NR`
/// contiguous lanes — the exact order the micro-kernel's inner loop reads.
///
/// A pack is built once and reused across every row block of a call. The
/// executor never packs a finished matrix: its parameter generator writes
/// slabs of weight rows straight into the panels (see
/// [`crate::params::param_cols_packed`]), and the one pack is shared by
/// all im2col panels *and* all workers of a sharded convolution.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedB {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// A `[k, n]` pack of zeros, to be filled by [`PackedB::write_rows`].
    pub(crate) fn zeroed(k: usize, n: usize) -> PackedB {
        let panels_n = n.div_ceil(NR).max(1);
        PackedB {
            k,
            n,
            panels: vec![0.0f32; panels_n * k * NR],
        }
    }

    /// Writes the row-major rows `block` (a whole number of `n`-column
    /// rows) as rows `first..` of the matrix. Each panel receives the
    /// block's rows as one contiguous `rows x NR` run.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a whole number of rows or runs past row
    /// `k`.
    pub(crate) fn write_rows(&mut self, first: usize, block: &[f32]) {
        let (k, n) = (self.k, self.n);
        if n == 0 {
            return;
        }
        assert_eq!(block.len() % n, 0, "row block of {} values", block.len());
        let rows = block.len() / n;
        assert!(first + rows <= k, "rows {first}..{} of {k}", first + rows);
        if rows == 0 {
            return;
        }
        for (j, panel) in self.panels.chunks_exact_mut(k * NR).enumerate() {
            let col0 = j * NR;
            let nw = NR.min(n - col0);
            let dst = &mut panel[first * NR..(first + rows) * NR];
            let pairs = dst.chunks_exact_mut(NR).zip(block.chunks_exact(n));
            if nw == NR {
                // A constant-length copy: two vector moves, not a memcpy call.
                for (lanes, row) in pairs {
                    lanes.copy_from_slice(&row[col0..col0 + NR]);
                }
            } else {
                for (lanes, row) in pairs {
                    lanes[..nw].copy_from_slice(&row[col0..col0 + nw]);
                }
            }
        }
    }

    /// Inner (reduction) dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column count of the packed matrix (unpadded).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes of the panels, padding included.
    pub(crate) fn size_bytes(&self) -> usize {
        self.panels.len() * std::mem::size_of::<f32>()
    }

    /// One `k x NR` panel of packed columns.
    fn panel(&self, j: usize) -> &[f32] {
        &self.panels[j * self.k * NR..(j + 1) * self.k * NR]
    }
}

/// Packs a row-major `[k, n]` matrix into [`NR`]-wide panels.
///
/// # Panics
///
/// Panics if `b.len() != k * n`.
pub fn pack_b(b: &[f32], k: usize, n: usize) -> PackedB {
    let _probe = probe::span(ProbePoint::PackB);
    assert_eq!(b.len(), k * n, "pack_b operand length");
    let mut packed = PackedB::zeroed(k, n);
    packed.write_rows(0, b);
    packed
}

/// Register-blocked GEMM over a packed `B`:
/// `out[m, n] = epilogue(a[m, k] x b[k, n])` with `m = out.len() / b.n()`.
///
/// `a` is the row-major left operand (`m * k` floats, read in place — the
/// im2col scratch or a dense input). `out` is overwritten, not accumulated
/// into; the epilogue is fused into the final store.
///
/// The tiles run on the best instruction set the host has
/// ([`Simd::detect`]); every choice gives the same bits.
///
/// # Panics
///
/// Panics if operand lengths are inconsistent, `b.n() == 0`, or an epilogue
/// bias length differs from `b.n()`.
pub fn gemm_packed(a: &[f32], b: &PackedB, out: &mut [f32], epilogue: Epilogue<'_>) {
    gemm_packed_on(Simd::detect(), a, b, out, epilogue);
}

/// [`gemm_packed`] on a chosen instruction set — the hook the bit-identity
/// checks use to run both instances on one host.
///
/// # Panics
///
/// As [`gemm_packed`], and if the host does not run `simd`.
pub fn gemm_packed_on(simd: Simd, a: &[f32], b: &PackedB, out: &mut [f32], epilogue: Epilogue<'_>) {
    let _probe = probe::span(ProbePoint::GemmMicrokernel);
    assert!(simd.supported(), "this host does not run {}", simd.name());
    let (k, n) = (b.k, b.n);
    assert!(n > 0, "gemm_packed needs at least one output column");
    let m = out.len() / n;
    assert_eq!(out.len(), m * n, "gemm_packed output length");
    assert_eq!(a.len(), m * k, "gemm_packed left operand length");
    if let Epilogue::Bias(bias) | Epilogue::BiasRelu(bias) = epilogue {
        assert_eq!(bias.len(), n, "gemm_packed bias length");
    }
    let kc_blocks = k.div_ceil(KC).max(1);
    for pc in 0..kc_blocks {
        let kb = pc * KC;
        let kw = KC.min(k - kb);
        let first = pc == 0;
        // Only the final k panel applies the epilogue.
        let ep = if pc + 1 == kc_blocks {
            epilogue
        } else {
            Epilogue::None
        };
        for ic in (0..m).step_by(MC) {
            let mw = MC.min(m - ic);
            for jr in 0..n.div_ceil(NR) {
                let col0 = jr * NR;
                let nw = NR.min(n - col0);
                let panel = &b.panel(jr)[kb * NR..(kb + kw) * NR];
                for ir in (0..mw).step_by(MR) {
                    let row0 = ic + ir;
                    let rw = MR.min(mw - ir);
                    if rw == MR && nw == NR {
                        match simd {
                            Simd::Portable => {
                                tile_full(a, k, kb, kw, row0, panel, out, n, col0, first, ep)
                            }
                            #[cfg(target_arch = "x86_64")]
                            // SAFETY: `simd.supported()` was asserted above,
                            // so this host runs AVX2.
                            Simd::Avx2 => unsafe {
                                tile_full_avx2(a, k, kb, kw, row0, panel, out, n, col0, first, ep)
                            },
                            #[cfg(not(target_arch = "x86_64"))]
                            Simd::Avx2 => unreachable!("AVX2 is never supported off x86-64"),
                        }
                        continue;
                    }
                    match simd {
                        Simd::Portable => {
                            tile(a, k, kb, kw, row0, rw, panel, out, n, col0, nw, first, ep)
                        }
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: as for the full tile.
                        Simd::Avx2 => unsafe {
                            tile_avx2(a, k, kb, kw, row0, rw, panel, out, n, col0, nw, first, ep)
                        },
                        #[cfg(not(target_arch = "x86_64"))]
                        Simd::Avx2 => unreachable!("AVX2 is never supported off x86-64"),
                    }
                }
            }
        }
    }
}

/// The full `MR x NR` register tile — the hot kernel, on the baseline
/// target.
///
/// `inline(never)` is load-bearing: inlined into `gemm_packed` next to the
/// generic [`tile`], the merged body overwhelms the register allocator and
/// the accumulator spills to the stack every k step (~6x slower). As an
/// outlined function the accumulator stays in vector registers.
///
/// Its operands, like [`tile`]'s, are separate arguments, not a struct:
/// a `&mut` inside a struct loses its no-alias guarantee, and without it
/// the portable instance ran about 6x slower.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn tile_full(
    a: &[f32],
    k: usize,
    kb: usize,
    kw: usize,
    row0: usize,
    panel: &[f32],
    out: &mut [f32],
    n: usize,
    col0: usize,
    first: bool,
    epilogue: Epilogue<'_>,
) {
    tile_full_body(a, k, kb, kw, row0, panel, out, n, col0, first, epilogue)
}

/// [`tile_full`] compiled for AVX2 (and not FMA; see the module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn tile_full_avx2(
    a: &[f32],
    k: usize,
    kb: usize,
    kw: usize,
    row0: usize,
    panel: &[f32],
    out: &mut [f32],
    n: usize,
    col0: usize,
    first: bool,
    epilogue: Epilogue<'_>,
) {
    tile_full_body(a, k, kb, kw, row0, panel, out, n, col0, first, epilogue)
}

/// The body of [`tile_full`] and [`tile_full_avx2`]. Every loop has a
/// constant trip count and every operand is a pre-sliced zip (no index
/// arithmetic or bounds checks inside the k loop), so the accumulator
/// stays in vector registers for the whole panel. Same accumulation order
/// as [`tile`]; only the remainder handling is gone.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_full_body(
    a: &[f32],
    k: usize,
    kb: usize,
    kw: usize,
    row0: usize,
    panel: &[f32],
    out: &mut [f32],
    n: usize,
    col0: usize,
    first: bool,
    epilogue: Epilogue<'_>,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (i, row) in acc.iter_mut().enumerate() {
            let base = (row0 + i) * n + col0;
            row.copy_from_slice(&out[base..base + NR]);
        }
    }
    let arow = |i: usize| &a[(row0 + i) * k + kb..][..kw];
    let (r0, r1, r2, r3) = (arow(0), arow(1), arow(2), arow(3));
    // Pure slice-iterator zips (no `take`, no indexing): std specializes
    // these to one counted loop with no bounds checks, which is what lets
    // the accumulator live in registers instead of spilling every k step.
    let rows = r0.iter().zip(r1).zip(r2.iter().zip(r3));
    for (lanes, ((a0, a1), (a2, a3))) in panel.chunks_exact(NR).zip(rows) {
        let (a0, a1, a2, a3) = (*a0, *a1, *a2, *a3);
        // Ascending k order per element, identical to the naive loop.
        for j in 0..NR {
            acc[0][j] += a0 * lanes[j];
        }
        for j in 0..NR {
            acc[1][j] += a1 * lanes[j];
        }
        for j in 0..NR {
            acc[2][j] += a2 * lanes[j];
        }
        for j in 0..NR {
            acc[3][j] += a3 * lanes[j];
        }
    }
    match epilogue {
        Epilogue::None => {}
        Epilogue::Bias(bias) => {
            let b: &[f32; NR] = bias[col0..col0 + NR].try_into().expect("NR bias lanes");
            for row in &mut acc {
                for j in 0..NR {
                    row[j] += b[j];
                }
            }
        }
        Epilogue::BiasRelu(bias) => {
            let b: &[f32; NR] = bias[col0..col0 + NR].try_into().expect("NR bias lanes");
            for row in &mut acc {
                for j in 0..NR {
                    row[j] = (row[j] + b[j]).max(0.0);
                }
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        let base = (row0 + i) * n + col0;
        out[base..base + NR].copy_from_slice(row);
    }
}

/// One `rw x nw` accumulator tile (`rw <= MR`, `nw <= NR`) on the
/// baseline target. Remainder tiles only — full tiles take
/// [`tile_full`]. Outlined for the same register-pressure reason, and
/// with separate arguments for the same no-alias reason.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn tile(
    a: &[f32],
    k: usize,
    kb: usize,
    kw: usize,
    row0: usize,
    rw: usize,
    panel: &[f32],
    out: &mut [f32],
    n: usize,
    col0: usize,
    nw: usize,
    first: bool,
    epilogue: Epilogue<'_>,
) {
    tile_body(
        a, k, kb, kw, row0, rw, panel, out, n, col0, nw, first, epilogue,
    )
}

/// [`tile`] compiled for AVX2 (and not FMA; see the module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn tile_avx2(
    a: &[f32],
    k: usize,
    kb: usize,
    kw: usize,
    row0: usize,
    rw: usize,
    panel: &[f32],
    out: &mut [f32],
    n: usize,
    col0: usize,
    nw: usize,
    first: bool,
    epilogue: Epilogue<'_>,
) {
    tile_body(
        a, k, kb, kw, row0, rw, panel, out, n, col0, nw, first, epilogue,
    )
}

/// The body of [`tile`] and [`tile_avx2`]: load the partial sums unless
/// this is the first k panel, accumulate `kw` steps in ascending k order
/// across all [`NR`] lanes (padding lanes compute zeros and are never
/// stored), apply the epilogue, store `nw` columns.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_body(
    a: &[f32],
    k: usize,
    kb: usize,
    kw: usize,
    row0: usize,
    rw: usize,
    panel: &[f32],
    out: &mut [f32],
    n: usize,
    col0: usize,
    nw: usize,
    first: bool,
    epilogue: Epilogue<'_>,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (i, row) in acc.iter_mut().enumerate().take(rw) {
            let base = (row0 + i) * n + col0;
            row[..nw].copy_from_slice(&out[base..base + nw]);
        }
    }
    for kk in 0..kw {
        let lanes: &[f32; NR] = panel[kk * NR..(kk + 1) * NR].try_into().expect("NR lanes");
        for (i, row) in acc.iter_mut().enumerate().take(rw) {
            // Per element the products join in ascending k order — the same
            // reduction order as the naive triple loop; the tile only
            // reorders memory traffic.
            let av = a[(row0 + i) * k + kb + kk];
            for (o, &bv) in row.iter_mut().zip(lanes) {
                *o += av * bv;
            }
        }
    }
    match epilogue {
        Epilogue::None => {}
        Epilogue::Bias(bias) => {
            for row in acc.iter_mut().take(rw) {
                for (o, &bv) in row.iter_mut().zip(&bias[col0..col0 + nw]) {
                    *o += bv;
                }
            }
        }
        Epilogue::BiasRelu(bias) => {
            for row in acc.iter_mut().take(rw) {
                for (o, &bv) in row.iter_mut().zip(&bias[col0..col0 + nw]) {
                    *o = (*o + bv).max(0.0);
                }
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(rw) {
        let base = (row0 + i) * n + col0;
        out[base..base + nw].copy_from_slice(&row[..nw]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        out
    }

    fn operands(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 29 + 3) % 23) as f32 * 0.07 - 0.7)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 17 + 11) % 19) as f32 * 0.09 - 0.8)
            .collect();
        (a, b)
    }

    /// The instruction sets this host runs, saying when only the portable
    /// one did.
    fn simds(test: &str) -> Vec<Simd> {
        if !Simd::Avx2.supported() {
            eprintln!("{test}: AVX2 not detected, only the portable path ran");
        }
        [Simd::Portable, Simd::Avx2]
            .into_iter()
            .filter(|s| s.supported())
            .collect()
    }

    /// Shapes hitting every remainder: M % MR, N % NR, K < KC, K > KC,
    /// and degenerate single-row/single-column cases.
    const REMAINDER_SHAPES: [(usize, usize, usize); 6] = [
        (1, 1, 1),
        (MR, 3, NR),
        (MR + 1, 7, NR + 3),
        (MC + 5, KC + 13, 2 * NR + 1),
        (3, KC, 5),
        (17, 2 * KC + 9, 19),
    ];

    #[test]
    fn packed_gemm_without_epilogue_is_bit_identical_to_naive() {
        for simd in simds("packed_gemm_without_epilogue_is_bit_identical_to_naive") {
            for (m, k, n) in REMAINDER_SHAPES {
                let (a, b) = operands(m, k, n);
                let packed = pack_b(&b, k, n);
                let mut out = vec![0.0f32; m * n];
                gemm_packed_on(simd, &a, &packed, &mut out, Epilogue::None);
                let want = naive(&a, &b, m, k, n);
                assert_eq!(out, want, "{} m={m} k={k} n={n}", simd.name());
            }
        }
    }

    #[test]
    fn every_instruction_set_gives_the_same_bits() {
        // The remainder shapes plus seeded random shapes spanning several
        // KC panels, under all three epilogues, on every instruction set
        // the host runs, against the portable tiles.
        let simds = simds("every_instruction_set_gives_the_same_bits");
        let mut rng = pimflow_rng::Rng::seed_from_u64(0x51AD);
        let mut shapes = REMAINDER_SHAPES.to_vec();
        for _ in 0..12 {
            shapes.push((
                rng.range_usize(1, 2 * MC + 3),
                rng.range_usize(1, 4 * KC),
                rng.range_usize(1, 5 * NR),
            ));
        }
        for (m, k, n) in shapes {
            let a: Vec<f32> = (0..m * k).map(|_| rng.range_f32(-1.0, 1.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.range_f32(-1.0, 1.0)).collect();
            let bias: Vec<f32> = (0..n).map(|_| rng.range_f32(-0.5, 0.5)).collect();
            let packed = pack_b(&b, k, n);
            for epilogue in [
                Epilogue::None,
                Epilogue::Bias(&bias),
                Epilogue::BiasRelu(&bias),
            ] {
                let run = |simd| {
                    let mut out = vec![0.0f32; m * n];
                    gemm_packed_on(simd, &a, &packed, &mut out, epilogue);
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                let want = run(Simd::Portable);
                for &simd in &simds {
                    assert!(
                        run(simd) == want,
                        "{} m={m} k={k} n={n} {epilogue:?}",
                        simd.name()
                    );
                }
            }
        }
    }

    #[test]
    fn bias_relu_epilogue_matches_bias_then_relu() {
        let (m, k, n) = (9, 33, 11);
        let (a, b) = operands(m, k, n);
        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.3 - 1.5).collect();
        let packed = pack_b(&b, k, n);
        let mut biased = vec![0.0f32; m * n];
        gemm_packed(&a, &packed, &mut biased, Epilogue::Bias(&bias));
        let mut fused = vec![0.0f32; m * n];
        gemm_packed(&a, &packed, &mut fused, Epilogue::BiasRelu(&bias));
        for (f, b) in fused.iter().zip(&biased) {
            assert_eq!(*f, b.max(0.0), "relu must clamp the biased value");
        }
    }

    #[test]
    fn packing_is_reused_across_row_blocks() {
        // Calling gemm_packed over disjoint row blocks of A with one packed
        // B reproduces the single whole-matrix call byte for byte — the
        // property the conv fast path's im2col streaming relies on.
        let (m, k, n) = (37, 50, 13);
        let (a, b) = operands(m, k, n);
        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.11 - 0.4).collect();
        let packed = pack_b(&b, k, n);
        let mut whole = vec![0.0f32; m * n];
        gemm_packed(&a, &packed, &mut whole, Epilogue::Bias(&bias));
        let mut blocked = vec![0.0f32; m * n];
        for (begin, end) in [(0usize, 5usize), (5, 6), (6, 30), (30, 37)] {
            gemm_packed(
                &a[begin * k..end * k],
                &packed,
                &mut blocked[begin * n..end * n],
                Epilogue::Bias(&bias),
            );
        }
        assert_eq!(whole, blocked);
    }

    #[test]
    fn exact_env_var_selects_the_scalar_path() {
        // The parse is tested directly — mutating the process environment
        // would race other tests in this binary.
        assert_eq!(GemmPath::parse(None), GemmPath::Fast);
        assert_eq!(GemmPath::parse(Some("0")), GemmPath::Fast);
        assert_eq!(GemmPath::parse(Some("")), GemmPath::Fast);
        assert_eq!(GemmPath::parse(Some("1")), GemmPath::Exact);
        assert_eq!(GemmPath::parse(Some("true")), GemmPath::Exact);
        assert_eq!(GemmPath::parse(Some("TRUE")), GemmPath::Exact);
        assert_eq!(GemmPath::default(), GemmPath::Fast);
    }

    #[test]
    #[should_panic(expected = "at least one output column")]
    fn zero_column_packed_gemm_panics() {
        let packed = pack_b(&[], 3, 0);
        let mut out = [0.0f32; 0];
        gemm_packed(&[0.0; 9], &packed, &mut out, Epilogue::None);
    }
}
