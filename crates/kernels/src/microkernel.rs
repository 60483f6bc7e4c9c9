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
//! The tiles are compiled once per instruction set, each instance a module
//! stamped out by one macro: the baseline target (SSE2 on x86-64) and, on
//! x86-64, AVX2 and AVX-512F. [`gemm_packed`] picks the best one the host
//! has ([`Simd::detect`]). Per instance:
//!
//! | instance | rows per full tile | accumulators |
//! |---|---|---|
//! | portable | [`MR`] = 4 | 16 xmm (4 rows x 4 xmm) |
//! | AVX2 | [`MR`] = 4 | 8 ymm |
//! | AVX-512 | [`MR_WIDE`] = 8, then 4 | 8 zmm |
//!
//! [`gemm_packed_on`] steps each instance by its own row count: AVX-512
//! fills 8-row tiles while eight rows remain and then falls back to the
//! 4-row full and remainder tiles. A panel of at most eight columns (the
//! last one when `n % NR` is 1–8) runs tiles that compute only the first
//! eight lanes of each packed row.
//!
//! Every instance gives the same bits, because none enables FMA: every
//! product joins its sum as one rounded multiply and one rounded add, in
//! ascending `k`. A fused multiply-add rounds once and would break that.
//! LLVM's `avx512f` feature implies `fma`, so the AVX-512 instance *could*
//! fuse — but Rust never contracts a separate `*` and `+` into one FMA
//! (there are no fast-math flags on plain float ops), so enabling the
//! feature only widens the registers. `objdump -d` of the release binary
//! shows no `vfmadd` in any tile.
//!
//! # Prefetch
//!
//! A GEMM with few rows uses each weight panel for only one or two row
//! tiles, and in the executor the weights come cold from DRAM: the resident
//! weights outgrow the caches. The full tiles (8-row and 4-row) therefore
//! prefetch one packed row per k step, `PREFETCH_ROWS` = 64 rows (4 KiB)
//! ahead, so the panel streams in while the tile computes. The hints walk
//! on through the rest of the pack (the panel's later rows, then the next
//! panel's) and stop at its end, so every address hinted is inside the
//! pack. Prefetching changes no value: every instance keeps its bits. The
//! dispatch calls and the prefetch are the only `unsafe` here.

use crate::probe::{self, ProbePoint};

/// Rows per register tile on the portable and AVX2 instances, and of the
/// AVX-512 instance's fallback tiles. Four accumulator rows of [`NR`] f32
/// lanes: sixteen xmm registers on baseline x86-64, eight ymm registers on
/// AVX2.
pub const MR: usize = 4;

/// Rows of the AVX-512 instance's full tile: eight accumulator rows of
/// [`NR`] lanes, one zmm register each.
pub const MR_WIDE: usize = 8;

/// Columns per register tile — the unrolled f32 lanes of the accumulator,
/// one zmm register. Packed-B panels are padded to this width so the inner
/// loop is always a fixed-trip-count, auto-vectorizable lane loop.
pub const NR: usize = 16;

/// Lanes of a half panel: remainder panels of at most this many columns
/// compute only these lanes, not all [`NR`].
const HALF_NR: usize = NR / 2;

/// k extent per cache panel: a `KC x NR` packed-B panel (16 KiB) stays in
/// L1 while an `MR x KC` slab of `A` streams against it.
pub const KC: usize = 256;

/// Rows per L2 block: bounds the working set of `A` rows revisited per
/// packed-B panel to `MC x KC` floats.
pub const MC: usize = 64;

/// How far ahead of the k step the full tiles prefetch the pack, in packed
/// rows (see the module docs): 64 rows of [`NR`] lanes are 4 KiB, one cache
/// line per row.
const PREFETCH_ROWS: usize = 64;

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
    /// AVX-512F without FMA, on x86-64 hosts that have it.
    Avx512,
}

impl Simd {
    /// Every instruction set, portable first.
    pub const ALL: [Simd; 3] = [Simd::Portable, Simd::Avx2, Simd::Avx512];

    /// The best instruction set this host runs.
    pub fn detect() -> Simd {
        [Simd::Avx512, Simd::Avx2]
            .into_iter()
            .find(|s| s.supported())
            .unwrap_or(Simd::Portable)
    }

    /// Whether this host runs `self`.
    pub fn supported(self) -> bool {
        match self {
            Simd::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Simd::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Simd::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Simd::Avx2 | Simd::Avx512 => false,
        }
    }

    /// Stable name for artifacts: `"portable"`, `"avx2"` or `"avx512"`.
    pub fn name(self) -> &'static str {
        match self {
            Simd::Portable => "portable",
            Simd::Avx2 => "avx2",
            Simd::Avx512 => "avx512",
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
                // A constant-length copy: a few vector moves, not a memcpy call.
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

    /// Rows `kb..kb + kw` of panel `j`, and the rest of the pack from
    /// [`PREFETCH_ROWS`] rows past row `kb`: the rows a tile reads, and the
    /// rows it prefetches, one per k step.
    fn panel(&self, j: usize, kb: usize, kw: usize) -> (&[f32], &[f32]) {
        let at = (j * self.k + kb) * NR;
        let ahead = (at + PREFETCH_ROWS * NR).min(self.panels.len());
        (&self.panels[at..at + kw * NR], &self.panels[ahead..])
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
/// checks use to run every instance the host supports.
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
                let panel = b.panel(jr, kb, kw);
                let (rows, cols) = ((ic, mw), (col0, nw));
                match simd {
                    Simd::Portable => {
                        portable::panel_tiles(a, k, kb, panel, out, n, rows, cols, first, ep)
                    }
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `simd.supported()` was asserted above, so this
                    // host runs AVX2.
                    Simd::Avx2 => unsafe {
                        avx2::panel_tiles(a, k, kb, panel, out, n, rows, cols, first, ep)
                    },
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: as above, for AVX-512F.
                    Simd::Avx512 => unsafe {
                        avx512::panel_tiles(a, k, kb, panel, out, n, rows, cols, first, ep)
                    },
                    #[cfg(not(target_arch = "x86_64"))]
                    Simd::Avx2 | Simd::Avx512 => {
                        unreachable!("no x86 instruction set is supported off x86-64")
                    }
                }
            }
        }
    }
}

/// Stamps out one instruction set's tiles as a module: `panel_tiles`, which
/// runs every register tile of one packed panel, and the outlined tiles it
/// calls, all compiled with `$feature` (none for the portable instance).
///
/// The tiles are `inline(never)`, and this is load-bearing: inlined next to
/// each other, the merged bodies overwhelm the register allocator and the
/// accumulators spill to the stack every k step (~6x slower). Their
/// operands are separate arguments, not a struct: a `&mut` inside a struct
/// loses its no-alias guarantee, and without it the portable full tile ran
/// about 6x slower.
macro_rules! instance {
    ($isa:ident, rows: $rows:expr $(, feature: $feature:literal)?) => {
        mod $isa {
            use super::*;

            /// Rows of this instance's full tile.
            const ROWS: usize = $rows;

            /// Every register tile of output rows `ic..ic + mw` and columns
            /// `col0..col0 + nw` against the k rows `kb..` of one packed
            /// panel (`panel`, from [`PackedB::panel`] with `ahead`):
            /// 8-row tiles while eight rows remain (AVX-512 only), then
            /// 4-row full tiles, then one remainder tile of fewer rows. A
            /// panel of at most [`HALF_NR`] columns runs tiles that compute
            /// only [`HALF_NR`] lanes.
            $(#[target_feature(enable = $feature)])?
            #[allow(clippy::too_many_arguments)]
            pub(super) fn panel_tiles(
                a: &[f32],
                k: usize,
                kb: usize,
                (panel, ahead): (&[f32], &[f32]),
                out: &mut [f32],
                n: usize,
                (ic, mw): (usize, usize),
                (col0, nw): (usize, usize),
                first: bool,
                ep: Epilogue<'_>,
            ) {
                let kw = panel.len() / NR;
                let mut ir = 0;
                while ir < mw {
                    let row0 = ic + ir;
                    let rw = mw - ir;
                    if ROWS > MR && rw >= ROWS && nw == NR {
                        wide(a, k, kb, kw, row0, panel, ahead, out, n, col0, first, ep);
                        ir += ROWS;
                        continue;
                    }
                    match (rw >= MR, nw) {
                        (true, NR) => full::<NR>(
                            a, k, kb, kw, row0, panel, ahead, out, n, col0, first, ep,
                        ),
                        (true, HALF_NR) => full::<HALF_NR>(
                            a, k, kb, kw, row0, panel, ahead, out, n, col0, first, ep,
                        ),
                        (_, ..=HALF_NR) => remainder::<HALF_NR>(
                            a, k, kb, row0, rw.min(MR), panel, out, n, col0, nw, first, ep,
                        ),
                        _ => remainder::<NR>(
                            a, k, kb, row0, rw.min(MR), panel, out, n, col0, nw, first, ep,
                        ),
                    }
                    ir += MR;
                }
            }

            /// The [`MR_WIDE`]-row tile; only the AVX-512 instance calls it.
            $(#[target_feature(enable = $feature)])?
            #[inline(never)]
            #[allow(clippy::too_many_arguments)]
            fn wide(
                a: &[f32],
                k: usize,
                kb: usize,
                kw: usize,
                row0: usize,
                panel: &[f32],
                ahead: &[f32],
                out: &mut [f32],
                n: usize,
                col0: usize,
                first: bool,
                ep: Epilogue<'_>,
            ) {
                tile_wide_body(a, k, kb, kw, row0, panel, ahead, out, n, col0, first, ep)
            }

            /// The full [`MR`]-row tile of `L` lanes.
            $(#[target_feature(enable = $feature)])?
            #[inline(never)]
            #[allow(clippy::too_many_arguments)]
            fn full<const L: usize>(
                a: &[f32],
                k: usize,
                kb: usize,
                kw: usize,
                row0: usize,
                panel: &[f32],
                ahead: &[f32],
                out: &mut [f32],
                n: usize,
                col0: usize,
                first: bool,
                ep: Epilogue<'_>,
            ) {
                tile_full_body::<L>(a, k, kb, kw, row0, panel, ahead, out, n, col0, first, ep)
            }

            /// A remainder tile of `rw <= MR` rows and `nw <= L` columns,
            /// computing `L` lanes.
            $(#[target_feature(enable = $feature)])?
            #[inline(never)]
            #[allow(clippy::too_many_arguments)]
            fn remainder<const L: usize>(
                a: &[f32],
                k: usize,
                kb: usize,
                row0: usize,
                rw: usize,
                panel: &[f32],
                out: &mut [f32],
                n: usize,
                col0: usize,
                nw: usize,
                first: bool,
                ep: Epilogue<'_>,
            ) {
                tile_body::<L>(a, k, kb, row0, rw, panel, out, n, col0, nw, first, ep)
            }
        }
    };
}

instance!(portable, rows: MR);
#[cfg(target_arch = "x86_64")]
instance!(avx2, rows: MR, feature: "avx2");
#[cfg(target_arch = "x86_64")]
instance!(avx512, rows: MR_WIDE, feature: "avx512f");

/// The first `L` lanes of every packed row of `panel`.
#[inline(always)]
fn panel_rows<const L: usize>(panel: &[f32]) -> impl Iterator<Item = &[f32; L]> {
    panel
        .as_chunks::<NR>()
        .0
        .iter()
        .map(|lanes| lanes.first_chunk::<L>().expect("L <= NR"))
}

/// `acc[j] += a * lanes[j]` on every lane: a rounded multiply, then a
/// rounded add — never one fused multiply-add.
#[inline(always)]
fn madd<const L: usize>(acc: &mut [f32; L], a: f32, lanes: &[f32; L]) {
    for j in 0..L {
        acc[j] += a * lanes[j];
    }
}

/// The `L` partial sums of a row at `out[base..]`, or zeros on the first
/// k panel.
#[inline(always)]
fn reload<const L: usize>(out: &[f32], base: usize, first: bool) -> [f32; L] {
    if first {
        [0.0; L]
    } else {
        *out[base..]
            .first_chunk::<L>()
            .expect("a row of L partial sums")
    }
}

/// Applies the epilogue to one finished `L`-lane row of columns
/// `col0..col0 + L` and stores it at `out[base..]`.
#[inline(always)]
fn finish<const L: usize>(
    mut row: [f32; L],
    out: &mut [f32],
    base: usize,
    col0: usize,
    epilogue: Epilogue<'_>,
) {
    match epilogue {
        Epilogue::None => {}
        Epilogue::Bias(bias) => {
            let b = bias[col0..].first_chunk::<L>().expect("L bias lanes");
            for j in 0..L {
                row[j] += b[j];
            }
        }
        Epilogue::BiasRelu(bias) => {
            let b = bias[col0..].first_chunk::<L>().expect("L bias lanes");
            for j in 0..L {
                row[j] = (row[j] + b[j]).max(0.0);
            }
        }
    }
    out[base..base + L].copy_from_slice(&row);
}

/// Hints the CPU to bring packed row `row` of `ahead` into L1. Past the
/// end of the pack it does nothing, so every address it hints is inside
/// the pack. A prefetch only moves a cache line: it changes no value and
/// no result bit.
#[inline(always)]
fn prefetch_row(ahead: &[f32], row: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(lane) = ahead.get(row * NR) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` needs SSE, which every x86-64 host has; it
        // reads no value and cannot fault, and `lane` is an element of the
        // pack.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((lane as *const f32).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (ahead, row);
}

/// The full `MR x L` tile (`L` is [`NR`] or [`HALF_NR`]). Every loop has a
/// constant trip count and every operand is a pre-sliced zip (no index
/// arithmetic or bounds checks inside the k loop), so the accumulator stays
/// in vector registers for the whole panel. Same accumulation order as
/// [`tile_body`]; only the remainder handling is gone. Each k step also
/// prefetches one packed row of `ahead`, [`PREFETCH_ROWS`] rows ahead.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_full_body<const L: usize>(
    a: &[f32],
    k: usize,
    kb: usize,
    kw: usize,
    row0: usize,
    panel: &[f32],
    ahead: &[f32],
    out: &mut [f32],
    n: usize,
    col0: usize,
    first: bool,
    epilogue: Epilogue<'_>,
) {
    let base = |i: usize| (row0 + i) * n + col0;
    let mut c0 = reload::<L>(out, base(0), first);
    let mut c1 = reload::<L>(out, base(1), first);
    let mut c2 = reload::<L>(out, base(2), first);
    let mut c3 = reload::<L>(out, base(3), first);
    let arow = |i: usize| &a[(row0 + i) * k + kb..][..kw];
    // Pure slice-iterator zips (no `take`, no indexing): std specializes
    // these to one counted loop with no bounds checks, which is what lets
    // the accumulator live in registers instead of spilling every k step.
    let rows = arow(0).iter().zip(arow(1)).zip(arow(2).iter().zip(arow(3)));
    for (kk, (lanes, ((a0, a1), (a2, a3)))) in panel_rows::<L>(panel).zip(rows).enumerate() {
        prefetch_row(ahead, kk);
        // Ascending k order per element, identical to the naive loop.
        madd(&mut c0, *a0, lanes);
        madd(&mut c1, *a1, lanes);
        madd(&mut c2, *a2, lanes);
        madd(&mut c3, *a3, lanes);
    }
    finish(c0, out, base(0), col0, epilogue);
    finish(c1, out, base(1), col0, epilogue);
    finish(c2, out, base(2), col0, epilogue);
    finish(c3, out, base(3), col0, epilogue);
}

/// The full `MR_WIDE x NR` tile: [`tile_full_body`] with eight rows,
/// prefetching the same way. Each row is its own variable and statement; a
/// version that indexed an array of eight rows spilled the accumulators and
/// ran about 10x slower.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_wide_body(
    a: &[f32],
    k: usize,
    kb: usize,
    kw: usize,
    row0: usize,
    panel: &[f32],
    ahead: &[f32],
    out: &mut [f32],
    n: usize,
    col0: usize,
    first: bool,
    epilogue: Epilogue<'_>,
) {
    let base = |i: usize| (row0 + i) * n + col0;
    let mut c0 = reload::<NR>(out, base(0), first);
    let mut c1 = reload::<NR>(out, base(1), first);
    let mut c2 = reload::<NR>(out, base(2), first);
    let mut c3 = reload::<NR>(out, base(3), first);
    let mut c4 = reload::<NR>(out, base(4), first);
    let mut c5 = reload::<NR>(out, base(5), first);
    let mut c6 = reload::<NR>(out, base(6), first);
    let mut c7 = reload::<NR>(out, base(7), first);
    let arow = |i: usize| &a[(row0 + i) * k + kb..][..kw];
    let pair = |i: usize| arow(i).iter().zip(arow(i + 1));
    let rows = (pair(0).zip(pair(2))).zip(pair(4).zip(pair(6)));
    let steps = panel_rows::<NR>(panel).zip(rows).enumerate();
    for (kk, (lanes, (((a0, a1), (a2, a3)), ((a4, a5), (a6, a7))))) in steps {
        prefetch_row(ahead, kk);
        madd(&mut c0, *a0, lanes);
        madd(&mut c1, *a1, lanes);
        madd(&mut c2, *a2, lanes);
        madd(&mut c3, *a3, lanes);
        madd(&mut c4, *a4, lanes);
        madd(&mut c5, *a5, lanes);
        madd(&mut c6, *a6, lanes);
        madd(&mut c7, *a7, lanes);
    }
    finish(c0, out, base(0), col0, epilogue);
    finish(c1, out, base(1), col0, epilogue);
    finish(c2, out, base(2), col0, epilogue);
    finish(c3, out, base(3), col0, epilogue);
    finish(c4, out, base(4), col0, epilogue);
    finish(c5, out, base(5), col0, epilogue);
    finish(c6, out, base(6), col0, epilogue);
    finish(c7, out, base(7), col0, epilogue);
}

/// One `rw x nw` remainder tile (`rw <= MR`, `nw <= L`): load the partial
/// sums unless this is the first k panel, accumulate the panel's k steps
/// in ascending order across `L` lanes (padding lanes compute zeros and are
/// never stored), apply the epilogue, store `nw` columns.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_body<const L: usize>(
    a: &[f32],
    k: usize,
    kb: usize,
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
    let mut acc = [[0.0f32; L]; MR];
    if !first {
        for (i, row) in acc.iter_mut().enumerate().take(rw) {
            let base = (row0 + i) * n + col0;
            row[..nw].copy_from_slice(&out[base..base + nw]);
        }
    }
    for (kk, lanes) in panel_rows::<L>(panel).enumerate() {
        for (i, row) in acc.iter_mut().enumerate().take(rw) {
            // Per element the products join in ascending k order — the same
            // reduction order as the naive triple loop; the tile only
            // reorders memory traffic.
            madd(row, a[(row0 + i) * k + kb + kk], lanes);
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

    /// The instruction sets this host runs, naming those it does not.
    fn simds(test: &str) -> Vec<Simd> {
        let (run, missing): (Vec<Simd>, Vec<Simd>) =
            Simd::ALL.into_iter().partition(|s| s.supported());
        for simd in missing {
            eprintln!(
                "{test}: {} not detected, its tiles did not run",
                simd.name()
            );
        }
        run
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

    /// Row counts around the 8-row tile and its 4-row fallbacks.
    const WIDE_TILE_ROWS: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17];

    /// Column counts around the half panel, the full panel and two panels.
    const PANEL_COLS: [usize; 7] = [1, 8, 9, 15, 16, 17, 33];

    /// [`REMAINDER_SHAPES`] plus every `WIDE_TILE_ROWS x PANEL_COLS` shape,
    /// within one k panel and across a spill.
    fn remainder_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = REMAINDER_SHAPES.to_vec();
        for m in WIDE_TILE_ROWS {
            for n in PANEL_COLS {
                shapes.extend([(m, 5, n), (m, KC + 3, n)]);
            }
        }
        shapes
    }

    /// Shapes whose full tiles prefetch within one k panel, across k panels
    /// and panels, and off the end of the pack.
    fn prefetch_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        let ks = [5, KC + 3, 4 * KC + 1];
        [1, 7, 8, 16, 17, 49].into_iter().flat_map(move |m| {
            ks.into_iter()
                .flat_map(move |k| [16, 17, 512].map(|n| (m, k, n)))
        })
    }

    #[test]
    fn packed_gemm_without_epilogue_is_bit_identical_to_naive() {
        for simd in simds("packed_gemm_without_epilogue_is_bit_identical_to_naive") {
            for (m, k, n) in remainder_shapes().into_iter().chain(prefetch_shapes()) {
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
        let mut shapes = remainder_shapes();
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
