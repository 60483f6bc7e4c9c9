//! Lane-parallel generation: eight positions of one xoshiro256++ stream,
//! each started by an exact jump, stepped together in AVX2 registers.
//!
//! The step chain of one generator is serial, so a single stream cannot
//! go faster than one state update per value. Eight lanes that each own a
//! contiguous part of the stream can: their states sit in two `__m256i`
//! per state word, and one vector step advances all eight. The lanes
//! reproduce [`Rng::fill_range_f32`](crate::Rng::fill_range_f32) bit for
//! bit: the 24-bit draw `r >> 40` converts exactly (`cvtdq2ps`), and the
//! range maps it with a separate multiply and add, as the scalar code does
//! (no fused multiply-add, which would round once instead of twice).

use crate::{jump, Rng};

/// Number of lanes a [`Lanes`] steps together.
pub const LANES: usize = 8;

/// Eight generators on one xoshiro256++ stream, stepped together.
///
/// Built by [`Rng::lanes`](crate::Rng::lanes), which returns one only on a
/// host with AVX2: holding a `Lanes` is what lets
/// [`fill_rows_range_f32`](Lanes::fill_rows_range_f32) run the AVX2 path.
#[derive(Debug, Clone)]
pub struct Lanes {
    /// State word `w` of lane `i` at `s[w][i]`.
    s: [[u64; LANES]; 4],
}

impl Lanes {
    /// Lane `i` starts `i * stride` steps after `start`. `None` unless the
    /// host has AVX2.
    pub(crate) fn new(start: [u64; 4], stride: u64) -> Option<Lanes> {
        if !avx2_detected() {
            return None;
        }
        let jump = jump::x_pow(stride);
        let mut s = [[0u64; LANES]; 4];
        let mut lane = start;
        for i in 0..LANES {
            for (word, v) in s.iter_mut().zip(lane) {
                word[i] = v;
            }
            if i + 1 < LANES {
                lane = jump::apply(&jump, lane);
            }
        }
        Some(Lanes { s })
    }

    /// The generator at the position lane `i` has reached.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LANES`.
    pub fn lane(&self, i: usize) -> Rng {
        Rng {
            s: self.s.map(|word| word[i]),
        }
    }

    /// Fills `out` lane by lane: lane `i` writes the `out.len() / LANES`
    /// values of `out[i * per..(i + 1) * per]` in rows of `width` values,
    /// drawing them uniformly from `[lo, hi)` exactly as
    /// [`Rng::fill_range_f32`](crate::Rng::fill_range_f32) would, and skips
    /// `gap` stream positions after each row. A lane continues from where
    /// the previous call left it, so consecutive calls stream through
    /// slabs of rows.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`, `out.len()` is not a multiple of [`LANES`],
    /// or a lane's share is not a whole number of non-empty rows.
    pub fn fill_rows_range_f32(
        &mut self,
        out: &mut [f32],
        width: usize,
        gap: usize,
        lo: f32,
        hi: f32,
    ) {
        assert!(lo < hi, "empty range {lo}..{hi}");
        assert_eq!(out.len() % LANES, 0, "lane fill of {} values", out.len());
        let per = out.len() / LANES;
        if per == 0 {
            return;
        }
        assert!(
            width > 0 && per.is_multiple_of(width),
            "lane share {per} is not a whole number of {width}-value rows"
        );
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `Lanes` exists only where `Lanes::new` detected AVX2.
        unsafe {
            avx2::fill_rows(&mut self.s, out, width, gap, lo, hi - lo)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("lanes are built only on x86-64 hosts with AVX2")
    }
}

/// Whether this host runs the AVX2 lane path.
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::LANES;
    use std::arch::x86_64::*;

    /// The four state words of four lanes. The state of all eight is two
    /// halves: lanes 0, 2, 4, 6 and lanes 1, 3, 5, 7, so that the draws'
    /// low dwords interleave into lane order.
    type Half = [__m256i; 4];

    #[target_feature(enable = "avx2")]
    fn load(s: &[[u64; LANES]; 4]) -> [Half; 2] {
        let mut v = [[_mm256_setzero_si256(); 4]; 2];
        for (w, lanes) in s.iter().enumerate() {
            let l = lanes.map(|x| x as i64);
            v[0][w] = _mm256_set_epi64x(l[6], l[4], l[2], l[0]);
            v[1][w] = _mm256_set_epi64x(l[7], l[5], l[3], l[1]);
        }
        v
    }

    #[target_feature(enable = "avx2")]
    fn store(v: &[Half; 2], s: &mut [[u64; LANES]; 4]) {
        for (w, lanes) in s.iter_mut().enumerate() {
            let (even, odd) = (v[0][w], v[1][w]);
            *lanes = [
                _mm256_extract_epi64::<0>(even),
                _mm256_extract_epi64::<0>(odd),
                _mm256_extract_epi64::<1>(even),
                _mm256_extract_epi64::<1>(odd),
                _mm256_extract_epi64::<2>(even),
                _mm256_extract_epi64::<2>(odd),
                _mm256_extract_epi64::<3>(even),
                _mm256_extract_epi64::<3>(odd),
            ]
            .map(|x| x as u64);
        }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn rotl<const L: i32, const R: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<L>(x), _mm256_srli_epi64::<R>(x))
    }

    /// One state update of every lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn step(s: &mut [Half; 2]) {
        for h in s {
            let t = _mm256_slli_epi64::<17>(h[1]);
            h[2] = _mm256_xor_si256(h[2], h[0]);
            h[3] = _mm256_xor_si256(h[3], h[1]);
            h[1] = _mm256_xor_si256(h[1], h[2]);
            h[0] = _mm256_xor_si256(h[0], h[3]);
            h[2] = _mm256_xor_si256(h[2], t);
            h[3] = rotl::<45, 19>(h[3]);
        }
    }

    /// Every lane's 24-bit draw `next_u64() >> 40` at the current states,
    /// converted (exactly) to f32 in lane order.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn draw(s: &[Half; 2]) -> __m256 {
        let mut r = [_mm256_setzero_si256(); 2];
        for (h, out) in s.iter().zip(&mut r) {
            let sum = _mm256_add_epi64(h[0], h[3]);
            *out = _mm256_srli_epi64::<40>(_mm256_add_epi64(rotl::<23, 41>(sum), h[0]));
        }
        _mm256_cvtepi32_ps(_mm256_or_si256(r[0], _mm256_slli_epi64::<32>(r[1])))
    }

    /// `v[t][lane]` → `out[lane][t]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose(v: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(v[0], v[1]);
        let t1 = _mm256_unpackhi_ps(v[0], v[1]);
        let t2 = _mm256_unpacklo_ps(v[2], v[3]);
        let t3 = _mm256_unpackhi_ps(v[2], v[3]);
        let t4 = _mm256_unpacklo_ps(v[4], v[5]);
        let t5 = _mm256_unpackhi_ps(v[4], v[5]);
        let t6 = _mm256_unpacklo_ps(v[6], v[7]);
        let t7 = _mm256_unpackhi_ps(v[6], v[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ]
    }

    /// The next `n <= 8` values of every lane (`v[t][lane]`, zero past
    /// `n`), stepping past `gap` positions whenever a lane finishes a row.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn block(s: &mut [Half; 2], n: usize, rows: &mut Rows, map: &Map) -> [__m256; 8] {
        let mut v = [_mm256_setzero_ps(); 8];
        for slot in &mut v[..n] {
            // lo + (draw * 2^-24) * (hi - lo): the scalar order of
            // operations, each rounded on its own.
            let unit_draw = _mm256_mul_ps(draw(s), map.unit);
            *slot = _mm256_add_ps(map.lo, _mm256_mul_ps(unit_draw, map.range));
            step(s);
            rows.col += 1;
            if rows.col == rows.width {
                rows.col = 0;
                for _ in 0..rows.gap {
                    step(s);
                }
            }
        }
        v
    }

    /// Where each lane stands in its rows.
    struct Rows {
        width: usize,
        gap: usize,
        col: usize,
    }

    /// The range map `lo + (draw * unit) * range`, broadcast.
    struct Map {
        lo: __m256,
        unit: __m256,
        range: __m256,
    }

    /// The lane body of [`super::Lanes::fill_rows_range_f32`], whose checks
    /// it relies on: `out` holds `LANES` equal shares, each a whole number
    /// of `width`-value rows. Values come in blocks of eight steps, which
    /// one transpose turns into eight contiguous values per lane.
    #[target_feature(enable = "avx2")]
    pub(super) fn fill_rows(
        state: &mut [[u64; LANES]; 4],
        out: &mut [f32],
        width: usize,
        gap: usize,
        lo: f32,
        range: f32,
    ) {
        let per = out.len() / LANES;
        let mut s = load(state);
        let map = Map {
            lo: _mm256_set1_ps(lo),
            unit: _mm256_set1_ps(1.0 / (1u32 << 24) as f32),
            range: _mm256_set1_ps(range),
        };
        let mut rows = Rows { width, gap, col: 0 };
        let mut at = 0;
        while at + 8 <= per {
            let v = block(&mut s, 8, &mut rows, &map);
            for (lane, values) in transpose(v).iter().enumerate() {
                let dst = &mut out[lane * per + at..][..8];
                // SAFETY: `dst` is exactly eight floats long.
                unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), *values) }
            }
            at += 8;
        }
        if at < per {
            let n = per - at;
            let v = block(&mut s, n, &mut rows, &map);
            for (lane, values) in transpose(v).iter().enumerate() {
                let mut tail = [0.0f32; 8];
                // SAFETY: `tail` is exactly eight floats long.
                unsafe { _mm256_storeu_ps(tail.as_mut_ptr(), *values) }
                out[lane * per + at..][..n].copy_from_slice(&tail[..n]);
            }
        }
        store(&s, state);
    }
}
