//! Exact jump-ahead for the xoshiro256 state transition.
//!
//! One step of the generator's state update (everything in
//! [`Rng::next_u64`](crate::Rng::next_u64) except the output scrambler) is
//! a linear map `T` on the 256-bit state over GF(2). Its characteristic
//! polynomial `P` has degree 256, and `P(T) = 0` (Cayley–Hamilton), so
//! `T^d = r(T)` with `r = x^d mod P`. Advancing a state by `d` steps is
//! then 256 steps of the generator that XOR-accumulate the state at every
//! set coefficient of `r` — the way the reference xoshiro `jump()` applies
//! its published `JUMP` constant, which is exactly `x^(2^128) mod P`.
//!
//! A polynomial of degree below 256 is four `u64` words, bit `j % 64` of
//! word `j / 64` holding the coefficient of `x^j`.

/// A residue modulo [`CHAR_POLY`]: a polynomial over GF(2) of degree < 256.
pub(crate) type Poly = [u64; 4];

/// The low 256 coefficients of the characteristic polynomial
/// `P(x) = x^256 + CHAR_POLY(x)` of the xoshiro256 state update, derived by
/// Berlekamp–Massey from one state bit's sequence (the derivation is a
/// test). Reducing `x^(2^128)` and `x^(2^192)` modulo it reproduces the
/// published `JUMP` and `LONG_JUMP` constants.
const CHAR_POLY: Poly = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// `b(x) * x^256 mod P` for every byte `b` (bit `i` of `b` standing for
/// `x^i`): the table the byte-wise reduction folds with.
const REDUCE: [Poly; 256] = reduce_table();

/// `p * x mod P`.
const fn mul_x(p: Poly) -> Poly {
    let carry = p[3] >> 63;
    let mut r = [
        p[0] << 1,
        (p[1] << 1) | (p[0] >> 63),
        (p[2] << 1) | (p[1] >> 63),
        (p[3] << 1) | (p[2] >> 63),
    ];
    if carry == 1 {
        r[0] ^= CHAR_POLY[0];
        r[1] ^= CHAR_POLY[1];
        r[2] ^= CHAR_POLY[2];
        r[3] ^= CHAR_POLY[3];
    }
    r
}

const fn reduce_table() -> [Poly; 256] {
    // x^(256 + i) mod P for the eight bits of a byte.
    let mut basis = [CHAR_POLY; 8];
    let mut i = 1;
    while i < 8 {
        basis[i] = mul_x(basis[i - 1]);
        i += 1;
    }
    let mut table = [[0u64; 4]; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            if b >> i & 1 == 1 {
                let mut w = 0;
                while w < 4 {
                    table[b][w] ^= basis[i][w];
                    w += 1;
                }
            }
            i += 1;
        }
        b += 1;
    }
    table
}

/// `h(x) * x^256 mod P`, by Horner's rule over the bytes of `h` from the
/// top: each step shifts the residue up a byte and folds the byte that
/// overflows, together with the next byte of `h`, through [`REDUCE`] (the
/// fold is linear, so one lookup serves both).
fn times_x256(h: Poly) -> Poly {
    let mut r = [0u64; 4];
    for j in (0..32).rev() {
        let top = (r[3] >> 56) as u8;
        r = [
            r[0] << 8,
            (r[1] << 8) | (r[0] >> 56),
            (r[2] << 8) | (r[1] >> 56),
            (r[3] << 8) | (r[2] >> 56),
        ];
        let byte = (h[j / 8] >> (8 * (j % 8))) as u8;
        let fold = &REDUCE[usize::from(top ^ byte)];
        for (w, f) in r.iter_mut().zip(fold) {
            *w ^= f;
        }
    }
    r
}

/// Interleaves a zero bit above each bit of `v`: over GF(2), squaring a
/// polynomial doubles every exponent.
fn spread(v: u32) -> u64 {
    let mut x = u64::from(v);
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & 0x5555_5555_5555_5555
}

/// `p^2 mod P`.
fn square(p: Poly) -> Poly {
    let halves = |w: u64| [spread(w as u32), spread((w >> 32) as u32)];
    let [l0, l1] = halves(p[0]);
    let [l2, l3] = halves(p[1]);
    let [h0, h1] = halves(p[2]);
    let [h2, h3] = halves(p[3]);
    let high = times_x256([h0, h1, h2, h3]);
    [l0 ^ high[0], l1 ^ high[1], l2 ^ high[2], l3 ^ high[3]]
}

/// `x^d mod P`: the polynomial that advances a state by `d` steps. The top
/// eight bits of `d` give the starting monomial directly (any exponent
/// below 256 is already reduced); each further bit costs one squaring and,
/// when set, one multiplication by `x`.
pub(crate) fn x_pow(d: u64) -> Poly {
    let monomial = |e: u64| {
        let mut p = [0u64; 4];
        p[(e / 64) as usize] = 1 << (e % 64);
        p
    };
    let bits = 64 - d.leading_zeros();
    if bits <= 8 {
        return monomial(d);
    }
    let mut p = monomial(d >> (bits - 8));
    for i in (0..bits - 8).rev() {
        p = square(p);
        if d >> i & 1 == 1 {
            p = mul_x(p);
        }
    }
    p
}

/// One step of the xoshiro256 state update — the linear map `T`.
#[inline(always)]
pub(crate) fn step(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

/// `r(T) s`: walks 256 steps from `s`, XOR-accumulating the state at every
/// set coefficient of `r` (branch-free, so the cost does not depend on the
/// coefficients).
pub(crate) fn apply(r: &Poly, s: [u64; 4]) -> [u64; 4] {
    let mut acc = [0u64; 4];
    let mut s = s;
    for word in r {
        for bit in 0..64 {
            let mask = 0u64.wrapping_sub(word >> bit & 1);
            for (a, v) in acc.iter_mut().zip(&s) {
                *a ^= v & mask;
            }
            step(&mut s);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Berlekamp–Massey over GF(2): the shortest linear recurrence of
    /// `seq`, as its connection polynomial `c` (`c[0] = 1`) and length.
    fn berlekamp_massey(seq: &[u8]) -> (Vec<u8>, usize) {
        let n = seq.len();
        let (mut c, mut b) = (vec![0u8; n + 1], vec![0u8; n + 1]);
        c[0] = 1;
        b[0] = 1;
        let (mut len, mut shift) = (0usize, 1usize);
        for i in 0..n {
            let mut d = seq[i];
            for j in 1..=len {
                d ^= c[j] & seq[i - j];
            }
            if d == 0 {
                shift += 1;
                continue;
            }
            let prev = c.clone();
            for j in 0..=n - shift {
                c[j + shift] ^= b[j];
            }
            if 2 * len <= i {
                len = i + 1 - len;
                b = prev;
                shift = 1;
            } else {
                shift += 1;
            }
        }
        (c, len)
    }

    #[test]
    fn char_poly_is_the_minimal_polynomial_of_the_state_update() {
        // Any state bit's sequence satisfies the recurrence of P; its
        // shortest recurrence has the full degree 256 because P is
        // primitive (the generator's period is 2^256 - 1).
        let mut s = [
            0x0123_4567_89ab_cdef,
            0xfedc_ba98_7654_3210,
            0x1111_2222_3333_4444,
            0x5555_6666_7777_8888,
        ];
        let mut seq = Vec::new();
        for _ in 0..1024 {
            seq.push((s[0] & 1) as u8);
            step(&mut s);
        }
        let (c, len) = berlekamp_massey(&seq);
        assert_eq!(len, 256);
        // P(x) = x^256 C(1/x): the coefficient of x^(256 - j) is c[j].
        let mut low = [0u64; 4];
        for (j, &cj) in c.iter().enumerate().take(len + 1).skip(1) {
            let e = len - j;
            low[e / 64] |= u64::from(cj) << (e % 64);
        }
        assert_eq!(low, CHAR_POLY);
    }

    #[test]
    fn char_poly_reproduces_the_published_jump_constants() {
        // xoshiro256 reference jump() (2^128 steps) and long_jump() (2^192).
        const JUMP: Poly = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        const LONG_JUMP: Poly = [
            0x76e1_5d3e_fefd_cbbf,
            0xc500_4e44_1c52_2fb3,
            0x7771_0069_854e_e241,
            0x3910_9bb0_2acb_e635,
        ];
        let mut p = x_pow(2);
        for e in 1..=192 {
            if e == 128 {
                assert_eq!(p, JUMP, "x^(2^128) mod P");
            }
            if e == 192 {
                assert_eq!(p, LONG_JUMP, "x^(2^192) mod P");
            }
            p = square(p);
        }
    }

    #[test]
    fn squaring_and_shifting_agree_with_repeated_multiplication_by_x() {
        let mut want = [1u64, 0, 0, 0];
        for d in 0..1200u64 {
            assert_eq!(x_pow(d), want, "x^{d}");
            want = mul_x(want);
        }
        // Squaring a residue doubles its exponent.
        for d in [3u64, 255, 256, 1000, 123_456_789] {
            assert_eq!(square(x_pow(d)), x_pow(2 * d), "(x^{d})^2");
        }
    }
}
