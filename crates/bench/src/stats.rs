//! Statistical machinery for the bench harness: mean/stddev summaries and
//! Welch's two-sample t-test with an ACCEPT/REJECT decision rule.
//!
//! Every perf claim in a committed `BENCH_*.json` should carry evidence
//! that the measured difference is not noise. The gate used here is the
//! scheduler-tuning methodology: collect ≥ 5 samples per configuration,
//! run Welch's unequal-variance t-test between the old and new kernels,
//! and **ACCEPT** the change only when the two-tailed p-value clears
//! [`ALPHA`] *and* the candidate's mean is an improvement. Anything else
//! is a **REJECT** — recorded, not hidden, so a miss on a loaded CI host
//! is auditable alongside the `host_threads` context.
//!
//! The workspace builds offline, so the p-value comes from an in-repo
//! regularized incomplete beta function (Lanczos log-gamma plus the
//! Lentz-style continued fraction), not an external stats crate. The
//! identity used: for the Student-t distribution with `df` degrees of
//! freedom, `P(|T| > |t|) = I_x(df/2, 1/2)` with `x = df / (df + t²)`.

use pimflow_json::{json_struct, json_unit_enum};
use std::time::Instant;

/// Significance level of the ACCEPT/REJECT rule.
pub const ALPHA: f64 = 0.05;

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (divisor `n - 1`); `0.0` when `n < 2`.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation; `0.0` when `n < 2`.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// The outcome of Welch's two-sample t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchTTest {
    /// The t statistic (sign follows `mean(a) - mean(b)`).
    pub t: f64,
    /// Welch–Satterthwaite effective degrees of freedom.
    pub df: f64,
    /// Two-tailed p-value: probability of a difference at least this
    /// large under the null hypothesis of equal means.
    pub p: f64,
}

/// Welch's unequal-variance t-test between two independent samples.
///
/// Degenerate inputs are resolved rather than returned as NaN: with both
/// standard errors zero the samples are deterministic, so equal means give
/// `p = 1` and unequal means `p = 0`.
///
/// # Panics
///
/// Panics if either sample has fewer than two observations — a variance
/// needs at least two points, and the bench harness always collects ≥ 5.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> WelchTTest {
    assert!(
        a.len() >= 2 && b.len() >= 2,
        "welch_t_test needs >= 2 samples per group (got {} and {})",
        a.len(),
        b.len()
    );
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (variance(a), variance(b));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let sea = va / na;
    let seb = vb / nb;
    let se2 = sea + seb;
    if se2 == 0.0 {
        // Both groups are exactly constant: the test degenerates to an
        // equality check on the means.
        return if ma == mb {
            WelchTTest {
                t: 0.0,
                df: (na + nb - 2.0).max(1.0),
                p: 1.0,
            }
        } else {
            WelchTTest {
                t: f64::INFINITY * (ma - mb).signum(),
                df: (na + nb - 2.0).max(1.0),
                p: 0.0,
            }
        };
    }
    let t = (ma - mb) / se2.sqrt();
    let df = se2 * se2 / (sea * sea / (na - 1.0) + seb * seb / (nb - 1.0));
    WelchTTest {
        t,
        df,
        p: student_t_two_tailed_p(t, df),
    }
}

/// Two-tailed p-value of the Student-t distribution: `P(|T| > |t|)` at
/// `df` degrees of freedom, via `I_x(df/2, 1/2)` with `x = df/(df + t²)`.
pub fn student_t_two_tailed_p(t: f64, df: f64) -> f64 {
    if !t.is_finite() {
        return 0.0;
    }
    if t == 0.0 {
        return 1.0;
    }
    incomplete_beta(df / 2.0, 0.5, df / (df + t * t)).clamp(0.0, 1.0)
}

/// A baseline-vs-candidate timing comparison with its statistical verdict
/// — the row shape embedded in `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Mean of the baseline samples (same unit as the inputs).
    pub baseline_mean: f64,
    /// Sample standard deviation of the baseline.
    pub baseline_stddev: f64,
    /// Mean of the candidate samples.
    pub candidate_mean: f64,
    /// Sample standard deviation of the candidate.
    pub candidate_stddev: f64,
    /// `baseline_mean / candidate_mean` — above 1.0 means faster.
    pub speedup: f64,
    /// Welch t statistic.
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-tailed p-value of the observed difference.
    pub p_value: f64,
    /// `"ACCEPT"` iff `p_value <` [`ALPHA`] **and** the candidate mean
    /// improved on the baseline; `"REJECT"` otherwise.
    pub decision: String,
}

json_struct!(Comparison {
    baseline_mean,
    baseline_stddev,
    candidate_mean,
    candidate_stddev,
    speedup,
    t,
    df,
    p_value,
    decision,
});

impl Comparison {
    /// True when the decision rule accepted the candidate.
    pub fn accepted(&self) -> bool {
        self.decision == "ACCEPT"
    }
}

/// Applies the ACCEPT/REJECT rule to two timing sample sets where **lower
/// is better** (wall times). ACCEPT requires both statistical significance
/// (`p <` [`ALPHA`]) and a positive improvement (candidate mean strictly
/// below baseline mean) — a significant *regression* is still a REJECT.
///
/// # Panics
///
/// Panics if either sample has fewer than two observations.
pub fn compare_lower_is_better(baseline: &[f64], candidate: &[f64]) -> Comparison {
    let test = welch_t_test(baseline, candidate);
    let bm = mean(baseline);
    let cm = mean(candidate);
    let improved = cm < bm;
    let decision = if test.p < ALPHA && improved {
        "ACCEPT"
    } else {
        "REJECT"
    };
    Comparison {
        baseline_mean: bm,
        baseline_stddev: stddev(baseline),
        candidate_mean: cm,
        candidate_stddev: stddev(candidate),
        speedup: if cm > 0.0 { bm / cm } else { f64::INFINITY },
        t: test.t,
        df: test.df,
        p_value: test.p,
        decision: decision.to_string(),
    }
}

/// The outcome of a wall-clock floor: met, missed, or not observable on
/// the measuring host (never reported as met).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloorVerdict {
    /// The measurement reached the floor.
    Met,
    /// The measurement fell short of the floor.
    Missed,
    /// The host cannot observe the quantity the floor bounds.
    Unmeasured,
}

json_unit_enum!(FloorVerdict {
    Met,
    Missed,
    Unmeasured
});

impl FloorVerdict {
    /// Judges the floor "`candidate_ms` is at least `floor` times faster
    /// than `baseline_ms`" by a Welch test of the baseline against the
    /// candidate scaled by `floor` (the t statistic is scale-free, so this
    /// is the test of the candidate against `baseline / floor`): `Met`
    /// when the scaled candidate is significantly faster at [`ALPHA`],
    /// `Missed` when it is significantly slower, `Unmeasured` otherwise.
    /// Returns the verdict and the two-tailed p-value.
    ///
    /// # Panics
    ///
    /// Panics if either sample has fewer than two observations.
    pub fn judge(baseline_ms: &[f64], candidate_ms: &[f64], floor: f64) -> (FloorVerdict, f64) {
        let scaled: Vec<f64> = candidate_ms.iter().map(|c| c * floor).collect();
        let test = welch_t_test(baseline_ms, &scaled);
        let verdict = if test.p >= ALPHA {
            FloorVerdict::Unmeasured
        } else if mean(&scaled) < mean(baseline_ms) {
            FloorVerdict::Met
        } else {
            FloorVerdict::Missed
        };
        (verdict, test.p)
    }

    /// The verdict of several floors that must all hold: `Missed` when any
    /// is missed, `Met` when every one (and at least one) is met,
    /// `Unmeasured` otherwise.
    pub fn all(verdicts: impl IntoIterator<Item = FloorVerdict>) -> FloorVerdict {
        let verdicts: Vec<FloorVerdict> = verdicts.into_iter().collect();
        if verdicts.contains(&FloorVerdict::Missed) {
            FloorVerdict::Missed
        } else if !verdicts.is_empty() && verdicts.iter().all(|&v| v == FloorVerdict::Met) {
            FloorVerdict::Met
        } else {
            FloorVerdict::Unmeasured
        }
    }
}

/// Times `samples` alternating runs of `baseline` and `candidate`,
/// baseline first, so drift on the host spreads over both sides; returns
/// both sides' wall milliseconds and their last outputs.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn alternate<T>(
    samples: usize,
    mut baseline: impl FnMut() -> T,
    mut candidate: impl FnMut() -> T,
) -> ([Vec<f64>; 2], [T; 2]) {
    fn time<T>(run: &mut dyn FnMut() -> T, ms: &mut Vec<f64>) -> T {
        let t = Instant::now();
        let out = run();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        out
    }
    let (mut base_ms, mut cand_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..samples {
        last = Some([
            time(&mut baseline, &mut base_ms),
            time(&mut candidate, &mut cand_ms),
        ]);
    }
    ([base_ms, cand_ms], last.expect("at least one sample"))
}

/// Natural log of the gamma function (Lanczos approximation, the classic
/// six-coefficient form; |error| < 2e-10 over the positive reals).
fn ln_gamma(x: f64) -> f64 {
    const COF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_9e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for c in COF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Continued-fraction kernel of the incomplete beta function (modified
/// Lentz's method).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 3.0e-14;
    const FPMIN: f64 = 1.0e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)`.
pub fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let bt = (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // Use the continued fraction on the side where it converges fast.
    if x < (a + 1.0) / (a + b + 2.0) {
        bt * betacf(a, b, x) / a
    } else {
        1.0 - bt * betacf(b, a, 1.0 - x) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics_match_hand_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample variance with n-1 divisor: 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((stddev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[3.0]), 0.0);
    }

    #[test]
    fn student_t_p_matches_table_values() {
        // t-table: the critical value at alpha = 0.05 two-tailed, df = 10
        // is t = 2.228, so the p-value there is 0.05 by construction.
        let p = student_t_two_tailed_p(2.228, 10.0);
        assert!((p - 0.05).abs() < 1e-3, "p(2.228, 10) = {p}");
        // df = 1 (Cauchy): t = 1 has p = 0.5 exactly.
        let p = student_t_two_tailed_p(1.0, 1.0);
        assert!((p - 0.5).abs() < 1e-6, "p(1, 1) = {p}");
        // Large df approaches the normal distribution: t = 1.96 -> ~0.05.
        let p = student_t_two_tailed_p(1.96, 1e6);
        assert!((p - 0.05).abs() < 1e-3, "p(1.96, inf) = {p}");
        assert_eq!(student_t_two_tailed_p(0.0, 10.0), 1.0);
        assert_eq!(student_t_two_tailed_p(f64::INFINITY, 10.0), 0.0);
    }

    #[test]
    fn welch_detects_separated_means_and_ignores_identical_ones() {
        let slow = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0];
        let fast = [5.0, 5.1, 4.9, 5.2, 4.8, 5.0];
        let clear = welch_t_test(&slow, &fast);
        assert!(clear.p < 1e-6, "separated means: p = {}", clear.p);
        assert!(clear.t > 0.0);

        let same = welch_t_test(&slow, &slow);
        assert!((same.p - 1.0).abs() < 1e-12);

        // Deterministic (zero-variance) samples resolve, not NaN.
        let det = welch_t_test(&[3.0, 3.0], &[3.0, 3.0]);
        assert_eq!(det.p, 1.0);
        let det = welch_t_test(&[3.0, 3.0], &[4.0, 4.0]);
        assert_eq!(det.p, 0.0);
    }

    #[test]
    fn welch_satterthwaite_df_is_between_min_and_pooled() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 1.1, 0.9, 1.05, 0.95, 1.02, 0.98];
        let r = welch_t_test(&a, &b);
        // Welch df is bounded by min(na, nb) - 1 below and na + nb - 2
        // above; unequal variances pull it toward the noisier group.
        assert!(r.df >= 4.0 - 1e-9 && r.df <= 10.0 + 1e-9, "df = {}", r.df);
        assert!(r.df < 6.0, "df should hug the high-variance group");
    }

    #[test]
    fn the_floor_verdict_needs_a_significant_difference() {
        let seq = [10.0, 10.4, 9.8, 10.2, 10.1, 9.9, 10.3, 10.0];
        let fast = [5.0, 5.2, 4.9, 5.1, 5.0, 4.8, 5.3, 5.0];
        let even = [10.1, 9.9, 10.3, 10.0, 10.2, 9.8, 10.0, 10.4];
        assert_eq!(FloorVerdict::judge(&seq, &fast, 1.5).0, FloorVerdict::Met);
        assert_eq!(
            FloorVerdict::judge(&seq, &fast, 2.5).0,
            FloorVerdict::Missed
        );
        let (verdict, p) = FloorVerdict::judge(&seq, &even, 1.0);
        assert_eq!(verdict, FloorVerdict::Unmeasured, "p = {p}");
        assert!(p >= ALPHA);
    }

    #[test]
    fn floors_that_must_all_hold_combine_pessimistically() {
        use FloorVerdict::{Met, Missed, Unmeasured};
        assert_eq!(FloorVerdict::all([Met, Met]), Met);
        assert_eq!(FloorVerdict::all([Met, Unmeasured]), Unmeasured);
        assert_eq!(FloorVerdict::all([Unmeasured, Met]), Unmeasured);
        assert_eq!(FloorVerdict::all([Met, Missed, Unmeasured]), Missed);
        assert_eq!(FloorVerdict::all([Unmeasured, Missed]), Missed);
        assert_eq!(FloorVerdict::all([]), Unmeasured, "no floor, no claim");
    }

    #[test]
    fn alternate_interleaves_the_two_sides() {
        let mut order = Vec::new();
        let log = std::cell::RefCell::new(&mut order);
        let ([a, b], last) = alternate(
            3,
            || log.borrow_mut().push('a'),
            || log.borrow_mut().push('b'),
        );
        assert_eq!((a.len(), b.len()), (3, 3));
        assert_eq!(last, [(), ()]);
        assert_eq!(order, ['a', 'b', 'a', 'b', 'a', 'b']);
    }

    #[test]
    fn decision_rule_requires_significance_and_improvement() {
        let base = [10.0, 10.1, 9.9, 10.2, 9.8];
        let faster = [8.0, 8.1, 7.9, 8.2, 7.8];
        let c = compare_lower_is_better(&base, &faster);
        assert!(c.accepted(), "clear win must ACCEPT: {c:?}");
        assert!(c.speedup > 1.2);

        // Significant regression: p is small but the sign is wrong.
        let slower = [12.0, 12.1, 11.9, 12.2, 11.8];
        let c = compare_lower_is_better(&base, &slower);
        assert!(!c.accepted(), "regression must REJECT");
        assert!(c.p_value < ALPHA);

        // Insignificant wobble: means differ but noise dominates.
        let noisy = [9.0, 11.0, 10.5, 9.5, 10.0];
        let c = compare_lower_is_better(&base, &noisy);
        assert!(!c.accepted(), "noise must REJECT: p = {}", c.p_value);

        let json = pimflow_json::to_string(&c);
        let back: Comparison = pimflow_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
