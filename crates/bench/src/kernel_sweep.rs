//! Old-vs-new GEMM kernel comparison with statistical evidence.
//!
//! Each swept configuration is one GEMM shape drawn from the model zoo's
//! lowered convolutions (toy and mobilenet-v2): the scalar k-blocked
//! oracle ([`GemmPath::Exact`]) races the register-blocked micro-kernel
//! ([`GemmPath::Fast`]) on identical operands. Per configuration the sweep
//! records:
//!
//! * a tolerance check — the fast path must match the oracle within
//!   [`Tolerance::kernel_default`] (`tolerance_check_passed` is the CI
//!   invariant key, and the observed worst abs/ULP deviations make the
//!   contract auditable);
//! * ≥ 5 timing samples per kernel and a Welch-t-test verdict from
//!   [`crate::stats`] — `ACCEPT` only when `p <` [`stats::ALPHA`] *and*
//!   the micro-kernel's mean improved; a miss on a loaded host is
//!   recorded (with `host_threads` context), never hidden;
//! * per-function probe counters (counts + µs/call) from the
//!   feature-gated [`pimflow_kernels::probe`] layer, captured from one
//!   instrumented run per path after the timed samples;
//! * a bit-identity check of the instruction-set paths: the shape's GEMM
//!   on the portable tiles and on every other instruction set the host
//!   runs ([`Simd::supported`]), and a `k x n` weight stream drawn
//!   sequentially and through the AVX2 [`Lanes`](pimflow_rng::Lanes)
//!   (`simd_paths_bit_identical`, the second CI invariant key; `simd_isa`
//!   names the instruction set [`Simd::detect`] picks).
//!
//! `figures kernels [dir] [--smoke]` writes the result as
//! `BENCH_kernels.json`.

use crate::harness::Group;
use crate::stats::{self, Comparison};
use pimflow_ir::Shape;
use pimflow_json::json_struct;
use pimflow_kernels::im2col::gemm_with;
use pimflow_kernels::microkernel::{gemm_packed_on, Simd};
use pimflow_kernels::{pack_b, probe, Epilogue, GemmPath, Tensor, Tolerance};
use pimflow_pool::WorkerPool;
use pimflow_rng::{Rng, LANES};

/// One swept GEMM configuration (a lowered conv or dense layer).
#[derive(Debug, Clone, Copy)]
struct SweepShape {
    config: &'static str,
    kind: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

/// Lowered shapes of the `toy` model: its two convolutions (im2col rows ×
/// patch × out-channels) and its classifier head.
const TOY_SHAPES: [SweepShape; 3] = [
    SweepShape {
        config: "toy/conv3x3",
        kind: "conv",
        m: 1024,
        k: 27,
        n: 16,
    },
    SweepShape {
        config: "toy/conv1x1",
        kind: "conv",
        m: 1024,
        k: 16,
        n: 32,
    },
    SweepShape {
        config: "toy/dense",
        kind: "dense",
        m: 64,
        k: 64,
        n: 10,
    },
];

/// Lowered shapes of mobilenet-v2's characteristic layers: the stem conv,
/// an inverted-residual expansion, and a late bottleneck projection.
const MOBILENET_SHAPES: [SweepShape; 3] = [
    SweepShape {
        config: "mobilenet-v2/stem3x3",
        kind: "conv",
        m: 12544,
        k: 27,
        n: 32,
    },
    SweepShape {
        config: "mobilenet-v2/expand1x1",
        kind: "conv",
        m: 3136,
        k: 24,
        n: 144,
    },
    SweepShape {
        config: "mobilenet-v2/project1x1",
        kind: "conv",
        m: 196,
        k: 576,
        n: 96,
    },
];

/// One configuration's verdict: tolerance audit plus timed comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelComparisonRow {
    /// `model/layer` label of the swept shape.
    pub config: String,
    /// Layer family the shape came from (`conv` / `dense`).
    pub kind: String,
    /// GEMM rows (im2col patches or batch size).
    pub m: usize,
    /// Reduction depth (patch elements or fan-in).
    pub k: usize,
    /// GEMM columns (output channels or features).
    pub n: usize,
    /// Timing samples collected per kernel.
    pub samples: usize,
    /// Worst absolute deviation of the fast path from the oracle.
    pub max_abs_diff: f64,
    /// Worst ULP distance of the fast path from the oracle.
    pub max_ulps: u64,
    /// True when the fast path stayed within the documented kernel
    /// tolerance of the scalar oracle on this shape.
    pub tolerance_check_passed: bool,
    /// Welch-t-test comparison: scalar oracle (baseline) vs micro-kernel
    /// (candidate), in µs per call.
    pub comparison: Comparison,
}

json_struct!(KernelComparisonRow {
    config,
    kind,
    m,
    k,
    n,
    samples,
    max_abs_diff,
    max_ulps,
    tolerance_check_passed,
    comparison,
});

/// One probed kernel function's accumulated counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRow {
    /// Probed function name.
    pub function: String,
    /// Calls recorded while the probe was enabled.
    pub calls: u64,
    /// Total wall time across those calls, microseconds.
    pub total_us: f64,
    /// Mean microseconds per call.
    pub us_per_call: f64,
}

json_struct!(ProbeRow {
    function,
    calls,
    total_us,
    us_per_call,
});

/// The full artifact written to `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSweepReport {
    /// Hardware threads of the measuring host — the context a REJECT on a
    /// loaded CI box is judged against.
    pub host_threads: usize,
    /// `PIMFLOW_JOBS` worker-pool width in effect (kernel timings here
    /// are single-threaded; recorded for cross-artifact comparability).
    pub jobs: usize,
    /// Timing samples per kernel per configuration (≥ 5).
    pub samples_per_config: usize,
    /// Significance level of the ACCEPT/REJECT rule.
    pub alpha: f64,
    /// True when this was the CI-sized smoke run (toy shapes only).
    pub smoke: bool,
    /// True when **every** configuration passed its tolerance check — the
    /// invariant CI greps for.
    pub tolerance_check_passed: bool,
    /// The instruction set the hot loops ran on: `"avx512"`, `"avx2"` or
    /// `"portable"`.
    pub simd_isa: String,
    /// True when every configuration's GEMM gave the same bits on the
    /// portable path and on every other instruction set the host runs, and
    /// its weight stream the same bits sequentially and through the lanes
    /// (trivially so on a portable-only host) — the second invariant CI
    /// greps for.
    pub simd_paths_bit_identical: bool,
    /// Configurations where the micro-kernel was ACCEPTed.
    pub accepted: usize,
    /// Configurations REJECTed (insignificant or regressed).
    pub rejected: usize,
    /// Per-function timing counters from one instrumented run per path
    /// (empty when the `probes` feature is compiled out).
    pub probes: Vec<ProbeRow>,
    /// One row per swept configuration, in input order.
    pub configs: Vec<KernelComparisonRow>,
}

json_struct!(KernelSweepReport {
    host_threads,
    jobs,
    samples_per_config,
    alpha,
    smoke,
    tolerance_check_passed,
    simd_isa,
    simd_paths_bit_identical,
    accepted,
    rejected,
    probes,
    configs,
});

fn operands(shape: &SweepShape, rng: &mut Rng) -> (Tensor, Tensor) {
    let a: Vec<f32> = (0..shape.m * shape.k)
        .map(|_| rng.range_f32(-1.0, 1.0))
        .collect();
    let b: Vec<f32> = (0..shape.k * shape.n)
        .map(|_| rng.range_f32(-1.0, 1.0))
        .collect();
    (
        Tensor::from_vec(Shape::rf(shape.m, shape.k), a),
        Tensor::from_vec(Shape::rf(shape.k, shape.n), b),
    )
}

/// Whether `shape`'s GEMM (plain and with the fused bias + ReLU
/// epilogue) gives the same bits on the portable path and on every other
/// instruction set the host runs, and a `k x n` weight stream the same
/// bits sequentially and through the lanes.
fn simd_paths_agree(shape: &SweepShape, a: &Tensor, b: &Tensor) -> bool {
    let (m, k, n) = (shape.m, shape.k, shape.n);
    let packed = pack_b(b.data(), k, n);
    let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.01 - 0.05).collect();
    let gemm = |simd: Simd, epilogue: Epilogue<'_>| {
        let mut out = vec![0.0f32; m * n];
        gemm_packed_on(simd, a.data(), &packed, &mut out, epilogue);
        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    let gemm_same = [Epilogue::None, Epilogue::BiasRelu(&bias)]
        .into_iter()
        .all(|ep| {
            let want = gemm(Simd::Portable, ep);
            Simd::ALL[1..]
                .iter()
                .filter(|s| s.supported())
                .all(|&simd| gemm(simd, ep) == want)
        });

    // The weight stream: k rows of n values, lane `i` owning rows
    // `i * per..(i + 1) * per` and the rows left over drawn after the
    // last lane, as the executor's parameter generator splits them.
    let start = Rng::seed_from_u64((m * 31 + k) as u64 * 131 + n as u64);
    let mut seq = start.clone();
    let mut want = vec![0.0f32; k * n];
    seq.fill_range_f32(&mut want, -1.0, 1.0);
    let per = k / LANES;
    let stream_same = match start.lanes(per * n) {
        None => true,
        Some(mut lanes) => {
            let split = LANES * per * n;
            let mut got = vec![0.0f32; k * n];
            lanes.fill_rows_range_f32(&mut got[..split], n, 0, -1.0, 1.0);
            let mut tail = lanes.lane(LANES - 1);
            tail.fill_range_f32(&mut got[split..], -1.0, 1.0);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            bits(&got) == bits(&want) && tail == seq
        }
    };
    gemm_same && stream_same
}

/// Runs the old-vs-new comparison over `shapes` with `samples` timing
/// samples per kernel and a per-sample target window of `target_ms`.
fn sweep(shapes: &[SweepShape], samples: usize, target_ms: u64, smoke: bool) -> KernelSweepReport {
    let mut rng = Rng::seed_from_u64(0x6e57_3a7e);
    let tol = Tolerance::kernel_default();
    let mut simd_paths_bit_identical = true;
    let mut rows = Vec::with_capacity(shapes.len());

    for shape in shapes {
        let (a, b) = operands(shape, &mut rng);
        simd_paths_bit_identical &= simd_paths_agree(shape, &a, &b);

        // Correctness first: the fast path must sit inside the documented
        // tolerance of the scalar oracle before its timings mean anything.
        let exact = gemm_with(&a, &b, GemmPath::Exact).expect("oracle GEMM");
        let fast = gemm_with(&a, &b, GemmPath::Fast).expect("micro-kernel GEMM");
        let check = tol.check(fast.data(), exact.data());
        let (max_abs_diff, max_ulps, passed) = match &check {
            Ok(report) => (f64::from(report.max_abs_diff), report.max_ulps, true),
            Err(e) => (f64::from((e.got - e.want).abs()), e.ulps, false),
        };

        let mut group = Group::new("kernels");
        group.sample_size(samples);
        group.target(std::time::Duration::from_millis(target_ms));
        let baseline = group.measure(&format!("{}/scalar", shape.config), || {
            gemm_with(&a, &b, GemmPath::Exact).expect("oracle GEMM")
        });
        let candidate = group.measure(&format!("{}/micro", shape.config), || {
            gemm_with(&a, &b, GemmPath::Fast).expect("micro-kernel GEMM")
        });
        let comparison = stats::compare_lower_is_better(&baseline.sample_us, &candidate.sample_us);

        rows.push(KernelComparisonRow {
            config: shape.config.to_string(),
            kind: shape.kind.to_string(),
            m: shape.m,
            k: shape.k,
            n: shape.n,
            samples,
            max_abs_diff,
            max_ulps,
            tolerance_check_passed: passed,
            comparison,
        });
    }

    // Probe pass: one instrumented run per path per shape, outside the
    // timed samples so the counters never perturb the statistics.
    probe::reset();
    probe::enable(true);
    for shape in shapes {
        let (a, b) = operands(shape, &mut rng);
        let _ = gemm_with(&a, &b, GemmPath::Exact);
        let _ = gemm_with(&a, &b, GemmPath::Fast);
    }
    probe::enable(false);
    let probes: Vec<ProbeRow> = probe::snapshot()
        .into_iter()
        .filter(|s| s.calls > 0)
        .map(|s| ProbeRow {
            function: s.function,
            calls: s.calls,
            total_us: s.total_us,
            us_per_call: s.us_per_call,
        })
        .collect();

    let accepted = rows.iter().filter(|r| r.comparison.accepted()).count();
    KernelSweepReport {
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        jobs: WorkerPool::from_env().jobs(),
        samples_per_config: samples,
        alpha: stats::ALPHA,
        smoke,
        tolerance_check_passed: rows.iter().all(|r| r.tolerance_check_passed),
        simd_isa: Simd::detect().name().to_string(),
        simd_paths_bit_identical,
        accepted,
        rejected: rows.len() - accepted,
        probes,
        configs: rows,
    }
}

/// Runs the sweep and writes `BENCH_kernels.json` under `dir`. `smoke`
/// restricts the sweep to the toy shapes with short timing windows
/// (CI-sized); the committed artifact adds the mobilenet-v2 shapes and
/// longer windows. Both collect ≥ 5 samples per configuration. Returns
/// the report and the path written.
///
/// # Errors
///
/// Returns a rendered error when the write fails, any configuration's
/// fast path violated the kernel tolerance, or the instruction-set paths
/// disagreed (timing verdicts may REJECT freely — the other two are
/// correctness bugs).
pub fn write_bench_artifact(
    dir: &std::path::Path,
    smoke: bool,
) -> Result<(KernelSweepReport, std::path::PathBuf), String> {
    let report = if smoke {
        sweep(&TOY_SHAPES, 5, 2, true)
    } else {
        let shapes: Vec<SweepShape> = TOY_SHAPES
            .iter()
            .chain(&MOBILENET_SHAPES)
            .copied()
            .collect();
        sweep(&shapes, 7, 30, false)
    };
    if !report.simd_paths_bit_identical {
        return Err(
            "an instruction-set path disagreed with the portable one on a swept configuration"
                .to_string(),
        );
    }
    if let Some(bad) = report.configs.iter().find(|r| !r.tolerance_check_passed) {
        return Err(format!(
            "micro-kernel violated the kernel tolerance on {} ({} ulps, |diff| {})",
            bad.config, bad.max_ulps, bad.max_abs_diff
        ));
    }
    crate::write_json_artifact(dir, "BENCH_kernels.json", report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_passes_tolerance_and_roundtrips() {
        let report = sweep(&TOY_SHAPES[..2], 5, 1, true);
        assert!(report.tolerance_check_passed);
        assert!(report.simd_paths_bit_identical);
        assert_eq!(report.simd_isa, Simd::detect().name());
        assert_eq!(report.configs.len(), 2);
        assert_eq!(report.accepted + report.rejected, 2);
        for row in &report.configs {
            assert_eq!(row.samples, 5);
            assert_eq!(
                row.comparison.decision == "ACCEPT",
                row.comparison.accepted()
            );
            assert!(row.comparison.p_value >= 0.0 && row.comparison.p_value <= 1.0);
        }
        // The bench crate compiles pimflow-kernels with `probes` on, so
        // both GEMM cores must have recorded counters.
        for function in ["gemm_microkernel", "gemm_scalar", "pack_b"] {
            assert!(
                report
                    .probes
                    .iter()
                    .any(|p| p.function == function && p.calls > 0),
                "missing probe row `{function}`: {:?}",
                report.probes
            );
        }
        let json = pimflow_json::to_string(&report);
        let back: KernelSweepReport = pimflow_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
