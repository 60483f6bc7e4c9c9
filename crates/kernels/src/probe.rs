//! Per-function timing counters (counts + µs/call) for the kernel layer.
//!
//! Compiled in only under the `probes` cargo feature (enabled by
//! `pimflow-bench`; the bare library carries zero probe code), and gated at
//! runtime by a relaxed [`AtomicBool`] that defaults to **off** — a
//! disabled probe site costs one relaxed load. Enabled sites record call
//! counts and cumulative nanoseconds into global atomics, so a bench run
//! can print the oar-scheduler-style per-function table
//! (`Function X called N times, took T (t µs on average)`) and embed it in
//! `BENCH_kernels.json`.
//!
//! Counters are process-global: [`reset`] + run + [`snapshot`] must not be
//! interleaved with other kernel work if exact counts matter. The executor
//! itself never touches the flag.

#[cfg(feature = "probes")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A probed kernel-layer function. The discriminant indexes the counter
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ProbePoint {
    /// Lowered-row materialization ([`crate::im2col::im2col_rows`]).
    Im2colRows,
    /// Packed-B construction ([`crate::microkernel::pack_b`]).
    PackB,
    /// Register-blocked GEMM ([`crate::microkernel::gemm_packed`]).
    GemmMicrokernel,
    /// Scalar oracle GEMM core (`gemm_accumulate`).
    GemmScalar,
    /// Fast conv row kernel ([`crate::ops::conv2d_rows_packed`]).
    ConvRowsFast,
    /// Exact conv row kernel ([`crate::ops::conv2d_rows_into`]).
    ConvRowsExact,
    /// Depthwise direct kernel
    /// ([`crate::ops::conv2d_direct_channels_into`]).
    DepthwiseDirect,
    /// Fast dense kernel ([`crate::ops::dense_rows_packed`]).
    DenseRowsFast,
    /// Exact dense kernel ([`crate::ops::dense_rows_into`]).
    DenseRowsExact,
    /// Parameter generation ([`crate::params`]), including the packing of
    /// fast-path weights, which happens while they are generated.
    ParamGen,
}

/// Number of probe points (counter table size).
const POINTS: usize = 10;

impl ProbePoint {
    /// Stable display name, used in stdout tables and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            ProbePoint::Im2colRows => "im2col_rows",
            ProbePoint::PackB => "pack_b",
            ProbePoint::GemmMicrokernel => "gemm_microkernel",
            ProbePoint::GemmScalar => "gemm_scalar",
            ProbePoint::ConvRowsFast => "conv2d_rows_fast",
            ProbePoint::ConvRowsExact => "conv2d_rows_exact",
            ProbePoint::DepthwiseDirect => "depthwise_direct",
            ProbePoint::DenseRowsFast => "dense_rows_fast",
            ProbePoint::DenseRowsExact => "dense_rows_exact",
            ProbePoint::ParamGen => "param_gen",
        }
    }

    /// All probe points, in counter-table order.
    pub fn all() -> [ProbePoint; POINTS] {
        [
            ProbePoint::Im2colRows,
            ProbePoint::PackB,
            ProbePoint::GemmMicrokernel,
            ProbePoint::GemmScalar,
            ProbePoint::ConvRowsFast,
            ProbePoint::ConvRowsExact,
            ProbePoint::DepthwiseDirect,
            ProbePoint::DenseRowsFast,
            ProbePoint::DenseRowsExact,
            ProbePoint::ParamGen,
        ]
    }
}

/// One function's accumulated timings, as returned by [`snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeStat {
    /// Probed function name.
    pub function: String,
    /// Times the function ran while the probe was enabled.
    pub calls: u64,
    /// Total wall time across those calls, microseconds.
    pub total_us: f64,
    /// Mean microseconds per call (0 when never called).
    pub us_per_call: f64,
}

#[cfg(feature = "probes")]
mod imp {
    use super::*;
    use std::time::Instant;

    static ENABLED: AtomicBool = AtomicBool::new(false);

    struct Counter {
        calls: AtomicU64,
        nanos: AtomicU64,
    }

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: Counter = Counter {
        calls: AtomicU64::new(0),
        nanos: AtomicU64::new(0),
    };
    static COUNTERS: [Counter; POINTS] = [ZERO; POINTS];

    /// Turns recording on or off (global, off by default).
    pub fn enable(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// True when probes are currently recording.
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Zeroes every counter.
    pub fn reset() {
        for c in &COUNTERS {
            c.calls.store(0, Ordering::Relaxed);
            c.nanos.store(0, Ordering::Relaxed);
        }
    }

    /// Counters for every probe point, in [`ProbePoint::all`] order.
    pub fn snapshot() -> Vec<ProbeStat> {
        ProbePoint::all()
            .into_iter()
            .map(|p| {
                let c = &COUNTERS[p as usize];
                let calls = c.calls.load(Ordering::Relaxed);
                let total_us = c.nanos.load(Ordering::Relaxed) as f64 / 1e3;
                ProbeStat {
                    function: p.name().to_string(),
                    calls,
                    total_us,
                    us_per_call: if calls == 0 {
                        0.0
                    } else {
                        total_us / calls as f64
                    },
                }
            })
            .collect()
    }

    /// An RAII timing span: records one call and its wall time on drop.
    #[derive(Debug)]
    pub struct ProbeSpan(Option<(ProbePoint, Instant)>);

    impl Drop for ProbeSpan {
        fn drop(&mut self) {
            if let Some((point, start)) = self.0.take() {
                let c = &COUNTERS[point as usize];
                c.calls.fetch_add(1, Ordering::Relaxed);
                c.nanos
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
    }

    /// Opens a timing span for `point`; a no-op value when disabled.
    #[inline]
    pub fn span(point: ProbePoint) -> ProbeSpan {
        if ENABLED.load(Ordering::Relaxed) {
            ProbeSpan(Some((point, Instant::now())))
        } else {
            ProbeSpan(None)
        }
    }
}

#[cfg(not(feature = "probes"))]
mod imp {
    use super::*;

    /// No-op without the `probes` feature.
    pub fn enable(_on: bool) {}

    /// Always false without the `probes` feature.
    pub fn enabled() -> bool {
        false
    }

    /// No-op without the `probes` feature.
    pub fn reset() {}

    /// Empty without the `probes` feature.
    pub fn snapshot() -> Vec<ProbeStat> {
        Vec::new()
    }

    /// Zero-sized no-op span.
    #[derive(Debug)]
    pub struct ProbeSpan;

    /// Compiles to nothing without the `probes` feature.
    #[inline(always)]
    pub fn span(_point: ProbePoint) -> ProbeSpan {
        ProbeSpan
    }
}

pub use imp::{enable, enabled, reset, snapshot, span, ProbeSpan};

/// Renders the oar-scheduler-style per-function table (one line per
/// function that ran).
pub fn render_table(stats: &[ProbeStat]) -> String {
    let mut out = String::new();
    for s in stats.iter().filter(|s| s.calls > 0) {
        out.push_str(&format!(
            "Function {:<20} called {:>9} times, took {:>10.1}ms ({:>8.2}µs on average)\n",
            s.function,
            s.calls,
            s.total_us / 1e3,
            s.us_per_call
        ));
    }
    out
}

#[cfg(all(test, feature = "probes"))]
mod tests {
    use super::*;

    #[test]
    fn disabled_probe_records_nothing_and_enabled_probe_counts() {
        // Serialized in one test: the counters are process-global.
        reset();
        enable(false);
        drop(span(ProbePoint::PackB));
        assert!(snapshot().iter().all(|s| s.calls == 0));

        enable(true);
        drop(span(ProbePoint::PackB));
        drop(span(ProbePoint::PackB));
        enable(false);
        let stats = snapshot();
        let pack = stats.iter().find(|s| s.function == "pack_b").unwrap();
        assert!(pack.calls >= 2, "both spans recorded");
        let table = render_table(&stats);
        assert!(table.contains("pack_b"));
        reset();
        assert!(snapshot().iter().all(|s| s.calls == 0 && s.total_us == 0.0));
    }
}
