//! Minimal wall-clock benchmarking harness.
//!
//! The workspace builds with zero network access, so Criterion is not
//! available; this module provides the small slice of it the bench targets
//! need: named groups, adaptive iteration counts, and a median-of-samples
//! report printed to stdout, where every row carries mean ± stddev. The
//! per-sample times are kept in [`Measurement::sample_us`] for a Welch
//! test through [`crate::stats`].
//! Bench binaries keep `harness = false` in the manifest and drive a
//! [`Group`] from `main`.

use crate::stats;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `group/name` label.
    pub label: String,
    /// Median time per iteration (midpoint of ranks for even counts,
    /// consistent with the `pimflow-metrics` percentile interpolation).
    pub median: Duration,
    /// Minimum observed time per iteration.
    pub min: Duration,
    /// Mean time per iteration across samples.
    pub mean: Duration,
    /// Sample standard deviation of the per-iteration times.
    pub stddev: Duration,
    /// Per-sample mean iteration times, in microseconds, sorted ascending
    /// — the raw input for Welch comparisons against another measurement.
    pub sample_us: Vec<f64>,
    /// Iterations per sample.
    pub iters_per_sample: u32,
}

/// Midpoint-of-ranks median of a sorted slice: the middle element for odd
/// counts, the average of the two middle elements for even counts.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_us(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample set");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A named collection of benchmarks, mirroring Criterion's `benchmark_group`.
pub struct Group {
    name: String,
    samples: usize,
    target: Duration,
    results: Vec<Measurement>,
}

impl Group {
    /// Creates a group with the default 10 samples of ~100 ms each.
    pub fn new(name: impl Into<String>) -> Self {
        Group {
            name: name.into(),
            samples: 10,
            target: Duration::from_millis(100),
            results: Vec::new(),
        }
    }

    /// Sets the number of timed samples per benchmark.
    ///
    /// # Panics
    ///
    /// Panics below two samples — a single sample has no variance, so the
    /// statistical report would be degenerate.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        assert!(samples >= 2, "need >= 2 samples for variance accounting");
        self.samples = samples;
        self
    }

    /// Sets the wall-time window each sample aims to fill (default
    /// ~100 ms); the calibrated iteration count scales to it.
    pub fn target(&mut self, target: Duration) -> &mut Self {
        self.target = target;
        self
    }

    /// Times `f` without printing, returning the measurement. Used by
    /// sweeps that render their own report.
    pub fn measure<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> Measurement {
        // Calibrate by doubling: grow the batch until one batch crosses
        // 1 ms of wall time, so the per-iteration estimate rests on a
        // measurably non-zero window instead of a clamped single run.
        let mut calib: u64 = 1;
        let (batch, batch_iters) = loop {
            let start = Instant::now();
            for _ in 0..calib {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(1) {
                break (elapsed, calib);
            }
            calib *= 2;
        };
        // Scale the calibrated rate to fill one target window per sample.
        // A single iteration that already exceeds the window runs once.
        let iters = ((self.target.as_nanos() * u128::from(batch_iters)) / batch.as_nanos())
            .clamp(1, 10_000) as u32;

        let mut sample_us: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            sample_us.push(start.elapsed().as_secs_f64() * 1e6 / f64::from(iters));
        }
        sample_us.sort_by(f64::total_cmp);
        let mean_us = stats::mean(&sample_us);
        let stddev_us = stats::stddev(&sample_us);
        Measurement {
            label: format!("{}/{}", self.name, name),
            median: Duration::from_secs_f64(median_us(&sample_us) / 1e6),
            min: Duration::from_secs_f64(sample_us[0] / 1e6),
            mean: Duration::from_secs_f64(mean_us / 1e6),
            stddev: Duration::from_secs_f64(stddev_us / 1e6),
            sample_us,
            iters_per_sample: iters,
        }
    }

    /// Times `f`, printing one line with median, mean ± stddev, and the
    /// minimum per-iteration cost.
    pub fn bench<R>(&mut self, name: &str, f: impl FnMut() -> R) {
        let m = self.measure(name, f);
        println!(
            "{:<48} median {:>12.2?}  mean {:>12.2?} ± {:<10.2?}  min {:>12.2?}  ({} iters/sample)",
            m.label, m.median, m.mean, m.stddev, m.min, m.iters_per_sample
        );
        self.results.push(m);
    }

    /// Finishes the group and returns its measurements.
    pub fn finish(self) -> Vec<Measurement> {
        self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_midpoint_of_ranks() {
        assert_eq!(median_us(&[1.0, 2.0, 9.0]), 2.0);
        // Even counts average the two middle elements — the old harness
        // reported the upper-middle element (3.0) here.
        assert_eq!(median_us(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median_us(&[5.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = ">= 2 samples")]
    fn single_sample_groups_are_rejected() {
        Group::new("g").sample_size(1);
    }

    #[test]
    fn measure_fills_summary_fields() {
        let mut g = Group::new("test");
        g.sample_size(4);
        let m = g.measure("spin", || black_box((0..512).sum::<u64>()));
        assert_eq!(m.sample_us.len(), 4);
        assert!(m.sample_us.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(m.min <= m.median && m.min <= m.mean);
        assert!(m.iters_per_sample >= 1);
    }
}
