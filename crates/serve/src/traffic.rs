//! Seeded traffic generators for fleet simulations.
//!
//! A fleet run is driven by per-tenant arrival streams. On top of the
//! fixed-rate and Poisson streams the single-node simulator already has
//! ([`crate::arrival`]), fleets need the shapes that actually
//! stress routing and autoscaling: a diurnal sinusoid (load follows the
//! day), Markov-modulated bursts (an MMPP flipping between a quiet and a
//! storm state), and heavy-tailed tenant mixes (a few tenants dominate the
//! offered load, Zipf-style). Everything is drawn from the workspace's
//! seeded PRNG, so streams are byte-reproducible from `(spec, duration,
//! seed)` alone.
//!
//! The time-varying generators use Lewis–Shedler thinning: candidate
//! arrivals are drawn from a homogeneous Poisson process at the peak rate
//! and accepted with probability `rate(t) / rate_max`, which keeps the
//! generator exact for any bounded rate function while staying a single
//! sequential pass over one RNG.

use crate::arrival::{arrival_times_us, ArrivalSpec};
use pimflow_rng::{splitmix64, Rng};

/// How one tenant's request arrivals are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficSpec {
    /// One request every `1/rps` seconds, starting at t = 0.
    Fixed {
        /// Requests per second.
        rps: f64,
    },
    /// Stationary Poisson process with mean rate `rps`.
    Poisson {
        /// Mean requests per second.
        rps: f64,
    },
    /// Inhomogeneous Poisson process whose rate follows a sinusoid:
    /// `rate(t) = mean_rps * (1 + amplitude * sin(2 pi t / period_s))`.
    Diurnal {
        /// Mean requests per second over a full period.
        mean_rps: f64,
        /// Relative swing around the mean, clamped to `[0, 1]` (1 means
        /// the trough reaches zero load).
        amplitude: f64,
        /// Period of the sinusoid, seconds ("one day" of the simulation).
        period_s: f64,
    },
    /// Two-state Markov-modulated Poisson process: the rate flips between
    /// `base_rps` and `burst_rps`, with exponentially distributed state
    /// dwell times of mean `mean_dwell_s`.
    Bursty {
        /// Rate of the quiet state, requests per second.
        base_rps: f64,
        /// Rate of the burst state, requests per second.
        burst_rps: f64,
        /// Mean dwell time in each state, seconds.
        mean_dwell_s: f64,
    },
}

/// Materializes the sorted arrival timestamps (microseconds) of `spec`
/// over a window of `duration_s` seconds. Deterministic in `(spec,
/// duration_s, seed)`; timestamps at or beyond the window end are dropped.
pub fn traffic_times_us(spec: &TrafficSpec, duration_s: f64, seed: u64) -> Vec<f64> {
    let end_us = duration_s * 1e6;
    match spec {
        TrafficSpec::Fixed { rps } => {
            arrival_times_us(&ArrivalSpec::Fixed { rps: *rps }, duration_s, seed)
        }
        TrafficSpec::Poisson { rps } => {
            arrival_times_us(&ArrivalSpec::Poisson { rps: *rps }, duration_s, seed)
        }
        TrafficSpec::Diurnal {
            mean_rps,
            amplitude,
            period_s,
        } => {
            if *mean_rps <= 0.0 || *period_s <= 0.0 {
                return Vec::new();
            }
            let amp = amplitude.clamp(0.0, 1.0);
            let rate_max = mean_rps * (1.0 + amp) / 1e6; // per us
            let period_us = period_s * 1e6;
            let mut rng = Rng::seed_from_u64(seed);
            let mut t = 0.0;
            let mut out = Vec::new();
            loop {
                t += rng.exponential(rate_max);
                if t >= end_us {
                    break;
                }
                let rate = mean_rps
                    * (1.0 + amp * (2.0 * std::f64::consts::PI * t / period_us).sin())
                    / 1e6;
                if rng.chance(rate / rate_max) {
                    out.push(t);
                }
            }
            out
        }
        TrafficSpec::Bursty {
            base_rps,
            burst_rps,
            mean_dwell_s,
        } => {
            let peak = base_rps.max(*burst_rps);
            if peak <= 0.0 || *mean_dwell_s <= 0.0 {
                return Vec::new();
            }
            let rate_max = peak / 1e6;
            let dwell_rate = 1.0 / (mean_dwell_s * 1e6);
            let mut rng = Rng::seed_from_u64(seed);
            let mut bursting = false;
            let mut switch_at = rng.exponential(dwell_rate);
            let mut t = 0.0;
            let mut out = Vec::new();
            loop {
                t += rng.exponential(rate_max);
                if t >= end_us {
                    break;
                }
                while switch_at <= t {
                    bursting = !bursting;
                    switch_at += rng.exponential(dwell_rate);
                }
                let rate = if bursting { *burst_rps } else { *base_rps } / 1e6;
                if rng.chance(rate / rate_max) {
                    out.push(t);
                }
            }
            out
        }
    }
}

/// Normalized Zipf weights over `n` ranks: weight of rank `i` is
/// proportional to `(i + 1)^-alpha`. `alpha = 0` is uniform; larger values
/// concentrate mass on the first ranks — the standard model for
/// heavy-tailed per-tenant request mixes.
pub fn zipf_weights(n: usize, alpha: f64) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    let raw: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-alpha)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Derives tenant `idx`'s private stream seed from the fleet seed, so
/// tenants draw from decorrelated PRNG streams while the whole fleet stays
/// reproducible from one seed.
pub fn tenant_seed(fleet_seed: u64, idx: usize) -> u64 {
    let mut state = fleet_seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_in(times: &[f64], lo_us: f64, hi_us: f64) -> usize {
        times.iter().filter(|&&t| t >= lo_us && t < hi_us).count()
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let specs = [
            TrafficSpec::Diurnal {
                mean_rps: 2_000.0,
                amplitude: 0.8,
                period_s: 1.0,
            },
            TrafficSpec::Bursty {
                base_rps: 500.0,
                burst_rps: 4_000.0,
                mean_dwell_s: 0.1,
            },
            TrafficSpec::Poisson { rps: 1_500.0 },
        ];
        for spec in &specs {
            let a = traffic_times_us(spec, 1.0, 99);
            let b = traffic_times_us(spec, 1.0, 99);
            let c = traffic_times_us(spec, 1.0, 100);
            assert!(!a.is_empty());
            assert_eq!(a, b, "same seed must replay identically: {spec:?}");
            assert_ne!(a, c, "different seeds must differ: {spec:?}");
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted: {spec:?}");
        }
    }

    #[test]
    fn diurnal_peaks_in_the_first_half_period() {
        // With period == duration, sin is positive over the first half of
        // the window and negative over the second: the peak half must carry
        // clearly more arrivals than the trough half.
        let spec = TrafficSpec::Diurnal {
            mean_rps: 2_000.0,
            amplitude: 0.8,
            period_s: 2.0,
        };
        let times = traffic_times_us(&spec, 2.0, 7);
        let first = count_in(&times, 0.0, 1e6);
        let second = count_in(&times, 1e6, 2e6);
        assert!(
            first as f64 > 1.3 * second as f64,
            "peak half {first} vs trough half {second}"
        );
        // Total still tracks the mean rate (2000 rps * 2 s = 4000).
        assert!((3_200..4_800).contains(&times.len()), "got {}", times.len());
    }

    #[test]
    fn bursty_stream_is_overdispersed() {
        // Index of dispersion (variance/mean of per-window counts): ~1 for
        // Poisson, far above 1 for an MMPP flipping between 200 and 5000
        // rps.
        let dispersion = |times: &[f64], duration_s: f64| {
            let windows = (duration_s * 10.0) as usize; // 100 ms windows
            let counts: Vec<f64> = (0..windows)
                .map(|w| count_in(times, w as f64 * 1e5, (w + 1) as f64 * 1e5) as f64)
                .collect();
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            let var =
                counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;
            var / mean.max(1e-9)
        };
        let bursty = traffic_times_us(
            &TrafficSpec::Bursty {
                base_rps: 200.0,
                burst_rps: 5_000.0,
                mean_dwell_s: 0.2,
            },
            4.0,
            11,
        );
        let poisson = traffic_times_us(&TrafficSpec::Poisson { rps: 2_000.0 }, 4.0, 11);
        assert!(
            dispersion(&bursty, 4.0) > 3.0,
            "bursty dispersion {:.2}",
            dispersion(&bursty, 4.0)
        );
        assert!(
            dispersion(&poisson, 4.0) < 2.0,
            "poisson dispersion {:.2}",
            dispersion(&poisson, 4.0)
        );
    }

    #[test]
    fn zipf_weights_are_normalized_and_heavy_tailed() {
        let w = zipf_weights(8, 1.2);
        assert_eq!(w.len(), 8);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(
            w.windows(2).all(|p| p[0] >= p[1]),
            "monotone non-increasing"
        );
        // The top tenant must carry well over the uniform share.
        assert!(w[0] > 2.0 / 8.0, "top share {:.3}", w[0]);
        // alpha = 0 degenerates to uniform.
        let uniform = zipf_weights(4, 0.0);
        assert!(uniform.iter().all(|&x| (x - 0.25).abs() < 1e-12));
        assert!(zipf_weights(0, 1.0).is_empty());
    }

    #[test]
    fn tenant_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..16).map(|i| tenant_seed(42, i)).collect();
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "tenants {i} and {j} collide");
            }
        }
        assert_eq!(tenant_seed(42, 3), tenant_seed(42, 3));
        assert_ne!(tenant_seed(42, 3), tenant_seed(43, 3));
    }

    #[test]
    fn degenerate_specs_yield_empty_streams() {
        assert!(traffic_times_us(
            &TrafficSpec::Diurnal {
                mean_rps: 0.0,
                amplitude: 0.5,
                period_s: 1.0
            },
            1.0,
            1
        )
        .is_empty());
        assert!(traffic_times_us(
            &TrafficSpec::Bursty {
                base_rps: 0.0,
                burst_rps: 0.0,
                mean_dwell_s: 0.1
            },
            1.0,
            1
        )
        .is_empty());
    }
}
