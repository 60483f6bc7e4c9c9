//! The measurement loop shared by every workload and the reduction of its
//! samples to the reported metrics.
//!
//! Host times are reported on a reference scale. The calibration loop
//! (see [`crate::calib`]) is timed before the first operation and after
//! every operation, and likewise around every set-up repetition. Each
//! operation's or repetition's raw time is multiplied by the reference
//! calibration time over the mean of the two calibrations that bracket it,
//! so a slow spell of the machine scales only the times measured in it.

use crate::calib::{Calibrator, REFERENCE_CALIB_S};
use crate::stats::{geomean, mean, median};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one operation reports back to the loop.
#[derive(Debug)]
pub struct Op {
    /// Which of the model's seeded inputs ran (the traffic of a serving
    /// episode; 0 when the model has one input). The simulated latencies
    /// are averaged per input first, so how often each input ran does not
    /// move them.
    pub input: usize,
    /// Host wall-clock of the measured calls, milliseconds (input
    /// generation and output checks excluded).
    pub host_ms: f64,
    /// Simulated median request latency, microseconds.
    pub sim_p50_us: f64,
    /// Simulated 99th-percentile request latency, microseconds.
    pub sim_p99_us: f64,
    /// Requests this operation stands for (1 for a compile or an
    /// inference; the arrivals of a serving episode).
    pub attempted: u64,
    /// Of those, requests that failed or were never served.
    pub failed: u64,
    /// Per-layer counters of this operation, averaged over the run.
    pub counters: Vec<(&'static str, f64)>,
}

/// Everything one benchmark run measured.
#[derive(Debug)]
pub struct Run {
    /// Models (or scenarios) the operations rotate over.
    pub models: Vec<String>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed, including operations that returned an error.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Span recorder (enabled in trace runs only).
    pub tracer: Tracer,
    /// Set-up repetitions, seconds, on the reference scale.
    setup_s: Vec<f64>,
    /// Host times per model, on the reference scale.
    host_ms: Vec<Vec<f64>>,
    /// Each recorded operation's factor to the reference scale.
    op_scale: BTreeMap<u64, f64>,
    /// Simulated latencies per (model, input).
    sim_p50_us: BTreeMap<(usize, usize), Vec<f64>>,
    sim_p99_us: BTreeMap<(usize, usize), Vec<f64>>,
    counters: BTreeMap<&'static str, Vec<f64>>,
    calibrator: Calibrator,
    /// Calibration times of the measured phase, seconds.
    calib_s: Vec<f64>,
}

/// Set-up repeats at least this many times, and until
/// [`SETUP_MIN_SECONDS`] have passed or [`SETUP_MAX_REPS`] repetitions
/// ran; the reported `setup_s` is the median repetition.
pub const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 0.5;
const SETUP_MAX_REPS: usize = 100;

impl Run {
    /// An empty run over `models`.
    pub fn new(models: Vec<String>, trace: bool) -> Self {
        let n = models.len();
        Run {
            models,
            setup_s: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            tracer: Tracer::new(trace),
            host_ms: vec![Vec::new(); n],
            op_scale: BTreeMap::new(),
            sim_p50_us: BTreeMap::new(),
            sim_p99_us: BTreeMap::new(),
            counters: BTreeMap::new(),
            calibrator: Calibrator::default(),
            calib_s: Vec::new(),
        }
    }

    /// Runs `setup` repeatedly (see [`SETUP_MIN_REPS`]), recording each
    /// duration on the reference scale, and returns the last result.
    pub fn setup<T>(&mut self, mut setup: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let start = Instant::now();
        let mut before = self.calibrator.run();
        loop {
            let t = Instant::now();
            let out = setup()?;
            let secs = t.elapsed().as_secs_f64();
            let after = self.calibrator.run();
            self.setup_s.push(secs * bracket_scale(before, after));
            before = after;
            let reps = self.setup_s.len();
            if reps >= SETUP_MAX_REPS
                || (reps >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS)
            {
                return Ok(out);
            }
        }
    }

    /// Runs `op` round-robin over the models: `warmup` untimed rounds
    /// first, then whole rounds until `seconds` have passed. `op` gets the
    /// tracer, the model index and the operation index.
    pub fn measure(
        &mut self,
        warmup: usize,
        seconds: f64,
        mut op: impl FnMut(&mut Tracer, usize, u64) -> Result<Op, String>,
    ) {
        let n = self.models.len() as u64;
        let mut i = 0u64;
        for _ in 0..warmup * self.models.len() {
            let m = (i % n) as usize;
            if let Err(e) = op(&mut self.tracer, m, i) {
                self.fail(&e);
            }
            i += 1;
        }
        let start = Instant::now();
        let mut before = self.calibrator.run();
        self.calib_s.push(before);
        loop {
            let m = (i % n) as usize;
            if m == 0 && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            self.tracer.begin("op", m, i);
            let result = op(&mut self.tracer, m, i);
            self.tracer.end();
            let after = self.calibrator.run();
            self.calib_s.push(after);
            match result {
                Ok(o) => self.record(m, i, o, bracket_scale(before, after)),
                Err(e) => self.fail(&e),
            }
            before = after;
            i += 1;
        }
    }

    fn record(&mut self, m: usize, i: u64, o: Op, scale: f64) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.host_ms[m].push(o.host_ms * scale);
        self.op_scale.insert(i, scale);
        let key = (m, o.input);
        self.sim_p50_us.entry(key).or_default().push(o.sim_p50_us);
        self.sim_p99_us.entry(key).or_default().push(o.sim_p99_us);
        for (name, v) in o.counters {
            self.counters.entry(name).or_default().push(v);
        }
    }

    fn fail(&mut self, e: &str) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e.to_string());
        }
    }

    /// Reference calibration time over the median calibration time of the
    /// measured phase: below 1 when the machine ran slow.
    pub fn speed_scale(&self) -> f64 {
        REFERENCE_CALIB_S / median(&self.calib_s).unwrap_or(f64::NAN)
    }

    /// Host milliseconds per operation, on the reference scale: each
    /// model's median, combined across models by geometric mean.
    pub fn host_ms(&self) -> f64 {
        per_model(&self.host_ms, median)
    }

    /// Simulated p50 latency: for each model the mean over its inputs of
    /// the mean per input, combined across models by geometric mean. The
    /// simulator is deterministic, so this depends on the seed's inputs
    /// only, not on how many operations fitted into the run.
    pub fn sim_p50_us(&self) -> f64 {
        self.sim(&self.sim_p50_us)
    }

    /// Simulated p99 latency, reduced like [`Run::sim_p50_us`].
    pub fn sim_p99_us(&self) -> f64 {
        self.sim(&self.sim_p99_us)
    }

    fn sim(&self, samples: &BTreeMap<(usize, usize), Vec<f64>>) -> f64 {
        let per: Vec<Vec<f64>> = (0..self.models.len())
            .map(|m| {
                samples
                    .range((m, 0)..(m + 1, 0))
                    .filter_map(|(_, v)| mean(v))
                    .collect()
            })
            .collect();
        per_model(&per, mean)
    }

    /// Median set-up time, seconds, on the reference scale.
    pub fn setup_median_s(&self) -> f64 {
        median(&self.setup_s).unwrap_or(f64::NAN)
    }

    /// Median duration of the spans named `layer`, milliseconds, each on
    /// its operation's reference scale, reduced per model then by geometric
    /// mean; 0 when the workload never enters that layer.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); self.models.len()];
        for s in self.tracer.spans().iter().filter(|s| s.name == layer) {
            if let Some(scale) = self.op_scale.get(&s.op) {
                per[s.model].push(s.dur_us / 1e3 * scale);
            }
        }
        per.retain(|v| !v.is_empty());
        if per.is_empty() {
            0.0
        } else {
            per_model(&per, median)
        }
    }

    /// Figures on the reference scale, one human-readable line each: the
    /// set-up repetitions, the measured phase's speed scale, and per model
    /// the operation count, the number of distinct inputs, and the median
    /// host time.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{:>20}: {} reps, median {:.3} ms\n",
            "set-up",
            self.setup_s.len(),
            self.setup_median_s() * 1e3,
        );
        out.push_str(&format!(
            "{:>20}: {:.4}\n",
            "speed scale",
            self.speed_scale()
        ));
        for (m, name) in self.models.iter().enumerate() {
            let host = &self.host_ms[m];
            out.push_str(&format!(
                "{name:>20}: {:>5} ops  {} inputs  host {:>10.3} ms\n",
                host.len(),
                self.sim_p50_us.range((m, 0)..(m + 1, 0)).count(),
                median(host).unwrap_or(f64::NAN),
            ));
        }
        out
    }

    /// Mean of a per-operation counter over the run; 0 when the workload
    /// never reports it.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).and_then(|v| mean(v)).unwrap_or(0.0)
    }
}

/// The factor that puts a time measured between calibrations `before` and
/// `after` on the reference scale.
fn bracket_scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_CALIB_S / (before + after)
}

fn per_model(samples: &[Vec<f64>], reduce: fn(&[f64]) -> Option<f64>) -> f64 {
    let per: Option<Vec<f64>> = samples.iter().map(|v| reduce(v)).collect();
    per.and_then(|p| geomean(&p)).unwrap_or(f64::NAN)
}
