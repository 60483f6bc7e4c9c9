//! A machine-speed probe, so host times from a shared machine compare
//! across runs.
//!
//! On a machine shared with other tenants the same single-threaded work can
//! take half as long again for seconds at a time. The benchmark times a
//! fixed loop of its own between operations and between set-up
//! repetitions, and scales each measured time by how long that loop took
//! around it compared with [`REFERENCE_CALIB_S`]. The loop does what the
//! workspace's host code mostly does — hash-map inserts, scattered memory
//! accesses and a sort — and calls none of the workspace's code.
//!
//! The probe must not depend on what the measured code did just before it.
//! Its storage (about 190 KB) fits in a core's L2 cache, it allocates only
//! on its first call, and each call runs the loop once untimed to bring
//! that storage back into the cache before it times [`TIMED_PASSES`]
//! passes. So neither the memory an operation touched nor the state of the
//! heap it left behind moves the probe: it measures the core's speed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// What [`Calibrator::run`] takes on an idle 2-vCPU Intel Xeon virtual
/// machine, seconds. Host times are reported as if measured at that speed.
pub const REFERENCE_CALIB_S: f64 = 0.55e-3;

/// Keys per pass: 4096 hash buckets of 40 bytes plus the sorted copy.
const KEYS: usize = 3_000;

/// Passes timed after the untimed warm-up pass.
const TIMED_PASSES: usize = 6;

/// The loop's storage, kept across calls.
#[derive(Debug, Default)]
pub struct Calibrator {
    map: HashMap<u64, [u64; 4], BuildHasherDefault<DefaultHasher>>,
    sorted: Vec<u64>,
}

impl Calibrator {
    /// Runs the loop once to warm the cache, then times
    /// [`TIMED_PASSES`] passes and returns their duration, seconds.
    pub fn run(&mut self) -> f64 {
        self.pass();
        let t = Instant::now();
        for _ in 0..TIMED_PASSES {
            self.pass();
        }
        t.elapsed().as_secs_f64()
    }

    fn pass(&mut self) {
        self.map.clear();
        self.map.reserve(KEYS);
        self.sorted.clear();
        self.sorted.reserve(KEYS);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..KEYS as u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.map.insert(x, [i, x, i ^ x, 0]);
        }
        self.sorted.extend(self.map.values().map(|v| v[2]));
        self.sorted.sort_unstable();
        std::hint::black_box(&self.sorted);
    }
}
