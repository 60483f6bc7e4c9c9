//! # pimflow-pool
//!
//! A from-scratch scoped worker pool built on `std::thread` + mpsc
//! channels — no external dependencies, matching the workspace's
//! offline-build constraint.
//!
//! The pool exists for the embarrassingly-parallel loops of the stack: the
//! per-node MD-DP profiling and per-chain pipeline costing of the
//! Algorithm 1 search, the model × policy sweeps of `pimflow-bench`, and
//! plan precompilation in `pimflow-serve`. All of them share one shape —
//! map a pure function over an indexed work list — so the pool exposes
//! exactly that: [`WorkerPool::map`] and its stateful sibling
//! [`WorkerPool::map_with`].
//!
//! ## Determinism contract
//!
//! Results are merged **by input index, never by completion order**: the
//! output `Vec` at position `i` always holds the result for `items[i]`,
//! regardless of which worker computed it or when it finished. Callers that
//! keep per-worker state (memo shards) receive the final states in
//! worker-index order so their merge is reproducible too. As long as the
//! mapped function is pure, a pool of any width produces bit-identical
//! output — the property `search_is_deterministic` and the byte-identical
//! plan/JSONL guarantees rely on.
//!
//! ## Width control
//!
//! [`WorkerPool::from_env`] reads `PIMFLOW_JOBS` (the CLI's `--jobs` flag
//! sets the same variable); unset, empty, or `0` fall back to
//! [`std::thread::available_parallelism`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;

/// Hard cap on pool width: far above any real machine, it only bounds
/// accidental `PIMFLOW_JOBS=999999` thread explosions.
const MAX_JOBS: usize = 512;

/// Environment variable controlling the default pool width.
pub const JOBS_ENV_VAR: &str = "PIMFLOW_JOBS";

/// A fixed-width scoped worker pool.
///
/// The pool is a lightweight value (it holds only its width); workers are
/// scoped threads spawned per [`map`](WorkerPool::map) call, so closures
/// may freely borrow from the caller's stack and every panic propagates to
/// the caller after all workers join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    jobs: usize,
}

impl WorkerPool {
    /// Creates a pool running up to `jobs` workers (clamped to `1..=512`).
    pub fn new(jobs: usize) -> Self {
        WorkerPool {
            jobs: jobs.clamp(1, MAX_JOBS),
        }
    }

    /// A single-worker pool: every `map` runs inline on the calling thread,
    /// in input order, with zero thread overhead.
    pub fn sequential() -> Self {
        WorkerPool::new(1)
    }

    /// Builds a pool from the `PIMFLOW_JOBS` environment variable, falling
    /// back to the host's available parallelism when unset, empty, or `0`.
    pub fn from_env() -> Self {
        WorkerPool::new(jobs_from_setting(
            std::env::var(JOBS_ENV_VAR).ok().as_deref(),
        ))
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items` on the pool, returning results in input order.
    ///
    /// `f` receives the item index and the item. See the crate docs for the
    /// determinism contract.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after all workers have joined.
    pub fn map<T, R>(&self, items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        self.map_with(items, || (), |(), i, item| f(i, item)).0
    }

    /// Like [`map`](WorkerPool::map), but each worker carries a mutable
    /// state created by `init` (a memo shard, a scratch buffer) across all
    /// items it processes.
    ///
    /// Returns `(results, states)`: results in input order, final worker
    /// states in worker-index order. Item-to-worker assignment is dynamic
    /// (an atomic work queue), so the *contents* of each state depend on
    /// scheduling — callers must only use states in ways where merge order
    /// and shard boundaries cannot change the observable result (e.g. pure
    /// memo caches).
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after all workers have joined.
    pub fn map_with<T, R, S>(
        &self,
        items: &[T],
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize, &T) -> R + Sync,
    ) -> (Vec<R>, Vec<S>)
    where
        T: Sync,
        R: Send,
        S: Send,
    {
        self.map_consume_with(items.iter().collect(), init, f)
    }

    /// Like [`map_with`](WorkerPool::map_with), but the pool takes the
    /// items *by value*: each item is handed to exactly one worker, which
    /// consumes it. This is how the graph executor ships pre-allocated
    /// output tensors into workers that fill them in place, and the one
    /// worker loop every other map runs on ([`map_with`](WorkerPool::map_with)
    /// hands it item references).
    ///
    /// The determinism contract is unchanged — results come back in input
    /// order, states in worker-index order.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after all workers have joined.
    pub fn map_consume_with<T, R, S>(
        &self,
        items: Vec<T>,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize, T) -> R + Sync,
    ) -> (Vec<R>, Vec<S>)
    where
        T: Send,
        R: Send,
        S: Send,
    {
        let workers = self.jobs.min(items.len()).max(1);
        if workers == 1 {
            let mut state = init();
            let results = items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(&mut state, i, item))
                .collect();
            return (results, vec![state]);
        }

        // Each index is claimed exactly once via the atomic counter, so the
        // mutex around each slot is uncontended — it only exists to move the
        // item out through a shared reference.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let mut out: Vec<Option<R>> = (0..slots.len()).map(|_| None).collect();
        let states = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    let next = &next;
                    let slots = &slots;
                    let init = &init;
                    let f = &f;
                    scope.spawn(move || {
                        let mut state = init();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= slots.len() {
                                break;
                            }
                            let item = slots[i]
                                .lock()
                                .expect("slot lock")
                                .take()
                                .expect("each slot consumed once");
                            let r = f(&mut state, i, item);
                            if tx.send((i, r)).is_err() {
                                break;
                            }
                        }
                        state
                    })
                })
                .collect();
            drop(tx);
            // Merge by input index, not completion order: the channel
            // delivers results as workers finish, but each lands in its
            // item's slot.
            while let Ok((i, r)) = rx.recv() {
                out[i] = Some(r);
            }
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(state) => state,
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect::<Vec<S>>()
        });
        let results = out
            .into_iter()
            .map(|slot| slot.expect("one result per item"))
            .collect();
        (results, states)
    }

    /// Stateless sibling of [`map_consume_with`](WorkerPool::map_consume_with).
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after all workers have joined.
    pub fn map_consume<T, R>(&self, items: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        self.map_consume_with(items, || (), |(), i, item| f(i, item))
            .0
    }
}

/// Splits `0..n` into at most `parts` contiguous, near-equal ranges (the
/// first `n % parts` ranges are one longer). Returns fewer than `parts`
/// ranges when `n < parts`, and no ranges when `n == 0` — never an empty
/// range. Used to shard the rows/channels of a single kernel across
/// workers while keeping each worker's slice contiguous.
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let mut out = Vec::with_capacity(parts);
    let (base, extra) = (n / parts, n % parts);
    let mut begin = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(begin..begin + len);
        begin += len;
    }
    out
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::from_env()
    }
}

/// Resolves a `PIMFLOW_JOBS`-style setting to a worker count: a positive
/// integer is used as-is (clamped to 512); anything else — unset, empty,
/// `0`, garbage — falls back to the host's available parallelism.
pub fn jobs_from_setting(setting: Option<&str>) -> usize {
    match setting.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n.min(MAX_JOBS),
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_input_order_at_any_width() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1usize, 2, 3, 8, 64] {
            let pool = WorkerPool::new(jobs);
            let got = pool.map(&items, |_, &x| x * x);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn map_handles_empty_and_single_item_inputs() {
        let pool = WorkerPool::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.map(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.map(&[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn map_with_returns_one_state_per_worker() {
        let items: Vec<usize> = (0..100).collect();
        let pool = WorkerPool::new(4);
        let (results, states) = pool.map_with(
            &items,
            || 0usize,
            |count, _, &x| {
                *count += 1;
                x
            },
        );
        assert_eq!(results, items);
        assert_eq!(states.len(), 4);
        // Every item was processed by exactly one worker.
        assert_eq!(states.iter().sum::<usize>(), items.len());
    }

    #[test]
    fn sequential_pool_runs_in_input_order_with_one_state() {
        let items = [3u32, 1, 4, 1, 5];
        let (results, states) =
            WorkerPool::sequential().map_with(&items, Vec::new, |seen: &mut Vec<u32>, _, &x| {
                seen.push(x);
                x
            });
        assert_eq!(results, items);
        assert_eq!(states, vec![items.to_vec()]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits: Vec<AtomicU64> = (0..512).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..hits.len()).collect();
        WorkerPool::new(7).map(&items, |_, &i| hits[i].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            WorkerPool::new(4).map(&items, |_, &x| {
                assert!(x != 17, "injected failure");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn map_consume_preserves_input_order_at_any_width() {
        // Boxed items prove values are truly moved, not copied.
        let expected: Vec<u64> = (0..97).map(|x| x * 3).collect();
        for jobs in [1usize, 2, 5, 16] {
            let items: Vec<Box<u64>> = (0..97).map(Box::new).collect();
            let got = WorkerPool::new(jobs).map_consume(items, |_, b| *b * 3);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn map_consume_with_hands_each_item_to_one_worker() {
        let items: Vec<usize> = (0..64).collect();
        let (results, states) = WorkerPool::new(4).map_consume_with(
            items,
            Vec::new,
            |seen: &mut Vec<usize>, i, item| {
                seen.push(item);
                assert_eq!(i, item);
                item
            },
        );
        assert_eq!(results, (0..64).collect::<Vec<_>>());
        let mut all: Vec<usize> = states.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn map_consume_handles_empty_input() {
        let items: Vec<u32> = Vec::new();
        assert!(WorkerPool::new(8).map_consume(items, |_, x| x).is_empty());
    }

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for n in [0usize, 1, 2, 7, 64, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(n, parts);
                assert!(ranges.len() <= parts);
                assert!(ranges.iter().all(|r| !r.is_empty()), "n={n} parts={parts}");
                let mut covered = 0;
                for r in &ranges {
                    assert_eq!(r.start, covered, "contiguous");
                    covered = r.end;
                }
                assert_eq!(covered, n, "n={n} parts={parts}");
                if n > 0 {
                    let max = ranges.iter().map(|r| r.len()).max().unwrap();
                    let min = ranges.iter().map(|r| r.len()).min().unwrap();
                    assert!(max - min <= 1, "near-equal split");
                }
            }
        }
    }

    #[test]
    fn jobs_setting_resolution() {
        assert_eq!(jobs_from_setting(Some("3")), 3);
        assert_eq!(jobs_from_setting(Some(" 12 ")), 12);
        assert_eq!(jobs_from_setting(Some("999999")), MAX_JOBS);
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(jobs_from_setting(Some("0")), auto);
        assert_eq!(jobs_from_setting(Some("nope")), auto);
        assert_eq!(jobs_from_setting(Some("")), auto);
        assert_eq!(jobs_from_setting(None), auto);
    }

    #[test]
    fn width_is_clamped() {
        assert_eq!(WorkerPool::new(0).jobs(), 1);
        assert_eq!(WorkerPool::new(1_000_000).jobs(), MAX_JOBS);
    }
}
