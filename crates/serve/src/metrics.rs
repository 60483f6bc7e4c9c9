//! Serving observability: monotonic counters and streaming latency
//! histograms.
//!
//! The latency [`Histogram`] lives in the shared [`pimflow_metrics`] crate;
//! this module re-exports it next to the single-node [`Counters`].

use pimflow_json::json_struct;

pub use pimflow_metrics::Histogram;

/// Monotonic serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Requests that arrived within the run window.
    pub arrived: u64,
    /// Requests whose batch completed.
    pub completed: u64,
    /// Batches dispatched to the device.
    pub batches: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses (compilations).
    pub cache_misses: u64,
    /// Times a search (`pimflow::search::Search::run`) actually ran.
    pub search_invocations: u64,
    /// Channel availability transitions replayed from the fault scenario.
    pub fault_events: u64,
    /// In-flight batches aborted by a channel failure and re-dispatched.
    pub retries: u64,
    /// Cached plans repaired (`ExecutionPlan::repair`) after a failure.
    pub repairs: u64,
}

json_struct!(Counters {
    arrived,
    completed,
    batches,
    cache_hits,
    cache_misses,
    search_invocations,
    fault_events,
    retries,
    repairs
});
