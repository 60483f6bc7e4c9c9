//! # pimflow-serve
//!
//! A deterministic discrete-event **serving simulator** on top of the
//! PIMFlow compiler and engine: where the rest of the workspace prices one
//! inference at a time, this crate models inference *services* in front
//! of simulated GPU+PIM devices and measures serving-grade metrics — tail
//! latency under load, throughput, batching behaviour, and PIM channel
//! utilization.
//!
//! There is one event loop ([`sim`]). It drives a fleet of nodes behind a
//! router; [`run_fleet`] runs it as configured, and single-node serving
//! ([`run`]) runs it as a fleet of one node with one tenant. The pieces:
//!
//! 1. **Arrivals** ([`arrival`], [`traffic`]) — fixed-rate, Poisson and
//!    replayed-trace streams, plus the fleet's diurnal, bursty and
//!    heavy-tailed per-tenant shapes, all from the workspace's seeded PRNG.
//! 2. **Admission and routing** ([`admission`], [`router`]) — per-tenant
//!    token buckets, queue-depth shedding, and round-robin, least-loaded
//!    or SLO-aware routing.
//! 3. **Dynamic batching** ([`queue`]) — FIFO requests flush into a batch
//!    at `max_batch` or after a batching timeout.
//! 4. **Compilation + plan cache** ([`profile`], [`cache`]) — each batch is
//!    compiled via [`pimflow::batch::with_batch`] and the execution-mode
//!    search, memoized per node in an LRU cache keyed on (model, policy,
//!    batch size, channel mask), then priced on
//!    [`pimflow::engine::execute`].
//! 5. **Faults** ([`fault`]) — seeded channel failure/recovery scenarios:
//!    a node's cached plans are repaired onto the degraded channel mask and
//!    in-flight batches retried; node-granular failures reroute queued
//!    requests. Nothing admitted is ever dropped.
//! 6. **Autoscaling** ([`autoscale`]) — a pure decision rule the loop
//!    applies to standby and active nodes.
//! 7. **Observability** ([`metrics`], [`events`]) — monotonic counters, a
//!    streaming log-bucketed latency histogram (p50/p95/p99 within one
//!    bucket of exact), per-channel utilization, per-phase fault metrics,
//!    and a byte-deterministic, time-ordered JSONL event trace.
//!
//! ## Example
//!
//! ```
//! use pimflow::policy::Policy;
//! use pimflow_serve::{run, ArrivalSpec, ServeConfig};
//!
//! let cfg = ServeConfig {
//!     arrival: ArrivalSpec::Poisson { rps: 2000.0 },
//!     duration_s: 0.02,
//!     seed: 42,
//!     ..ServeConfig::new("toy", Policy::Pimflow)
//! };
//! let outcome = run(&cfg).unwrap();
//! assert_eq!(outcome.report.counters.arrived, outcome.report.counters.completed);
//! assert!(outcome.report.p99_us >= outcome.report.p50_us);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod arrival;
pub mod autoscale;
pub mod cache;
pub mod config;
pub mod events;
pub mod fault;
pub mod metrics;
pub mod profile;
pub mod queue;
pub mod router;
pub mod serve;
pub mod sim;
pub mod traffic;

pub use admission::TokenBucket;
pub use arrival::{arrival_times_us, parse_trace, ArrivalSpec};
pub use autoscale::{decide, ScaleDecision, ScaleSignal};
pub use cache::{PlanCache, PlanKey, DEFAULT_PLAN_CACHE_CAP};
pub use config::{
    AdmissionConfig, AutoscaleConfig, FleetConfig, NodeClass, RouterPolicy, TenantSpec,
};
pub use events::EventLog;
pub use fault::{FaultEvent, FaultScenario};
pub use metrics::{Counters, Histogram};
pub use profile::{compile_batch, repair_batch, BatchProfile};
pub use queue::{BatchQueue, QueuedRequest};
pub use router::{route, NodeLoad};
pub use serve::{normalize_model_name, run, ServeConfig, ServeError, ServeReport, ServeRun};
pub use sim::{run_fleet, FleetError, FleetOutcome, FleetReport, NodeReport, TenantReport};
pub use traffic::{tenant_seed, traffic_times_us, zipf_weights, TrafficSpec};
