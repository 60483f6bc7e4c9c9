//! # pimflow-fleet
//!
//! The `pimflow` command-line driver and the public face of **fleet-scale
//! multi-tenant serving**: heterogeneous PIM-GPU nodes behind a router,
//! with tenants, admission control, autoscaling, and node-granular faults.
//!
//! The simulator itself lives in `pimflow-serve`: its one discrete-event
//! loop ([`pimflow_serve::sim`]) runs both fleets ([`run_fleet`]) and
//! single-node serving (`pimflow_serve::run`, a fleet of one node with one
//! tenant). This crate re-exports the fleet-facing names so existing
//! callers keep their paths:
//!
//! 1. **Traffic** ([`traffic`]) — seeded per-tenant arrival streams:
//!    diurnal sinusoid load, Markov-modulated bursts, and heavy-tailed
//!    (Zipf) per-tenant rate mixes.
//! 2. **Admission** ([`admission`]) — per-tenant continuous-refill token
//!    buckets; queue-depth shedding happens after routing, in the loop.
//! 3. **Routing** ([`router`]) — round-robin, least-loaded by queue depth,
//!    and SLO-aware by predicted batch latency from the compiled plans.
//! 4. **Autoscaling** ([`autoscale`]) — a pure decision rule over sampled
//!    queue-depth/utilization signals.
//! 5. **Simulation** ([`sim`]) — the event loop and the per-tenant,
//!    per-node and fleet-wide reports.
//!
//! Everything is deterministic: one fleet seed fans out into per-tenant
//! stream seeds, host-side compilation parallelism (`PIMFLOW_JOBS`) never
//! touches the simulated timeline, and reports and event traces are
//! byte-identical at any pool width.
//!
//! ## Example
//!
//! ```
//! use pimflow_fleet::{run_fleet, FleetConfig, TenantSpec, TrafficSpec};
//!
//! let cfg = FleetConfig::new(
//!     2,
//!     vec![
//!         TenantSpec::new("alpha", "toy", TrafficSpec::Poisson { rps: 2000.0 }),
//!         TenantSpec::new("beta", "toy", TrafficSpec::Diurnal {
//!             mean_rps: 1000.0,
//!             amplitude: 0.8,
//!             period_s: 0.05,
//!         }),
//!     ],
//! );
//! let outcome = run_fleet(&cfg).unwrap();
//! assert_eq!(outcome.report.completed, outcome.report.admitted);
//! assert_eq!(outcome.report.dropped, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use pimflow_serve::{admission, autoscale, config, router, sim, traffic};
pub use pimflow_serve::{
    decide, route, run_fleet, tenant_seed, traffic_times_us, zipf_weights, AdmissionConfig,
    AutoscaleConfig, FleetConfig, FleetError, FleetOutcome, FleetReport, NodeClass, NodeLoad,
    NodeReport, RouterPolicy, ScaleDecision, ScaleSignal, TenantReport, TenantSpec, TokenBucket,
    TrafficSpec,
};
