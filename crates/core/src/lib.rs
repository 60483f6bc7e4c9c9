//! # pimflow
//!
//! The PIMFlow compiler and runtime (CGO 2023), reproduced in Rust: an
//! end-to-end software stack that accelerates CNN inference on a GPU whose
//! GDDR6 memory embeds Newton/AiM-style processing-in-memory MAC units.
//!
//! The crate mirrors the paper's three components (Fig. 5):
//!
//! * **PIM-aware graph transformations** ([`passes`]) — the multi-device
//!   data-parallel (MD-DP) split pass and the pipelining pass create
//!   inter-node parallelism that lets GPU and PIM execute concurrently;
//!   [`passes::cleanup::cleanup`] canonicalizes the transformed graphs. Every
//!   transformation is numerically exact (verified against the
//!   `pimflow-kernels` reference executor).
//! * **Execution mode and task size search** ([`search`], Algorithm 1) —
//!   profiles every PIM-candidate layer at 10% MD-DP ratio intervals and
//!   every pipelining candidate subgraph on the simulated hardware, then
//!   picks the optimal combination by dynamic programming.
//! * **DRAM-PIM back-end** ([`codegen`], [`memopt`], [`engine`]) — lowers
//!   offloaded CONV/FC nodes to DRAM-PIM command blocks, schedules them
//!   across PIM channels, prices data movement with the memory-layout
//!   optimizer, and simulates the mixed-parallel GPU+PIM timeline.
//!
//! The six offloading mechanisms compared in the paper's evaluation are
//! packaged as [`policy::Policy`].
//!
//! ## Example
//!
//! ```
//! use pimflow::engine::{execute, EngineConfig};
//! use pimflow::search::{apply_plan, Search};
//!
//! use pimflow_ir::models;
//!
//! # fn main() -> pimflow::error::Result<()> {
//! let model = models::toy();
//! let cfg = EngineConfig::pimflow();
//! let plan = Search::new(&model, &cfg).run()?;
//! let transformed = apply_plan(&model, &plan)?;
//! let report = execute(&transformed, &cfg)?;
//! let baseline = execute(&model, &EngineConfig::baseline_gpu())?;
//! assert!(report.total_us < baseline.total_us);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod autotune;
pub mod backend;
pub mod batch;
pub mod codegen;
pub mod costcache;
pub mod engine;
pub mod error;
pub mod evaluation;
pub mod layout;
pub mod memopt;
pub mod passes;
pub mod placement;
pub mod policy;
pub mod report;
pub mod search;

pub use error::{Error, Result};
