//! # pimflow-pimsim
//!
//! Cycle-level Newton/AiM-style GDDR6 DRAM-PIM simulator — the Rust
//! counterpart of the paper's extended-Ramulator back-end (§5).
//!
//! The simulator executes **PIM command traces** (`GWRITE`, `G_ACT`, `COMP`,
//! `READRES`, plus interleaved GPU bursts) against the Table 1 timing
//! parameters, models PIMFlow's architectural extensions (multiple global
//! buffers, strided GWRITE, GWRITE latency hiding, §4.1), schedules command
//! blocks across PIM-enabled channels at three granularities (Fig. 6), and
//! reports cycles plus CACTI-style energy.
//!
//! ## Example
//!
//! ```
//! use pimflow_pimsim::{
//!     schedule, run_channels, CommandBlock, PimConfig, RunOptions,
//!     ScheduleGranularity,
//! };
//!
//! // A small 1x1-conv-like tile: 4 input rows sharing one filter pass.
//! let block = CommandBlock {
//!     buffer_rows: 4,
//!     gwrite_bytes: 128,
//!     gwrites_per_row: 1,
//!     gacts: 2,
//!     comps_per_gact: 8,
//!     readres_bytes: 32,
//!     oc_splits: 4,
//!     row_base: 0,
//! };
//! let cfg = PimConfig::default();
//! let traces = schedule(&[block], 4, ScheduleGranularity::Comp, &cfg);
//! let stats = run_channels(&cfg, &traces, RunOptions::new());
//! assert!(stats.cycles > 0);
//! assert_eq!(stats.comps, 2 * 8 * 4);
//! ```
//!
//! The same traces lift into the typed `pimflow-isa` program form via
//! [`lift_traces`], where [`NewtonInterpreter`] gives them exactly the
//! timing above — the simulator is the Newton *interpretation* of the ISA.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod command;
pub mod config;
pub mod energy;
pub mod interp;
pub mod memsys;
pub mod scheduler;
pub mod timing;
pub mod trace;

pub use command::{CommandBlock, PimCommand};
pub use config::{ConfigError, DramTiming, PimConfig};
pub use energy::{pim_energy_breakdown, pim_energy_nj, PimEnergyBreakdown, PimEnergyParams};
pub use interp::{lift_command, lift_traces, NewtonInterpreter};
pub use memsys::MemorySystem;
pub use scheduler::{
    assign, estimate_block_cycles, schedule, split_for_channels, Assignment, BlockRuns,
    ScheduleGranularity,
};
pub use timing::{run_channels, ChannelEngine, ChannelStats, RunOptions};
pub use trace::{
    command_to_line, parse_traces, traces_to_text, validate_trace, ParseTraceError, TraceViolation,
};
