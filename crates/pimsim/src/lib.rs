//! # pimflow-pimsim
//!
//! Cycle-level Newton/AiM-style GDDR6 DRAM-PIM simulator — the Rust
//! counterpart of the paper's extended-Ramulator back-end (§5).
//!
//! The simulator executes typed `pimflow-isa` programs (`BUFWRITE`,
//! `ROWACT`, `MACBURST`, `DRAIN`, plus interleaved host bursts) with the
//! timing of Newton's `GWRITE`, `G_ACT`, `COMP` and `READRES` commands
//! under the Table 1 parameters, models PIMFlow's architectural extensions
//! (multiple global buffers, strided GWRITE, GWRITE latency hiding, §4.1),
//! schedules command blocks across PIM-enabled channels at three
//! granularities (Fig. 6), and reports cycles plus CACTI-style energy.
//! The ISA is the one command vocabulary: only the timing is Newton's.
//!
//! ## Example
//!
//! ```
//! use pimflow_pimsim::{
//!     schedule, CommandBlock, NewtonInterpreter, PimConfig, ScheduleGranularity,
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
//! let program = schedule(&[block], 4, ScheduleGranularity::Comp, &cfg);
//! let (stats, per_channel) = NewtonInterpreter::new(&cfg).run(&program);
//! assert!(stats.cycles > 0);
//! assert_eq!(stats.comps, 2 * 8 * 4);
//! assert_eq!(per_channel.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod command;
pub mod config;
pub mod energy;
pub mod interp;
pub mod memsys;
pub mod scheduler;
pub mod timing;

pub use command::CommandBlock;
pub use config::{ConfigError, DramTiming, PimConfig};
pub use energy::{pim_energy_breakdown, pim_energy_nj, PimEnergyBreakdown, PimEnergyParams};
pub use interp::NewtonInterpreter;
pub use memsys::MemorySystem;
pub use scheduler::{
    assign, estimate_block_cycles, schedule, split_for_channels, Assignment, BlockRuns,
    ScheduleGranularity,
};
pub use timing::{ChannelEngine, ChannelStats};
