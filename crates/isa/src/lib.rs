//! # pimflow-isa
//!
//! A small typed PIM instruction set sitting between the compiler and the
//! hardware model. Plans lower to [`IsaProgram`]s — per-channel streams of
//! [`PimInst`]s for buffer writes, row activations, MAC bursts, result
//! drains, and inter-op barriers — and the Newton-style DRAM-PIM
//! interpreter in `pimflow-pimsim` assigns a program its simulated
//! execution time. PIMSIM-NN frames exactly this boundary as the right cut
//! for simulating PIM devices: new hardware means a new interpreter, not a
//! new compiler path.
//!
//! The crate is hardware-neutral on purpose: the interpreter needs the
//! cycle-level channel engine, so it lives with that engine.
//!
//! Programs have an exact text round-trip ([`text`], mirroring the command
//! trace format of `pimflow-pimsim`) and a machine-checkable protocol
//! ([`validate`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod inst;
pub mod text;
pub mod validate;

pub use inst::{FusedRole, IsaProgram, PimInst, ProgramError};
pub use text::{inst_to_line, parse_program, program_to_text, ParseProgramError, PROGRAM_HEADER};
pub use validate::{validate_program, IsaViolation, MachineSpec};
