//! Command-trace serialization.
//!
//! The original artifact materializes DRAM-PIM command traces as files that
//! the Ramulator back-end replays ("TVM DRAM-PIM back-end interfaces with
//! this simulator to generate PIM command traces for PIM-offloaded layers
//! and measures the trace execution time", §5). This module provides the
//! same interchange point: a stable line-oriented text format with an exact
//! round-trip guarantee.
//!
//! ```text
//! # pimflow dram-pim trace v1 channel=0
//! GWRITE buf=0 bytes=128
//! GACT row=3
//! COMP buf=0 repeat=16
//! READRES bytes=64
//! GPUBURST bytes=512
//! ```

use crate::command::PimCommand;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Header line marking a trace file and its format version.
pub const TRACE_HEADER: &str = "# pimflow dram-pim trace v1";

/// Errors produced while parsing a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseTraceError {}

/// Renders one command as a trace line.
pub fn command_to_line(cmd: &PimCommand) -> String {
    match *cmd {
        PimCommand::Gwrite { buffer, bytes } => format!("GWRITE buf={buffer} bytes={bytes}"),
        PimCommand::GAct { row } => format!("GACT row={row}"),
        PimCommand::Comp { buffer, repeat } => format!("COMP buf={buffer} repeat={repeat}"),
        PimCommand::ReadRes { bytes } => format!("READRES bytes={bytes}"),
        PimCommand::BankFeed { buffer, bytes } => format!("BANKFEED buf={buffer} bytes={bytes}"),
        PimCommand::GpuBurst { bytes } => format!("GPUBURST bytes={bytes}"),
    }
}

/// Renders per-channel traces into the text format (one section per
/// channel).
pub fn traces_to_text(traces: &[Vec<PimCommand>]) -> String {
    let mut out = String::new();
    for (ch, trace) in traces.iter().enumerate() {
        let _ = writeln!(out, "{TRACE_HEADER} channel={ch}");
        for cmd in trace {
            out.push_str(&command_to_line(cmd));
            out.push('\n');
        }
    }
    out
}

fn parse_field(token: &str, key: &str, line: usize) -> Result<u64, ParseTraceError> {
    let value = token
        .strip_prefix(key)
        .and_then(|t| t.strip_prefix('='))
        .ok_or_else(|| ParseTraceError {
            line,
            message: format!("expected `{key}=<n>`, got `{token}`"),
        })?;
    value.parse().map_err(|_| ParseTraceError {
        line,
        message: format!("invalid number in `{token}`"),
    })
}

/// Parses the text format back into per-channel traces.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on any malformed line. Blank lines are
/// ignored; comment lines other than the channel header are ignored too.
pub fn parse_traces(text: &str) -> Result<Vec<Vec<PimCommand>>, ParseTraceError> {
    let mut traces: Vec<Vec<PimCommand>> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with(TRACE_HEADER) {
            traces.push(Vec::new());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let current = traces.last_mut().ok_or_else(|| ParseTraceError {
            line: line_no,
            message: "command before any channel header".into(),
        })?;
        let mut parts = line.split_whitespace();
        let op = parts.next().expect("non-empty line has a first token");
        let cmd = match op {
            "GWRITE" => {
                let buf = parse_field(parts.next().unwrap_or(""), "buf", line_no)?;
                let bytes = parse_field(parts.next().unwrap_or(""), "bytes", line_no)?;
                PimCommand::Gwrite {
                    buffer: buf as u8,
                    bytes: bytes as u32,
                }
            }
            "GACT" => {
                let row = parse_field(parts.next().unwrap_or(""), "row", line_no)?;
                PimCommand::GAct { row: row as u32 }
            }
            "COMP" => {
                let buf = parse_field(parts.next().unwrap_or(""), "buf", line_no)?;
                let repeat = parse_field(parts.next().unwrap_or(""), "repeat", line_no)?;
                PimCommand::Comp {
                    buffer: buf as u8,
                    repeat: repeat as u32,
                }
            }
            "READRES" => {
                let bytes = parse_field(parts.next().unwrap_or(""), "bytes", line_no)?;
                PimCommand::ReadRes {
                    bytes: bytes as u32,
                }
            }
            "BANKFEED" => {
                let buf = parse_field(parts.next().unwrap_or(""), "buf", line_no)?;
                let bytes = parse_field(parts.next().unwrap_or(""), "bytes", line_no)?;
                PimCommand::BankFeed {
                    buffer: buf as u8,
                    bytes: bytes as u32,
                }
            }
            "GPUBURST" => {
                let bytes = parse_field(parts.next().unwrap_or(""), "bytes", line_no)?;
                PimCommand::GpuBurst {
                    bytes: bytes as u32,
                }
            }
            other => {
                return Err(ParseTraceError {
                    line: line_no,
                    message: format!("unknown command `{other}`"),
                })
            }
        };
        if parts.next().is_some() {
            return Err(ParseTraceError {
                line: line_no,
                message: "trailing tokens".into(),
            });
        }
        current.push(cmd);
    }
    Ok(traces)
}

/// Structural problems a command trace can have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceViolation {
    /// A buffer index exceeds the configured number of global buffers.
    BufferOutOfRange {
        /// Command position in the trace.
        index: usize,
        /// Offending buffer.
        buffer: u8,
    },
    /// COMP issued before any G_ACT opened a row.
    CompBeforeActivate {
        /// Command position in the trace.
        index: usize,
    },
    /// COMP issued from a buffer no GWRITE ever filled.
    CompFromEmptyBuffer {
        /// Command position in the trace.
        index: usize,
        /// Offending buffer.
        buffer: u8,
    },
    /// READRES issued before any COMP produced results.
    ReadResBeforeComp {
        /// Command position in the trace.
        index: usize,
    },
    /// A GWRITE payload exceeds the global buffer capacity.
    GwriteOverflow {
        /// Command position in the trace.
        index: usize,
        /// Payload size.
        bytes: u32,
    },
}

impl fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceViolation::BufferOutOfRange { index, buffer } => {
                write!(f, "command {index}: buffer {buffer} out of range")
            }
            TraceViolation::CompBeforeActivate { index } => {
                write!(f, "command {index}: COMP before any G_ACT")
            }
            TraceViolation::CompFromEmptyBuffer { index, buffer } => {
                write!(
                    f,
                    "command {index}: COMP reads never-written buffer {buffer}"
                )
            }
            TraceViolation::ReadResBeforeComp { index } => {
                write!(f, "command {index}: READRES before any COMP")
            }
            TraceViolation::GwriteOverflow { index, bytes } => {
                write!(
                    f,
                    "command {index}: GWRITE of {bytes} B overflows the global buffer"
                )
            }
        }
    }
}

impl Error for TraceViolation {}

/// Validates the canonical command protocol of one channel trace
/// (`GWRITE… G_ACT (COMP…)… READRES`, §4.1): buffers in range and written
/// before read, a row activated before COMP, results computed before
/// READRES, payloads within buffer capacity.
///
/// # Errors
///
/// Returns the first [`TraceViolation`] found.
pub fn validate_trace(
    trace: &[PimCommand],
    cfg: &crate::config::PimConfig,
) -> Result<(), TraceViolation> {
    let buffers = cfg.num_global_buffers.max(1);
    let mut written = vec![false; buffers];
    let mut row_open = false;
    let mut results_pending = false;
    for (index, cmd) in trace.iter().enumerate() {
        match *cmd {
            PimCommand::Gwrite { buffer, bytes } => {
                if buffer as usize >= buffers {
                    return Err(TraceViolation::BufferOutOfRange { index, buffer });
                }
                if bytes as usize > cfg.global_buffer_bytes {
                    return Err(TraceViolation::GwriteOverflow { index, bytes });
                }
                written[buffer as usize] = true;
            }
            PimCommand::GAct { .. } => row_open = true,
            PimCommand::Comp { buffer, .. } => {
                if buffer as usize >= buffers {
                    return Err(TraceViolation::BufferOutOfRange { index, buffer });
                }
                if !row_open {
                    return Err(TraceViolation::CompBeforeActivate { index });
                }
                if !written[buffer as usize] {
                    return Err(TraceViolation::CompFromEmptyBuffer { index, buffer });
                }
                results_pending = true;
            }
            PimCommand::ReadRes { .. } => {
                if !results_pending {
                    return Err(TraceViolation::ReadResBeforeComp { index });
                }
                results_pending = false;
            }
            PimCommand::BankFeed { buffer, .. } => {
                // Fused hand-off: fills the destination buffer like a
                // GWRITE, but the payload never crosses the bus and a
                // producer-side feed may batch more bytes than one buffer
                // holds, so capacity is not checked.
                if buffer as usize >= buffers {
                    return Err(TraceViolation::BufferOutOfRange { index, buffer });
                }
                written[buffer as usize] = true;
            }
            PimCommand::GpuBurst { .. } => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Vec<PimCommand>> {
        vec![
            vec![
                PimCommand::Gwrite {
                    buffer: 0,
                    bytes: 128,
                },
                PimCommand::GAct { row: 3 },
                PimCommand::Comp {
                    buffer: 0,
                    repeat: 16,
                },
                PimCommand::ReadRes { bytes: 64 },
            ],
            vec![PimCommand::GpuBurst { bytes: 512 }],
        ]
    }

    #[test]
    fn roundtrip_is_exact() {
        let traces = sample();
        let text = traces_to_text(&traces);
        let back = parse_traces(&text).unwrap();
        assert_eq!(traces, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        let text = format!("{TRACE_HEADER} channel=0\nFROB bytes=1\n");
        let err = parse_traces(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown command"));
    }

    #[test]
    fn parse_rejects_bad_numbers() {
        let text = format!("{TRACE_HEADER} channel=0\nGACT row=banana\n");
        assert!(parse_traces(&text).is_err());
    }

    #[test]
    fn parse_rejects_headerless_commands() {
        assert!(parse_traces("GACT row=0\n").is_err());
    }

    #[test]
    fn blank_lines_and_comments_are_ignored() {
        let text = format!("{TRACE_HEADER} channel=0\n\n# a comment\nGACT row=1\n");
        let traces = parse_traces(&text).unwrap();
        assert_eq!(traces, vec![vec![PimCommand::GAct { row: 1 }]]);
    }

    #[test]
    fn validator_accepts_canonical_blocks() {
        use crate::command::CommandBlock;
        let cfg = crate::config::PimConfig::default();
        let block = CommandBlock {
            buffer_rows: 4,
            gwrite_bytes: 256,
            gwrites_per_row: 1,
            gacts: 3,
            comps_per_gact: 8,
            readres_bytes: 64,
            oc_splits: 4,
            row_base: 0,
        };
        validate_trace(&block.expand().collect::<Vec<_>>(), &cfg).unwrap();
    }

    #[test]
    fn validator_rejects_protocol_violations() {
        let cfg = crate::config::PimConfig::default();
        let comp_first = vec![PimCommand::Comp {
            buffer: 0,
            repeat: 1,
        }];
        assert!(matches!(
            validate_trace(&comp_first, &cfg),
            Err(TraceViolation::CompBeforeActivate { .. })
        ));
        let unwritten = vec![
            PimCommand::GAct { row: 0 },
            PimCommand::Comp {
                buffer: 0,
                repeat: 1,
            },
        ];
        assert!(matches!(
            validate_trace(&unwritten, &cfg),
            Err(TraceViolation::CompFromEmptyBuffer { .. })
        ));
        let read_first = vec![PimCommand::ReadRes { bytes: 8 }];
        assert!(matches!(
            validate_trace(&read_first, &cfg),
            Err(TraceViolation::ReadResBeforeComp { .. })
        ));
        let overflow = vec![PimCommand::Gwrite {
            buffer: 0,
            bytes: 1 << 20,
        }];
        assert!(matches!(
            validate_trace(&overflow, &cfg),
            Err(TraceViolation::GwriteOverflow { .. })
        ));
        let bad_buffer = vec![PimCommand::Gwrite {
            buffer: 200,
            bytes: 8,
        }];
        assert!(matches!(
            validate_trace(&bad_buffer, &cfg),
            Err(TraceViolation::BufferOutOfRange { .. })
        ));
    }

    #[test]
    fn replayed_trace_times_identically() {
        use crate::config::PimConfig;
        use crate::timing::{run_channels, RunOptions};
        let traces = sample();
        let cfg = PimConfig::default();
        let direct = run_channels(&cfg, &traces, RunOptions::new());
        let replayed = run_channels(
            &cfg,
            &parse_traces(&traces_to_text(&traces)).unwrap(),
            RunOptions::new(),
        );
        assert_eq!(direct, replayed);
    }
}
