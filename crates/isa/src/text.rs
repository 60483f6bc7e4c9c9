//! Text round-trip for ISA programs.
//!
//! The line-oriented format lets programs be dumped, diffed, and replayed
//! as files (the role of the artifact's per-layer command traces, §5):
//!
//! ```text
//! # pimflow pim-isa v1 channel=0
//! BUFWRITE buf=0 bytes=128
//! ROWACT row=3
//! MACBURST buf=0 repeat=16
//! DRAIN bytes=64
//! HOSTBURST bytes=512
//! BARRIER
//! OBARRIER
//! ```
//!
//! [`parse_program`] inverts [`program_to_text`] exactly; the golden test
//! in the workspace suite pins every mnemonic.

use crate::inst::{IsaProgram, PimInst};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Header line marking a program file, its format version, and a channel
/// section.
pub const PROGRAM_HEADER: &str = "# pimflow pim-isa v1";

/// Errors produced while parsing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProgramError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ISA parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseProgramError {}

/// Renders one instruction as a program line.
pub fn inst_to_line(inst: &PimInst) -> String {
    match *inst {
        PimInst::BufWrite { buffer, bytes } => format!("BUFWRITE buf={buffer} bytes={bytes}"),
        PimInst::RowActivate { row } => format!("ROWACT row={row}"),
        PimInst::MacBurst { buffer, repeat } => format!("MACBURST buf={buffer} repeat={repeat}"),
        PimInst::Drain { bytes } => format!("DRAIN bytes={bytes}"),
        PimInst::BankFeed { buffer, bytes } => format!("BANKFEED buf={buffer} bytes={bytes}"),
        PimInst::HostBurst { bytes } => format!("HOSTBURST bytes={bytes}"),
        PimInst::Barrier => "BARRIER".into(),
        PimInst::OverlapBarrier => "OBARRIER".into(),
    }
}

/// Renders a program into the text format (one section per channel).
pub fn program_to_text(program: &IsaProgram) -> String {
    let mut out = String::new();
    for (ch, stream) in program.channels().iter().enumerate() {
        let _ = writeln!(out, "{PROGRAM_HEADER} channel={ch}");
        for inst in stream {
            out.push_str(&inst_to_line(inst));
            out.push('\n');
        }
    }
    out
}

/// Parses `key=<n>` into the field's type; a number the field cannot hold
/// is an error, not a truncation.
fn parse_field<T: std::str::FromStr>(
    token: &str,
    key: &str,
    line: usize,
) -> Result<T, ParseProgramError> {
    let value = token
        .strip_prefix(key)
        .and_then(|t| t.strip_prefix('='))
        .ok_or_else(|| ParseProgramError {
            line,
            message: format!("expected `{key}=<n>`, got `{token}`"),
        })?;
    value.parse().map_err(|_| ParseProgramError {
        line,
        message: format!("invalid number in `{token}`"),
    })
}

/// Parses the text format back into a program.
///
/// # Errors
///
/// Returns [`ParseProgramError`] on any malformed line. Blank lines are
/// ignored; comment lines other than the channel header are ignored too.
pub fn parse_program(text: &str) -> Result<IsaProgram, ParseProgramError> {
    let mut channels: Vec<Vec<PimInst>> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with(PROGRAM_HEADER) {
            channels.push(Vec::new());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let current = channels.last_mut().ok_or_else(|| ParseProgramError {
            line: line_no,
            message: "instruction before any channel header".into(),
        })?;
        let mut parts = line.split_whitespace();
        let op = parts.next().expect("non-empty line has a first token");
        let mut next = || parts.next().unwrap_or("");
        let inst = match op {
            "BUFWRITE" => PimInst::BufWrite {
                buffer: parse_field(next(), "buf", line_no)?,
                bytes: parse_field(next(), "bytes", line_no)?,
            },
            "ROWACT" => PimInst::RowActivate {
                row: parse_field(next(), "row", line_no)?,
            },
            "MACBURST" => PimInst::MacBurst {
                buffer: parse_field(next(), "buf", line_no)?,
                repeat: parse_field(next(), "repeat", line_no)?,
            },
            "DRAIN" => PimInst::Drain {
                bytes: parse_field(next(), "bytes", line_no)?,
            },
            "BANKFEED" => PimInst::BankFeed {
                buffer: parse_field(next(), "buf", line_no)?,
                bytes: parse_field(next(), "bytes", line_no)?,
            },
            "HOSTBURST" => PimInst::HostBurst {
                bytes: parse_field(next(), "bytes", line_no)?,
            },
            "BARRIER" => PimInst::Barrier,
            "OBARRIER" => PimInst::OverlapBarrier,
            other => {
                return Err(ParseProgramError {
                    line: line_no,
                    message: format!("unknown instruction `{other}`"),
                })
            }
        };
        if parts.next().is_some() {
            return Err(ParseProgramError {
                line: line_no,
                message: "trailing tokens".into(),
            });
        }
        current.push(inst);
    }
    Ok(IsaProgram::from_channels(channels))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IsaProgram {
        IsaProgram::from_channels(vec![
            vec![
                PimInst::BufWrite {
                    buffer: 0,
                    bytes: 128,
                },
                PimInst::RowActivate { row: 3 },
                PimInst::MacBurst {
                    buffer: 0,
                    repeat: 16,
                },
                PimInst::Barrier,
                PimInst::OverlapBarrier,
                PimInst::Drain { bytes: 64 },
            ],
            vec![PimInst::HostBurst { bytes: 512 }, PimInst::Barrier],
        ])
    }

    #[test]
    fn roundtrip_is_exact() {
        let p = sample();
        assert_eq!(parse_program(&program_to_text(&p)).unwrap(), p);
    }

    #[test]
    fn parse_rejects_garbage() {
        let text = format!("{PROGRAM_HEADER} channel=0\nFROB bytes=1\n");
        let err = parse_program(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown instruction"));
    }

    #[test]
    fn parse_rejects_bad_numbers_and_trailing_tokens() {
        let bad = format!("{PROGRAM_HEADER} channel=0\nROWACT row=banana\n");
        assert!(parse_program(&bad).is_err());
        let trailing = format!("{PROGRAM_HEADER} channel=0\nBARRIER extra\n");
        assert!(parse_program(&trailing).is_err());
    }

    #[test]
    fn parse_rejects_numbers_the_field_cannot_hold() {
        for line in [
            "BUFWRITE buf=256 bytes=1",
            "ROWACT row=4294967296",
            "DRAIN bytes=-1",
        ] {
            let text = format!("{PROGRAM_HEADER} channel=0\n{line}\n");
            let err = parse_program(&text).unwrap_err();
            assert_eq!(err.line, 2, "{line}");
            assert!(err.message.contains("invalid number"), "{line}");
        }
        let max = format!("{PROGRAM_HEADER} channel=0\nBUFWRITE buf=255 bytes=4294967295\n");
        assert_eq!(
            parse_program(&max).unwrap().channels()[0],
            vec![PimInst::BufWrite {
                buffer: 255,
                bytes: u32::MAX
            }]
        );
    }

    #[test]
    fn parse_rejects_headerless_instructions() {
        assert!(parse_program("ROWACT row=0\n").is_err());
    }

    #[test]
    fn blank_lines_and_comments_are_ignored() {
        let text = format!("{PROGRAM_HEADER} channel=0\n\n# a comment\nROWACT row=1\n");
        let p = parse_program(&text).unwrap();
        assert_eq!(p.channels(), &[vec![PimInst::RowActivate { row: 1 }]][..]);
    }
}
