//! The program validation pass.
//!
//! Checks the buffer/activation/drain protocol of each channel's stream
//! against an abstract [`MachineSpec`] instead of a concrete DRAM config,
//! plus the whole-program barrier-balance property no single channel can
//! see.

use crate::inst::{IsaProgram, PimInst, ProgramError};
use std::error::Error;
use std::fmt;

/// The buffer resources a program is validated against, abstracted from
/// the concrete channel config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineSpec {
    /// Number of addressable staging buffers per channel.
    pub num_buffers: usize,
    /// Capacity of one staging buffer in bytes.
    pub buffer_bytes: usize,
}

impl MachineSpec {
    /// The Newton++ staging resources (4 × 4 KiB global buffers).
    pub fn newton_plus_plus() -> Self {
        MachineSpec {
            num_buffers: 4,
            buffer_bytes: 4096,
        }
    }
}

/// Protocol violations a program can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaViolation {
    /// A buffer index exceeds the machine's buffer count.
    BufferOutOfRange {
        /// Channel of the offending instruction.
        channel: usize,
        /// Instruction position within the channel.
        index: usize,
        /// Offending buffer.
        buffer: u8,
    },
    /// A BUFWRITE payload exceeds the buffer capacity.
    BufWriteOverflow {
        /// Channel of the offending instruction.
        channel: usize,
        /// Instruction position within the channel.
        index: usize,
        /// Payload size.
        bytes: u32,
    },
    /// MACBURST issued before any ROWACT selected a row.
    MacBeforeActivate {
        /// Channel of the offending instruction.
        channel: usize,
        /// Instruction position within the channel.
        index: usize,
    },
    /// MACBURST reads a buffer no BUFWRITE ever staged.
    MacFromEmptyBuffer {
        /// Channel of the offending instruction.
        channel: usize,
        /// Instruction position within the channel.
        index: usize,
        /// Offending buffer.
        buffer: u8,
    },
    /// DRAIN issued before any MACBURST produced results.
    DrainBeforeMac {
        /// Channel of the offending instruction.
        channel: usize,
        /// Instruction position within the channel.
        index: usize,
    },
    /// Channels disagree on barrier counts (no rendezvous possible).
    UnbalancedBarriers {
        /// First channel whose barrier count differs from channel 0's.
        channel: usize,
        /// Barriers on that channel.
        have: usize,
        /// Barriers on channel 0.
        want: usize,
    },
    /// Channels disagree on overlap-barrier counts: the relaxed member
    /// separators of a fused region must mark the same member boundaries
    /// on every channel, or the per-member accounting is meaningless.
    UnbalancedOverlapBarriers {
        /// First channel whose overlap-barrier count differs from
        /// channel 0's.
        channel: usize,
        /// Overlap barriers on that channel.
        have: usize,
        /// Overlap barriers on channel 0.
        want: usize,
    },
}

impl fmt::Display for IsaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaViolation::BufferOutOfRange {
                channel,
                index,
                buffer,
            } => write!(
                f,
                "channel {channel}, inst {index}: buffer {buffer} out of range"
            ),
            IsaViolation::BufWriteOverflow {
                channel,
                index,
                bytes,
            } => write!(
                f,
                "channel {channel}, inst {index}: BUFWRITE of {bytes} B overflows the buffer"
            ),
            IsaViolation::MacBeforeActivate { channel, index } => {
                write!(
                    f,
                    "channel {channel}, inst {index}: MACBURST before any ROWACT"
                )
            }
            IsaViolation::MacFromEmptyBuffer {
                channel,
                index,
                buffer,
            } => write!(
                f,
                "channel {channel}, inst {index}: MACBURST reads never-staged buffer {buffer}"
            ),
            IsaViolation::DrainBeforeMac { channel, index } => {
                write!(
                    f,
                    "channel {channel}, inst {index}: DRAIN before any MACBURST"
                )
            }
            IsaViolation::UnbalancedBarriers {
                channel,
                have,
                want,
            } => write!(
                f,
                "channel {channel} has {have} barriers, channel 0 has {want}"
            ),
            IsaViolation::UnbalancedOverlapBarriers {
                channel,
                have,
                want,
            } => write!(
                f,
                "channel {channel} has {have} overlap barriers, channel 0 has {want}"
            ),
        }
    }
}

impl Error for IsaViolation {}

impl From<ProgramError> for IsaViolation {
    fn from(e: ProgramError) -> Self {
        match e {
            ProgramError::UnbalancedBarriers {
                channel,
                have,
                want,
            } => IsaViolation::UnbalancedBarriers {
                channel,
                have,
                want,
            },
        }
    }
}

/// Validates a program against `spec`: buffers in range and staged before
/// read, a row activated before MAC bursts, results computed before
/// drains, payloads within capacity, and barriers — hard and overlap —
/// balanced across channels. Barriers synchronize but do not reset
/// channel state — a row activated before a barrier stays activated after
/// it — and overlap barriers neither synchronize nor reset: a fused
/// consumer's staging may legally precede its producer's drain on another
/// channel, which is exactly the overlap they exist to express.
///
/// # Errors
///
/// Returns the first [`IsaViolation`] found (barrier balance first, then
/// overlap-barrier balance, then channels in order).
pub fn validate_program(program: &IsaProgram, spec: &MachineSpec) -> Result<(), IsaViolation> {
    program.epochs().map_err(IsaViolation::from)?;
    let overlap_count = |ch: &[PimInst]| {
        ch.iter()
            .filter(|i| matches!(i, PimInst::OverlapBarrier))
            .count()
    };
    let want = program
        .channels()
        .first()
        .map(|c| overlap_count(c))
        .unwrap_or(0);
    for (channel, ch) in program.channels().iter().enumerate() {
        let have = overlap_count(ch);
        if have != want {
            return Err(IsaViolation::UnbalancedOverlapBarriers {
                channel,
                have,
                want,
            });
        }
    }
    let buffers = spec.num_buffers.max(1);
    for (channel, stream) in program.channels().iter().enumerate() {
        let mut staged = vec![false; buffers];
        let mut row_open = false;
        let mut results_pending = false;
        for (index, inst) in stream.iter().enumerate() {
            match *inst {
                PimInst::BufWrite { buffer, bytes } => {
                    if buffer as usize >= buffers {
                        return Err(IsaViolation::BufferOutOfRange {
                            channel,
                            index,
                            buffer,
                        });
                    }
                    if bytes as usize > spec.buffer_bytes {
                        return Err(IsaViolation::BufWriteOverflow {
                            channel,
                            index,
                            bytes,
                        });
                    }
                    staged[buffer as usize] = true;
                }
                PimInst::BankFeed { buffer, .. } => {
                    // Fused hand-off: stages the destination buffer like a
                    // BUFWRITE, but a producer-side feed may batch more
                    // bytes than one buffer holds (it never crosses the
                    // bus), so capacity is not checked.
                    if buffer as usize >= buffers {
                        return Err(IsaViolation::BufferOutOfRange {
                            channel,
                            index,
                            buffer,
                        });
                    }
                    staged[buffer as usize] = true;
                }
                PimInst::RowActivate { .. } => row_open = true,
                PimInst::MacBurst { buffer, .. } => {
                    if buffer as usize >= buffers {
                        return Err(IsaViolation::BufferOutOfRange {
                            channel,
                            index,
                            buffer,
                        });
                    }
                    if !row_open {
                        return Err(IsaViolation::MacBeforeActivate { channel, index });
                    }
                    if !staged[buffer as usize] {
                        return Err(IsaViolation::MacFromEmptyBuffer {
                            channel,
                            index,
                            buffer,
                        });
                    }
                    results_pending = true;
                }
                PimInst::Drain { .. } => {
                    if !results_pending {
                        return Err(IsaViolation::DrainBeforeMac { channel, index });
                    }
                    results_pending = false;
                }
                PimInst::HostBurst { .. } | PimInst::Barrier | PimInst::OverlapBarrier => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> MachineSpec {
        MachineSpec::newton_plus_plus()
    }

    #[test]
    fn canonical_sequence_validates() {
        let p = IsaProgram::from_channels(vec![vec![
            PimInst::BufWrite {
                buffer: 0,
                bytes: 128,
            },
            PimInst::RowActivate { row: 0 },
            PimInst::MacBurst {
                buffer: 0,
                repeat: 16,
            },
            PimInst::Barrier,
            PimInst::MacBurst {
                buffer: 0,
                repeat: 4,
            },
            PimInst::Drain { bytes: 64 },
        ]]);
        validate_program(&p, &spec()).unwrap();
    }

    #[test]
    fn protocol_violations_are_caught() {
        let mac_first = IsaProgram::from_channels(vec![vec![PimInst::MacBurst {
            buffer: 0,
            repeat: 1,
        }]]);
        assert!(matches!(
            validate_program(&mac_first, &spec()),
            Err(IsaViolation::MacBeforeActivate { .. })
        ));

        let unstaged = IsaProgram::from_channels(vec![vec![
            PimInst::RowActivate { row: 0 },
            PimInst::MacBurst {
                buffer: 1,
                repeat: 1,
            },
        ]]);
        assert!(matches!(
            validate_program(&unstaged, &spec()),
            Err(IsaViolation::MacFromEmptyBuffer { buffer: 1, .. })
        ));

        let drain_first = IsaProgram::from_channels(vec![vec![PimInst::Drain { bytes: 8 }]]);
        assert!(matches!(
            validate_program(&drain_first, &spec()),
            Err(IsaViolation::DrainBeforeMac { .. })
        ));

        let overflow = IsaProgram::from_channels(vec![vec![PimInst::BufWrite {
            buffer: 0,
            bytes: 1 << 20,
        }]]);
        assert!(matches!(
            validate_program(&overflow, &spec()),
            Err(IsaViolation::BufWriteOverflow { .. })
        ));

        let bad_buffer = IsaProgram::from_channels(vec![vec![PimInst::BufWrite {
            buffer: 200,
            bytes: 8,
        }]]);
        assert!(matches!(
            validate_program(&bad_buffer, &spec()),
            Err(IsaViolation::BufferOutOfRange { buffer: 200, .. })
        ));

        let unbalanced = IsaProgram::from_channels(vec![vec![PimInst::Barrier], vec![]]);
        assert!(matches!(
            validate_program(&unbalanced, &spec()),
            Err(IsaViolation::UnbalancedBarriers { channel: 1, .. })
        ));

        let overlap_unbalanced =
            IsaProgram::from_channels(vec![vec![PimInst::OverlapBarrier], vec![]]);
        assert!(matches!(
            validate_program(&overlap_unbalanced, &spec()),
            Err(IsaViolation::UnbalancedOverlapBarriers { channel: 1, .. })
        ));
    }

    #[test]
    fn overlap_linked_members_validate_with_carried_state() {
        // Head member stages/activates/computes and hands off near the
        // banks; the overlap-linked tail member's staging arrives via
        // BANKFEED and its MACBURST reuses the carried channel state —
        // legal precisely because OverlapBarrier resets nothing.
        let mut head = IsaProgram::from_channels(vec![vec![
            PimInst::BufWrite {
                buffer: 0,
                bytes: 128,
            },
            PimInst::RowActivate { row: 0 },
            PimInst::MacBurst {
                buffer: 0,
                repeat: 8,
            },
            PimInst::BankFeed {
                buffer: 0,
                bytes: 64,
            },
        ]]);
        let tail = IsaProgram::from_channels(vec![vec![
            PimInst::BankFeed {
                buffer: 1,
                bytes: 0,
            },
            PimInst::RowActivate { row: 1 },
            PimInst::MacBurst {
                buffer: 1,
                repeat: 4,
            },
            PimInst::Drain { bytes: 32 },
        ]]);
        head.append_overlapped(&tail);
        validate_program(&head, &spec()).unwrap();
    }
}
