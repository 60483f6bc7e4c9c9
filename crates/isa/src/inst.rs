//! The instruction set and the per-channel program container.

use std::error::Error;
use std::fmt;

/// One typed PIM instruction.
///
/// The vocabulary is that of a Newton-style DRAM-PIM channel: stage an
/// input tile near the banks, select a weight row, burst
/// multiply-accumulates against a staged buffer, drain accumulated
/// results, and synchronize channels between ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimInst {
    /// Stage `bytes` of input into near-bank buffer `buffer`.
    ///
    /// Newton times this as a GWRITE over the channel bus.
    BufWrite {
        /// Destination buffer index.
        buffer: u8,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// Activate weight row `row` for the following MAC bursts.
    RowActivate {
        /// Row index within the bank group.
        row: u32,
    },
    /// Issue `repeat` back-to-back MAC operations reading buffer `buffer`.
    MacBurst {
        /// Source buffer of the staged inputs.
        buffer: u8,
        /// Number of consecutive MAC operations.
        repeat: u32,
    },
    /// Drain `bytes` of accumulated results back over the channel bus.
    Drain {
        /// Result payload size in bytes.
        bytes: u32,
    },
    /// Move `bytes` of results into near-bank buffer `buffer` without
    /// crossing the channel bus — the fused-dataflow hand-off between a
    /// producer layer and its consumer on the same channels. Replaces a
    /// producer's `Drain`/consumer's `BufWrite` pair when the
    /// intermediate activation stays resident near the banks. The
    /// producer's side carries the payload; the consumer's side is a
    /// zero-byte staging marker (the move already happened), so the
    /// hand-off is priced and counted exactly once.
    BankFeed {
        /// Destination buffer index of the consumer's staged inputs.
        buffer: u8,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// Ordinary host (GPU) memory traffic occupying the channel bus — the
    /// contention term, not a PIM operation.
    HostBurst {
        /// Burst size in bytes.
        bytes: u32,
    },
    /// Inter-op barrier: instructions after it start only once every
    /// channel has finished the instructions before it.
    Barrier,
    /// Relaxed member separator inside one fused region: a marker between
    /// consecutive group members' instruction streams that imposes **no
    /// cross-channel rendezvous and no engine-state reset**. Each channel
    /// flows straight from the producer's tail into the consumer's
    /// staging, so a consumer's `RowActivate`/`BankFeed` epoch overlaps
    /// the producer's MAC/drain tail on other channels — the fused-epoch
    /// overlap the group pricing exploits. The interpreter treats it as free
    /// (barriers are structure, not work); only [`PimInst::Barrier`]
    /// splits epochs.
    OverlapBarrier,
}

/// Where a layer sits inside a fusion group — the discriminant that
/// selects which bus crossings of its program a fused lowering elides.
///
/// A fusion group keeps inter-layer activations near the banks: the
/// producer's result [`PimInst::Drain`] and the consumer's input
/// [`PimInst::BufWrite`] both become [`PimInst::BankFeed`]s, so neither
/// payload occupies the channel bus. The hand-off is one physical move,
/// and the producer's side pays for it: its `BankFeed` carries the
/// payload bytes, while the consumer's staging rewrites to a zero-byte
/// `BankFeed` — the data is already resident near the banks, so the
/// instruction only marks the buffer staged (and its bytes are not
/// counted again by the timing, traffic, or energy models). `Standalone`
/// is the identity — the unfused lowering every existing path uses, bit
/// for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FusedRole {
    /// Not part of any fusion group (the unfused lowering, unchanged).
    #[default]
    Standalone,
    /// First layer of a group: inputs arrive from the host, outputs feed
    /// the next member near the banks (Drain → BankFeed).
    Head,
    /// Interior layer: both input staging and result drain stay near the
    /// banks (BufWrite → BankFeed and Drain → BankFeed).
    Middle,
    /// Last layer of a group: inputs arrive near the banks
    /// (BufWrite → BankFeed), results drain to the host as usual.
    Tail,
}

impl FusedRole {
    /// Whether this role receives its inputs from the previous group
    /// member near the banks (consumer side of a fused edge).
    pub fn feeds_in(self) -> bool {
        matches!(self, FusedRole::Middle | FusedRole::Tail)
    }

    /// Whether this role hands its outputs to the next group member near
    /// the banks (producer side of a fused edge).
    pub fn feeds_out(self) -> bool {
        matches!(self, FusedRole::Head | FusedRole::Middle)
    }

    /// Rewrites one instruction for this role: the bus crossings a fused
    /// placement elides become [`PimInst::BankFeed`]s. The producer side
    /// keeps the payload bytes (it pays the one near-bank move); the
    /// consumer side stages for free — its inputs were delivered by the
    /// upstream member's `BankFeed`, so a second priced move would double
    /// count the hand-off. `Standalone` is the identity.
    pub fn rewrite(self, inst: PimInst) -> PimInst {
        match inst {
            PimInst::BufWrite { buffer, .. } if self.feeds_in() => {
                PimInst::BankFeed { buffer, bytes: 0 }
            }
            PimInst::Drain { bytes } if self.feeds_out() => PimInst::BankFeed { buffer: 0, bytes },
            other => other,
        }
    }

    /// Rewrites every instruction of `program` for this role (see
    /// [`FusedRole::rewrite`]).
    pub fn rewrite_program(self, program: &IsaProgram) -> IsaProgram {
        if self == FusedRole::Standalone {
            return program.clone();
        }
        IsaProgram::from_channels(
            program
                .channels()
                .iter()
                .map(|ch| ch.iter().map(|&i| self.rewrite(i)).collect())
                .collect(),
        )
    }
}

/// Structural errors of a program as a whole (single instructions are
/// checked by [`crate::validate::validate_program`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramError {
    /// Channels disagree on how many [`PimInst::Barrier`]s they contain,
    /// so the rendezvous the barriers describe cannot happen.
    UnbalancedBarriers {
        /// First channel whose barrier count differs from channel 0's.
        channel: usize,
        /// Barriers on that channel.
        have: usize,
        /// Barriers on channel 0.
        want: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnbalancedBarriers {
                channel,
                have,
                want,
            } => write!(
                f,
                "channel {channel} has {have} barriers, channel 0 has {want}"
            ),
        }
    }
}

impl Error for ProgramError {}

/// A typed PIM program: one instruction stream per memory channel.
///
/// A program is the unit the compiler emits and the Newton interpreter of
/// `pimflow-pimsim` times. Within a channel, instructions execute in order;
/// across channels, only [`PimInst::Barrier`]s order execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IsaProgram {
    channels: Vec<Vec<PimInst>>,
}

impl IsaProgram {
    /// An empty program over `channels` channels.
    pub fn new(channels: usize) -> Self {
        IsaProgram {
            channels: vec![Vec::new(); channels],
        }
    }

    /// Wraps per-channel instruction streams into a program.
    pub fn from_channels(channels: Vec<Vec<PimInst>>) -> Self {
        IsaProgram { channels }
    }

    /// The per-channel instruction streams, in channel order.
    pub fn channels(&self) -> &[Vec<PimInst>] {
        &self.channels
    }

    /// Number of channels the program spans.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Total instruction count over all channels.
    pub fn len(&self) -> usize {
        self.channels.iter().map(Vec::len).sum()
    }

    /// Whether the program contains no instructions at all.
    pub fn is_empty(&self) -> bool {
        self.channels.iter().all(Vec::is_empty)
    }

    /// Appends one instruction to `channel`'s stream.
    ///
    /// # Panics
    ///
    /// Panics when `channel` is out of range.
    pub fn push(&mut self, channel: usize, inst: PimInst) {
        self.channels[channel].push(inst);
    }

    /// Appends a [`PimInst::Barrier`] to every channel.
    pub fn barrier(&mut self) {
        for ch in &mut self.channels {
            ch.push(PimInst::Barrier);
        }
    }

    /// Links `other` after this program with a separating barrier — the
    /// inter-op composition: the next op's instructions wait for every
    /// channel to finish the current op's.
    ///
    /// # Panics
    ///
    /// Panics when the channel counts differ.
    pub fn append(&mut self, other: &IsaProgram) {
        assert_eq!(
            self.num_channels(),
            other.num_channels(),
            "cannot link programs over different channel counts"
        );
        self.barrier();
        for (ch, stream) in self.channels.iter_mut().zip(other.channels.iter()) {
            ch.extend_from_slice(stream);
        }
    }

    /// Links `other` after this program with a relaxed
    /// [`PimInst::OverlapBarrier`] on every channel — the intra-group
    /// composition: each channel runs straight from this program's tail
    /// into `other`'s head with no rendezvous and no state reset, so the
    /// two members' epochs overlap wherever the channels are imbalanced.
    ///
    /// # Panics
    ///
    /// Panics when the channel counts differ.
    pub fn append_overlapped(&mut self, other: &IsaProgram) {
        assert_eq!(
            self.num_channels(),
            other.num_channels(),
            "cannot link programs over different channel counts"
        );
        for (ch, stream) in self.channels.iter_mut().zip(other.channels.iter()) {
            ch.push(PimInst::OverlapBarrier);
            ch.extend_from_slice(stream);
        }
    }

    /// Shifts every [`PimInst::RowActivate`] row index by `delta`
    /// (saturating). Overlap-linked group members share one continuous
    /// engine run, so without distinct row ranges a consumer's activations
    /// would spuriously hit the producer's open row; offsetting each
    /// member past its predecessor's rows keeps the row-buffer behaviour
    /// physical.
    pub fn offset_rows(&mut self, delta: u32) {
        for ch in &mut self.channels {
            for inst in ch.iter_mut() {
                if let PimInst::RowActivate { row } = inst {
                    *row = row.saturating_add(delta);
                }
            }
        }
    }

    /// The largest [`PimInst::RowActivate`] row index in the program, if
    /// any rows are activated at all.
    pub fn max_row(&self) -> Option<u32> {
        self.channels
            .iter()
            .flatten()
            .filter_map(|i| match i {
                PimInst::RowActivate { row } => Some(*row),
                _ => None,
            })
            .max()
    }

    /// Splits each channel's stream at its barriers: element `e` of the
    /// result holds, per channel, the instruction slice of epoch `e`
    /// (barriers themselves excluded). A barrier-free program is a single
    /// epoch.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::UnbalancedBarriers`] when the channels
    /// disagree on the number of barriers.
    pub fn epochs(&self) -> Result<Vec<Vec<&[PimInst]>>, ProgramError> {
        let count = |ch: &[PimInst]| ch.iter().filter(|i| matches!(i, PimInst::Barrier)).count();
        let want = self.channels.first().map(|c| count(c)).unwrap_or(0);
        for (channel, ch) in self.channels.iter().enumerate() {
            let have = count(ch);
            if have != want {
                return Err(ProgramError::UnbalancedBarriers {
                    channel,
                    have,
                    want,
                });
            }
        }
        let mut epochs: Vec<Vec<&[PimInst]>> = vec![Vec::new(); want + 1];
        for ch in &self.channels {
            let mut start = 0usize;
            let mut epoch = 0usize;
            for (i, inst) in ch.iter().enumerate() {
                if matches!(inst, PimInst::Barrier) {
                    epochs[epoch].push(&ch[start..i]);
                    start = i + 1;
                    epoch += 1;
                }
            }
            epochs[epoch].push(&ch[start..]);
        }
        Ok(epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut p = IsaProgram::new(2);
        p.push(0, PimInst::RowActivate { row: 1 });
        p.push(1, PimInst::Drain { bytes: 4 });
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.num_channels(), 2);
    }

    #[test]
    fn append_inserts_barrier_between_ops() {
        let mut a = IsaProgram::from_channels(vec![vec![PimInst::RowActivate { row: 0 }]]);
        let b = IsaProgram::from_channels(vec![vec![PimInst::Drain { bytes: 8 }]]);
        a.append(&b);
        assert_eq!(
            a.channels()[0],
            vec![
                PimInst::RowActivate { row: 0 },
                PimInst::Barrier,
                PimInst::Drain { bytes: 8 },
            ]
        );
    }

    #[test]
    fn epochs_split_at_barriers() {
        let mut p = IsaProgram::new(2);
        p.push(0, PimInst::RowActivate { row: 0 });
        p.barrier();
        p.push(1, PimInst::Drain { bytes: 8 });
        let epochs = p.epochs().unwrap();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0][0], &[PimInst::RowActivate { row: 0 }][..]);
        assert!(epochs[0][1].is_empty());
        assert!(epochs[1][0].is_empty());
        assert_eq!(epochs[1][1], &[PimInst::Drain { bytes: 8 }][..]);
    }

    #[test]
    fn overlap_links_stay_in_one_epoch() {
        let mut a = IsaProgram::from_channels(vec![vec![PimInst::RowActivate { row: 0 }]]);
        let b = IsaProgram::from_channels(vec![vec![PimInst::Drain { bytes: 8 }]]);
        a.append_overlapped(&b);
        assert_eq!(
            a.channels()[0],
            vec![
                PimInst::RowActivate { row: 0 },
                PimInst::OverlapBarrier,
                PimInst::Drain { bytes: 8 },
            ]
        );
        // Only hard barriers split epochs: the overlap-linked program is
        // still a single epoch, which is what lets the channels flow
        // through member boundaries.
        let epochs = a.epochs().unwrap();
        assert_eq!(epochs.len(), 1);
    }

    #[test]
    fn offset_rows_shifts_activations_only() {
        let mut p = IsaProgram::from_channels(vec![vec![
            PimInst::RowActivate { row: 3 },
            PimInst::MacBurst {
                buffer: 0,
                repeat: 2,
            },
            PimInst::RowActivate { row: 7 },
        ]]);
        assert_eq!(p.max_row(), Some(7));
        p.offset_rows(10);
        assert_eq!(
            p.channels()[0],
            vec![
                PimInst::RowActivate { row: 13 },
                PimInst::MacBurst {
                    buffer: 0,
                    repeat: 2,
                },
                PimInst::RowActivate { row: 17 },
            ]
        );
        assert_eq!(p.max_row(), Some(17));
        assert_eq!(IsaProgram::new(1).max_row(), None);
    }

    #[test]
    fn unbalanced_barriers_detected() {
        let p = IsaProgram::from_channels(vec![vec![PimInst::Barrier], vec![]]);
        assert_eq!(
            p.epochs(),
            Err(ProgramError::UnbalancedBarriers {
                channel: 1,
                have: 0,
                want: 1
            })
        );
    }
}
