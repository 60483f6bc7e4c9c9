//! Command blocks: the unit of generated PIM work.
//!
//! A block expands into the Newton command order (§2.1) written as typed
//! ISA instructions: `BUFWRITE` (Newton's `GWRITE`) pushes input data into
//! a global buffer, `ROWACT` (`G_ACT`) activates filter rows across all
//! banks, `MACBURST` (`COMP`) triggers column-I/O-wide MACs against a
//! buffer, and `DRAIN` (`READRES`) reads the result latches. PIMFlow's
//! extensions (§4.1) appear as attributes: the target buffer index
//! (multiple global buffers), strided GWRITE, and the latency-hiding
//! overlap handled by the timing engine.

use pimflow_isa::PimInst;

/// One unit of generated PIM work for a layer tile: a group of input rows
/// that share a streaming pass over a resident filter tile.
///
/// The DRAM-PIM code generator (in the `pimflow` core crate) lowers each
/// CONV/FC tile into a sequence of these blocks; the scheduler distributes
/// them (whole or split) across PIM channels; each block expands into the
/// canonical `BUFWRITE* (ROWACT MACBURST*)* DRAIN` sequence (§4.1's
/// "GWRITE-G_ACT-COMP-READRES" order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandBlock {
    /// Input rows processed by this block (each occupies one global buffer;
    /// at most [`crate::PimConfig::num_global_buffers`]).
    pub buffer_rows: u8,
    /// Bytes of one input row pushed per GWRITE.
    pub gwrite_bytes: u32,
    /// GWRITE commands needed per input row: 1 with strided GWRITE, else one
    /// per contiguous input segment (§4.1).
    pub gwrites_per_row: u16,
    /// G_ACT commands needed to stream the filter tile once.
    pub gacts: u32,
    /// COMP commands per G_ACT **per buffer row** (at most the config's
    /// column I/Os per row).
    pub comps_per_gact: u32,
    /// Result bytes read per input row after the streaming pass.
    pub readres_bytes: u32,
    /// Independent output-column groups this block can split into at
    /// `ReadRes` scheduling granularity (one group per bank-column stripe).
    pub oc_splits: u16,
    /// First filter-row identifier this block activates. Blocks of the same
    /// layer tile share row ids, so consecutive blocks on a channel hit the
    /// open row; column-split parts get disjoint bases.
    pub row_base: u32,
}

impl CommandBlock {
    /// Total COMP issues this block performs.
    pub fn total_comps(&self) -> u64 {
        self.gacts as u64 * self.comps_per_gact as u64 * self.buffer_rows as u64
    }

    /// Total GWRITE commands this block performs.
    pub fn total_gwrites(&self) -> u64 {
        self.buffer_rows as u64 * self.gwrites_per_row as u64
    }

    /// Expands the block into its command sequence for one channel,
    /// generated lazily so a timing engine can consume it without
    /// materialising a trace.
    ///
    /// The order follows the paper: all GWRITEs (one buffer per input row),
    /// then for each G_ACT a COMP burst per buffer, then one READRES
    /// draining every row.
    pub fn expand(&self) -> impl Iterator<Item = PimInst> {
        let b = *self;
        self.gwrites()
            .chain((0..b.gacts).flat_map(move |a| b.stream(a)))
            .chain(std::iter::once(b.drain()))
    }

    /// The staging GWRITEs: `gwrites_per_row` segments into each input
    /// row's buffer.
    pub(crate) fn gwrites(&self) -> impl Iterator<Item = PimInst> {
        let b = *self;
        let bytes = b.gwrite_bytes / b.gwrites_per_row.max(1) as u32;
        (0..b.buffer_rows).flat_map(move |buffer| {
            (0..b.gwrites_per_row).map(move |_| PimInst::BufWrite { buffer, bytes })
        })
    }

    /// Streaming pass `a` (of `gacts`): the G_ACT of filter row
    /// `row_base + a`, then one COMP burst per live buffer. Passes differ
    /// only in their row, which is what lets a timing engine fast-forward
    /// them as periods.
    pub(crate) fn stream(&self, a: u32) -> impl Iterator<Item = PimInst> {
        let b = *self;
        std::iter::once(PimInst::RowActivate {
            row: b.row_base + a,
        })
        .chain((0..b.buffer_rows).map(move |buffer| PimInst::MacBurst {
            buffer,
            repeat: b.comps_per_gact,
        }))
    }

    /// The READRES draining every row's result latches.
    pub(crate) fn drain(&self) -> PimInst {
        PimInst::Drain {
            bytes: self.readres_bytes * self.buffer_rows as u32,
        }
    }

    /// The highest filter-row identifier the block activates, if it
    /// activates any.
    pub fn max_row(&self) -> Option<u32> {
        self.gacts.checked_sub(1).map(|last| self.row_base + last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> CommandBlock {
        CommandBlock {
            buffer_rows: 4,
            gwrite_bytes: 128,
            gwrites_per_row: 1,
            gacts: 2,
            comps_per_gact: 8,
            readres_bytes: 32,
            oc_splits: 4,
            row_base: 0,
        }
    }

    #[test]
    fn expansion_order_is_gwrite_gact_comp_readres() {
        let cmds: Vec<PimInst> = sample_block().expand().collect();
        // 4 GWRITEs, then (GACT, 4 COMPs) x2, then READRES.
        assert!(matches!(cmds[0], PimInst::BufWrite { buffer: 0, .. }));
        assert!(matches!(cmds[3], PimInst::BufWrite { buffer: 3, .. }));
        assert!(matches!(cmds[4], PimInst::RowActivate { row: 0 }));
        assert!(matches!(
            cmds[5],
            PimInst::MacBurst {
                buffer: 0,
                repeat: 8
            }
        ));
        assert!(matches!(cmds[9], PimInst::RowActivate { row: 1 }));
        assert!(matches!(cmds.last(), Some(PimInst::Drain { bytes: 128 })));
    }

    #[test]
    fn totals() {
        let b = sample_block();
        assert_eq!(b.total_comps(), 2 * 8 * 4);
        assert_eq!(b.total_gwrites(), 4);
    }

    #[test]
    fn non_strided_splits_gwrites() {
        let mut b = sample_block();
        b.gwrites_per_row = 4;
        let cmds: Vec<PimInst> = b.expand().collect();
        let gwrites = cmds
            .iter()
            .filter(|c| matches!(c, PimInst::BufWrite { .. }))
            .count();
        assert_eq!(gwrites, 16);
        // Payload is split across the segment GWRITEs.
        assert!(matches!(cmds[0], PimInst::BufWrite { bytes: 32, .. }));
    }
}
