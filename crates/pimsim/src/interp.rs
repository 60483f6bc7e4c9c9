//! The Newton interpretation of the typed PIM ISA.
//!
//! `pimflow-isa` programs are hardware-neutral; this module gives them their
//! Newton timing. The channel engine ([`ChannelEngine::execute`]) runs ISA
//! instructions directly, each with the timing of its Newton command:
//!
//! | ISA                  | Newton timing                                  |
//! |----------------------|------------------------------------------------|
//! | `BUFWRITE`           | `GWRITE`: CAS latency plus bus transfer        |
//! | `ROWACT`             | `G_ACT`: `tRC`-spaced, free on an open row     |
//! | `MACBURST`           | `COMP`s at `tCCD`, after row and buffer        |
//! | `DRAIN`              | `READRES`: after the COMPs, over the bus       |
//! | `BANKFEED`           | near-bank move at I/O width, no bus            |
//! | `HOSTBURST`          | GPU traffic: occupies the bus only             |
//! | `BARRIER`, `OBARRIER`| no-ops that touch no engine state              |
//!
//! `BARRIER`s split a program into epochs that run back to back, each
//! channel's engine state reset at the barrier. `OBARRIER`s split nothing:
//! overlap-linked member streams run through one continuous channel
//! engine, so carried row/refresh/pacing state and cross-channel
//! imbalance hiding are exactly the overlap semantics.
//!
//! The compiler prices layers by streaming their block schedule through
//! the channel engine rather than through a compiled program, and must
//! land on exactly what interpreting the program reports
//! (`tests/pricer.rs` holds that contract).

use crate::config::PimConfig;
use crate::timing::{ChannelEngine, ChannelStats};
use pimflow_isa::IsaProgram;

/// Executes ISA programs on the cycle-level Newton channel engine.
#[derive(Debug, Clone, Copy)]
pub struct NewtonInterpreter<'a> {
    cfg: &'a PimConfig,
}

impl<'a> NewtonInterpreter<'a> {
    /// An interpreter over the given channel configuration.
    pub fn new(cfg: &'a PimConfig) -> Self {
        NewtonInterpreter { cfg }
    }

    /// Runs a program and returns the merged statistics and each channel's
    /// own statistics (index = channel).
    ///
    /// Each epoch's channels run in parallel (merged with
    /// [`ChannelStats::merge_parallel`], max cycles); consecutive epochs
    /// run back to back (merged with [`ChannelStats::merge_sequential`]),
    /// each channel on a fresh engine. A channel's statistics are summed
    /// over the epochs. The interpreter is pure: the same program yields
    /// the same statistics on every call and every platform.
    ///
    /// # Panics
    ///
    /// Panics when the program's barriers are unbalanced across channels,
    /// or when an instruction names a buffer outside the configuration;
    /// a program that passes [`pimflow_isa::validate_program`] against the
    /// configuration's buffers does neither.
    pub fn run(&self, program: &IsaProgram) -> (ChannelStats, Vec<ChannelStats>) {
        let epochs = program
            .epochs()
            .unwrap_or_else(|e| panic!("newton interpreter: {e}"));
        let mut per_channel = vec![ChannelStats::default(); program.num_channels()];
        let mut total = ChannelStats::default();
        for epoch in &epochs {
            let mut epoch_merged = ChannelStats::default();
            for (ch, stream) in epoch.iter().enumerate() {
                let stats = ChannelEngine::new(*self.cfg).run(stream);
                per_channel[ch] = per_channel[ch].merge_sequential(&stats);
                epoch_merged = epoch_merged.merge_parallel(&stats);
            }
            total = total.merge_sequential(&epoch_merged);
        }
        (total, per_channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandBlock;
    use crate::scheduler::{schedule, ScheduleGranularity};
    use pimflow_isa::PimInst;

    fn sample_program() -> IsaProgram {
        let blocks = vec![
            CommandBlock {
                buffer_rows: 4,
                gwrite_bytes: 128,
                gwrites_per_row: 1,
                gacts: 8,
                comps_per_gact: 16,
                readres_bytes: 64,
                oc_splits: 8,
                row_base: 0,
            };
            6
        ];
        schedule(&blocks, 4, ScheduleGranularity::Comp, &PimConfig::default())
    }

    #[test]
    fn channels_run_in_parallel() {
        let cfg = PimConfig::default();
        let burst = |repeat| {
            vec![
                PimInst::RowActivate { row: 0 },
                PimInst::MacBurst { buffer: 0, repeat },
            ]
        };
        let program = IsaProgram::from_channels(vec![burst(1), burst(1000)]);
        let (merged, per_channel) = NewtonInterpreter::new(&cfg).run(&program);
        let long_alone = ChannelEngine::new(cfg).run(&burst(1000));
        assert_eq!(per_channel[1], long_alone);
        assert_eq!(merged.cycles, long_alone.cycles);
        assert_eq!(merged.comps, 1001);
    }

    #[test]
    fn epochs_run_back_to_back() {
        let cfg = PimConfig::default();
        let program = sample_program();
        let (single, single_per) = NewtonInterpreter::new(&cfg).run(&program);
        let mut linked = program.clone();
        linked.append(&program);
        let (double, per_channel) = NewtonInterpreter::new(&cfg).run(&linked);
        assert_eq!(double.cycles, 2 * single.cycles);
        assert_eq!(double.comps, 2 * single.comps);
        assert_eq!(double.macs, 2 * single.macs);
        // Each channel's statistics are summed over the epochs.
        for (twice, once) in per_channel.iter().zip(&single_per) {
            assert_eq!(*twice, once.merge_sequential(once));
        }
    }

    #[test]
    fn overlap_conserves_work_in_one_epoch() {
        // Linking with OverlapBarrier keeps everything in one epoch and
        // conserves the command stream: same COMPs/MACs as a hard barrier
        // link, never cheaper than one copy alone. (Cycles vs the hard
        // link are *not* ordered structurally — a continuous run can cross
        // refresh boundaries the per-epoch engine reset would have
        // avoided — which is why the compiler prices a fused region as the
        // min of both compositions.)
        let cfg = PimConfig::default();
        let program = sample_program();
        let interp = NewtonInterpreter::new(&cfg);
        let (single, _) = interp.run(&program);
        let mut hard = program.clone();
        hard.append(&program);
        let mut soft = program.clone();
        soft.append_overlapped(&program);
        assert_eq!(soft.epochs().unwrap().len(), 1, "overlap keeps one epoch");
        let (hard_stats, _) = interp.run(&hard);
        let (soft_stats, _) = interp.run(&soft);
        assert!(soft_stats.cycles >= single.cycles);
        assert_eq!(soft_stats.comps, hard_stats.comps);
        assert_eq!(soft_stats.macs, hard_stats.macs);
    }

    #[test]
    fn overlap_hides_cross_channel_imbalance() {
        // Member A loads channel 0 heavily and channel 1 lightly; member B
        // is the mirror image. A hard barrier pays max(heavy, light) twice
        // (≈ 2·heavy); the overlap link lets each channel flow straight
        // into its next member, so the total approaches heavy + light.
        // Workloads are sized well under the refresh interval so the
        // continuous run pays no refresh the epoch-reset path would skip.
        let cfg = PimConfig::default();
        let member = |heavy_ch: usize| {
            let mut p = IsaProgram::new(2);
            for ch in 0..2 {
                let repeat = if ch == heavy_ch { 400 } else { 20 };
                p.push(
                    ch,
                    PimInst::BufWrite {
                        buffer: 0,
                        bytes: 64,
                    },
                );
                p.push(ch, PimInst::RowActivate { row: 0 });
                p.push(ch, PimInst::MacBurst { buffer: 0, repeat });
                p.push(ch, PimInst::Drain { bytes: 32 });
            }
            p
        };
        let interp = NewtonInterpreter::new(&cfg);
        let mut hard = member(0);
        hard.append(&member(1));
        let mut soft = member(0);
        soft.append_overlapped(&member(1));
        let hard_cycles = interp.run(&hard).0.cycles;
        let soft_cycles = interp.run(&soft).0.cycles;
        assert!(
            soft_cycles < hard_cycles,
            "overlap must hide the imbalance: soft {soft_cycles} vs hard {hard_cycles}"
        );
    }

    #[test]
    #[should_panic(expected = "newton interpreter")]
    fn unbalanced_barriers_panic() {
        let program = IsaProgram::from_channels(vec![vec![PimInst::Barrier], vec![]]);
        NewtonInterpreter::new(&PimConfig::default()).run(&program);
    }
}
