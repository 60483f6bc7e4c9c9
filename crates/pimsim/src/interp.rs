//! The Newton interpretation of the typed PIM ISA.
//!
//! `pimflow-isa` programs are hardware-neutral; this module gives them their
//! Newton meaning. The five data-path instructions map 1:1 onto the
//! simulator's command vocabulary —
//!
//! | ISA                  | Newton command |
//! |----------------------|----------------|
//! | `BUFWRITE`           | `GWRITE`       |
//! | `ROWACT`             | `G_ACT`        |
//! | `MACBURST`           | `COMP`         |
//! | `DRAIN`              | `READRES`      |
//! | `HOSTBURST`          | `GpuBurst`     |
//!
//! — so lowering a program and lifting a trace are exact inverses, and a
//! barrier-free program times **bit-identically** to running its lowered
//! traces through [`run_channels`] directly. That identity is the
//! interpreter contract: the compiler prices layers by streaming their
//! block schedule through the channel engine rather than through a
//! compiled program, and must land on exactly what interpreting the
//! program reports. `BARRIER`s (which command traces cannot express) split
//! a program into epochs that run back to back.

use crate::command::PimCommand;
use crate::config::PimConfig;
use crate::timing::{run_channels, ChannelEngine, ChannelStats, RunOptions};
use pimflow_isa::{IsaProgram, PimInst};

/// Lifts scheduled per-channel command traces into an ISA program (the
/// exact inverse of [`NewtonInterpreter::lower`]).
pub fn lift_traces(traces: &[Vec<PimCommand>]) -> IsaProgram {
    IsaProgram::from_channels(
        traces
            .iter()
            .map(|t| t.iter().map(|&cmd| lift_command(cmd)).collect())
            .collect(),
    )
}

/// Lifts one Newton command to its ISA instruction (the exact inverse of
/// [`NewtonInterpreter::lower_inst`]).
pub fn lift_command(cmd: PimCommand) -> PimInst {
    match cmd {
        PimCommand::Gwrite { buffer, bytes } => PimInst::BufWrite { buffer, bytes },
        PimCommand::GAct { row } => PimInst::RowActivate { row },
        PimCommand::Comp { buffer, repeat } => PimInst::MacBurst { buffer, repeat },
        PimCommand::ReadRes { bytes } => PimInst::Drain { bytes },
        PimCommand::BankFeed { buffer, bytes } => PimInst::BankFeed { buffer, bytes },
        PimCommand::GpuBurst { bytes } => PimInst::HostBurst { bytes },
    }
}

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

    /// Lowers a program to per-channel Newton command traces. Barriers
    /// carry no command — they only partition execution into epochs — so
    /// the lowering of a lifted trace is the original trace.
    pub fn lower(&self, program: &IsaProgram) -> Vec<Vec<PimCommand>> {
        program
            .channels()
            .iter()
            .map(|stream| stream.iter().filter_map(Self::lower_inst).collect())
            .collect()
    }

    /// Lowers one instruction to its Newton command; barriers lower to
    /// nothing.
    pub fn lower_inst(inst: &PimInst) -> Option<PimCommand> {
        match *inst {
            PimInst::BufWrite { buffer, bytes } => Some(PimCommand::Gwrite { buffer, bytes }),
            PimInst::RowActivate { row } => Some(PimCommand::GAct { row }),
            PimInst::MacBurst { buffer, repeat } => Some(PimCommand::Comp { buffer, repeat }),
            PimInst::Drain { bytes } => Some(PimCommand::ReadRes { bytes }),
            PimInst::BankFeed { buffer, bytes } => Some(PimCommand::BankFeed { buffer, bytes }),
            PimInst::HostBurst { bytes } => Some(PimCommand::GpuBurst { bytes }),
            // Barriers carry no command. The hard barrier partitions
            // execution into epochs before lowering; the overlap barrier
            // deliberately vanishes *without* an epoch split, so
            // overlap-linked member streams run through one continuous
            // channel engine — carried row/refresh/pacing state and
            // cross-channel imbalance hiding are exactly the overlap
            // semantics.
            PimInst::Barrier | PimInst::OverlapBarrier => None,
        }
    }

    /// Runs a program and returns the merged statistics, exactly as
    /// [`run_channels`] reports them for the lowered traces.
    ///
    /// A barrier-free program (everything the block scheduler generates)
    /// takes the direct path: its statistics are bit-identical to running
    /// the lowered traces through [`run_channels`] with the same options.
    /// A program with barriers runs epoch by epoch — each epoch's channels
    /// in parallel (max cycles), consecutive epochs back to back (summed
    /// cycles) — with each channel's engine state reset at the barrier.
    /// Stall faults are epoch-local under that reset: a scheduled stall can
    /// fire once per epoch on the channel it targets.
    ///
    /// The per-channel callback, if any, receives each channel's
    /// epoch-summed statistics once, in channel order, before the merge.
    ///
    /// # Panics
    ///
    /// Panics when the program's barriers are unbalanced across channels,
    /// or a dead channel (per the options' fault plan) has work scheduled.
    pub fn run(&self, program: &IsaProgram, opts: RunOptions<'_>) -> ChannelStats {
        let epochs = program
            .epochs()
            .unwrap_or_else(|e| panic!("newton interpreter: {e}"));
        if epochs.len() == 1 {
            return run_channels(self.cfg, &self.lower(program), opts);
        }
        let RunOptions {
            faults,
            mut on_channel,
        } = opts;
        let healthy;
        let plan = match faults {
            Some(p) => p,
            None => {
                healthy = crate::fault::FaultPlan::healthy();
                &healthy
            }
        };
        let channels = program.num_channels();
        let mut per_channel = vec![ChannelStats::default(); channels];
        let mut total = ChannelStats::default();
        for epoch in &epochs {
            let mut epoch_merged = ChannelStats::default();
            for (ch, insts) in epoch.iter().enumerate() {
                let trace: Vec<PimCommand> = insts.iter().filter_map(Self::lower_inst).collect();
                assert!(
                    !plan.is_dead(ch) || trace.is_empty(),
                    "dead channel {ch} was scheduled {} commands",
                    trace.len()
                );
                let stats = ChannelEngine::with_fault(*self.cfg, plan, ch).run(&trace);
                per_channel[ch] = per_channel[ch].merge_sequential(&stats);
                epoch_merged = epoch_merged.merge_parallel(&stats);
            }
            total = total.merge_sequential(&epoch_merged);
        }
        if let Some(cb) = on_channel.as_mut() {
            for (ch, stats) in per_channel.iter().enumerate() {
                cb(ch, stats);
            }
        }
        total
    }

    /// Simulated wall-clock microseconds to execute `program`. The
    /// interpreter is pure: the same program yields the same time on every
    /// call and every platform, which is what lets interpreted costs live
    /// in the cross-search cost cache.
    pub fn interpret_us(&self, program: &IsaProgram) -> f64 {
        let stats = self.run(program, RunOptions::new());
        self.cfg.cycles_to_ns(stats.cycles) * 1e-3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandBlock;
    use crate::scheduler::{schedule, ScheduleGranularity};

    fn sample_traces() -> Vec<Vec<PimCommand>> {
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
        schedule(
            &blocks,
            4,
            ScheduleGranularity::Comp,
            &PimConfig::default(),
            &RunOptions::new(),
        )
    }

    #[test]
    fn lift_then_lower_is_identity() {
        let traces = sample_traces();
        let program = lift_traces(&traces);
        let lowered = NewtonInterpreter::new(&PimConfig::default()).lower(&program);
        assert_eq!(lowered, traces);
    }

    #[test]
    fn barrier_free_program_times_bit_identically() {
        let cfg = PimConfig::default();
        let traces = sample_traces();
        let direct = run_channels(&cfg, &traces, RunOptions::new());
        let interpreted =
            NewtonInterpreter::new(&cfg).run(&lift_traces(&traces), RunOptions::new());
        assert_eq!(direct, interpreted);
    }

    #[test]
    fn epochs_run_back_to_back() {
        let cfg = PimConfig::default();
        let traces = sample_traces();
        let single = NewtonInterpreter::new(&cfg).run(&lift_traces(&traces), RunOptions::new());
        let mut linked = lift_traces(&traces);
        linked.append(&lift_traces(&traces));
        let double = NewtonInterpreter::new(&cfg).run(&linked, RunOptions::new());
        assert_eq!(double.cycles, 2 * single.cycles);
        assert_eq!(double.comps, 2 * single.comps);
        assert_eq!(double.macs, 2 * single.macs);
    }

    #[test]
    fn multi_epoch_callback_reports_summed_channels() {
        let cfg = PimConfig::default();
        let traces = sample_traces();
        let mut linked = lift_traces(&traces);
        linked.append(&lift_traces(&traces));
        let mut per = Vec::new();
        let mut collect = |ch: usize, s: &ChannelStats| per.push((ch, *s));
        NewtonInterpreter::new(&cfg).run(&linked, RunOptions::new().on_channel(&mut collect));
        assert_eq!(per.len(), 4);
        let single = run_channels(&cfg, &traces, RunOptions::new());
        let folded = per
            .iter()
            .fold(ChannelStats::default(), |acc, (_, s)| acc.merge_parallel(s));
        assert_eq!(folded.comps, 2 * single.comps);
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
        let traces = sample_traces();
        let single = NewtonInterpreter::new(&cfg).run(&lift_traces(&traces), RunOptions::new());
        let mut hard = lift_traces(&traces);
        hard.append(&lift_traces(&traces));
        let mut soft = lift_traces(&traces);
        soft.append_overlapped(&lift_traces(&traces));
        assert_eq!(soft.epochs().unwrap().len(), 1, "overlap keeps one epoch");
        let interp = NewtonInterpreter::new(&cfg);
        let hard_stats = interp.run(&hard, RunOptions::new());
        let soft_stats = interp.run(&soft, RunOptions::new());
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
        let hard_cycles = interp.run(&hard, RunOptions::new()).cycles;
        let soft_cycles = interp.run(&soft, RunOptions::new()).cycles;
        assert!(
            soft_cycles < hard_cycles,
            "overlap must hide the imbalance: soft {soft_cycles} vs hard {hard_cycles}"
        );
    }

    #[test]
    fn interpreter_reports_us() {
        let cfg = PimConfig::default();
        let interp = NewtonInterpreter::new(&cfg);
        let traces = sample_traces();
        let program = lift_traces(&traces);
        let us = interp.interpret_us(&program);
        let cycles = run_channels(&cfg, &traces, RunOptions::new()).cycles;
        assert!((us - cfg.cycles_to_ns(cycles) * 1e-3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "newton interpreter")]
    fn unbalanced_barriers_panic() {
        let program = IsaProgram::from_channels(vec![vec![PimInst::Barrier], vec![]]);
        NewtonInterpreter::new(&PimConfig::default()).run(&program, RunOptions::new());
    }
}
