//! Cycle-level command timing for one PIM-enabled channel.
//!
//! The engine models the resources a Newton-style channel serializes on:
//!
//! * the **channel I/O bus** (GWRITE payloads in, READRES payloads out,
//!   interleaved GPU bursts);
//! * the **bank array** (G_ACT row activations spaced by `tRC`, data usable
//!   `tRCDRD` after issue);
//! * the **MAC pipeline** (COMP issues spaced by `tCCD`, gated on both the
//!   activated row and the source global buffer being ready).
//!
//! GWRITE latency hiding (§4.1) is the one scheduling freedom: when enabled,
//! a GWRITE only occupies the bus, letting the following G_ACT/COMP stream
//! proceed concurrently; when disabled (original Newton, where data fetch
//! involves all channels), the command stream blocks until the transfer
//! completes.

use crate::command::CommandBlock;
use crate::config::PimConfig;
use pimflow_isa::PimInst;

/// Execution statistics of one channel trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelStats {
    /// Total cycles until the last command (and bus transfer) completed.
    pub cycles: u64,
    /// G_ACT commands issued.
    pub gacts: u64,
    /// COMP commands issued (expanded, not run-length encoded).
    pub comps: u64,
    /// GWRITE commands issued.
    pub gwrites: u64,
    /// READRES commands issued.
    pub readres: u64,
    /// MAC operations performed.
    pub macs: u64,
    /// Bytes pushed into global buffers.
    pub gwrite_bytes: u64,
    /// Result bytes read out.
    pub readres_bytes: u64,
    /// Bytes of interleaved GPU traffic serviced.
    pub gpu_burst_bytes: u64,
    /// BANKFEED commands issued (fused-layer near-bank hand-offs).
    pub bankfeeds: u64,
    /// Bytes moved near the banks by BANKFEEDs (never crossed the bus).
    pub bankfeed_bytes: u64,
    /// Cycles during which the MAC pipeline was busy (COMP bursts).
    pub comp_busy_cycles: u64,
    /// All-bank refreshes serviced.
    pub refreshes: u64,
}

impl ChannelStats {
    /// Fraction of the channel's active window the MAC pipeline was busy
    /// (0.0 for a channel that never ran).
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.comp_busy_cycles as f64 / self.cycles as f64
        }
    }

    /// Merges two phases' statistics that ran back to back: cycle counts
    /// add (the second phase starts only after the first finished), as do
    /// all work counters. Used by the ISA interpreter to compose
    /// barrier-separated epochs.
    pub fn merge_sequential(&self, other: &ChannelStats) -> ChannelStats {
        ChannelStats {
            cycles: self.cycles + other.cycles,
            gacts: self.gacts + other.gacts,
            comps: self.comps + other.comps,
            gwrites: self.gwrites + other.gwrites,
            readres: self.readres + other.readres,
            macs: self.macs + other.macs,
            gwrite_bytes: self.gwrite_bytes + other.gwrite_bytes,
            readres_bytes: self.readres_bytes + other.readres_bytes,
            gpu_burst_bytes: self.gpu_burst_bytes + other.gpu_burst_bytes,
            bankfeeds: self.bankfeeds + other.bankfeeds,
            bankfeed_bytes: self.bankfeed_bytes + other.bankfeed_bytes,
            comp_busy_cycles: self.comp_busy_cycles + other.comp_busy_cycles,
            refreshes: self.refreshes + other.refreshes,
        }
    }

    /// Merges two channels' statistics, keeping the max cycle count (the
    /// layer finishes when its slowest channel does).
    pub fn merge_parallel(&self, other: &ChannelStats) -> ChannelStats {
        ChannelStats {
            cycles: self.cycles.max(other.cycles),
            gacts: self.gacts + other.gacts,
            comps: self.comps + other.comps,
            gwrites: self.gwrites + other.gwrites,
            readres: self.readres + other.readres,
            macs: self.macs + other.macs,
            gwrite_bytes: self.gwrite_bytes + other.gwrite_bytes,
            readres_bytes: self.readres_bytes + other.readres_bytes,
            gpu_burst_bytes: self.gpu_burst_bytes + other.gpu_burst_bytes,
            bankfeeds: self.bankfeeds + other.bankfeeds,
            bankfeed_bytes: self.bankfeed_bytes + other.bankfeed_bytes,
            comp_busy_cycles: self.comp_busy_cycles + other.comp_busy_cycles,
            refreshes: self.refreshes + other.refreshes,
        }
    }
}

/// A [`ChannelEngine`]'s state as the next command sees it, measured from
/// the clock (see `ChannelEngine::capture`). Two equal phases behave
/// alike until a refresh intervenes.
#[derive(Debug, Default, PartialEq)]
struct Phase {
    bus_free: u64,
    act_ready: u64,
    /// Cycles until the tRC window of the last activation closes.
    act_window: u64,
    /// Cycles until the tRTP window of the last COMP closes.
    rtp_window: u64,
    /// Open row minus the period's row offset.
    open_row: Option<i64>,
    buffers: Vec<u64>,
}

/// Per-channel timing engine.
#[derive(Debug, Clone)]
pub struct ChannelEngine {
    cfg: PimConfig,
    clock: u64,
    bus_free: u64,
    act_ready: u64,
    last_act_issue: Option<u64>,
    last_comp_end: u64,
    buffer_ready: Vec<u64>,
    open_row: Option<u32>,
    next_refresh: u64,
    stats: ChannelStats,
}

impl ChannelEngine {
    /// Creates an idle engine for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::ConfigError) if `cfg` fails
    /// [`PimConfig::validate`]: with `tRFC >= tREFI`, for one, refresh
    /// servicing would never catch up with its deadline and loop forever.
    pub fn new(cfg: PimConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid PIM config: {e}");
        }
        let buffers = cfg.num_global_buffers.max(1);
        ChannelEngine {
            cfg,
            clock: 0,
            bus_free: 0,
            act_ready: 0,
            last_act_issue: None,
            last_comp_end: 0,
            buffer_ready: vec![0; buffers],
            open_row: None,
            next_refresh: if cfg.timing.t_refi > 0 {
                cfg.timing.t_refi as u64
            } else {
                u64::MAX
            },
            stats: ChannelStats::default(),
        }
    }

    /// Services any refresh that has come due: the channel stalls for
    /// `tRFC`, all banks precharge, and — if a filter row was open — the
    /// controller re-activates it afterwards (counted as a G_ACT). Real
    /// controllers can postpone refreshes slightly; we issue them at each
    /// command boundary once due, which is conservative.
    fn service_refresh(&mut self) {
        let t = self.cfg.timing;
        while self.clock >= self.next_refresh {
            let start = self.clock.max(self.next_refresh);
            let mut end = start + t.t_rfc as u64;
            if self.open_row.is_some() {
                // Re-open the working row after the all-bank precharge.
                end += t.t_rcd_rd as u64;
                self.stats.gacts += 1;
            }
            self.clock = end;
            self.last_comp_end = self.last_comp_end.max(end);
            self.act_ready = self.act_ready.max(end);
            self.last_act_issue = None;
            self.next_refresh += t.t_refi as u64;
            self.stats.refreshes += 1;
        }
    }

    fn io_cycles(&self, bytes: u32) -> u64 {
        (bytes as u64).div_ceil(self.cfg.io_bytes_per_cycle as u64)
    }

    /// Executes one instruction with its Newton timing, advancing the
    /// channel state.
    ///
    /// Barriers are structure, not work: a `BARRIER` or `OBARRIER` is a
    /// no-op that touches no state (not even a refresh that has come due).
    /// Hard barriers split epochs before instructions reach an engine
    /// ([`crate::NewtonInterpreter::run`]); overlap barriers run straight
    /// through one engine, which is their meaning.
    ///
    /// # Panics
    ///
    /// Panics if a `BUFWRITE`/`MACBURST`/`BANKFEED` names a buffer index
    /// outside the configured number of global buffers.
    pub fn execute(&mut self, inst: &PimInst) {
        if matches!(inst, PimInst::Barrier | PimInst::OverlapBarrier) {
            return;
        }
        self.service_refresh();
        let t = self.cfg.timing;
        match *inst {
            PimInst::BufWrite { buffer, bytes } => {
                let buffer = buffer as usize;
                assert!(
                    buffer < self.buffer_ready.len(),
                    "GWRITE to buffer {buffer} but only {} configured",
                    self.buffer_ready.len()
                );
                // GWRITE targets the SRAM global buffer, not a DRAM row:
                // the cost is reading the source data out of the GPU
                // channels (a CAS-latency worth of cycles) plus the bus
                // transfer. With latency hiding this whole fetch overlaps
                // the bank-side command stream (§4.1).
                let start = self.clock.max(self.bus_free);
                let end = start + t.t_cl as u64 + self.io_cycles(bytes);
                self.bus_free = end;
                self.buffer_ready[buffer] = end;
                self.clock = if self.cfg.gwrite_latency_hiding {
                    // The transfer proceeds on the bus while the bank-side
                    // command stream continues (split GPU/PIM channels let
                    // data be fetched from GPU channels while PIM channels
                    // activate rows, §4.1).
                    start + 1
                } else {
                    end
                };
                self.stats.gwrites += 1;
                self.stats.gwrite_bytes += bytes as u64;
            }
            PimInst::RowActivate { row } => {
                // Row-buffer hit: the requested filter row is already open
                // in every bank — nothing to do (this is what amortizes one
                // activation over thousands of COMP-streamed input rows).
                if self.open_row == Some(row) {
                    return;
                }
                let mut issue = self.clock;
                if let Some(last) = self.last_act_issue {
                    issue = issue.max(last + t.t_rc() as u64);
                }
                // A new activation must also wait for reads of the previous
                // row to finish (read-to-precharge).
                issue = issue.max(self.last_comp_end + t.t_rtp as u64);
                self.act_ready = issue + t.t_rcd_rd as u64;
                self.last_act_issue = Some(issue);
                self.open_row = Some(row);
                self.clock = issue + 1;
                self.stats.gacts += 1;
            }
            PimInst::MacBurst { buffer, repeat } => {
                let buffer = buffer as usize;
                assert!(
                    buffer < self.buffer_ready.len(),
                    "COMP from buffer {buffer} but only {} configured",
                    self.buffer_ready.len()
                );
                // Run-length-encoded burst, chunked at refresh boundaries so
                // the fast path stays cycle-exact with the expanded form
                // (refresh fires at command boundaries: after the first COMP
                // whose end crosses the deadline).
                let mut remaining = repeat as u64;
                while remaining > 0 {
                    self.service_refresh();
                    let start = self
                        .clock
                        .max(self.act_ready)
                        .max(self.buffer_ready[buffer]);
                    let fit = if self.next_refresh == u64::MAX {
                        remaining
                    } else {
                        let until = self.next_refresh.saturating_sub(start);
                        (until.div_ceil(t.t_ccd as u64)).clamp(1, remaining)
                    };
                    let end = start + fit * t.t_ccd as u64;
                    self.clock = end;
                    self.last_comp_end = end;
                    self.stats.comps += fit;
                    self.stats.comp_busy_cycles += end - start;
                    self.stats.macs += fit * self.cfg.macs_per_comp() as u64;
                    remaining -= fit;
                }
            }
            PimInst::Drain { bytes } => {
                let start = self.clock.max(self.last_comp_end).max(self.bus_free);
                let end = start + t.t_cl as u64 + self.io_cycles(bytes);
                self.bus_free = end;
                self.clock = end;
                self.stats.readres += 1;
                self.stats.readres_bytes += bytes as u64;
            }
            PimInst::BankFeed { buffer, bytes } => {
                let buffer = buffer as usize;
                assert!(
                    buffer < self.buffer_ready.len(),
                    "BANKFEED to buffer {buffer} but only {} configured",
                    self.buffer_ready.len()
                );
                // Near-bank result hand-off: waits for the producing COMP
                // stream like a READRES, but moves the payload bank-side —
                // no bus occupancy and no CAS latency, just the internal
                // move at I/O width. The destination buffer becomes
                // readable when the move completes.
                let start = self.clock.max(self.last_comp_end);
                let end = start + self.io_cycles(bytes);
                self.buffer_ready[buffer] = end;
                self.clock = end;
                self.stats.bankfeeds += 1;
                self.stats.bankfeed_bytes += bytes as u64;
            }
            PimInst::HostBurst { bytes } => {
                // Ordinary GPU traffic at the shared controller: occupies
                // the bus, but PIM bank commands keep flowing (§7).
                let start = self.clock.max(self.bus_free);
                self.bus_free = start + self.io_cycles(bytes);
                self.clock = start + 1;
                self.stats.gpu_burst_bytes += bytes as u64;
            }
            PimInst::Barrier | PimInst::OverlapBarrier => {}
        }
    }

    /// Executes one channel's instruction stream and returns the final
    /// statistics.
    pub fn run(mut self, stream: &[PimInst]) -> ChannelStats {
        for inst in stream {
            self.execute(inst);
        }
        self.finish()
    }

    /// Runs `periods` repetitions of a command period: `period(engine, k)`
    /// issues period `k`'s commands, which must equal period 0's with every
    /// G_ACT row raised by `k * row_step`. The result is exactly that of
    /// issuing every period command by command, but a steady-state period
    /// is simulated once and the rest of its refresh window skipped.
    ///
    /// After each simulated period the engine compares its state before
    /// and after, both measured from the clock (its phase). Equal phases
    /// mean the next period replays this one shifted in time, so every
    /// remaining period that ends before the next refresh is applied in
    /// O(1): timestamps advance by the period's clock advance, the open
    /// row by `row_step`, and each counter by the period's delta. A
    /// period that serviced a refresh or ended at the refresh deadline
    /// is not a template.
    pub fn run_periods(
        &mut self,
        periods: u64,
        row_step: u32,
        mut period: impl FnMut(&mut Self, u64),
    ) {
        // Phase snapshots, allocated on the first sample and reused.
        let mut phases: Option<(Phase, Phase)> = None;
        let mut k = 0;
        while k < periods {
            if k + 1 == periods {
                period(self, k);
                k += 1;
                continue;
            }
            let (before, after) = phases.get_or_insert_with(Default::default);
            self.capture(before, k, row_step);
            let (clock, stats) = (self.clock, self.stats);
            period(self, k);
            k += 1;
            if self.stats.refreshes != stats.refreshes || self.clock >= self.next_refresh {
                continue;
            }
            self.capture(after, k, row_step);
            if after != before {
                continue;
            }
            let advance = self.clock - clock;
            let skip = match advance {
                0 => periods - k,
                d => ((self.next_refresh - 1 - self.clock) / d).min(periods - k),
            };
            self.fast_forward(skip, advance, row_step, &stats);
            k += skip;
        }
    }

    /// Runs `count` back-to-back copies of `block`'s instruction sequence
    /// ([`CommandBlock::expand`]), each instruction passed through
    /// `rewrite` first, exactly as executing the expanded copies one by one
    /// would. The copies are periods of one
    /// [`run_periods`](Self::run_periods) sequence, and so are each copy's
    /// streaming passes (rows rising by one). `rewrite` must therefore move
    /// every `ROWACT` row by the same amount, as a fused-role rewrite
    /// ([`pimflow_isa::FusedRole::rewrite`]) does.
    pub fn run_blocks(
        &mut self,
        block: &CommandBlock,
        count: u64,
        rewrite: impl Fn(PimInst) -> PimInst,
    ) {
        self.run_periods(count, 0, |e, _| {
            block.gwrites().for_each(|i| e.execute(&rewrite(i)));
            e.run_periods(block.gacts as u64, 1, |e, a| {
                block.stream(a as u32).for_each(|i| e.execute(&rewrite(i)));
            });
            e.execute(&rewrite(block.drain()));
        });
    }

    /// Overwrites `phase` with the state the next command sees, measured
    /// from the clock, before period `k` of a
    /// [`run_periods`](Self::run_periods) sequence. Past timestamps clamp
    /// to the clock, since every use of them takes the max with the clock
    /// (a read's tRTP window and a row's tRC window clamp where they stop
    /// binding); the open row is taken relative to the period's rows.
    fn capture(&self, phase: &mut Phase, k: u64, row_step: u32) {
        let t = self.cfg.timing;
        let ahead = |at: u64| at.saturating_sub(self.clock);
        phase.bus_free = ahead(self.bus_free);
        phase.act_ready = ahead(self.act_ready);
        phase.act_window = self
            .last_act_issue
            .map_or(0, |l| ahead(l + t.t_rc() as u64));
        phase.rtp_window = ahead(self.last_comp_end + t.t_rtp as u64);
        phase.open_row = self
            .open_row
            .map(|r| r as i64 - (k as i64).wrapping_mul(row_step as i64));
        phase.buffers.clear();
        phase
            .buffers
            .extend(self.buffer_ready.iter().map(|&b| ahead(b)));
    }

    /// Applies `periods` more repetitions of the period just simulated,
    /// which advanced the clock by `advance` from counters `from`.
    fn fast_forward(&mut self, periods: u64, advance: u64, row_step: u32, from: &ChannelStats) {
        let shift = periods * advance;
        self.clock += shift;
        self.bus_free += shift;
        self.act_ready += shift;
        self.last_comp_end += shift;
        if let Some(issue) = self.last_act_issue.as_mut() {
            *issue += shift;
        }
        for ready in &mut self.buffer_ready {
            *ready += shift;
        }
        if let Some(row) = self.open_row.as_mut() {
            *row += u32::try_from(periods * row_step as u64).expect("rows fit in u32");
        }
        // A template period serviced no refresh, and `cycles` is
        // only set by `finish`: the other counters are the ones it moved.
        let s = &mut self.stats;
        for (now, was) in [
            (&mut s.gacts, from.gacts),
            (&mut s.comps, from.comps),
            (&mut s.gwrites, from.gwrites),
            (&mut s.readres, from.readres),
            (&mut s.macs, from.macs),
            (&mut s.gwrite_bytes, from.gwrite_bytes),
            (&mut s.readres_bytes, from.readres_bytes),
            (&mut s.gpu_burst_bytes, from.gpu_burst_bytes),
            (&mut s.bankfeeds, from.bankfeeds),
            (&mut s.bankfeed_bytes, from.bankfeed_bytes),
            (&mut s.comp_busy_cycles, from.comp_busy_cycles),
        ] {
            *now += periods * (*now - was);
        }
    }

    /// Returns the statistics, closing out any in-flight bus transfer.
    pub fn finish(mut self) -> ChannelStats {
        self.stats.cycles = self.clock.max(self.bus_free);
        self.stats
    }

    /// Current clock (for tests and incremental drivers).
    pub fn clock(&self) -> u64 {
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PimConfig {
        PimConfig::default()
    }

    #[test]
    #[should_panic(expected = "tRFC must be far below tREFI")]
    fn an_engine_refuses_a_refresh_longer_than_its_interval() {
        // Only constructs the engine: were the check gone, running a
        // command would service refreshes forever instead of failing.
        let mut cfg = cfg();
        cfg.timing.t_refi = 100;
        assert!(cfg.timing.t_rfc >= cfg.timing.t_refi);
        ChannelEngine::new(cfg);
    }

    #[test]
    fn comp_waits_for_act_and_buffer() {
        let mut e = ChannelEngine::new(cfg());
        e.execute(&PimInst::BufWrite {
            buffer: 0,
            bytes: 64,
        });
        e.execute(&PimInst::RowActivate { row: 0 });
        let before = e.clock();
        e.execute(&PimInst::MacBurst {
            buffer: 0,
            repeat: 1,
        });
        // COMP start >= act issue + tRCDRD and >= GWRITE end.
        assert!(e.clock() >= before + 2);
        let s = e.finish();
        assert_eq!(s.comps, 1);
        assert_eq!(s.macs, 256);
    }

    #[test]
    fn rle_matches_expanded() {
        // Run-length-encoded COMP must be cycle-identical to the expansion.
        let trace_rle = vec![
            PimInst::BufWrite {
                buffer: 0,
                bytes: 256,
            },
            PimInst::RowActivate { row: 0 },
            PimInst::MacBurst {
                buffer: 0,
                repeat: 17,
            },
            PimInst::Drain { bytes: 64 },
        ];
        let mut trace_exp = vec![
            PimInst::BufWrite {
                buffer: 0,
                bytes: 256,
            },
            PimInst::RowActivate { row: 0 },
        ];
        trace_exp.extend(std::iter::repeat_n(
            PimInst::MacBurst {
                buffer: 0,
                repeat: 1,
            },
            17,
        ));
        trace_exp.push(PimInst::Drain { bytes: 64 });

        let a = ChannelEngine::new(cfg()).run(&trace_rle);
        let b = ChannelEngine::new(cfg()).run(&trace_exp);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.comps, b.comps);
        assert_eq!(a.macs, b.macs);
    }

    #[test]
    fn gwrite_hiding_reduces_cycles() {
        let block = CommandBlock {
            buffer_rows: 1,
            gwrite_bytes: 2048,
            gwrites_per_row: 1,
            gacts: 1,
            comps_per_gact: 4,
            readres_bytes: 32,
            oc_splits: 1,
            row_base: 0,
        };
        let trace: Vec<PimInst> = block.expand().collect();
        let hidden = ChannelEngine::new(PimConfig::default()).run(&trace);
        let no_hide_cfg = PimConfig {
            gwrite_latency_hiding: false,
            ..PimConfig::default()
        };
        let exposed = ChannelEngine::new(no_hide_cfg).run(&trace);
        assert!(
            hidden.cycles < exposed.cycles,
            "hidden {} vs exposed {}",
            hidden.cycles,
            exposed.cycles
        );
    }

    #[test]
    fn gacts_respect_row_cycle_time() {
        let t = cfg().timing;
        let trace = vec![
            PimInst::RowActivate { row: 0 },
            PimInst::RowActivate { row: 1 },
        ];
        let mut e = ChannelEngine::new(cfg());
        for c in &trace {
            e.execute(c);
        }
        // Second activation issues at >= tRC.
        assert!(e.clock() > t.t_rc() as u64);
    }

    #[test]
    fn multi_buffer_block_reuses_gacts() {
        // 4 rows sharing one streaming pass must beat 4 single-row passes.
        let shared = CommandBlock {
            buffer_rows: 4,
            gwrite_bytes: 128,
            gwrites_per_row: 1,
            gacts: 4,
            comps_per_gact: 8,
            readres_bytes: 32,
            oc_splits: 1,
            row_base: 0,
        };
        let single = CommandBlock {
            buffer_rows: 1,
            ..shared
        };
        let shared_stats = ChannelEngine::new(cfg()).run(&shared.expand().collect::<Vec<_>>());
        let mut single_trace = Vec::new();
        for _ in 0..4 {
            single_trace.extend(single.expand());
        }
        let mut single_cfg = cfg();
        single_cfg.num_global_buffers = 1;
        let single_stats = ChannelEngine::new(single_cfg).run(&single_trace);
        assert_eq!(shared_stats.comps, single_stats.comps);
        assert_eq!(shared_stats.gacts * 4, single_stats.gacts);
        assert!(
            shared_stats.cycles < single_stats.cycles,
            "shared {} vs single {}",
            shared_stats.cycles,
            single_stats.cycles
        );
    }

    #[test]
    fn gpu_bursts_delay_bus_not_banks() {
        // A GPU burst before a COMP stream should barely move the finish
        // time (contention is negligible, §7)...
        let mut base_trace = vec![PimInst::RowActivate { row: 0 }];
        base_trace.push(PimInst::MacBurst {
            buffer: 0,
            repeat: 100,
        });
        let base = ChannelEngine::new(cfg()).run(&base_trace);

        let mut burst_trace = vec![
            PimInst::HostBurst { bytes: 4096 },
            PimInst::RowActivate { row: 0 },
        ];
        burst_trace.push(PimInst::MacBurst {
            buffer: 0,
            repeat: 100,
        });
        let with_burst = ChannelEngine::new(cfg()).run(&burst_trace);
        let slowdown = with_burst.cycles as f64 / base.cycles as f64;
        assert!(slowdown < 1.05, "slowdown {slowdown}");
        assert_eq!(with_burst.gpu_burst_bytes, 4096);
    }

    #[test]
    fn barriers_touch_no_state() {
        // A barrier at a refresh deadline must not service the refresh:
        // the next instruction does, exactly as if the barrier were absent.
        let due = (1..4000)
            .map(|repeat| {
                let mut e = ChannelEngine::new(cfg());
                e.execute(&PimInst::RowActivate { row: 0 });
                e.execute(&PimInst::MacBurst { buffer: 0, repeat });
                e
            })
            .find(|e| e.clock() >= e.next_refresh)
            .expect("some burst ends with a refresh due");
        let mut with = due.clone();
        with.execute(&PimInst::Barrier);
        with.execute(&PimInst::OverlapBarrier);
        assert_eq!((with.clock(), with.stats), (due.clock(), due.stats));
        let mut without = due;
        with.execute(&PimInst::Drain { bytes: 64 });
        without.execute(&PimInst::Drain { bytes: 64 });
        assert_eq!(with.finish(), without.finish());
    }

    #[test]
    fn refresh_fires_on_long_traces() {
        let c = cfg();
        let trace = vec![
            PimInst::RowActivate { row: 0 },
            PimInst::MacBurst {
                buffer: 0,
                repeat: 10_000,
            }, // 20k cycles >> tREFI
            PimInst::Drain { bytes: 64 },
        ];
        let stats = ChannelEngine::new(c).run(&trace);
        assert!(stats.refreshes >= 1, "long trace must hit refresh windows");
    }

    #[test]
    fn refresh_reactivates_the_open_row() {
        // Every refresh that interrupts work on an open row costs one
        // controller re-activation.
        let mut e = ChannelEngine::new(cfg());
        e.execute(&PimInst::RowActivate { row: 3 });
        e.execute(&PimInst::MacBurst {
            buffer: 0,
            repeat: 10_000,
        });
        e.execute(&PimInst::RowActivate { row: 3 }); // still open: free
        let s = e.finish();
        assert!(s.refreshes >= 1);
        assert_eq!(s.gacts, 1 + s.refreshes, "one re-activation per refresh");
    }

    #[test]
    fn refresh_can_be_disabled() {
        let mut c = cfg();
        c.timing.t_refi = 0;
        let trace = vec![
            PimInst::RowActivate { row: 0 },
            PimInst::MacBurst {
                buffer: 0,
                repeat: 10_000,
            },
        ];
        let stats = ChannelEngine::new(c).run(&trace);
        assert_eq!(stats.refreshes, 0);
    }

    #[test]
    fn refresh_overhead_is_single_digit_percent() {
        let with = ChannelEngine::new(cfg()).run(&[
            PimInst::RowActivate { row: 0 },
            PimInst::MacBurst {
                buffer: 0,
                repeat: 100_000,
            },
        ]);
        let mut c = cfg();
        c.timing.t_refi = 0;
        let without = ChannelEngine::new(c).run(&[
            PimInst::RowActivate { row: 0 },
            PimInst::MacBurst {
                buffer: 0,
                repeat: 100_000,
            },
        ]);
        let overhead = with.cycles as f64 / without.cycles as f64 - 1.0;
        assert!(overhead > 0.0 && overhead < 0.10, "overhead {overhead}");
    }

    #[test]
    fn sequential_merge_adds_cycles_parallel_merge_maxes() {
        let a = ChannelStats {
            cycles: 100,
            comps: 5,
            ..ChannelStats::default()
        };
        let b = ChannelStats {
            cycles: 40,
            comps: 3,
            ..ChannelStats::default()
        };
        let seq = a.merge_sequential(&b);
        assert_eq!((seq.cycles, seq.comps), (140, 8));
        let par = a.merge_parallel(&b);
        assert_eq!((par.cycles, par.comps), (100, 8));
    }

    /// `count` copies of `block` on `engine`, fast-forwarded and command
    /// by command: both final statistics.
    fn both_ways(
        engine: &ChannelEngine,
        block: &CommandBlock,
        count: u64,
    ) -> (ChannelStats, ChannelStats) {
        let mut fast = engine.clone();
        fast.run_blocks(block, count, |c| c);
        let mut slow = engine.clone();
        for _ in 0..count {
            block.expand().for_each(|c| slow.execute(&c));
        }
        (fast.finish(), slow.finish())
    }

    fn pass_block() -> CommandBlock {
        CommandBlock {
            buffer_rows: 4,
            gwrite_bytes: 1152,
            gwrites_per_row: 1,
            gacts: 3,
            comps_per_gact: 18,
            readres_bytes: 192,
            oc_splits: 16,
            row_base: 0,
        }
    }

    #[test]
    fn fast_forward_matches_command_by_command_on_a_healthy_engine() {
        use pimflow_rng::Rng;
        let mut rng = Rng::seed_from_u64(0xFA57);
        let presets = [
            PimConfig::newton_plus_plus(),
            PimConfig::newton_plus(),
            PimConfig::aim_like(),
            PimConfig::hbm_pim_like(),
        ];
        for case in 0..400 {
            let cfg = presets[case % presets.len()];
            let buffers = cfg.num_global_buffers.max(1) as u32;
            let block = CommandBlock {
                buffer_rows: rng.range_u32(1, buffers + 1) as u8,
                gwrite_bytes: rng.range_u32(2, 4096),
                gwrites_per_row: rng.range_u32(1, 10) as u16,
                gacts: rng.range_u32(1, 200),
                comps_per_gact: rng.range_u32(1, 40),
                readres_bytes: rng.range_u32(2, 1024),
                oc_splits: 1,
                row_base: rng.range_u32(0, 8),
            };
            let count = rng.range_u64(1, 60);
            let (fast, slow) = both_ways(&ChannelEngine::new(cfg), &block, count);
            assert_eq!(fast, slow, "case {case}: {count} x {block:?}");
        }
    }

    #[test]
    fn fast_forward_matches_on_random_command_periods() {
        use pimflow_rng::Rng;
        let mut rng = Rng::seed_from_u64(0x9E71);
        let random_command = |rng: &mut Rng, buffers: u32, row: u32| match rng.range_u32(0, 6) {
            0 => PimInst::BufWrite {
                buffer: rng.range_u32(0, buffers) as u8,
                bytes: rng.range_u32(0, 600),
            },
            1 => PimInst::RowActivate {
                row: row + rng.range_u32(0, 2),
            },
            2 => PimInst::MacBurst {
                buffer: rng.range_u32(0, buffers) as u8,
                repeat: rng.range_u32(0, 30),
            },
            3 => PimInst::Drain {
                bytes: rng.range_u32(0, 300),
            },
            4 => PimInst::BankFeed {
                buffer: rng.range_u32(0, buffers) as u8,
                bytes: rng.range_u32(0, 300),
            },
            _ => PimInst::HostBurst {
                bytes: rng.range_u32(0, 600),
            },
        };
        for case in 0..3000 {
            let mut cfg = *rng.pick(&[
                PimConfig::newton_plus_plus(),
                PimConfig::newton_plus(),
                PimConfig::aim_like(),
                PimConfig::hbm_pim_like(),
            ]);
            if case % 5 == 0 {
                cfg.timing.t_refi = 0;
            }
            let buffers = cfg.num_global_buffers.max(1) as u32;
            let row_step = rng.range_u32(0, 2);
            let period: Vec<PimInst> = (0..rng.range_u32(1, 6))
                .map(|_| random_command(&mut rng, buffers, 0))
                .collect();
            let mut engine = ChannelEngine::new(cfg);
            for _ in 0..rng.range_u32(0, 4) {
                let row = rng.range_u32(0, 3);
                engine.execute(&random_command(&mut rng, buffers, row));
            }
            let count = rng.range_u64(1, 150);
            let shifted = |k: u64, cmd: PimInst| match cmd {
                PimInst::RowActivate { row } => PimInst::RowActivate {
                    row: row + k as u32 * row_step,
                },
                other => other,
            };
            let mut fast = engine.clone();
            fast.run_periods(count, row_step, |e, k| {
                period.iter().for_each(|&c| e.execute(&shifted(k, c)));
            });
            let mut slow = engine;
            for k in 0..count {
                period.iter().for_each(|&c| slow.execute(&shifted(k, c)));
            }
            let case = format!("case {case}: {count} x {period:?}, row step {row_step}");
            assert_eq!(fast.clock(), slow.clock(), "{case}");
            assert_eq!(fast.finish(), slow.finish(), "{case}");
        }
    }

    #[test]
    fn fast_forward_waits_for_a_binding_row_cycle_window() {
        // The pre-roll leaves tRC slack behind, the periods do not: the
        // first period is no template for the rest, although every other
        // part of the state repeats.
        let mut engine = ChannelEngine::new(cfg());
        engine.execute(&PimInst::RowActivate { row: 99 });
        engine.execute(&PimInst::MacBurst {
            buffer: 0,
            repeat: 20,
        });
        let period = |e: &mut ChannelEngine, k: u64| {
            e.execute(&PimInst::RowActivate {
                row: 100 + k as u32,
            });
            e.execute(&PimInst::MacBurst {
                buffer: 0,
                repeat: 8,
            });
        };
        let mut fast = engine.clone();
        fast.run_periods(50, 1, period);
        let mut slow = engine;
        (0..50).for_each(|k| period(&mut slow, k));
        assert_eq!(fast.clock(), slow.clock());
        assert_eq!(fast.finish(), slow.finish());
    }

    #[test]
    fn fast_forward_without_refresh_skips_to_the_end() {
        let mut c = cfg();
        c.timing.t_refi = 0;
        let engine = ChannelEngine::new(c);
        // `next_refresh` is u64::MAX here; the skip count must not overflow.
        let (fast, slow) = both_ways(&engine, &pass_block(), 500);
        assert_eq!(fast, slow);
        assert_eq!(fast.refreshes, 0);
        // A run far too long to issue command by command is closed form.
        let count = 1_000_000_000u64;
        let mut e = engine.clone();
        e.run_blocks(&pass_block(), count, |c| c);
        let s = e.finish();
        assert_eq!(s.comps, count * pass_block().total_comps());
        assert_eq!(s.readres, count);
        assert!(s.cycles > count * pass_block().total_comps() * c.timing.t_ccd as u64);
    }

    #[test]
    fn fast_forward_matches_when_comp_bursts_chunk_at_refresh() {
        // Each burst (2 x 2500 cycles) outlasts tREFI, so every one is
        // chunked at a refresh deadline.
        let block = CommandBlock {
            comps_per_gact: 2_500,
            ..pass_block()
        };
        let (fast, slow) = both_ways(&ChannelEngine::new(cfg()), &block, 6);
        assert_eq!(fast, slow);
        assert!(fast.refreshes >= 6 * 4 * 3, "refreshes {}", fast.refreshes);
    }

    #[test]
    fn zero_advance_periods_skip_in_constant_time() {
        // Re-activating the open row costs nothing: after the first
        // period the clock never moves, so the rest is skipped at once.
        let mut e = ChannelEngine::new(cfg());
        e.run_periods(u64::MAX, 0, |e, _| {
            e.execute(&PimInst::RowActivate { row: 5 })
        });
        let mut slow = ChannelEngine::new(cfg());
        for _ in 0..1_000 {
            slow.execute(&PimInst::RowActivate { row: 5 });
        }
        assert_eq!(e.clock(), slow.clock());
        assert_eq!(e.finish(), slow.finish());
    }

    #[test]
    #[should_panic(expected = "only 1 configured")]
    fn buffer_overflow_panics() {
        let mut c = cfg();
        c.num_global_buffers = 1;
        let mut e = ChannelEngine::new(c);
        e.execute(&PimInst::BufWrite {
            buffer: 3,
            bytes: 8,
        });
    }
}
