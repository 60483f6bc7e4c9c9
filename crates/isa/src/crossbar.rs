//! Crossbar compute-in-array backend model (PIMCOMP-style).
//!
//! The cost structure is deliberately the opposite of Newton's DRAM-PIM:
//! weights are programmed into resistive crossbar tiles ahead of time
//! (weight-stationary), so nothing streams per reduction tile — there is
//! no GWRITE traffic at all. An input row applies through DACs in one
//! shot, every tile computes its partial matrix-vector product in a single
//! analog cycle, and ADCs dominate the latency. The result: time is
//! (nearly) independent of the reduction depth `k` within a tile wave, so
//! crossbars crush few-rows/deep-reduction layers (FC/GEMV) and lose badly
//! on many-rows/shallow layers where Newton's tCCD-paced MAC bursts fly.
//!
//! The model interprets the same [`IsaProgram`]s as every backend:
//! `BUFWRITE` is DAC input staging, `MACBURST repeat=w` is `w` analog tile
//! waves, `DRAIN` is ADC readout over the channel bus. Costs are linear
//! per instruction, so the lowering may batch rows without changing the
//! interpreted time.

use crate::backend::{BackendKind, Interpreter};
use crate::inst::{FusedRole, IsaProgram, PimInst};

/// Rows batched into one `BUFWRITE`/`MACBURST`/`DRAIN` triple by
/// [`lower_shape`]. Per-instruction costs are linear in `bytes`/`repeat`,
/// so batching only bounds program size — interpreted time is identical.
const ROW_CHUNK: usize = 64;

/// One crossbar channel's array and converter resources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarConfig {
    /// Wordlines per crossbar tile (reduction elements a tile folds).
    pub xbar_rows: usize,
    /// Bitlines per crossbar tile (output columns a tile produces).
    pub xbar_cols: usize,
    /// Crossbar tiles operating in parallel per channel.
    pub xbars_per_channel: usize,
    /// DAC settle + apply latency per tile wave, nanoseconds.
    pub dac_ns: f64,
    /// ADC sample + convert latency per tile wave, nanoseconds (the
    /// dominant term: ADCs are shared per tile column group).
    pub adc_ns: f64,
    /// Input staging bandwidth into the DAC registers, bytes/ns.
    pub input_bytes_per_ns: f64,
    /// Result drain bandwidth over the channel bus, bytes/ns.
    pub drain_bytes_per_ns: f64,
    /// Fixed latency per DRAIN instruction, nanoseconds.
    pub drain_latency_ns: f64,
    /// Wordline select latency charged per ROWACT, nanoseconds (only paid
    /// when interpreting Newton-shaped programs; native crossbar programs
    /// activate once).
    pub row_select_ns: f64,
}

impl CrossbarConfig {
    /// A PIMCOMP-like ReRAM substrate: 128x128 tiles, 16 per channel,
    /// ~100 ns per analog wave (ADC-bound).
    pub fn pimcomp_like() -> Self {
        CrossbarConfig {
            xbar_rows: 128,
            xbar_cols: 128,
            xbars_per_channel: 16,
            dac_ns: 8.0,
            adc_ns: 96.0,
            input_bytes_per_ns: 32.0,
            drain_bytes_per_ns: 32.0,
            drain_latency_ns: 100.0,
            row_select_ns: 2.0,
        }
    }

    /// FNV-1a fingerprint over every field's bit pattern, for cost-cache
    /// keys (mirrors `PimConfig::fingerprint`).
    pub fn fingerprint(&self) -> u64 {
        let words = [
            self.xbar_rows as u64,
            self.xbar_cols as u64,
            self.xbars_per_channel as u64,
            self.dac_ns.to_bits(),
            self.adc_ns.to_bits(),
            self.input_bytes_per_ns.to_bits(),
            self.drain_bytes_per_ns.to_bits(),
            self.drain_latency_ns.to_bits(),
            self.row_select_ns.to_bits(),
            // Version tag: bump when the cost model changes meaning.
            1,
        ];
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for byte in w.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Analog tile waves one input row needs for a `k x cols` weight
    /// panel: tiles to cover the panel, issued `xbars_per_channel` at a
    /// time.
    fn waves(&self, k_elems: usize, cols: usize) -> u32 {
        let row_tiles = k_elems.div_ceil(self.xbar_rows.max(1)).max(1);
        let col_tiles = cols.div_ceil(self.xbar_cols.max(1)).max(1);
        (row_tiles * col_tiles).div_ceil(self.xbars_per_channel.max(1)) as u32
    }
}

/// The GEMM view of a workload the crossbar lowering needs: `rows` input
/// rows, each reducing `k_elems` elements into `out_channels` outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatmulShape {
    /// Input rows (batch x spatial positions).
    pub rows: usize,
    /// Reduction depth per output element.
    pub k_elems: usize,
    /// Output columns.
    pub out_channels: usize,
}

/// Lowers a GEMM shape to a crossbar program over `channels` channels:
/// output columns split across channels, each channel streaming input-row
/// chunks through its stationary weight tiles (f16 payloads, 2 B/elem).
/// No per-`k`-tile input streaming is emitted — that is the point of the
/// backend.
pub fn lower_shape(shape: &MatmulShape, channels: usize, cfg: &CrossbarConfig) -> IsaProgram {
    let channels = channels.max(1);
    let oc_per_channel = shape.out_channels.div_ceil(channels);
    let mut program = IsaProgram::new(channels);
    if shape.rows == 0 || shape.k_elems == 0 || shape.out_channels == 0 {
        return program;
    }
    let input_bytes = (shape.k_elems * 2).min(u32::MAX as usize) as u32;
    for ch in 0..channels {
        let oc_start = (ch * oc_per_channel).min(shape.out_channels);
        let oc_here = oc_per_channel.min(shape.out_channels - oc_start);
        if oc_here == 0 {
            continue;
        }
        let waves = cfg.waves(shape.k_elems, oc_here);
        // One activation selects the stationary weight panel for the whole
        // layer; the protocol validator requires it before any MAC burst.
        program.push(ch, PimInst::RowActivate { row: 0 });
        let mut remaining = shape.rows;
        while remaining > 0 {
            let chunk = remaining.min(ROW_CHUNK);
            program.push(
                ch,
                PimInst::BufWrite {
                    buffer: 0,
                    bytes: input_bytes.saturating_mul(chunk as u32),
                },
            );
            program.push(
                ch,
                PimInst::MacBurst {
                    buffer: 0,
                    repeat: waves.saturating_mul(chunk as u32),
                },
            );
            program.push(
                ch,
                PimInst::Drain {
                    bytes: ((chunk * oc_here * 2).min(u32::MAX as usize)) as u32,
                },
            );
            remaining -= chunk;
        }
    }
    program
}

/// Times [`IsaProgram`]s on a crossbar channel set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarInterpreter {
    cfg: CrossbarConfig,
}

impl CrossbarInterpreter {
    /// An interpreter over `cfg`'s arrays.
    pub fn new(cfg: CrossbarConfig) -> Self {
        CrossbarInterpreter { cfg }
    }

    fn inst_ns(&self, inst: &PimInst) -> f64 {
        let c = &self.cfg;
        match *inst {
            PimInst::BufWrite { bytes, .. } => bytes as f64 / c.input_bytes_per_ns.max(1e-9),
            PimInst::RowActivate { .. } => c.row_select_ns,
            PimInst::MacBurst { repeat, .. } => repeat as f64 * (c.dac_ns + c.adc_ns),
            PimInst::Drain { bytes } => {
                c.drain_latency_ns + bytes as f64 / c.drain_bytes_per_ns.max(1e-9)
            }
            // Near-bank hand-off: pays the move, not the per-DRAIN fixed
            // ADC-readout latency or any bus contention.
            PimInst::BankFeed { bytes, .. } => bytes as f64 / c.drain_bytes_per_ns.max(1e-9),
            PimInst::HostBurst { bytes } => bytes as f64 / c.drain_bytes_per_ns.max(1e-9),
            // Barriers are structure, not work: the hard barrier splits
            // epochs before costs are summed, and the overlap barrier is a
            // free member separator inside one epoch (per-instruction
            // costs are linear, so overlap-linked members sum per channel
            // and overlap only across channel imbalance — the max).
            PimInst::Barrier | PimInst::OverlapBarrier => 0.0,
        }
    }

    /// Simulated nanoseconds to execute `program`: channels run in
    /// parallel within an epoch (max), epochs run back to back (sum).
    ///
    /// # Panics
    ///
    /// Panics when the program's barriers are unbalanced across channels.
    pub fn interpret_ns(&self, program: &IsaProgram) -> f64 {
        let epochs = program
            .epochs()
            .unwrap_or_else(|e| panic!("crossbar interpreter: {e}"));
        epochs
            .iter()
            .map(|per_channel| {
                per_channel
                    .iter()
                    .map(|insts| insts.iter().map(|i| self.inst_ns(i)).sum::<f64>())
                    .fold(0.0f64, f64::max)
            })
            .sum()
    }
}

impl Interpreter for CrossbarInterpreter {
    fn backend(&self) -> BackendKind {
        BackendKind::Crossbar
    }

    fn interpret_us(&self, program: &IsaProgram) -> f64 {
        self.interpret_ns(program) * 1e-3
    }
}

/// Lower-then-interpret shorthand: microseconds `shape` takes on
/// `channels` crossbar channels, lowered for fusion-group role `role`.
/// The bus crossings a fused placement elides are rewritten to
/// [`PimInst::BankFeed`]s before interpreting, so a fusion-group member's
/// cost reflects activations staying near the banks; `Standalone` keeps
/// the plain lowering. This is the pure cost function the compiler's cost
/// cache stores per [`BackendKind::Crossbar`] key.
pub fn estimate_shape_us(
    shape: &MatmulShape,
    channels: usize,
    cfg: &CrossbarConfig,
    role: FusedRole,
) -> f64 {
    let program = role.rewrite_program(&lower_shape(shape, channels, cfg));
    CrossbarInterpreter::new(*cfg).interpret_us(&program)
}

/// Overlap-linked fused-chain estimate: each member is lowered under its
/// [`FusedRole`], the members are concatenated with
/// [`IsaProgram::append_overlapped`] (relaxed separators, no rendezvous),
/// and the single resulting epoch is interpreted. Per-instruction costs
/// are linear, so a channel's time is the sum of its member streams and
/// the chain time is the max over channels — max-of-sums, against the
/// back-to-back composition's sum-of-maxes. The overlapped estimate is
/// therefore structurally never above the sum of the per-member
/// [`estimate_shape_us`] costs: cross-channel imbalance hides under
/// other members' work instead of being paid once per member.
pub fn estimate_chain_us_overlapped(
    members: &[(MatmulShape, FusedRole)],
    channels: usize,
    cfg: &CrossbarConfig,
) -> f64 {
    let channels = channels.max(1);
    let mut linked: Option<IsaProgram> = None;
    for (shape, role) in members {
        let p = role.rewrite_program(&lower_shape(shape, channels, cfg));
        match &mut linked {
            Some(chain) => chain.append_overlapped(&p),
            None => linked = Some(p),
        }
    }
    match linked {
        Some(chain) => CrossbarInterpreter::new(*cfg).interpret_us(&chain),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{validate_program, MachineSpec};

    fn cfg() -> CrossbarConfig {
        CrossbarConfig::pimcomp_like()
    }

    #[test]
    fn lowered_programs_validate() {
        let shape = MatmulShape {
            rows: 196,
            k_elems: 256,
            out_channels: 1024,
        };
        let p = lower_shape(&shape, 16, &cfg());
        let spec = MachineSpec {
            num_buffers: 1,
            buffer_bytes: usize::MAX,
        };
        validate_program(&p, &spec).unwrap();
        assert_eq!(p.num_channels(), 16);
    }

    #[test]
    fn row_batching_does_not_change_cost() {
        // Per-instruction costs are linear in bytes/repeat, so a shape of
        // two full chunks must cost exactly twice one full chunk's
        // streaming time (BUFWRITE + MACBURST + DRAIN per chunk); only the
        // single upfront activation is shared.
        let one = MatmulShape {
            rows: ROW_CHUNK,
            k_elems: 512,
            out_channels: 64,
        };
        let two = MatmulShape {
            rows: 2 * ROW_CHUNK,
            k_elems: 512,
            out_channels: 64,
        };
        let c = cfg();
        let t1 = estimate_shape_us(&one, 4, &c, FusedRole::Standalone);
        let t2 = estimate_shape_us(&two, 4, &c, FusedRole::Standalone);
        let activation = c.row_select_ns * 1e-3;
        assert!(
            (t2 - (2.0 * (t1 - activation) + activation)).abs() < 1e-9,
            "t1 {t1} t2 {t2}"
        );
    }

    #[test]
    fn deep_reduction_is_cheap_many_rows_are_not() {
        let c = cfg();
        // FC-style: 1 row, deep reduction. Newton streams ~100k COMPs for
        // this; the crossbar does 25 waves.
        let fc = MatmulShape {
            rows: 1,
            k_elems: 25088,
            out_channels: 4096,
        };
        // Early pointwise conv: shallow reduction, a sea of rows.
        let pw = MatmulShape {
            rows: 12544,
            k_elems: 32,
            out_channels: 16,
        };
        let fc_us = estimate_shape_us(&fc, 16, &c, FusedRole::Standalone);
        let pw_us = estimate_shape_us(&pw, 16, &c, FusedRole::Standalone);
        assert!(fc_us < 10.0, "FC should be a few us, got {fc_us}");
        assert!(
            pw_us > 100.0 * fc_us,
            "row-streaming must dominate: fc {fc_us} pw {pw_us}"
        );
    }

    #[test]
    fn empty_shapes_cost_nothing() {
        let z = MatmulShape {
            rows: 0,
            k_elems: 128,
            out_channels: 128,
        };
        assert_eq!(
            estimate_shape_us(&z, 16, &cfg(), FusedRole::Standalone),
            0.0
        );
    }

    #[test]
    fn fingerprint_separates_configs() {
        let a = cfg();
        let mut b = a;
        b.adc_ns = 50.0;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), cfg().fingerprint());
    }

    #[test]
    fn overlapped_chain_never_exceeds_member_sum() {
        // Deliberately imbalanced members: out_channels not divisible by
        // the channel count, so per-member channel loads differ and the
        // overlap has imbalance to hide.
        let c = cfg();
        let members = [
            (
                MatmulShape {
                    rows: 196,
                    k_elems: 96,
                    out_channels: 17,
                },
                FusedRole::Head,
            ),
            (
                MatmulShape {
                    rows: 196,
                    k_elems: 17,
                    out_channels: 530,
                },
                FusedRole::Tail,
            ),
        ];
        for channels in [1, 4, 16] {
            let sum: f64 = members
                .iter()
                .map(|(s, r)| estimate_shape_us(s, channels, &c, *r))
                .sum();
            let overlapped = estimate_chain_us_overlapped(&members, channels, &c);
            assert!(
                overlapped <= sum + 1e-9,
                "{channels}ch: overlapped {overlapped} > sum {sum}"
            );
            assert!(overlapped > 0.0);
        }
        assert_eq!(estimate_chain_us_overlapped(&[], 4, &c), 0.0);
    }

    #[test]
    fn interpreter_reports_its_backend() {
        assert_eq!(
            CrossbarInterpreter::new(cfg()).backend(),
            BackendKind::Crossbar
        );
    }
}
