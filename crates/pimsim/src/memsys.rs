//! The PIM-enabled GPU memory system (§4.1, Fig. 4).
//!
//! A single DRAM serves as both GPU memory and PIM device by dividing its
//! channels into two contiguous sets: regular channels for GPU data and
//! PIM-enabled channels. This facade owns that division and provides the
//! §7 contention experiment (interleaving ordinary GPU traffic into PIM
//! command streams) as a first-class operation.

use crate::command::CommandBlock;
use crate::config::{ConfigError, PimConfig};
use crate::interp::NewtonInterpreter;
use crate::scheduler::{schedule, ScheduleGranularity};
use crate::timing::ChannelStats;
use pimflow_isa::{IsaProgram, PimInst};

/// A GPU memory with a contiguous subset of PIM-enabled channels.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    /// Channels serving the GPU as ordinary DRAM.
    pub gpu_channels: usize,
    /// PIM-enabled channels.
    pub pim_channels: usize,
    /// Per-channel PIM configuration.
    pub cfg: PimConfig,
}

impl MemorySystem {
    /// Creates the paper's evaluation memory: 32 channels split 16/16.
    pub fn pimflow_default() -> Self {
        MemorySystem {
            gpu_channels: 16,
            pim_channels: 16,
            cfg: PimConfig::newton_plus_plus(),
        }
    }

    /// Creates a memory system, validating the division.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoPimChannels`] when `pim_channels == 0`, or
    /// whatever [`PimConfig::validate`] rejects about the per-channel
    /// config.
    pub fn new(
        gpu_channels: usize,
        pim_channels: usize,
        cfg: PimConfig,
    ) -> Result<Self, ConfigError> {
        if pim_channels == 0 {
            return Err(ConfigError::NoPimChannels);
        }
        cfg.validate()?;
        Ok(MemorySystem {
            gpu_channels,
            pim_channels,
            cfg,
        })
    }

    /// Total channels in the device.
    pub fn total_channels(&self) -> usize {
        self.gpu_channels + self.pim_channels
    }

    /// Executes one layer's command blocks on the PIM channel set.
    pub fn run_layer(
        &self,
        blocks: &[CommandBlock],
        granularity: ScheduleGranularity,
    ) -> ChannelStats {
        let program = schedule(blocks, self.pim_channels, granularity, &self.cfg);
        NewtonInterpreter::new(&self.cfg).run(&program).0
    }

    /// Executes one layer while ordinary GPU traffic shares the controller:
    /// a `burst_bytes` `HOSTBURST` is interleaved every `burst_every`
    /// PIM instructions on every channel (§7's contention methodology).
    ///
    /// # Panics
    ///
    /// Panics if `burst_every == 0`.
    pub fn run_layer_with_gpu_traffic(
        &self,
        blocks: &[CommandBlock],
        granularity: ScheduleGranularity,
        burst_bytes: u32,
        burst_every: usize,
    ) -> ChannelStats {
        assert!(burst_every > 0, "burst interval must be positive");
        let program = schedule(blocks, self.pim_channels, granularity, &self.cfg);
        let noisy = program
            .channels()
            .iter()
            .map(|stream| {
                let mut out = Vec::with_capacity(stream.len() + stream.len() / burst_every + 1);
                for (i, &inst) in stream.iter().enumerate() {
                    if i % burst_every == 0 {
                        out.push(PimInst::HostBurst { bytes: burst_bytes });
                    }
                    out.push(inst);
                }
                out
            })
            .collect();
        NewtonInterpreter::new(&self.cfg)
            .run(&IsaProgram::from_channels(noisy))
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks() -> Vec<CommandBlock> {
        vec![
            CommandBlock {
                buffer_rows: 4,
                gwrite_bytes: 128,
                gwrites_per_row: 1,
                gacts: 4,
                comps_per_gact: 16,
                readres_bytes: 64,
                oc_splits: 8,
                row_base: 0,
            };
            64
        ]
    }

    #[test]
    fn default_is_the_paper_split() {
        let m = MemorySystem::pimflow_default();
        assert_eq!(m.total_channels(), 32);
        assert_eq!((m.gpu_channels, m.pim_channels), (16, 16));
    }

    #[test]
    fn zero_pim_channels_rejected() {
        assert_eq!(
            MemorySystem::new(32, 0, PimConfig::default()).unwrap_err(),
            ConfigError::NoPimChannels
        );
    }

    #[test]
    fn invalid_channel_config_rejected() {
        let cfg = PimConfig {
            banks: 0,
            ..PimConfig::default()
        };
        assert_eq!(
            MemorySystem::new(16, 16, cfg).unwrap_err(),
            ConfigError::NoBanks
        );
    }

    #[test]
    fn layer_runs_and_contention_is_small() {
        let m = MemorySystem::pimflow_default();
        let clean = m.run_layer(&blocks(), ScheduleGranularity::Comp);
        let noisy = m.run_layer_with_gpu_traffic(&blocks(), ScheduleGranularity::Comp, 512, 64);
        assert!(noisy.cycles >= clean.cycles);
        let slowdown = noisy.cycles as f64 / clean.cycles as f64 - 1.0;
        assert!(slowdown < 0.05, "contention slowdown {slowdown}");
        assert_eq!(noisy.comps, clean.comps, "work must be unchanged");
    }
}
