//! Timed channel-fault scenarios for serving runs.
//!
//! Channel loss is modelled once, as the engine-level [`ChannelMask`] the
//! scheduler compiles against. A serving run needs it on the *wall-clock*
//! timeline: channel `c` dies at `t_us`, recovers later (or never). A
//! [`FaultScenario`] is that timeline — a sorted list of up/down
//! transitions the discrete-event loop replays alongside arrivals,
//! folding each transition into the mask.

use pimflow::engine::ChannelMask;
use pimflow_json::json_struct;
use pimflow_rng::Rng;

/// One channel availability transition at a simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Simulated time of the transition, microseconds.
    pub at_us: f64,
    /// PIM channel index.
    pub channel: usize,
    /// `true` = the channel recovers, `false` = it hard-fails.
    pub up: bool,
}

json_struct!(FaultEvent { at_us, channel, up });

/// A timed sequence of channel failures and recoveries injected into one
/// serving run. Events are kept sorted by time (ties broken by channel,
/// downs before ups) so replaying them is deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultScenario {
    /// The transitions, sorted by `(at_us, channel, up)`.
    pub events: Vec<FaultEvent>,
}

json_struct!(FaultScenario { events });

impl FaultScenario {
    /// The healthy scenario: no transitions.
    pub fn none() -> Self {
        FaultScenario::default()
    }

    /// Whether the scenario has no transitions.
    pub fn is_none(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a transition, keeping the event list sorted.
    pub fn push(&mut self, at_us: f64, channel: usize, up: bool) {
        self.events.push(FaultEvent { at_us, channel, up });
        self.sort();
    }

    fn sort(&mut self) {
        self.events.sort_by(|a, b| {
            a.at_us
                .partial_cmp(&b.at_us)
                .expect("fault times are finite")
                .then(a.channel.cmp(&b.channel))
                .then(a.up.cmp(&b.up))
        });
    }

    /// A reproducible random scenario over a `duration_s` run window:
    /// roughly `severity` (clamped to `[0, 1]`) of the `channels` channels
    /// hard-fail somewhere in the first half of the window and recover
    /// before 90% of it has elapsed. At least one channel always survives,
    /// so severity 1.0 degrades the device without bricking it.
    pub fn from_seed(seed: u64, channels: usize, severity: f64, duration_s: f64) -> Self {
        let severity = severity.clamp(0.0, 1.0);
        if channels == 0 || severity == 0.0 || duration_s <= 0.0 {
            return FaultScenario::none();
        }
        let window_us = duration_s * 1e6;
        let mut rng = Rng::seed_from_u64(seed);
        let spared = rng.below(channels as u64) as usize;
        let mut pool: Vec<usize> = (0..channels).filter(|&c| c != spared).collect();
        let victims = ((pool.len() as f64) * severity).round().max(1.0) as usize;
        let victims = victims.min(pool.len());
        let mut scenario = FaultScenario::none();
        for _ in 0..victims {
            let pick = rng.below(pool.len() as u64) as usize;
            let channel = pool.swap_remove(pick);
            let down_us = window_us * rng.range_f64(0.10, 0.50);
            let up_us = (down_us + window_us * rng.range_f64(0.20, 0.40)).min(window_us * 0.90);
            scenario.events.push(FaultEvent {
                at_us: down_us,
                channel,
                up: false,
            });
            scenario.events.push(FaultEvent {
                at_us: up_us,
                channel,
                up: true,
            });
        }
        scenario.sort();
        scenario
    }

    /// The availability mask after replaying every transition at or before
    /// `t_us`, starting from all-up.
    pub fn mask_at(&self, t_us: f64) -> ChannelMask {
        let mut mask = ChannelMask::all();
        for e in &self.events {
            if e.at_us > t_us {
                break;
            }
            mask = if e.up {
                mask.with(e.channel)
            } else {
                mask.without(e.channel)
            };
        }
        mask
    }

    /// The `[start, end]` window during which at least one channel is down
    /// (`None` when the scenario never degrades the device). `end` is
    /// `f64::INFINITY` when some channel never recovers.
    pub fn degraded_window_us(&self) -> Option<(f64, f64)> {
        let mut down: u64 = 0;
        let mut start = None;
        let mut end = f64::INFINITY;
        for e in &self.events {
            if e.up {
                if e.channel < 64 {
                    down &= !(1 << e.channel);
                }
            } else {
                if start.is_none() {
                    start = Some(e.at_us);
                }
                if e.channel < 64 {
                    down |= 1 << e.channel;
                }
            }
            if down == 0 && start.is_some() {
                end = e.at_us;
            }
        }
        start.map(|s| (s, if down == 0 { end } else { f64::INFINITY }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_scenarios_replay() {
        let a = FaultScenario::from_seed(9, 16, 0.5, 1.0);
        let b = FaultScenario::from_seed(9, 16, 0.5, 1.0);
        assert_eq!(a, b);
        assert!(!a.is_none());
    }

    #[test]
    fn zero_severity_is_healthy() {
        assert!(FaultScenario::from_seed(1, 16, 0.0, 1.0).is_none());
        assert!(FaultScenario::from_seed(1, 0, 1.0, 1.0).is_none());
    }

    #[test]
    fn every_down_recovers_within_the_window() {
        let s = FaultScenario::from_seed(3, 16, 1.0, 2.0);
        let window_us = 2.0e6;
        let downs = s.events.iter().filter(|e| !e.up).count();
        let ups = s.events.iter().filter(|e| e.up).count();
        assert_eq!(downs, ups);
        for e in &s.events {
            assert!(e.at_us > 0.0 && e.at_us <= window_us * 0.90 + 1e-6);
        }
        let (start, end) = s.degraded_window_us().unwrap();
        assert!(start < end && end.is_finite());
    }

    #[test]
    fn one_channel_always_survives() {
        for seed in 0..8 {
            let s = FaultScenario::from_seed(seed, 8, 1.0, 1.0);
            let touched: std::collections::BTreeSet<usize> =
                s.events.iter().map(|e| e.channel).collect();
            assert!(touched.len() < 8, "seed {seed} killed every channel");
        }
    }

    #[test]
    fn mask_at_replays_transitions_in_order() {
        let mut s = FaultScenario::none();
        s.push(100.0, 3, false);
        s.push(200.0, 3, true);
        assert!(s.mask_at(50.0).is_up(3));
        assert!(!s.mask_at(100.0).is_up(3));
        assert!(!s.mask_at(199.0).is_up(3));
        assert!(s.mask_at(200.0).is_up(3));
    }

    #[test]
    fn degraded_window_handles_unrecovered_channels() {
        let mut s = FaultScenario::none();
        s.push(10.0, 0, false);
        let (start, end) = s.degraded_window_us().unwrap();
        assert_eq!(start, 10.0);
        assert!(end.is_infinite());
        assert!(FaultScenario::none().degraded_window_us().is_none());
    }

    #[test]
    fn scenarios_serialize_roundtrip() {
        let s = FaultScenario::from_seed(7, 16, 0.5, 0.5);
        let json = pimflow_json::to_string(&s);
        let back: FaultScenario = pimflow_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
