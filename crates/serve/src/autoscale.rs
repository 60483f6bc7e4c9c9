//! Autoscaling decisions from queue-depth and utilization signals.
//!
//! The autoscaler samples the fleet at a fixed interval and decides to
//! activate a standby node, drain an active one, or hold. The decision
//! rule is a pure function of the sampled [`ScaleSignal`], so it is
//! unit-testable in isolation; the simulator applies the decision (picking
//! *which* node deterministically: lowest-id standby to activate,
//! highest-id active to drain).

use crate::config::AutoscaleConfig;

/// The autoscaler never drains below this many active nodes.
pub const MIN_ACTIVE_NODES: usize = 1;

/// Fleet state sampled at one autoscaler tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleSignal {
    /// Requests queued across all routable nodes.
    pub queued_total: usize,
    /// Nodes currently accepting traffic.
    pub active_nodes: usize,
    /// Standby nodes available to activate.
    pub standby_nodes: usize,
    /// Mean busy fraction of active nodes over the last interval.
    pub utilization: f64,
}

/// What the autoscaler wants to do this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// No change.
    Hold,
    /// Activate one standby node.
    Up,
    /// Drain one active node (it finishes its queue, then goes standby).
    Down,
}

/// The decision rule: scale up when the backlog exceeds
/// `up_queue_per_active` requests per active node (and a standby node
/// exists); scale down when the fleet is idle — utilization below
/// `down_utilization` with an empty backlog — and more than
/// [`MIN_ACTIVE_NODES`] nodes are active. Backlog pressure wins over idleness.
pub fn decide(cfg: &AutoscaleConfig, sig: &ScaleSignal) -> ScaleDecision {
    if !cfg.enabled {
        return ScaleDecision::Hold;
    }
    let backlog_limit = cfg.up_queue_per_active * sig.active_nodes.max(1) as f64;
    if sig.queued_total as f64 > backlog_limit {
        if sig.standby_nodes > 0 {
            return ScaleDecision::Up;
        }
        return ScaleDecision::Hold; // nothing left to add
    }
    if sig.queued_total == 0
        && sig.utilization < cfg.down_utilization
        && sig.active_nodes > MIN_ACTIVE_NODES
    {
        return ScaleDecision::Down;
    }
    ScaleDecision::Hold
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig {
            enabled: true,
            interval_us: 50_000.0,
            up_queue_per_active: 8.0,
            down_utilization: 0.15,
        }
    }

    #[test]
    fn disabled_always_holds() {
        let sig = ScaleSignal {
            queued_total: 1_000,
            active_nodes: 1,
            standby_nodes: 3,
            utilization: 1.0,
        };
        let off = AutoscaleConfig {
            enabled: false,
            ..cfg()
        };
        assert_eq!(decide(&off, &sig), ScaleDecision::Hold);
    }

    #[test]
    fn backlog_scales_up_only_with_standby_capacity() {
        let mut sig = ScaleSignal {
            queued_total: 20,
            active_nodes: 2,
            standby_nodes: 1,
            utilization: 0.9,
        };
        assert_eq!(decide(&cfg(), &sig), ScaleDecision::Up);
        sig.standby_nodes = 0;
        assert_eq!(decide(&cfg(), &sig), ScaleDecision::Hold);
        sig.queued_total = 10; // under 8 * 2
        sig.standby_nodes = 1;
        assert_eq!(decide(&cfg(), &sig), ScaleDecision::Hold);
    }

    #[test]
    fn idleness_scales_down_to_the_floor() {
        let mut sig = ScaleSignal {
            queued_total: 0,
            active_nodes: 3,
            standby_nodes: 0,
            utilization: 0.05,
        };
        assert_eq!(decide(&cfg(), &sig), ScaleDecision::Down);
        sig.active_nodes = 1;
        assert_eq!(decide(&cfg(), &sig), ScaleDecision::Hold, "floor holds");
        sig.active_nodes = 3;
        sig.utilization = 0.5;
        assert_eq!(decide(&cfg(), &sig), ScaleDecision::Hold, "busy holds");
        sig.utilization = 0.05;
        sig.queued_total = 1;
        assert_eq!(
            decide(&cfg(), &sig),
            ScaleDecision::Hold,
            "backlog blocks drain"
        );
    }
}
