//! Protocol configuration.
//!
//! [`Config::default`] is the paper's *base configuration*: `b = 4`, `l = 32`,
//! `Tls = 30 s`, per-hop acks, routing-table probing self-tuned with a target
//! raw loss rate `Lr = 5 %`, probe suppression, and symmetric distance
//! probes. Parameters the paper never varies are constants.

/// One second in the microsecond clock used throughout.
pub const SECOND_US: u64 = 1_000_000;

/// Routing-table probing period when self-tuning is off, and the initial
/// estimate before the first self-tuning round, microseconds.
pub const FIXED_T_RT_US: u64 = 30 * SECOND_US;

/// Length `K` of the failure history used to estimate the failure rate µ.
pub const FAILURE_HISTORY_LEN: usize = 16;

/// Number of distance probes per routing-table candidate measurement (the
/// median is used; paper: 3). The nearest-neighbour algorithm takes a
/// single probe per candidate to keep join latency low.
pub const DISTANCE_PROBE_COUNT: u32 = 3;

/// Maximum number of reroutes for one lookup at one hop before dropping.
pub const ACK_MAX_REROUTES: u32 = 8;

/// Retransmissions to a silent *root* before excluding it and delivering at
/// the now-closest node (final-hop ack timeouts retry the same node first:
/// there is no alternative node that could correctly deliver). Each retry
/// squares the probability that an alive root is wrongly bypassed, at the
/// cost of delay when the root really is dead — every node holding the
/// lookup pays the budget. When excluding the root would leave only a
/// self-delivery, the extended budget `4 + 3·(max_probe_retries + 1)`
/// applies instead, so the retransmissions outlast the root's probe verdict.
pub const ROOT_RETX_ATTEMPTS: u32 = 1;

/// Capacity of the buffer for lookups received while inactive.
pub const JOIN_BUFFER_CAP: usize = 1024;

/// MSPastry protocol parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Digit width in bits (nodeIds and keys are read in base 2^b).
    pub b: u8,
    /// Leaf set size `l`; the leaf set holds `l/2` nodes on each side.
    pub leaf_set_size: usize,
    /// Leaf-set heartbeat period `Tls`, microseconds.
    pub t_ls_us: u64,
    /// Probe timeout `To`, microseconds (paper: 3 s, the TCP SYN timeout).
    pub t_o_us: u64,
    /// Maximum probe retries before a node is marked faulty (paper: 2).
    pub max_probe_retries: u32,
    /// Enable per-hop acknowledgements and rerouting (§3.2).
    pub per_hop_acks: bool,
    /// Enable active liveness probing of routing-table entries (§3.2).
    pub active_rt_probing: bool,
    /// Enable self-tuning of the routing-table probing period (§4.1). When
    /// disabled, [`FIXED_T_RT_US`] is used.
    pub self_tuning: bool,
    /// Target raw loss rate `Lr` for self-tuning (paper: 0.05).
    pub target_raw_loss: f64,
    /// Period of the self-tuning recomputation, microseconds.
    pub self_tune_period_us: u64,
    /// Suppress failure-detection messages when regular traffic already
    /// proves liveness (§4.1).
    pub probe_suppression: bool,
    /// Spacing between distance probes of one measurement, microseconds.
    pub distance_probe_spacing_us: u64,
    /// Timeout of a nearest-neighbour distance probe, microseconds. Shorter
    /// than `To` and never retried: a dead candidate should cost little join
    /// latency.
    pub nn_probe_timeout_us: u64,
    /// Run the nearest-neighbour seed-discovery algorithm before joining.
    pub nearest_neighbor_join: bool,
    /// Period of the routing-table maintenance protocol, microseconds
    /// (paper: 20 minutes).
    pub rt_maintenance_period_us: u64,
    /// Minimum per-hop ack retransmission timeout, microseconds. Aggressive
    /// by design: Pastry has redundant routes at every hop but the last.
    pub ack_rto_min_us: u64,
    /// Initial per-hop RTO before any sample for a peer, microseconds.
    pub ack_rto_initial_us: u64,
    /// Join retry period while a node has not become active, microseconds.
    pub join_retry_us: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            b: 4,
            leaf_set_size: 32,
            t_ls_us: 30 * SECOND_US,
            t_o_us: 3 * SECOND_US,
            max_probe_retries: 2,
            per_hop_acks: true,
            active_rt_probing: true,
            self_tuning: true,
            target_raw_loss: 0.05,
            self_tune_period_us: 60 * SECOND_US,
            probe_suppression: true,
            distance_probe_spacing_us: SECOND_US,
            nn_probe_timeout_us: 1_500_000,
            nearest_neighbor_join: true,
            rt_maintenance_period_us: 20 * 60 * SECOND_US,
            ack_rto_min_us: 20_000,
            ack_rto_initial_us: 500_000,
            join_retry_us: 30 * SECOND_US,
        }
    }
}

impl Config {
    /// Half leaf-set size (`l/2` nodes per side).
    pub fn leaf_half(&self) -> usize {
        self.leaf_set_size / 2
    }

    /// Lower bound on the routing-table probing period:
    /// `(max_probe_retries + 1) * To`.
    pub fn t_rt_floor_us(&self) -> u64 {
        (self.max_probe_retries as u64 + 1) * self.t_o_us
    }

    /// Validates parameter combinations.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=8).contains(&self.b) {
            return Err(format!("b must be in 1..=8, got {}", self.b));
        }
        if self.leaf_set_size < 2 || !self.leaf_set_size.is_multiple_of(2) {
            return Err(format!(
                "leaf set size must be even and >= 2, got {}",
                self.leaf_set_size
            ));
        }
        if self.t_o_us == 0 || self.t_ls_us == 0 {
            return Err("timeouts must be positive".into());
        }
        if !(0.0..1.0).contains(&self.target_raw_loss) || self.target_raw_loss <= 0.0 {
            return Err(format!(
                "target raw loss must be in (0, 1), got {}",
                self.target_raw_loss
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_base_configuration() {
        let c = Config::default();
        assert_eq!(c.b, 4);
        assert_eq!(c.leaf_set_size, 32);
        assert_eq!(c.t_ls_us, 30 * SECOND_US);
        assert_eq!(c.t_o_us, 3 * SECOND_US);
        assert_eq!(c.max_probe_retries, 2);
        assert!(c.per_hop_acks && c.active_rt_probing && c.self_tuning);
        assert!((c.target_raw_loss - 0.05).abs() < 1e-12);
        assert!(c.validate().is_ok());
        assert_eq!(FIXED_T_RT_US, 30 * SECOND_US);
        assert_eq!(FAILURE_HISTORY_LEN, 16);
        assert_eq!(DISTANCE_PROBE_COUNT, 3);
        assert_eq!(ACK_MAX_REROUTES, 8);
        assert_eq!(ROOT_RETX_ATTEMPTS, 1);
        assert_eq!(JOIN_BUFFER_CAP, 1024);
    }

    #[test]
    fn floor_is_retries_plus_one_times_to() {
        let c = Config::default();
        assert_eq!(c.t_rt_floor_us(), 9 * SECOND_US);
    }

    #[test]
    fn validate_rejects_bad_values() {
        let c = Config {
            b: 0,
            ..Config::default()
        };
        assert!(c.validate().is_err());
        let c = Config {
            leaf_set_size: 7,
            ..Config::default()
        };
        assert!(c.validate().is_err());
        let c = Config {
            target_raw_loss: 0.0,
            ..Config::default()
        };
        assert!(c.validate().is_err());
        let c = Config {
            target_raw_loss: 1.5,
            ..Config::default()
        };
        assert!(c.validate().is_err());
    }
}
