//! Per-peer protocol state, one record per peer.
//!
//! Several mechanisms keep a little state about each peer they talk to:
//! probe suppression (§4.1) needs the last time a message was heard from and
//! sent to it, self-tuning (§4.1) its piggybacked `T_rt` estimate, and
//! proximity neighbour selection (§4.2) its measured distance. [`PeerTable`]
//! keeps all four in one record per peer, so handling a message touches one
//! hash-table entry, and the self-tuning tick prunes them in one pass.
//!
//! Each field can be absent independently. Presence is a flag, not a value:
//! a distance of `u64::MAX` is a real (unmeasurable) measurement, and a time
//! of zero is a real time.

use crate::fxhash::FxHashMap;
use crate::id::NodeId;
use crate::routing_table::DIST_UNKNOWN;

const HEARD: u8 = 1;
const SENT: u8 = 2;
const HINT: u8 = 4;
const DIST: u8 = 8;

/// Everything known about one peer; a field is valid only while its flag is
/// set in `has`.
#[derive(Debug, Clone, Copy, Default)]
struct Peer {
    heard_us: u64,
    sent_us: u64,
    hint_us: u64,
    dist_us: u64,
    dist_at_us: u64,
    has: u8,
}

impl Peer {
    fn get(&self, flag: u8, v: u64) -> Option<u64> {
        (self.has & flag != 0).then_some(v)
    }
}

/// Per-peer traffic times, `T_rt` hints and measured distances.
#[derive(Debug, Clone, Default)]
pub(crate) struct PeerTable {
    peers: FxHashMap<NodeId, Peer>,
}

impl PeerTable {
    /// Number of peers with any state.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.peers.len()
    }

    /// When a message from `n` was last received.
    pub(crate) fn heard(&self, n: NodeId) -> Option<u64> {
        self.peers.get(&n).and_then(|p| p.get(HEARD, p.heard_us))
    }

    /// When a message to `n` was last sent.
    pub(crate) fn sent(&self, n: NodeId) -> Option<u64> {
        self.peers.get(&n).and_then(|p| p.get(SENT, p.sent_us))
    }

    /// The `T_rt` estimate `n` last piggybacked.
    pub(crate) fn hint(&self, n: NodeId) -> Option<u64> {
        self.peers.get(&n).and_then(|p| p.get(HINT, p.hint_us))
    }

    /// The measured round-trip distance to `n` and when it was measured.
    /// The cache doubles as a negative cache, so rejected routing-table
    /// candidates are not re-measured at every maintenance round.
    pub(crate) fn dist(&self, n: NodeId) -> Option<(u64, u64)> {
        self.peers
            .get(&n)
            .filter(|p| p.has & DIST != 0)
            .map(|p| (p.dist_us, p.dist_at_us))
    }

    /// The measured distance to `n`, or [`DIST_UNKNOWN`] if never measured.
    pub(crate) fn known_dist(&self, n: NodeId) -> u64 {
        self.dist(n).map_or(DIST_UNKNOWN, |(d, _)| d)
    }

    pub(crate) fn note_heard(&mut self, n: NodeId, now_us: u64) {
        let p = self.peers.entry(n).or_default();
        p.heard_us = now_us;
        p.has |= HEARD;
    }

    pub(crate) fn note_sent(&mut self, n: NodeId, now_us: u64) {
        let p = self.peers.entry(n).or_default();
        p.sent_us = now_us;
        p.has |= SENT;
    }

    pub(crate) fn note_hint(&mut self, n: NodeId, t_rt_us: u64) {
        let p = self.peers.entry(n).or_default();
        p.hint_us = t_rt_us;
        p.has |= HINT;
    }

    pub(crate) fn note_dist(&mut self, n: NodeId, dist_us: u64, now_us: u64) {
        let p = self.peers.entry(n).or_default();
        p.dist_us = dist_us;
        p.dist_at_us = now_us;
        p.has |= DIST;
    }

    /// Forgets the hint and the distance of a peer declared faulty; its
    /// traffic times stay.
    pub(crate) fn forget_faulty(&mut self, n: NodeId) {
        if let Some(p) = self.peers.get_mut(&n) {
            p.has &= !(HINT | DIST);
            if p.has == 0 {
                self.peers.remove(&n);
            }
        }
    }

    /// Forgets every hint (a (re)joining node starts self-tuning afresh).
    pub(crate) fn reset_hints(&mut self) {
        self.peers.retain(|_, p| {
            p.has &= !HINT;
            p.has != 0
        });
    }

    /// Prunes the table in one pass.
    ///
    /// Peers outside the routing state (those for which `in_state` is false)
    /// lose heard and sent times at least `traffic_horizon_us` old and a
    /// distance at least `dist_horizon_us` old; peers in it keep everything.
    /// Hints are never pruned. Records left empty are deleted.
    pub(crate) fn prune(
        &mut self,
        now_us: u64,
        traffic_horizon_us: u64,
        dist_horizon_us: u64,
        in_state: impl Fn(NodeId) -> bool,
    ) {
        let old = |t: u64, horizon: u64| now_us.saturating_sub(t) >= horizon;
        self.peers.retain(|&n, p| {
            let mut stale = 0;
            if p.has & HEARD != 0 && old(p.heard_us, traffic_horizon_us) {
                stale |= HEARD;
            }
            if p.has & SENT != 0 && old(p.sent_us, traffic_horizon_us) {
                stale |= SENT;
            }
            if p.has & DIST != 0 && old(p.dist_at_us, dist_horizon_us) {
                stale |= DIST;
            }
            // Most records have nothing stale (a hint alone never is), so
            // membership is tested only where it decides something.
            if stale != 0 && !in_state(n) {
                p.has &= !stale;
            }
            p.has != 0
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, FIXED_T_RT_US, SECOND_US};
    use crate::events::{Effects, Event, TimerKind};
    use crate::id::Id;
    use crate::node::Node;
    use crate::tuning::SelfTuner;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// The hints of `members`, as the self-tuning tick collects them.
    fn member_hints(t: &PeerTable, members: &[NodeId]) -> Vec<u64> {
        members.iter().filter_map(|&n| t.hint(n)).collect()
    }

    #[test]
    fn tuner_adopts_median_of_hints() {
        // The fresh tuner's local estimate is FIXED_T_RT_US (30 s).
        let tuner = SelfTuner::new(0);
        let mut t = PeerTable::default();
        let peers: Vec<Id> = (1..=4u128).map(Id).collect();
        t.note_hint(peers[0], 10 * SECOND_US);
        t.note_hint(peers[1], 20 * SECOND_US);
        t.note_hint(peers[2], 90 * SECOND_US);
        t.note_hint(peers[3], 100 * SECOND_US);
        let adopted = tuner.adopted(member_hints(&t, &peers));
        assert_eq!(adopted, FIXED_T_RT_US, "median of [10,20,30,90,100] s");
        // Hints from nodes outside the routing state are ignored.
        let adopted = tuner.adopted(member_hints(&t, &peers[..1]));
        assert_eq!(adopted, FIXED_T_RT_US, "median of [10,30] s");
    }

    #[test]
    fn tuner_forget_removes_hints() {
        let tuner = SelfTuner::new(0);
        let mut t = PeerTable::default();
        t.note_hint(Id(1), 10);
        t.forget_faulty(Id(1));
        let hints = member_hints(&t, &[Id(1)]);
        assert_eq!(tuner.adopted(hints), tuner.local_t_rt_us());
    }

    #[test]
    fn self_tune_prunes_stale_peer_maps() {
        let mut n = Node::new(
            Id(1),
            Config {
                nearest_neighbor_join: false,
                ..Config::default()
            },
        );
        let mut fx = Effects::new();
        n.handle(0, Event::Join { seed: None }, &mut fx);
        // A peer outside the routing state, heard from long ago.
        n.peers.note_heard(Id(999), 1);
        n.peers.note_sent(Id(999), 1);
        // A peer in the routing state, just as stale.
        let member = Id(2);
        n.ls.add(member);
        n.peers.note_heard(member, 1);
        n.peers.note_sent(member, 1);
        let far = 100 * n.config().t_ls_us;
        n.handle(far, Event::Timer(TimerKind::SelfTune), &mut fx);
        assert!(
            n.peers.heard(Id(999)).is_none(),
            "stale non-member pruned from last_heard"
        );
        assert!(n.peers.sent(Id(999)).is_none());
        assert_eq!(n.peers.heard(member), Some(1), "stale member kept");
        assert_eq!(n.peers.sent(member), Some(1));
    }

    /// The four separate maps `PeerTable` replaced, with their prune rule,
    /// kept as the reference model.
    #[derive(Default)]
    struct Model {
        last_heard: FxHashMap<NodeId, u64>,
        last_sent: FxHashMap<NodeId, u64>,
        hints: FxHashMap<NodeId, u64>,
        known_dists: FxHashMap<NodeId, (u64, u64)>,
    }

    impl Model {
        fn prune(&mut self, now: u64, horizon: u64, dist_horizon: u64, keep: &HashSet<NodeId>) {
            self.last_heard
                .retain(|n, &mut t| keep.contains(n) || now.saturating_sub(t) < horizon);
            self.last_sent
                .retain(|n, &mut t| keep.contains(n) || now.saturating_sub(t) < horizon);
            self.known_dists.retain(|n, &mut (_, at)| {
                keep.contains(n) || now.saturating_sub(at) < dist_horizon
            });
        }

        fn peers(&self) -> HashSet<NodeId> {
            let keys = self.last_heard.keys().chain(self.last_sent.keys());
            keys.chain(self.hints.keys())
                .chain(self.known_dists.keys())
                .copied()
                .collect()
        }
    }

    #[test]
    fn matches_the_four_map_model() {
        let mut rng = SmallRng::seed_from_u64(3);
        let pool: Vec<NodeId> = (0..40u128).map(Id).collect();
        let (horizon, dist_horizon) = (400, 1000);
        let mut t = PeerTable::default();
        let mut m = Model::default();
        let mut now = 0u64;
        for step in 0..20_000 {
            now += rng.gen_range(0..20u64);
            let n = pool[rng.gen_range(0..pool.len())];
            // Values include 0 and u64::MAX, which must not read as absent.
            let v = match rng.gen_range(0..10) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.gen_range(0..5000),
            };
            match rng.gen_range(0..100) {
                0..=24 => {
                    t.note_heard(n, now);
                    m.last_heard.insert(n, now);
                }
                25..=49 => {
                    t.note_sent(n, now);
                    m.last_sent.insert(n, now);
                }
                50..=64 => {
                    t.note_hint(n, v);
                    m.hints.insert(n, v);
                }
                65..=79 => {
                    t.note_dist(n, v, now);
                    m.known_dists.insert(n, (v, now));
                }
                80..=89 => {
                    t.forget_faulty(n);
                    m.hints.remove(&n);
                    m.known_dists.remove(&n);
                }
                90 => {
                    t.reset_hints();
                    m.hints.clear();
                }
                _ => {
                    let keep: HashSet<NodeId> =
                        pool.iter().copied().filter(|_| rng.gen_bool(0.3)).collect();
                    t.prune(now, horizon, dist_horizon, |n| keep.contains(&n));
                    m.prune(now, horizon, dist_horizon, &keep);
                }
            }
            assert_eq!(t.len(), m.peers().len(), "records at step {step}");
            for &n in &pool {
                assert_eq!(t.heard(n), m.last_heard.get(&n).copied(), "heard at {step}");
                assert_eq!(t.sent(n), m.last_sent.get(&n).copied(), "sent at {step}");
                assert_eq!(t.hint(n), m.hints.get(&n).copied(), "hint at {step}");
                assert_eq!(t.dist(n), m.known_dists.get(&n).copied(), "dist at {step}");
                let want = m.known_dists.get(&n).map_or(DIST_UNKNOWN, |&(d, _)| d);
                assert_eq!(t.known_dist(n), want);
            }
        }
    }
}
