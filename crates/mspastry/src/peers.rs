//! Per-peer protocol state, one record per peer.
//!
//! Several mechanisms keep a little state about each peer they talk to:
//! probe suppression (§4.1) needs the last time a message was heard from and
//! sent to it, self-tuning (§4.1) its piggybacked `T_rt` estimate, and
//! proximity neighbour selection (§4.2) its measured distance. [`PeerTable`]
//! keeps all four in one record per peer, so handling a message touches one
//! hash-table entry.
//!
//! The record also holds whether the peer is in the routing state (routing
//! table or leaf set). The node's routing-state edits report every
//! membership change here ([`PeerTable::set_member`]), so the table keeps
//! the member count and the members' hints in ascending order as they
//! change, and the self-tuning tick reads both without visiting any member.
//! It also keeps a dense list of the records its prune can change
//! (non-members with a traffic time or a distance), so the tick's prune
//! skips members and hint-only records.
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
/// The peer is in the routing state.
const MEMBER: u8 = 16;
/// The fields [`PeerTable::prune`] can drop.
const PRUNABLE: u8 = HEARD | SENT | DIST;

/// Everything known about one peer; a field is valid only while its flag is
/// set in `has`.
#[derive(Debug, Clone, Copy, Default)]
struct Peer {
    heard_us: u64,
    sent_us: u64,
    hint_us: u64,
    dist_us: u64,
    dist_at_us: u64,
    /// Index in `PeerTable::prunable`, valid while [`Peer::listed`].
    slot: u32,
    has: u8,
}

impl Peer {
    fn get(&self, flag: u8, v: u64) -> Option<u64> {
        (self.has & flag != 0).then_some(v)
    }

    /// `true` if the prune can change this record: it is outside the routing
    /// state and holds a traffic time or a distance.
    fn listed(&self) -> bool {
        self.has & MEMBER == 0 && self.has & PRUNABLE != 0
    }
}

/// Per-peer traffic times, `T_rt` hints, measured distances and
/// routing-state membership.
#[derive(Debug, Clone, Default)]
pub(crate) struct PeerTable {
    peers: FxHashMap<NodeId, Peer>,
    /// Every record for which [`Peer::listed`] holds, in no order.
    prunable: Vec<NodeId>,
    /// The hints of the routing-state members, ascending.
    member_hints: Vec<u64>,
    /// Number of routing-state members.
    members: usize,
}

/// Appends `n` to the prunable list and returns its slot.
fn list(prunable: &mut Vec<NodeId>, n: NodeId) -> u32 {
    let slot = u32::try_from(prunable.len()).expect("fewer than 2^32 peers");
    prunable.push(n);
    slot
}

/// Inserts `v` into the ascending `sorted`.
fn insert_sorted(sorted: &mut Vec<u64>, v: u64) {
    let at = sorted.partition_point(|&h| h < v);
    sorted.insert(at, v);
}

/// Removes one copy of `v`, which must be present, from the ascending
/// `sorted`.
fn remove_sorted(sorted: &mut Vec<u64>, v: u64) {
    let at = sorted.partition_point(|&h| h < v);
    debug_assert_eq!(sorted.get(at), Some(&v), "hint not tracked");
    sorted.remove(at);
}

impl PeerTable {
    /// Number of peers with any state, membership included.
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
    #[cfg(any(test, debug_assertions))]
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

    /// Number of routing-state members.
    pub(crate) fn member_count(&self) -> usize {
        self.members
    }

    /// The hints of the routing-state members, ascending.
    pub(crate) fn member_hints(&self) -> &[u64] {
        &self.member_hints
    }

    /// `true` if `n` is recorded as a routing-state member.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn is_member(&self, n: NodeId) -> bool {
        self.peers.get(&n).is_some_and(|p| p.has & MEMBER != 0)
    }

    /// Checks the derived state against the records: the member count, the
    /// sorted member hints and the prunable list with its slots.
    #[cfg(test)]
    fn assert_consistent(&self) {
        let members = self.peers.values().filter(|p| p.has & MEMBER != 0);
        assert_eq!(self.members, members.clone().count(), "member count");
        let mut hints: Vec<u64> = members.filter_map(|p| p.get(HINT, p.hint_us)).collect();
        hints.sort_unstable();
        assert_eq!(self.member_hints, hints, "member hints");
        let listed = self.peers.values().filter(|p| p.listed()).count();
        assert_eq!(self.prunable.len(), listed, "prunable list length");
        for (i, n) in self.prunable.iter().enumerate() {
            let p = &self.peers[n];
            assert!(p.listed() && p.slot as usize == i, "prunable slot {i}");
        }
    }

    /// Sets `flag` (a prunable field) on `n`'s record, creating it, and
    /// lists the record if that made it prunable.
    fn note(&mut self, n: NodeId, flag: u8) -> &mut Peer {
        let p = self.peers.entry(n).or_default();
        if p.has & (MEMBER | PRUNABLE) == 0 {
            p.slot = list(&mut self.prunable, n);
        }
        p.has |= flag;
        p
    }

    pub(crate) fn note_heard(&mut self, n: NodeId, now_us: u64) {
        self.note(n, HEARD).heard_us = now_us;
    }

    pub(crate) fn note_sent(&mut self, n: NodeId, now_us: u64) {
        self.note(n, SENT).sent_us = now_us;
    }

    pub(crate) fn note_hint(&mut self, n: NodeId, t_rt_us: u64) {
        let p = self.peers.entry(n).or_default();
        let old = p.get(HINT, p.hint_us);
        if old == Some(t_rt_us) {
            return;
        }
        p.hint_us = t_rt_us;
        p.has |= HINT;
        if p.has & MEMBER != 0 {
            if let Some(old) = old {
                remove_sorted(&mut self.member_hints, old);
            }
            insert_sorted(&mut self.member_hints, t_rt_us);
        }
    }

    pub(crate) fn note_dist(&mut self, n: NodeId, dist_us: u64, now_us: u64) {
        let p = self.note(n, DIST);
        p.dist_us = dist_us;
        p.dist_at_us = now_us;
    }

    /// Records whether `n` is in the routing state. The node calls this
    /// after every routing-table or leaf-set edit, for each id it touched.
    pub(crate) fn set_member(&mut self, n: NodeId, member: bool) {
        let p = if member {
            self.peers.entry(n).or_default()
        } else {
            match self.peers.get_mut(&n) {
                Some(p) => p,
                None => return,
            }
        };
        if (p.has & MEMBER != 0) == member {
            return;
        }
        let was_listed = p.listed();
        p.has ^= MEMBER;
        if member {
            self.members += 1;
            if p.has & HINT != 0 {
                insert_sorted(&mut self.member_hints, p.hint_us);
            }
            if was_listed {
                let slot = p.slot;
                self.unlist(slot);
            }
        } else {
            self.members -= 1;
            if p.has & HINT != 0 {
                remove_sorted(&mut self.member_hints, p.hint_us);
            }
            if p.listed() {
                p.slot = list(&mut self.prunable, n);
            } else if p.has == 0 {
                self.peers.remove(&n);
            }
        }
    }

    /// Drops entry `slot` of the prunable list.
    fn unlist(&mut self, slot: u32) {
        self.prunable.swap_remove(slot as usize);
        if let Some(&moved) = self.prunable.get(slot as usize) {
            self.peers.get_mut(&moved).expect("listed record").slot = slot;
        }
    }

    /// Forgets the hint and the distance of a peer declared faulty; its
    /// traffic times stay.
    pub(crate) fn forget_faulty(&mut self, n: NodeId) {
        let Some(p) = self.peers.get_mut(&n) else {
            return;
        };
        if p.has & (HINT | MEMBER) == HINT | MEMBER {
            remove_sorted(&mut self.member_hints, p.hint_us);
        }
        let was_listed = p.listed();
        p.has &= !(HINT | DIST);
        let (listed, slot, empty) = (p.listed(), p.slot, p.has == 0);
        if empty {
            self.peers.remove(&n);
        }
        if was_listed && !listed {
            self.unlist(slot);
        }
    }

    /// Forgets every hint (a (re)joining node starts self-tuning afresh).
    pub(crate) fn reset_hints(&mut self) {
        self.member_hints.clear();
        // A record left empty held only a hint, so it was never listed.
        self.peers.retain(|_, p| {
            p.has &= !HINT;
            p.has != 0
        });
    }

    /// Prunes the listed records, those outside the routing state with a
    /// traffic time or a distance.
    ///
    /// They lose heard and sent times at least `traffic_horizon_us` old and a
    /// distance at least `dist_horizon_us` old; members keep everything.
    /// Hints are never pruned. Records left empty are deleted.
    pub(crate) fn prune(&mut self, now_us: u64, traffic_horizon_us: u64, dist_horizon_us: u64) {
        let old = |t: u64, horizon: u64| now_us.saturating_sub(t) >= horizon;
        // Backwards, so the entry `unlist` moves into a slot is one already
        // visited.
        for i in (0..self.prunable.len()).rev() {
            let n = self.prunable[i];
            let p = self.peers.get_mut(&n).expect("listed record");
            if p.has & HEARD != 0 && old(p.heard_us, traffic_horizon_us) {
                p.has &= !HEARD;
            }
            if p.has & SENT != 0 && old(p.sent_us, traffic_horizon_us) {
                p.has &= !SENT;
            }
            if p.has & DIST != 0 && old(p.dist_at_us, dist_horizon_us) {
                p.has &= !DIST;
            }
            if !p.listed() {
                let slot = p.slot;
                if p.has == 0 {
                    self.peers.remove(&n);
                }
                self.unlist(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, FIXED_T_RT_US, SECOND_US};
    use crate::events::{Effects, Event, TimerKind};
    use crate::id::Id;
    use crate::node::Node;
    use crate::routing_table::InsertOutcome;
    use crate::tuning::SelfTuner;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    #[test]
    fn tuner_adopts_median_of_hints() {
        // The fresh tuner's local estimate is FIXED_T_RT_US (30 s).
        let tuner = SelfTuner::new(0);
        let mut t = PeerTable::default();
        let peers: Vec<Id> = (1..=4u128).map(Id).collect();
        for &p in &peers {
            t.set_member(p, true);
        }
        t.note_hint(peers[0], 10 * SECOND_US);
        t.note_hint(peers[1], 20 * SECOND_US);
        t.note_hint(peers[2], 90 * SECOND_US);
        t.note_hint(peers[3], 100 * SECOND_US);
        let adopted = tuner.adopted(t.member_hints());
        assert_eq!(adopted, FIXED_T_RT_US, "median of [10,20,30,90,100] s");
        // Hints from nodes outside the routing state are ignored.
        for &p in &peers[1..] {
            t.set_member(p, false);
        }
        let adopted = tuner.adopted(t.member_hints());
        assert_eq!(adopted, FIXED_T_RT_US, "median of [10,30] s");
    }

    #[test]
    fn tuner_forget_removes_hints() {
        let tuner = SelfTuner::new(0);
        let mut t = PeerTable::default();
        t.set_member(Id(1), true);
        t.note_hint(Id(1), 10);
        t.forget_faulty(Id(1));
        assert_eq!(tuner.adopted(t.member_hints()), tuner.local_t_rt_us());
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
        n.ls_add(member);
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
                    // The keep-set is the routing state for this prune only.
                    for &n in &pool {
                        t.set_member(n, keep.contains(&n));
                    }
                    t.prune(now, horizon, dist_horizon);
                    for &n in &pool {
                        t.set_member(n, false);
                    }
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
    /// The routing state and per-peer maps, recomputed by brute force after
    /// every step, against the node's incremental membership state.
    #[test]
    fn incremental_membership_matches_recomputation() {
        let mut rng = SmallRng::seed_from_u64(5);
        let own = Id(rng.gen());
        // Two members per leaf-set side, so insertions push members off.
        let cfg = Config {
            b: 2,
            leaf_set_size: 4,
            nearest_neighbor_join: false,
            ..Config::default()
        };
        let mut n = Node::new(own, cfg);
        let tuner = SelfTuner::new(0);
        // Ids sharing a random-length prefix with `own`, so routing-table
        // slots collide and both leaf-set sides overflow.
        let pool: Vec<NodeId> = (0..40)
            .map(|_| Id(own.0 ^ (rng.gen::<u128>() >> rng.gen_range(0..128))))
            .filter(|&id| id != own)
            .collect();
        let (horizon, dist_horizon) = (400, 1000);
        let mut m = Model::default();
        let mut now = 0u64;
        let mut replaced = 0;
        for step in 0..20_000 {
            now += rng.gen_range(0..20u64);
            let id = pool[rng.gen_range(0..pool.len())];
            // Few distinct hints, some equal to the local estimate, so hints
            // repeat, change and tie with it.
            let hint = match rng.gen_range(0..10) {
                0 => u64::MAX,
                _ => rng.gen_range(0..8u64) * FIXED_T_RT_US / 4,
            };
            let members: HashSet<NodeId> = n.routing_state_ids().into_iter().collect();
            match rng.gen_range(0..100) {
                0..=14 => {
                    let d = if rng.gen_bool(0.2) {
                        DIST_UNKNOWN
                    } else {
                        rng.gen_range(0..1000)
                    };
                    if let InsertOutcome::Replaced(_) = n.rt_offer(id, d) {
                        replaced += 1;
                    }
                }
                15..=22 => n.rt_remove(id),
                23..=37 => n.ls_add(id),
                38..=45 => n.ls_remove(id),
                46..=55 => {
                    n.peers.note_heard(id, now);
                    m.last_heard.insert(id, now);
                }
                56..=65 => {
                    n.peers.note_sent(id, now);
                    m.last_sent.insert(id, now);
                }
                66..=79 => {
                    n.peers.note_hint(id, hint);
                    m.hints.insert(id, hint);
                }
                80..=86 => {
                    let d = rng.gen_range(0..5000);
                    n.peers.note_dist(id, d, now);
                    m.known_dists.insert(id, (d, now));
                }
                87..=91 => {
                    n.peers.forget_faulty(id);
                    m.hints.remove(&id);
                    m.known_dists.remove(&id);
                }
                92 => {
                    n.peers.reset_hints();
                    m.hints.clear();
                }
                _ => {
                    n.peers.prune(now, horizon, dist_horizon);
                    m.prune(now, horizon, dist_horizon, &members);
                }
            }
            let ids = n.routing_state_ids();
            let t = &n.peers;
            t.assert_consistent();
            assert_eq!(t.member_count(), ids.len(), "members at {step}");
            let mut hints: Vec<u64> = ids.iter().filter_map(|n| m.hints.get(n).copied()).collect();
            hints.sort_unstable();
            assert_eq!(t.member_hints(), hints, "member hints at {step}");
            let mut with_local = hints.clone();
            with_local.push(tuner.local_t_rt_us());
            with_local.sort_unstable();
            let median = with_local[with_local.len() / 2];
            assert_eq!(tuner.adopted(t.member_hints()), median, "median at {step}");
            let mut records = m.peers();
            records.extend(ids.iter().copied());
            assert_eq!(t.len(), records.len(), "records at {step}");
            for &p in &pool {
                assert_eq!(t.is_member(p), ids.contains(&p), "member flag at {step}");
                assert_eq!(t.heard(p), m.last_heard.get(&p).copied(), "heard at {step}");
                assert_eq!(t.sent(p), m.last_sent.get(&p).copied(), "sent at {step}");
                assert_eq!(t.hint(p), m.hints.get(&p).copied(), "hint at {step}");
                assert_eq!(t.dist(p), m.known_dists.get(&p).copied(), "dist at {step}");
                let want = m.known_dists.get(&p).map_or(DIST_UNKNOWN, |&(d, _)| d);
                assert_eq!(t.known_dist(p), want);
            }
        }
        assert!(
            replaced > 50,
            "routing-table replacements exercised: {replaced}"
        );
    }
}
