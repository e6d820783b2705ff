//! The duplicate-suppression window of reliable routing (§3.2).
//!
//! Retransmissions and reroutes can deliver several copies of one lookup to
//! a node; only the first is routed on. A node remembers the last
//! [`SEEN_CAP`] distinct lookup ids it has seen, forgetting the oldest first.
//!
//! [`SeenWindow`] stores those ids once, in a FIFO ring, and indexes the ring
//! with an open-addressing table of ring positions (linear probing, load at
//! most ½, backward-shift deletion). Both grow on demand up to the cap, so a
//! node that sees few lookups holds a small window. The ring keeps issuers
//! and sequence numbers in two parallel arrays (24 B per id, where a padded
//! `LookupId` takes 32) and the table holds `u16` positions, so at the cap
//! the window costs `SEEN_CAP × (16 + 8 + 2 × 2)` bytes: 448 KiB.

use crate::messages::LookupId;

/// Number of distinct lookup ids a node remembers.
pub(crate) const SEEN_CAP: usize = 16_384;

/// Marks an empty table slot.
const EMPTY: u16 = u16::MAX;
/// Table size at the cap: load ½ with `SEEN_CAP` ids.
const MAX_SLOTS: usize = 2 * SEEN_CAP;
/// Table size of the first allocation.
const MIN_SLOTS: usize = 16;

// Every ring position fits a `u16` and none collides with `EMPTY`.
const _: () = assert!(SEEN_CAP < u16::MAX as usize);

/// The last [`SEEN_CAP`] distinct lookup ids, oldest evicted first.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeenWindow {
    /// Issuers of the ids in insertion order, as a ring once full:
    /// position `head` holds the oldest id (and the next to be overwritten).
    srcs: Vec<u128>,
    /// Sequence numbers, parallel to `srcs`.
    seqs: Vec<u64>,
    head: usize,
    /// Ring positions, indexed by id hash; `EMPTY` marks a free slot. Its
    /// length is zero or a power of two.
    slots: Vec<u16>,
}

impl SeenWindow {
    /// Number of ids in the window.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.srcs.len()
    }

    /// Whether `id` is in the window.
    pub(crate) fn contains(&self, id: &LookupId) -> bool {
        self.find(id.src.0, id.seq).is_some()
    }

    /// Adds `id` unless already present; returns whether it was added. At
    /// the cap, adding an id evicts the oldest one.
    pub(crate) fn insert(&mut self, id: LookupId) -> bool {
        if self.contains(&id) {
            return false;
        }
        let (src, seq) = (id.src.0, id.seq);
        if self.srcs.len() < SEEN_CAP {
            if 2 * (self.srcs.len() + 1) > self.slots.len() {
                self.grow();
            }
            self.srcs.push(src);
            self.seqs.push(seq);
            self.place(self.srcs.len() - 1);
        } else {
            let pos = self.head;
            let oldest = self
                .find(self.srcs[pos], self.seqs[pos])
                .expect("ring ids are indexed");
            self.remove_slot(oldest);
            self.srcs[pos] = src;
            self.seqs[pos] = seq;
            self.place(pos);
            self.head = (pos + 1) % SEEN_CAP;
        }
        true
    }

    /// Home slot of an id: the high bits of a multiplicative hash that mixes
    /// both halves of the issuer id with the sequence number.
    fn home(&self, src: u128, seq: u64) -> usize {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let x = ((src as u64) ^ ((src >> 64) as u64).rotate_left(32)).wrapping_mul(K) ^ seq;
        let bits = self.slots.len().trailing_zeros();
        (x.wrapping_mul(K) >> (64 - bits)) as usize
    }

    /// Home slot of the id at ring position `pos`.
    fn home_of(&self, pos: usize) -> usize {
        self.home(self.srcs[pos], self.seqs[pos])
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The table slot holding the ring position of id `(src, seq)`.
    fn find(&self, src: u128, seq: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.home(src, seq);
        loop {
            match self.slots[i] {
                EMPTY => return None,
                pos if self.seqs[pos as usize] == seq && self.srcs[pos as usize] == src => {
                    return Some(i)
                }
                _ => i = (i + 1) & self.mask(),
            }
        }
    }

    /// Indexes ring position `pos` (whose id is not yet in the table).
    fn place(&mut self, pos: usize) {
        let mut i = self.home_of(pos);
        while self.slots[i] != EMPTY {
            i = (i + 1) & self.mask();
        }
        self.slots[i] = pos as u16;
    }

    /// Empties slot `i`, shifting later members of its probe run back so
    /// every id stays reachable from its home slot.
    fn remove_slot(&mut self, mut i: usize) {
        let mask = self.mask();
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let pos = self.slots[j];
            if pos == EMPTY {
                break;
            }
            let home = self.home_of(pos as usize);
            // `j` may move to `i` only if its home is not cyclically in
            // (i, j].
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.slots[i] = pos;
                i = j;
            }
        }
        self.slots[i] = EMPTY;
    }

    /// Doubles the table (never past `MAX_SLOTS`) and re-indexes the ring.
    fn grow(&mut self) {
        let n = (2 * self.slots.len()).clamp(MIN_SLOTS, MAX_SLOTS);
        self.slots = vec![EMPTY; n];
        for pos in 0..self.srcs.len() {
            self.place(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashSet;
    use crate::id::Id;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// The set-plus-queue window `SeenWindow` replaces, kept as the
    /// reference model.
    #[derive(Default)]
    struct Model {
        seen: FxHashSet<LookupId>,
        order: VecDeque<LookupId>,
    }

    impl Model {
        fn insert(&mut self, id: LookupId) -> bool {
            if !self.seen.insert(id) {
                return false;
            }
            self.order.push_back(id);
            while self.order.len() > SEEN_CAP {
                let old = self.order.pop_front().unwrap();
                self.seen.remove(&old);
            }
            true
        }
    }

    /// Feeds `ids` to a window and to the model, comparing every answer.
    fn check_against_model(ids: impl IntoIterator<Item = LookupId>) {
        let mut w = SeenWindow::default();
        let mut model = Model::default();
        for (step, id) in ids.into_iter().enumerate() {
            assert_eq!(
                w.contains(&id),
                model.seen.contains(&id),
                "contains at step {step}"
            );
            assert_eq!(w.insert(id), model.insert(id), "insert at step {step}");
            assert_eq!(w.len(), model.seen.len());
        }
        assert_eq!(model.order.len(), SEEN_CAP, "the window filled and wrapped");
        for id in &model.order {
            assert!(w.contains(id));
        }
    }

    #[test]
    fn matches_the_set_and_queue_model() {
        // Duplicate-heavy traffic from a few issuers: ids are drawn from a
        // pool three times the window, so evicted ids come back.
        let mut rng = SmallRng::seed_from_u64(7);
        let srcs: Vec<Id> = (0..6).map(|_| Id(rng.gen())).collect();
        check_against_model((0..4 * SEEN_CAP).map(|_| LookupId {
            src: srcs[rng.gen_range(0..srcs.len())],
            seq: rng.gen_range(0..(SEEN_CAP as u64 / 2)),
        }));
        // Sequential seqs of low-entropy issuers, interleaved, so probe runs
        // overlap and every eviction shifts entries across them.
        check_against_model((0..3u128).flat_map(|round| {
            (0..SEEN_CAP as u64).flat_map(move |seq| {
                [Id(round), Id(u128::MAX - round)].map(|src| LookupId { src, seq })
            })
        }));
    }
}
