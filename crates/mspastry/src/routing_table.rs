//! Pastry routing table with proximity-aware slot selection.
//!
//! The table is a matrix with `ceil(128/b)` rows and `2^b` columns. The entry
//! in row `r`, column `c` holds a nodeId that shares the first `r` digits
//! with the local node and has digit `r` equal to `c`. Proximity neighbour
//! selection (PNS) fills each slot with the *closest* qualifying node in the
//! underlying network; an entry is replaced when a closer candidate with a
//! measured distance shows up.

use crate::id::{Id, NodeId};

/// Distance value meaning "not measured yet" (treated as infinitely far, so
/// any measured candidate wins the slot).
pub const DIST_UNKNOWN: u64 = u64::MAX;

/// One routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtEntry {
    /// The entry's node identifier.
    pub id: NodeId,
    /// Measured round-trip distance to the node, microseconds;
    /// [`DIST_UNKNOWN`] if not measured.
    pub distance_us: u64,
}

/// Outcome of offering a candidate to the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The slot was empty; the candidate was inserted.
    InsertedEmpty,
    /// The candidate replaced a farther (or unmeasured) entry.
    Replaced(NodeId),
    /// The candidate is already in the slot (distance possibly refreshed).
    Refreshed,
    /// The existing entry is closer; candidate rejected.
    Rejected,
    /// The candidate is the local node itself; ignored.
    SelfId,
}

/// A Pastry routing table.
///
/// The slots live in one flat row-major vector, with an occupancy count per
/// row, so a node's table is a single allocation. Only about `log_{2^b} N`
/// rows are ever occupied, and iteration stops after the last of them.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    own: NodeId,
    b: u8,
    cols: usize,
    /// `rows × cols` slots; slot `(r, c)` is at `r * cols + c`.
    slots: Vec<Option<RtEntry>>,
    /// Occupied slots per row.
    row_len: Vec<u16>,
    /// Occupied slots in total.
    len: usize,
    /// One past the last occupied row (0 when empty).
    rows_used: usize,
}

impl RoutingTable {
    /// Creates an empty table for the given local node.
    pub fn new(own: NodeId, b: u8) -> Self {
        let n_rows = Id::rows(b);
        let cols = 1usize << b;
        RoutingTable {
            own,
            b,
            cols,
            slots: vec![None; n_rows * cols],
            row_len: vec![0; n_rows],
            len: 0,
            rows_used: 0,
        }
    }

    /// The local node's identifier.
    pub fn own(&self) -> NodeId {
        self.own
    }

    /// Number of columns (2^b).
    pub fn col_count(&self) -> usize {
        self.cols
    }

    /// The slot `(row, col)` a given node belongs in, or `None` for the local
    /// node itself.
    pub fn slot_of(&self, id: NodeId) -> Option<(usize, u8)> {
        if id == self.own {
            return None;
        }
        let row = self.own.shared_prefix_len(id, self.b);
        let col = id.digit(row, self.b);
        Some((row, col))
    }

    /// The entry at `(row, col)`, if any; `None` for a position outside the
    /// table.
    pub fn get(&self, row: usize, col: u8) -> Option<RtEntry> {
        if row >= self.row_len.len() || col as usize >= self.cols {
            return None;
        }
        self.slots[row * self.cols + col as usize]
    }

    /// The entry holding `id`, if present.
    pub fn entry_of(&self, id: NodeId) -> Option<RtEntry> {
        let (row, col) = self.slot_of(id)?;
        self.get(row, col).filter(|e| e.id == id)
    }

    /// `true` if `id` is in the table.
    pub fn contains(&self, id: NodeId) -> bool {
        self.entry_of(id).is_some()
    }

    /// Offers a candidate with a measured (or unknown) distance.
    ///
    /// PNS policy: an empty slot takes any candidate; an occupied slot is
    /// replaced only by a strictly closer candidate. Unmeasured incumbents
    /// are replaced by any measured candidate.
    pub fn offer(&mut self, id: NodeId, distance_us: u64) -> InsertOutcome {
        let Some((row, col)) = self.slot_of(id) else {
            return InsertOutcome::SelfId;
        };
        let slot = &mut self.slots[row * self.cols + col as usize];
        match slot {
            None => {
                *slot = Some(RtEntry { id, distance_us });
                self.row_len[row] += 1;
                self.len += 1;
                self.rows_used = self.rows_used.max(row + 1);
                InsertOutcome::InsertedEmpty
            }
            Some(e) if e.id == id => {
                // Keep the freshest measurement.
                if distance_us != DIST_UNKNOWN {
                    e.distance_us = distance_us;
                }
                InsertOutcome::Refreshed
            }
            Some(e) => {
                if distance_us < e.distance_us {
                    let old = e.id;
                    *slot = Some(RtEntry { id, distance_us });
                    InsertOutcome::Replaced(old)
                } else {
                    InsertOutcome::Rejected
                }
            }
        }
    }

    /// Removes `id` from the table; returns `true` if it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let Some((row, col)) = self.slot_of(id) else {
            return false;
        };
        let slot = &mut self.slots[row * self.cols + col as usize];
        if slot.map(|e| e.id) != Some(id) {
            return false;
        }
        *slot = None;
        self.row_len[row] -= 1;
        self.len -= 1;
        while self.rows_used > 0 && self.row_len[self.rows_used - 1] == 0 {
            self.rows_used -= 1;
        }
        true
    }

    /// Iterates over all entries, row by row in column order.
    pub fn entries(&self) -> impl Iterator<Item = RtEntry> + '_ {
        self.slots[..self.rows_used * self.cols]
            .iter()
            .flatten()
            .copied()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The non-empty entries of row `r` (nodeIds only).
    pub fn row_ids(&self, r: usize) -> Vec<NodeId> {
        if r >= self.rows_used || self.row_len[r] == 0 {
            return Vec::new();
        }
        let mut ids = Vec::with_capacity(self.row_len[r] as usize);
        ids.extend(
            self.slots[r * self.cols..(r + 1) * self.cols]
                .iter()
                .flatten()
                .map(|e| e.id),
        );
        ids
    }

    /// Indices of rows that contain at least one entry.
    pub fn occupied_rows(&self) -> Vec<usize> {
        (0..self.rows_used)
            .filter(|&r| self.row_len[r] > 0)
            .collect()
    }

    /// `true` if the slot the candidate belongs in is empty or unmeasured
    /// or farther than `distance_us` — i.e. offering with this distance would
    /// change the table. Used to decide whether a distance measurement is
    /// worth starting.
    pub fn would_accept(&self, id: NodeId, distance_us: u64) -> bool {
        match self.slot_of(id) {
            None => false,
            Some((row, col)) => match self.get(row, col) {
                None => true,
                Some(e) => e.id != id && distance_us < e.distance_us,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn own() -> NodeId {
        Id(0x5000_0000_0000_0000_0000_0000_0000_0000)
    }

    #[test]
    fn slot_invariants_hold_for_random_nodes() {
        let mut rng = SmallRng::seed_from_u64(7);
        for b in [1u8, 2, 4] {
            let rt = RoutingTable::new(own(), b);
            for _ in 0..500 {
                let id = Id::random(&mut rng);
                if id == own() {
                    continue;
                }
                let (row, col) = rt.slot_of(id).unwrap();
                assert_eq!(own().shared_prefix_len(id, b), row);
                assert_eq!(id.digit(row, b), col);
            }
        }
    }

    #[test]
    fn offer_fills_empty_slot_and_pns_replaces_farther() {
        let mut rt = RoutingTable::new(own(), 4);
        // Two ids in the same slot: first digit differs from own (5), both
        // start with digit 0x6.
        let a = Id(0x6aaa_0000_0000_0000_0000_0000_0000_0000);
        let c = Id(0x6bbb_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(rt.offer(a, 100), InsertOutcome::InsertedEmpty);
        assert_eq!(rt.offer(c, 200), InsertOutcome::Rejected);
        assert_eq!(rt.offer(c, 50), InsertOutcome::Replaced(a));
        assert_eq!(rt.entry_of(c).unwrap().distance_us, 50);
        assert!(!rt.contains(a));
    }

    #[test]
    fn measured_candidate_beats_unknown_incumbent() {
        let mut rt = RoutingTable::new(own(), 4);
        let a = Id(0x6aaa_0000_0000_0000_0000_0000_0000_0000);
        let c = Id(0x6bbb_0000_0000_0000_0000_0000_0000_0000);
        rt.offer(a, DIST_UNKNOWN);
        assert_eq!(rt.offer(c, 999), InsertOutcome::Replaced(a));
    }

    #[test]
    fn refresh_updates_distance() {
        let mut rt = RoutingTable::new(own(), 4);
        let a = Id(0x6aaa_0000_0000_0000_0000_0000_0000_0000);
        rt.offer(a, DIST_UNKNOWN);
        assert_eq!(rt.offer(a, 70), InsertOutcome::Refreshed);
        assert_eq!(rt.entry_of(a).unwrap().distance_us, 70);
    }

    #[test]
    fn own_id_is_never_inserted() {
        let mut rt = RoutingTable::new(own(), 4);
        assert_eq!(rt.offer(own(), 1), InsertOutcome::SelfId);
        assert!(rt.is_empty());
    }

    #[test]
    fn remove_only_removes_the_exact_node() {
        let mut rt = RoutingTable::new(own(), 4);
        let a = Id(0x6aaa_0000_0000_0000_0000_0000_0000_0000);
        let c = Id(0x6bbb_0000_0000_0000_0000_0000_0000_0000);
        rt.offer(a, 100);
        assert!(!rt.remove(c), "c occupies the same slot but is not present");
        assert!(rt.remove(a));
        assert!(rt.is_empty());
    }

    #[test]
    fn row_ids_and_occupied_rows() {
        let mut rt = RoutingTable::new(own(), 4);
        let a = Id(0x6aaa_0000_0000_0000_0000_0000_0000_0000); // row 0
        let deep = Id(0x5aaa_0000_0000_0000_0000_0000_0000_0000); // row 1
        rt.offer(a, 10);
        rt.offer(deep, 20);
        assert_eq!(rt.occupied_rows(), vec![0, 1]);
        assert_eq!(rt.row_ids(0), vec![a]);
        assert_eq!(rt.row_ids(1), vec![deep]);
        assert_eq!(rt.len(), 2);
    }

    #[test]
    fn would_accept_matches_offer_semantics() {
        let mut rt = RoutingTable::new(own(), 4);
        let a = Id(0x6aaa_0000_0000_0000_0000_0000_0000_0000);
        let c = Id(0x6bbb_0000_0000_0000_0000_0000_0000_0000);
        assert!(rt.would_accept(a, DIST_UNKNOWN));
        rt.offer(a, 100);
        assert!(!rt.would_accept(a, 50), "already present");
        assert!(rt.would_accept(c, 50));
        assert!(!rt.would_accept(c, 150));
        assert!(!rt.would_accept(own(), 0));
    }

    #[test]
    fn average_occupied_rows_is_logarithmic() {
        // With N random nodes only ~log_{2^b} N rows have entries on average.
        let mut rng = SmallRng::seed_from_u64(8);
        let mut rt = RoutingTable::new(Id::random(&mut rng), 4);
        for _ in 0..1000 {
            rt.offer(Id::random(&mut rng), 100);
        }
        let occ = rt.occupied_rows().len();
        assert!(
            (2..=6).contains(&occ),
            "occupied rows {occ} for N=1000, b=4"
        );
    }

    /// The nested-`Vec` table the flat layout replaced, kept as the
    /// reference model.
    struct Model {
        own: NodeId,
        b: u8,
        rows: Vec<Vec<Option<RtEntry>>>,
    }

    impl Model {
        fn new(own: NodeId, b: u8) -> Self {
            Model {
                own,
                b,
                rows: vec![vec![None; 1 << b]; Id::rows(b)],
            }
        }

        fn slot_of(&self, id: NodeId) -> Option<(usize, u8)> {
            let row = self.own.shared_prefix_len(id, self.b);
            (id != self.own).then(|| (row, id.digit(row, self.b)))
        }

        fn offer(&mut self, id: NodeId, distance_us: u64) -> InsertOutcome {
            let Some((row, col)) = self.slot_of(id) else {
                return InsertOutcome::SelfId;
            };
            let slot = &mut self.rows[row][col as usize];
            match slot {
                None => {
                    *slot = Some(RtEntry { id, distance_us });
                    InsertOutcome::InsertedEmpty
                }
                Some(e) if e.id == id => {
                    if distance_us != DIST_UNKNOWN {
                        e.distance_us = distance_us;
                    }
                    InsertOutcome::Refreshed
                }
                Some(e) if distance_us < e.distance_us => {
                    let old = e.id;
                    *slot = Some(RtEntry { id, distance_us });
                    InsertOutcome::Replaced(old)
                }
                Some(_) => InsertOutcome::Rejected,
            }
        }

        fn remove(&mut self, id: NodeId) -> bool {
            if let Some((row, col)) = self.slot_of(id) {
                let slot = &mut self.rows[row][col as usize];
                if slot.map(|e| e.id) == Some(id) {
                    *slot = None;
                    return true;
                }
            }
            false
        }

        fn entries(&self) -> Vec<RtEntry> {
            self.rows.iter().flatten().flatten().copied().collect()
        }

        fn occupied_rows(&self) -> Vec<usize> {
            (0..self.rows.len())
                .filter(|&r| self.rows[r].iter().any(Option::is_some))
                .collect()
        }

        fn row_ids(&self, r: usize) -> Vec<NodeId> {
            self.rows[r].iter().flatten().map(|e| e.id).collect()
        }
    }

    /// Compares every read accessor of `rt` with the model.
    fn assert_matches(rt: &RoutingTable, model: &Model, pool: &[NodeId], step: usize) {
        let entries = model.entries();
        assert_eq!(
            rt.entries().collect::<Vec<_>>(),
            entries,
            "entries at {step}"
        );
        assert_eq!(rt.len(), entries.len(), "len at {step}");
        assert_eq!(rt.is_empty(), entries.is_empty());
        assert_eq!(rt.occupied_rows(), model.occupied_rows(), "rows at {step}");
        for r in 0..model.rows.len() {
            assert_eq!(rt.row_ids(r), model.row_ids(r), "row {r} at {step}");
            for c in 0..rt.col_count() {
                assert_eq!(rt.get(r, c as u8), model.rows[r][c], "slot {r},{c}");
            }
        }
        for &id in pool {
            let want = model
                .slot_of(id)
                .and_then(|(r, c)| model.rows[r][c as usize].filter(|e| e.id == id));
            assert_eq!(rt.entry_of(id), want, "entry_of at {step}");
            assert_eq!(rt.contains(id), want.is_some());
        }
    }

    #[test]
    fn flat_table_matches_the_nested_model() {
        let mut rng = SmallRng::seed_from_u64(11);
        for b in [1u8, 2, 4, 8] {
            let own = Id(rng.gen());
            // Candidates share a random-length prefix with `own`, so every
            // row is reachable and slots collide; `own` itself is included.
            let mut pool: Vec<NodeId> = (0..96)
                .map(|_| Id(own.0 ^ (rng.gen::<u128>() >> rng.gen_range(0..128))))
                .collect();
            pool.push(own);
            let mut rt = RoutingTable::new(own, b);
            let mut model = Model::new(own, b);
            for step in 0..1500 {
                let id = pool[rng.gen_range(0..pool.len())];
                if rng.gen_bool(0.6) {
                    let d = if rng.gen_bool(0.2) {
                        DIST_UNKNOWN
                    } else {
                        rng.gen_range(0..1000)
                    };
                    assert_eq!(rt.offer(id, d), model.offer(id, d), "offer at {step}");
                } else {
                    assert_eq!(rt.remove(id), model.remove(id), "remove at {step}");
                }
                assert_matches(&rt, &model, &pool, step);
            }
            // Empty the table again: the row bound must fall back to zero.
            for &id in &pool {
                rt.remove(id);
                model.remove(id);
            }
            assert_matches(&rt, &model, &pool, usize::MAX);
            assert!(rt.is_empty() && rt.occupied_rows().is_empty());
        }
    }

    #[test]
    fn out_of_range_positions_are_empty() {
        let mut rt = RoutingTable::new(own(), 4);
        rt.offer(Id(0x6aaa_0000_0000_0000_0000_0000_0000_0000), 10);
        assert_eq!(rt.get(0, 16), None, "column past 2^b");
        assert_eq!(rt.get(Id::rows(4), 6), None, "row past the table");
        assert!(rt.row_ids(Id::rows(4)).is_empty());
    }
}
