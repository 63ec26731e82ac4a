//! Per-node routing state: routing table, leaf set, neighborhood set.
//!
//! §4.2: every node maintains three data structures — a prefix-organized
//! *routing table* used for routing FL data, a *leaf set* of the nodes
//! numerically closest on the ring (used for the last routing step and for
//! rebuilding tables upon failures), and a *neighborhood set* of the nodes
//! physically closest in the underlying network (used to keep locality).

use totoro_simnet::NodeIdx;

use crate::id::Id;

/// A known peer: its ring identifier and its network address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Contact {
    /// Ring identifier.
    pub id: Id,
    /// Network address (simulator node index; stands in for IP:port).
    pub addr: NodeIdx,
}

/// Prefix-routing table: `num_digits` rows of `2^b` columns. The entry at
/// `(row r, column c)` is a node sharing the first `r` digits with the
/// owner and having digit `c` at position `r`.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    my_id: Id,
    b: u32,
    rows: Vec<Vec<Option<Contact>>>,
}

impl RoutingTable {
    /// Creates an empty table for `my_id` with base `2^b`.
    pub fn new(my_id: Id, b: u32) -> Self {
        assert!((1..=8).contains(&b), "routing base bits must be in 1..=8");
        RoutingTable {
            my_id,
            b,
            rows: Vec::new(),
        }
    }

    /// The routing base bits `b`.
    pub fn base_bits(&self) -> u32 {
        self.b
    }

    /// Number of columns per row (`2^b`), which also bounds tree fanout.
    pub fn columns(&self) -> usize {
        1 << self.b
    }

    /// Offers a contact to the table; it is stored if its slot is empty.
    /// Returns `true` if the table changed.
    pub fn consider(&mut self, c: Contact) -> bool {
        if c.id == self.my_id {
            return false;
        }
        let row = self.my_id.shared_prefix_digits(c.id, self.b) as usize;
        let col = c.id.digit(row as u32, self.b) as usize;
        debug_assert_ne!(
            col,
            self.my_id.digit(row as u32, self.b) as usize,
            "contact with same digit would share a longer prefix"
        );
        while self.rows.len() <= row {
            self.rows.push(vec![None; self.columns()]);
        }
        let slot = &mut self.rows[row][col];
        if slot.is_none() {
            *slot = Some(c);
            true
        } else {
            false
        }
    }

    /// The entry a prefix-routing step would use for `key`: row = shared
    /// prefix length with the owner, column = `key`'s digit there.
    pub fn entry_for(&self, key: Id) -> Option<Contact> {
        let row = self.my_id.shared_prefix_digits(key, self.b) as usize;
        let col = key.digit(row as u32, self.b) as usize;
        self.rows.get(row)?.get(col).copied().flatten()
    }

    /// Removes every entry whose address is `addr`. Returns how many were
    /// removed.
    pub fn remove_addr(&mut self, addr: NodeIdx) -> usize {
        let mut removed = 0;
        for row in &mut self.rows {
            for slot in row.iter_mut() {
                if slot.map(|c| c.addr) == Some(addr) {
                    *slot = None;
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Iterates over all populated entries.
    pub fn contacts(&self) -> impl Iterator<Item = Contact> + '_ {
        self.rows.iter().flatten().filter_map(|s| *s)
    }

    /// Returns row `r` (entries sharing `r` leading digits with the owner),
    /// used during joins to seed a newcomer's table.
    pub fn row(&self, r: usize) -> Vec<Contact> {
        self.rows
            .get(r)
            .map(|row| row.iter().filter_map(|s| *s).collect())
            .unwrap_or_default()
    }

    /// Number of populated entries.
    pub fn len(&self) -> usize {
        self.contacts().count()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint in bytes (for Figure 13b).
    pub fn memory_bytes(&self) -> usize {
        self.rows.len() * self.columns() * std::mem::size_of::<Option<Contact>>()
    }
}

/// The leaf set: the `capacity/2` nodes immediately counterclockwise and the
/// `capacity/2` nodes immediately clockwise of the owner on the ring.
#[derive(Clone, Debug)]
pub struct LeafSet {
    my_id: Id,
    per_side: usize,
    /// Counterclockwise neighbors, nearest first.
    left: Vec<Contact>,
    /// Clockwise neighbors, nearest first.
    right: Vec<Contact>,
}

impl LeafSet {
    /// Creates an empty leaf set with `capacity` total slots (paper: 24).
    pub fn new(my_id: Id, capacity: usize) -> Self {
        LeafSet {
            my_id,
            per_side: (capacity / 2).max(1),
            left: Vec::new(),
            right: Vec::new(),
        }
    }

    /// Offers a contact. Returns `true` if the set changed.
    pub fn consider(&mut self, c: Contact) -> bool {
        if c.id == self.my_id {
            return false;
        }
        let cw = self.my_id.clockwise_distance(c.id);
        let ccw = c.id.clockwise_distance(self.my_id);
        // A node is a right (clockwise) leaf if it is ahead of us; nearer
        // side wins when the ring is tiny and both distances exist.
        let (side, dist) = if cw <= ccw {
            (&mut self.right, cw)
        } else {
            (&mut self.left, ccw)
        };
        if side.iter().any(|x| x.id == c.id) {
            return false;
        }
        let key = |x: &Contact| {
            if cw <= ccw {
                self.my_id.clockwise_distance(x.id)
            } else {
                x.id.clockwise_distance(self.my_id)
            }
        };
        let pos = side.partition_point(|x| key(x) < dist);
        side.insert(pos, c);
        if side.len() > self.per_side {
            side.pop();
            // Changed only if the new contact survived.
            side.iter().any(|x| x.id == c.id)
        } else {
            true
        }
    }

    /// Removes a contact by address. Returns `true` if present.
    pub fn remove_addr(&mut self, addr: NodeIdx) -> bool {
        let before = self.left.len() + self.right.len();
        self.left.retain(|c| c.addr != addr);
        self.right.retain(|c| c.addr != addr);
        before != self.left.len() + self.right.len()
    }

    /// Whether `key` falls within the arc spanned by the leaf set (from the
    /// farthest left leaf to the farthest right leaf, through the owner).
    /// When the set is saturated this means the owner's immediate
    /// neighborhood is authoritative for `key`.
    pub fn covers(&self, key: Id) -> bool {
        if key == self.my_id {
            return true;
        }
        let leftmost = self.left.last().map(|c| c.id).unwrap_or(self.my_id);
        let rightmost = self.right.last().map(|c| c.id).unwrap_or(self.my_id);
        if leftmost == rightmost && self.left.is_empty() && self.right.is_empty() {
            return true; // Alone on the ring.
        }
        key.in_arc(leftmost, rightmost) || key == leftmost
    }

    /// The member (or the owner) numerically closest to `key`.
    /// Returns `None` when the owner itself is closest.
    pub fn closest_to(&self, key: Id) -> Option<Contact> {
        let my_dist = self.my_id.ring_distance(key);
        self.members()
            .min_by_key(|c| (c.id.ring_distance(key), c.id))
            .filter(|c| {
                let d = c.id.ring_distance(key);
                d < my_dist || (d == my_dist && c.id < self.my_id)
            })
    }

    /// Iterates over all members.
    pub fn members(&self) -> impl Iterator<Item = Contact> + '_ {
        self.left.iter().chain(self.right.iter()).copied()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty() && self.right.is_empty()
    }

    /// The immediate clockwise neighbor, if known.
    pub fn successor(&self) -> Option<Contact> {
        self.right.first().copied()
    }

    /// The immediate counterclockwise neighbor, if known.
    pub fn predecessor(&self) -> Option<Contact> {
        self.left.first().copied()
    }

    /// Approximate memory footprint in bytes (for Figure 13b).
    pub fn memory_bytes(&self) -> usize {
        (self.left.len() + self.right.len()) * std::mem::size_of::<Contact>()
    }
}

/// The neighborhood set: the `capacity` peers with the lowest network RTT,
/// regardless of their position on the ring.
#[derive(Clone, Debug)]
pub struct NeighborhoodSet {
    capacity: usize,
    /// `(rtt_us, contact)` sorted by ascending RTT.
    members: Vec<(u64, Contact)>,
}

impl NeighborhoodSet {
    /// Creates an empty set holding up to `capacity` neighbors.
    pub fn new(capacity: usize) -> Self {
        NeighborhoodSet {
            capacity,
            members: Vec::new(),
        }
    }

    /// Offers a contact with its measured RTT. Returns `true` if kept.
    ///
    /// Ties go to the newcomer: it is placed *before* members of equal RTT,
    /// so at a full set's boundary an equal-RTT newcomer displaces the
    /// incumbent, and two tied candidates evict each other on every offer —
    /// the set never converges (2,758 such evictions per run of the
    /// benchmark's `dissemination` workload; pinned by
    /// `equal_rtt_newcomer_displaces_incumbent`). Stable ties would change
    /// `known_contacts()` and with it simulated traffic, so that fix waits
    /// for `check-claims` (ROADMAP).
    pub fn consider(&mut self, c: Contact, rtt_us: u64) -> bool {
        if self.members.iter().any(|(_, x)| x.id == c.id) {
            return false;
        }
        let pos = self.members.partition_point(|&(r, _)| r < rtt_us);
        if pos >= self.capacity {
            return false;
        }
        self.members.insert(pos, (rtt_us, c));
        self.members.truncate(self.capacity);
        true
    }

    /// Removes a contact by address. Returns `true` if present.
    pub fn remove_addr(&mut self, addr: NodeIdx) -> bool {
        let before = self.members.len();
        self.members.retain(|(_, c)| c.addr != addr);
        before != self.members.len()
    }

    /// Iterates over members in ascending RTT order.
    pub fn members(&self) -> impl Iterator<Item = Contact> + '_ {
        self.members.iter().map(|&(_, c)| c)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Approximate memory footprint in bytes (for Figure 13b).
    pub fn memory_bytes(&self) -> usize {
        self.members.len() * std::mem::size_of::<(u64, Contact)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(id: u128, addr: NodeIdx) -> Contact {
        Contact {
            id: Id::new(id),
            addr,
        }
    }

    const TOP: u32 = 124; // Shift to place a hex digit at the most significant position.

    #[test]
    fn routing_table_places_by_prefix() {
        let me = Id::new(0x5u128 << TOP);
        let mut t = RoutingTable::new(me, 4);
        // Shares 0 digits, first digit 7 -> row 0, col 7.
        let peer = c(0x7u128 << TOP, 1);
        assert!(t.consider(peer));
        assert_eq!(t.entry_for(Id::new(0x7123u128 << (TOP - 12))), Some(peer));
        // Duplicate slot is not replaced.
        assert!(!t.consider(c(0x71u128 << (TOP - 4), 2)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn routing_table_ignores_self_and_removes_by_addr() {
        let me = Id::new(42);
        let mut t = RoutingTable::new(me, 4);
        assert!(!t.consider(c(42, 0)));
        assert!(t.consider(c(7u128 << TOP, 3)));
        assert_eq!(t.remove_addr(3), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn routing_table_rows_grow_with_prefix() {
        let me = Id::new(0xAB00u128 << (TOP - 12));
        let mut t = RoutingTable::new(me, 4);
        // Shares 2 digits (A, B) -> row 2.
        let peer = c(0xAB70u128 << (TOP - 12), 1);
        assert!(t.consider(peer));
        assert_eq!(t.row(2), vec![peer]);
        assert!(t.row(0).is_empty());
    }

    #[test]
    fn leaf_set_keeps_nearest_per_side() {
        let me = Id::new(1_000);
        let mut l = LeafSet::new(me, 4); // 2 per side
        assert!(l.consider(c(1_010, 1)));
        assert!(l.consider(c(1_020, 2)));
        assert!(l.consider(c(990, 3)));
        // 1_030 is clockwise but farther than both existing right leaves.
        assert!(!l.consider(c(1_030, 4)));
        assert_eq!(l.successor(), Some(c(1_010, 1)));
        assert_eq!(l.predecessor(), Some(c(990, 3)));
        // A nearer right neighbor evicts the farthest.
        assert!(l.consider(c(1_005, 5)));
        assert_eq!(l.successor(), Some(c(1_005, 5)));
        let members: Vec<NodeIdx> = l.members().map(|c| c.addr).collect();
        assert!(!members.contains(&2), "farthest right leaf not evicted");
    }

    #[test]
    fn leaf_set_covers_its_arc() {
        let me = Id::new(1_000);
        let mut l = LeafSet::new(me, 4);
        l.consider(c(900, 1));
        l.consider(c(1_100, 2));
        assert!(l.covers(Id::new(950)));
        assert!(l.covers(Id::new(1_000)));
        assert!(l.covers(Id::new(1_100)));
        assert!(l.covers(Id::new(900)));
        assert!(!l.covers(Id::new(2_000)));
        assert!(!l.covers(Id::new(10)));
    }

    #[test]
    fn leaf_set_closest_to_picks_min_distance() {
        let me = Id::new(1_000);
        let mut l = LeafSet::new(me, 4);
        l.consider(c(900, 1));
        l.consider(c(1_100, 2));
        assert_eq!(l.closest_to(Id::new(910)), Some(c(900, 1)));
        assert_eq!(l.closest_to(Id::new(1_090)), Some(c(1_100, 2)));
        // Owner is closest.
        assert_eq!(l.closest_to(Id::new(1_001)), None);
    }

    #[test]
    fn leaf_set_wraps_around_zero() {
        let me = Id::new(5);
        let mut l = LeafSet::new(me, 4);
        assert!(l.consider(c(u128::MAX - 10, 1))); // counterclockwise neighbor
        assert!(l.consider(c(20, 2)));
        assert_eq!(l.predecessor(), Some(c(u128::MAX - 10, 1)));
        assert!(l.covers(Id::new(0)));
        assert!(l.covers(Id::new(u128::MAX - 5)));
    }

    #[test]
    fn leaf_set_remove() {
        let me = Id::new(0);
        let mut l = LeafSet::new(me, 8);
        l.consider(c(10, 1));
        assert!(l.remove_addr(1));
        assert!(!l.remove_addr(1));
        assert!(l.is_empty());
    }

    #[test]
    fn neighborhood_keeps_lowest_rtt() {
        let mut n = NeighborhoodSet::new(2);
        assert!(n.consider(c(1, 1), 500));
        assert!(n.consider(c(2, 2), 100));
        assert!(!n.consider(c(3, 3), 900)); // Full of closer nodes.
        assert!(n.consider(c(4, 4), 50));
        let members: Vec<NodeIdx> = n.members().map(|c| c.addr).collect();
        assert_eq!(members, vec![4, 2]);
        assert!(n.remove_addr(2));
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn equal_rtt_newcomer_displaces_incumbent() {
        let addrs = |n: &NeighborhoodSet| n.members().map(|c| c.addr).collect::<Vec<_>>();
        let mut n = NeighborhoodSet::new(2);
        assert!(n.consider(c(1, 1), 100));
        assert!(n.consider(c(2, 2), 500));
        // Tied with the incumbent at the boundary: the newcomer wins...
        assert!(n.consider(c(3, 3), 500));
        assert_eq!(addrs(&n), vec![1, 3]);
        // ...and the evicted peer wins the slot back, indefinitely.
        assert!(n.consider(c(2, 2), 500));
        assert_eq!(addrs(&n), vec![1, 2]);
        assert!(n.consider(c(3, 3), 500));
        assert_eq!(addrs(&n), vec![1, 3]);
    }

    #[test]
    fn neighborhood_rejects_duplicates() {
        let mut n = NeighborhoodSet::new(4);
        assert!(n.consider(c(1, 1), 10));
        assert!(!n.consider(c(1, 1), 5));
        assert_eq!(n.len(), 1);
    }
}
