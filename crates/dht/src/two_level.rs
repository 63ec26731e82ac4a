//! Boundary-aware two-level routing table (§4.2, innovation 2).
//!
//! Standard DHTs optimize search paths without regard to administrative
//! boundaries, so a packet can traverse a foreign edge site whenever that
//! site holds a node with a longer matching prefix. Totoro instead splits
//! every NodeId into an `m`-bit zone prefix `P` and an `n`-bit suffix `S`
//! (`D = P * 2^n + S`) and gives every node two finger tables:
//!
//! * **Level 1** — `m` entries; entry `i` targets zone
//!   `(P_x + 2^(i-1)) mod 2^m`, enabling O(log m) greedy routing *between*
//!   zones.
//! * **Level 2** — `n` entries; entry `i` targets suffix
//!   `(S_y + 2^(i-1)) mod 2^n`, enabling greedy routing *within* a zone.
//!
//! Administrators achieve isolation by checking a packet's destination zone
//! prefix at the boundary: if it differs from the local zone and the
//! application is zone-restricted, the packet is blocked before leaving.

use crate::id::{Id, ID_BITS};
use crate::table::Contact;

/// Outcome of a boundary check on a routed packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundaryDecision {
    /// The packet may proceed.
    Allow,
    /// The packet targets a foreign zone and the application is restricted
    /// to its home zone: the administrator blocks it (§4.2).
    Block,
}

/// The two-level finger table of one node.
#[derive(Clone, Debug)]
pub struct TwoLevelTable {
    my_id: Id,
    zone_bits: u32,
    /// Level-1 fingers: `level1[i]` holds a contact in zone
    /// `(P + 2^i) mod 2^m` (`i` is zero-based; the paper's `i` is one-based).
    level1: Vec<Option<Contact>>,
    /// Level-2 fingers: `level2[i]` holds a same-zone contact whose suffix
    /// is the first known at or clockwise-after `(S + 2^i) mod 2^n`.
    level2: Vec<Option<Contact>>,
}

impl TwoLevelTable {
    /// Creates an empty table for `my_id` with `zone_bits` = `m`.
    pub fn new(my_id: Id, zone_bits: u32) -> Self {
        assert!(
            zone_bits < ID_BITS,
            "zone bits must leave room for suffixes"
        );
        let n = ID_BITS - zone_bits;
        TwoLevelTable {
            my_id,
            zone_bits,
            level1: vec![None; zone_bits as usize],
            level2: vec![None; n as usize],
        }
    }

    /// The number of zone bits `m`.
    pub fn zone_bits(&self) -> u32 {
        self.zone_bits
    }

    /// The owner's zone id.
    pub fn my_zone(&self) -> u64 {
        self.my_id.zone(self.zone_bits)
    }

    /// Offers a contact for both levels. Returns `true` if stored anywhere.
    pub fn consider(&mut self, c: Contact) -> bool {
        if c.id == self.my_id {
            return false;
        }
        let mut stored = false;
        let m = self.zone_bits;
        if m > 0 && c.id.zone(m) != self.my_zone() {
            // Level 1: find which finger interval the contact's zone falls
            // into: interval i covers zones [P + 2^i, P + 2^(i+1)).
            let gap = zone_cw_dist(self.my_zone(), c.id.zone(m), m);
            debug_assert!(gap > 0);
            let i = (63 - gap.leading_zeros()) as usize; // floor(log2(gap))
            if i < self.level1.len() {
                let my_zone = self.my_zone();
                let slot = &mut self.level1[i];
                let replace = match slot {
                    None => true,
                    // Prefer the contact nearest the interval start.
                    Some(old) => gap < zone_cw_dist(my_zone, old.id.zone(m), m),
                };
                if replace {
                    *slot = Some(c);
                    stored = true;
                }
            }
        } else {
            // Level 2: same-zone contact keyed by suffix distance.
            let n = ID_BITS - m;
            let gap = suffix_cw_dist(self.my_id.suffix(m), c.id.suffix(m), n);
            if gap > 0 {
                let i = (127 - gap.leading_zeros()) as usize;
                if i < self.level2.len() {
                    let slot = &mut self.level2[i];
                    let replace = match slot {
                        None => true,
                        Some(old) => {
                            gap < suffix_cw_dist(self.my_id.suffix(m), old.id.suffix(m), n)
                        }
                    };
                    if replace {
                        *slot = Some(c);
                        stored = true;
                    }
                }
            }
        }
        stored
    }

    /// Removes all fingers pointing at `addr`. Returns how many.
    pub fn remove_addr(&mut self, addr: totoro_simnet::NodeIdx) -> usize {
        let mut removed = 0;
        for slot in self.level1.iter_mut().chain(self.level2.iter_mut()) {
            if slot.map(|c| c.addr) == Some(addr) {
                *slot = None;
                removed += 1;
            }
        }
        removed
    }

    /// Greedy inter-zone step: the level-1 finger that makes the most
    /// clockwise progress toward `target_zone` without overshooting it.
    pub fn next_hop_toward_zone(&self, target_zone: u64) -> Option<Contact> {
        let m = self.zone_bits;
        if m == 0 || target_zone == self.my_zone() {
            return None;
        }
        let budget = zone_cw_dist(self.my_zone(), target_zone, m);
        self.level1
            .iter()
            .flatten()
            .filter(|c| {
                let prog = zone_cw_dist(self.my_zone(), c.id.zone(m), m);
                prog > 0 && prog <= budget
            })
            .max_by_key(|c| zone_cw_dist(self.my_zone(), c.id.zone(m), m))
            .copied()
    }

    /// Greedy intra-zone step: the level-2 finger that makes the most
    /// clockwise suffix progress toward `key` without overshooting.
    pub fn next_hop_toward_suffix(&self, key: Id) -> Option<Contact> {
        let m = self.zone_bits;
        let n = ID_BITS - m;
        let budget = suffix_cw_dist(self.my_id.suffix(m), key.suffix(m), n);
        if budget == 0 {
            return None;
        }
        self.level2
            .iter()
            .flatten()
            .filter(|c| {
                let prog = suffix_cw_dist(self.my_id.suffix(m), c.id.suffix(m), n);
                prog > 0 && prog <= budget
            })
            .max_by_key(|c| suffix_cw_dist(self.my_id.suffix(m), c.id.suffix(m), n))
            .copied()
    }

    /// The administrator's boundary check for a packet destined to `key`:
    /// blocked iff the application is `zone_restricted` and `key` lives in a
    /// foreign zone.
    pub fn boundary_check(&self, key: Id, zone_restricted: bool) -> BoundaryDecision {
        if zone_restricted && self.zone_bits > 0 && key.zone(self.zone_bits) != self.my_zone() {
            BoundaryDecision::Block
        } else {
            BoundaryDecision::Allow
        }
    }

    /// Iterates over all populated fingers (both levels).
    pub fn contacts(&self) -> impl Iterator<Item = Contact> + '_ {
        self.level1
            .iter()
            .chain(self.level2.iter())
            .filter_map(|s| *s)
    }

    /// Approximate memory footprint in bytes (for Figure 13b).
    pub fn memory_bytes(&self) -> usize {
        (self.level1.len() + self.level2.len()) * std::mem::size_of::<Option<Contact>>()
    }
}

/// Clockwise distance on the `2^m`-zone ring.
fn zone_cw_dist(from: u64, to: u64, m: u32) -> u64 {
    debug_assert!(m <= 63);
    let modulus = 1u64 << m;
    (to.wrapping_sub(from)) & (modulus - 1)
}

/// Clockwise distance on the `2^n`-suffix ring.
fn suffix_cw_dist(from: u128, to: u128, n: u32) -> u128 {
    if n >= 128 {
        to.wrapping_sub(from)
    } else {
        (to.wrapping_sub(from)) & ((1u128 << n) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: u32 = 4; // 16 zones

    fn id_in_zone(zone: u64, suffix: u128) -> Id {
        Id::compose(zone, M, suffix)
    }

    fn contact(zone: u64, suffix: u128, addr: usize) -> Contact {
        Contact {
            id: id_in_zone(zone, suffix),
            addr,
        }
    }

    #[test]
    fn level1_fingers_fill_exponential_intervals() {
        let me = id_in_zone(0, 100);
        let mut t = TwoLevelTable::new(me, M);
        assert!(t.consider(contact(1, 0, 1))); // gap 1 -> finger 0
        assert!(t.consider(contact(2, 0, 2))); // gap 2 -> finger 1
        assert!(t.consider(contact(5, 0, 3))); // gap 5 -> finger 2
        assert!(t.consider(contact(9, 0, 4))); // gap 9 -> finger 3
        assert_eq!(t.contacts().count(), 4);
    }

    #[test]
    fn level1_prefers_interval_start() {
        let me = id_in_zone(0, 0);
        let mut t = TwoLevelTable::new(me, M);
        assert!(t.consider(contact(7, 0, 1))); // finger 2 covers zones 4..8
        assert!(t.consider(contact(4, 0, 2))); // closer to 4: replaces
        let f: Vec<u64> = t.contacts().map(|c| c.id.zone(M)).collect();
        assert!(f.contains(&4) && !f.contains(&7));
    }

    #[test]
    fn interzone_greedy_never_overshoots() {
        let me = id_in_zone(0, 0);
        let mut t = TwoLevelTable::new(me, M);
        t.consider(contact(1, 0, 1));
        t.consider(contact(2, 0, 2));
        t.consider(contact(4, 0, 3));
        t.consider(contact(8, 0, 4));
        // Target zone 5: best non-overshooting finger is zone 4.
        let hop = t.next_hop_toward_zone(5).unwrap();
        assert_eq!(hop.id.zone(M), 4);
        // Target zone 15: zone 8 is the farthest finger.
        assert_eq!(t.next_hop_toward_zone(15).unwrap().id.zone(M), 8);
        // Target own zone: no inter-zone hop.
        assert!(t.next_hop_toward_zone(0).is_none());
    }

    #[test]
    fn interzone_routing_converges_in_log_hops() {
        // Build a full 16-zone ring where every zone has one node that knows
        // perfect fingers; greedy hop count must be <= m.
        let nodes: Vec<Contact> = (0..16).map(|z| contact(z, 0, z as usize)).collect();
        let tables: Vec<TwoLevelTable> = nodes
            .iter()
            .map(|me| {
                let mut t = TwoLevelTable::new(me.id, M);
                for c in &nodes {
                    t.consider(*c);
                }
                t
            })
            .collect();
        for start in 0..16u64 {
            for target in 0..16u64 {
                let mut cur = start;
                let mut hops = 0;
                while cur != target {
                    let hop = tables[cur as usize]
                        .next_hop_toward_zone(target)
                        .expect("greedy step exists");
                    cur = hop.id.zone(M);
                    hops += 1;
                    assert!(hops <= M, "too many inter-zone hops");
                }
            }
        }
    }

    #[test]
    fn level2_routes_within_zone() {
        let me = id_in_zone(3, 0);
        let mut t = TwoLevelTable::new(me, M);
        t.consider(contact(3, 1 << 10, 1));
        t.consider(contact(3, 1 << 50, 2));
        let hop = t
            .next_hop_toward_suffix(id_in_zone(3, (1 << 50) + 5))
            .unwrap();
        assert_eq!(hop.addr, 2);
        // Key behind all fingers: nearest small finger.
        let hop2 = t
            .next_hop_toward_suffix(id_in_zone(3, (1 << 10) + 1))
            .unwrap();
        assert_eq!(hop2.addr, 1);
        // Key equal to own suffix: delivered locally.
        assert!(t.next_hop_toward_suffix(me).is_none());
    }

    #[test]
    fn boundary_check_blocks_foreign_zone_when_restricted() {
        let me = id_in_zone(2, 7);
        let t = TwoLevelTable::new(me, M);
        let foreign = id_in_zone(5, 7);
        let local = id_in_zone(2, 99);
        assert_eq!(t.boundary_check(foreign, true), BoundaryDecision::Block);
        assert_eq!(t.boundary_check(foreign, false), BoundaryDecision::Allow);
        assert_eq!(t.boundary_check(local, true), BoundaryDecision::Allow);
    }

    #[test]
    fn remove_addr_clears_fingers() {
        let me = id_in_zone(0, 0);
        let mut t = TwoLevelTable::new(me, M);
        t.consider(contact(1, 0, 9));
        t.consider(contact(0, 500, 9));
        assert_eq!(t.remove_addr(9), 2);
        assert_eq!(t.contacts().count(), 0);
    }

    #[test]
    fn zone_distance_wraps() {
        assert_eq!(zone_cw_dist(14, 2, 4), 4);
        assert_eq!(zone_cw_dist(2, 14, 4), 12);
        assert_eq!(zone_cw_dist(5, 5, 4), 0);
    }
}
