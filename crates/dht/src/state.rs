//! Aggregate per-node DHT state.

use totoro_simnet::{NodeIdx, Shared, SimTime};

use crate::id::Id;
use crate::table::{Contact, LeafSet, NeighborhoodSet, RoutingTable};
use crate::two_level::TwoLevelTable;

/// Static DHT parameters shared by all nodes of an overlay.
#[derive(Clone, Copy, Debug)]
pub struct DhtConfig {
    /// Routing base bits `b`; the routing table has `2^b` columns and trees
    /// built over the overlay have fanout `2^b` (paper: 3, 4, or 5).
    pub base_bits: u32,
    /// Total leaf-set capacity (paper configures 24).
    pub leaf_set_size: usize,
    /// Neighborhood-set capacity.
    pub neighborhood_size: usize,
    /// Zone-prefix bits `m` of the multi-ring structure (0 = single ring).
    pub zone_bits: u32,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            base_bits: 4,
            leaf_set_size: 24,
            neighborhood_size: 16,
            zone_bits: 0,
        }
    }
}

/// The widest tree fanout: [`RoutingTable`](crate::RoutingTable) takes a
/// routing base of at most `2^8`.
pub const MAX_FANOUT: usize = 256;

impl DhtConfig {
    /// Tree fanout implied by the routing base (`2^b`).
    pub fn fanout(&self) -> usize {
        1 << self.base_bits
    }

    /// Config preset with the given tree fanout (must be a power of two
    /// from 2 to [`MAX_FANOUT`]).
    pub fn with_fanout(fanout: usize) -> Self {
        assert!(fanout.is_power_of_two() && (2..=MAX_FANOUT).contains(&fanout));
        DhtConfig {
            base_bits: fanout.trailing_zeros(),
            ..DhtConfig::default()
        }
    }
}

/// The complete routing state of one DHT node.
#[derive(Clone, Debug)]
pub struct DhtState {
    id: Id,
    addr: NodeIdx,
    config: DhtConfig,
    /// Prefix routing table (§4.2 "routing table").
    pub routing_table: RoutingTable,
    /// Ring neighbors (§4.2 "leaf set").
    pub leaf_set: LeafSet,
    /// Physically nearest peers (§4.2 "neighborhood set").
    pub neighborhood: NeighborhoodSet,
    /// Boundary-aware two-level finger table (§4.2 innovation 2).
    pub two_level: TwoLevelTable,
}

impl DhtState {
    /// Creates empty state for a node with identifier `id` at address
    /// `addr`.
    pub fn new(id: Id, addr: NodeIdx, config: DhtConfig) -> Self {
        DhtState {
            id,
            addr,
            config,
            routing_table: RoutingTable::new(id, config.base_bits),
            leaf_set: LeafSet::new(id, config.leaf_set_size),
            neighborhood: NeighborhoodSet::new(config.neighborhood_size),
            two_level: TwoLevelTable::new(id, config.zone_bits),
        }
    }

    /// The node's ring identifier.
    pub fn id(&self) -> Id {
        self.id
    }

    /// The node's network address.
    pub fn addr(&self) -> NodeIdx {
        self.addr
    }

    /// Updates the network address (used by tests and bulk construction).
    pub fn set_addr(&mut self, addr: NodeIdx) {
        self.addr = addr;
    }

    /// The overlay configuration.
    pub fn config(&self) -> DhtConfig {
        self.config
    }

    /// This node as a [`Contact`].
    pub fn contact(&self) -> Contact {
        Contact {
            id: self.id,
            addr: self.addr,
        }
    }

    /// The node's zone on the multi-ring structure.
    pub fn zone(&self) -> u64 {
        self.id.zone(self.config.zone_bits)
    }

    /// Offers a contact to every applicable data structure. `rtt_us`, when
    /// known, also feeds the neighborhood set. Returns `true` if any
    /// structure changed; on `false` the state is bit-identical to what it
    /// was before the call, which is what [`PeerRecord`]'s memo relies on.
    pub fn add_contact(&mut self, c: Contact, rtt_us: Option<u64>) -> bool {
        if c.id == self.id {
            return false;
        }
        let mut changed = self.routing_table.consider(c);
        changed |= self.leaf_set.consider(c);
        changed |= self.two_level.consider(c);
        if let Some(rtt) = rtt_us {
            changed |= self.neighborhood.consider(c, rtt);
        }
        changed
    }

    /// Removes a failed peer from every data structure. Returns `true` if
    /// the peer was known anywhere.
    pub fn remove_addr(&mut self, addr: NodeIdx) -> bool {
        let a = self.routing_table.remove_addr(addr) > 0;
        let b = self.leaf_set.remove_addr(addr);
        let c = self.neighborhood.remove_addr(addr);
        let d = self.two_level.remove_addr(addr) > 0;
        a || b || c || d
    }

    /// Iterates over every known contact (all structures, may repeat).
    pub fn known_contacts(&self) -> impl Iterator<Item = Contact> + '_ {
        self.routing_table
            .contacts()
            .chain(self.leaf_set.members())
            .chain(self.neighborhood.members())
            .chain(self.two_level.contacts())
    }

    /// Approximate memory footprint of all routing state, in bytes
    /// (Figure 13b).
    pub fn memory_bytes(&self) -> usize {
        self.routing_table.memory_bytes()
            + self.leaf_set.memory_bytes()
            + self.neighborhood.memory_bytes()
            + self.two_level.memory_bytes()
            + std::mem::size_of::<Self>()
    }
}

/// What [`PeerRecord::offer`] did with a contact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offer {
    /// The contact is remembered as a no-op: nothing was computed.
    Skipped,
    /// The full offer ran and changed nothing; the contact is now
    /// remembered.
    Unchanged,
    /// The full offer ran and changed some structure; everything remembered
    /// was forgotten.
    Changed {
        /// Whether this offer admitted the contact to the leaf set.
        joined_leaf_set: bool,
    },
}

/// Inline slots of a [`PeerRecord`]: a paper-sized leaf set (24) with room
/// to spare.
const SLOTS: usize = 32;

/// The key of a free inline slot. A peer whose address is this wide or
/// wider is tracked in the spill list.
const FREE: u32 = u32::MAX;

/// Where a tracked peer lives in a [`PeerRecord`].
#[derive(Clone, Copy)]
enum Slot {
    Inline(usize),
    Spilled(usize),
}

/// A tracked peer without an inline slot.
#[derive(Clone, Copy, Debug)]
struct Spilled {
    addr: NodeIdx,
    seen: SimTime,
    remembered: bool,
}

/// A gossip snapshot whose whole pass left every member remembered.
#[derive(Clone, Debug)]
struct HeldSnapshot {
    /// The sender's address.
    from: u32,
    /// Members other than the receiver: the offers one pass makes.
    offers: u32,
    /// The snapshot itself. Holding a handle keeps the allocation alive, so
    /// no other snapshot can be allocated under the same pointer.
    members: Shared<Vec<Contact>>,
}

/// What a node knows of its peers besides its [`DhtState`]: when each
/// *tracked* peer was last heard from, and which peers are *remembered* as
/// known no-ops. One record, stored inline in the node, so a keep-alive
/// finds both without following a pointer.
///
/// # Liveness
///
/// [`PeerRecord::set`] starts tracking a peer and [`PeerRecord::remove`]
/// stops; [`PeerRecord::refresh`] and [`PeerRecord::get_or_set`] read and
/// write its stamp. [`PeerRecord::len`] is the tracked count.
///
/// # The known-no-op memo
///
/// The remembered peers are those whose most recent offer to a
/// [`DhtState`] changed nothing, **all forgotten the moment that state
/// changes**. Keep-alive traffic re-offers the same few dozen contacts to a
/// settled node forever (over 99.9 % of offers on the benchmark's overlay
/// workloads change nothing). [`DhtState::add_contact`] is a pure function
/// of `(state, contact, rtt)`, so while the state is bit-identical to what
/// it was when a contact's offer was a no-op, offering it again is a no-op
/// too and can be skipped without computing anything. Exactness therefore
/// holds by construction, provided every mutation goes through
/// [`PeerRecord::offer`] / [`PeerRecord::remove_addr`] — the only two
/// places that forget — and the RTT passed for a contact is a function of
/// its address (it is: [`totoro_simnet::Topology::rtt`]).
///
/// Do **not** weaken the invalidation rule to "forget on removal only" on
/// the theory that every structure's accept-set shrinks between removals:
/// [`NeighborhoodSet::consider`] lets an equal-RTT newcomer displace the
/// incumbent, so two peers tied at the set's boundary evict each other on
/// every offer and neither is ever a stable no-op
/// (`removal_only_invalidation_diverges_on_rtt_ties` in
/// `tests/properties.rs` is the constructive counter-example).
///
/// # Whole gossip snapshots
///
/// [`PeerRecord::learn_gossip`] applies the same rule to a whole
/// `LeafExchange`. A settled sender gossips the same
/// [`Shared`] snapshot tick after tick (see [`crate::DhtNode`]), so the
/// record holds, per sender, the last snapshot whose full pass forgot
/// nothing (no offer changed the state and the memo was not cleared at
/// capacity) and left every member remembered (every member address fits
/// the memo's `u32` key). Nothing but the forget-all behind every forget
/// ever un-remembers an address, and it drops the held snapshots too, so while
/// one is held every member is still remembered: offering the same
/// snapshot again (the same allocation, [`Shared::ptr_eq`]) makes exactly
/// its members' offers, all skipped, which is what a hit counts without
/// reading the snapshot. Debug builds re-offer every member of every hit
/// and assert each is skipped.
///
/// The memo is keyed by the 32-bit network address, not the whole
/// [`Contact`]: address → id is a function, because a contact is only ever
/// minted by its owner's [`DhtState::contact`] and a node's id never
/// changes. Debug builds do not take that on trust: every hit re-runs the
/// full offer and asserts it reports no change.
///
/// The memo is derived, rebuildable simulator state, not protocol state: it
/// is excluded from every `memory_bytes()` (Figure 13b,
/// `simnet.state_bytes`) and lives beside the [`DhtState`] rather than
/// inside it, because [`DhtState::memory_bytes`] counts
/// `size_of::<DhtState>()`.
///
/// # Layout
///
/// 32 inline slots each hold a `u32` address, a stamp and a memo bit; one
/// compare over the whole key array finds a slot (it vectorises: there is
/// no chain of dependent probes). Tracked peers beyond 32, or with an
/// address of `u32::MAX` or more, live in an address-sorted spill list;
/// remembered peers that are not tracked (the non-leaf members a
/// `LeafExchange` offers) in an address-sorted side list. No hashing, so
/// nothing here depends on a hasher's iteration order. The layout decides
/// only *where* each fact is kept: the tracked set and the remembered set
/// are exactly those of a separate liveness table and memo, the pair
/// `tests/properties.rs` keeps as the oracle. So a tracked peer that stops
/// being tracked keeps its memo bit by moving to the side list, and one
/// that starts being tracked takes its bit from there.
///
/// The fields are laid out in cache lines, in the order a lookup reads
/// them: the keys fill two lines, the memo bits and both lists' headers
/// the third, and a hit then reads one of the four lines of stamps. The
/// held snapshots, address-sorted by sender, follow the stamps; only a
/// gossip reads them.
#[derive(Clone, Debug)]
#[repr(C, align(64))]
pub struct PeerRecord {
    /// Tracked addresses, [`FREE`] in unused slots; in no particular order.
    keys: [u32; SLOTS],
    /// Bit `i`: slot `i`'s peer is remembered.
    remembered: u32,
    /// How many times everything was forgotten (wrapping): a gossip pass
    /// that saw it move did not leave every member remembered.
    forgets: u32,
    /// Tracked peers without an inline slot, ascending by address.
    spill: Vec<Spilled>,
    /// Remembered addresses that are not tracked, ascending.
    side: Vec<u32>,
    /// When each slot's peer was last heard from.
    stamps: [SimTime; SLOTS],
    /// Gossip snapshots known to be no-ops, ascending by sender.
    snapshots: Vec<HeldSnapshot>,
}

impl Default for PeerRecord {
    fn default() -> Self {
        PeerRecord {
            keys: [FREE; SLOTS],
            stamps: [SimTime::ZERO; SLOTS],
            remembered: 0,
            forgets: 0,
            spill: Vec::new(),
            side: Vec::new(),
            snapshots: Vec::new(),
        }
    }
}

impl PeerRecord {
    /// Remembered addresses are all forgotten when this many are held. A
    /// settled node remembers 48 (its 24 leaf members and the 24 non-leaf
    /// ones their gossip offers), and forgetting is only ever slow, never
    /// wrong.
    pub const CAPACITY: usize = 128;

    /// Held gossip snapshots are all dropped when this many are held. A
    /// settled node hears from about 24 senders; dropping a snapshot only
    /// sends that sender's next gossip down the full path.
    pub const SNAPSHOT_CAPACITY: usize = 64;

    #[inline]
    fn find(&self, addr: NodeIdx) -> Option<Slot> {
        if let Some(key) = u32::try_from(addr).ok().filter(|&k| k != FREE) {
            // Every slot compared, no early exit: this is what vectorises.
            let mut hits = 0u32;
            for (i, &k) in self.keys.iter().enumerate() {
                hits |= u32::from(k == key) << i;
            }
            if hits != 0 {
                return Some(Slot::Inline(hits.trailing_zeros() as usize));
            }
        }
        if self.spill.is_empty() {
            return None;
        }
        self.spill
            .binary_search_by_key(&addr, |s| s.addr)
            .ok()
            .map(Slot::Spilled)
    }

    fn stamp_mut(&mut self, slot: Slot) -> &mut SimTime {
        match slot {
            Slot::Inline(i) => &mut self.stamps[i],
            Slot::Spilled(i) => &mut self.spill[i].seen,
        }
    }

    /// Starts tracking `addr` (not tracked yet), taking its memo bit from
    /// the side list.
    fn track(&mut self, addr: NodeIdx, now: SimTime) {
        let key = u32::try_from(addr).ok();
        let remembered = match key.map(|k| self.side.binary_search(&k)) {
            Some(Ok(at)) => {
                self.side.remove(at);
                true
            }
            _ => false,
        };
        let free = match key {
            Some(k) if k != FREE => self.keys.iter().position(|&k| k == FREE),
            _ => None,
        };
        match (free, key) {
            (Some(i), Some(k)) => {
                self.keys[i] = k;
                self.stamps[i] = now;
                self.remembered |= u32::from(remembered) << i;
            }
            _ => {
                let at = self.spill.partition_point(|s| s.addr < addr);
                let spilled = Spilled {
                    addr,
                    seen: now,
                    remembered,
                };
                self.spill.insert(at, spilled);
            }
        }
    }

    /// Adds `key`, untracked and not yet remembered, to the side list.
    fn side_insert(&mut self, key: u32) {
        let at = self.side.partition_point(|&a| a < key);
        self.side.insert(at, key);
    }

    /// Refreshes `addr` if it is tracked; returns whether it was.
    pub fn refresh(&mut self, addr: NodeIdx, now: SimTime) -> bool {
        match self.find(addr) {
            Some(slot) => {
                *self.stamp_mut(slot) = now;
                true
            }
            None => false,
        }
    }

    /// Refreshes `addr`, starting to track it if it was not.
    pub fn set(&mut self, addr: NodeIdx, now: SimTime) {
        match self.find(addr) {
            Some(slot) => *self.stamp_mut(slot) = now,
            None => self.track(addr, now),
        }
    }

    /// When `addr` was last heard from; an untracked peer starts at `now`.
    pub fn get_or_set(&mut self, addr: NodeIdx, now: SimTime) -> SimTime {
        match self.find(addr) {
            Some(slot) => *self.stamp_mut(slot),
            None => {
                self.track(addr, now);
                now
            }
        }
    }

    /// Stops tracking `addr`. A remembered peer stays remembered.
    pub fn remove(&mut self, addr: NodeIdx) {
        let remembered = match self.find(addr) {
            None => return,
            Some(Slot::Inline(i)) => {
                self.keys[i] = FREE;
                let bit = self.remembered >> i & 1 == 1;
                self.remembered &= !(1 << i);
                bit
            }
            Some(Slot::Spilled(i)) => self.spill.remove(i).remembered,
        };
        if remembered {
            // Only addresses that fit a `u32` are ever remembered.
            self.side_insert(addr as u32);
        }
    }

    /// How many peers are tracked.
    pub fn len(&self) -> usize {
        self.keys.iter().filter(|&&k| k != FREE).count() + self.spill.len()
    }

    /// Whether no peer is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `addr` is remembered as a known no-op.
    pub fn remembers(&self, addr: NodeIdx) -> bool {
        self.is_remembered(self.find(addr), addr)
    }

    fn is_remembered(&self, slot: Option<Slot>, addr: NodeIdx) -> bool {
        match slot {
            Some(Slot::Inline(i)) => self.remembered >> i & 1 == 1,
            Some(Slot::Spilled(i)) => self.spill[i].remembered,
            None => u32::try_from(addr).is_ok_and(|key| self.side.binary_search(&key).is_ok()),
        }
    }

    /// Remembers `key`, found at `slot`; forgets everything first at
    /// capacity.
    fn remember(&mut self, slot: Option<Slot>, key: u32) {
        let held = self.remembered.count_ones() as usize
            + self.spill.iter().filter(|s| s.remembered).count()
            + self.side.len();
        if held >= Self::CAPACITY {
            self.forget_all();
        }
        match slot {
            Some(Slot::Inline(i)) => self.remembered |= 1 << i,
            Some(Slot::Spilled(i)) => self.spill[i].remembered = true,
            None => self.side_insert(key),
        }
    }

    fn forget_all(&mut self) {
        self.forgets = self.forgets.wrapping_add(1);
        self.snapshots.clear();
        self.remembered = 0;
        for s in &mut self.spill {
            s.remembered = false;
        }
        self.side.clear();
    }

    /// Offers `c` to `state` unless it is remembered as a no-op. `rtt_us`
    /// measures the RTT to `c` and is only called when the offer runs.
    pub fn offer(
        &mut self,
        state: &mut DhtState,
        c: Contact,
        rtt_us: impl FnOnce() -> u64,
    ) -> Offer {
        let slot = self.find(c.addr);
        if self.is_remembered(slot, c.addr) {
            debug_assert!(
                !state.add_contact(c, Some(rtt_us())),
                "memo hit, but offering {c:?} changes the state"
            );
            return Offer::Skipped;
        }
        let is_leaf = |s: &DhtState| s.leaf_set.members().any(|m| m.addr == c.addr);
        let was_leaf = is_leaf(state);
        if state.add_contact(c, Some(rtt_us())) {
            self.forget_all();
            return Offer::Changed {
                joined_leaf_set: !was_leaf && is_leaf(state),
            };
        }
        // An address too wide for the key is never remembered.
        if let Ok(key) = u32::try_from(c.addr) {
            self.remember(slot, key);
        }
        Offer::Unchanged
    }

    /// Offers `c` as a node learns of a peer: [`PeerRecord::offer`], then
    /// tracking `c` from `now` if the offer admitted it to the leaf set.
    pub fn learn(
        &mut self,
        state: &mut DhtState,
        c: Contact,
        now: SimTime,
        rtt_us: impl FnOnce() -> u64,
    ) -> Offer {
        let offer = self.offer(state, c, rtt_us);
        if let Offer::Changed {
            joined_leaf_set: true,
        } = offer
        {
            self.set(c.addr, now);
        }
        offer
    }

    /// Learns every member of the leaf-set gossip `members` from `from`
    /// except the receiver itself, in order: exactly [`PeerRecord::learn`]
    /// on each. Returns `(offers, skipped)`, the offers made and how many of
    /// them were skipped. A snapshot held from `from` (see the type's
    /// "Whole gossip snapshots") is skipped whole: every offer is skipped.
    pub fn learn_gossip(
        &mut self,
        state: &mut DhtState,
        from: NodeIdx,
        members: &Shared<Vec<Contact>>,
        now: SimTime,
        rtt_us: impl Fn(NodeIdx) -> u64,
    ) -> (u64, u64) {
        let me = state.addr();
        if let Some(offers) = self.held(from, members) {
            let offers = u64::from(offers);
            if cfg!(debug_assertions) {
                for &c in members.iter().filter(|c| c.addr != me) {
                    let offer = self.offer(state, c, || rtt_us(c.addr));
                    assert_eq!(
                        offer,
                        Offer::Skipped,
                        "held snapshot, but {c:?} is not remembered"
                    );
                }
            }
            return (offers, offers);
        }
        let forgets = self.forgets;
        let (mut offers, mut skipped) = (0u64, 0u64);
        let mut fits = true;
        for &c in members.iter().filter(|c| c.addr != me) {
            offers += 1;
            fits &= u32::try_from(c.addr).is_ok();
            if self.learn(state, c, now, || rtt_us(c.addr)) == Offer::Skipped {
                skipped += 1;
            }
        }
        if fits && self.forgets == forgets {
            if let (Ok(from), Ok(k)) = (u32::try_from(from), u32::try_from(offers)) {
                self.hold(from, k, members);
            }
        }
        (offers, skipped)
    }

    /// The offers a pass of `members` from `from` makes, if that snapshot
    /// is held as a known no-op.
    fn held(&self, from: NodeIdx, members: &Shared<Vec<Contact>>) -> Option<u32> {
        let key = u32::try_from(from).ok()?;
        let at = self.snapshots.binary_search_by_key(&key, |h| h.from).ok()?;
        let held = &self.snapshots[at];
        Shared::ptr_eq(&held.members, members).then_some(held.offers)
    }

    /// Whether `from`'s gossip of `members` would be skipped whole.
    pub fn holds_snapshot(&self, from: NodeIdx, members: &Shared<Vec<Contact>>) -> bool {
        self.held(from, members).is_some()
    }

    /// Holds `members` as `from`'s no-op snapshot, replacing the one held
    /// before; drops every held snapshot first at capacity.
    fn hold(&mut self, from: u32, offers: u32, members: &Shared<Vec<Contact>>) {
        let held = HeldSnapshot {
            from,
            offers,
            members: members.clone(),
        };
        match self.snapshots.binary_search_by_key(&from, |h| h.from) {
            Ok(at) => self.snapshots[at] = held,
            Err(_) if self.snapshots.len() >= Self::SNAPSHOT_CAPACITY => {
                self.snapshots.clear();
                self.snapshots.push(held);
            }
            Err(at) => self.snapshots.insert(at, held),
        }
    }

    /// [`DhtState::remove_addr`], forgetting everything if it removed
    /// anything (a freed slot re-admits contacts that were no-ops).
    pub fn remove_addr(&mut self, state: &mut DhtState, addr: NodeIdx) -> bool {
        let removed = state.remove_addr(addr);
        if removed {
            self.forget_all();
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_presets_match_paper() {
        assert_eq!(DhtConfig::with_fanout(8).base_bits, 3);
        assert_eq!(DhtConfig::with_fanout(16).base_bits, 4);
        assert_eq!(DhtConfig::with_fanout(32).base_bits, 5);
        assert_eq!(DhtConfig::with_fanout(32).fanout(), 32);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_fanout_panics() {
        let _ = DhtConfig::with_fanout(12);
    }

    #[test]
    fn add_contact_populates_all_structures() {
        let mut s = DhtState::new(Id::new(1_000), 0, DhtConfig::default());
        let c = Contact {
            id: Id::new(2_000),
            addr: 5,
        };
        s.add_contact(c, Some(300));
        assert!(!s.routing_table.is_empty());
        assert!(!s.leaf_set.is_empty());
        assert!(!s.neighborhood.is_empty());
        assert!(s.remove_addr(5));
        assert!(!s.remove_addr(5));
        assert!(s.leaf_set.is_empty());
    }

    #[test]
    fn self_contact_is_ignored() {
        let mut s = DhtState::new(Id::new(1), 0, DhtConfig::default());
        s.add_contact(s.contact(), Some(1));
        assert_eq!(s.known_contacts().count(), 0);
    }

    /// At [`PeerRecord::SNAPSHOT_CAPACITY`] held snapshots, holding one
    /// more drops the others (and nothing the memo remembers); the dropped
    /// senders' next gossip takes the full path and is held again.
    #[test]
    fn held_snapshots_are_dropped_at_capacity() {
        let mut st = DhtState::new(Id::new(1 << 100), 0, DhtConfig::default());
        let c = Contact {
            id: Id::new(2 << 100),
            addr: 1,
        };
        let members = Shared::new(vec![c, st.contact()]);
        let mut rec = PeerRecord::default();
        let mut gossip = |rec: &mut PeerRecord, from: NodeIdx| {
            rec.learn_gossip(&mut st, from, &members, SimTime::ZERO, |_| 1)
        };
        // `c` joins the empty state, then is a no-op.
        assert_eq!(gossip(&mut rec, 1), (1, 0));
        assert!(!rec.holds_snapshot(1, &members));
        assert_eq!(gossip(&mut rec, 1), (1, 0));
        for from in 1..=PeerRecord::SNAPSHOT_CAPACITY {
            assert_eq!(gossip(&mut rec, from), (1, 1));
            assert!(rec.holds_snapshot(from, &members));
        }
        let next = PeerRecord::SNAPSHOT_CAPACITY + 1;
        assert_eq!(gossip(&mut rec, next), (1, 1));
        assert!(rec.holds_snapshot(next, &members));
        assert!(!rec.holds_snapshot(1, &members));
        assert!(rec.remembers(c.addr));
        assert_eq!(gossip(&mut rec, 1), (1, 1));
        assert!(rec.holds_snapshot(1, &members));
    }

    #[test]
    fn memory_accounting_is_positive_and_grows() {
        let mut s = DhtState::new(Id::new(1), 0, DhtConfig::default());
        let base = s.memory_bytes();
        for i in 2..100u128 {
            s.add_contact(
                Contact {
                    id: Id::new(i << 64),
                    addr: i as usize,
                },
                Some(i as u64),
            );
        }
        assert!(s.memory_bytes() > base);
    }
}
