//! Property-based tests for the DHT's core invariants.

use proptest::prelude::*;
use totoro_dht::{closest_on_ring, Id, LeafSet, RoutingTable};
use totoro_dht::{Contact, DhtConfig, DhtState, NextHop, Offer, PeerRecord};
use totoro_simnet::{NodeIdx, Shared, SimTime};

/// Everything the four routing structures list, each in its own order.
fn listing(s: &DhtState) -> [Vec<Contact>; 4] {
    [
        s.routing_table.contacts().collect(),
        s.leaf_set.members().collect(),
        s.two_level.contacts().collect(),
        s.neighborhood.members().collect(),
    ]
}

/// `(zoned, leaf_half, neighborhood_size)` -> a config whose sets range
/// from tiny (every offer is at a boundary) to the paper's sizes.
fn shaped_config((zoned, leaf_half, neighborhood_size): (bool, usize, usize)) -> DhtConfig {
    DhtConfig {
        zone_bits: if zoned { 4 } else { 0 },
        leaf_set_size: 2 * leaf_half,
        neighborhood_size,
        ..DhtConfig::default()
    }
}

/// A small pool of contacts built to collide: arbitrary ids, ids adjacent
/// to `me` on either ring side, ids repeated under a second address, and
/// RTTs drawn from three values so neighbourhood ties are the norm. A
/// contact's RTT is a function of its address, as in the simulator.
fn contact_pool(me: Id, raw: &[(u128, u8, u64)]) -> Vec<(Contact, u64)> {
    let mut pool: Vec<(Contact, u64)> = Vec::new();
    for (i, &(r, kind, rtt)) in raw.iter().enumerate() {
        let id = match kind {
            0 => Id::new(r),
            1 => Id::new(me.raw().wrapping_add(1 + r % 64)),
            2 => Id::new(me.raw().wrapping_sub(1 + r % 64)),
            _ => pool.last().map_or(Id::new(r), |(c, _)| c.id),
        };
        pool.push((Contact { id, addr: i + 1 }, 100 * (1 + rtt)));
    }
    pool
}

/// The `k`-th of a family of contacts half a ring away from id 0 that all
/// map to one routing-table slot and one level-2 finger, both of which
/// `far(0)` wins (nearest clockwise). Addresses start at 3.
fn far(k: usize) -> Contact {
    Contact {
        id: Id::new((8u128 << 124) + ((k as u128) << 100)),
        addr: 3 + k,
    }
}

/// A node at id 0 that is closed to the far contacts `a` and `b` everywhere
/// but in its two-slot neighbourhood set, where they tie: ring-adjacent ids
/// fill the one-per-side leaf set, and `x` holds both the routing-table
/// slot and the level-2 finger that `a` and `b` map to, and one of the two
/// neighbourhood slots. Returns the state and `[x, a, b]` with their RTTs.
fn state_closed_but_for_a_tie() -> (DhtState, [(Contact, u64); 3]) {
    let config = DhtConfig {
        leaf_set_size: 2,
        neighborhood_size: 2,
        ..DhtConfig::default()
    };
    let mut st = DhtState::new(Id::ZERO, 0, config);
    let (x, a, b) = (far(0), far(1), far(2));
    for (id, addr) in [(u128::MAX, 1), (1, 2)] {
        st.add_contact(
            Contact {
                id: Id::new(id),
                addr,
            },
            Some(1_000),
        );
    }
    st.add_contact(x, Some(50));
    (st, [(x, 50), (a, 100), (b, 100)])
}

/// The invalidation rule that must not ship. "Forget only on removal,
/// because every structure's accept-set only shrinks between removals" is
/// false for the neighbourhood set, where an equal-RTT newcomer displaces
/// the incumbent: on this sequence the removal-only memo skips an offer
/// that changes the state, while [`PeerRecord`] (forget on any change)
/// tracks the always-offered state exactly.
#[test]
fn removal_only_invalidation_diverges_on_rtt_ties() {
    let (start, [_, a, b]) = state_closed_but_for_a_tie();
    let (mut always, mut shipped, mut removal_only) = (start.clone(), start.clone(), start);
    let mut memo = PeerRecord::default();
    let mut remembered = std::collections::BTreeSet::new();
    // a enters; b ties and displaces it; b again is a no-op (remembered by
    // both rules); a displaces b; b would displace a again.
    for (c, rtt) in [a, b, b, a, b] {
        always.add_contact(c, Some(rtt));
        memo.offer(&mut shipped, c, || rtt);
        assert_eq!(listing(&shipped), listing(&always));
        if !remembered.contains(&c.addr) && !removal_only.add_contact(c, Some(rtt)) {
            remembered.insert(c.addr);
        }
    }
    assert_eq!(listing(&always)[3].last(), Some(&b.0));
    assert_eq!(listing(&removal_only)[3].last(), Some(&a.0));
}

/// A removal re-opens slots, so it must forget no-ops: once `x` leaves,
/// the contact that kept bouncing off `x`'s routing-table slot is admitted.
#[test]
fn removal_forgets_and_the_freed_slot_refills() {
    let (mut st, [x, a, _]) = state_closed_but_for_a_tie();
    let mut memo = PeerRecord::default();
    let offer = |memo: &mut PeerRecord, st: &mut DhtState| memo.offer(st, a.0, || a.1);
    // The first offer lands in the neighbourhood set only.
    assert!(matches!(offer(&mut memo, &mut st), Offer::Changed { .. }));
    assert_eq!(offer(&mut memo, &mut st), Offer::Unchanged);
    assert_eq!(offer(&mut memo, &mut st), Offer::Skipped);
    assert!(!st.routing_table.contacts().any(|c| c == a.0));
    assert!(memo.remove_addr(&mut st, x.0.addr));
    assert!(matches!(offer(&mut memo, &mut st), Offer::Changed { .. }));
    assert!(st.routing_table.contacts().any(|c| c == a.0));
}

/// The memo is bounded: at capacity, one more distinct no-op makes it
/// forget everything else, which costs misses and nothing more.
#[test]
fn memo_forgets_everything_when_full() {
    let (mut st, [_, a, _]) = state_closed_but_for_a_tie();
    let mut memo = PeerRecord::default();
    // With `a` in the second neighbourhood slot, any slower far contact
    // bounces off every structure.
    memo.offer(&mut st, a.0, || a.1);
    let mut offer = |k: usize| memo.offer(&mut st, far(2 + k), || 1_000);
    for k in 1..=PeerRecord::CAPACITY {
        assert_eq!(offer(k), Offer::Unchanged);
    }
    assert_eq!(offer(1), Offer::Skipped);
    assert_eq!(offer(PeerRecord::CAPACITY + 1), Offer::Unchanged);
    assert_eq!(offer(PeerRecord::CAPACITY + 1), Offer::Skipped);
    assert_eq!(offer(1), Offer::Unchanged);
}

/// The separate liveness table and memo that [`PeerRecord`] replaced,
/// verbatim but for the module they live in: the oracle it is checked
/// against.
mod separate_tables {
    use totoro_dht::{Contact, DhtState, Offer};
    use totoro_simnet::{NodeIdx, SimTime};

    /// When each tracked peer was last heard from, ascending by address and
    /// probed by binary search.
    #[derive(Clone, Default)]
    pub struct LastSeen(Vec<(NodeIdx, SimTime)>);

    impl LastSeen {
        fn slot(&self, addr: NodeIdx) -> Result<usize, usize> {
            self.0.binary_search_by_key(&addr, |&(a, _)| a)
        }

        /// Refreshes `addr` if it is tracked; returns whether it was.
        pub fn refresh(&mut self, addr: NodeIdx, now: SimTime) -> bool {
            match self.slot(addr) {
                Ok(i) => {
                    self.0[i].1 = now;
                    true
                }
                Err(_) => false,
            }
        }

        /// Refreshes `addr`, starting to track it if it was not.
        pub fn set(&mut self, addr: NodeIdx, now: SimTime) {
            match self.slot(addr) {
                Ok(i) => self.0[i].1 = now,
                Err(i) => self.0.insert(i, (addr, now)),
            }
        }

        /// When `addr` was last heard from; an untracked peer starts at `now`.
        pub fn get_or_set(&mut self, addr: NodeIdx, now: SimTime) -> SimTime {
            match self.slot(addr) {
                Ok(i) => self.0[i].1,
                Err(i) => {
                    self.0.insert(i, (addr, now));
                    now
                }
            }
        }

        pub fn remove(&mut self, addr: NodeIdx) {
            if let Ok(i) = self.slot(addr) {
                self.0.remove(i);
            }
        }

        pub fn len(&self) -> usize {
            self.0.len()
        }
    }

    /// The known-no-op memo: the peers whose most recent offer changed
    /// nothing, emptied the moment the state changes.
    #[derive(Clone, Debug, Default)]
    pub struct NoOpMemo {
        /// Remembered addresses, ascending (binary-searched; no hashing).
        addrs: Vec<u32>,
    }

    impl NoOpMemo {
        pub const CAPACITY: usize = 128;

        pub fn remembers(&self, addr: NodeIdx) -> bool {
            self.addrs
                .binary_search_by_key(&addr, |&a| a as NodeIdx)
                .is_ok()
        }

        /// Offers `c` to `state` unless it is remembered as a no-op.
        pub fn offer(
            &mut self,
            state: &mut DhtState,
            c: Contact,
            rtt_us: impl FnOnce() -> u64,
        ) -> Offer {
            let slot = match self.addrs.binary_search_by_key(&c.addr, |&a| a as NodeIdx) {
                Ok(_) => {
                    debug_assert!(
                        !state.add_contact(c, Some(rtt_us())),
                        "memo hit, but offering {c:?} changes the state"
                    );
                    return Offer::Skipped;
                }
                Err(slot) => slot,
            };
            let is_leaf = |s: &DhtState| s.leaf_set.members().any(|m| m.addr == c.addr);
            let was_leaf = is_leaf(state);
            if state.add_contact(c, Some(rtt_us())) {
                self.addrs.clear();
                return Offer::Changed {
                    joined_leaf_set: !was_leaf && is_leaf(state),
                };
            }
            // An address too wide for the key is never remembered.
            if let Ok(addr) = u32::try_from(c.addr) {
                if self.addrs.len() < Self::CAPACITY {
                    self.addrs.insert(slot, addr);
                } else {
                    self.addrs.clear();
                    self.addrs.push(addr);
                }
            }
            Offer::Unchanged
        }

        /// [`DhtState::remove_addr`], forgetting everything if it removed
        /// anything.
        pub fn remove_addr(&mut self, state: &mut DhtState, addr: NodeIdx) -> bool {
            let removed = state.remove_addr(addr);
            if removed {
                self.addrs.clear();
            }
            removed
        }
    }
}

/// One operation on a peer record, on the pool contact it names.
#[derive(Clone, Copy, Debug)]
enum PeerOp {
    Offer,
    Refresh,
    Set,
    GetOrSet,
    Remove,
    RemoveAddr,
}

/// The same state driven through a [`PeerRecord`] and through the separate
/// tables it replaced, compared after every operation.
struct PeerTwin {
    oracle: (
        DhtState,
        separate_tables::LastSeen,
        separate_tables::NoOpMemo,
    ),
    record: (DhtState, PeerRecord),
}

impl PeerTwin {
    fn new(state: DhtState) -> Self {
        PeerTwin {
            oracle: (state.clone(), Default::default(), Default::default()),
            record: (state, PeerRecord::default()),
        }
    }

    /// Applies `op` to both and asserts the same result and tracked count.
    fn apply(&mut self, op: PeerOp, (c, rtt): (Contact, u64), now: SimTime) -> String {
        let (os, seen, memo) = &mut self.oracle;
        let (ns, rec) = &mut self.record;
        let (old, new) = match op {
            PeerOp::Offer => (
                format!("{:?}", memo.offer(os, c, || rtt)),
                format!("{:?}", rec.offer(ns, c, || rtt)),
            ),
            PeerOp::Refresh => (
                format!("{}", seen.refresh(c.addr, now)),
                format!("{}", rec.refresh(c.addr, now)),
            ),
            PeerOp::Set => {
                seen.set(c.addr, now);
                rec.set(c.addr, now);
                (String::new(), String::new())
            }
            PeerOp::GetOrSet => (
                format!("{:?}", seen.get_or_set(c.addr, now)),
                format!("{:?}", rec.get_or_set(c.addr, now)),
            ),
            PeerOp::Remove => {
                seen.remove(c.addr);
                rec.remove(c.addr);
                (String::new(), String::new())
            }
            PeerOp::RemoveAddr => (
                format!("{}", memo.remove_addr(os, c.addr)),
                format!("{}", rec.remove_addr(ns, c.addr)),
            ),
        };
        assert_eq!(old, new, "{op:?} of {c:?} at {now:?}");
        assert_eq!(seen.len(), rec.len(), "tracked count after {op:?} of {c:?}");
        new
    }

    /// Asserts every address of `addrs` has the same stamp, or is untracked
    /// in both (probed on copies, so nothing starts being tracked).
    fn assert_same_stamps(&self, addrs: impl IntoIterator<Item = NodeIdx>) {
        let untracked = SimTime::from_micros(u64::MAX);
        let (mut seen, mut rec) = (self.oracle.1.clone(), self.record.1.clone());
        for addr in addrs {
            assert_eq!(
                seen.get_or_set(addr, untracked),
                rec.get_or_set(addr, untracked),
                "stamp of {addr}"
            );
            seen.remove(addr);
            rec.remove(addr);
        }
    }

    /// A `LeafExchange` of `members` from `from`: the whole-snapshot pass
    /// on the record, and on the oracle the per-contact loop a node ran
    /// before it (skip the receiver; track a contact that joined the leaf
    /// set). Asserts the same `(offers, skipped)` and tracked count.
    fn gossip(
        &mut self,
        from: NodeIdx,
        members: &Shared<Vec<Contact>>,
        now: SimTime,
        rtt: impl Fn(NodeIdx) -> u64,
    ) -> (u64, u64) {
        let (os, seen, memo) = &mut self.oracle;
        let me = os.addr();
        let (mut offers, mut skipped) = (0, 0);
        for &c in members.iter().filter(|c| c.addr != me) {
            offers += 1;
            match memo.offer(os, c, || rtt(c.addr)) {
                Offer::Skipped => skipped += 1,
                Offer::Changed {
                    joined_leaf_set: true,
                } => seen.set(c.addr, now),
                Offer::Unchanged | Offer::Changed { .. } => {}
            }
        }
        let (ns, rec) = &mut self.record;
        let got = rec.learn_gossip(ns, from, members, now, rtt);
        assert_eq!(got, (offers, skipped), "gossip of {members:?} from {from}");
        assert_eq!(seen.len(), rec.len(), "tracked count after gossip");
        got
    }

    /// Asserts every address of `addrs` is remembered by both or neither.
    fn assert_same_remembered(&self, addrs: impl IntoIterator<Item = NodeIdx>) {
        for addr in addrs {
            assert_eq!(
                self.oracle.2.remembers(addr),
                self.record.1.remembers(addr),
                "memo bit of {addr}"
            );
        }
    }

    fn assert_same_state(&self) {
        assert_eq!(
            format!("{:?}", self.oracle.0),
            format!("{:?}", self.record.0)
        );
    }
}

/// The cases a random walk rarely reaches, spelled out: more than 32
/// tracked peers, addresses at and beyond `u32::MAX`, a remembered peer
/// that stops being tracked (without any state change) and starts again,
/// and the forget-all at [`PeerRecord::CAPACITY`].
#[test]
fn peer_record_matches_the_separate_tables_at_the_edges() {
    let (st, [_, a, _]) = state_closed_but_for_a_tie();
    let mut twin = PeerTwin::new(st);
    // `a` takes the second neighbourhood slot; every slower far contact
    // then bounces off every structure.
    twin.apply(PeerOp::Offer, a, SimTime::ZERO);
    let bounce = |k: usize| (far(2 + k), 1_000);
    let wide = |addr: usize| {
        let c = far(1_000 + (addr & 0xff));
        (Contact { addr, ..c }, 1_000)
    };
    let at = SimTime::from_micros;
    let mut t = 0;
    let mut step = |twin: &mut PeerTwin, op, c| {
        t += 1;
        twin.apply(op, c, at(t))
    };
    // 40 tracked peers: the last 8 spill.
    for k in 1..=40 {
        step(&mut twin, PeerOp::Set, bounce(k));
    }
    for k in 1..=40 {
        assert_eq!(step(&mut twin, PeerOp::Offer, bounce(k)), "Unchanged");
        assert_eq!(step(&mut twin, PeerOp::Offer, bounce(k)), "Skipped");
    }
    // A remembered peer that stops being tracked stays remembered: inline,
    // then spilled. Removing an unknown address changes nothing.
    for k in [3, 38] {
        step(&mut twin, PeerOp::Remove, bounce(k));
        assert_eq!(step(&mut twin, PeerOp::RemoveAddr, bounce(k)), "false");
        assert_eq!(step(&mut twin, PeerOp::Offer, bounce(k)), "Skipped");
        assert_eq!(step(&mut twin, PeerOp::Refresh, bounce(k)), "false");
        // ...and takes its memo bit back when tracked again.
        step(&mut twin, PeerOp::GetOrSet, bounce(k));
        assert_eq!(step(&mut twin, PeerOp::Offer, bounce(k)), "Skipped");
    }
    // A peer remembered before it is ever tracked.
    assert_eq!(step(&mut twin, PeerOp::Offer, bounce(41)), "Unchanged");
    step(&mut twin, PeerOp::Set, bounce(41));
    assert_eq!(step(&mut twin, PeerOp::Offer, bounce(41)), "Skipped");
    // Wide addresses are tracked (in the spill list); only `u32::MAX`
    // itself fits the memo's key.
    let top = u32::MAX as usize;
    for addr in [top - 1, top, top + 1, usize::MAX] {
        step(&mut twin, PeerOp::Set, wide(addr));
        step(&mut twin, PeerOp::Offer, wide(addr));
        let again = step(&mut twin, PeerOp::Offer, wide(addr));
        assert_eq!(again == "Skipped", addr <= top, "{addr}");
        step(&mut twin, PeerOp::Refresh, wide(addr));
    }
    step(&mut twin, PeerOp::Remove, wide(top));
    assert_eq!(step(&mut twin, PeerOp::Offer, wide(top)), "Skipped");
    // Up to capacity, then one more distinct no-op forgets all the others,
    // tracked or not. Re-offering a remembered peer after every new one
    // pins the exact offer at which that happens.
    let mut forgot = 0;
    for k in 42..300 {
        step(&mut twin, PeerOp::Offer, bounce(k));
        forgot += usize::from(step(&mut twin, PeerOp::Offer, bounce(1)) == "Unchanged");
    }
    assert_eq!(forgot, 2);
    // A state change forgets everything too.
    assert_eq!(step(&mut twin, PeerOp::RemoveAddr, a), "true");
    assert_ne!(step(&mut twin, PeerOp::Offer, bounce(2)), "Skipped");
    let pool = (1..300).map(|k| bounce(k).0.addr);
    twin.assert_same_stamps(pool.chain([top - 1, top, top + 1, usize::MAX]));
    twin.assert_same_state();
}

/// The whole-snapshot gossip pass at its edges, against the per-contact
/// oracle loop: a repeated snapshot is held and skipped whole; an equal
/// snapshot in a new allocation, a snapshot with a member too wide for the
/// memo's key, a pass that changes the state or meets the capacity clear,
/// and a sender too wide for the key all take the full path; a single
/// offer that changes the state or a removal drops every held snapshot.
#[test]
fn gossip_pass_matches_the_per_contact_loop_at_the_edges() {
    let (st, [_, a, b]) = state_closed_but_for_a_tie();
    let me = st.contact();
    let mut twin = PeerTwin::new(st);
    twin.apply(PeerOp::Offer, a, SimTime::ZERO);
    // Slower far contacts bounce off every structure; `far(1)` is `a`.
    let bounce = |k: usize| far(2 + k);
    let rtt = |addr: NodeIdx| if addr == a.0.addr { a.1 } else { 1_000 };
    let now = SimTime::from_secs(1);
    let snap = |ks: &[usize]| {
        let mut v: Vec<Contact> = ks.iter().map(|&k| bounce(k)).collect();
        v.push(me);
        Shared::new(v)
    };
    let (s1, s2) = (snap(&[1, 2, 3, 4, 5]), snap(&[4, 5, 6]));
    let holds =
        |twin: &PeerTwin, from, s: &Shared<Vec<Contact>>| twin.record.1.holds_snapshot(from, s);
    // First pass in full, then held: the repeat is five skipped offers.
    assert_eq!(twin.gossip(7, &s1, now, rtt), (5, 0));
    assert!(holds(&twin, 7, &s1));
    assert_eq!(twin.gossip(7, &s1, now, rtt), (5, 5));
    // Held per sender: another sender's first pass of it is not a hit.
    assert!(!holds(&twin, 8, &s1));
    assert_eq!(twin.gossip(8, &s1, now, rtt), (5, 5));
    assert!(holds(&twin, 8, &s1) && holds(&twin, 7, &s1));
    // Equal members in a new allocation: the full path, which replaces it.
    let s1b = Shared::new(s1.to_vec());
    assert!(!holds(&twin, 7, &s1b));
    assert_eq!(twin.gossip(7, &s1b, now, rtt), (5, 5));
    assert!(holds(&twin, 7, &s1b) && !holds(&twin, 7, &s1));
    assert_eq!(twin.gossip(7, &s2, now, rtt), (3, 2));
    assert!(holds(&twin, 7, &s2));
    // A member too wide for the memo's key is never remembered, so neither
    // is its snapshot; nor is any snapshot from a sender that wide.
    let wide = Contact {
        addr: u32::MAX as usize + 1,
        ..bounce(9)
    };
    let s3 = Shared::new(vec![bounce(1), wide]);
    assert_eq!(twin.gossip(9, &s3, now, rtt), (2, 1));
    assert_eq!(twin.gossip(9, &s3, now, rtt), (2, 1));
    assert!(!holds(&twin, 9, &s3));
    let too_wide = u32::MAX as usize + 1;
    assert_eq!(twin.gossip(too_wide, &s1, now, rtt), (5, 5));
    assert!(!holds(&twin, too_wide, &s1));
    // A single offer that changes the state drops every held snapshot; so
    // does a removal.
    twin.apply(PeerOp::Offer, b, now);
    assert!(!holds(&twin, 7, &s2) && !holds(&twin, 8, &s1));
    assert_eq!(twin.gossip(8, &s1, now, rtt), (5, 0));
    assert!(holds(&twin, 8, &s1));
    assert_eq!(twin.apply(PeerOp::RemoveAddr, b, now), "true");
    assert!(!holds(&twin, 8, &s1));
    // A pass that changes the state is not held: `a` takes `b`'s freed
    // slot. The next pass changes nothing and is held.
    let s4 = Shared::new(vec![a.0, bounce(1)]);
    assert_eq!(twin.gossip(7, &s4, now, rtt), (2, 0));
    assert!(!holds(&twin, 7, &s4));
    assert_eq!(twin.gossip(7, &s4, now, rtt), (2, 1));
    assert!(holds(&twin, 7, &s4));
    assert_eq!(twin.gossip(7, &s4, now, rtt), (2, 2));
    // Nor is a pass that meets the capacity clear.
    let many = Shared::new(
        (10..10 + PeerRecord::CAPACITY)
            .map(bounce)
            .collect::<Vec<_>>(),
    );
    let (offers, skipped) = twin.gossip(7, &many, now, rtt);
    assert_eq!(offers, PeerRecord::CAPACITY as u64);
    assert!(skipped < offers);
    assert!(!holds(&twin, 7, &many) && !holds(&twin, 7, &s4));
    let pool = (1..10 + PeerRecord::CAPACITY).map(|k| bounce(k).addr);
    twin.assert_same_remembered(pool.clone().chain([a.0.addr, b.0.addr, wide.addr]));
    twin.assert_same_stamps(pool.chain([a.0.addr, b.0.addr, wide.addr]));
    twin.assert_same_state();
}

proptest! {
    /// `add_contact` and `remove_addr` return `false` exactly when the
    /// listings of all four structures are unchanged.
    #[test]
    fn mutators_report_exactly_the_changes(
        me in any::<u128>(),
        shape in (any::<bool>(), 1usize..13, 1usize..17),
        raw in prop::collection::vec((any::<u128>(), 0u8..4, 0u64..3), 2..16),
        steps in prop::collection::vec((0usize..64, 0u8..6), 1..160),
    ) {
        let me = Id::new(me);
        let pool = contact_pool(me, &raw);
        let mut st = DhtState::new(me, 0, shaped_config(shape));
        for (i, op) in steps {
            let (c, rtt) = pool[i % pool.len()];
            let before = listing(&st);
            let changed = if op == 0 {
                st.remove_addr(c.addr)
            } else {
                st.add_contact(c, Some(rtt))
            };
            prop_assert_eq!(changed, listing(&st) != before);
        }
    }

    /// A state driven through the memo ("skip if remembered, forget on any
    /// change") equals, after every step, one that is always offered.
    #[test]
    fn memoized_state_tracks_the_always_offered_state(
        me in any::<u128>(),
        shape in (any::<bool>(), 1usize..13, 1usize..17),
        raw in prop::collection::vec((any::<u128>(), 0u8..4, 0u64..3), 2..16),
        steps in prop::collection::vec((0usize..64, 0u8..6), 1..160),
    ) {
        let me = Id::new(me);
        let pool = contact_pool(me, &raw);
        let mut always = DhtState::new(me, 0, shaped_config(shape));
        let mut memoized = always.clone();
        let mut memo = PeerRecord::default();
        for (i, op) in steps {
            let (c, rtt) = pool[i % pool.len()];
            if op == 0 {
                prop_assert_eq!(
                    memo.remove_addr(&mut memoized, c.addr),
                    always.remove_addr(c.addr)
                );
            } else {
                let was_leaf = always.leaf_set.members().any(|m| m == c);
                let changed = always.add_contact(c, Some(rtt));
                let joined = !was_leaf && always.leaf_set.members().any(|m| m == c);
                match memo.offer(&mut memoized, c, || rtt) {
                    Offer::Skipped | Offer::Unchanged => prop_assert!(!changed),
                    Offer::Changed { joined_leaf_set } => {
                        prop_assert!(changed);
                        prop_assert_eq!(joined_leaf_set, joined);
                    }
                }
            }
            prop_assert_eq!(listing(&memoized), listing(&always));
        }
        prop_assert_eq!(format!("{memoized:?}"), format!("{always:?}"));
    }

    /// Random `offer`/`refresh`/`set`/`get_or_set`/`remove`/`remove_addr`
    /// sequences give the same results, stamps and tracked count through a
    /// [`PeerRecord`] as through the separate tables it replaced: up to 200
    /// peers (so more than 32 tracked and the memo's forget-all are
    /// reachable) plus addresses at and beyond `u32::MAX`.
    #[test]
    fn peer_record_matches_the_separate_tables(
        me in any::<u128>(),
        shape in (any::<bool>(), 1usize..13, 1usize..17),
        raw in prop::collection::vec((any::<u128>(), 0u8..4, 0u64..3), 2..200),
        wide in 0usize..5,
        steps in prop::collection::vec((0usize..1024, 0u8..10), 1..600),
    ) {
        let me = Id::new(me);
        let mut pool = contact_pool(me, &raw);
        let top = u32::MAX as usize;
        for (k, addr) in [top - 1, top, top + 1, usize::MAX].into_iter().take(wide).enumerate() {
            let (c, rtt) = pool[k % pool.len()];
            pool.push((Contact { id: Id::new(c.id.raw() ^ 1), addr }, rtt));
        }
        let mut twin = PeerTwin::new(DhtState::new(me, 0, shaped_config(shape)));
        for (t, &(i, op)) in steps.iter().enumerate() {
            let op = match op {
                0..=3 => PeerOp::Offer,
                4 => PeerOp::Refresh,
                5 | 6 => PeerOp::Set,
                7 => PeerOp::GetOrSet,
                8 => PeerOp::Remove,
                _ => PeerOp::RemoveAddr,
            };
            twin.apply(op, pool[i % pool.len()], SimTime::from_micros(t as u64));
            if t % 64 == 63 {
                twin.assert_same_stamps(pool.iter().map(|(c, _)| c.addr));
            }
        }
        twin.assert_same_stamps(pool.iter().map(|(c, _)| c.addr));
        twin.assert_same_state();
    }

    /// Random interleavings of leaf-set gossips (repeated snapshots, new
    /// ones, one sender's snapshot sent by another, five senders, one of
    /// them too wide for the memo's key) with single offers, removals and
    /// liveness operations leave a [`PeerRecord`] driven through
    /// [`PeerRecord::learn_gossip`] equal, after every operation, to the
    /// separate tables driven through the per-contact loop: the same state,
    /// the same offer counts, and the same tracked and remembered sets.
    /// Snapshots hold up to 40 of up to 200 peers, the receiver and
    /// addresses at and beyond `u32::MAX`, so the 128-address clear is met
    /// inside a pass as well as between them.
    #[test]
    fn gossip_pass_matches_the_per_contact_loop(
        me in any::<u128>(),
        shape in (any::<bool>(), 1usize..13, 1usize..17),
        raw in prop::collection::vec((any::<u128>(), 0u8..4, 0u64..3), 2..200),
        wide in 0usize..5,
        steps in prop::collection::vec((0u8..12, 0usize..5, 0usize..1024, 0usize..40), 1..200),
    ) {
        let me = Id::new(me);
        let mut pool = contact_pool(me, &raw);
        let top = u32::MAX as usize;
        for (k, addr) in [top - 1, top, top + 1, usize::MAX].into_iter().take(wide).enumerate() {
            let (c, rtt) = pool[k % pool.len()];
            pool.push((Contact { id: Id::new(c.id.raw() ^ 1), addr }, rtt));
        }
        let rtt_of = |addr: NodeIdx| pool.iter().find(|(c, _)| c.addr == addr).map_or(0, |p| p.1);
        let mut twin = PeerTwin::new(DhtState::new(me, 0, shaped_config(shape)));
        let me = twin.record.0.contact();
        let senders = [pool[0].0.addr, pool[1].0.addr, 7_000, 7_001, top + 1];
        let mut snapshots: Vec<Shared<Vec<Contact>>> = vec![Shared::new(Vec::new()); senders.len()];
        for (t, &(op, s, i, len)) in steps.iter().enumerate() {
            let now = SimTime::from_micros(t as u64);
            let pick = pool[i % pool.len()];
            match op {
                // A new snapshot: `len` consecutive pool members, the
                // receiver among them every third time.
                0 | 1 => {
                    let mut members: Vec<Contact> =
                        (0..len).map(|j| pool[(i + j) % pool.len()].0).collect();
                    if i % 3 == 0 {
                        members.insert(i % (len + 1), me);
                    }
                    snapshots[s] = Shared::new(members);
                }
                // The sender's last snapshot again, or the next sender's.
                2..=5 => {}
                6 => {
                    let next = snapshots[(s + 1) % senders.len()].clone();
                    twin.gossip(senders[s], &next, now, rtt_of);
                }
                7 => { twin.apply(PeerOp::Offer, pick, now); }
                8 => { twin.apply(PeerOp::RemoveAddr, pick, now); }
                9 => { twin.apply(PeerOp::Remove, pick, now); }
                10 => { twin.apply(PeerOp::Set, pick, now); }
                _ => { twin.apply(PeerOp::GetOrSet, pick, now); }
            }
            if op <= 5 {
                twin.gossip(senders[s], &snapshots[s].clone(), now, rtt_of);
            }
            let addrs = pool.iter().map(|(c, _)| c.addr);
            twin.assert_same_remembered(addrs.clone());
            twin.assert_same_stamps(addrs);
            twin.assert_same_state();
        }
    }

    /// Digits decompose and recompose ids for every base.
    #[test]
    fn digits_round_trip(raw in any::<u128>(), b in 1u32..=8) {
        let id = Id::new(raw);
        let mut rebuilt = Id::ZERO;
        for i in 0..Id::num_digits(b) {
            rebuilt = rebuilt.with_digit(i, b, id.digit(i, b));
        }
        prop_assert_eq!(rebuilt, id);
    }

    /// Ring distance is symmetric, bounded by half the ring, and zero only
    /// on equality.
    #[test]
    fn ring_distance_laws(a in any::<u128>(), b in any::<u128>()) {
        let (x, y) = (Id::new(a), Id::new(b));
        prop_assert_eq!(x.ring_distance(y), y.ring_distance(x));
        prop_assert!(x.ring_distance(y) <= u128::MAX / 2 + 1);
        prop_assert_eq!(x.ring_distance(y) == 0, a == b);
    }

    /// Shared prefix length is symmetric and consistent with digit equality.
    #[test]
    fn shared_prefix_laws(a in any::<u128>(), b in any::<u128>(), base in 1u32..=8) {
        let (x, y) = (Id::new(a), Id::new(b));
        let p = x.shared_prefix_digits(y, base);
        prop_assert_eq!(p, y.shared_prefix_digits(x, base));
        for i in 0..p.min(Id::num_digits(base)) {
            prop_assert_eq!(x.digit(i, base), y.digit(i, base));
        }
        if p < Id::num_digits(base) && a != b {
            prop_assert_ne!(x.digit(p, base), y.digit(p, base));
        }
    }

    /// Zone compose/decompose round-trips for any zone width.
    #[test]
    fn zone_compose_round_trip(zone in any::<u64>(), suffix in any::<u128>(), bits in 1u32..=32) {
        let zone = zone & ((1u64 << bits.min(63)) - 1);
        let id = Id::compose(zone, bits, suffix);
        prop_assert_eq!(id.zone(bits), zone);
        prop_assert_eq!(id.suffix(bits), suffix & (u128::MAX >> bits));
    }

    /// `closest_on_ring` agrees with a brute-force scan.
    #[test]
    fn closest_matches_brute_force(
        mut raws in prop::collection::btree_set(any::<u128>(), 1..40),
        key in any::<u128>(),
    ) {
        let ids: Vec<Id> = raws.iter().copied().map(Id::new).collect();
        let key = Id::new(key);
        let got = ids[closest_on_ring(&ids, key)];
        let best = ids
            .iter()
            .copied()
            .min_by_key(|c| (c.ring_distance(key), *c))
            .unwrap();
        prop_assert_eq!(got, best);
        let _ = &mut raws;
    }

    /// Leaf sets never exceed capacity and always retain the true nearest
    /// clockwise/counterclockwise neighbors among those offered.
    #[test]
    fn leaf_set_retains_nearest(
        me in any::<u128>(),
        others in prop::collection::btree_set(any::<u128>(), 1..30),
        capacity in 2usize..12,
    ) {
        let me = Id::new(me);
        let mut ls = LeafSet::new(me, capacity);
        let mut offered = Vec::new();
        for (i, &o) in others.iter().enumerate() {
            if o == me.raw() {
                continue;
            }
            let c = Contact { id: Id::new(o), addr: i };
            ls.consider(c);
            offered.push(c);
        }
        prop_assert!(ls.len() <= capacity.max(2));
        if !offered.is_empty() {
            // The nearest clockwise neighbor among offered must be present.
            let nearest_cw = offered
                .iter()
                .min_by_key(|c| me.clockwise_distance(c.id))
                .unwrap();
            let nearest_ccw = offered
                .iter()
                .min_by_key(|c| c.id.clockwise_distance(me))
                .unwrap();
            let members: Vec<Id> = ls.members().map(|c| c.id).collect();
            prop_assert!(
                members.contains(&nearest_cw.id) || members.contains(&nearest_ccw.id),
                "both ring-adjacent neighbors evicted"
            );
        }
    }

    /// A routing-table entry always shares at least its row's prefix length
    /// with the owner and never stores the owner itself.
    #[test]
    fn routing_table_respects_prefix_structure(
        me in any::<u128>(),
        others in prop::collection::btree_set(any::<u128>(), 1..50),
        b in 2u32..=5,
    ) {
        let me = Id::new(me);
        let mut t = RoutingTable::new(me, b);
        for (i, &o) in others.iter().enumerate() {
            t.consider(Contact { id: Id::new(o), addr: i });
        }
        for c in t.contacts() {
            prop_assert_ne!(c.id, me);
        }
        // entry_for returns a contact matching strictly more digits of the
        // key than the owner does, whenever it returns one.
        for &o in others.iter().take(5) {
            let key = Id::new(o);
            if let Some(c) = t.entry_for(key) {
                let mine = me.shared_prefix_digits(key, b);
                let theirs = c.id.shared_prefix_digits(key, b);
                prop_assert!(theirs > mine || c.id == key);
            }
        }
    }

    /// Greedy routing over a fully-informed random ring always terminates
    /// at the globally closest node, within the log-ish hop budget.
    #[test]
    fn routing_terminates_at_closest(
        raws in prop::collection::btree_set(any::<u128>(), 2..48),
        key in any::<u128>(),
    ) {
        let ids: Vec<Id> = raws.iter().copied().map(Id::new).collect();
        let key = Id::new(key);
        let config = DhtConfig::default();
        let mut states: Vec<DhtState> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| DhtState::new(id, i, config))
            .collect();
        for (i, st) in states.iter_mut().enumerate() {
            for (j, &id) in ids.iter().enumerate() {
                if i != j {
                    st.add_contact(Contact { id, addr: j }, None);
                }
            }
        }
        let mut cur = 0usize;
        let mut hops = 0;
        loop {
            match totoro_dht::next_hop(&states[cur], key) {
                NextHop::Deliver => break,
                NextHop::Forward(c) => cur = c.addr,
            }
            hops += 1;
            prop_assert!(hops <= ids.len() as u32 + 34, "did not terminate");
        }
        prop_assert_eq!(ids[cur], ids[closest_on_ring(&ids, key)]);
    }

    /// SHA-1-derived app ids spread across the ring: two different salts
    /// never collide (for practical purposes).
    #[test]
    fn app_ids_do_not_collide(name in "[a-z]{1,12}", s1 in any::<u64>(), s2 in any::<u64>()) {
        prop_assume!(s1 != s2);
        prop_assert_ne!(
            totoro_dht::app_id(&name, "k", s1),
            totoro_dht::app_id(&name, "k", s2)
        );
    }
}
