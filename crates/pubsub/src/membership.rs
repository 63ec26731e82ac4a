//! Per-topic tree membership and per-round aggregation state.

use totoro_bandit::LinkStats;
use totoro_dht::{Contact, Id};
use totoro_simnet::{NodeIdx, SimTime};

use crate::forest::SortedColumn;

/// What [`Membership::memory_bytes`] charges for the membership record
/// itself, before its children and rounds. A constant, not
/// `size_of::<Membership>()`, so that what a simulated device is charged
/// for does not follow the host layout: 192 B is that `size_of` while the
/// rounds were a hash map.
const MEMBERSHIP_RECORD_BYTES: usize = 192;

/// Aggregation state of one round at one node.
#[derive(Clone, Debug)]
pub struct RoundAgg<D> {
    /// Running combination of received contributions.
    pub acc: Option<D>,
    /// Leaf contributions folded into `acc`.
    pub count: u64,
    /// Direct inputs received (children + possibly self).
    pub inputs: usize,
    /// Direct inputs expected before flushing without a timeout.
    pub expected: usize,
    /// Whether the partial result was already pushed up / delivered.
    pub flushed: bool,
    /// Whether a straggler-cutoff timer was armed for this round.
    pub timer_armed: bool,
}

impl<D> Default for RoundAgg<D> {
    fn default() -> Self {
        RoundAgg {
            acc: None,
            count: 0,
            inputs: 0,
            expected: 0,
            flushed: false,
            timer_armed: false,
        }
    }
}

/// One tree-repair episode observed at a node (Figure 12's unit of
/// measurement): when the parent loss was detected, and when the node was
/// re-attached.
#[derive(Clone, Copy, Debug)]
pub struct RepairEvent {
    /// Tree topic.
    pub topic: Id,
    /// When the broken parent was detected.
    pub detected: SimTime,
    /// When a new JoinAck re-attached this node (None while in progress).
    pub reattached: Option<SimTime>,
}

/// A node's membership in one topic's dataflow tree.
///
/// Laid out for the parent heartbeat, the forest's most frequent message:
/// everything it reads or writes (`parent`, `last_parent_seen`, `depth`
/// and the role flags) is in the first of the three cache lines a
/// membership fills, and the 64-byte alignment keeps that line whole.
#[derive(Clone, Debug)]
#[repr(C, align(64))]
pub struct Membership<D> {
    /// Current parent, `None` at the root or while detached.
    pub parent: Option<Contact>,
    /// Last time the parent gave a sign of life.
    pub last_parent_seen: SimTime,
    /// Depth in the tree (root = 0, unknown = `u16::MAX`).
    pub depth: u16,
    /// Whether this node subscribed (participates as a worker) as opposed
    /// to being a pure forwarder recruited by join-path interception.
    pub subscriber: bool,
    /// Whether this node is the rendezvous root (the application master).
    pub is_root: bool,
    /// Whether a JOIN is in flight.
    pub joining: bool,
    /// Children table: one entry per adopted child (§4.3 step 1c).
    pub children: Vec<Contact>,
    /// When the in-flight JOIN was sent (for retry).
    pub join_sent: SimTime,
    /// Tree topic (= AppId).
    pub topic: Id,
    /// Per-round aggregation state, by round number.
    pub rounds: SortedColumn<u64, RoundAgg<D>>,
    /// Round of the most recent broadcast seen.
    pub last_broadcast_round: Option<u64>,
    /// Bandit statistics of the link to the current parent: one attempt
    /// per maintenance tick, success when the parent was heard from within
    /// that tick (§5's semi-bandit feedback applied to tree links).
    pub parent_link: LinkStats,
}

impl<D> Membership<D> {
    /// Fresh, detached membership.
    pub fn new(topic: Id, now: SimTime) -> Self {
        Membership {
            topic,
            parent: None,
            children: Vec::new(),
            subscriber: false,
            is_root: false,
            depth: u16::MAX,
            last_parent_seen: now,
            joining: false,
            join_sent: now,
            rounds: SortedColumn::default(),
            last_broadcast_round: None,
            parent_link: LinkStats::default(),
        }
    }

    /// Whether this node is attached to the tree in any role.
    pub fn attached(&self) -> bool {
        self.is_root || self.parent.is_some()
    }

    /// Adds a child if absent. Returns `true` if the table changed.
    pub fn add_child(&mut self, c: Contact) -> bool {
        if self.children.iter().any(|x| x.addr == c.addr) {
            false
        } else {
            self.children.push(c);
            true
        }
    }

    /// Removes a child by address. Returns `true` if present.
    pub fn remove_child(&mut self, addr: NodeIdx) -> bool {
        let before = self.children.len();
        self.children.retain(|c| c.addr != addr);
        before != self.children.len()
    }

    /// Drops aggregation state older than `keep_from` (bounds memory over
    /// long trainings).
    pub fn prune_rounds(&mut self, keep_from: u64) {
        self.rounds.remove_below(keep_from);
    }

    /// Approximate memory footprint (Figure 13b).
    pub fn memory_bytes(&self) -> usize {
        MEMBERSHIP_RECORD_BYTES
            + self.children.len() * std::mem::size_of::<Contact>()
            + self.rounds.len() * std::mem::size_of::<(u64, RoundAgg<D>)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(addr: NodeIdx) -> Contact {
        Contact {
            id: Id::new(addr as u128),
            addr,
        }
    }

    #[test]
    fn children_table_dedupes() {
        let mut m: Membership<u32> = Membership::new(Id::ZERO, SimTime::ZERO);
        assert!(m.add_child(c(1)));
        assert!(!m.add_child(c(1)));
        assert!(m.add_child(c(2)));
        assert_eq!(m.children.len(), 2);
        assert!(m.remove_child(1));
        assert!(!m.remove_child(1));
    }

    #[test]
    fn attachment_states() {
        let mut m: Membership<u32> = Membership::new(Id::ZERO, SimTime::ZERO);
        assert!(!m.attached());
        m.is_root = true;
        assert!(m.attached());
        m.is_root = false;
        m.parent = Some(c(3));
        assert!(m.attached());
    }

    #[test]
    fn round_pruning() {
        let mut m: Membership<u32> = Membership::new(Id::ZERO, SimTime::ZERO);
        for r in 0..10 {
            m.rounds.get_or_insert_with(r, RoundAgg::default);
        }
        m.prune_rounds(7);
        assert_eq!(m.rounds.keys(), [7, 8, 9]);
    }
}
