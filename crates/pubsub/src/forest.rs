//! The publish/subscribe forest: Scribe-style per-application dataflow
//! trees over the DHT (§4.3).
//!
//! Each FL application owns a *topic* (its AppId). Subscribing routes a
//! JOIN toward the topic key; the union of all JOIN paths forms the
//! application's dataflow tree, rooted at the rendezvous node (the node
//! whose id is numerically closest to the AppId) — which is thereby
//! promoted to that application's *master*. Interior nodes act as
//! forwarders/aggregators, leaves as workers. Model broadcast travels down
//! the tree; gradient aggregation climbs it with in-network combining.

use totoro_dht::{Contact, DhtApi, Id, UpperLayer};
use totoro_simnet::{ComputeKind, NodeIdx, Shared, SimDuration, SimTime};

use crate::membership::{Membership, RepairEvent, RoundAgg};
use crate::msg::{TreeData, TreeMsg};

/// Forest protocol parameters.
#[derive(Clone, Copy, Debug)]
pub struct ForestConfig {
    /// Maximum children per node; joins beyond the cap are pushed down to
    /// an existing child. `0` = uncapped (fanout then bounded naturally by
    /// the routing base `2^b`).
    pub fanout_cap: usize,
    /// Forest maintenance tick (parent heartbeats, repair checks).
    pub tick: SimDuration,
    /// Straggler cutoff: an interior node flushes a partial aggregate this
    /// long after the round's broadcast even if children are missing.
    pub agg_timeout: SimDuration,
    /// Whether JOINs and tree traffic are restricted to the origin zone
    /// (administrative isolation, §4.2).
    pub zone_restricted: bool,
    /// Bandit-based path replanning (§5, §6): when the KL-UCB-optimistic
    /// estimate of the parent link's per-tick delivery cost exceeds this
    /// threshold (in ticks), proactively re-JOIN through an alternative
    /// route even though the parent is not yet declared dead. `None`
    /// disables replanning (repair then relies on hard timeouts alone).
    pub replan_cost_threshold: Option<f64>,
    /// Depth ceiling used to detect parent cycles. A repair JOIN can be
    /// intercepted and adopted by a node inside the joiner's own subtree,
    /// closing a heartbeat-sustained loop that is invisible locally — but
    /// every member of such a loop sees its depth grow by one per tick as
    /// `parent depth + 1` chases itself around the cycle. A node whose
    /// depth reaches this bound (while still below the `u16::MAX`
    /// "unknown" sentinel) therefore concludes it is trapped, leaves its
    /// parent, and re-joins through the rendezvous. `0` disables the
    /// check. Legitimate trees stay orders of magnitude shallower, so the
    /// default never fires outside an actual cycle.
    pub max_depth: u16,
}

/// A parent silent for this many forest ticks triggers tree repair (§4.5).
const PARENT_TIMEOUT_TICKS: u64 = 3;
/// An unanswered JOIN is retried after this many forest ticks.
const JOIN_RETRY_TICKS: u64 = 2;

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            fanout_cap: 0,
            tick: SimDuration::from_secs(1),
            agg_timeout: SimDuration::from_secs(60),
            zone_restricted: false,
            replan_cost_threshold: Some(2.0),
            max_depth: 64,
        }
    }
}

/// A recorded model-dissemination receipt (for Figure 6a measurements).
#[derive(Clone, Copy, Debug)]
pub struct BroadcastEvent {
    /// Tree topic.
    pub topic: Id,
    /// Round number.
    pub round: u64,
    /// When the broadcast arrived at this node.
    pub at: SimTime,
    /// This node's depth at receipt time.
    pub depth: u16,
}

/// A recorded root-side aggregation completion (Figure 6b).
#[derive(Clone, Copy, Debug)]
pub struct AggEvent {
    /// Tree topic.
    pub topic: Id,
    /// Round number.
    pub round: u64,
    /// When the root finished combining this round.
    pub at: SimTime,
    /// Leaf contributions aggregated.
    pub count: u64,
}

/// Forest protocol counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ForestStats {
    /// JOIN messages originated (including retries and repairs).
    pub joins_sent: u64,
    /// Children adopted.
    pub children_adopted: u64,
    /// JOINs pushed down due to the fanout cap.
    pub pushdowns: u64,
    /// Broadcast messages forwarded to children.
    pub broadcasts_forwarded: u64,
    /// Aggregates sent to a parent.
    pub aggregates_sent: u64,
    /// Contributions arriving after the round was flushed.
    pub late_contributions: u64,
    /// Rounds flushed by the straggler timeout rather than completion.
    pub timeout_flushes: u64,
    /// Proactive bandit-driven path replans (flaky parent avoided before a
    /// hard failure was declared).
    pub replans: u64,
    /// Parent cycles broken by the depth-ceiling detector (a node saw its
    /// depth inflate past [`ForestConfig::max_depth`] and re-joined).
    pub cycle_breaks: u64,
}

/// What [`ForestState::memory_bytes`] charges for the forest's own record,
/// before its trees and timers. A constant, not `size_of::<ForestState>()`,
/// so that what a simulated device is charged for does not follow the host
/// layout: 248 B is what that `size_of` (less the uncounted key column's
/// header) came to while the round timers were a hash map.
const FOREST_RECORD_BYTES: usize = 248;

/// Values in ascending key order: a sorted key column beside a contiguous
/// value column. Finding a key reads the key column, then exactly one
/// value, with no tree nodes, hashing or per-value allocations on the way;
/// iteration is ascending by key, as a `BTreeMap`'s is. The forest keeps
/// its trees by topic in one, each tree its rounds by round number, and
/// the round timers by token.
#[derive(Clone, Debug)]
pub struct SortedColumn<K, V> {
    /// Ascending; `keys[i]` is the key of `values[i]`.
    keys: Vec<K>,
    values: Vec<V>,
}

impl<K: Copy + Ord, V> SortedColumn<K, V> {
    /// The value under `key`.
    pub fn get(&self, key: K) -> Option<&V> {
        let i = self.keys.binary_search(&key).ok()?;
        Some(&self.values[i])
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let i = self.keys.binary_search(&key).ok()?;
        Some(&mut self.values[i])
    }

    /// The value under `key`, inserting `new()` first if there is none.
    pub fn get_or_insert_with(&mut self, key: K, new: impl FnOnce() -> V) -> &mut V {
        let i = match self.keys.binary_search(&key) {
            Ok(i) => i,
            Err(i) => {
                self.insert_at(i, key, new());
                i
            }
        };
        &mut self.values[i]
    }

    fn insert_at(&mut self, i: usize, key: K, value: V) {
        // Grow by one, not by doubling: a node joins few topics, rarely,
        // and a `Membership` is 192 bytes; rounds and timers stay few and
        // reuse the capacity they reached.
        self.keys.reserve_exact(1);
        self.values.reserve_exact(1);
        self.keys.insert(i, key);
        self.values.insert(i, value);
    }

    /// Removes and returns the value under `key`.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let i = self.keys.binary_search(&key).ok()?;
        self.keys.remove(i);
        Some(self.values.remove(i))
    }

    /// Drops every entry whose key is below `keep_from`: a prefix, since
    /// the column is sorted.
    pub fn remove_below(&mut self, keep_from: K) {
        let n = self.keys.partition_point(|&k| k < keep_from);
        self.keys.drain(..n);
        self.values.drain(..n);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The keys, ascending.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The values, in key order.
    pub fn values(&self) -> std::slice::Iter<'_, V> {
        self.values.iter()
    }

    /// `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.keys.iter().copied().zip(self.values.iter())
    }

    /// `(key, value)` pairs in ascending key order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.keys.iter().copied().zip(self.values.iter_mut())
    }
}

impl<K, V> Default for SortedColumn<K, V> {
    fn default() -> Self {
        SortedColumn {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }
}

/// Mutable forest-wide state of one node.
#[derive(Debug)]
pub struct ForestState<D> {
    // Ordered by topic, not hashed: per-tick maintenance iterates topics,
    // and the resulting message order must not depend on the process's
    // hash seed (bit-identical reruns are part of the bench contract).
    trees: SortedColumn<Id, Membership<D>>,
    /// Armed straggler cutoffs: `(topic, round)` by timer token. Tokens
    /// only increase, so arming appends.
    round_timers: SortedColumn<u64, (Id, u64)>,
    next_round_token: u64,
    pending_flush: Vec<(Id, u64)>,
    /// Broadcast receipts.
    pub broadcast_log: Vec<BroadcastEvent>,
    /// Root aggregation completions.
    pub agg_log: Vec<AggEvent>,
    /// Tree-repair episodes (Figure 12).
    pub repair_events: Vec<RepairEvent>,
    /// Counters.
    pub stats: ForestStats,
}

impl<D> ForestState<D> {
    fn new() -> Self {
        ForestState {
            trees: SortedColumn::default(),
            round_timers: SortedColumn::default(),
            next_round_token: 1,
            pending_flush: Vec::new(),
            broadcast_log: Vec::new(),
            agg_log: Vec::new(),
            repair_events: Vec::new(),
            stats: ForestStats::default(),
        }
    }

    /// Membership in `topic`'s tree, if any.
    pub fn membership(&self, topic: Id) -> Option<&Membership<D>> {
        self.trees.get(topic)
    }

    /// Iterates over all tree memberships.
    pub fn memberships(&self) -> impl Iterator<Item = &Membership<D>> {
        self.trees.values()
    }

    fn tree_mut(&mut self, topic: Id, now: SimTime) -> &mut Membership<D> {
        self.trees
            .get_or_insert_with(topic, || Membership::new(topic, now))
    }

    /// Approximate memory footprint (Figure 13b). The topic key column
    /// repeats each `Membership::topic`: it is a derived index, so its
    /// entries are not counted.
    pub fn memory_bytes(&self) -> usize {
        FOREST_RECORD_BYTES
            + self
                .trees
                .values()
                .map(Membership::memory_bytes)
                .sum::<usize>()
            + self.round_timers.len() * 24
    }
}

/// This node's contact card, derived from the live DHT state.
fn me_contact<D: TreeData>(dht: &DhtApi<'_, '_, TreeMsg<D>>) -> Contact {
    Contact {
        id: dht.id(),
        addr: dht.addr(),
    }
}

/// The interface the forest exposes to the application layer (the FL
/// engine) during callbacks.
pub struct ForestApi<'a, 'b, 'c, D: TreeData> {
    /// Forest state (trees, logs, counters).
    pub forest: &'a mut ForestState<D>,
    /// The underlying DHT API.
    pub dht: &'a mut DhtApi<'b, 'c, TreeMsg<D>>,
    config: &'a ForestConfig,
}

impl<D: TreeData> ForestApi<'_, '_, '_, D> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.dht.now()
    }

    /// This node's address.
    pub fn addr(&self) -> NodeIdx {
        self.dht.addr()
    }

    /// This node's ring id.
    pub fn id(&self) -> Id {
        self.dht.id()
    }

    /// The shared network topology (read-only).
    pub fn topology(&self) -> &totoro_simnet::Topology {
        self.dht.topology()
    }

    /// The node's deterministic random stream.
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.dht.rng()
    }

    /// Arms an application timer (`token` surfaces in
    /// [`ForestApp::on_timer`]).
    pub fn set_app_timer(&mut self, delay: SimDuration, token: u64) {
        self.dht.set_timer(delay, token * 2 + 1);
    }

    /// Charges simulated compute time.
    pub fn charge_compute(&mut self, kind: ComputeKind, amount: SimDuration) {
        self.dht.charge_compute(kind, amount);
    }

    /// Subscribes this node to `topic`'s tree (§4.3 `Subscribe(app_id)`):
    /// routes a JOIN toward the topic key unless already attached.
    pub fn subscribe(&mut self, topic: Id) {
        let now = self.now();
        let me = me_contact(self.dht);
        let m = self.forest.tree_mut(topic, now);
        m.subscriber = true;
        if m.attached() || m.joining {
            return;
        }
        m.joining = true;
        m.join_sent = now;
        self.forest.stats.joins_sent += 1;
        self.dht.route(
            topic,
            TreeMsg::Join { topic, child: me },
            self.config.zone_restricted,
        );
    }

    /// Creates `topic`'s tree explicitly (§4.3 `CreateTree(app_id)`): the
    /// creator subscribes, which routes the first JOIN and promotes the
    /// rendezvous node to the application's master.
    pub fn create_tree(&mut self, topic: Id) {
        self.subscribe(topic);
    }

    /// Unsubscribes from `topic`: informs the parent and detaches (children
    /// are kept; the node remains a forwarder while children exist).
    pub fn unsubscribe(&mut self, topic: Id) {
        let me_addr = self.dht.addr();
        let now = self.now();
        let m = self.forest.tree_mut(topic, now);
        m.subscriber = false;
        if m.children.is_empty() && !m.is_root {
            if let Some(p) = m.parent.take() {
                self.dht.send_direct(
                    p.addr,
                    TreeMsg::Leave {
                        topic,
                        child: me_addr,
                    },
                );
            }
        }
    }

    /// Disseminates `data` to the whole tree (§4.3 `Broadcast`); call at
    /// the application master (root). The round number sequences the
    /// matching aggregation wave. `data` is a payload or a [`Shared`]
    /// handle to one; every child receives a handle to the same payload.
    pub fn broadcast(&mut self, topic: Id, round: u64, data: impl Into<Shared<D>>) {
        self.broadcast_expecting_local(topic, round, data, false);
    }

    /// Like [`ForestApi::broadcast`], but when `expect_local` is set the
    /// round additionally waits for one local contribution from this node
    /// (a master that also acts as a worker, submitting its own update via
    /// [`ForestApi::contribute`]).
    pub fn broadcast_expecting_local(
        &mut self,
        topic: Id,
        round: u64,
        data: impl Into<Shared<D>>,
        expect_local: bool,
    ) {
        let now = self.now();
        let agg_timeout = self.config.agg_timeout;
        // Wrapped at most once (a caller may already hold the handle); every
        // child gets a reference-count bump of the same payload.
        // `self.forest` and `self.dht` are disjoint fields, so the
        // membership borrow can span the sends without cloning `children`.
        let data = data.into();
        let m = self.forest.tree_mut(topic, now);
        m.last_broadcast_round = Some(round);
        m.prune_rounds(round.saturating_sub(8));
        let depth = if m.is_root { 0 } else { m.depth };
        let n_children = m.children.len();
        let ra = m.rounds.get_or_insert_with(round, RoundAgg::default);
        ra.expected = n_children + usize::from(expect_local);
        self.forest.broadcast_log.push(BroadcastEvent {
            topic,
            round,
            at: now,
            depth,
        });
        let m = self.forest.membership(topic).expect("tree exists");
        self.dht.send_direct_all(
            m.children.iter().map(|c| c.addr),
            TreeMsg::Broadcast {
                topic,
                round,
                depth,
                data,
            },
        );
        self.forest.stats.broadcasts_forwarded += n_children as u64;
        self.arm_round_timer(topic, round, agg_timeout);
    }

    /// Contributes a local update into `topic`'s round `round`, after a
    /// simulated local compute time of `delay` (e.g. training). The
    /// contribution loops through the local network stack so the delay is
    /// honored by the event clock.
    pub fn contribute(&mut self, topic: Id, round: u64, data: D, delay: SimDuration) {
        let me = self.dht.addr();
        self.dht.send_direct_after(
            me,
            TreeMsg::AggregateUp {
                topic,
                round,
                count: 1,
                data,
            },
            delay,
        );
    }

    /// Requests an early flush of `topic`'s round `round` at this node —
    /// the semi-synchronous mode's quorum cutoff: the application decides
    /// (e.g. in `on_partial`) that enough contributions arrived and the
    /// round should complete now rather than waiting for the stragglers.
    /// Processed after the current callback returns.
    pub fn request_flush(&mut self, topic: Id, round: u64) {
        self.forest.pending_flush.push((topic, round));
    }

    /// Number of children in `topic`'s tree.
    pub fn children_count(&self, topic: Id) -> usize {
        self.forest
            .membership(topic)
            .map_or(0, |m| m.children.len())
    }

    /// Whether this node is `topic`'s root (application master).
    pub fn is_root(&self, topic: Id) -> bool {
        self.forest.membership(topic).is_some_and(|m| m.is_root)
    }

    fn arm_round_timer(&mut self, topic: Id, round: u64, delay: SimDuration) {
        let token = self.forest.next_round_token;
        self.forest.next_round_token += 1;
        self.forest
            .round_timers
            .get_or_insert_with(token, || (topic, round));
        self.dht.set_timer(delay, token * 2);
    }
}

/// Application behaviour layered on the forest (the FL engine implements
/// this; it corresponds to the callbacks of Table 2).
pub trait ForestApp: Sized {
    /// The tree-borne data type (e.g. serialized model updates).
    type Data: TreeData;

    /// Invoked once at node start.
    fn on_start(&mut self, api: &mut ForestApi<'_, '_, '_, Self::Data>) {
        let _ = api;
    }

    /// `onBroadcast`: a model reached this subscriber. Return
    /// `Some((update, compute_time))` to contribute to the round's
    /// aggregation after `compute_time` of local training, or `None` to sit
    /// the round out. `data` is the handle every receiver of the broadcast
    /// shares: cloning it keeps the model without copying it.
    fn on_model(
        &mut self,
        api: &mut ForestApi<'_, '_, '_, Self::Data>,
        topic: Id,
        round: u64,
        data: &Shared<Self::Data>,
    ) -> Option<(Self::Data, SimDuration)>;

    /// `onAggregate` at the master: the round's aggregation completed (or
    /// timed out) at the root with `count` leaf contributions.
    fn on_aggregated(
        &mut self,
        api: &mut ForestApi<'_, '_, '_, Self::Data>,
        topic: Id,
        round: u64,
        data: Self::Data,
        count: u64,
    );

    /// `onAggregate` at interior nodes: a partial aggregate grew to `count`
    /// contributions.
    fn on_partial(
        &mut self,
        api: &mut ForestApi<'_, '_, '_, Self::Data>,
        topic: Id,
        round: u64,
        count: u64,
    ) {
        let _ = (api, topic, round, count);
    }

    /// This node just became `topic`'s root — i.e. it was promoted to the
    /// application's master (initial rendezvous or takeover after churn).
    fn on_became_root(&mut self, api: &mut ForestApi<'_, '_, '_, Self::Data>, topic: Id) {
        let _ = (api, topic);
    }

    /// `onTimer`: an application timer armed via
    /// [`ForestApi::set_app_timer`] fired.
    fn on_timer(&mut self, api: &mut ForestApi<'_, '_, '_, Self::Data>, token: u64) {
        let _ = (api, token);
    }

    /// Approximate application state size (Figure 13b).
    fn memory_bytes(&self) -> usize {
        0
    }
}

/// The forest layer: implements the DHT's [`UpperLayer`], hosts an
/// application implementing [`ForestApp`].
pub struct Forest<F: ForestApp> {
    /// Forest protocol state.
    pub state: ForestState<F::Data>,
    /// The hosted application (e.g. the FL engine).
    pub app: F,
    config: ForestConfig,
    started: bool,
    /// When the maintenance tick last ran; lets `on_up` tell a still-armed
    /// tick chain (short outage) from one whose timer was swallowed while
    /// the node was down and must be re-armed.
    last_tick: SimTime,
}

impl<F: ForestApp> Forest<F> {
    /// Wraps `app` with a forest using `config`.
    pub fn new(app: F, config: ForestConfig) -> Self {
        Forest {
            state: ForestState::new(),
            app,
            config,
            started: false,
            last_tick: SimTime::ZERO,
        }
    }

    /// The forest configuration.
    pub fn config(&self) -> &ForestConfig {
        &self.config
    }

    fn api<'a, 'b, 'c>(
        state: &'a mut ForestState<F::Data>,
        config: &'a ForestConfig,
        dht: &'a mut DhtApi<'b, 'c, TreeMsg<F::Data>>,
    ) -> ForestApi<'a, 'b, 'c, F::Data> {
        ForestApi {
            forest: state,
            dht,
            config,
        }
    }

    /// Runs an application-level operation with full API access (the entry
    /// point experiment drivers use via `DhtNode::with_api`).
    pub fn with_forest_api<R>(
        &mut self,
        dht: &mut DhtApi<'_, '_, TreeMsg<F::Data>>,
        f: impl FnOnce(&mut F, &mut ForestApi<'_, '_, '_, F::Data>) -> R,
    ) -> R {
        let mut api = Self::api(&mut self.state, &self.config, dht);
        f(&mut self.app, &mut api)
    }

    /// Adopts `child` into `topic`'s tree, honoring the fanout cap by
    /// pushing excess joins down to an existing child.
    /// Returns `false` when the joiner was refused (adopting it would close
    /// an immediate parent cycle); callers on the routing path then keep
    /// forwarding the JOIN toward the rendezvous instead of ending it here.
    fn adopt_child(
        &mut self,
        dht: &mut DhtApi<'_, '_, TreeMsg<F::Data>>,
        topic: Id,
        child: Contact,
    ) -> bool {
        if child.addr == dht.addr() {
            return true;
        }
        let now = dht.now();
        let cap = self.config.fanout_cap;
        let me = me_contact(dht);
        let m = self.state.tree_mut(topic, now);
        // With the `mc-bugs` validation feature the guard is compiled out,
        // reintroducing the pre-fix parent-cycle bug for the model checker
        // to rediscover (seeded bug FOREST-CYCLE).
        #[cfg(not(feature = "mc-bugs"))]
        if m.parent.map(|p| p.addr) == Some(child.addr) {
            // Never adopt our own parent: that would turn the tree edge
            // into a two-node loop the instant the JoinAck lands. The
            // joiner's JOIN keeps routing toward the rendezvous instead.
            return false;
        }
        if m.children.iter().any(|c| c.addr == child.addr) {
            // Re-ack an existing child (join retry).
            let depth = if m.is_root { 0 } else { m.depth };
            dht.send_direct(
                child.addr,
                TreeMsg::JoinAck {
                    topic,
                    parent: me,
                    depth,
                },
            );
            return true;
        }
        if cap > 0 && m.children.len() >= cap {
            // Push-down: delegate to the child whose id is closest to the
            // newcomer (deterministic and locality-friendly).
            let target = m
                .children
                .iter()
                .min_by_key(|c| c.id.ring_distance(child.id))
                .copied()
                .expect("cap > 0 implies children exist");
            self.state.stats.pushdowns += 1;
            dht.send_direct(target.addr, TreeMsg::Join { topic, child });
            return true;
        }
        m.add_child(child);
        let depth = if m.is_root { 0 } else { m.depth };
        self.state.stats.children_adopted += 1;
        dht.send_direct(
            child.addr,
            TreeMsg::JoinAck {
                topic,
                parent: me,
                depth,
            },
        );
        true
    }

    /// Starts (or retries) this node's own attachment to `topic`.
    fn send_own_join(&mut self, dht: &mut DhtApi<'_, '_, TreeMsg<F::Data>>, topic: Id) {
        let now = dht.now();
        let me = me_contact(dht);
        let restricted = self.config.zone_restricted;
        let m = self.state.tree_mut(topic, now);
        m.joining = true;
        m.join_sent = now;
        self.state.stats.joins_sent += 1;
        dht.route(topic, TreeMsg::Join { topic, child: me }, restricted);
    }

    fn handle_broadcast(
        &mut self,
        dht: &mut DhtApi<'_, '_, TreeMsg<F::Data>>,
        from: NodeIdx,
        topic: Id,
        round: u64,
        depth: u16,
        data: Shared<F::Data>,
    ) {
        let now = dht.now();
        let me_addr = dht.addr();
        let agg_timeout = self.config.agg_timeout;
        let m = self.state.tree_mut(topic, now);

        let from_parent = m.parent.map(|p| p.addr) == Some(from);
        if from_parent {
            m.last_parent_seen = now;
        } else if m.attached() && from != me_addr {
            // A stale parent still thinks we are its child: detach from it.
            dht.send_direct(
                from,
                TreeMsg::Leave {
                    topic,
                    child: me_addr,
                },
            );
            return;
        }

        if m.last_broadcast_round.is_some_and(|r| r >= round) {
            return; // Duplicate or stale broadcast.
        }
        m.last_broadcast_round = Some(round);
        // Bound per-round state over long trainings.
        m.prune_rounds(round.saturating_sub(8));
        if from_parent {
            m.depth = depth.saturating_add(1);
        }
        let my_depth = m.depth;
        let n_children = m.children.len();
        let subscriber = m.subscriber;
        let ra = m.rounds.get_or_insert_with(round, RoundAgg::default);
        ra.expected = n_children;

        // Forward down the tree: the payload is already `Shared`, so the
        // one message costs a reference-count bump, and `dht` is a
        // separate borrow from the membership, so the child list is
        // iterated in place rather than cloned.
        dht.send_direct_all(
            m.children.iter().map(|c| c.addr),
            TreeMsg::Broadcast {
                topic,
                round,
                depth: my_depth,
                data: data.clone(),
            },
        );
        self.state.stats.broadcasts_forwarded += n_children as u64;

        self.state.broadcast_log.push(BroadcastEvent {
            topic,
            round,
            at: now,
            depth: my_depth,
        });

        // Local participation.
        let mut local_contribution = false;
        if subscriber {
            let contribution = {
                let mut api = Self::api(&mut self.state, &self.config, dht);
                self.app.on_model(&mut api, topic, round, &data)
            };
            if let Some((update, delay)) = contribution {
                local_contribution = true;
                let m = self.state.tree_mut(topic, now);
                if let Some(ra) = m.rounds.get_mut(round) {
                    ra.expected += 1;
                }
                dht.send_direct_after(
                    me_addr,
                    TreeMsg::AggregateUp {
                        topic,
                        round,
                        count: 1,
                        data: update,
                    },
                    delay,
                );
            }
        }
        // A childless node with nothing to contribute must tell its parent
        // immediately so the round does not stall on the straggler cutoff.
        if n_children == 0 && !local_contribution {
            let m = self.state.tree_mut(topic, now);
            if let Some(ra) = m.rounds.get_mut(round) {
                ra.flushed = true;
            }
            if let Some(p) = m.parent {
                dht.send_direct(p.addr, TreeMsg::Abstain { topic, round });
            }
        }

        // Straggler cutoff for this round.
        let needs_timer = {
            let m = self.state.tree_mut(topic, now);
            let ra = m.rounds.get_or_insert_with(round, RoundAgg::default);
            let arm = !ra.timer_armed && ra.expected > 0;
            ra.timer_armed = true;
            arm
        };
        if needs_timer {
            let mut api = Self::api(&mut self.state, &self.config, dht);
            api.arm_round_timer(topic, round, agg_timeout);
        }
    }

    fn handle_aggregate(
        &mut self,
        dht: &mut DhtApi<'_, '_, TreeMsg<F::Data>>,
        _from: NodeIdx,
        topic: Id,
        round: u64,
        count: u64,
        data: F::Data,
    ) {
        let now = dht.now();
        let agg_timeout = self.config.agg_timeout;
        let m = self.state.tree_mut(topic, now);
        let children_now = m.children.len();
        let is_root = m.is_root;
        let parent = m.parent;
        let ra = m.rounds.get_or_insert_with(round, RoundAgg::default);

        if ra.flushed {
            // Late contribution: pass it through unmodified so it is not
            // lost; the master decides what to do with stragglers.
            self.state.stats.late_contributions += 1;
            if is_root {
                let mut api = Self::api(&mut self.state, &self.config, dht);
                self.app.on_aggregated(&mut api, topic, round, data, count);
            } else if let Some(p) = parent {
                dht.send_direct(
                    p.addr,
                    TreeMsg::AggregateUp {
                        topic,
                        round,
                        count,
                        data,
                    },
                );
                self.state.stats.aggregates_sent += 1;
            }
            return;
        }

        match &mut ra.acc {
            Some(acc) => acc.combine(&data),
            None => ra.acc = Some(data),
        }
        ra.count += count;
        ra.inputs += 1;
        if ra.expected == 0 {
            // We never saw this round's broadcast (joined mid-round):
            // expect one input per current child.
            ra.expected = children_now.max(ra.inputs);
        }
        let complete = ra.inputs >= ra.expected;
        let partial_count = ra.count;
        let needs_timer = !ra.timer_armed;
        if needs_timer {
            ra.timer_armed = true;
        }

        {
            let mut api = Self::api(&mut self.state, &self.config, dht);
            self.app.on_partial(&mut api, topic, round, partial_count);
        }
        if needs_timer {
            let mut api = Self::api(&mut self.state, &self.config, dht);
            api.arm_round_timer(topic, round, agg_timeout);
        }
        if complete {
            self.flush_round(dht, topic, round, false);
        }
        self.drain_flush_requests(dht);
    }

    /// A subtree reported that it has nothing for this round: count it as
    /// a received input without combining anything.
    fn handle_abstain(
        &mut self,
        dht: &mut DhtApi<'_, '_, TreeMsg<F::Data>>,
        topic: Id,
        round: u64,
    ) {
        let now = dht.now();
        let agg_timeout = self.config.agg_timeout;
        let m = self.state.tree_mut(topic, now);
        let children_now = m.children.len();
        let ra = m.rounds.get_or_insert_with(round, RoundAgg::default);
        if ra.flushed {
            return;
        }
        ra.inputs += 1;
        if ra.expected == 0 {
            ra.expected = children_now.max(ra.inputs);
        }
        let complete = ra.inputs >= ra.expected;
        let needs_timer = !ra.timer_armed;
        if needs_timer {
            ra.timer_armed = true;
            let mut api = Self::api(&mut self.state, &self.config, dht);
            api.arm_round_timer(topic, round, agg_timeout);
        }
        if complete {
            self.flush_round(dht, topic, round, false);
        }
    }

    /// Pushes a round's accumulated aggregate up (or delivers it at the
    /// root). Idempotent.
    fn flush_round(
        &mut self,
        dht: &mut DhtApi<'_, '_, TreeMsg<F::Data>>,
        topic: Id,
        round: u64,
        by_timeout: bool,
    ) {
        let now = dht.now();
        let m = self.state.tree_mut(topic, now);
        let is_root = m.is_root;
        let parent = m.parent;
        let Some(ra) = m.rounds.get_mut(round) else {
            return;
        };
        if ra.flushed {
            return;
        }
        ra.flushed = true;
        let count = ra.count;
        let Some(acc) = ra.acc.take() else {
            // The whole subtree abstained: propagate the abstention so
            // ancestors do not wait out their straggler cutoff.
            if !is_root {
                if let Some(p) = parent {
                    dht.send_direct(p.addr, TreeMsg::Abstain { topic, round });
                }
            }
            return;
        };
        if by_timeout {
            self.state.stats.timeout_flushes += 1;
        }
        if is_root {
            self.state.agg_log.push(AggEvent {
                topic,
                round,
                at: now,
                count,
            });
            let mut api = Self::api(&mut self.state, &self.config, dht);
            self.app.on_aggregated(&mut api, topic, round, acc, count);
        } else if let Some(p) = parent {
            self.state.stats.aggregates_sent += 1;
            dht.send_direct(
                p.addr,
                TreeMsg::AggregateUp {
                    topic,
                    round,
                    count,
                    data: acc,
                },
            );
        }
        // Else: detached mid-round; the update is dropped and the straggler
        // cutoff at the ancestors absorbs the loss.
    }

    /// Applies flush requests queued by the application during callbacks.
    fn drain_flush_requests(&mut self, dht: &mut DhtApi<'_, '_, TreeMsg<F::Data>>) {
        while let Some((topic, round)) = self.state.pending_flush.pop() {
            self.flush_round(dht, topic, round, false);
        }
    }

    fn begin_repair(&mut self, dht: &mut DhtApi<'_, '_, TreeMsg<F::Data>>, topic: Id) {
        let now = dht.now();
        let m = self.state.tree_mut(topic, now);
        m.parent = None;
        if !m.subscriber && m.children.is_empty() {
            // A forwarder with no subtree left has nothing to repair: fall
            // out of the tree instead of re-joining.
            self.state.trees.remove(topic);
            return;
        }
        self.state.repair_events.push(RepairEvent {
            topic,
            detected: now,
            reattached: None,
        });
        self.send_own_join(dht, topic);
    }

    fn forest_tick(&mut self, dht: &mut DhtApi<'_, '_, TreeMsg<F::Data>>) {
        let now = dht.now();
        self.last_tick = now;
        let tick = self.config.tick;
        let parent_timeout = tick.saturating_mul(PARENT_TIMEOUT_TICKS);
        let join_retry = tick.saturating_mul(JOIN_RETRY_TICKS);
        let me = me_contact(dht);

        // Iterate the tree map in place (`dht` is a separate borrow); the
        // tick fires every node every few sim-seconds, so avoiding the
        // per-tick key collection matters. The repair/replan/rejoin lists
        // are almost always empty and allocate nothing then.
        let n_topics = self.state.trees.len() as u64;
        let max_depth = self.config.max_depth;
        let mut to_repair = Vec::new();
        let mut to_replan = Vec::new();
        let mut to_rejoin = Vec::new();
        #[cfg_attr(
            feature = "mc-bugs",
            expect(unused_mut, reason = "`mc-bugs` compiles out the depth-cap push below")
        )]
        let mut to_break = Vec::new();
        for (topic, m) in self.state.trees.iter_mut() {
            // Keep-alive toward children.
            let depth = if m.is_root { 0 } else { m.depth };
            dht.send_direct_all(
                m.children.iter().map(|c| c.addr),
                TreeMsg::ParentHeartbeat {
                    topic,
                    depth,
                    sender: me,
                },
            );
            // Parent liveness: hard timeout, plus bandit bookkeeping (one
            // semi-bandit "attempt" per tick; success = heard this tick).
            if m.parent.is_some() {
                // "Heard" within two ticks tolerates heartbeat phase
                // offsets; a healthy link then scores ~1.0.
                let heard = now.saturating_since(m.last_parent_seen) <= tick.saturating_mul(2);
                m.parent_link.record(heard);
                if now.saturating_since(m.last_parent_seen) > parent_timeout {
                    to_repair.push(topic);
                } else if let Some(threshold) = self.config.replan_cost_threshold {
                    // Replan when even the optimistic (KL-UCB) view of the
                    // link says its expected delivery cost is too high.
                    let st = &m.parent_link;
                    if st.attempts >= 8 {
                        let log_tau = (st.attempts.max(2) as f64).ln();
                        if st.omega(log_tau) > threshold {
                            to_replan.push(topic);
                        }
                    }
                }
            }
            // Join retry.
            if m.joining && !m.attached() && now.saturating_since(m.join_sent) > join_retry {
                to_rejoin.push(topic);
            }
            // Parent-cycle detection: inside a loop, `parent depth + 1`
            // chases itself around the ring, so depth inflates by one per
            // tick without bound. `u16::MAX` is exempt — that is the
            // legitimate "unknown" sentinel a detached ancestor propagates.
            // Compiled out under `mc-bugs` along with the adopt-own-parent
            // guard, so a formed loop persists for the model checker's
            // structure oracle to flag (seeded bug FOREST-CYCLE).
            #[cfg(not(feature = "mc-bugs"))]
            if max_depth > 0
                && !m.is_root
                && m.parent.is_some()
                && m.depth >= max_depth
                && m.depth < u16::MAX
            {
                to_break.push(topic);
            }
            #[cfg(feature = "mc-bugs")]
            let _ = max_depth;
        }
        for topic in to_repair {
            self.begin_repair(dht, topic);
        }
        for topic in to_replan {
            // Leave the flaky parent cleanly, then re-route a JOIN; the
            // DHT's current view (which has likely also observed the
            // flakiness through transport failures) picks the new path.
            let me_addr = dht.addr();
            let m = self.state.tree_mut(topic, now);
            if let Some(p) = m.parent {
                dht.send_direct(
                    p.addr,
                    TreeMsg::Leave {
                        topic,
                        child: me_addr,
                    },
                );
            }
            m.parent_link = totoro_bandit::LinkStats::default();
            self.state.stats.replans += 1;
            self.begin_repair(dht, topic);
        }
        for topic in to_rejoin {
            self.send_own_join(dht, topic);
        }
        for topic in to_break {
            // Break the loop edge: leave the (live) parent explicitly so it
            // drops us from its children table and stops heartbeating the
            // cycle back into existence, then re-join via the rendezvous.
            let me_addr = dht.addr();
            let m = self.state.tree_mut(topic, now);
            if let Some(p) = m.parent {
                dht.send_direct(
                    p.addr,
                    TreeMsg::Leave {
                        topic,
                        child: me_addr,
                    },
                );
            }
            m.depth = u16::MAX;
            m.parent_link = totoro_bandit::LinkStats::default();
            self.state.stats.cycle_breaks += 1;
            self.begin_repair(dht, topic);
        }
        dht.charge_compute(
            ComputeKind::DhtTask,
            SimDuration::from_micros((2 * n_topics).saturating_add(10)),
        );
        dht.set_timer(tick, 0);
    }
}

impl<F: ForestApp> UpperLayer for Forest<F> {
    type P = TreeMsg<F::Data>;

    fn on_start(&mut self, api: &mut DhtApi<'_, '_, Self::P>) {
        if !self.started {
            self.started = true;
            api.set_timer(self.config.tick, 0);
            let mut fapi = Self::api(&mut self.state, &self.config, api);
            self.app.on_start(&mut fapi);
        }
    }

    fn on_deliver(
        &mut self,
        api: &mut DhtApi<'_, '_, Self::P>,
        key: Id,
        _origin: NodeIdx,
        payload: Self::P,
    ) {
        // Only JOINs are key-routed; everything else travels directly.
        if let TreeMsg::Join { child, .. } = payload {
            let now = api.now();
            let topic = key;
            let newly_root = {
                let m = self.state.tree_mut(topic, now);
                let newly = !m.is_root;
                m.is_root = true;
                m.joining = false;
                m.depth = 0;
                m.parent = None;
                newly
            };
            if newly_root {
                // Close any repair episode: we became the new rendezvous.
                if let Some(ev) = self
                    .state
                    .repair_events
                    .iter_mut()
                    .rev()
                    .find(|e| e.topic == topic && e.reattached.is_none())
                {
                    ev.reattached = Some(now);
                }
                let mut fapi = Self::api(&mut self.state, &self.config, api);
                self.app.on_became_root(&mut fapi, topic);
            }
            self.adopt_child(api, topic, child);
        }
    }

    fn on_forward(
        &mut self,
        api: &mut DhtApi<'_, '_, Self::P>,
        key: Id,
        _prev: NodeIdx,
        payload: &mut Self::P,
        _next: Contact,
    ) -> bool {
        let TreeMsg::Join { child, .. } = payload else {
            return true;
        };
        let topic = key;
        let child = *child;
        let now = api.now();
        let adopted = self.adopt_child(api, topic, child);
        let m = self.state.tree_mut(topic, now);
        if m.attached() || m.joining {
            // Already part of the tree: the JOIN path ends here (§4.3) —
            // unless the joiner was refused because it is our own parent,
            // in which case its JOIN keeps routing toward the rendezvous
            // so it can reattach above us rather than below.
            !adopted
        } else {
            // Become a forwarder: splice ourselves into the path and keep
            // routing our own JOIN toward the rendezvous.
            m.joining = true;
            m.join_sent = now;
            self.state.stats.joins_sent += 1;
            *payload = TreeMsg::Join {
                topic,
                child: me_contact(api),
            };
            true
        }
    }

    fn on_direct(&mut self, api: &mut DhtApi<'_, '_, Self::P>, from: NodeIdx, payload: Self::P) {
        let now = api.now();
        match payload {
            TreeMsg::Join { topic, child } => {
                // Push-down delegation from an overloaded ancestor: adopt
                // the newcomer here (or push it further down).
                self.adopt_child(api, topic, child);
            }
            TreeMsg::JoinAck {
                topic,
                parent,
                depth,
            } => {
                let m = self.state.tree_mut(topic, now);
                if m.is_root {
                    return; // Stale ack from a pre-takeover path.
                }
                let had_parent = m.parent.is_some();
                if m.parent.map(|p| p.addr) != Some(parent.addr) {
                    m.parent_link = totoro_bandit::LinkStats::default();
                }
                m.parent = Some(parent);
                m.depth = depth.saturating_add(1);
                m.joining = false;
                m.last_parent_seen = now;
                if !had_parent {
                    if let Some(ev) = self
                        .state
                        .repair_events
                        .iter_mut()
                        .rev()
                        .find(|e| e.topic == topic && e.reattached.is_none())
                    {
                        ev.reattached = Some(now);
                    }
                }
            }
            TreeMsg::Leave { topic, child } => {
                let m = self.state.tree_mut(topic, now);
                m.remove_child(child);
            }
            TreeMsg::Broadcast {
                topic,
                round,
                depth,
                data,
            } => {
                self.handle_broadcast(api, from, topic, round, depth, data);
            }
            TreeMsg::AggregateUp {
                topic,
                round,
                count,
                data,
            } => {
                self.handle_aggregate(api, from, topic, round, count, data);
            }
            TreeMsg::Abstain { topic, round } => {
                self.handle_abstain(api, topic, round);
            }
            TreeMsg::ParentHeartbeat {
                topic,
                depth,
                sender,
            } => {
                let m = self.state.tree_mut(topic, now);
                match m.parent {
                    Some(p) if p.addr == from => {
                        m.last_parent_seen = now;
                        m.depth = depth.saturating_add(1);
                    }
                    None if !m.is_root && (m.subscriber || !m.children.is_empty()) => {
                        // An orphaned child that still wants tree
                        // membership re-adopts a parent that carries it in
                        // its children table.
                        m.parent = Some(sender);
                        m.depth = depth.saturating_add(1);
                        m.last_parent_seen = now;
                        m.joining = false;
                    }
                    _ => {
                        // Heartbeat from a stale parent: detach from it.
                        if m.parent.map(|p| p.addr) != Some(from) {
                            let me_addr = api.addr();
                            api.send_direct(
                                from,
                                TreeMsg::Leave {
                                    topic,
                                    child: me_addr,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, api: &mut DhtApi<'_, '_, Self::P>, token: u64) {
        if token == 0 {
            self.forest_tick(api);
        } else if token % 2 == 1 {
            let app_token = (token - 1) / 2;
            {
                let mut fapi = Self::api(&mut self.state, &self.config, api);
                self.app.on_timer(&mut fapi, app_token);
            }
            self.drain_flush_requests(api);
        } else {
            let round_token = token / 2;
            if let Some((topic, round)) = self.state.round_timers.remove(round_token) {
                self.flush_round(api, topic, round, true);
            }
        }
    }

    fn on_up(&mut self, api: &mut DhtApi<'_, '_, Self::P>) {
        // A live tick chain fires exactly every `tick`; anything staler
        // means the pending timer was swallowed during the outage and the
        // chain is dead. Only then re-arm (re-arming a live chain would
        // double every heartbeat from here on).
        //
        // Under `mc-bugs` the re-arm is compiled out, reintroducing the
        // pre-fix maintenance zombie: a revived node stays up but its tick
        // chain is dead forever (seeded bug MAINT-ZOMBIE).
        #[cfg(not(feature = "mc-bugs"))]
        if self.started && api.now().saturating_since(self.last_tick) > self.config.tick {
            self.last_tick = api.now();
            api.set_timer(self.config.tick, 0);
        }
        #[cfg(feature = "mc-bugs")]
        let _ = api;
    }

    fn on_peer_failed(&mut self, api: &mut DhtApi<'_, '_, Self::P>, addr: NodeIdx) {
        let topics: Vec<Id> = self.state.trees.keys().to_vec();
        for topic in topics {
            let (was_parent, _had_child) = {
                let m = self.state.trees.get_mut(topic).expect("topic exists");
                let was_parent = m.parent.map(|p| p.addr) == Some(addr);
                let had_child = m.remove_child(addr);
                (was_parent, had_child)
            };
            if was_parent {
                self.begin_repair(api, topic);
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.state.memory_bytes() + self.app.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// What `memory_bytes` counts did not move when the per-topic
    /// `BTreeMap` became a key column beside a value column: this figure
    /// was printed by the same state at the commit before
    /// (Figure 13b and `simnet.state_bytes` are built from it).
    #[test]
    fn memory_bytes_is_the_btree_layouts_figure() {
        let mut st: ForestState<u64> = ForestState::new();
        for (k, topic) in [5u128, 1, 9].into_iter().enumerate() {
            let m = st.tree_mut(Id::new(topic << 100), SimTime::ZERO);
            for c in 0..=k {
                m.add_child(Contact {
                    id: Id::new(c as u128),
                    addr: c,
                });
            }
            m.rounds.get_or_insert_with(k as u64, RoundAgg::default);
        }
        st.round_timers.get_or_insert_with(1, || (Id::new(1), 1));
        assert_eq!(st.memory_bytes(), 1_208);
    }

    /// Replays `ops` on a column keyed by `key(k)` and on the `BTreeMap`
    /// it stands in for, and checks after each step that both hold the
    /// same entries in the same order. Mutable iteration folds `fold` of
    /// each key it yields into that key's value, so a key paired with the
    /// wrong value shows up as a value mismatch.
    fn column_matches_btree_map<K: Copy + Ord + std::fmt::Debug>(
        ops: &[(u8, u64, u32)],
        key: impl Fn(u64) -> K,
        fold: impl Fn(K) -> u32,
    ) -> Result<(), TestCaseError> {
        let mut column = SortedColumn::default();
        let mut map = BTreeMap::new();
        for &(op, k, v) in ops {
            let k = key(k);
            match op {
                0 => prop_assert_eq!(column.get(k), map.get(&k)),
                1 | 2 => {
                    let x = column.get_or_insert_with(k, || v);
                    *x = x.wrapping_add(1);
                    let y = map.entry(k).or_insert(v);
                    *y = y.wrapping_add(1);
                }
                3 => prop_assert_eq!(column.remove(k), map.remove(&k)),
                4 => {
                    if let Some(x) = column.get_mut(k) {
                        *x ^= v;
                    }
                    if let Some(y) = map.get_mut(&k) {
                        *y ^= v;
                    }
                }
                5 => {
                    // The prefix prune `Membership::prune_rounds` runs.
                    column.remove_below(k);
                    map = map.split_off(&k);
                }
                _ => {
                    for (t, x) in column.iter_mut() {
                        *x = x.wrapping_mul(3) ^ fold(t);
                    }
                    for (&t, y) in map.iter_mut() {
                        *y = y.wrapping_mul(3) ^ fold(t);
                    }
                }
            }
            prop_assert_eq!(column.len(), map.len());
            prop_assert_eq!(column.keys(), map.keys().copied().collect::<Vec<_>>());
            prop_assert_eq!(
                column.iter().collect::<Vec<_>>(),
                map.iter().map(|(&k, v)| (k, v)).collect::<Vec<_>>()
            );
        }
        Ok(())
    }

    proptest! {
        /// The sorted column behaves as the `BTreeMap` it stands in for,
        /// keyed by topic (the forest's trees) and by `u64` (rounds and
        /// round timers): the same lookups, insertions, removals and prefix
        /// prunes, and the same ascending iteration.
        #[test]
        fn topics_match_a_btree_map(
            ops in prop::collection::vec((0u8..7, 0u64..24, any::<u32>()), 1..300),
        ) {
            // Topics spread over the ring, inserted in no particular order.
            column_matches_btree_map(
                &ops,
                |k| Id::new(u128::from(k).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835)),
                |t| t.raw() as u32,
            )?;
            column_matches_btree_map(&ops, |k| k, |k| k as u32)?;
        }
    }
}
