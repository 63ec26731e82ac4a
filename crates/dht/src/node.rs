//! The DHT protocol node: join, routing, maintenance, failure detection.
//!
//! A [`DhtNode`] implements [`totoro_simnet::Application`] and carries an
//! [`UpperLayer`] (the pub/sub forest in the full stack). The upper layer
//! sees three primitives, mirroring what FreePastry offered the original
//! implementation: key-based routing with per-hop interception (the hook
//! Scribe trees are built on), direct messages, and failure notifications.
//!
//! # The keep-alive receive path
//!
//! Steady-state maintenance is the workload: a settled overlay spends over
//! 80 % of its events on `Heartbeat` and `LeafExchange`, and every one of
//! them re-offers contacts the node already knows (one per heartbeat, ~25
//! per exchange). That path is O(1) per offered contact:
//!
//! * [`DhtNode`] is the only thing that mutates its [`DhtState`] during a
//!   run ([`DhtApi::state`] is a shared reference), and it does so only
//!   through its [`PeerRecord`], whose memo remembers the peers whose last
//!   offer changed nothing and forgets them all the moment anything
//!   changes. A remembered contact is skipped before the RTT lookup, the
//!   leaf-set scans and the four `consider` calls;
//!   [`DhtStats::offers_skipped`] counts how often. See [`PeerRecord`] for
//!   why that is exact, and why the cheaper "forget on removal only" rule
//!   is not.
//! * Liveness and the memo share that one record, stored inline in the
//!   node: a keep-alive's sender is found by one compare over 32 inline
//!   slots that hold its address, its stamp and its memo bit, with no
//!   pointer to follow and no hashing.

use totoro_simnet::{ComputeKind, Ctx, NodeIdx, Payload, Shared, SimDuration, SimTime};

use crate::id::Id;
use crate::routing::{next_hop, NextHop};
use crate::state::{DhtConfig, DhtState, Offer, PeerRecord};
use crate::table::Contact;
use crate::two_level::BoundaryDecision;

/// Timer tokens at or above this value belong to the upper layer; the DHT
/// reserves the space below.
pub const UPPER_TIMER_BASE: u64 = 1 << 32;

const TIMER_MAINTENANCE: u64 = 0;
/// Wire-size estimate of one serialized contact (id + address + port).
const CONTACT_WIRE_BYTES: usize = 24;
/// Wire-size estimate of fixed message headers.
const HEADER_BYTES: usize = 32;
/// Routing hop budget; exceeding it forces local delivery (defensive).
const MAX_HOPS: u16 = 192;

/// Messages exchanged by DHT nodes. `P` is the upper layer's payload.
#[derive(Clone, Debug)]
pub enum DhtMsg<P> {
    /// A joining node's request, routed toward its own id; every hop
    /// contributes routing-table rows.
    Join {
        /// The joining node.
        joiner: Contact,
        /// Contacts collected along the join path.
        collected: Vec<Contact>,
        /// Hops taken so far.
        hops: u16,
    },
    /// The numerically-closest node's reply to a joiner.
    JoinReply {
        /// Contacts for seeding the joiner's state (rows + leaf set).
        contacts: Vec<Contact>,
        /// The responding node.
        responder: Contact,
    },
    /// A newcomer announcing itself so peers fold it into their tables.
    Announce {
        /// The announcing node.
        contact: Contact,
    },
    /// Periodic liveness beacon to leaf-set members.
    Heartbeat {
        /// The sender.
        from: Contact,
    },
    /// Periodic leaf-set gossip for convergence and post-failure refill.
    LeafExchange {
        /// The sender.
        from: Contact,
        /// The sender's current leaf-set members, shared across the whole
        /// gossip fan-out (every member receives the same snapshot).
        members: Shared<Vec<Contact>>,
    },
    /// Key-routed upper-layer payload.
    Route {
        /// Destination key.
        key: Id,
        /// Address of the originating node.
        origin: NodeIdx,
        /// Hops taken so far.
        hops: u16,
        /// Whether the payload must not leave its origin zone (§4.2
        /// administrative isolation).
        zone_restricted: bool,
        /// Upper-layer payload.
        payload: P,
    },
    /// Direct (non-routed) upper-layer payload.
    Direct {
        /// Upper-layer payload.
        payload: P,
    },
}

impl<P: Payload> Payload for DhtMsg<P> {
    fn size_bytes(&self) -> usize {
        match self {
            DhtMsg::Join { collected, .. } => {
                HEADER_BYTES + (collected.len() + 1) * CONTACT_WIRE_BYTES
            }
            DhtMsg::JoinReply { contacts, .. } => {
                HEADER_BYTES + (contacts.len() + 1) * CONTACT_WIRE_BYTES
            }
            DhtMsg::Announce { .. } => HEADER_BYTES + CONTACT_WIRE_BYTES,
            DhtMsg::Heartbeat { .. } => HEADER_BYTES + CONTACT_WIRE_BYTES,
            DhtMsg::LeafExchange { members, .. } => {
                HEADER_BYTES + (members.len() + 1) * CONTACT_WIRE_BYTES
            }
            DhtMsg::Route { payload, .. } => HEADER_BYTES + 16 + payload.size_bytes(),
            DhtMsg::Direct { payload } => HEADER_BYTES + payload.size_bytes(),
        }
    }

    // Control traffic is DHT-layer; routed/direct envelopes tag as the
    // wrapped upper-layer payload, which is the interesting message.
    fn layer(&self) -> &'static str {
        match self {
            DhtMsg::Route { payload, .. } => payload.layer(),
            DhtMsg::Direct { payload } => payload.layer(),
            _ => "dht",
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            DhtMsg::Join { .. } => "join",
            DhtMsg::JoinReply { .. } => "join_reply",
            DhtMsg::Announce { .. } => "announce",
            DhtMsg::Heartbeat { .. } => "heartbeat",
            DhtMsg::LeafExchange { .. } => "leaf_exchange",
            DhtMsg::Route { payload, .. } => payload.kind(),
            DhtMsg::Direct { payload } => payload.kind(),
        }
    }
}

/// Counters exposed for the evaluation harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct DhtStats {
    /// Route messages originated by this node.
    pub routed: u64,
    /// Route messages delivered at this node.
    pub delivered: u64,
    /// Route messages forwarded through this node.
    pub forwarded: u64,
    /// Packets blocked at a zone boundary.
    pub blocked: u64,
    /// Sum of hop counts over delivered messages.
    pub hops_sum: u64,
    /// Maximum hop count observed on a delivered message.
    pub hops_max: u16,
    /// Leaf-set peers declared failed.
    pub peers_failed: u64,
    /// Contacts of other nodes offered to the routing state (one per
    /// keep-alive sender, gossiped member, join or announce).
    pub offers: u64,
    /// Offers skipped because the [`PeerRecord`] knew them to change nothing.
    pub offers_skipped: u64,
}

/// The interface the DHT exposes to its upper layer during callbacks.
pub struct DhtApi<'a, 'b, P: Payload> {
    /// The node's routing state. Read-only: during a run only the
    /// [`DhtNode`] itself mutates it, so its [`PeerRecord`]'s memo cannot be
    /// invalidated behind its back.
    pub state: &'a DhtState,
    stats: &'a mut DhtStats,
    ctx: &'a mut Ctx<'b, DhtMsg<P>>,
    pending_local: &'a mut Vec<(Id, NodeIdx, P)>,
}

impl<P: Payload> DhtApi<'_, '_, P> {
    /// This node's ring id.
    pub fn id(&self) -> Id {
        self.state.id()
    }

    /// This node's network address.
    pub fn addr(&self) -> NodeIdx {
        self.state.addr()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// The shared network topology (read-only).
    pub fn topology(&self) -> &totoro_simnet::Topology {
        self.ctx.topology()
    }

    /// The node's deterministic random stream.
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.ctx.rng()
    }

    /// Charges simulated compute time (see [`ComputeKind`]).
    pub fn charge_compute(&mut self, kind: ComputeKind, amount: SimDuration) {
        self.ctx.charge_compute(kind, amount);
    }

    /// Arms an upper-layer timer; it will surface as
    /// [`UpperLayer::on_timer`] with the same `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.ctx.set_timer(delay, token + UPPER_TIMER_BASE);
    }

    /// Routes `payload` toward `key`. If this node is itself the closest,
    /// the payload is delivered locally (asynchronously, after the current
    /// callback returns). Returns `false` if the packet was blocked at the
    /// zone boundary.
    pub fn route(&mut self, key: Id, payload: P, zone_restricted: bool) -> bool {
        if zone_restricted
            && self.state.two_level.boundary_check(key, true) == BoundaryDecision::Block
        {
            self.stats.blocked += 1;
            return false;
        }
        self.stats.routed += 1;
        let decision = if zone_restricted {
            crate::routing::next_hop_in_zone(self.state, key, self.state.zone())
        } else {
            next_hop(self.state, key)
        };
        match decision {
            NextHop::Deliver => {
                let me = self.state.addr();
                self.pending_local.push((key, me, payload));
            }
            NextHop::Forward(c) => {
                self.ctx.send(
                    c.addr,
                    DhtMsg::Route {
                        key,
                        origin: self.state.addr(),
                        hops: 1,
                        zone_restricted,
                        payload,
                    },
                );
            }
        }
        true
    }

    /// Sends `payload` directly to a known peer address (no routing).
    pub fn send_direct(&mut self, to: NodeIdx, payload: P) {
        self.ctx.send(to, DhtMsg::Direct { payload });
    }

    /// Sends the one `payload` directly to every address of `dsts`, in
    /// order (see [`Ctx::send_all`]).
    pub fn send_direct_all(&mut self, dsts: impl IntoIterator<Item = NodeIdx>, payload: P) {
        self.ctx.send_all(dsts, DhtMsg::Direct { payload });
    }

    /// Like [`DhtApi::send_direct`] with an extra local processing delay
    /// before the message enters the network (models local compute such as
    /// training before an upload).
    pub fn send_direct_after(&mut self, to: NodeIdx, payload: P, extra: SimDuration) {
        self.ctx.send_after(to, DhtMsg::Direct { payload }, extra);
    }
}

/// Behaviour layered on top of the DHT (e.g. the pub/sub forest).
pub trait UpperLayer: Sized {
    /// The payload type carried inside [`DhtMsg::Route`] / [`DhtMsg::Direct`].
    type P: Payload;

    /// Invoked once at node start (before any join completes).
    fn on_start(&mut self, api: &mut DhtApi<'_, '_, Self::P>) {
        let _ = api;
    }

    /// Invoked when the node revives after an outage. Timers that fired
    /// while the node was down were silently discarded, so any upper-layer
    /// self-perpetuating timer chain (e.g. the forest maintenance tick) is
    /// dead and must be re-armed here — otherwise the revived node keeps
    /// its layered state but never again runs maintenance on it.
    fn on_up(&mut self, api: &mut DhtApi<'_, '_, Self::P>) {
        let _ = api;
    }

    /// A routed payload reached the node numerically closest to `key`.
    fn on_deliver(
        &mut self,
        api: &mut DhtApi<'_, '_, Self::P>,
        key: Id,
        origin: NodeIdx,
        payload: Self::P,
    );

    /// A routed payload is about to be forwarded to `next`; `prev` is the
    /// previous hop. Return `false` to consume the message here instead —
    /// the hook Scribe-style tree construction relies on. The payload may
    /// be mutated in place (e.g. to re-write the subscribing child).
    fn on_forward(
        &mut self,
        api: &mut DhtApi<'_, '_, Self::P>,
        key: Id,
        prev: NodeIdx,
        payload: &mut Self::P,
        next: Contact,
    ) -> bool {
        let _ = (api, key, prev, payload, next);
        true
    }

    /// A direct payload arrived from `from`.
    fn on_direct(&mut self, api: &mut DhtApi<'_, '_, Self::P>, from: NodeIdx, payload: Self::P);

    /// An upper-layer timer armed via [`DhtApi::set_timer`] fired.
    fn on_timer(&mut self, api: &mut DhtApi<'_, '_, Self::P>, token: u64) {
        let _ = (api, token);
    }

    /// The DHT declared the peer at `addr` failed (missed heartbeats).
    fn on_peer_failed(&mut self, api: &mut DhtApi<'_, '_, Self::P>, addr: NodeIdx) {
        let _ = (api, addr);
    }

    /// Approximate upper-layer state size in bytes (Figure 13b).
    fn memory_bytes(&self) -> usize {
        0
    }
}

/// Maintenance knobs.
#[derive(Clone, Copy, Debug)]
pub struct MaintenanceConfig {
    /// Interval between heartbeat/maintenance ticks.
    pub heartbeat_interval: SimDuration,
    /// A leaf peer silent for this many intervals is declared failed.
    pub failure_after_ticks: u32,
    /// Every this many ticks, gossip the leaf set to leaf members.
    pub gossip_every_ticks: u32,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            heartbeat_interval: SimDuration::from_secs(2),
            failure_after_ticks: 3,
            gossip_every_ticks: 4,
        }
    }
}

/// A DHT node with upper layer `U`, runnable on the simulator.
///
/// The node's [`PeerRecord`] (memo and liveness) is keyed by network address
/// alone. That identifies the whole [`Contact`] because address → id is a
/// function here: a contact is only ever minted by its owner's
/// [`DhtState::contact`], and a node's id never changes. Debug builds check
/// it on every memo hit (see [`PeerRecord`]).
pub struct DhtNode<U: UpperLayer> {
    /// Routing state. Once the node runs, every mutation goes through the
    /// node's [`PeerRecord`]; replace it wholesale only before the run starts
    /// (bulk construction), while the memo is still empty.
    pub state: DhtState,
    /// The layered application.
    pub upper: U,
    /// Protocol counters.
    pub stats: DhtStats,
    maintenance: MaintenanceConfig,
    bootstrap: Option<NodeIdx>,
    joined: bool,
    tick: u64,
    peers: PeerRecord,
    pending_local: Vec<(Id, NodeIdx, U::P)>,
}

impl<U: UpperLayer> DhtNode<U> {
    /// Creates a node. `bootstrap` is the address of an existing overlay
    /// member (or `None` for the first node, or when state is bulk-built).
    pub fn new(
        id: Id,
        addr: NodeIdx,
        config: DhtConfig,
        bootstrap: Option<NodeIdx>,
        upper: U,
    ) -> Self {
        DhtNode {
            state: DhtState::new(id, addr, config),
            upper,
            stats: DhtStats::default(),
            maintenance: MaintenanceConfig::default(),
            bootstrap,
            joined: bootstrap.is_none(),
            tick: 0,
            peers: PeerRecord::default(),
            pending_local: Vec::new(),
        }
    }

    /// Overrides maintenance parameters.
    pub fn with_maintenance(mut self, m: MaintenanceConfig) -> Self {
        self.maintenance = m;
        self
    }

    /// Marks the node as already joined (used after bulk construction).
    pub fn set_joined(&mut self) {
        self.joined = true;
    }

    /// Whether the node completed its join.
    pub fn joined(&self) -> bool {
        self.joined
    }

    /// Mean hops over messages delivered at this node.
    pub fn mean_delivery_hops(&self) -> f64 {
        if self.stats.delivered == 0 {
            0.0
        } else {
            self.stats.hops_sum as f64 / self.stats.delivered as f64
        }
    }

    fn api<'a, 'b>(
        state: &'a DhtState,
        stats: &'a mut DhtStats,
        pending_local: &'a mut Vec<(Id, NodeIdx, U::P)>,
        ctx: &'a mut Ctx<'b, DhtMsg<U::P>>,
    ) -> DhtApi<'a, 'b, U::P> {
        DhtApi {
            state,
            stats,
            ctx,
            pending_local,
        }
    }

    /// Runs `f` with an upper-layer API view, then drains local deliveries.
    pub fn with_api<R>(
        &mut self,
        ctx: &mut Ctx<'_, DhtMsg<U::P>>,
        f: impl FnOnce(&mut U, &mut DhtApi<'_, '_, U::P>) -> R,
    ) -> R {
        let r = {
            let mut api = Self::api(&self.state, &mut self.stats, &mut self.pending_local, ctx);
            f(&mut self.upper, &mut api)
        };
        self.drain_local(ctx);
        r
    }

    fn drain_local(&mut self, ctx: &mut Ctx<'_, DhtMsg<U::P>>) {
        while let Some((key, origin, payload)) = self.pending_local.pop() {
            self.note_delivery(0);
            let mut api = Self::api(&self.state, &mut self.stats, &mut self.pending_local, ctx);
            self.upper.on_deliver(&mut api, key, origin, payload);
        }
    }

    fn note_delivery(&mut self, hops: u16) {
        self.stats.delivered += 1;
        self.stats.hops_sum += u64::from(hops);
        self.stats.hops_max = self.stats.hops_max.max(hops);
    }

    fn measured_rtt_us(ctx: &Ctx<'_, DhtMsg<U::P>>, me: NodeIdx, peer: NodeIdx) -> u64 {
        ctx.topology().rtt(me, peer).as_micros()
    }

    fn learn(&mut self, ctx: &Ctx<'_, DhtMsg<U::P>>, c: Contact) {
        let me = self.state.addr();
        if c.addr == me {
            return;
        }
        self.stats.offers += 1;
        let rtt = || Self::measured_rtt_us(ctx, me, c.addr);
        match self.peers.offer(&mut self.state, c, rtt) {
            Offer::Skipped => self.stats.offers_skipped += 1,
            Offer::Changed {
                joined_leaf_set: true,
            } => self.peers.set(c.addr, ctx.now()),
            Offer::Unchanged | Offer::Changed { .. } => {}
        }
    }

    /// The part every keep-alive shares: fold the claimed sender in and
    /// mark it heard from, whether or not it was tracked. `src` is the
    /// network source, already refreshed by `on_message`'s probe if
    /// `src_refreshed`; when the claimed sender is that source, marking it
    /// again would be the same write.
    fn keep_alive(
        &mut self,
        ctx: &Ctx<'_, DhtMsg<U::P>>,
        src: NodeIdx,
        src_refreshed: bool,
        peer: Contact,
    ) {
        self.learn(ctx, peer);
        if !(src_refreshed && peer.addr == src) {
            self.peers.set(peer.addr, ctx.now());
        }
    }

    fn start_maintenance(&mut self, ctx: &mut Ctx<'_, DhtMsg<U::P>>) {
        ctx.set_timer(self.maintenance.heartbeat_interval, TIMER_MAINTENANCE);
    }

    fn maintenance_tick(&mut self, ctx: &mut Ctx<'_, DhtMsg<U::P>>) {
        self.tick += 1;
        let now = ctx.now();
        let me = self.state.contact();

        // Declare silent leaf peers failed.
        let timeout = self
            .maintenance
            .heartbeat_interval
            .saturating_mul(u64::from(self.maintenance.failure_after_ticks));
        let mut failed: Vec<NodeIdx> = Vec::new();
        for c in self.state.leaf_set.members() {
            let seen = self.peers.get_or_set(c.addr, now);
            if now.saturating_since(seen) > timeout {
                failed.push(c.addr);
            }
        }
        for addr in failed {
            self.peers.remove_addr(&mut self.state, addr);
            self.peers.remove(addr);
            self.stats.peers_failed += 1;
            let mut api = Self::api(&self.state, &mut self.stats, &mut self.pending_local, ctx);
            self.upper.on_peer_failed(&mut api, addr);
        }
        self.drain_local(ctx);

        // Heartbeat surviving leaf members; occasionally gossip leaf sets.
        let gossip = self
            .tick
            .is_multiple_of(u64::from(self.maintenance.gossip_every_ticks.max(1)));
        let count = self.state.leaf_set.len();
        if gossip {
            // One shared snapshot for the whole fan-out: each member's copy
            // of the gossip is a reference-count bump, not a Vec clone.
            let members = Shared::new(self.state.leaf_set.members().collect::<Vec<_>>());
            ctx.send_all(
                members.iter().map(|c| c.addr),
                DhtMsg::LeafExchange {
                    from: me,
                    members: members.clone(),
                },
            );
        } else {
            ctx.send_all(
                self.state.leaf_set.members().map(|c| c.addr),
                DhtMsg::Heartbeat { from: me },
            );
        }
        ctx.charge_compute(
            ComputeKind::DhtTask,
            SimDuration::from_micros((2 * count as u64).saturating_add(20)),
        );
        self.start_maintenance(ctx);
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the parameters mirror the Route message fields"
    )]
    fn handle_route(
        &mut self,
        ctx: &mut Ctx<'_, DhtMsg<U::P>>,
        prev: NodeIdx,
        key: Id,
        origin: NodeIdx,
        hops: u16,
        zone_restricted: bool,
        mut payload: U::P,
    ) {
        ctx.charge_compute(ComputeKind::DhtTask, SimDuration::from_micros(15));
        if zone_restricted
            && self.state.two_level.boundary_check(key, true) == BoundaryDecision::Block
        {
            // The previous hop leaked a restricted packet toward a foreign
            // zone; the boundary administrator drops it (§4.2).
            self.stats.blocked += 1;
            return;
        }
        let decision = if hops >= MAX_HOPS {
            NextHop::Deliver
        } else if zone_restricted {
            crate::routing::next_hop_in_zone(&self.state, key, self.state.zone())
        } else {
            next_hop(&self.state, key)
        };
        match decision {
            NextHop::Deliver => {
                self.note_delivery(hops);
                let mut api = Self::api(&self.state, &mut self.stats, &mut self.pending_local, ctx);
                self.upper.on_deliver(&mut api, key, origin, payload);
                self.drain_local(ctx);
            }
            NextHop::Forward(c) => {
                let cont = {
                    let mut api =
                        Self::api(&self.state, &mut self.stats, &mut self.pending_local, ctx);
                    self.upper.on_forward(&mut api, key, prev, &mut payload, c)
                };
                self.drain_local(ctx);
                if cont {
                    self.stats.forwarded += 1;
                    ctx.send(
                        c.addr,
                        DhtMsg::Route {
                            key,
                            origin,
                            hops: hops + 1,
                            zone_restricted,
                            payload,
                        },
                    );
                }
            }
        }
    }
}

impl<U: UpperLayer> totoro_simnet::Application for DhtNode<U> {
    type Msg = DhtMsg<U::P>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        if let Some(boot) = self.bootstrap {
            ctx.send(
                boot,
                DhtMsg::Join {
                    joiner: self.state.contact(),
                    collected: Vec::new(),
                    hops: 0,
                },
            );
        }
        self.start_maintenance(ctx);
        let mut api = Self::api(&self.state, &mut self.stats, &mut self.pending_local, ctx);
        self.upper.on_start(&mut api);
        self.drain_local(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeIdx, msg: Self::Msg) {
        // The one liveness probe most messages need: refresh the network
        // source if it is tracked.
        let refreshed = self.peers.refresh(from, ctx.now());
        match msg {
            DhtMsg::Join {
                joiner,
                mut collected,
                hops,
            } => {
                ctx.charge_compute(ComputeKind::DhtTask, SimDuration::from_micros(40));
                // Contribute the row the joiner will index at our shared
                // prefix depth, plus ourselves.
                let row = self
                    .state
                    .id()
                    .shared_prefix_digits(joiner.id, self.state.config().base_bits);
                collected.extend(self.state.routing_table.row(row as usize));
                collected.push(self.state.contact());
                let decision = next_hop(&self.state, joiner.id);
                // Learn about the joiner only after routing, so the join
                // message never short-circuits into the joiner itself.
                self.learn(ctx, joiner);
                match decision {
                    NextHop::Deliver => {
                        collected.extend(self.state.leaf_set.members());
                        ctx.send(
                            joiner.addr,
                            DhtMsg::JoinReply {
                                contacts: collected,
                                responder: self.state.contact(),
                            },
                        );
                    }
                    NextHop::Forward(c) => {
                        if c.addr == joiner.addr {
                            // We already knew the joiner (re-join after an
                            // outage): answer directly instead.
                            collected.extend(self.state.leaf_set.members());
                            ctx.send(
                                joiner.addr,
                                DhtMsg::JoinReply {
                                    contacts: collected,
                                    responder: self.state.contact(),
                                },
                            );
                        } else {
                            ctx.send(
                                c.addr,
                                DhtMsg::Join {
                                    joiner,
                                    collected,
                                    hops: hops + 1,
                                },
                            );
                        }
                    }
                }
            }
            DhtMsg::JoinReply {
                contacts,
                responder,
            } => {
                self.learn(ctx, responder);
                for c in contacts {
                    self.learn(ctx, c);
                }
                self.joined = true;
                // Announce to everyone we learned so they fold us in.
                let me = self.state.contact();
                let peers: Vec<NodeIdx> = {
                    let mut v: Vec<NodeIdx> = self.state.known_contacts().map(|c| c.addr).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                ctx.send_all(peers, DhtMsg::Announce { contact: me });
            }
            DhtMsg::Announce { contact } => {
                self.learn(ctx, contact);
            }
            DhtMsg::Heartbeat { from: peer } => {
                self.keep_alive(ctx, from, refreshed, peer);
            }
            DhtMsg::LeafExchange {
                from: peer,
                members,
            } => {
                self.keep_alive(ctx, from, refreshed, peer);
                for &c in members.iter() {
                    self.learn(ctx, c);
                }
            }
            DhtMsg::Route {
                key,
                origin,
                hops,
                zone_restricted,
                payload,
            } => {
                self.handle_route(ctx, from, key, origin, hops, zone_restricted, payload);
            }
            DhtMsg::Direct { payload } => {
                let mut api = Self::api(&self.state, &mut self.stats, &mut self.pending_local, ctx);
                self.upper.on_direct(&mut api, from, payload);
                self.drain_local(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, token: u64) {
        if token >= UPPER_TIMER_BASE {
            let mut api = Self::api(&self.state, &mut self.stats, &mut self.pending_local, ctx);
            self.upper.on_timer(&mut api, token - UPPER_TIMER_BASE);
            self.drain_local(ctx);
        } else if token == TIMER_MAINTENANCE {
            self.maintenance_tick(ctx);
        }
    }

    fn on_send_failed(&mut self, ctx: &mut Ctx<'_, Self::Msg>, peer: NodeIdx) {
        // Transport-level failure (the paper's substrate reacts to broken
        // TCP connections): purge the peer from all routing structures and
        // tell the upper layer so trees can repair immediately.
        if self.peers.remove_addr(&mut self.state, peer) {
            self.peers.remove(peer);
            self.stats.peers_failed += 1;
        }
        let mut api = Self::api(&self.state, &mut self.stats, &mut self.pending_local, ctx);
        self.upper.on_peer_failed(&mut api, peer);
        self.drain_local(ctx);
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        // Timers were discarded during the outage: re-arm maintenance and
        // re-announce so peers refresh us.
        self.start_maintenance(ctx);
        if !self.joined {
            // The outage swallowed the initial join: retry it.
            if let Some(boot) = self.bootstrap {
                ctx.send(
                    boot,
                    DhtMsg::Join {
                        joiner: self.state.contact(),
                        collected: Vec::new(),
                        hops: 0,
                    },
                );
            }
        }
        let me = self.state.contact();
        ctx.send_all(
            self.state.leaf_set.members().map(|c| c.addr),
            DhtMsg::Announce { contact: me },
        );
        let mut api = Self::api(&self.state, &mut self.stats, &mut self.pending_local, ctx);
        self.upper.on_up(&mut api);
        self.drain_local(ctx);
    }

    /// Protocol state only: each tracked peer counts as the `(address,
    /// stamp)` pair liveness needs, and the [`PeerRecord`]'s memo and spare
    /// slots are derived, rebuildable simulator state that is not counted
    /// (their real cost shows in the process's peak RSS).
    fn memory_bytes(&self) -> usize {
        self.state.memory_bytes()
            + self.upper.memory_bytes()
            + self.peers.len() * std::mem::size_of::<(NodeIdx, SimTime)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use totoro_simnet::Application;

    #[derive(Clone, Debug)]
    struct Nothing;

    impl Payload for Nothing {
        fn size_bytes(&self) -> usize {
            0
        }
    }

    struct Quiet;

    impl UpperLayer for Quiet {
        type P = Nothing;

        fn on_deliver(&mut self, _: &mut DhtApi<'_, '_, Nothing>, _: Id, _: NodeIdx, _: Nothing) {}

        fn on_direct(&mut self, _: &mut DhtApi<'_, '_, Nothing>, _: NodeIdx, _: Nothing) {}
    }

    /// Each tracked peer costs one `(address, stamp)` pair, wherever the
    /// record keeps it (inline or spilled); the memo costs nothing.
    #[test]
    fn memory_bytes_counts_tracked_peers_as_pairs() {
        let mut node = DhtNode::new(Id::new(7 << 100), 0, DhtConfig::default(), None, Quiet);
        let pair = std::mem::size_of::<(NodeIdx, SimTime)>();
        let counted = |node: &DhtNode<Quiet>, tracked: usize| {
            assert_eq!(node.peers.len(), tracked);
            assert_eq!(
                node.memory_bytes(),
                node.state.memory_bytes() + tracked * pair
            );
        };
        counted(&node, 0);
        let wide = u32::MAX as NodeIdx + 1;
        for addr in (1..=40).chain([wide]) {
            node.peers.set(addr, SimTime::ZERO);
        }
        counted(&node, 41);
        // Remembered but not tracked: the first offer changes the state, the
        // second is remembered.
        let c = Contact {
            id: Id::new(9 << 100),
            addr: 99,
        };
        assert!(matches!(
            node.peers.offer(&mut node.state, c, || 1),
            Offer::Changed { .. }
        ));
        assert_eq!(node.peers.offer(&mut node.state, c, || 1), Offer::Unchanged);
        counted(&node, 41);
        for addr in [1, 40, wide] {
            node.peers.remove(addr);
        }
        counted(&node, 38);
    }
}
