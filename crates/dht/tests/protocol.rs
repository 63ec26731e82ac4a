//! Protocol-level DHT tests: nodes join over the network, route keys, and
//! detect failures — no omniscient construction involved.

use totoro_dht::{closest_on_ring, node_id, DhtApi, DhtConfig, DhtNode, Id, UpperLayer};
use totoro_simnet::json::ToJson;
use totoro_simnet::{sub_rng, NodeIdx, Payload, SimTime, Simulator, Topology};

/// A minimal upper layer that records deliveries and failures.
#[derive(Default)]
struct Recorder {
    delivered: Vec<(Id, u64)>,
    directs: Vec<u64>,
    failed_peers: Vec<NodeIdx>,
}

#[derive(Clone, Debug)]
struct Blob(u64);

impl Payload for Blob {
    fn size_bytes(&self) -> usize {
        8
    }
}

impl UpperLayer for Recorder {
    type P = Blob;

    fn on_deliver(&mut self, _api: &mut DhtApi<'_, '_, Blob>, key: Id, _origin: NodeIdx, p: Blob) {
        self.delivered.push((key, p.0));
    }

    fn on_direct(&mut self, _api: &mut DhtApi<'_, '_, Blob>, _from: NodeIdx, p: Blob) {
        self.directs.push(p.0);
    }

    fn on_peer_failed(&mut self, _api: &mut DhtApi<'_, '_, Blob>, addr: NodeIdx) {
        self.failed_peers.push(addr);
    }
}

type Node = DhtNode<Recorder>;

/// Builds a simulator where node 0 bootstraps the overlay and nodes join
/// through it at staggered times (via their `on_start`).
fn join_sim(n: usize, seed: u64) -> (Simulator<Node>, Vec<Id>) {
    let topology = Topology::uniform(n, 500, 2_000);
    let ids: Vec<Id> = (0..n)
        .map(|i| node_id(&format!("node-{i}:{seed}")))
        .collect();
    let ids2 = ids.clone();
    let sim = Simulator::new(topology, seed, move |i| {
        let bootstrap = if i == 0 { None } else { Some(0) };
        DhtNode::new(
            ids2[i],
            i,
            DhtConfig::default(),
            bootstrap,
            Recorder::default(),
        )
    });
    (sim, ids)
}

/// Lets the overlay converge: joins + a few gossip rounds.
fn converge(sim: &mut Simulator<Node>, secs: u64) {
    sim.run_until(SimTime::from_micros(secs * 1_000_000));
}

#[test]
fn all_nodes_join_through_bootstrap() {
    let (mut sim, _ids) = join_sim(40, 7);
    converge(&mut sim, 30);
    for i in 0..40 {
        assert!(sim.app(i).joined(), "node {i} failed to join");
        assert!(
            sim.app(i).state.leaf_set.len() >= 2,
            "node {i} has a degenerate leaf set"
        );
    }
}

#[test]
fn routing_reaches_numerically_closest_node() {
    let (mut sim, ids) = join_sim(40, 8);
    converge(&mut sim, 30);

    let mut sorted = ids.clone();
    sorted.sort();

    let mut rng = sub_rng(8, "keys");
    for t in 0..20u64 {
        let key = Id::new(rand::Rng::gen::<u128>(&mut rng));
        let src = (t as usize * 7) % 40;
        sim.with_app(src, |node, ctx| {
            node.with_api(ctx, |_upper, api| {
                assert!(api.route(key, Blob(t), false));
            });
        });
        converge(&mut sim, 30 + t + 1);
        let want_id = sorted[closest_on_ring(&sorted, key)];
        let dest = ids.iter().position(|&x| x == want_id).unwrap();
        assert!(
            sim.app(dest)
                .upper
                .delivered
                .iter()
                .any(|&(k, v)| k == key && v == t),
            "packet {t} not delivered at closest node"
        );
    }
}

#[test]
fn delivery_hops_stay_logarithmic() {
    let (mut sim, _ids) = join_sim(60, 9);
    converge(&mut sim, 30);
    let mut rng = sub_rng(9, "keys");
    for t in 0..30u64 {
        let key = Id::new(rand::Rng::gen::<u128>(&mut rng));
        let src = (t as usize * 11) % 60;
        sim.with_app(src, |node, ctx| {
            node.with_api(ctx, |_u, api| {
                api.route(key, Blob(t), false);
            });
        });
    }
    converge(&mut sim, 60);
    let max_hops = (0..60).map(|i| sim.app(i).stats.hops_max).max().unwrap();
    // ceil(log_16(60)) = 2 plus leaf slack; joined-by-protocol tables are
    // sparser than oracle ones, so allow generous but still-log headroom.
    assert!(max_hops <= 6, "max hops = {max_hops}");
}

#[test]
fn direct_messages_bypass_routing() {
    let (mut sim, _ids) = join_sim(5, 10);
    converge(&mut sim, 20);
    sim.with_app(1, |node, ctx| {
        node.with_api(ctx, |_u, api| api.send_direct(3, Blob(99)));
    });
    converge(&mut sim, 21);
    assert_eq!(sim.app(3).upper.directs, vec![99]);
}

#[test]
fn failed_leaf_peer_is_detected_and_removed() {
    let (mut sim, _ids) = join_sim(12, 11);
    converge(&mut sim, 30);
    // Find a leaf peer of node 0 and kill it.
    let victim = sim
        .app(0)
        .state
        .leaf_set
        .successor()
        .expect("node 0 has a successor")
        .addr;
    sim.schedule_down(victim, SimTime::from_micros(31_000_000));
    converge(&mut sim, 60);
    assert!(
        sim.app(0).upper.failed_peers.contains(&victim),
        "failure of {victim} was not reported to the upper layer"
    );
    assert!(
        !sim.app(0)
            .state
            .leaf_set
            .members()
            .any(|c| c.addr == victim),
        "failed peer still in leaf set"
    );
}

#[test]
fn leaf_sets_refill_after_failure() {
    let (mut sim, _ids) = join_sim(20, 12);
    converge(&mut sim, 30);
    let victim = sim.app(5).state.leaf_set.successor().unwrap().addr;
    sim.schedule_down(victim, SimTime::from_micros(31_000_000));
    converge(&mut sim, 90);
    // Gossip should have refilled the leaf set to a healthy size.
    assert!(
        sim.app(5).state.leaf_set.len() >= 4,
        "leaf set did not refill: {}",
        sim.app(5).state.leaf_set.len()
    );
}

#[test]
fn zone_restricted_packets_never_cross_zones() {
    // Build a 2-zone overlay: ids composed with zone bits, join through a
    // bootstrap in each zone... here all through node 0 for simplicity;
    // isolation is enforced at routing time regardless of join order.
    let n = 24;
    let zone_bits = 4;
    let mut rng = sub_rng(13, "zones");
    let zones: Vec<u16> = (0..n).map(|i| if i < n / 2 { 1 } else { 9 }).collect();
    let ids = totoro_dht::ids_for_zones(&zones, zone_bits, &mut rng);
    let config = DhtConfig {
        zone_bits,
        ..DhtConfig::default()
    };
    let ids2 = ids.clone();
    let topology = Topology::uniform(n, 500, 2_000);
    let mut sim = Simulator::new(topology, 13, move |i| {
        let bootstrap = if i == 0 { None } else { Some(0) };
        DhtNode::new(ids2[i], i, config, bootstrap, Recorder::default())
    });
    converge(&mut sim, 40);

    // A zone-1 node routes a restricted packet keyed into zone 9: blocked.
    let foreign_key = Id::compose(9, zone_bits, 12345);
    let accepted = sim
        .with_app(0, |node, ctx| {
            node.with_api(ctx, |_u, api| api.route(foreign_key, Blob(1), true))
        })
        .expect("node 0 is up");
    assert!(!accepted, "restricted packet escaped its zone");
    assert!(sim.app(0).stats.blocked >= 1);

    // A restricted packet keyed inside the home zone is delivered, and only
    // zone-1 nodes ever see it.
    let home_key = Id::compose(1, zone_bits, 999);
    let accepted = sim
        .with_app(0, |node, ctx| {
            node.with_api(ctx, |_u, api| api.route(home_key, Blob(2), true))
        })
        .expect("node 0 is up");
    assert!(accepted);
    converge(&mut sim, 60);
    let delivered_at: Vec<usize> = (0..n)
        .filter(|&i| sim.app(i).upper.delivered.iter().any(|&(_, v)| v == 2))
        .collect();
    assert_eq!(delivered_at.len(), 1, "restricted packet not delivered");
    assert!(delivered_at[0] < n / 2, "delivered in the foreign zone");
}

#[test]
fn node_revival_reannounces() {
    let (mut sim, _ids) = join_sim(10, 14);
    converge(&mut sim, 30);
    sim.schedule_down(4, SimTime::from_micros(31_000_000));
    sim.schedule_up(4, SimTime::from_micros(40_000_000));
    converge(&mut sim, 120);
    // After revival and gossip, node 4 is back in someone's leaf set.
    let known = (0..10)
        .filter(|&i| i != 4)
        .any(|i| sim.app(i).state.leaf_set.members().any(|c| c.addr == 4));
    assert!(known, "revived node was forgotten by the whole overlay");
}

#[test]
fn proximity_selection_lowers_route_stretch() {
    // Pastry's locality property: with proximity neighbor selection, the
    // total RTT of a route shrinks relative to arbitrary slot filling.
    use totoro_dht::{build_states, build_states_with_proximity, random_ids, NextHop};
    use totoro_simnet::geo::{eua_regions_scaled, generate};
    use totoro_simnet::{LatencyModel, Topology};

    let mut rng = sub_rng(77, "pns");
    let nodes = generate(&eua_regions_scaled(600), &mut rng);
    let topology = Topology::from_placements(
        &nodes,
        LatencyModel::Geo {
            base_us: 200,
            per_km_us: 10.0,
        },
    );
    let n = topology.len();
    let ids = random_ids(n, &mut rng);

    let plain = build_states(&ids, DhtConfig::default());
    let pns = build_states_with_proximity(&ids, DhtConfig::default(), &topology);

    let total_rtt = |states: &[totoro_dht::DhtState]| -> u64 {
        let mut rng = sub_rng(78, "keys");
        let mut total = 0u64;
        for t in 0..300usize {
            let key = Id::new(rand::Rng::gen::<u128>(&mut rng));
            let mut cur = t % n;
            let mut hops = 0;
            loop {
                match totoro_dht::next_hop(&states[cur], key) {
                    NextHop::Deliver => break,
                    NextHop::Forward(c) => {
                        total += topology.rtt(cur, c.addr).as_micros();
                        cur = c.addr;
                    }
                }
                hops += 1;
                assert!(hops < 64);
            }
        }
        total
    };
    let rtt_plain = total_rtt(&plain);
    let rtt_pns = total_rtt(&pns);
    assert!(
        rtt_pns < rtt_plain,
        "proximity selection did not reduce route RTT: {rtt_pns} vs {rtt_plain}"
    );
}

#[test]
fn staggered_joins_grow_a_healthy_overlay() {
    // Nodes arrive over time (not all at t=0): late joiners must integrate
    // into leaf sets and be routable.
    let n = 30;
    let topology = Topology::uniform(n, 500, 2_000);
    let ids: Vec<Id> = (0..n).map(|i| node_id(&format!("st-{i}"))).collect();
    let ids2 = ids.clone();
    let mut sim = Simulator::new(topology, 99, move |i| {
        let bootstrap = if i == 0 { None } else { Some(0) };
        DhtNode::new(
            ids2[i],
            i,
            DhtConfig::default(),
            bootstrap,
            Recorder::default(),
        )
    });
    // Hold back the last 10 nodes: take them down before start, revive in
    // waves (their start-time join is lost; re-join happens on revival).
    for i in 20..30 {
        sim.schedule_down(i, SimTime::from_micros(0));
        sim.schedule_up(
            i,
            SimTime::from_micros((10 + (i as u64 - 20) * 5) * 1_000_000),
        );
    }
    sim.run_until(SimTime::from_micros(120 * 1_000_000));

    // Everyone alive and (re)joined; the late wave is reachable by routing.
    let mut sorted = ids.clone();
    sorted.sort();
    let mut rng = sub_rng(99, "keys");
    for t in 0..10u64 {
        let key = Id::new(rand::Rng::gen::<u128>(&mut rng));
        sim.with_app((t as usize) % 20, |node, ctx| {
            node.with_api(ctx, |_u, api| {
                api.route(key, Blob(t), false);
            });
        });
    }
    sim.run_until(SimTime::from_micros(150 * 1_000_000));
    let delivered: usize = (0..n).map(|i| sim.app(i).upper.delivered.len()).sum();
    assert_eq!(delivered, 10, "some packets were lost");
}

/// 64 nodes placed over the EUA regions with geographic RTTs: a uniform
/// topology ties every pair, and a tied neighbourhood set never settles
/// (see `NeighborhoodSet::consider`).
fn geo_topology() -> Topology {
    use totoro_simnet::geo::{eua_regions_scaled, generate};
    use totoro_simnet::LatencyModel;

    let mut placed = generate(&eua_regions_scaled(64), &mut sub_rng(21, "memo"));
    placed.truncate(64);
    let latency = LatencyModel::Geo {
        base_us: 200,
        per_km_us: 10.0,
    };
    Topology::from_placements(&placed, latency)
}

/// Guards the O(1) keep-alive receive path with counts, not wall time: on a
/// settled overlay nearly every offer is a remembered no-op and is skipped;
/// a failure makes its neighbours forget (their next offers run in full),
/// and the skip ratio recovers once the leaf sets have refilled.
#[test]
fn settled_overlay_skips_known_no_op_offers() {
    let topology = geo_topology();
    let n = topology.len();
    let (mut sim, _ids) =
        totoro_dht::spawn_overlay(topology, 21, DhtConfig::default(), None, |_| {
            Recorder::default()
        });

    // (offers, offers skipped) over all nodes, and one node's full offers.
    let totals = |sim: &Simulator<Node>| {
        (0..n).fold((0, 0), |(o, s), i| {
            let st = sim.app(i).stats;
            (o + st.offers, s + st.offers_skipped)
        })
    };
    let full = |sim: &Simulator<Node>, i: usize| {
        let st = sim.app(i).stats;
        st.offers - st.offers_skipped
    };
    let skip_ratio = |sim: &mut Simulator<Node>, from_s: u64| {
        converge(sim, from_s);
        let (o0, s0) = totals(sim);
        converge(sim, from_s + 60);
        let (o1, s1) = totals(sim);
        (s1 - s0) as f64 / (o1 - o0) as f64
    };

    let settled = skip_ratio(&mut sim, 60);
    assert!(settled >= 0.95, "settled skip ratio {settled}");

    let victim = sim.app(0).state.leaf_set.successor().unwrap().addr;
    let neighbours: Vec<usize> = (0..n)
        .filter(|&i| {
            sim.app(i)
                .state
                .leaf_set
                .members()
                .any(|c| c.addr == victim)
        })
        .collect();
    assert!(neighbours.len() >= 2);
    let before: Vec<u64> = neighbours.iter().map(|&i| full(&sim, i)).collect();
    sim.schedule_down(victim, SimTime::from_micros(121_000_000));
    converge(&mut sim, 135);
    for (&i, &before) in neighbours.iter().zip(&before) {
        let node = sim.app(i);
        assert!(!node.state.leaf_set.members().any(|c| c.addr == victim));
        // Forgetting everything means each leaf member's next keep-alive
        // is offered in full again.
        let refilled = full(&sim, i) - before;
        assert!(
            refilled >= node.state.leaf_set.len() as u64,
            "node {i} ran only {refilled} offers in full after losing {victim}"
        );
    }

    let recovered = skip_ratio(&mut sim, 150);
    assert!(recovered >= 0.95, "recovered skip ratio {recovered}");
}

/// FNV-1a, for fingerprints that do not depend on `std`'s hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every node's counters and memory footprint, one line each.
fn ledger<U: UpperLayer>(sim: &Simulator<DhtNode<U>>) -> String {
    use totoro_simnet::Application;
    sim.apps()
        .map(|node| format!("{:?} {}\n", node.stats, node.memory_bytes()))
        .collect()
}

/// The forest's keep-alive in miniature: every half second, one beacon to
/// every leaf-set member — spelled as one fan-out, or as the
/// per-destination loop every fan-out in the stack was before
/// `send_direct_all` existed, kept here as the oracle.
struct Beacon {
    looped: bool,
    round: u64,
    heard: Vec<(NodeIdx, u64)>,
}

impl Beacon {
    fn new(looped: bool) -> Self {
        Beacon {
            looped,
            round: 0,
            heard: Vec::new(),
        }
    }

    const EVERY: totoro_simnet::SimDuration = totoro_simnet::SimDuration::from_millis(500);
}

impl UpperLayer for Beacon {
    type P = Blob;

    fn on_start(&mut self, api: &mut DhtApi<'_, '_, Blob>) {
        api.set_timer(Self::EVERY, 0);
    }

    fn on_timer(&mut self, api: &mut DhtApi<'_, '_, Blob>, token: u64) {
        self.round += 1;
        let members = api.state.leaf_set.members().map(|c| c.addr);
        if self.looped {
            for addr in members.collect::<Vec<_>>() {
                api.send_direct(addr, Blob(self.round));
            }
        } else {
            api.send_direct_all(members, Blob(self.round));
        }
        api.set_timer(Self::EVERY, token);
    }

    fn on_deliver(&mut self, _: &mut DhtApi<'_, '_, Blob>, _: Id, _: NodeIdx, _: Blob) {}

    fn on_direct(&mut self, _api: &mut DhtApi<'_, '_, Blob>, from: NodeIdx, p: Blob) {
        self.heard.push((from, p.0));
    }

    fn memory_bytes(&self) -> usize {
        self.heard.len() * std::mem::size_of::<(NodeIdx, u64)>()
    }
}

/// Guards the keep-alive *send* path with counts, not wall time: a fan-out
/// parks its message once, so a settled overlay holds a few payloads per
/// node where it used to hold one per (node, leaf member) — and nothing
/// the protocol can observe moved.
#[test]
fn keep_alive_fan_outs_park_once_and_change_nothing() {
    let spawn = || {
        totoro_dht::spawn_overlay(geo_topology(), 21, DhtConfig::default(), None, |_| {
            Recorder::default()
        })
        .0
    };
    let mut sim = spawn();
    let n = sim.len();
    converge(&mut sim, 120);
    let leaf = sim.app(0).state.leaf_set.len();
    assert!(
        leaf >= 16,
        "leaf sets must be wide for the bound to mean much"
    );
    // Every tick's heartbeats are in flight at once. One slot per fan-out
    // keeps the slab inside its `4 x nodes` reservation; one per
    // destination needed `leaf x nodes`.
    assert!(
        sim.event_slots() < n * 4,
        "{} payload slots for {n} nodes with {leaf}-member leaf sets",
        sim.event_slots()
    );
    // The DHT's own fan-outs are private to it, so their oracle is the run
    // of the per-destination loops itself: this digest and event count
    // were printed by this very body at 639e267, the last commit whose
    // maintenance tick sent one `Heartbeat` per leaf member.
    assert_eq!(sim.events_processed(), 94_528);
    assert_eq!(fnv1a(ledger(&sim).as_bytes()), 5_519_661_679_685_103_132);

    // An upper layer's fan-outs can be spelled both ways side by side.
    let beacons = |looped| {
        let (mut sim, _ids) =
            totoro_dht::spawn_overlay(geo_topology(), 21, DhtConfig::default(), None, |_| {
                Beacon::new(looped)
            });
        sim.run_until(SimTime::from_micros(60_000_000));
        let heard: Vec<_> = sim.apps().map(|node| node.upper.heard.clone()).collect();
        let report = totoro_simnet::TrialReport::capture(&sim).to_json();
        (ledger(&sim), heard, report, sim.event_slots())
    };
    let (fanned, looped) = (beacons(false), beacons(true));
    assert!(fanned.1.iter().all(|heard| heard.len() >= 100 * leaf / 2));
    assert_eq!(fanned.0, looped.0, "DhtStats or memory_bytes moved");
    assert_eq!(
        fanned.1, looped.1,
        "a beacon arrived elsewhere or out of order"
    );
    assert_eq!(fanned.2, looped.2, "the trial report moved");
    // Two timers and two fan-outs a node; against a slot per beacon.
    assert!(
        fanned.3 <= n * 4 && looped.3 > n * leaf,
        "{} slots fanned out, {} looped",
        fanned.3,
        looped.3
    );
}
