//! End-to-end forest tests: tree construction by JOIN-path union,
//! broadcast, in-network aggregation, fanout capping, and repair.

use totoro_dht::{app_id, spawn_overlay, DhtConfig, Id};
use totoro_pubsub::{Forest, ForestApi, ForestApp, ForestConfig, ForestNode, TreeData};
use totoro_simnet::{Payload, Shared, SimDuration, SimTime, Simulator, Topology};

/// Tree data: a sum plus the number of contributions folded in.
#[derive(Clone, Debug, PartialEq)]
struct Sum {
    value: f64,
}

impl Payload for Sum {
    fn size_bytes(&self) -> usize {
        8
    }
}

impl TreeData for Sum {
    fn combine(&mut self, other: &Self) {
        self.value += other.value;
    }
}

/// Test app: every subscriber contributes its address + 1 as a value after
/// 50 ms of simulated "training"; the root records completed rounds.
struct TestApp {
    addr: usize,
    models_seen: Vec<(Id, u64)>,
    aggregated: Vec<(Id, u64, f64, u64)>,
    roots_gained: Vec<Id>,
}

impl TestApp {
    fn new(addr: usize) -> Self {
        TestApp {
            addr,
            models_seen: Vec::new(),
            aggregated: Vec::new(),
            roots_gained: Vec::new(),
        }
    }
}

impl ForestApp for TestApp {
    type Data = Sum;

    fn on_model(
        &mut self,
        _api: &mut ForestApi<'_, '_, '_, Sum>,
        topic: Id,
        round: u64,
        _data: &Shared<Sum>,
    ) -> Option<(Sum, SimDuration)> {
        self.models_seen.push((topic, round));
        Some((
            Sum {
                value: self.addr as f64 + 1.0,
            },
            SimDuration::from_millis(50),
        ))
    }

    fn on_aggregated(
        &mut self,
        _api: &mut ForestApi<'_, '_, '_, Sum>,
        topic: Id,
        round: u64,
        data: Sum,
        count: u64,
    ) {
        self.aggregated.push((topic, round, data.value, count));
    }

    fn on_became_root(&mut self, _api: &mut ForestApi<'_, '_, '_, Sum>, topic: Id) {
        self.roots_gained.push(topic);
    }
}

type Node = ForestNode<TestApp>;

fn build(n: usize, seed: u64, fconfig: ForestConfig) -> Simulator<Node> {
    let topology = Topology::uniform(n, 500, 2_000);
    let (sim, _ids) = spawn_overlay(topology, seed, DhtConfig::default(), None, |i| {
        Forest::new(TestApp::new(i), fconfig)
    });
    sim
}

fn subscribe_all(sim: &mut Simulator<Node>, topic: Id, members: &[usize]) {
    for &i in members {
        sim.with_app(i, |node, ctx| {
            node.with_api(ctx, |forest, dht| {
                forest.with_forest_api(dht, |_app, api| api.subscribe(topic));
            });
        });
    }
}

fn run_secs(sim: &mut Simulator<Node>, to: u64) {
    sim.run_until(SimTime::from_secs(to));
}

fn find_root(sim: &Simulator<Node>, topic: Id) -> Option<usize> {
    (0..sim.len()).find(|&i| {
        sim.app(i)
            .upper
            .state
            .membership(topic)
            .is_some_and(|m| m.is_root)
    })
}

/// All nodes in `node`'s subtree (inclusive), via the children tables.
fn subtree_of(sim: &Simulator<Node>, topic: Id, node: usize) -> Vec<usize> {
    let mut out = vec![node];
    let mut i = 0;
    while i < out.len() {
        let cur = out[i];
        i += 1;
        if let Some(m) = sim.app(cur).upper.state.membership(topic) {
            out.extend(m.children.iter().map(|c| c.addr));
        }
    }
    out
}

fn broadcast_from(sim: &mut Simulator<Node>, root: usize, topic: Id, round: u64) {
    sim.with_app(root, |node, ctx| {
        node.with_api(ctx, |forest, dht| {
            forest.with_forest_api(dht, |_app, api| {
                api.broadcast(topic, round, Sum { value: 0.0 });
            });
        });
    })
    .expect("the broadcasting root is up");
}

#[test]
fn join_paths_union_into_a_single_tree() {
    let mut sim = build(64, 1, ForestConfig::default());
    let topic = app_id("test-app", "alice", 7);
    let members: Vec<usize> = (0..64).collect();
    subscribe_all(&mut sim, topic, &members);
    run_secs(&mut sim, 20);

    // Exactly one root.
    let roots: Vec<usize> = (0..64)
        .filter(|&i| {
            sim.app(i)
                .upper
                .state
                .membership(topic)
                .is_some_and(|m| m.is_root)
        })
        .collect();
    assert_eq!(roots.len(), 1, "roots = {roots:?}");
    let root = roots[0];

    // Every subscriber is attached, and following parents reaches the root
    // without cycles.
    for i in 0..64 {
        let m = sim.app(i).upper.state.membership(topic).expect("member");
        assert!(m.attached(), "node {i} detached");
        let mut cur = i;
        let mut steps = 0;
        while cur != root {
            let m = sim.app(cur).upper.state.membership(topic).unwrap();
            cur = m.parent.expect("non-root has parent").addr;
            steps += 1;
            assert!(steps <= 64, "cycle while walking to root from {i}");
        }
    }

    // Parent/child tables are mutually consistent.
    for i in 0..64 {
        let m = sim.app(i).upper.state.membership(topic).unwrap();
        if let Some(p) = m.parent {
            let pm = sim.app(p.addr).upper.state.membership(topic).unwrap();
            assert!(
                pm.children.iter().any(|c| c.addr == i),
                "parent {} does not list child {i}",
                p.addr
            );
        }
    }
}

#[test]
fn root_is_the_rendezvous_node() {
    let topology = Topology::uniform(50, 500, 2_000);
    let (mut sim, ids) = spawn_overlay(topology, 2, DhtConfig::default(), None, |i| {
        Forest::new(TestApp::new(i), ForestConfig::default())
    });
    let topic = app_id("rendezvous-check", "bob", 1);
    subscribe_all(&mut sim, topic, &(0..50).collect::<Vec<_>>());
    run_secs(&mut sim, 20);
    let root = find_root(&sim, topic).expect("a root exists");
    let want = totoro_dht::closest_on_ring(&ids, topic);
    assert_eq!(root, want, "root is not the numerically closest node");
}

#[test]
fn broadcast_reaches_every_subscriber_and_aggregation_sums() {
    let n = 48;
    let mut sim = build(n, 3, ForestConfig::default());
    let topic = app_id("agg-app", "carol", 2);
    let members: Vec<usize> = (0..n).collect();
    subscribe_all(&mut sim, topic, &members);
    run_secs(&mut sim, 20);
    let root = find_root(&sim, topic).unwrap();

    sim.with_app(root, |node, ctx| {
        node.with_api(ctx, |forest, dht| {
            forest.with_forest_api(dht, |_app, api| {
                api.broadcast(topic, 1, Sum { value: 0.0 });
            });
        });
    });
    run_secs(&mut sim, 120);

    // Every subscriber except possibly the root saw the model.
    let seen = (0..n)
        .filter(|&i| sim.app(i).upper.app.models_seen.contains(&(topic, 1)))
        .count();
    assert!(seen >= n - 1, "only {seen}/{n} subscribers saw the model");

    // The root aggregated the sum of (addr + 1) over all contributors.
    let aggs = &sim.app(root).upper.app.aggregated;
    assert!(!aggs.is_empty(), "no aggregation completed at the root");
    let &(t, r, value, count) = aggs.first().unwrap();
    assert_eq!((t, r), (topic, 1));
    assert_eq!(count as usize, seen, "count mismatch");
    let expected: f64 = (0..n)
        .filter(|&i| sim.app(i).upper.app.models_seen.contains(&(topic, 1)))
        .map(|i| i as f64 + 1.0)
        .sum();
    assert!(
        (value - expected).abs() < 1e-9,
        "aggregated {value}, expected {expected}"
    );
}

#[test]
fn multiple_trees_have_distinct_roots_spread_over_nodes() {
    let n = 100;
    let mut sim = build(n, 4, ForestConfig::default());
    let topics: Vec<Id> = (0..30)
        .map(|k| app_id(&format!("app-{k}"), "dora", k))
        .collect();
    for t in &topics {
        subscribe_all(&mut sim, *t, &(0..n).collect::<Vec<_>>());
    }
    run_secs(&mut sim, 40);

    let mut roots_per_node = vec![0usize; n];
    for t in &topics {
        let root = find_root(&sim, *t).expect("root exists");
        roots_per_node[root] += 1;
    }
    // Load balance: with 30 random AppIds on 100 nodes, no node should be
    // the master of more than a handful of applications.
    let max = *roots_per_node.iter().max().unwrap();
    assert!(max <= 4, "a single node owns {max} masters");
    let total: usize = roots_per_node.iter().sum();
    assert_eq!(total, topics.len());
}

#[test]
fn fanout_cap_pushes_joins_down() {
    let n = 80;
    let cap = 4;
    let fconfig = ForestConfig {
        fanout_cap: cap,
        ..ForestConfig::default()
    };
    let mut sim = build(n, 5, fconfig);
    let topic = app_id("capped", "erin", 3);
    subscribe_all(&mut sim, topic, &(0..n).collect::<Vec<_>>());
    run_secs(&mut sim, 30);

    for i in 0..n {
        if let Some(m) = sim.app(i).upper.state.membership(topic) {
            assert!(
                m.children.len() <= cap,
                "node {i} has {} children (cap {cap})",
                m.children.len()
            );
        }
    }
    // Everyone still attached.
    for i in 0..n {
        assert!(
            sim.app(i)
                .upper
                .state
                .membership(topic)
                .is_some_and(|m| m.attached()),
            "node {i} detached under fanout cap"
        );
    }
    let pushdowns: u64 = (0..n).map(|i| sim.app(i).upper.state.stats.pushdowns).sum();
    assert!(pushdowns > 0, "cap never triggered a push-down");
}

#[test]
fn parent_failure_triggers_rejoin_and_repair() {
    let n = 60;
    let mut sim = build(n, 6, ForestConfig::default());
    let topic = app_id("repair", "frank", 4);
    subscribe_all(&mut sim, topic, &(0..n).collect::<Vec<_>>());
    run_secs(&mut sim, 20);
    let root = find_root(&sim, topic).unwrap();

    // Pick an interior (non-root) node with children and kill it.
    let victim = (0..n)
        .find(|&i| {
            i != root
                && sim
                    .app(i)
                    .upper
                    .state
                    .membership(topic)
                    .is_some_and(|m| !m.children.is_empty())
        })
        .expect("an interior node exists");
    let orphans: Vec<usize> = sim
        .app(victim)
        .upper
        .state
        .membership(topic)
        .unwrap()
        .children
        .iter()
        .map(|c| c.addr)
        .collect();
    sim.schedule_down(victim, SimTime::from_secs(21));
    run_secs(&mut sim, 90);

    for o in orphans {
        let m = sim.app(o).upper.state.membership(topic).unwrap();
        assert!(m.attached(), "orphan {o} still detached after repair");
        assert_ne!(
            m.parent.map(|p| p.addr),
            Some(victim),
            "orphan {o} still points at the dead parent"
        );
        // The repair episode is recorded with a completion time.
        let repaired = sim
            .app(o)
            .upper
            .state
            .repair_events
            .iter()
            .any(|e| e.topic == topic && e.reattached.is_some());
        assert!(repaired, "orphan {o} has no completed repair event");
    }
}

#[test]
fn root_failure_promotes_a_new_master() {
    let n = 40;
    let mut sim = build(n, 7, ForestConfig::default());
    let topic = app_id("takeover", "gary", 5);
    subscribe_all(&mut sim, topic, &(0..n).collect::<Vec<_>>());
    run_secs(&mut sim, 20);
    let old_root = find_root(&sim, topic).unwrap();
    sim.schedule_down(old_root, SimTime::from_secs(21));
    run_secs(&mut sim, 150);

    let new_root = (0..n).filter(|&i| i != old_root).find(|&i| {
        sim.app(i)
            .upper
            .state
            .membership(topic)
            .is_some_and(|m| m.is_root)
    });
    let new_root = new_root.expect("no replacement master was promoted");
    assert!(
        sim.app(new_root).upper.app.roots_gained.contains(&topic),
        "on_became_root not delivered to the new master"
    );
}

#[test]
fn rounds_with_stragglers_flush_by_timeout() {
    let n = 30;
    let fconfig = ForestConfig {
        agg_timeout: SimDuration::from_secs(5),
        ..ForestConfig::default()
    };
    let mut sim = build(n, 8, fconfig);
    let topic = app_id("stragglers", "hana", 6);
    subscribe_all(&mut sim, topic, &(0..n).collect::<Vec<_>>());
    run_secs(&mut sim, 20);
    let root = find_root(&sim, topic).unwrap();

    // Kill a leaf right before the broadcast: its contribution never
    // arrives, yet the root must still complete by timeout.
    let leaf = (0..n)
        .find(|&i| {
            i != root
                && sim
                    .app(i)
                    .upper
                    .state
                    .membership(topic)
                    .is_some_and(|m| m.children.is_empty())
        })
        .expect("a leaf exists");
    sim.schedule_down(leaf, SimTime::from_micros(20_500_000));

    sim.with_app(root, |node, ctx| {
        node.with_api(ctx, |forest, dht| {
            forest.with_forest_api(dht, |_app, api| {
                api.broadcast(topic, 1, Sum { value: 0.0 });
            });
        });
    });
    run_secs(&mut sim, 60);

    let aggs = &sim.app(root).upper.app.aggregated;
    assert!(!aggs.is_empty(), "aggregation never completed");
    let &(_, _, _, count) = aggs.first().unwrap();
    assert!(count >= (n as u64) - 5, "too few contributions: {count}");
    assert!(
        count < n as u64,
        "dead leaf contribution impossibly arrived"
    );
}

#[test]
fn unsubscribed_leaf_detaches() {
    let n = 20;
    let mut sim = build(n, 9, ForestConfig::default());
    let topic = app_id("leave", "iris", 7);
    subscribe_all(&mut sim, topic, &(0..n).collect::<Vec<_>>());
    run_secs(&mut sim, 20);
    let root = find_root(&sim, topic).unwrap();
    let leaf = (0..n)
        .find(|&i| {
            i != root
                && sim
                    .app(i)
                    .upper
                    .state
                    .membership(topic)
                    .is_some_and(|m| m.children.is_empty())
        })
        .unwrap();
    let parent = sim
        .app(leaf)
        .upper
        .state
        .membership(topic)
        .unwrap()
        .parent
        .unwrap()
        .addr;
    sim.with_app(leaf, |node, ctx| {
        node.with_api(ctx, |forest, dht| {
            forest.with_forest_api(dht, |_app, api| api.unsubscribe(topic));
        });
    });
    run_secs(&mut sim, 25);
    assert!(
        !sim.app(parent)
            .upper
            .state
            .membership(topic)
            .unwrap()
            .children
            .iter()
            .any(|c| c.addr == leaf),
        "parent still lists the departed leaf"
    );
}

#[test]
fn bandit_replan_escapes_sustained_flaky_parent() {
    // A parent that keeps blinking (down 2.4s, up 0.4s) never trips the
    // 3-tick hard failure timeout cleanly — but its KL-UCB link cost grows
    // until children proactively replan away from it (§5, §6).
    let n = 40;
    let fconfig = ForestConfig {
        fanout_cap: 4, // Force a deep tree so interior nodes exist.
        ..ForestConfig::default()
    };
    let mut sim = build(n, 20, fconfig);
    let topic = app_id("flaky", "kara", 8);
    subscribe_all(&mut sim, topic, &(0..n).collect::<Vec<_>>());
    run_secs(&mut sim, 20);
    let root = find_root(&sim, topic).unwrap();
    let flaky = (0..n)
        .find(|&i| {
            i != root
                && sim
                    .app(i)
                    .upper
                    .state
                    .membership(topic)
                    .is_some_and(|m| !m.children.is_empty())
        })
        .expect("an interior node with children exists");
    let victims: Vec<usize> = sim
        .app(flaky)
        .upper
        .state
        .membership(topic)
        .unwrap()
        .children
        .iter()
        .map(|c| c.addr)
        .collect();

    // Blink the flaky node for 100 seconds.
    let mut t = 21_000_000u64;
    while t < 120_000_000 {
        sim.schedule_down(flaky, SimTime::from_micros(t));
        sim.schedule_up(flaky, SimTime::from_micros(t + 2_400_000));
        t += 2_800_000;
    }
    run_secs(&mut sim, 180);

    // The former children escaped: attached, and not to the flaky node.
    for v in &victims {
        let m = sim.app(*v).upper.state.membership(topic);
        if let Some(m) = m {
            assert!(m.attached(), "victim {v} left detached");
            assert_ne!(
                m.parent.map(|p| p.addr),
                Some(flaky),
                "victim {v} still glued to the flaky parent"
            );
        }
    }
    let replans: u64 = (0..n).map(|i| sim.app(i).upper.state.stats.replans).sum();
    let repairs: usize = (0..n)
        .map(|i| sim.app(i).upper.state.repair_events.len())
        .sum();
    assert!(
        replans + repairs as u64 > 0,
        "no adaptation happened at all"
    );
}

#[test]
fn round_state_is_pruned_over_long_trainings() {
    let n = 24;
    let mut sim = build(n, 30, ForestConfig::default());
    let topic = app_id("longrun", "lena", 9);
    subscribe_all(&mut sim, topic, &(0..n).collect::<Vec<_>>());
    run_secs(&mut sim, 20);
    let root = find_root(&sim, topic).unwrap();

    for round in 1..=40u64 {
        sim.with_app(root, |node, ctx| {
            node.with_api(ctx, |forest, dht| {
                forest.with_forest_api(dht, |_app, api| {
                    api.broadcast(topic, round, Sum { value: 0.0 });
                });
            });
        });
        let t = sim.now().as_micros() + 3_000_000;
        sim.run_until(SimTime::from_micros(t));
    }

    // Every node's per-round state is bounded (pruned to a window), not 40.
    for i in 0..n {
        if let Some(m) = sim.app(i).upper.state.membership(topic) {
            assert!(
                m.rounds.len() <= 10,
                "node {i} holds {} rounds of state",
                m.rounds.len()
            );
        }
    }
    // And all recent rounds actually completed at the root.
    let completed = sim.app(root).upper.app.aggregated.len();
    assert!(completed >= 35, "only {completed}/40 rounds completed");
}

#[test]
fn node_downed_mid_aggregation_contributes_no_partial_sum() {
    // Chaos-harness regression: an interior node churned down in the middle
    // of a round must not leak its half-built partial aggregate into the
    // completed round — its whole subtree's contribution is simply missing.
    // After revival it must reattach and count exactly once in later rounds.
    let n = 40;
    let fconfig = ForestConfig {
        fanout_cap: 4, // Deep tree: interior nodes with real subtrees.
        agg_timeout: SimDuration::from_secs(5),
        ..ForestConfig::default()
    };
    let mut sim = build(n, 23, fconfig);
    let topic = app_id("mid-agg", "nora", 11);
    subscribe_all(&mut sim, topic, &(0..n).collect::<Vec<_>>());
    run_secs(&mut sim, 20);
    let root = find_root(&sim, topic).unwrap();
    let victim = (0..n)
        .find(|&i| {
            i != root
                && sim
                    .app(i)
                    .upper
                    .state
                    .membership(topic)
                    .is_some_and(|m| !m.is_root && m.parent.is_some() && !m.children.is_empty())
        })
        .expect("an interior non-root node exists");
    let subtree = subtree_of(&sim, topic, victim);
    assert!(subtree.len() >= 2, "victim has no subtree");
    let total: f64 = (0..n).map(|i| i as f64 + 1.0).sum();
    let subtree_sum: f64 = subtree.iter().map(|&i| i as f64 + 1.0).sum();

    broadcast_from(&mut sim, root, topic, 1);
    // 30 ms after the broadcast every subscriber is still inside its 50 ms
    // training window: the victim's round is open and nothing has flushed.
    sim.schedule_down(victim, SimTime::from_micros(20_030_000));
    sim.schedule_up(victim, SimTime::from_secs(40));
    run_secs(&mut sim, 35);

    let aggs = sim.app(root).upper.app.aggregated.clone();
    let &(t, r, value, count) = aggs.first().expect("round 1 never completed");
    assert_eq!((t, r), (topic, 1));
    assert!(
        (count as usize) <= n - subtree.len(),
        "count {count} includes the dead subtree ({} nodes)",
        subtree.len()
    );
    assert!(
        value <= total - subtree_sum + 1e-9,
        "partial aggregate leaked: got {value}, ceiling {}",
        total - subtree_sum
    );

    // The revived node re-arms its maintenance, notices the stale parent,
    // and reattaches bidirectionally to a live parent.
    run_secs(&mut sim, 60);
    let m = sim
        .app(victim)
        .upper
        .state
        .membership(topic)
        .expect("membership survives churn");
    assert!(m.attached(), "revived node never reattached");
    let parent = m.parent.expect("attached non-root has a parent").addr;
    assert!(sim.alive(parent), "reattached to a dead parent");
    assert!(
        sim.app(parent)
            .upper
            .state
            .membership(topic)
            .is_some_and(|pm| pm.children.iter().any(|c| c.addr == victim)),
        "parent {parent} does not list the revived node"
    );

    // A post-revival round is conserved: nobody counts twice.
    broadcast_from(&mut sim, root, topic, 2);
    run_secs(&mut sim, 80);
    assert!(
        sim.app(victim).upper.app.models_seen.contains(&(topic, 2)),
        "revived node missed the post-revival broadcast"
    );
    let aggs = &sim.app(root).upper.app.aggregated;
    let &(_, _, value2, count2) = aggs
        .iter()
        .find(|&&(t, r, _, _)| (t, r) == (topic, 2))
        .expect("round 2 never completed");
    assert!(count2 as usize <= n, "round 2 counted {count2} > {n} nodes");
    assert!(
        value2 <= total + 1e-9,
        "round 2 over-aggregated: {value2} > {total}"
    );
}

#[test]
fn node_downed_mid_join_retries_after_revival() {
    // Chaos-harness regression (the exact failure `totoro-bench chaos
    // --plans churn+stragglers` first surfaced): timers that fire while a node is
    // down are swallowed, so a node churned out while still JOINING
    // revives with `joining = true`, no parent — and, before
    // `UpperLayer::on_up` re-armed the tick chain, no timer left to drive
    // join retries. No DHT failure notification can rescue a node that
    // has no parent to declare dead; it stayed detached forever.
    let n = 60;
    let fconfig = ForestConfig {
        fanout_cap: 4,
        ..ForestConfig::default()
    };
    let mut sim = build(n, 24, fconfig);
    let topic = app_id("zombie", "omar", 12);
    subscribe_all(&mut sim, topic, &(0..n).collect::<Vec<_>>());
    run_secs(&mut sim, 20);
    let root = find_root(&sim, topic).unwrap();
    let (leaf, parent) = (0..n)
        .find_map(|i| {
            let m = sim.app(i).upper.state.membership(topic)?;
            if i == root || !m.children.is_empty() {
                return None;
            }
            let p = m.parent?.addr;
            (p != root).then_some((i, p))
        })
        .expect("a leaf with a non-root parent exists");

    // Kill the parent, and hold the orphan in its joining state by eating
    // every message it sends (its repair JOINs included) until churn takes
    // it down too.
    sim.schedule_down(parent, SimTime::from_secs(21));
    sim.set_fault_filter(Box::new(move |now, src, _dst, _msg| {
        src == leaf && now >= SimTime::from_secs(22) && now < SimTime::from_secs(27)
    }));
    sim.schedule_down(leaf, SimTime::from_secs(27));
    sim.schedule_up(leaf, SimTime::from_secs(34));

    // Sanity: the leaf really was mid-join when it went down.
    sim.run_until(SimTime::from_micros(26_900_000));
    let m = sim.app(leaf).upper.state.membership(topic).unwrap();
    assert!(
        m.joining && m.parent.is_none(),
        "setup failed: leaf was not held in the joining state"
    );

    run_secs(&mut sim, 80);
    let m = sim
        .app(leaf)
        .upper
        .state
        .membership(topic)
        .expect("membership survives churn");
    assert!(m.attached(), "revived leaf is a maintenance zombie");
    let new_parent = m.parent.expect("attached non-root has a parent").addr;
    assert_ne!(new_parent, parent, "reattached to the dead parent");
    assert!(sim.alive(new_parent));
    assert!(
        sim.app(new_parent)
            .upper
            .state
            .membership(topic)
            .is_some_and(|pm| pm.children.iter().any(|c| c.addr == leaf)),
        "new parent does not list the revived leaf"
    );
    assert!(
        sim.app(leaf).upper.state.stats.joins_sent >= 3,
        "the leaf never retried its join after revival"
    );
}

/// Guards the forest's fan-outs (parent heartbeats every tick, broadcasts
/// down the tree) the way `keep_alive_fan_outs_park_once_and_change_nothing`
/// guards the DHT's: the loops they replaced are private to the crate, so
/// the oracle is their own run — the digest and event count below were
/// printed by this body at 639e267, the last commit that sent one
/// `ParentHeartbeat` and one `Broadcast` per child.
#[test]
fn forest_fan_outs_change_no_counter() {
    use totoro_simnet::Application;

    let n = 64;
    let mut sim = build(n, 33, ForestConfig::default());
    let topics: Vec<Id> = (0..3)
        .map(|t| app_id("fan-out", "forest-test", t))
        .collect();
    let everyone: Vec<usize> = (0..n).collect();
    for &topic in &topics {
        subscribe_all(&mut sim, topic, &everyone);
    }
    run_secs(&mut sim, 20);
    for round in 1..=3 {
        for &topic in &topics {
            let root = find_root(&sim, topic).expect("tree has a root");
            broadcast_from(&mut sim, root, topic, round);
        }
        run_secs(&mut sim, 20 + 5 * round);
    }
    let ledger: String = sim
        .apps()
        .map(|node| {
            let forest = node.upper.state.stats;
            format!("{forest:?} {:?} {}\n", node.stats, node.memory_bytes())
        })
        .collect();
    let digest = ledger.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let forwarded: u64 = sim
        .apps()
        .map(|node| node.upper.state.stats.broadcasts_forwarded)
        .sum();
    assert_eq!(
        forwarded,
        3 * 3 * (n as u64 - 1),
        "every round reached everyone"
    );
    assert_eq!(sim.events_processed(), 38_009);
    assert_eq!(digest, 10_397_288_057_434_175_931);
}
