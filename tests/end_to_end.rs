//! End-to-end integration: workload generation → simulation → metrics,
//! through the `fed` facade, exercising the full crate stack together.

use fed::core::behavior::Behavior;
use fed::core::gossip::{GossipConfig, GossipNode};
use fed::core::ledger::RatioSpec;
use fed::metrics::delivery::DeliveryAudit;
use fed::metrics::fairness::ratio_report;
use fed::pubsub::{Command, TopicId};
use fed::sim::network::{LatencyModel, NetworkModel};
use fed::sim::{NodeId, SimDuration, SimTime, Simulation};
use fed::util::rng::Xoshiro256StarStar;
use fed::workload::interest::{Appetite, InterestProfile};
use fed::workload::pubs::{generate_schedule, PubPlan};

struct Setup {
    sim: Simulation<GossipNode>,
    profile: InterestProfile,
    schedule: Vec<fed::workload::pubs::Publication>,
}

fn build(n: usize, cfg: GossipConfig, seed: u64) -> Setup {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let profile =
        InterestProfile::generate(&mut rng, n, 12, 1.0, Appetite::Uniform { lo: 1, hi: 6 })
            .expect("valid parameters");
    let plan = PubPlan {
        rate_per_sec: 15.0,
        duration: SimTime::from_secs(12),
        topic_zipf_s: 1.0,
        payload_bytes: 48,
        warmup: SimTime::from_secs(1),
        flash: None,
    };
    let schedule = generate_schedule(&mut rng, n, 12, &plan).expect("valid plan");
    let net = NetworkModel::reliable(LatencyModel::Uniform {
        lo: SimDuration::from_millis(5),
        hi: SimDuration::from_millis(40),
    });
    let mut sim = Simulation::new(n, net, seed, move |id, _| {
        GossipNode::new(id, n, cfg.clone())
    });
    for i in 0..n {
        for &t in profile.topics_of(i) {
            sim.schedule_command(SimTime::ZERO, NodeId::new(i as u32), Command::Subscribe(t));
        }
    }
    for p in &schedule {
        sim.schedule_command(
            p.at,
            NodeId::new(p.publisher as u32),
            Command::Publish(p.event.clone()),
        );
    }
    Setup {
        sim,
        profile,
        schedule,
    }
}

fn audit(setup: &Setup) -> DeliveryAudit {
    let mut audit = DeliveryAudit::new();
    for p in &setup.schedule {
        audit.expect(
            p.event.id(),
            p.at,
            setup.profile.subscribers_of(p.event.topic()),
        );
    }
    for (id, node) in setup.sim.nodes() {
        for (eid, at) in node.endpoint().deliveries().iter() {
            audit.record(eid, id.index(), at);
        }
    }
    audit
}

#[test]
fn full_stack_delivers_reliably_and_selectively() {
    let mut setup = build(80, GossipConfig::fair(8, 16), 1001);
    setup.sim.run_until(SimTime::from_secs(18));
    let a = audit(&setup);
    assert!(a.num_events() > 100, "workload produced {}", a.num_events());
    assert!(a.reliability() > 0.999, "reliability {}", a.reliability());
    assert_eq!(a.spurious(), 0, "ISINTERESTED never violated");
    assert!(a.atomicity() > 0.99, "atomicity {}", a.atomicity());
    // Latency is bounded by a handful of gossip rounds.
    let lat = a.latency_ms();
    assert!(lat.median().expect("deliveries exist") < 1_500.0);
}

#[test]
fn fair_beats_classic_on_the_same_workload() {
    let spec = RatioSpec::topic_based();
    let mut classic = build(80, GossipConfig::classic(8, 16), 2002);
    classic.sim.run_until(SimTime::from_secs(18));
    let mut fair = build(80, GossipConfig::fair(8, 16), 2002);
    fair.sim.run_until(SimTime::from_secs(18));

    let classic_fairness = ratio_report(
        classic.sim.nodes().map(|(_, p)| p.endpoint().ledger()),
        &spec,
    );
    let fair_fairness = ratio_report(fair.sim.nodes().map(|(_, p)| p.endpoint().ledger()), &spec);
    assert!(
        fair_fairness.jain > classic_fairness.jain + 0.1,
        "fair {} vs classic {}",
        fair_fairness.jain,
        classic_fairness.jain
    );
    assert!(audit(&classic).reliability() > 0.999);
    assert!(audit(&fair).reliability() > 0.999);
}

#[test]
fn free_riders_cannot_crash_reliability() {
    let n = 80;
    let mut rng = Xoshiro256StarStar::seed_from_u64(3003);
    let profile =
        InterestProfile::generate(&mut rng, n, 12, 1.0, Appetite::Fixed(2)).expect("valid");
    let plan = PubPlan {
        rate_per_sec: 10.0,
        duration: SimTime::from_secs(10),
        topic_zipf_s: 0.5,
        payload_bytes: 32,
        warmup: SimTime::from_secs(1),
        flash: None,
    };
    let schedule = generate_schedule(&mut rng, n, 12, &plan).expect("valid");
    let cfg = GossipConfig::fair(8, 16);
    let mut sim = Simulation::new(n, NetworkModel::default(), 3003, move |id, _| {
        let behavior = if id.index() % 5 == 0 {
            Behavior::FreeRider {
                fanout_cap: 0.5,
                advertised_benefit_scale: 0.1,
            }
        } else {
            Behavior::Honest
        };
        GossipNode::with_behavior(id, n, cfg.clone(), behavior)
    });
    for i in 0..n {
        for &t in profile.topics_of(i) {
            sim.schedule_command(SimTime::ZERO, NodeId::new(i as u32), Command::Subscribe(t));
        }
    }
    for p in &schedule {
        sim.schedule_command(
            p.at,
            NodeId::new(p.publisher as u32),
            Command::Publish(p.event.clone()),
        );
    }
    sim.run_until(SimTime::from_secs(16));
    let mut a = DeliveryAudit::new();
    for p in &schedule {
        a.expect(p.event.id(), p.at, profile.subscribers_of(p.event.topic()));
    }
    for (id, node) in sim.nodes() {
        for (eid, at) in node.endpoint().deliveries().iter() {
            a.record(eid, id.index(), at);
        }
    }
    assert!(
        a.reliability() > 0.98,
        "20% free riders must not sink dissemination: {}",
        a.reliability()
    );
}

#[test]
fn churned_nodes_recover_and_catch_new_events() {
    let mut setup = build(60, GossipConfig::fair(8, 16), 4004);
    // Crash a third of the population mid-run, rejoin them later.
    for i in 0..20u32 {
        setup
            .sim
            .schedule_crash(SimTime::from_secs(4), NodeId::new(i));
        setup
            .sim
            .schedule_join(SimTime::from_secs(8), NodeId::new(i));
        // Rejoined nodes need their subscriptions re-issued (fresh state).
        for &t in setup.profile.topics_of(i as usize) {
            setup.sim.schedule_command(
                SimTime::from_secs(8),
                NodeId::new(i),
                Command::Subscribe(t),
            );
        }
    }
    setup.sim.run_until(SimTime::from_secs(20));
    // Events published after the rejoin must reach rejoined subscribers.
    let late_events: Vec<_> = setup
        .schedule
        .iter()
        .filter(|p| p.at > SimTime::from_secs(9))
        .collect();
    assert!(!late_events.is_empty());
    let mut missed = 0usize;
    let mut expected = 0usize;
    for p in &late_events {
        for sub in setup.profile.subscribers_of(p.event.topic()) {
            if sub < 20 {
                expected += 1;
                let node = setup.sim.node(NodeId::new(sub as u32)).expect("exists");
                if !node.endpoint().deliveries().contains(p.event.id()) {
                    missed += 1;
                }
            }
        }
    }
    assert!(expected > 0, "some late events target rejoined nodes");
    let miss_rate = missed as f64 / expected as f64;
    assert!(
        miss_rate < 0.05,
        "rejoined nodes must catch up: missed {missed}/{expected}"
    );
}

#[test]
fn message_counts_match_between_engine_and_ledgers() {
    // Cross-crate consistency: the engine's transport stats and the
    // protocol's own fairness ledger must agree on messages sent.
    let mut setup = build(40, GossipConfig::classic(6, 16), 5005);
    setup.sim.run_until(SimTime::from_secs(18));
    for (id, node) in setup.sim.nodes() {
        let ledger = node.endpoint().ledger().totals();
        let transport = setup.sim.transport_stats(id);
        assert_eq!(
            ledger.forwarded_msgs, transport.msgs_sent,
            "{id}: ledger vs engine"
        );
    }
}

#[test]
fn topic_isolation_holds_across_the_stack() {
    // Publish on one topic only; subscribers of other topics stay silent.
    let n = 30;
    let cfg = GossipConfig::classic(5, 8);
    let mut sim: Simulation<GossipNode> =
        Simulation::new(n, NetworkModel::default(), 6006, move |id, _| {
            GossipNode::new(id, n, cfg.clone())
        });
    for i in 0..n {
        let topic = TopicId::new((i % 3) as u32);
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            Command::Subscribe(topic),
        );
    }
    for k in 0..20u32 {
        sim.schedule_command(
            SimTime::from_millis(500 + 100 * k as u64),
            NodeId::new(0),
            Command::Publish(fed::pubsub::Event::bare(
                fed::pubsub::EventId::new(0, k),
                TopicId::new(0),
            )),
        );
    }
    sim.run_until(SimTime::from_secs(10));
    for (id, node) in sim.nodes() {
        if id.index() % 3 == 0 {
            assert_eq!(node.endpoint().deliveries().len(), 20, "{id}");
        } else {
            assert!(node.endpoint().deliveries().is_empty(), "{id}");
        }
    }
}
