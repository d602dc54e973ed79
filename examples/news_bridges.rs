//! News desk: data-aware multicast and the supertopic-bridge problem the
//! paper's §4.2 highlights.
//!
//! ```text
//! cargo run --release --example news_bridges
//! ```
//!
//! A newsroom's leaf topics (`football`, `politics`) are served by
//! per-topic gossip groups. Desk editors subscribe to the leaf they read;
//! field reporters publish into the leaves. Two "wire service" nodes are
//! enrolled in every group as the bridges that keep a topic hierarchy
//! navigable, without subscribing to anything: they pay for it with
//! uncompensated forwarding — measurably, and the example asserts it.

use fed::baselines::dam::{DamNode, GroupTable};
use fed::core::ledger::RatioSpec;
use fed::pubsub::{Command, Event, EventId, TopicId};
use fed::sim::network::NetworkModel;
use fed::sim::{NodeId, SimTime, Simulation};
use std::sync::Arc;

fn main() {
    // The leaves of the newsroom's tree (`news` = 0 and `news/sport` = 1
    // are the inner topics nobody publishes to).
    let football = TopicId::new(2);
    let politics = TopicId::new(3);

    let n = 48;
    // Groups: subscribers per leaf topic plus two bridge nodes (0, 1)
    // enrolled everywhere. A group lists its members in ascending order,
    // so the bridges come first.
    let mut groups = GroupTable::default();
    let football_members: Vec<NodeId> = (10..20).map(NodeId::new).collect();
    let politics_members: Vec<NodeId> = (20..30).map(NodeId::new).collect();
    let bridges: Vec<NodeId> = vec![NodeId::new(0), NodeId::new(1)];
    groups.insert(
        football,
        bridges.iter().chain(&football_members).copied().collect(),
    );
    groups.insert(
        politics,
        bridges.iter().chain(&politics_members).copied().collect(),
    );

    let groups = Arc::new(groups);
    let mut sim = Simulation::new(n, NetworkModel::default(), 11, move |id, _| {
        DamNode::new(id, Arc::clone(&groups))
    });

    // Desk editors subscribe to the leaf they read.
    for m in &football_members {
        sim.schedule_command(SimTime::ZERO, *m, Command::Subscribe(football));
    }
    for m in &politics_members {
        sim.schedule_command(SimTime::ZERO, *m, Command::Subscribe(politics));
    }

    // Field reporters publish into the leaves.
    for k in 0..60u32 {
        let (topic, reporter) = if k % 2 == 0 {
            (football, NodeId::new(40))
        } else {
            (politics, NodeId::new(41))
        };
        sim.schedule_command(
            SimTime::from_millis(500 + 100 * k as u64),
            reporter,
            Command::Publish(Event::bare(EventId::new(reporter.as_u32(), k), topic)),
        );
    }

    sim.run_until(SimTime::from_secs(20));

    let spec = RatioSpec::topic_based();
    println!("news hierarchy over data-aware multicast (n={n})");
    println!(
        "{:<22} {:>9} {:>9} {:>8}",
        "role", "forwarded", "delivered", "ratio"
    );
    let show = |label: &str, id: NodeId| {
        let node = sim.node(id).expect("node exists");
        let t = node.endpoint().ledger().totals();
        println!(
            "{:<22} {:>9} {:>9} {:>8.2}",
            label,
            t.forwarded_msgs,
            t.delivered_events,
            node.endpoint().ledger().ratio(&spec)
        );
        (t.forwarded_msgs, t.delivered_events)
    };
    for bridge in &bridges {
        let (forwarded, delivered) = show("bridge (wire service)", *bridge);
        assert!(forwarded > 0, "{bridge} forwards the desks' traffic");
        assert_eq!(delivered, 0, "{bridge} has no interest to serve");
    }
    for (label, editor) in [
        ("sport desk editor", NodeId::new(12)),
        ("politics desk editor", NodeId::new(22)),
    ] {
        let (_, delivered) = show(label, editor);
        assert!(delivered > 0, "the {label} reads its leaf");
    }
    show("uninvolved node", NodeId::new(45));
    println!();
    println!("the bridges forward both desks' traffic while delivering none of");
    println!("it — the supertopic cost the paper says data-aware multicast");
    println!("pushes onto its hierarchy keepers (§4.2).");
}
