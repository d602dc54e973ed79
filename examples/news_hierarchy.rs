//! News desk: topic hierarchies and data-aware multicast, including the
//! supertopic-bridge problem the paper's §4.2 highlights.
//!
//! ```text
//! cargo run --release --example news_hierarchy
//! ```
//!
//! A newsroom topic tree (`news` → `news/sport` → `news/sport/football`,
//! …) is served by per-topic gossip groups. Desk editors subscribe to
//! whole subtrees; field reporters publish into leaves. A few "wire
//! service" nodes are enrolled as supertopic bridges: they keep the
//! hierarchy connected and pay for it with uncompensated forwarding —
//! measurably.

use fed::baselines::dam::{DamCmd, DamConfig, DamNode, GroupTable};
use fed::core::ledger::RatioSpec;
use fed::pubsub::{Event, EventId, TopicSpace};
use fed::sim::network::NetworkModel;
use fed::sim::{NodeId, SimTime, Simulation};
use std::sync::Arc;

fn main() {
    // Build the topic tree.
    let mut space = TopicSpace::new();
    let news = space.register("news").expect("fresh space");
    let sport = space.register_under("news/sport", news).expect("fresh");
    let football = space
        .register_under("news/sport/football", sport)
        .expect("fresh");
    let politics = space.register_under("news/politics", news).expect("fresh");

    let n = 48;
    // Groups: subscribers per leaf topic plus two bridge nodes (0, 1)
    // enrolled everywhere to keep the hierarchy navigable. A group lists
    // its members in ascending order, so the bridges come first.
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
    let space_arc = Arc::new(space.clone());
    let mut sim = Simulation::new(n, NetworkModel::default(), 11, move |id, _| {
        DamNode::new(
            id,
            DamConfig::default(),
            Arc::clone(&groups),
            Arc::clone(&space_arc),
        )
    });

    // Desk editors subscribe: the sport desk takes the whole `news/sport`
    // subtree, the politics desk its own branch.
    for m in &football_members {
        sim.schedule_command(SimTime::ZERO, *m, DamCmd::SubscribeTopic(sport));
    }
    for m in &politics_members {
        sim.schedule_command(SimTime::ZERO, *m, DamCmd::SubscribeTopic(politics));
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
            DamCmd::Publish(Event::bare(EventId::new(reporter.as_u32(), k), topic)),
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
    };
    show("bridge (wire service)", NodeId::new(0));
    show("bridge (wire service)", NodeId::new(1));
    show("sport desk editor", NodeId::new(12));
    show("politics desk editor", NodeId::new(22));
    show("uninvolved node", NodeId::new(45));
    println!();
    println!("the bridges forward both desks' traffic while delivering none of");
    println!("it — the supertopic cost the paper says data-aware multicast");
    println!("pushes onto its hierarchy keepers (§4.2).");
}
