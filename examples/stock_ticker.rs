//! Stock ticker: content-based (expressive) selection with the
//! subscription language, comparing classic and fair gossip side by side.
//!
//! ```text
//! cargo run --release --example stock_ticker
//! ```
//!
//! A market feed publishes quotes with `symbol`, `price` and `volume`
//! attributes. Traders place heterogeneous content filters — some watch a
//! single symbol, some the whole market — which is exactly the setting of
//! the paper's §5.2 (expressive event selection): grouping by interest is
//! impossible, so fairness must come from adapting fanout/message size.

use fed::core::gossip::{GossipCmd, GossipConfig, GossipNode};
use fed::core::ledger::RatioSpec;
use fed::membership::FullMembership;
use fed::metrics::fairness::ratio_report;
use fed::pubsub::{parse_filter, Event, EventId, TopicId};
use fed::sim::network::NetworkModel;
use fed::sim::{NodeId, SimDuration, SimTime, Simulation};
use fed::util::rng::{Rng64, Xoshiro256StarStar};

const SYMBOLS: [&str; 8] = ["FED", "GSP", "EPF", "ICD", "CSR", "PUB", "SUB", "TOP"];

fn build_feed(seed: u64, count: u32) -> Vec<Event> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..count)
        .map(|k| {
            let symbol = SYMBOLS[rng.range_usize(SYMBOLS.len())];
            let price = 50.0 + rng.next_f64() * 150.0;
            let volume = 100 + rng.range_u64(10_000) as i64;
            Event::builder(EventId::new(0, k), TopicId::new(0))
                .attr("symbol", symbol)
                .attr("price", price)
                .attr("volume", volume)
                .payload_bytes(64)
                .build()
        })
        .collect()
}

fn run_market(config: GossipConfig, label: &str) {
    let n = 96;
    let seed = 7;
    let mut sim = Simulation::new(n, NetworkModel::default(), seed, move |id, _| {
        GossipNode::new(id, config.clone(), FullMembership::new(id, n))
    });

    // Trader profiles, from narrow to market-wide. The parse step is the
    // subscription language working for its living.
    let filters = [
        r#"symbol == "FED""#,
        r#"symbol == "GSP" && price > 120"#,
        r#"price > 180"#,
        r#"volume > 9000"#,
        r#"price < 60 || volume > 9500"#,
        "true", // the index fund watches everything
    ];
    for i in 0..n {
        let source = filters[i % filters.len()];
        let filter = parse_filter(source).expect("example filters parse");
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            GossipCmd::SubscribeContent(filter),
        );
    }

    // The exchange (node 0) publishes the feed at 20 quotes per second.
    for (k, event) in build_feed(seed, 400).into_iter().enumerate() {
        sim.schedule_command(
            SimTime::from_millis(1_000 + 50 * k as u64),
            NodeId::new(0),
            GossipCmd::Publish(event),
        );
    }

    sim.run_until(SimTime::from_secs(30));

    let spec = RatioSpec::expressive();
    let ledgers: Vec<_> = sim
        .nodes()
        .map(|(_, node)| node.endpoint().ledger())
        .collect();
    let report = ratio_report(ledgers, &spec);
    let deliveries: u64 = sim
        .nodes()
        .map(|(_, node)| node.endpoint().deliveries().len() as u64)
        .sum();
    println!("{label:>15}: deliveries={deliveries:>6}  byte-ratio fairness {report}");
}

fn main() {
    println!("stock ticker under heterogeneous content filters (n=96, 400 quotes)");
    run_market(
        GossipConfig::classic(6, 16, SimDuration::from_millis(100)),
        "classic gossip",
    );
    run_market(
        GossipConfig::fair_expressive(6, 16, SimDuration::from_millis(100)),
        "fair gossip",
    );
    println!("\nthe fair run redistributes byte contribution toward the heavy");
    println!("consumers (index funds) and away from single-symbol traders.");
}
