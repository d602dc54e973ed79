//! Property-based tests: the subscription table against a multiset model
//! and event-id packing.

use fed_pubsub::event::{Event, EventId};
use fed_pubsub::subscription::SubscriptionTable;
use fed_pubsub::topic::TopicId;
use proptest::prelude::*;

fn event_strategy() -> impl Strategy<Value = Event> {
    (any::<u32>(), any::<u32>(), 0u32..16, 0usize..1024).prop_map(
        |(publisher, seq, topic, payload)| {
            Event::new(EventId::new(publisher, seq), TopicId::new(topic), payload)
        },
    )
}

/// One step of a subscription table's life.
#[derive(Debug, Clone)]
enum TableOp {
    SubscribeTopic(u32),
    UnsubscribeTopic(u32),
}

fn table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (0u32..16).prop_map(TableOp::SubscribeTopic),
        (0u32..16).prop_map(TableOp::SubscribeTopic),
        (0u32..16).prop_map(TableOp::SubscribeTopic),
        (0u32..16).prop_map(TableOp::UnsubscribeTopic),
    ]
}

proptest! {
    /// The flat table answers every question the way a `Vec<TopicId>`
    /// multiset does: a repeated subscription counts twice, and
    /// unsubscribing a topic drops every copy of it.
    #[test]
    fn subscription_table_matches_a_map_model(
        ops in prop::collection::vec(table_op(), 0..40),
        probes in prop::collection::vec(event_strategy(), 1..4),
    ) {
        let mut table = SubscriptionTable::new();
        let mut model: Vec<TopicId> = Vec::new();
        for op in ops {
            match op {
                TableOp::SubscribeTopic(t) => {
                    table.subscribe_topic(TopicId::new(t));
                    model.push(TopicId::new(t));
                }
                TableOp::UnsubscribeTopic(t) => {
                    table.unsubscribe_topic(TopicId::new(t));
                    model.retain(|&s| s != TopicId::new(t));
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            for t in 0u32..16 {
                let t = TopicId::new(t);
                prop_assert_eq!(table.has_topic(t), model.contains(&t));
            }
            for e in &probes {
                prop_assert_eq!(table.matches(e), model.contains(&e.topic()));
            }
        }
    }

    /// Event ids pack/unpack losslessly.
    #[test]
    fn event_id_roundtrip(p in any::<u32>(), s in any::<u32>()) {
        let id = EventId::new(p, s);
        prop_assert_eq!(EventId::from_u64(id.as_u64()), id);
    }
}
