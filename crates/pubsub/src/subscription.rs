//! Dynamic subscription tables.
//!
//! The paper's API (§2) is `publish(e)` / `subscribe(f, callback)` /
//! `unsubscribe(f)`. [`SubscriptionTable`] is the per-node runtime state
//! behind that API: the topics a node currently subscribes to.

use crate::event::Event;
use crate::topic::TopicId;

/// A node's active topic subscriptions.
///
/// One flat vector, a multiset: subscribing to a topic twice counts
/// twice, and [`SubscriptionTable::unsubscribe_topic`] drops every copy.
/// `matches` runs once per received event on every architecture, so it
/// is a scan of one cache line rather than a tree walk.
///
/// # Examples
///
/// ```
/// use fed_pubsub::subscription::SubscriptionTable;
/// use fed_pubsub::topic::TopicId;
/// use fed_pubsub::event::{Event, EventId};
///
/// let mut subs = SubscriptionTable::new();
/// subs.subscribe_topic(TopicId::new(3));
/// assert!(subs.matches(&Event::bare(EventId::new(0, 0), TopicId::new(3))));
/// subs.unsubscribe_topic(TopicId::new(3));
/// assert!(!subs.matches(&Event::bare(EventId::new(0, 0), TopicId::new(3))));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SubscriptionTable {
    topics: Vec<TopicId>,
}

impl SubscriptionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SubscriptionTable::default()
    }

    /// Adds a topic subscription.
    pub fn subscribe_topic(&mut self, topic: TopicId) {
        self.topics.push(topic);
    }

    /// Removes every subscription to `topic`.
    pub fn unsubscribe_topic(&mut self, topic: TopicId) {
        self.topics.retain(|&t| t != topic);
    }

    /// Number of active subscriptions (the paper's "#filters").
    pub fn len(&self) -> usize {
        self.topics.len()
    }

    /// Returns `true` with no active subscriptions.
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// Whether some subscription names exactly `topic`.
    #[inline]
    pub fn has_topic(&self, topic: TopicId) -> bool {
        self.topics.contains(&topic)
    }

    /// Whether any active subscription matches `event`.
    #[inline]
    pub fn matches(&self, event: &Event) -> bool {
        self.has_topic(event.topic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;

    fn ev(topic: u32) -> Event {
        Event::bare(EventId::new(0, 0), TopicId::new(topic))
    }

    #[test]
    fn subscribe_and_match() {
        let mut t = SubscriptionTable::new();
        assert!(t.is_empty());
        t.subscribe_topic(TopicId::new(2));
        assert_eq!(t.len(), 1);
        assert!(t.matches(&ev(2)));
        assert!(!t.matches(&ev(3)));
    }

    #[test]
    fn unsubscribe_removes() {
        let mut t = SubscriptionTable::new();
        t.subscribe_topic(TopicId::new(2));
        t.unsubscribe_topic(TopicId::new(2));
        assert!(!t.matches(&ev(2)));
        assert!(t.is_empty());
        t.unsubscribe_topic(TopicId::new(2));
        assert!(t.is_empty(), "unsubscribing an absent topic is a no-op");
    }

    /// A table emptied by unsubscribing keeps nothing of its old
    /// subscriptions when reused.
    #[test]
    fn unsubscribe_topic_and_clear_keep_ids_fresh() {
        let mut t = SubscriptionTable::new();
        t.subscribe_topic(TopicId::new(1));
        t.subscribe_topic(TopicId::new(2));
        t.subscribe_topic(TopicId::new(1));
        assert_eq!(t.len(), 3, "a repeated subscription counts twice");
        t.unsubscribe_topic(TopicId::new(1));
        assert!(!t.matches(&ev(1)), "every copy goes");
        assert!(t.matches(&ev(2)));
        assert_eq!(t.len(), 1);
        t.unsubscribe_topic(TopicId::new(2));
        assert!(t.is_empty());
        assert!(!t.matches(&ev(2)));
        t.subscribe_topic(TopicId::new(1));
        assert_eq!(t.len(), 1);
        assert!(t.matches(&ev(1)));
        assert!(!t.matches(&ev(2)), "nothing from before returns");
    }

    #[test]
    fn has_topic_sees_topic_subscriptions_only() {
        let mut t = SubscriptionTable::new();
        t.subscribe_topic(TopicId::new(5));
        assert!(t.has_topic(TopicId::new(5)));
        assert!(!t.has_topic(TopicId::new(1)));
        t.unsubscribe_topic(TopicId::new(5));
        assert!(!t.has_topic(TopicId::new(5)));
    }

    /// The point of the flat layout: the table is one `Vec` inline and a
    /// typical node's subscriptions are one cache line on the heap.
    #[test]
    fn table_stays_small() {
        assert!(std::mem::size_of::<SubscriptionTable>() <= 24);
        let mut t = SubscriptionTable::new();
        assert_eq!(t.topics.capacity(), 0);
        let entry = std::mem::size_of::<TopicId>();
        for topic in 0..4 {
            t.subscribe_topic(TopicId::new(topic));
            assert!(t.topics.capacity() * entry <= 64);
        }
    }
}
