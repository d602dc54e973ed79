//! Dynamic subscription tables.
//!
//! The paper's API (§2) is `publish(e)` / `subscribe(f, callback)` /
//! `unsubscribe(f)`. [`SubscriptionTable`] is the per-node runtime state
//! behind that API: a mutable set of active subscriptions, each a topic or
//! a content filter, with stable ids so unsubscribe is unambiguous.

use crate::event::Event;
use crate::filter::Filter;
use crate::topic::{TopicId, TopicSpace};
use std::fmt;

/// Stable identifier of one active subscription within a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(u64);

impl SubscriptionId {
    /// Raw value (useful for wire encoding).
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One active subscription: a topic or a content filter.
#[derive(Debug, Clone, PartialEq)]
pub enum Subscription {
    /// Topic-based subscription.
    Topic(TopicId),
    /// Content-based subscription.
    Content(Filter),
}

impl Subscription {
    /// Whether `event` matches this subscription (flat topic semantics).
    pub fn matches(&self, event: &Event) -> bool {
        match self {
            Subscription::Topic(t) => event.topic() == *t,
            Subscription::Content(f) => f.matches(event),
        }
    }

    /// Whether `event` matches, resolving topic hierarchy through `space`.
    pub fn matches_in(&self, event: &Event, space: &TopicSpace) -> bool {
        match self {
            Subscription::Topic(t) => space.is_descendant(event.topic(), *t),
            Subscription::Content(f) => f.matches(event),
        }
    }

    /// Matching-cost proxy (atomic conditions).
    pub fn complexity(&self) -> usize {
        match self {
            Subscription::Topic(_) => 1,
            Subscription::Content(f) => f.complexity(),
        }
    }
}

impl fmt::Display for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subscription::Topic(t) => write!(f, "topic({t})"),
            Subscription::Content(filter) => write!(f, "content({filter})"),
        }
    }
}

/// Error returned by [`SubscriptionTable::unsubscribe`] for unknown ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownSubscription(pub SubscriptionId);

impl fmt::Display for UnknownSubscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown subscription {}", self.0)
    }
}

impl std::error::Error for UnknownSubscription {}

/// A node's active subscriptions.
///
/// Two flat vectors, each sorted by id because ids are handed out in
/// increasing order: topic subscriptions (16 B an entry — every
/// subscription of every shipped scenario) and content filters (an
/// empty, allocation-free `Vec` when unused). `matches` runs once per
/// received event on every architecture, so it is a scan of one or two
/// cache lines rather than a tree walk.
///
/// # Examples
///
/// ```
/// use fed_pubsub::subscription::SubscriptionTable;
/// use fed_pubsub::topic::TopicId;
/// use fed_pubsub::event::{Event, EventId};
///
/// let mut subs = SubscriptionTable::new();
/// let id = subs.subscribe_topic(TopicId::new(3));
/// assert!(subs.matches(&Event::bare(EventId::new(0, 0), TopicId::new(3))));
/// subs.unsubscribe(id)?;
/// assert!(!subs.matches(&Event::bare(EventId::new(0, 0), TopicId::new(3))));
/// # Ok::<(), fed_pubsub::subscription::UnknownSubscription>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SubscriptionTable {
    topics: Vec<(SubscriptionId, TopicId)>,
    filters: Vec<(SubscriptionId, Filter)>,
    next_id: u64,
}

impl SubscriptionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SubscriptionTable::default()
    }

    fn fresh_id(&mut self) -> SubscriptionId {
        let id = SubscriptionId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Adds a topic subscription; returns its id.
    pub fn subscribe_topic(&mut self, topic: TopicId) -> SubscriptionId {
        let id = self.fresh_id();
        self.topics.push((id, topic));
        id
    }

    /// Adds a content subscription; returns its id.
    pub fn subscribe_content(&mut self, filter: Filter) -> SubscriptionId {
        let id = self.fresh_id();
        self.filters.push((id, filter));
        id
    }

    /// Removes a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSubscription`] if `id` is not active.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> Result<Subscription, UnknownSubscription> {
        if let Ok(i) = self.topics.binary_search_by_key(&id, |&(sid, _)| sid) {
            return Ok(Subscription::Topic(self.topics.remove(i).1));
        }
        match self.filters.binary_search_by_key(&id, |(sid, _)| *sid) {
            Ok(i) => Ok(Subscription::Content(self.filters.remove(i).1)),
            Err(_) => Err(UnknownSubscription(id)),
        }
    }

    /// Removes every topic subscription to `topic`.
    pub fn unsubscribe_topic(&mut self, topic: TopicId) {
        self.topics.retain(|&(_, t)| t != topic);
    }

    /// Removes every subscription (ids are still never reused).
    pub fn clear(&mut self) {
        self.topics.clear();
        self.filters.clear();
    }

    /// Number of active subscriptions (the paper's "#filters").
    pub fn len(&self) -> usize {
        self.topics.len() + self.filters.len()
    }

    /// Returns `true` with no active subscriptions.
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty() && self.filters.is_empty()
    }

    /// Whether some topic subscription names exactly `topic`.
    #[inline]
    pub fn has_topic(&self, topic: TopicId) -> bool {
        self.topics.iter().any(|&(_, t)| t == topic)
    }

    #[inline]
    fn any_filter_matches(&self, event: &Event) -> bool {
        self.filters.iter().any(|(_, f)| f.matches(event))
    }

    /// Whether any active subscription matches `event` (flat topics).
    #[inline]
    pub fn matches(&self, event: &Event) -> bool {
        self.has_topic(event.topic()) || self.any_filter_matches(event)
    }

    /// Whether any active subscription matches `event`, resolving topic
    /// hierarchy through `space`.
    pub fn matches_in(&self, event: &Event, space: &TopicSpace) -> bool {
        let topic = event.topic();
        self.topics
            .iter()
            .any(|&(_, t)| space.is_descendant(topic, t))
            || self.any_filter_matches(event)
    }

    /// The set of topics with at least one topic subscription.
    pub fn topics(&self) -> Vec<TopicId> {
        let mut ts: Vec<TopicId> = self.topics.iter().map(|&(_, t)| t).collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    /// Total matching cost across active subscriptions.
    pub fn complexity(&self) -> usize {
        self.topics.len()
            + self
                .filters
                .iter()
                .map(|(_, f)| f.complexity())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::filter::CmpOp;

    fn ev(topic: u32) -> Event {
        Event::builder(EventId::new(0, 0), TopicId::new(topic))
            .attr("x", 5i64)
            .build()
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
        let id = t.subscribe_topic(TopicId::new(2));
        let sub = t.unsubscribe(id).unwrap();
        assert_eq!(sub, Subscription::Topic(TopicId::new(2)));
        assert!(!t.matches(&ev(2)));
        assert_eq!(t.unsubscribe(id), Err(UnknownSubscription(id)));
    }

    #[test]
    fn ids_are_never_reused() {
        let mut t = SubscriptionTable::new();
        let a = t.subscribe_topic(TopicId::new(1));
        t.unsubscribe(a).unwrap();
        let b = t.subscribe_topic(TopicId::new(1));
        assert_ne!(a, b);
    }

    #[test]
    fn content_subscription_matching() {
        let mut t = SubscriptionTable::new();
        t.subscribe_content(Filter::cmp("x", CmpOp::Gt, 3i64));
        assert!(t.matches(&ev(0)));
        t.subscribe_content(Filter::cmp("x", CmpOp::Gt, 100i64));
        assert_eq!(t.complexity(), 2);
    }

    #[test]
    fn hierarchy_matching() {
        let mut space = TopicSpace::new();
        let root = space.register("root").unwrap();
        let child = space.register_under("root/c", root).unwrap();
        let mut t = SubscriptionTable::new();
        t.subscribe_topic(root);
        assert!(!t.matches(&ev(child.as_u32())), "flat misses child");
        assert!(t.matches_in(&ev(child.as_u32()), &space), "hierarchy hits");
    }

    #[test]
    fn topics_deduplicated_and_sorted() {
        let mut t = SubscriptionTable::new();
        t.subscribe_topic(TopicId::new(5));
        t.subscribe_topic(TopicId::new(1));
        t.subscribe_topic(TopicId::new(5));
        t.subscribe_content(Filter::True);
        assert_eq!(t.topics(), vec![TopicId::new(1), TopicId::new(5)]);
    }

    #[test]
    fn unsubscribe_topic_and_clear_keep_ids_fresh() {
        let mut t = SubscriptionTable::new();
        t.subscribe_topic(TopicId::new(1));
        t.subscribe_topic(TopicId::new(2));
        let last = t.subscribe_topic(TopicId::new(1));
        t.subscribe_content(Filter::True);
        t.unsubscribe_topic(TopicId::new(1));
        assert_eq!(t.topics(), vec![TopicId::new(2)]);
        assert_eq!(t.len(), 2, "topic 2 and the content filter stay");
        t.clear();
        assert!(t.is_empty());
        assert!(t.subscribe_topic(TopicId::new(1)) > last);
    }

    #[test]
    fn display_forms() {
        let mut t = SubscriptionTable::new();
        let id = t.subscribe_topic(TopicId::new(3));
        assert_eq!(
            format!("{}", Subscription::Topic(TopicId::new(3))),
            "topic(t3)"
        );
        assert_eq!(format!("{id}"), "s0");
        assert_eq!(
            format!("{}", UnknownSubscription(id)),
            "unknown subscription s0"
        );
    }

    #[test]
    fn has_topic_sees_topic_subscriptions_only() {
        let mut t = SubscriptionTable::new();
        t.subscribe_topic(TopicId::new(5));
        t.subscribe_content(Filter::True);
        assert!(t.has_topic(TopicId::new(5)));
        assert!(
            !t.has_topic(TopicId::new(1)),
            "a content filter is no topic"
        );
        t.unsubscribe_topic(TopicId::new(5));
        assert!(!t.has_topic(TopicId::new(5)));
    }

    /// The point of the flat layout: the table is one cache line inline
    /// and a typical node's subscriptions are one more on the heap.
    #[test]
    fn table_stays_small() {
        assert!(std::mem::size_of::<SubscriptionTable>() <= 64);
        let mut t = SubscriptionTable::new();
        assert_eq!(t.topics.capacity() + t.filters.capacity(), 0);
        let entry = std::mem::size_of::<(SubscriptionId, TopicId)>();
        for topic in 0..4 {
            t.subscribe_topic(TopicId::new(topic));
            assert!(t.topics.capacity() * entry <= 64);
            assert_eq!(t.filters.capacity(), 0, "unused filters own no heap");
        }
    }
}
