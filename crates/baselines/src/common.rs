//! Shared helpers for the baseline dissemination systems.

use fed_pubsub::{Event, EventId};
use fed_sim::{NodeId, SimTime};
use fed_util::hash::FastMap;
use fed_util::rng::Rng64;

/// Samples up to `k` distinct members of `group` other than `me`, and says
/// whether `me` is a member.
///
/// Draw for draw what sampling from a copy of the group without `me`
/// would give, without making the copy: indices come from a range one
/// short and step over the caller's own position. A group lists each node
/// at most once.
pub fn pick_peers<'g, R: Rng64>(
    rng: &mut R,
    group: &'g [NodeId],
    me: NodeId,
    k: usize,
) -> (impl Iterator<Item = NodeId> + 'g, bool) {
    let own = group.iter().position(|&p| p == me);
    let others = group.len() - usize::from(own.is_some());
    let picked = rng.sample_indices(others, k.min(others));
    let peers = picked
        .into_iter()
        .map(move |i| group[i + usize::from(own.is_some_and(|o| i >= o))]);
    (peers, own.is_some())
}

/// Exactly-once delivery log shared by all baseline nodes.
///
/// Baselines must obey the same delivery contract as the core protocol:
/// deliver an event at most once, record when, and never deliver an
/// uninteresting event (the caller checks interest before calling
/// [`DeliveryLog::deliver`]).
#[derive(Debug, Clone, Default)]
pub struct DeliveryLog {
    delivered: FastMap<EventId, SimTime>,
}

impl DeliveryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        DeliveryLog::default()
    }

    /// Records delivery of `event` at `now` unless already delivered.
    /// Returns `true` when this call performed the delivery.
    pub fn deliver(&mut self, event: &Event, now: SimTime) -> bool {
        match self.delivered.entry(event.id()) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(now);
                true
            }
        }
    }

    /// Whether `id` was delivered.
    pub fn contains(&self, id: EventId) -> bool {
        self.delivered.contains_key(&id)
    }

    /// Delivery time of `id`, if delivered.
    pub fn time_of(&self, id: EventId) -> Option<SimTime> {
        self.delivered.get(&id).copied()
    }

    /// Number of deliveries.
    pub fn len(&self) -> usize {
        self.delivered.len()
    }

    /// `true` when nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.delivered.is_empty()
    }

    /// Iterates `(event id, delivery time)`.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, SimTime)> + '_ {
        self.delivered.iter().map(|(&id, &t)| (id, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_pubsub::TopicId;

    #[test]
    fn delivers_exactly_once() {
        let mut log = DeliveryLog::new();
        let e = Event::bare(EventId::new(1, 1), TopicId::new(0));
        assert!(log.deliver(&e, SimTime::from_millis(5)));
        assert!(
            !log.deliver(&e, SimTime::from_millis(9)),
            "second is a dupe"
        );
        assert_eq!(log.time_of(e.id()), Some(SimTime::from_millis(5)));
        assert!(log.contains(e.id()));
        assert_eq!(log.len(), 1);
        assert!(!log.is_empty());
        assert_eq!(log.iter().count(), 1);
    }

    #[test]
    fn empty_log() {
        let log = DeliveryLog::new();
        assert!(log.is_empty());
        assert!(!log.contains(EventId::new(0, 0)));
        assert_eq!(log.time_of(EventId::new(0, 0)), None);
    }
}
