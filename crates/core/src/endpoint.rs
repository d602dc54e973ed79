//! A node's subscriber side, written once.
//!
//! The paper's per-node accounting rule (§2, Figures 1–3) is the same in
//! every architecture: a *matching* event delivered *for the first time*
//! is one unit of benefit, `#filters` is the size of the subscription
//! table, and a publication is charged to its publisher. [`Endpoint`]
//! owns the three pieces of state the rule touches — the
//! [`SubscriptionTable`], the [`FairnessLedger`] and the exactly-once
//! [`DeliveryLog`] — and its mutators are the rule. How events *reach* a
//! node (gossip rounds, trees, brokers, group floods) is the protocol's
//! business; what a node does with an event that reached it is here.
//!
//! Everything else on the ledger (forwarding and maintenance charges,
//! window rolls, rates) is the protocol's to record, through
//! [`Endpoint::ledger_mut`].
//!
//! The delivery log is an append-only `(event, time)` record plus a
//! membership bitset over the executing kernel's event numbering
//! ([`fed_sim::local_id`]): every delivery call takes the event's
//! [`LocalId`] next to the time, and deduplicating is one bit test. Its
//! memory is 1 bit per event the node's shard has numbered plus 16 B per
//! delivery. A finished run takes the log out of the node
//! ([`Endpoint::into_deliveries`], [`DeliveryLog::into_sorted`]) rather
//! than copying it. Because the membership bits are kernel-local, an
//! `Endpoint` must not move between kernels; a node keeps its shard for
//! the whole run, so one carried across a crash and rejoin stays valid.

use crate::ledger::FairnessLedger;
use fed_pubsub::{Event, EventId, SubscriptionTable, TopicId};
use fed_sim::{Context, HopKind, LocalId, LocalIdSet, SimTime};

/// Exactly-once delivery log: which events a node delivered, and when.
#[derive(Debug, Clone, Default)]
pub struct DeliveryLog {
    /// The delivered events, over the kernel's numbering.
    seen: LocalIdSet,
    /// `(event, delivery time)` in delivery order.
    log: Vec<(EventId, SimTime)>,
}

impl DeliveryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        DeliveryLog::default()
    }

    /// Records delivery of `event`, numbered `id` by the executing kernel
    /// ([`fed_sim::Context::local_id`] of `event.id().as_u64()`), at `now`
    /// unless already delivered. Returns `true` when this call performed
    /// the delivery.
    #[inline]
    pub fn deliver(&mut self, event: &Event, id: LocalId, now: SimTime) -> bool {
        let first = self.seen.insert(id);
        if first {
            self.log.push((event.id(), now));
        }
        first
    }

    /// Whether `id` was delivered (a scan of the log).
    pub fn contains(&self, id: EventId) -> bool {
        self.time_of(id).is_some()
    }

    /// Delivery time of `id`, if delivered (a scan of the log).
    pub fn time_of(&self, id: EventId) -> Option<SimTime> {
        self.iter().find_map(|(e, t)| (e == id).then_some(t))
    }

    /// Number of deliveries.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// `true` when nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Iterates `(event id, delivery time)` in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, SimTime)> + '_ {
        self.log.iter().copied()
    }

    /// The log sorted by event id, sorted in place.
    pub fn into_sorted(self) -> Vec<(EventId, SimTime)> {
        let mut log = self.log;
        log.sort_unstable_by_key(|&(id, _)| id);
        log
    }
}

/// The subscriber side of one node: subscriptions, fairness ledger and
/// delivery log, kept consistent by construction.
///
/// Two equalities hold after every call:
/// `ledger().active_filters() == subscriptions().len()` and
/// `ledger().totals().delivered_events == deliveries().len()`.
///
/// # Examples
///
/// ```
/// use fed_core::endpoint::Endpoint;
/// use fed_pubsub::{Event, EventId, TopicId};
/// use fed_sim::local_id::LocalIds;
/// use fed_sim::SimTime;
///
/// // A kernel numbers the events its nodes see (`Context::local_id`).
/// let mut ids = LocalIds::default();
/// let mut endpoint = Endpoint::new();
/// endpoint.subscribe_topic(TopicId::new(3));
/// let wanted = Event::bare(EventId::new(0, 0), TopicId::new(3));
/// let other = Event::bare(EventId::new(0, 1), TopicId::new(4));
/// let (w, o) = (ids.id_of(wanted.id().as_u64()), ids.id_of(other.id().as_u64()));
/// assert!(endpoint.offer(&wanted, w, SimTime::from_millis(5)));
/// assert!(!endpoint.offer(&wanted, w, SimTime::from_millis(9)), "once only");
/// assert!(!endpoint.offer(&other, o, SimTime::from_millis(9)), "no interest");
/// assert_eq!(endpoint.ledger().totals().delivered_events, 1);
/// assert_eq!(endpoint.ledger().active_filters(), 1);
/// assert_eq!(
///     endpoint.into_deliveries().into_sorted(),
///     vec![(wanted.id(), SimTime::from_millis(5))]
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct Endpoint {
    subs: SubscriptionTable,
    ledger: FairnessLedger,
    log: DeliveryLog,
}

impl Endpoint {
    /// Creates an endpoint with no subscriptions and nothing recorded.
    pub fn new() -> Self {
        Endpoint::default()
    }

    /// Active subscriptions.
    #[inline]
    pub fn subscriptions(&self) -> &SubscriptionTable {
        &self.subs
    }

    /// The fairness ledger.
    #[inline]
    pub fn ledger(&self) -> &FairnessLedger {
        &self.ledger
    }

    /// The ledger, for the charges the protocol owns (forwarding,
    /// maintenance, window rolls).
    #[inline]
    pub fn ledger_mut(&mut self) -> &mut FairnessLedger {
        &mut self.ledger
    }

    /// The delivery log.
    #[inline]
    pub fn deliveries(&self) -> &DeliveryLog {
        &self.log
    }

    /// The delivery log, taken out of the endpoint.
    pub fn into_deliveries(self) -> DeliveryLog {
        self.log
    }

    fn sync_filters(&mut self) {
        self.ledger.set_active_filters(self.subs.len() as u32);
    }

    /// Adds a topic subscription.
    pub fn subscribe_topic(&mut self, topic: TopicId) {
        self.subs.subscribe_topic(topic);
        self.sync_filters();
    }

    /// Drops every topic subscription to `topic`.
    pub fn unsubscribe_topic(&mut self, topic: TopicId) {
        self.subs.unsubscribe_topic(topic);
        self.sync_filters();
    }

    /// Charges this node for originating `event`.
    #[inline]
    pub fn published(&mut self, event: &Event) {
        self.ledger.record_publish(event.size_bytes());
    }

    /// An event reached this node: deliver it iff it matches a
    /// subscription and was not delivered before. `id` is the event's
    /// number in the executing kernel (see [`DeliveryLog::deliver`]).
    /// Returns whether this call delivered it.
    #[inline]
    pub fn offer(&mut self, event: &Event, id: LocalId, now: SimTime) -> bool {
        self.subs.matches(event) && self.deliver(event, id, now)
    }

    /// [`Endpoint::offer`] at `ctx`'s time, for a protocol that keeps no
    /// seen-set of its own: numbers `event` in `ctx`'s kernel, and only
    /// when it matches.
    #[inline]
    pub fn offer_in<M>(&mut self, ctx: &mut Context<'_, M>, event: &Event) -> bool {
        self.subs.matches(event) && {
            let id = ctx.local_id(event.id().as_u64());
            self.deliver(event, id, ctx.now())
        }
    }

    /// Logs and credits a matching event once.
    #[inline]
    fn deliver(&mut self, event: &Event, id: LocalId, now: SimTime) -> bool {
        let first = self.log.deliver(event, id, now);
        if first {
            self.ledger.record_delivery();
        }
        first
    }
}

/// Reports `event` travelling in a message as one `kind` hop — the tuple
/// every [`fed_sim::Protocol::trace_payload`] hands its `emit` callback.
#[inline]
pub fn emit_event(emit: &mut dyn FnMut(u64, u32, u32, HopKind), event: &Event, kind: HopKind) {
    emit(
        event.id().as_u64(),
        event.topic().as_u32(),
        event.size_bytes() as u32,
        kind,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_sim::local_id::LocalIds;

    fn ev(seq: u32, topic: u32) -> Event {
        Event::bare(EventId::new(1, seq), TopicId::new(topic))
    }

    /// `event`'s number in `ids`, as `Context::local_id` would give it.
    fn num(ids: &mut LocalIds, event: &Event) -> LocalId {
        ids.id_of(event.id().as_u64())
    }

    #[test]
    fn delivers_exactly_once() {
        let mut ids = LocalIds::default();
        let mut log = DeliveryLog::new();
        let e = ev(1, 0);
        let id = num(&mut ids, &e);
        assert!(log.deliver(&e, id, SimTime::from_millis(5)));
        assert!(
            !log.deliver(&e, id, SimTime::from_millis(9)),
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
        assert!(log.into_sorted().is_empty());
    }

    #[test]
    fn sorted_snapshot_orders_by_event_id() {
        let mut ids = LocalIds::default();
        let mut log = DeliveryLog::new();
        for seq in [7, 2, 9, 4] {
            let e = ev(seq, 0);
            log.deliver(&e, num(&mut ids, &e), SimTime::from_millis(seq as u64));
        }
        let order: Vec<u32> = log.iter().map(|(id, _)| id.seq()).collect();
        assert_eq!(order, vec![7, 2, 9, 4], "iter is delivery order");
        let sorted: Vec<u32> = log.into_sorted().iter().map(|(id, _)| id.seq()).collect();
        assert_eq!(sorted, vec![2, 4, 7, 9]);
    }

    #[test]
    fn subscription_changes_track_the_filter_count() {
        let mut ep = Endpoint::new();
        ep.subscribe_topic(TopicId::new(1));
        ep.subscribe_topic(TopicId::new(2));
        ep.subscribe_topic(TopicId::new(1));
        assert_eq!(ep.ledger().active_filters(), 3, "a repeat counts");
        ep.unsubscribe_topic(TopicId::new(1));
        assert_eq!(ep.ledger().active_filters(), 1, "every copy goes");
        let e = ev(0, 1);
        let id = num(&mut LocalIds::default(), &e);
        assert!(!ep.offer(&e, id, SimTime::ZERO), "no longer subscribed");
        ep.unsubscribe_topic(TopicId::new(2));
        assert_eq!(ep.ledger().active_filters(), 0);
        assert!(ep.subscriptions().is_empty());
    }

    #[test]
    fn published_charges_the_publisher() {
        let mut ep = Endpoint::new();
        let e = ev(0, 0);
        ep.published(&e);
        let totals = ep.ledger().totals();
        assert_eq!(totals.published_msgs, 1);
        assert_eq!(totals.published_bytes, e.size_bytes() as u64);
        assert!(ep.deliveries().is_empty(), "publishing is not delivering");
    }

    #[test]
    fn emit_event_spells_the_hop_tuple() {
        let e = Event::new(EventId::new(3, 4), TopicId::new(5), 100);
        let mut got = Vec::new();
        emit_event(
            &mut |id, topic, bytes, kind| got.push((id, topic, bytes, kind)),
            &e,
            HopKind::TreeEdge,
        );
        assert_eq!(
            got,
            vec![(e.id().as_u64(), 5, e.size_bytes() as u32, HopKind::TreeEdge)]
        );
    }
}
