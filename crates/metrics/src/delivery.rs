//! Delivery metrics: reliability, latency and spurious-delivery checks.
//!
//! The dissemination contract (paper §2): every interested process
//! eventually delivers every matching event; no process delivers an event
//! it did not subscribe to. [`DeliveryAudit`] checks both sides against
//! ground truth and summarizes latency.

use fed_pubsub::EventId;
use fed_sim::SimTime;
use fed_util::hash::{FastMap, FastSet};
use fed_util::stats::Summary;
use std::collections::hash_map::Entry;

/// Ground truth and observations for one dissemination run.
#[derive(Debug, Clone, Default)]
pub struct DeliveryAudit {
    /// event → (publish time, set of interested node indices)
    expected: FastMap<EventId, (SimTime, FastSet<usize>)>,
    /// (event, node) → delivery time
    observed: FastMap<(EventId, usize), SimTime>,
    /// deliveries at nodes that were NOT interested
    spurious: u64,
    /// repeated records of an (event, interested node) pair
    duplicates: u64,
}

impl DeliveryAudit {
    /// Creates an empty audit.
    pub fn new() -> Self {
        DeliveryAudit::default()
    }

    /// Registers a published event with the set of nodes that should
    /// deliver it.
    pub fn expect(
        &mut self,
        event: EventId,
        published_at: SimTime,
        interested: impl IntoIterator<Item = usize>,
    ) {
        self.expected
            .insert(event, (published_at, interested.into_iter().collect()));
    }

    /// Records an observed delivery of `event` at `node`.
    ///
    /// Deliveries of unknown events are counted as spurious, as are
    /// deliveries at nodes outside the interested set. A repeat of a
    /// recorded pair keeps the first time and counts as a duplicate.
    pub fn record(&mut self, event: EventId, node: usize, at: SimTime) {
        match self.expected.get(&event) {
            Some((_, interested)) if interested.contains(&node) => {
                match self.observed.entry((event, node)) {
                    Entry::Occupied(_) => self.duplicates += 1,
                    Entry::Vacant(v) => {
                        v.insert(at);
                    }
                }
            }
            _ => self.spurious += 1,
        }
    }

    /// Number of registered events.
    pub fn num_events(&self) -> usize {
        self.expected.len()
    }

    /// Total expected (event, node) deliveries.
    pub fn expected_deliveries(&self) -> usize {
        self.expected.values().map(|(_, s)| s.len()).sum()
    }

    /// Total correct observed deliveries.
    pub fn observed_deliveries(&self) -> usize {
        self.observed.len()
    }

    /// Deliveries at uninterested nodes (must be 0 for a correct system).
    pub fn spurious(&self) -> u64 {
        self.spurious
    }

    /// Repeated deliveries of an event at an interested node (must be 0:
    /// delivery is exactly once).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Fraction of expected deliveries that happened, in `[0, 1]`.
    /// `1.0` for a run with no expected deliveries.
    pub fn reliability(&self) -> f64 {
        let expected = self.expected_deliveries();
        if expected == 0 {
            return 1.0;
        }
        self.observed_deliveries() as f64 / expected as f64
    }

    /// Fraction of events delivered by *all* their interested nodes
    /// (the "atomicity" of Bimodal Multicast).
    pub fn atomicity(&self) -> f64 {
        if self.expected.is_empty() {
            return 1.0;
        }
        let complete = self
            .expected
            .iter()
            .filter(|(id, (_, interested))| {
                interested
                    .iter()
                    .all(|&node| self.observed.contains_key(&(**id, node)))
            })
            .count();
        complete as f64 / self.expected.len() as f64
    }

    /// Summary of delivery latencies in milliseconds (delivery − publish).
    pub fn latency_ms(&self) -> Summary {
        let values = self.observed.iter().filter_map(|((event, _), &at)| {
            let (published, _) = self.expected.get(event)?;
            Some(at.duration_since(*published).as_micros() as f64 / 1_000.0)
        });
        Summary::from_values(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(k: u32) -> EventId {
        EventId::new(0, k)
    }

    #[test]
    fn empty_audit_is_vacuously_perfect() {
        let a = DeliveryAudit::new();
        assert_eq!(a.reliability(), 1.0);
        assert_eq!(a.atomicity(), 1.0);
        assert_eq!(a.spurious(), 0);
        assert_eq!(a.duplicates(), 0);
        assert!(a.latency_ms().is_empty());
    }

    #[test]
    fn full_delivery() {
        let mut a = DeliveryAudit::new();
        a.expect(id(1), SimTime::from_millis(100), [0, 1, 2]);
        for node in 0..3 {
            a.record(id(1), node, SimTime::from_millis(150));
        }
        assert_eq!(a.reliability(), 1.0);
        assert_eq!(a.atomicity(), 1.0);
        assert_eq!(a.observed_deliveries(), 3);
        let lat = a.latency_ms();
        assert_eq!(lat.len(), 3);
        assert_eq!(lat.median(), Some(50.0));
    }

    #[test]
    fn partial_delivery_and_atomicity() {
        let mut a = DeliveryAudit::new();
        a.expect(id(1), SimTime::ZERO, [0, 1]);
        a.expect(id(2), SimTime::ZERO, [0, 1]);
        a.record(id(1), 0, SimTime::from_millis(10));
        a.record(id(1), 1, SimTime::from_millis(10));
        a.record(id(2), 0, SimTime::from_millis(10));
        assert_eq!(a.reliability(), 0.75);
        assert_eq!(a.atomicity(), 0.5, "only event 1 fully delivered");
    }

    #[test]
    fn spurious_detection() {
        let mut a = DeliveryAudit::new();
        a.expect(id(1), SimTime::ZERO, [0]);
        a.record(id(1), 5, SimTime::from_millis(1)); // uninterested node
        a.record(id(9), 0, SimTime::from_millis(1)); // unknown event
        assert_eq!(a.spurious(), 2);
        assert_eq!(a.observed_deliveries(), 0);
    }

    #[test]
    fn duplicate_records_do_not_double_count() {
        let mut a = DeliveryAudit::new();
        a.expect(id(1), SimTime::ZERO, [0]);
        a.record(id(1), 0, SimTime::from_millis(5));
        a.record(id(1), 0, SimTime::from_millis(9));
        assert_eq!(a.observed_deliveries(), 1);
        assert_eq!(a.reliability(), 1.0);
        assert_eq!(a.duplicates(), 1, "the repeat is counted");
        assert_eq!(a.latency_ms().median(), Some(5.0), "the first time is kept");
        assert_eq!(a.spurious(), 0);
    }

    #[test]
    fn counts() {
        let mut a = DeliveryAudit::new();
        a.expect(id(1), SimTime::ZERO, [0, 1, 2]);
        a.expect(id(2), SimTime::ZERO, []);
        assert_eq!(a.num_events(), 2);
        assert_eq!(a.expected_deliveries(), 3);
    }
}
