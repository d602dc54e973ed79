//! The map-based audit [`DeliveryAudit`](crate::DeliveryAudit) replaced,
//! kept as the reference the differential test compares it against:
//! `expect` stores each publication's interested nodes in a hash set and
//! `record` inserts every delivery into a map keyed by (event, node), so
//! duplicates, spurious deliveries and latencies all fall out of map
//! lookups.
//!
//! Compiled into the library under `cfg(test)` only.

use fed_pubsub::EventId;
use fed_sim::SimTime;
use fed_util::hash::{FastMap, FastSet};
use fed_util::stats::Summary;
use std::collections::hash_map::Entry;

/// Ground truth and observations for one dissemination run.
#[derive(Debug, Clone, Default)]
pub struct MapAudit {
    /// event → (publish time, set of interested node indices)
    expected: FastMap<EventId, (SimTime, FastSet<usize>)>,
    /// (event, node) → delivery time
    observed: FastMap<(EventId, usize), SimTime>,
    /// deliveries at nodes that were NOT interested
    spurious: u64,
    /// repeated records of an (event, interested node) pair
    duplicates: u64,
}

impl MapAudit {
    /// Creates an empty audit.
    pub fn new() -> Self {
        MapAudit::default()
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
