//! Delivery metrics: reliability, latency and spurious-delivery checks.
//!
//! The dissemination contract (paper §2): every interested process
//! eventually delivers every matching event; no process delivers an event
//! it did not subscribe to. [`DeliveryAudit::from_logs`] checks both sides
//! in one pass over the per-node delivery logs, against the publications
//! and a predicate naming who should deliver what, and keeps the counts
//! and latencies every query reads.

use fed_pubsub::EventId;
use fed_sim::SimTime;
use fed_util::stats::Summary;

/// The counts of one audit pass over a run's delivery logs.
#[derive(Debug, Clone, Default)]
pub struct DeliveryAudit {
    /// Per publication: (nodes that should deliver it, nodes that did).
    events: Vec<(usize, usize)>,
    /// Deliveries of unknown events or at nodes that should not deliver.
    spurious: u64,
    /// Repeats of a counted (event, node) pair.
    duplicates: u64,
    /// Delivery − publish in milliseconds, one per counted delivery.
    latencies_ms: Vec<f64>,
}

impl DeliveryAudit {
    /// Audits `logs` — node `i`'s deliveries as `(event, time)`, in any
    /// order — against `publications` (`(event, publish time)`, distinct
    /// events): node `i` should deliver publication `p` exactly when
    /// `expected(p, i)`, with `p` the publication's position.
    ///
    /// A delivery of an unknown event, or at a node that should not deliver
    /// it, is spurious. A repeat of a counted (event, node) pair is a
    /// duplicate; the first delivery in the log is the one counted.
    pub fn from_logs(
        publications: impl IntoIterator<Item = (EventId, SimTime)>,
        logs: impl IntoIterator<Item = impl IntoIterator<Item = (EventId, SimTime)>>,
        expected: impl Fn(usize, usize) -> bool,
    ) -> Self {
        let published: Vec<(EventId, SimTime)> = publications.into_iter().collect();
        let mut by_id: Vec<usize> = (0..published.len()).collect();
        by_id.sort_unstable_by_key(|&p| published[p].0);
        let mut audit = DeliveryAudit {
            events: vec![(0, 0); published.len()],
            ..DeliveryAudit::default()
        };
        // Per publication: the last node that should deliver it, and the
        // last node whose delivery of it was counted.
        let mut last = vec![(usize::MAX, usize::MAX); published.len()];
        for (node, log) in logs.into_iter().enumerate() {
            for (p, (should, _)) in audit.events.iter_mut().enumerate() {
                if expected(p, node) {
                    *should += 1;
                    last[p].0 = node;
                }
            }
            for (event, at) in log {
                let found = by_id.binary_search_by_key(&event, |&p| published[p].0);
                let Some(p) = found.ok().map(|k| by_id[k]).filter(|&p| last[p].0 == node) else {
                    audit.spurious += 1;
                    continue;
                };
                if last[p].1 == node {
                    audit.duplicates += 1;
                    continue;
                }
                last[p].1 = node;
                audit.events[p].1 += 1;
                let latency = at.duration_since(published[p].1).as_micros();
                audit.latencies_ms.push(latency as f64 / 1_000.0);
            }
        }
        audit
    }

    /// Number of audited publications.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Total expected (event, node) deliveries.
    pub fn expected_deliveries(&self) -> usize {
        self.events.iter().map(|&(should, _)| should).sum()
    }

    /// Total correct observed deliveries.
    pub fn observed_deliveries(&self) -> usize {
        self.latencies_ms.len()
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
        if self.events.is_empty() {
            return 1.0;
        }
        let complete = self.events.iter().filter(|(should, did)| should == did);
        complete.count() as f64 / self.events.len() as f64
    }

    /// Summary of delivery latencies in milliseconds (delivery − publish).
    pub fn latency_ms(&self) -> Summary {
        Summary::from_values(self.latencies_ms.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::MapAudit;
    use proptest::prelude::*;

    fn id(k: u32) -> EventId {
        EventId::new(0, k)
    }

    /// Audits `logs` (per node: `(event, ms)`) against events `k` published
    /// at `ms` (`published[p] = (k, ms)`) that `interested[p]` should
    /// deliver.
    fn audit(
        published: &[(u32, u64)],
        interested: &[&[usize]],
        logs: &[&[(u32, u64)]],
    ) -> DeliveryAudit {
        let at = |&(k, ms): &(u32, u64)| (id(k), SimTime::from_millis(ms));
        DeliveryAudit::from_logs(
            published.iter().map(at),
            logs.iter().map(|log| log.iter().map(at)),
            |p, node| interested[p].contains(&node),
        )
    }

    #[test]
    fn empty_audit_is_vacuously_perfect() {
        let a = audit(&[], &[], &[]);
        assert_eq!(a.reliability(), 1.0);
        assert_eq!(a.atomicity(), 1.0);
        assert_eq!(a.spurious(), 0);
        assert_eq!(a.duplicates(), 0);
        assert!(a.latency_ms().is_empty());
    }

    #[test]
    fn full_delivery() {
        let log: &[(u32, u64)] = &[(1, 150)];
        let a = audit(&[(1, 100)], &[&[0, 1, 2]], &[log, log, log]);
        assert_eq!(a.reliability(), 1.0);
        assert_eq!(a.atomicity(), 1.0);
        assert_eq!(a.observed_deliveries(), 3);
        let lat = a.latency_ms();
        assert_eq!(lat.len(), 3);
        assert_eq!(lat.median(), Some(50.0));
    }

    #[test]
    fn partial_delivery_and_atomicity() {
        let a = audit(
            &[(1, 0), (2, 0)],
            &[&[0, 1], &[0, 1]],
            &[&[(1, 10), (2, 10)], &[(1, 10)]],
        );
        assert_eq!(a.reliability(), 0.75);
        assert_eq!(a.atomicity(), 0.5, "only event 1 fully delivered");
    }

    #[test]
    fn spurious_detection() {
        let mut logs: Vec<&[(u32, u64)]> = vec![&[(9, 1)]]; // unknown event
        logs.resize(5, &[]);
        logs.push(&[(1, 1)]); // uninterested node 5
        let a = audit(&[(1, 0)], &[&[0]], &logs);
        assert_eq!(a.spurious(), 2);
        assert_eq!(a.observed_deliveries(), 0);
    }

    #[test]
    fn duplicate_records_do_not_double_count() {
        let a = audit(&[(1, 0)], &[&[0]], &[&[(1, 5), (1, 9)]]);
        assert_eq!(a.observed_deliveries(), 1);
        assert_eq!(a.reliability(), 1.0);
        assert_eq!(a.duplicates(), 1, "the repeat is counted");
        assert_eq!(a.latency_ms().median(), Some(5.0), "the first time is kept");
        assert_eq!(a.spurious(), 0);
    }

    #[test]
    fn counts() {
        let a = audit(&[(1, 0), (2, 0)], &[&[0, 1, 2], &[]], &[&[], &[], &[]]);
        assert_eq!(a.num_events(), 2);
        assert_eq!(a.expected_deliveries(), 3);
    }

    const NODES: usize = 5;

    /// `(event, publish ms, mask of the nodes that should deliver it)`.
    type Published = (u32, u64, u8);
    /// Per node: `(event, delivery ms)`.
    type Logs = Vec<Vec<(u32, u64)>>;

    /// A random audit instance: publications of distinct events (a subset
    /// of `0..8` in rotated order, so deliveries of `8..12` are unknown) at
    /// random times, each with the mask of nodes that should deliver it
    /// (possibly none), and per-node logs in random order with repeats.
    fn instance() -> impl Strategy<Value = (Vec<Published>, Logs)> {
        let slots = prop::collection::vec((any::<bool>(), 0u64..1_000, 0u8..32), 8..9);
        let published = (slots, 0usize..8).prop_map(|(slots, rotation)| {
            let mut published: Vec<Published> = (0..)
                .zip(slots)
                .filter(|(_, (on, _, _))| *on)
                .map(|(k, (_, ms, mask))| (k, ms, mask))
                .collect();
            let rotation = rotation % published.len().max(1);
            published.rotate_left(rotation);
            published
        });
        let log = prop::collection::vec((0u32..12, 0u64..2_000), 0..24);
        (published, prop::collection::vec(log, NODES..NODES + 1))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One pass over the logs answers every query as the map-based
        /// audit fed the same ground truth and deliveries does.
        #[test]
        fn one_pass_equals_the_map_reference((published, logs) in instance()) {
            let should = |mask: u8, node: usize| mask & (1 << node) != 0;
            let at = |&(k, ms): &(u32, u64)| (id(k), SimTime::from_millis(ms));
            let new = DeliveryAudit::from_logs(
                published.iter().map(|&(k, ms, _)| at(&(k, ms))),
                logs.iter().map(|log| log.iter().map(at)),
                |p, node| should(published[p].2, node),
            );
            let mut old = MapAudit::new();
            for &(k, ms, mask) in &published {
                let interested = (0..NODES).filter(|&node| should(mask, node));
                old.expect(id(k), SimTime::from_millis(ms), interested);
            }
            for (node, log) in logs.iter().enumerate() {
                for delivery in log {
                    let (event, time) = at(delivery);
                    old.record(event, node, time);
                }
            }
            prop_assert_eq!(new.num_events(), old.num_events());
            prop_assert_eq!(new.expected_deliveries(), old.expected_deliveries());
            prop_assert_eq!(new.observed_deliveries(), old.observed_deliveries());
            prop_assert_eq!(new.spurious(), old.spurious());
            prop_assert_eq!(new.duplicates(), old.duplicates());
            prop_assert_eq!(new.reliability(), old.reliability());
            prop_assert_eq!(new.atomicity(), old.atomicity());
            // A `Summary` holds its values sorted: equal summaries are
            // equal sorted latency lists.
            prop_assert_eq!(new.latency_ms(), old.latency_ms());
        }
    }
}
