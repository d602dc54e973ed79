//! # fed-trace
//!
//! Deterministic per-event causal dissemination tracing.
//!
//! `fed-telemetry` aggregates per-window load and `fed-profile` times the
//! scheduler, but neither can answer "show me the dissemination tree of
//! event X and who paid for it". This crate closes that gap on top of the
//! [`Probe::on_hop`] hook in `fed_sim::exec`: protocols enumerate the
//! application events each network message carries
//! ([`fed_sim::Protocol::trace_payload`]), the kernel reports one
//! [`HopRecord`] per event per send, and a [`ShardTraceBuffer`] collects
//! the records that pass a deterministic sampling filter.
//!
//! ## Determinism
//!
//! * **Sampling** is a pure hash of the packed event id against the
//!   configured rate ([`sampled`]) — no RNG draw, so attaching a tracer
//!   never perturbs the virtual world, and every shard makes the same
//!   keep/drop decision for a given event without coordination.
//! * **Hops are recorded sender-side** at transmission time, so on a
//!   sharded engine each hop is observed exactly once — on the shard
//!   owning the sender — and the union of shard-local buffers equals the
//!   sequential engine's single buffer as a *set* at any shard count.
//! * **Merging** ([`merge_hops`]) sorts by the canonical full-record
//!   order, so the merged buffer is *byte-identical* across engines,
//!   shard counts and placements (gated by the parity matrix,
//!   `tests/parity/mod.rs` in `fed-experiments`).
//!
//! ## Analysis
//!
//! [`analyze`] reconstructs each event's delivery tree from its first
//! arrivals and computes per-event metrics — tree depth, hop and
//! duplicate counts, link stress, delivery latency and stretch vs the
//! direct-latency lower bound. [`attribution`] aggregates the
//! event-granular forwarding cost per `(node, topic)`: the paper's
//! fairness index at per-event resolution. [`perfetto_trace_json`]
//! renders sampled trees on the virtual timeline for Perfetto.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fed_sim::{HopRecord, Probe, SimDuration};
use fed_util::json::{ChromeTrace, Object};
use std::collections::{BTreeMap, BTreeSet};

/// Tracing configuration, as carried by a scenario's `[trace]` section.
///
/// Presence of the section (even empty) turns tracing on for a scenario
/// run; the fields tune sampling and export.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Fraction of application events to trace, in `[0, 1]`. Sampling is
    /// per *event*, not per hop: all hops of a kept event are kept, on
    /// every shard, so sampled trees are always complete.
    pub sample_rate: f64,
    /// Salt mixed into the sampling hash, so repeated runs can sample
    /// different (but individually deterministic) event subsets.
    pub salt: u64,
    /// Path to write the Perfetto trace JSON to. `None` lets the runner
    /// pick a default (`traces/TRACE_<scenario>.json`).
    pub export: Option<String>,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            sample_rate: 1.0,
            salt: 0,
            export: None,
        }
    }
}

impl TraceSpec {
    /// Validates a spec, returning it unchanged when sound.
    pub fn checked(spec: TraceSpec) -> Result<TraceSpec, String> {
        if !spec.sample_rate.is_finite() || !(0.0..=1.0).contains(&spec.sample_rate) {
            return Err(format!(
                "trace sample_rate must be a fraction in [0, 1], got {}",
                spec.sample_rate
            ));
        }
        if let Some(path) = &spec.export {
            if path.trim().is_empty() {
                return Err("trace export path must not be empty".to_string());
            }
        }
        Ok(spec)
    }
}

/// SplitMix64 finalizer: the pure hash behind [`sampled`].
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether the event with packed id `event` is sampled at `rate`.
///
/// A pure function of `(event, salt, rate)` — no state, no RNG — so every
/// shard, every engine and every run agrees on the kept set. Rates are
/// monotone: the events kept at rate `a` are a subset of those kept at
/// any rate `b ≥ a`.
pub fn sampled(event: u64, salt: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    // Compare the hash against a fixed-point threshold. The multiply is
    // exact IEEE-754 double arithmetic on integral-valued operands, so
    // the threshold is identical on every host.
    let threshold = (rate * (u64::MAX as f64)) as u64;
    splitmix64(event ^ salt) <= threshold
}

/// One shard's (or a sequential run's) trace collector.
///
/// Implements [`Probe`]: keeps every reported hop whose event passes the
/// sampling filter. Buffers merge via [`merge_hops`].
#[derive(Debug, Clone)]
pub struct ShardTraceBuffer {
    sample_rate: f64,
    salt: u64,
    hops: Vec<HopRecord>,
}

impl ShardTraceBuffer {
    /// An empty buffer sampling per `spec`.
    pub fn new(spec: &TraceSpec) -> Self {
        ShardTraceBuffer {
            sample_rate: spec.sample_rate,
            salt: spec.salt,
            hops: Vec::new(),
        }
    }

    /// Number of hops collected so far.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether no hops were collected.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// The collected hops, in recording order.
    pub fn hops(&self) -> &[HopRecord] {
        &self.hops
    }

    /// Consumes the buffer, returning the collected hops.
    pub fn into_hops(self) -> Vec<HopRecord> {
        self.hops
    }
}

impl Probe for ShardTraceBuffer {
    fn traces(&self) -> bool {
        true
    }

    fn on_hop(&mut self, hop: HopRecord) {
        if sampled(hop.event, self.salt, self.sample_rate) {
            self.hops.push(hop);
        }
    }
}

/// Merges shard-local buffers into the canonical global trace.
///
/// Concatenation followed by a sort in the full-record [`Ord`] — the
/// result depends only on the *set* of recorded hops, never on which
/// shard recorded what or in which order, so a sharded run's merged
/// trace is byte-identical to the sequential engine's (itself passed
/// through this function as a single buffer).
pub fn merge_hops(buffers: impl IntoIterator<Item = ShardTraceBuffer>) -> Vec<HopRecord> {
    let mut all: Vec<HopRecord> = buffers.into_iter().flat_map(|b| b.into_hops()).collect();
    all.sort_unstable();
    all
}

/// The publisher node packed into an event id's high word.
pub fn publisher_of(event: u64) -> u32 {
    (event >> 32) as u32
}

/// The publisher-local sequence number packed into an event id's low word.
pub fn seq_of(event: u64) -> u32 {
    event as u32
}

/// Per-event delivery-tree metrics computed by [`analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventTrace {
    /// Packed event id (see [`publisher_of`], [`seq_of`]).
    pub event: u64,
    /// The event's topic.
    pub topic: u32,
    /// The publishing node.
    pub publisher: u32,
    /// Virtual µs of the event's first transmission.
    pub first_send_us: u64,
    /// Total transmissions carrying the event (delivered or dropped).
    pub hops: u64,
    /// Transmissions the network dropped.
    pub drops: u64,
    /// Distinct nodes the event reached (first arrivals).
    pub deliveries: u64,
    /// Arrivals beyond the first at an already-reached node.
    pub duplicates: u64,
    /// Maximum depth of the delivery tree spanned by first arrivals
    /// (publisher at depth 0).
    pub depth: u32,
    /// Maximum number of transmissions over any single directed link.
    pub link_stress: u32,
    /// Worst first-arrival latency across reached nodes, in µs.
    pub max_latency_us: u64,
    /// Mean first-arrival latency across reached nodes, in µs.
    pub mean_latency_us: f64,
    /// `max_latency_us` over the direct-latency lower bound — how much
    /// the dissemination path stretches the best the network could do.
    pub stretch: f64,
}

/// Reconstructs per-event delivery trees and their metrics from a merged
/// trace.
///
/// `direct_floor` is the network's minimum one-hop latency (the
/// conservative lookahead): the best any dissemination scheme could do
/// for any subscriber, and hence the denominator of `stretch`.
///
/// Results are sorted by packed event id. Pure integer/float arithmetic
/// over the canonical hop order — deterministic for a given trace.
pub fn analyze(hops: &[HopRecord], direct_floor: SimDuration) -> Vec<EventTrace> {
    let mut by_event: BTreeMap<u64, Vec<&HopRecord>> = BTreeMap::new();
    for h in hops {
        by_event.entry(h.event).or_default().push(h);
    }
    let floor_us = direct_floor.as_micros().max(1);
    let mut out = Vec::with_capacity(by_event.len());
    for (event, mut recs) in by_event {
        // Canonical order regardless of the caller's sorting discipline.
        recs.sort_unstable();
        let publisher = publisher_of(event);
        let topic = recs[0].topic;
        let first_send_us = recs.iter().map(|h| h.send_time.as_micros()).min().unwrap();
        let mut drops = 0u64;
        let mut link_count: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        // First arrival per destination: (arrival µs, parent).
        let mut first_arrival: BTreeMap<u32, (u64, u32)> = BTreeMap::new();
        let mut duplicates = 0u64;
        for h in &recs {
            *link_count.entry((h.from, h.to)).or_default() += 1;
            match h.deliver_time {
                None => drops += 1,
                Some(at) => {
                    let at = at.as_micros();
                    if h.to == publisher {
                        // Echo back to the source: a duplicate by
                        // definition, never a tree edge.
                        duplicates += 1;
                    } else {
                        match first_arrival.get(&h.to) {
                            Some(&(best, _)) if best <= at => duplicates += 1,
                            _ => {
                                if first_arrival.insert(h.to, (at, h.from)).is_some() {
                                    duplicates += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        // Depth over first-arrival edges. A parent either is the
        // publisher (depth 0) or was itself reached earlier (causality:
        // a node cannot forward before receiving), so walking parents
        // terminates; the visited guard bounds pathological traces.
        let mut depth_memo: BTreeMap<u32, u32> = BTreeMap::new();
        let mut max_depth = 0u32;
        for &to in first_arrival.keys().collect::<Vec<_>>() {
            let mut chain = Vec::new();
            let mut cur = to;
            let d = loop {
                if cur == publisher {
                    break 0;
                }
                if let Some(&d) = depth_memo.get(&cur) {
                    break d;
                }
                match first_arrival.get(&cur) {
                    Some(&(_, parent)) if !chain.contains(&cur) => {
                        chain.push(cur);
                        cur = parent;
                    }
                    // Unknown parent (outside the trace) or a cycle in a
                    // malformed trace: root the chain here.
                    _ => break 0,
                }
            };
            for (i, &n) in chain.iter().enumerate() {
                let dn = d + (chain.len() - i) as u32;
                depth_memo.insert(n, dn);
                max_depth = max_depth.max(dn);
            }
        }
        let deliveries = first_arrival.len() as u64;
        let (mut max_lat, mut sum_lat) = (0u64, 0u64);
        for &(at, _) in first_arrival.values() {
            let lat = at.saturating_sub(first_send_us);
            max_lat = max_lat.max(lat);
            sum_lat += lat;
        }
        let mean_latency_us = if deliveries > 0 {
            sum_lat as f64 / deliveries as f64
        } else {
            0.0
        };
        out.push(EventTrace {
            event,
            topic,
            publisher,
            first_send_us,
            hops: recs.len() as u64,
            drops,
            deliveries,
            duplicates,
            depth: max_depth,
            link_stress: link_count.values().copied().max().unwrap_or(0),
            max_latency_us: max_lat,
            mean_latency_us,
            stretch: max_lat as f64 / floor_us as f64,
        });
    }
    out
}

/// One row of the per-node forwarding-cost attribution table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardingCost {
    /// The forwarding node.
    pub node: u32,
    /// The topic whose traffic it carried.
    pub topic: u32,
    /// Distinct events this node forwarded for the topic.
    pub events: u64,
    /// Transmissions (hops) this node originated for the topic.
    pub hops: u64,
    /// Payload bytes this node transmitted for the topic (lost sends
    /// included — a dropped message still cost the sender bandwidth).
    pub bytes: u64,
}

/// Aggregates who forwarded how many bytes for which topics — the
/// event-granular version of the paper's fairness index.
///
/// Rows are sorted by `(node, topic)`; deterministic for a given trace.
pub fn attribution(hops: &[HopRecord]) -> Vec<ForwardingCost> {
    let mut rows: BTreeMap<(u32, u32), (BTreeSet<u64>, u64, u64)> = BTreeMap::new();
    for h in hops {
        let entry = rows.entry((h.from, h.topic)).or_default();
        entry.0.insert(h.event);
        entry.1 += 1;
        entry.2 += h.bytes as u64;
    }
    rows.into_iter()
        .map(|((node, topic), (events, hops, bytes))| ForwardingCost {
            node,
            topic,
            events: events.len() as u64,
            hops,
            bytes,
        })
        .collect()
}

/// Renders a merged trace as Chrome Trace Event JSON (object format,
/// `{"traceEvents": [...]}`) on the **virtual-time** microsecond
/// timeline, loadable in Perfetto (<https://ui.perfetto.dev>) and
/// `chrome://tracing`.
///
/// Track layout: one track (tid) per sampled event, named
/// `event <publisher>#<seq> topic <t>`; each hop is a slice from its
/// send instant to its delivery instant, named `<kind> n<from>→n<to>`
/// (dropped hops render as 1 µs `drop` slices). Reading a track
/// top-to-bottom shows the event's dissemination tree unfolding in
/// virtual time.
pub fn perfetto_trace_json(hops: &[HopRecord], name: &str) -> String {
    let mut by_event: BTreeMap<u64, Vec<&HopRecord>> = BTreeMap::new();
    for h in hops {
        by_event.entry(h.event).or_default().push(h);
    }
    let mut trace = ChromeTrace::new(name);
    for (tid0, (event, recs)) in by_event.iter().enumerate() {
        let tid = tid0 as u64 + 1;
        let track = format!(
            "event {}#{} topic {}",
            publisher_of(*event),
            seq_of(*event),
            recs[0].topic
        );
        trace.thread(tid, &track);
        for h in recs {
            let ts = h.send_time.as_micros();
            let (drop, dur) = match h.deliver_time {
                Some(at) => ("", at.as_micros().saturating_sub(ts).max(1)),
                None => ("drop ", 1),
            };
            let label = format!("{drop}{} n{}→n{}", h.kind.name(), h.from, h.to);
            let args = Object::new()
                .uint("bytes", u64::from(h.bytes))
                .uint("kind", u64::from(h.kind.tag()));
            trace.slice(tid, &label, ts, dur, args);
        }
    }
    let other = Object::new()
        .uint("events", by_event.len() as u64)
        .uint("hops", hops.len() as u64);
    trace.finish(other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_sim::{HopKind, SimTime};

    fn hop(
        event: u64,
        from: u32,
        to: u32,
        send_us: u64,
        deliver_us: Option<u64>,
        kind: HopKind,
    ) -> HopRecord {
        HopRecord {
            send_time: SimTime::from_micros(send_us),
            from,
            to,
            event,
            topic: 1,
            kind,
            bytes: 100,
            deliver_time: deliver_us.map(SimTime::from_micros),
        }
    }

    #[test]
    fn sampling_is_pure_and_monotone() {
        for event in 0..2000u64 {
            assert!(sampled(event, 7, 1.0));
            assert!(!sampled(event, 7, 0.0));
            assert_eq!(sampled(event, 7, 0.3), sampled(event, 7, 0.3));
            // Rates are monotone: kept at 0.2 ⇒ kept at 0.7.
            if sampled(event, 7, 0.2) {
                assert!(sampled(event, 7, 0.7));
            }
        }
        // The rate is roughly honored.
        let kept = (0..10_000u64).filter(|&e| sampled(e, 0, 0.25)).count();
        assert!((1_500..3_500).contains(&kept), "kept {kept} of 10000");
    }

    #[test]
    fn salt_varies_the_sampled_subset() {
        let a: Vec<u64> = (0..1000).filter(|&e| sampled(e, 1, 0.5)).collect();
        let b: Vec<u64> = (0..1000).filter(|&e| sampled(e, 2, 0.5)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn buffer_filters_by_event() {
        let spec = TraceSpec {
            sample_rate: 0.5,
            salt: 3,
            ..TraceSpec::default()
        };
        let mut buf = ShardTraceBuffer::new(&spec);
        for e in 0..100u64 {
            buf.on_hop(hop(e, 0, 1, 10, Some(20), HopKind::GossipPush));
            buf.on_hop(hop(e, 1, 2, 20, Some(30), HopKind::GossipPush));
        }
        // All-or-nothing per event.
        let mut per_event: BTreeMap<u64, usize> = BTreeMap::new();
        for h in buf.hops() {
            *per_event.entry(h.event).or_default() += 1;
        }
        assert!(per_event.values().all(|&n| n == 2));
        for e in 0..100u64 {
            assert_eq!(per_event.contains_key(&e), sampled(e, 3, 0.5));
        }
    }

    #[test]
    fn merge_is_partition_invariant() {
        let spec = TraceSpec::default();
        let all: Vec<HopRecord> = (0..50u64)
            .map(|i| {
                hop(
                    i % 7,
                    (i % 5) as u32,
                    ((i + 1) % 5) as u32,
                    1000 - i * 3,
                    Some(1005 - i * 3),
                    HopKind::BrokerNotify,
                )
            })
            .collect();
        let mut single = ShardTraceBuffer::new(&spec);
        for h in &all {
            single.on_hop(*h);
        }
        // Split the same set across four buffers in a scrambled order.
        let mut parts: Vec<ShardTraceBuffer> =
            (0..4).map(|_| ShardTraceBuffer::new(&spec)).collect();
        for (i, h) in all.iter().rev().enumerate() {
            parts[i % 4].on_hop(*h);
        }
        assert_eq!(merge_hops([single]), merge_hops(parts));
    }

    #[test]
    fn analyze_reconstructs_tree_metrics() {
        // Publisher 3 (event id 3<<32): 3 → 1 → 2, plus a duplicate
        // 3 → 2 arriving later and one drop 1 → 4.
        let event = 3u64 << 32;
        let hops = vec![
            hop(event, 3, 1, 0, Some(10), HopKind::GossipPush),
            hop(event, 1, 2, 10, Some(25), HopKind::GossipPush),
            hop(event, 3, 2, 0, Some(30), HopKind::GossipPush),
            hop(event, 1, 4, 10, None, HopKind::GossipPush),
        ];
        let traces = analyze(&hops, SimDuration::from_micros(5));
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.publisher, 3);
        assert_eq!(t.hops, 4);
        assert_eq!(t.drops, 1);
        assert_eq!(t.deliveries, 2, "nodes 1 and 2");
        assert_eq!(t.duplicates, 1, "late 3→2 copy");
        assert_eq!(t.depth, 2, "3 → 1 → 2");
        assert_eq!(t.link_stress, 1);
        assert_eq!(t.max_latency_us, 25);
        assert_eq!(t.stretch, 5.0);
    }

    #[test]
    fn analyze_takes_earliest_arrival_as_tree_edge() {
        let event = 1u64 << 32;
        // Node 2 hears from 0 at t=30 and from 1 at t=20: 1 is the parent.
        let hops = vec![
            hop(event, 1, 2, 5, Some(20), HopKind::TreeEdge),
            hop(event, 0, 2, 5, Some(30), HopKind::TreeEdge),
            hop(event, 1, 0, 1, Some(4), HopKind::TreeToRoot),
        ];
        let traces = analyze(&hops, SimDuration::from_micros(1));
        let t = &traces[0];
        assert_eq!(t.deliveries, 2, "nodes 0 and 2");
        assert_eq!(t.duplicates, 1);
        assert_eq!(t.depth, 1, "both 0 and 2 hang directly off publisher 1");
    }

    #[test]
    fn attribution_aggregates_per_node_topic() {
        let mut hops = vec![
            hop(1, 0, 1, 0, Some(5), HopKind::BrokerNotify),
            hop(2, 0, 1, 1, Some(6), HopKind::BrokerNotify),
            hop(2, 0, 2, 1, None, HopKind::BrokerNotify),
            hop(1, 5, 0, 0, Some(9), HopKind::BrokerIngress),
        ];
        hops[3].topic = 2;
        let rows = attribution(&hops);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            ForwardingCost {
                node: 0,
                topic: 1,
                events: 2,
                hops: 3,
                bytes: 300,
            }
        );
        assert_eq!(rows[1].node, 5);
        assert_eq!(rows[1].topic, 2);
        assert_eq!(rows[1].events, 1);
    }

    #[test]
    fn spec_validation_rejects_bad_rates() {
        assert!(TraceSpec::checked(TraceSpec::default()).is_ok());
        for rate in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            let spec = TraceSpec {
                sample_rate: rate,
                ..TraceSpec::default()
            };
            assert!(TraceSpec::checked(spec).is_err(), "rate {rate}");
        }
        let spec = TraceSpec {
            export: Some("  ".to_string()),
            ..TraceSpec::default()
        };
        assert!(TraceSpec::checked(spec).is_err());
    }

    #[test]
    fn perfetto_export_mentions_every_hop() {
        let hops = vec![
            hop(7, 0, 1, 0, Some(5), HopKind::StripeToRoot),
            hop(7, 1, 2, 5, None, HopKind::StripeEdge),
        ];
        let json = perfetto_trace_json(&hops, "unit");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("stripe-to-root n0"));
        assert!(json.contains("drop stripe-edge n1"));
        assert!(json.contains("event 0#7 topic 1"));
    }

    /// A delivered and a dropped hop under a name that needs escaping
    /// read back as what the writer this one replaced rendered for them,
    /// captured from it verbatim (it spelled the arrow as a `\u` escape).
    #[test]
    fn perfetto_export_matches_the_captured_document() {
        use fed_util::json::parse;
        let hops = vec![
            hop(3 << 32 | 2, 3, 1, 40, Some(52), HopKind::GossipPush),
            hop(3 << 32 | 2, 1, 4, 52, None, HopKind::GossipHandoff),
        ];
        let capture = r#"{"traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"a \"b\""}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"event 3#2 topic 1"}},
{"ph":"X","pid":0,"tid":1,"name":"gossip-push n3\u2192n1","ts":40,"dur":12,"args":{"bytes":100,"kind":0}},
{"ph":"X","pid":0,"tid":1,"name":"drop gossip-handoff n1\u2192n4","ts":52,"dur":1,"args":{"bytes":100,"kind":1}}
],"displayTimeUnit":"ms","otherData":{"events":1,"hops":2}}"#;
        let json = perfetto_trace_json(&hops, "a \"b\"");
        assert_eq!(parse(&json).unwrap(), parse(capture).unwrap());
    }
}
