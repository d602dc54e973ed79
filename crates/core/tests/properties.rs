//! Property-based tests of the fairness core: ledger arithmetic, the
//! endpoint's accounting rule and delivery log, controller behaviour and
//! audit soundness.

use fed_core::adaptive::{Controller, ControllerConfig, GlobalRateEstimator, RateSample};
use fed_core::audit::{audit_subject, AuditConfig, AuditOutcome, WitnessReport};
use fed_core::endpoint::{DeliveryLog, Endpoint};
use fed_core::ledger::{ContributionMetric, FairnessLedger, RatioSpec};
use fed_pubsub::{Event, EventId, TopicId};
use fed_sim::local_id::LocalIds;
use fed_sim::{NodeId, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Publish(usize),
    Forward(usize),
    Maintain,
    Credit,
    Deliver,
    SetFilters(u32),
    Roll,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..2_000).prop_map(Op::Publish),
        (1usize..2_000).prop_map(Op::Forward),
        Just(Op::Maintain),
        Just(Op::Credit),
        Just(Op::Deliver),
        (0u32..16).prop_map(Op::SetFilters),
        Just(Op::Roll),
    ]
}

fn apply(ledger: &mut FairnessLedger, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Publish(b) => ledger.record_publish(*b),
            Op::Forward(b) => ledger.record_forward(*b),
            Op::Maintain => ledger.record_maintenance(),
            Op::Credit => ledger.record_maintenance_credit(),
            Op::Deliver => ledger.record_delivery(),
            Op::SetFilters(k) => ledger.set_active_filters(*k),
            Op::Roll => ledger.roll_window(),
        }
    }
}

/// One call on an [`Endpoint`]; topics and event ids come from small
/// ranges so sequences revisit both.
#[derive(Debug, Clone)]
enum EndpointOp {
    Subscribe(u32),
    Unsubscribe(u32),
    Offer { seq: u32, topic: u32 },
    Published(u32),
}

fn endpoint_op_strategy() -> impl Strategy<Value = EndpointOp> {
    prop_oneof![
        (0u32..4).prop_map(EndpointOp::Subscribe),
        (0u32..4).prop_map(EndpointOp::Unsubscribe),
        (0u32..12, 0u32..4).prop_map(|(seq, topic)| EndpointOp::Offer { seq, topic }),
        (0u32..4).prop_map(EndpointOp::Published),
    ]
}

proptest! {
    /// The per-node accounting rule: whatever the call sequence, `#filters`
    /// is the subscription count, the delivered counter is the log's
    /// length, and an event is logged exactly when it matches a live
    /// subscription and was never logged before.
    #[test]
    fn endpoint_keeps_the_accounting_rule(
        ops in prop::collection::vec(endpoint_op_strategy(), 0..200),
    ) {
        let mut ids = LocalIds::default();
        let mut endpoint = Endpoint::new();
        let mut subscribed: Vec<u32> = Vec::new();
        let mut delivered: Vec<EventId> = Vec::new();
        let mut published = 0u64;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                EndpointOp::Subscribe(t) => {
                    endpoint.subscribe_topic(TopicId::new(t));
                    subscribed.push(t);
                }
                EndpointOp::Unsubscribe(t) => {
                    endpoint.unsubscribe_topic(TopicId::new(t));
                    subscribed.retain(|&s| s != t);
                }
                EndpointOp::Offer { seq, topic } => {
                    let event = Event::bare(EventId::new(0, seq), TopicId::new(topic));
                    let expect = subscribed.contains(&topic) && !delivered.contains(&event.id());
                    let at = SimTime::from_millis(step as u64);
                    let id = ids.id_of(event.id().as_u64());
                    prop_assert_eq!(endpoint.offer(&event, id, at), expect);
                    if expect {
                        delivered.push(event.id());
                        prop_assert_eq!(endpoint.deliveries().time_of(event.id()), Some(at));
                    }
                }
                EndpointOp::Published(topic) => {
                    endpoint.published(&Event::bare(EventId::new(0, 0), TopicId::new(topic)));
                    published += 1;
                }
            }
            let ledger = endpoint.ledger();
            prop_assert_eq!(ledger.active_filters() as usize, endpoint.subscriptions().len());
            prop_assert_eq!(ledger.active_filters() as usize, subscribed.len());
            prop_assert_eq!(ledger.totals().delivered_events as usize, endpoint.deliveries().len());
            prop_assert_eq!(endpoint.deliveries().len(), delivered.len());
            prop_assert_eq!(ledger.totals().published_msgs, published);
        }
        for id in delivered {
            prop_assert!(endpoint.deliveries().contains(id));
        }
    }

    /// The delivery log against a `BTreeMap` model: the same deliver
    /// sequence (repeats included) fed to two logs whose kernels number the
    /// keys in different first-sight orders — one as they arrive, one after
    /// seeing `warm` first — gives the model's answers from both, and the
    /// same sorted log.
    #[test]
    fn delivery_log_matches_a_btree_map(
        delivers in prop::collection::vec((0u32..3, 0u32..16, 0u64..1_000), 0..120),
        warm in prop::collection::vec((0u32..3, 0u32..16), 0..48),
    ) {
        let key = |publisher: u32, seq: u32| EventId::new(publisher, seq);
        let mut arrival = LocalIds::default();
        let mut warmed = LocalIds::default();
        for &(p, s) in &warm {
            warmed.id_of(key(p, s).as_u64());
        }
        let mut logs = [DeliveryLog::new(), DeliveryLog::new()];
        let mut model: BTreeMap<EventId, SimTime> = BTreeMap::new();
        for &(p, s, at) in &delivers {
            let event = Event::bare(key(p, s), TopicId::new(0));
            let at = SimTime::from_millis(at);
            let first = !model.contains_key(&event.id());
            if first {
                model.insert(event.id(), at);
            }
            for (log, ids) in logs.iter_mut().zip([&mut arrival, &mut warmed]) {
                prop_assert_eq!(log.deliver(&event, ids.id_of(event.id().as_u64()), at), first);
                prop_assert_eq!(log.len(), model.len());
            }
        }
        for log in &logs {
            prop_assert_eq!(log.is_empty(), model.is_empty());
            for p in 0..3 {
                for s in 0..16 {
                    let id = key(p, s);
                    prop_assert_eq!(log.contains(id), model.contains_key(&id));
                    prop_assert_eq!(log.time_of(id), model.get(&id).copied());
                }
            }
        }
        let expected: Vec<(EventId, SimTime)> = model.into_iter().collect();
        let [by_arrival, by_warmed] = logs.map(DeliveryLog::into_sorted);
        prop_assert_eq!(&by_arrival, &expected);
        prop_assert_eq!(&by_warmed, &expected);
    }

    /// Contribution and benefit are non-negative, monotone under
    /// recording, and the ratio is always finite under a positive epsilon.
    #[test]
    fn ledger_invariants(ops in prop::collection::vec(op_strategy(), 0..200)) {
        let mut ledger = FairnessLedger::new();
        let specs = [RatioSpec::topic_based(), RatioSpec::expressive()];
        let mut last = [0.0f64; 2];
        for op in &ops {
            apply(&mut ledger, std::slice::from_ref(op));
            for (i, spec) in specs.iter().enumerate() {
                let c = ledger.contribution(spec);
                prop_assert!(c >= 0.0 && c.is_finite());
                prop_assert!(c + 1e-9 >= last[i], "contribution decreased");
                last[i] = c;
                let b = ledger.benefit(spec);
                prop_assert!(b >= 0.0 && b.is_finite());
                prop_assert!(ledger.ratio(spec).is_finite());
            }
        }
    }

    /// Rolling windows never changes lifetime totals, and window counters
    /// sum to the lifetime totals across all windows plus the open one.
    #[test]
    fn window_roll_conserves_totals(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let mut with_rolls = FairnessLedger::new();
        apply(&mut with_rolls, &ops);
        let mut without_rolls = FairnessLedger::new();
        let filtered: Vec<Op> = ops.iter().filter(|o| !matches!(o, Op::Roll)).cloned().collect();
        apply(&mut without_rolls, &filtered);
        prop_assert_eq!(with_rolls.totals(), without_rolls.totals());
    }

    /// The message metric counts messages, the byte metric counts bytes:
    /// forwarding k messages of b bytes moves them accordingly.
    #[test]
    fn metric_separation(k in 1usize..50, b in 1usize..4_096) {
        let mut ledger = FairnessLedger::new();
        for _ in 0..k {
            ledger.record_forward(b);
        }
        let msgs = RatioSpec { metric: ContributionMetric::Messages, ..RatioSpec::topic_based() };
        let bytes = RatioSpec { metric: ContributionMetric::Bytes, ..RatioSpec::expressive() };
        prop_assert_eq!(ledger.contribution(&msgs), k as f64);
        prop_assert_eq!(ledger.contribution(&bytes), (k * b) as f64);
    }

    /// The controller's output always respects its clamps, whatever the
    /// inputs, and equal inputs at gain 1 give the target.
    #[test]
    fn controller_always_clamped(
        target in 1.0f64..32.0,
        span in 1.0f64..8.0,
        gain in 0.01f64..1.0,
        inputs in prop::collection::vec((0.0f64..1e6, 0.0f64..1e6), 1..64),
    ) {
        let min = target / span;
        let max = target * span;
        let mut ctl = Controller::new(ControllerConfig::new(target, min, max, gain));
        for (own, mean) in inputs {
            let v = ctl.update(own, mean);
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9, "{v} outside [{min}, {max}]");
        }
    }

    /// Stochastic rounding is unbiased: its long-run mean equals the
    /// continuous allocation.
    #[test]
    fn stochastic_rounding_unbiased(value in 0.0f64..16.0, seed in any::<u64>()) {
        use fed_util::rng::Xoshiro256StarStar;
        let mut ctl = Controller::new(ControllerConfig::new(8.0, 0.0, 16.0, 1.0));
        ctl.force(value);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let n = 20_000;
        let total: usize = (0..n).map(|_| ctl.sample_discrete(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        prop_assert!((mean - ctl.value()).abs() < 0.1, "mean {mean} vs {}", ctl.value());
    }

    /// The estimator's mean stays within the convex hull of its prior and
    /// every observed sample.
    #[test]
    fn estimator_stays_in_hull(
        alpha in 0.01f64..1.0,
        prior in 0.0f64..10.0,
        samples in prop::collection::vec(0.0f64..100.0, 1..64),
    ) {
        let mut est = GlobalRateEstimator::new(alpha, prior);
        let mut lo = prior;
        let mut hi = prior;
        for &s in &samples {
            est.observe(RateSample { benefit_rate: s, ..RateSample::default() });
            lo = lo.min(s);
            hi = hi.max(s);
            prop_assert!(est.mean_benefit() >= lo - 1e-9);
            prop_assert!(est.mean_benefit() <= hi + 1e-9);
        }
    }

    /// Audit soundness: an honest subject whose receipts exactly match its
    /// claim is never flagged, whatever the committee composition.
    #[test]
    fn audit_never_flags_exact_truth(
        rate in 0.1f64..50.0,
        witnesses in 1usize..32,
        rounds in 10u64..500,
        n in 3usize..1_000,
    ) {
        // Spread the exact expected total across the committee (floor +
        // remainder), mimicking receipts whose committee-wide average
        // matches the claim exactly — per-witness rounding would introduce
        // a systematic bias no real sampling has.
        let per_witness = rate / (n as f64 - 1.0);
        let total = (per_witness * rounds as f64 * witnesses as f64).round() as u64;
        let base = total / witnesses as u64;
        let remainder = (total % witnesses as u64) as usize;
        let reports: Vec<WitnessReport> = (0..witnesses)
            .map(|w| WitnessReport {
                messages: base + u64::from(w < remainder),
                rounds,
            })
            .collect();
        let verdict = audit_subject(
            NodeId::new(0),
            rate,
            &reports,
            n,
            &AuditConfig { min_evidence: 1, tolerance: 0.7 },
        );
        if verdict.evidence >= 10 {
            prop_assert_eq!(verdict.outcome, AuditOutcome::Consistent, "{}", verdict);
        }
    }

    /// Audit sensitivity: claims k× above the witnessed rate are flagged
    /// once k exceeds the tolerance band.
    #[test]
    fn audit_flags_large_overclaims(
        rate in 1.0f64..50.0,
        factor in 3.0f64..20.0,
        n in 10usize..500,
    ) {
        let per_witness = rate / (n as f64 - 1.0);
        let rounds = 1_000u64;
        let reports: Vec<WitnessReport> = (0..16)
            .map(|_| WitnessReport {
                messages: (per_witness * rounds as f64).round() as u64,
                rounds,
            })
            .collect();
        let verdict = audit_subject(
            NodeId::new(0),
            rate * factor,
            &reports,
            n,
            &AuditConfig { min_evidence: 1, tolerance: 0.7 },
        );
        if verdict.evidence >= 10 {
            prop_assert_eq!(verdict.outcome, AuditOutcome::OverClaimed, "{}", verdict);
        }
    }
}
