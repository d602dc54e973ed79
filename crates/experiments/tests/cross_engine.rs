//! Cross-engine determinism: the same scenario run through the harness on
//! the sequential `fed_sim::Simulation` and on `fed-cluster` must produce
//! identical delivery logs, fairness ledgers and transport statistics at
//! any shard count.
//!
//! Three layers of assertion, all through the harness's one run body:
//!
//! * the original 1000-node fair-gossip scenario on a
//!   [`prepare_gossip`] handle, generic over the engine, fingerprinting
//!   node state the outcome does not carry (duplicate counts);
//! * every baseline architecture (broker, Scribe, DKS, SplitStream — and
//!   DAM for good measure) through [`run_architecture`], at shard counts
//!   {1, 2, 4, 7}, with and without churn;
//! * the paper's own gossip configurations — FIG3's four adaptation
//!   variants, E-ABLATE's correction gains, E-BIAS's cheat mix — through
//!   [`run_gossip`], at the same shard counts.
//!
//! All runs share one workload scheduler, so this asserts the engines
//! themselves: shard count is a performance knob, never a semantics knob.

use fed_cluster::ShardedSimulation;
use fed_core::behavior::Behavior;
use fed_core::gossip::{GossipConfig, GossipNode};
use fed_core::ledger::RatioSpec;
use fed_experiments::harness::{
    prepare_gossip, run_architecture, run_gossip, t_arch_config, Engine, EngineKind,
};
use fed_experiments::scenario_run::outcomes_match;
use fed_sim::{NodeId, SimDuration, SimTime, Simulation, TransportStats};
use fed_util::fairness::jain_index;
use fed_workload::churn::ChurnPlan;
use fed_workload::pubs::PubPlan;
use fed_workload::scenario::{Architecture, Placement, ScenarioSpec};

fn spec(n: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::fair_gossip(n, 42);
    // Shorter publication phase: 1000 nodes x ~100 gossip rounds is plenty.
    spec.plan = PubPlan {
        rate_per_sec: 10.0,
        duration: SimTime::from_secs(4),
        topic_zipf_s: 1.0,
        payload_bytes: 64,
        warmup: SimTime::from_secs(1),
        flash: None,
    };
    spec
}

fn config() -> GossipConfig {
    GossipConfig::fair(4, 16, SimDuration::from_millis(100))
}

/// Per-node observable outcome plus the engine-level event count.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    deliveries: Vec<usize>,
    duplicates: Vec<u64>,
    stats: Vec<TransportStats>,
    jain_bits: u64,
    events: u64,
}

fn fingerprint<'a, I>(nodes: I, stats: Vec<TransportStats>, events: u64) -> Fingerprint
where
    I: Iterator<Item = (NodeId, &'a GossipNode)>,
{
    let mut deliveries = Vec::new();
    let mut duplicates = Vec::new();
    let mut contributions = Vec::new();
    let ratio_spec = RatioSpec::topic_based();
    for (_, node) in nodes {
        deliveries.push(node.endpoint().deliveries().len());
        duplicates.push(node.duplicates());
        contributions.push(node.endpoint().ledger().contribution(&ratio_spec));
    }
    Fingerprint {
        deliveries,
        duplicates,
        stats,
        // Bit pattern, not approximate equality: the runs must agree on
        // every floating-point operation.
        jain_bits: jain_index(&contributions).to_bits(),
        events,
    }
}

fn run_on<E: Engine<Proto = GossipNode>>(spec: &ScenarioSpec) -> Fingerprint {
    let mut run = prepare_gossip::<E>(spec, config(), |_| Behavior::Honest);
    let horizon = run.horizon();
    let mut unobserved = vec![(); run.sim.shards()];
    run.sim.run_observed(horizon, &mut unobserved);
    fingerprint(run.sim.nodes(), run.sim.stats(), run.sim.events())
}

fn run_sequential(spec: &ScenarioSpec) -> Fingerprint {
    run_on::<Simulation<GossipNode>>(spec)
}

fn run_cluster(spec: &ScenarioSpec, shards: usize) -> Fingerprint {
    run_on::<ShardedSimulation<GossipNode>>(&spec.clone().with_shards(shards))
}

#[test]
fn cross_engine_determinism_1k_nodes() {
    let spec = spec(1000);
    let expected = run_sequential(&spec);
    // Sanity: the scenario actually delivers events.
    assert!(
        expected.deliveries.iter().sum::<usize>() > 0,
        "dead scenario"
    );
    for shards in [1, 2, 4] {
        let got = run_cluster(&spec, shards);
        assert_eq!(
            got, expected,
            "cluster with {shards} shards diverged from the sequential engine"
        );
    }
}

/// A baseline-architecture scenario small enough for debug-mode test
/// runs but busy enough to exercise routing, group floods and trees.
fn baseline_spec(arch: Architecture, n: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::standard(arch, n, 42);
    spec.plan = PubPlan {
        rate_per_sec: 10.0,
        duration: SimTime::from_secs(3),
        topic_zipf_s: 1.0,
        payload_bytes: 64,
        warmup: SimTime::from_secs(1),
        flash: None,
    };
    spec
}

/// Runs `spec` sequentially and on the cluster at shard counts
/// {1, 2, 4, 7} plus a scheduler-knob matrix covering every placement
/// policy and both window policies, asserting bit-identical delivery
/// logs, fairness-ledger totals, transport statistics and event counts
/// throughout: shard count, placement and window sizing are performance
/// knobs, never semantics knobs.
fn assert_arch_parity(spec: &ScenarioSpec) {
    let expected = run_architecture(spec, EngineKind::Sequential);
    assert!(
        expected.total_deliveries() > 0,
        "{}: dead scenario proves nothing",
        spec.arch
    );
    let check = |cluster_spec: ScenarioSpec, what: &str| {
        let got = run_architecture(&cluster_spec, EngineKind::Cluster);
        assert_eq!(
            got.deliveries, expected.deliveries,
            "{} {what}: delivery logs diverged",
            spec.arch
        );
        assert_eq!(
            got.ledgers, expected.ledgers,
            "{} {what}: fairness ledgers diverged",
            spec.arch
        );
        assert_eq!(
            got.stats, expected.stats,
            "{} {what}: transport stats diverged",
            spec.arch
        );
        assert_eq!(
            got.events, expected.events,
            "{} {what}: event counts diverged",
            spec.arch
        );
    };
    for shards in [1usize, 2, 4, 7] {
        check(
            spec.clone().with_shards(shards),
            &format!("with {shards} shards"),
        );
    }
    for (shards, placement, adaptive) in [
        (4, Placement::Block, true),
        (7, Placement::Balanced, true),
        (2, Placement::RoundRobin, false),
        (4, Placement::Balanced, false),
    ] {
        check(
            spec.clone()
                .with_shards(shards)
                .with_placement(placement)
                .with_adaptive_window(adaptive),
            &format!(
                "with {shards} shards, {placement} placement, {} windows",
                if adaptive { "adaptive" } else { "fixed" }
            ),
        );
    }
}

#[test]
fn broker_parity_across_shard_counts() {
    assert_arch_parity(&baseline_spec(Architecture::Broker, 192));
}

#[test]
fn scribe_parity_across_shard_counts() {
    assert_arch_parity(&baseline_spec(Architecture::Scribe, 192));
}

#[test]
fn dks_parity_across_shard_counts() {
    assert_arch_parity(&baseline_spec(Architecture::Dks, 192));
}

#[test]
fn splitstream_parity_across_shard_counts() {
    assert_arch_parity(&baseline_spec(Architecture::SplitStream, 192));
}

#[test]
fn dam_parity_across_shard_counts() {
    assert_arch_parity(&baseline_spec(Architecture::Dam, 128));
}

fn churn_plan() -> ChurnPlan {
    ChurnPlan {
        mean_session_secs: 2.0,
        mean_downtime_secs: 1.0,
        churning_fraction: 0.25,
        duration: SimTime::from_secs(3),
        warmup: SimTime::from_secs(1),
    }
}

/// Every baseline stays engine-agnostic under churn: crashes drop nodes
/// mid-dissemination and rejoins rebuild state from the per-node stream,
/// identically on both engines.
#[test]
fn baseline_parity_under_churn() {
    for arch in [
        Architecture::Broker,
        Architecture::Scribe,
        Architecture::Dks,
        Architecture::SplitStream,
    ] {
        let mut spec = baseline_spec(arch, 128);
        spec.churn = Some(churn_plan());
        assert_arch_parity(&spec);
    }
}

#[test]
fn cross_engine_determinism_under_churn() {
    let mut spec = spec(200);
    spec.churn = Some(fed_workload::churn::ChurnPlan {
        mean_session_secs: 3.0,
        mean_downtime_secs: 1.0,
        churning_fraction: 0.2,
        duration: SimTime::from_secs(4),
        warmup: SimTime::from_secs(1),
    });
    let expected = run_sequential(&spec);
    for shards in [1, 2, 4, 7] {
        let got = run_cluster(&spec, shards);
        assert_eq!(
            got, expected,
            "churny cluster with {shards} shards diverged from the sequential engine"
        );
    }
}

/// A zero-latency network floors the lookahead at the 1 µs delivery
/// minimum — the narrowest conservative windows the scheduler can issue.
/// Under the pipelined exchange every absorption point sits 1 µs past
/// the window start, so this is the harshest test of the overlapped
/// path: parity must hold at shards {1, 2, 4, 7} under both window
/// policies.
#[test]
fn zero_lookahead_floor_parity_across_shard_counts() {
    use fed_sim::network::{LatencyModel, NetworkModel};
    let mut spec = spec(96);
    spec.net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::ZERO));
    spec.plan.duration = SimTime::from_secs(2);
    let expected = run_sequential(&spec);
    assert!(
        expected.deliveries.iter().sum::<usize>() > 0,
        "dead zero-latency scenario proves nothing"
    );
    for shards in [1, 2, 4, 7] {
        for adaptive in [true, false] {
            let cluster_spec = spec.clone().with_adaptive_window(adaptive);
            let got = run_cluster(&cluster_spec, shards);
            assert_eq!(
                got,
                expected,
                "zero-lookahead cluster with {shards} shards \
                 ({} windows) diverged from the sequential engine",
                if adaptive { "adaptive" } else { "fixed" }
            );
        }
    }
}

/// Zero lookahead *and* churn together: crashes and rejoins land inside
/// 1 µs-floored windows while inbound batches stream through the
/// pipelined mailboxes — the two stress axes of the overlapped exchange
/// at once.
#[test]
fn zero_lookahead_floor_parity_under_churn() {
    use fed_sim::network::{LatencyModel, NetworkModel};
    let mut spec = spec(96);
    spec.net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::ZERO));
    spec.plan.duration = SimTime::from_secs(2);
    spec.churn = Some(fed_workload::churn::ChurnPlan {
        mean_session_secs: 2.0,
        mean_downtime_secs: 1.0,
        churning_fraction: 0.25,
        duration: SimTime::from_secs(2),
        warmup: SimTime::from_secs(1),
    });
    let expected = run_sequential(&spec);
    for shards in [1, 2, 4, 7] {
        let got = run_cluster(&spec, shards);
        assert_eq!(
            got, expected,
            "churny zero-lookahead cluster with {shards} shards diverged \
             from the sequential engine"
        );
    }
}

/// Runs `spec` under `config` / `behavior` sequentially and on the
/// cluster at shards {1, 2, 4, 7}, asserting [`outcomes_match`]: the
/// gossip knobs and the behaviour mix are as engine-agnostic as the
/// T-ARCH defaults.
fn assert_gossip_parity(
    what: &str,
    spec: &ScenarioSpec,
    config: &GossipConfig,
    behavior: fn(NodeId) -> Behavior,
) {
    let expected = run_gossip(spec, EngineKind::Sequential, config.clone(), behavior);
    assert!(
        expected.total_deliveries() > 0,
        "{what}: dead scenario proves nothing"
    );
    for shards in [1usize, 2, 4, 7] {
        let got = run_gossip(
            &spec.clone().with_shards(shards),
            EngineKind::Cluster,
            config.clone(),
            behavior,
        );
        assert!(
            outcomes_match(&expected, &got),
            "{what}: cluster with {shards} shards diverged from the sequential engine"
        );
    }
}

/// FIG3's four `(adapt_fanout, adapt_msg_size)` variants of the
/// expressive fair protocol.
#[test]
fn fig3_adaptation_variants_parity_across_shard_counts() {
    let spec = spec(96);
    for (adapt_fanout, adapt_msg_size) in
        [(false, false), (true, false), (false, true), (true, true)]
    {
        let mut config = t_arch_config(GossipConfig::fair_expressive);
        config.adapt_fanout = adapt_fanout;
        config.adapt_msg_size = adapt_msg_size;
        if !adapt_fanout && !adapt_msg_size {
            config.ratio_correction_gain = 0.0;
        }
        assert_gossip_parity(
            &format!("fig3 F={adapt_fanout} N={adapt_msg_size}"),
            &spec,
            &config,
            |_| Behavior::Honest,
        );
    }
}

/// E-ABLATE's extreme correction gains: pure proportional control and the
/// hardest-reacting setting of the sweep.
#[test]
fn ablation_gains_parity_across_shard_counts() {
    let spec = spec(96);
    for gain in [0.0, 0.2] {
        let mut config = t_arch_config(GossipConfig::fair);
        config.ratio_correction_gain = gain;
        assert_gossip_parity(&format!("ablation gain {gain}"), &spec, &config, |_| {
            Behavior::Honest
        });
    }
}

/// E-BIAS's population: a tenth free-riders, a tenth inflators, the rest
/// honest — no cluster run had a non-honest peer before the harness had
/// one run body.
#[test]
fn bias_behavior_mix_parity_across_shard_counts() {
    fn mix(id: NodeId) -> Behavior {
        match id.index() {
            0..12 => Behavior::FreeRider {
                fanout_cap: 1.0,
                advertised_benefit_scale: 0.1,
            },
            12..24 => Behavior::Inflator {
                advertised_contribution_scale: 5.0,
            },
            _ => Behavior::Honest,
        }
    }
    let config = t_arch_config(GossipConfig::fair);
    assert_gossip_parity("bias mix", &spec(128), &config, mix);
}
