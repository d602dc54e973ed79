//! Property-based tests of failure-detector invariants.

use fed_membership::swim::{SwimState, SwimStatus, SwimUpdate, PROBE_PERIOD};
use fed_sim::{NodeId, SimTime};
use fed_util::rng::Xoshiro256StarStar;
use proptest::prelude::*;

/// One externally-driven step of a SWIM detector, phrased entirely over
/// its public API.
#[derive(Debug, Clone)]
enum SwimOp {
    /// Absorb a piggybacked claim `(from, subject, incarnation, status)`.
    Absorb(u32, u32, u64, SwimStatus),
    /// Advance one protocol period (tick at the next period boundary).
    Tick,
    /// Fire the direct-probe timeout of the in-flight probe, if any.
    ProbeTimeout,
    /// Fire the indirect timeout of the in-flight probe, if any.
    IndirectTimeout,
    /// Direct contact from a peer.
    Contact(u32),
}

fn swim_op(n: u32) -> impl Strategy<Value = SwimOp> {
    let status = prop_oneof![
        Just(SwimStatus::Alive),
        Just(SwimStatus::Suspect),
        Just(SwimStatus::Dead),
    ];
    prop_oneof![
        (0..n, 0..n, 0u64..6, status).prop_map(|(f, s, i, st)| SwimOp::Absorb(f, s, i, st)),
        Just(SwimOp::Tick),
        Just(SwimOp::ProbeTimeout),
        Just(SwimOp::IndirectTimeout),
        (0..n).prop_map(SwimOp::Contact),
    ]
}

/// Replays an op sequence against a fresh detector, returning the final
/// state (time advances one probe period per op so suspicions can
/// expire).
fn drive_swim(me: u32, n: usize, seed: u64, ops: &[SwimOp]) -> SwimState {
    let mut s = SwimState::new(NodeId::new(me), n);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    let mut probe = None;
    for op in ops {
        now += PROBE_PERIOD;
        match *op {
            SwimOp::Absorb(from, subject, incarnation, status) => {
                s.absorb_piggyback(
                    now,
                    NodeId::new(from),
                    &[SwimUpdate {
                        subject: NodeId::new(subject),
                        incarnation,
                        status,
                    }],
                );
            }
            SwimOp::Tick => {
                probe = s.on_tick(now, &mut rng).probe_seq;
            }
            SwimOp::ProbeTimeout => {
                if let Some(seq) = probe {
                    let _ = s.on_probe_timeout(now, &mut rng, seq);
                }
            }
            SwimOp::IndirectTimeout => {
                if let Some(seq) = probe.take() {
                    s.on_indirect_timeout(now, seq);
                }
            }
            SwimOp::Contact(from) => s.contact(now, NodeId::new(from)),
        }
    }
    s
}

/// `true` when `state`'s view holds `j` neither suspected nor dead.
fn cleared(state: &SwimState, j: NodeId) -> bool {
    !state.is_suspect(j) && !state.is_dead(j)
}

proptest! {
    /// Liveness verdicts partition the membership: under any externally
    /// driven history a member is never simultaneously suspected and
    /// confirmed dead, the alive count is exactly the complement of the
    /// suspected-or-dead set, and a node never holds *itself* suspect or
    /// dead (self-claims are refuted by incarnation bump instead).
    #[test]
    fn swim_verdicts_partition_the_membership(
        seed in any::<u64>(),
        me in 0u32..6,
        ops in prop::collection::vec(swim_op(6), 0..120),
    ) {
        let n = 6usize;
        let s = drive_swim(me, n, seed, &ops);
        let mut alive = 0;
        for j in 0..n as u32 {
            let j = NodeId::new(j);
            prop_assert!(
                !(s.is_suspect(j) && s.is_dead(j)),
                "{j:?} both suspect and dead"
            );
            if cleared(&s, j) {
                alive += 1;
            }
        }
        prop_assert_eq!(s.alive_count(), alive);
        let me = NodeId::new(me);
        prop_assert!(cleared(&s, me), "a node never convicts itself");
    }

    /// Refutation is monotone in the incarnation number: if an `Alive`
    /// claim at incarnation `i` clears a member's suspicion/death, then
    /// so does any claim at `i' > i`; if it does not clear it, no claim
    /// at `i' < i` does either. (Checked on clones, so each candidate
    /// incarnation is applied to the same accumulated history.)
    #[test]
    fn swim_refutation_monotone_in_incarnation(
        seed in any::<u64>(),
        ops in prop::collection::vec(swim_op(6), 0..120),
        subject in 1u32..6,
        incs in prop::collection::btree_set(0u64..10, 2..6),
    ) {
        let s = drive_swim(0, 6, seed, &ops);
        let j = NodeId::new(subject);
        let from = NodeId::new(if subject == 5 { 4 } else { 5 });
        let t = SimTime::from_secs(3_600);
        let clears: Vec<(u64, bool)> = incs
            .iter()
            .map(|&incarnation| {
                let mut probe = s.clone();
                probe.absorb_piggyback(
                    t,
                    from,
                    &[SwimUpdate {
                        subject: j,
                        incarnation,
                        status: SwimStatus::Alive,
                    }],
                );
                // `absorb_piggyback` notes contact with `from`, which may
                // revive *from* but never touches `j` (j != from).
                (incarnation, cleared(&probe, j))
            })
            .collect();
        // btree_set iterates in increasing incarnation order: once an
        // incarnation clears the member, every higher one must too.
        let mut seen_clear = false;
        for (incarnation, c) in clears {
            if seen_clear {
                prop_assert!(c, "refutation not monotone: inc {incarnation} failed to clear");
            }
            seen_clear |= c;
        }
    }

    /// A confirmed death never un-confirms without evidence: only a
    /// strictly-higher-incarnation Alive claim or direct contact revives
    /// a dead member; suspicions and stale Alive claims do not.
    #[test]
    fn swim_dead_stays_dead_without_refutation(
        seed in any::<u64>(),
        dead_inc in 0u64..6,
        stale_delta in 0u64..3,
    ) {
        let mut s = drive_swim(0, 4, seed, &[]);
        let j = NodeId::new(1);
        let from = NodeId::new(2);
        let t = SimTime::from_secs(10);
        s.absorb_piggyback(t, from, &[SwimUpdate {
            subject: j,
            incarnation: dead_inc,
            status: SwimStatus::Dead,
        }]);
        prop_assert!(s.is_dead(j));
        // Suspect at any incarnation never un-deads.
        s.absorb_piggyback(t, from, &[SwimUpdate {
            subject: j,
            incarnation: dead_inc + 10,
            status: SwimStatus::Suspect,
        }]);
        prop_assert!(s.is_dead(j));
        // Alive at or below the death's incarnation is stale.
        s.absorb_piggyback(t, from, &[SwimUpdate {
            subject: j,
            incarnation: dead_inc.saturating_sub(stale_delta),
            status: SwimStatus::Alive,
        }]);
        prop_assert!(s.is_dead(j));
        // Strictly higher incarnation revives.
        s.absorb_piggyback(t, from, &[SwimUpdate {
            subject: j,
            incarnation: dead_inc + 11,
            status: SwimStatus::Alive,
        }]);
        prop_assert!(!s.is_dead(j));
    }
}
