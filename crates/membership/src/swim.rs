//! SWIM-style failure detection as a pure deterministic state machine.
//!
//! The classic SWIM protocol (Das, Gupta, Motivala 2002): every protocol
//! period a member probes one peer (`Ping`); on a missing ack it asks `k`
//! other members to probe indirectly (`PingReq`); a peer that stays silent
//! is marked **suspect**, disseminated as such, and **confirmed** dead when
//! the suspicion times out — unless the accused refutes with a higher
//! *incarnation number*. Membership updates ride piggybacked on all probe
//! traffic (and, in this workspace, on gossip pushes), each update
//! retransmitted a logarithmic number of times via a dissemination counter.
//!
//! [`SwimState`] contains no I/O and no timers of its own: a host protocol
//! (see `fed_core::gossip::GossipNode`) feeds it ticks, timeouts and
//! messages, and forwards the `(destination, message)` pairs it returns.
//! All randomness comes through the caller's [`Rng64`] stream, so the
//! detector inherits the engine's determinism: given the same seed it
//! observes bit-identical histories on the sequential and sharded engines,
//! across shard counts and placements.
//!
//! Detection history is recorded as [`SwimObservation`]s — the raw
//! material for detection-latency and false-suspicion telemetry.

use fed_sim::{NodeId, SimDuration, SimTime};
use fed_util::rng::Rng64;

// The detector's tunables, set for the workspace's simulated WAN (10 ms
// links, multi-second scenario horizons).

/// Protocol period: one direct probe is issued per period.
pub const PROBE_PERIOD: SimDuration = SimDuration::from_millis(500);
/// How long to wait for a direct ack before falling back to indirect
/// probing.
pub const PROBE_TIMEOUT: SimDuration = SimDuration::from_millis(120);
/// How many members relay an indirect probe (`k` in the paper).
pub const PING_REQ_FANOUT: usize = 3;
/// How long a member stays suspected before it is confirmed dead.
pub const SUSPECT_TIMEOUT: SimDuration = SimDuration::from_millis(2000);
/// Maximum membership updates piggybacked per message.
pub const MAX_PIGGYBACK: usize = 8;
/// An update is retransmitted `GOSSIP_MULTIPLIER × (⌊log₂ n⌋ + 1)` times
/// (the bit length of `max(n, 2)`) before leaving the dissemination
/// queue.
pub const GOSSIP_MULTIPLIER: u32 = 3;

/// Liveness verdict carried by a membership update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SwimStatus {
    /// The subject is believed alive.
    Alive,
    /// The subject is suspected dead.
    Suspect,
    /// The subject is confirmed dead.
    Dead,
}

/// One piggybacked membership update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwimUpdate {
    /// Whom the update is about.
    pub subject: NodeId,
    /// The subject's incarnation number the claim refers to.
    pub incarnation: u64,
    /// The claimed status.
    pub status: SwimStatus,
}

/// Wire bytes of one [`SwimUpdate`]: subject (4) + incarnation (8) +
/// status tag (1).
pub const SWIM_UPDATE_BYTES: usize = 13;

/// SWIM wire messages. Probes carry a sequence number so stale timeout
/// timers can be recognized, plus piggybacked updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwimMsg {
    /// Direct or relayed probe; the ack goes to `reply_to` (the original
    /// prober for relayed probes).
    Ping {
        /// Probe sequence number of the originating prober.
        seq: u64,
        /// Where the ack must be sent.
        reply_to: NodeId,
        /// Piggybacked membership updates.
        updates: Vec<SwimUpdate>,
    },
    /// Request to probe `target` on the sender's behalf.
    PingReq {
        /// Probe sequence number of the originating prober.
        seq: u64,
        /// The silent member to probe.
        target: NodeId,
        /// Piggybacked membership updates.
        updates: Vec<SwimUpdate>,
    },
    /// Acknowledgement of a probe.
    Ack {
        /// The probe's sequence number.
        seq: u64,
        /// Piggybacked membership updates.
        updates: Vec<SwimUpdate>,
    },
}

impl SwimMsg {
    /// Abstract wire size in bytes (header + piggyback).
    pub fn wire_size(&self) -> usize {
        let updates = match self {
            SwimMsg::Ping { updates, .. }
            | SwimMsg::PingReq { updates, .. }
            | SwimMsg::Ack { updates, .. } => updates.len(),
        };
        16 + updates * SWIM_UPDATE_BYTES
    }
}

/// What a detector observed about a peer, with its timestamp — the raw
/// series behind detection-latency and false-suspicion telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwimObservation {
    /// When the observation was made (virtual time).
    pub at: SimTime,
    /// Whom it concerns.
    pub subject: NodeId,
    /// What was observed.
    pub kind: SwimObservationKind,
}

/// Kinds of detector observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwimObservationKind {
    /// The subject became suspected (locally or via dissemination).
    Suspect,
    /// The subject was confirmed dead.
    Confirm,
    /// A suspicion/death claim about the subject was refuted (the member
    /// came back alive in this detector's view).
    Refute,
    /// This node refuted a claim about *itself* by bumping its
    /// incarnation.
    SelfRefute,
}

/// Per-member bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemberState {
    Alive,
    Suspect { since: SimTime },
    Dead,
}

#[derive(Debug, Clone)]
struct Member {
    state: MemberState,
    incarnation: u64,
}

/// A queued update with its dissemination counter.
#[derive(Debug, Clone)]
struct Queued {
    update: SwimUpdate,
    sends: u32,
}

/// The in-flight probe of the current protocol period.
#[derive(Debug, Clone, Copy)]
struct Pending {
    target: NodeId,
    seq: u64,
}

/// Result of a protocol tick: messages to send, and the probe sequence
/// number (if a probe was issued) for which the host must arm the direct
/// timeout timer.
#[derive(Debug, Default)]
pub struct SwimTick {
    /// `(destination, message)` pairs to send.
    pub msgs: Vec<(NodeId, SwimMsg)>,
    /// Sequence number of the probe issued this tick, if any.
    pub probe_seq: Option<u64>,
}

/// The deterministic SWIM detector state of one node.
///
/// The detector intentionally does not filter partner selection: the
/// gossip node samples from its [`FullMembership`](crate::FullMembership)
/// oracle whatever the detector believes, so enabling it does not perturb
/// partner selection (and therefore dissemination parity) relative to
/// detector-off runs of the same seed.
#[derive(Debug, Clone)]
pub struct SwimState {
    id: NodeId,
    members: Vec<Member>,
    my_incarnation: u64,
    queue: Vec<Queued>,
    next_seq: u64,
    pending: Option<Pending>,
    observations: Vec<SwimObservation>,
    gossip_limit: u32,
}

impl SwimState {
    /// Creates a detector for a system of `n` nodes; everyone starts
    /// alive at incarnation 0.
    pub fn new(id: NodeId, n: usize) -> Self {
        let bits = usize::BITS - n.max(2).leading_zeros();
        SwimState {
            id,
            members: vec![
                Member {
                    state: MemberState::Alive,
                    incarnation: 0,
                };
                n
            ],
            my_incarnation: 0,
            queue: Vec::new(),
            next_seq: 0,
            pending: None,
            observations: Vec::new(),
            gossip_limit: GOSSIP_MULTIPLIER * bits,
        }
    }

    /// Restarts the detector for a node that rejoins: everything but the
    /// observation log goes back to [`SwimState::new`]'s fresh view, and
    /// the log keeps what this node observed before, so detection
    /// telemetry covers the whole run.
    pub fn restart(&mut self) {
        let observations = std::mem::take(&mut self.observations);
        *self = SwimState {
            observations,
            ..SwimState::new(self.id, self.members.len())
        };
    }

    /// The full observation log, in observation order.
    pub fn observations(&self) -> &[SwimObservation] {
        &self.observations
    }

    /// This node's current incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.my_incarnation
    }

    /// Number of members currently considered alive (including self).
    pub fn alive_count(&self) -> usize {
        self.members
            .iter()
            .filter(|m| matches!(m.state, MemberState::Alive))
            .count()
    }

    /// `true` when `node` is confirmed dead in this view.
    pub fn is_dead(&self, node: NodeId) -> bool {
        matches!(self.members[node.index()].state, MemberState::Dead)
    }

    /// `true` when `node` is currently suspected in this view.
    pub fn is_suspect(&self, node: NodeId) -> bool {
        matches!(
            self.members[node.index()].state,
            MemberState::Suspect { .. }
        )
    }

    fn record(&mut self, at: SimTime, subject: NodeId, kind: SwimObservationKind) {
        self.observations
            .push(SwimObservation { at, subject, kind });
    }

    /// Queues `update` for dissemination, replacing any queued update
    /// about the same subject (latest claim wins, counter resets).
    fn enqueue(&mut self, update: SwimUpdate) {
        if let Some(q) = self
            .queue
            .iter_mut()
            .find(|q| q.update.subject == update.subject)
        {
            q.update = update;
            q.sends = 0;
        } else {
            self.queue.push(Queued { update, sends: 0 });
        }
    }

    /// Selects up to [`MAX_PIGGYBACK`] updates, preferring the least-sent
    /// (ties broken by subject id), incrementing their counters and
    /// retiring exhausted entries. Deterministic by construction.
    fn take_piggyback(&mut self) -> Vec<SwimUpdate> {
        let k = MAX_PIGGYBACK.min(self.queue.len());
        if k == 0 {
            return Vec::new();
        }
        let mut order: Vec<usize> = (0..self.queue.len()).collect();
        order.sort_by_key(|&i| (self.queue[i].sends, self.queue[i].update.subject));
        order.truncate(k);
        let mut out = Vec::with_capacity(k);
        for &i in &order {
            out.push(self.queue[i].update);
            self.queue[i].sends += 1;
        }
        let limit = self.gossip_limit;
        self.queue.retain(|q| q.sends < limit);
        out.sort_by_key(|u| u.subject);
        out
    }

    /// Applies one membership claim, returning `true` when it changed the
    /// local view (and was therefore re-queued for dissemination).
    fn apply(&mut self, now: SimTime, update: SwimUpdate) -> bool {
        let SwimUpdate {
            subject,
            incarnation,
            status,
        } = update;
        if subject == self.id {
            match status {
                SwimStatus::Alive => {
                    if incarnation > self.my_incarnation {
                        self.my_incarnation = incarnation;
                    }
                    return false;
                }
                SwimStatus::Suspect | SwimStatus::Dead => {
                    // Refute: adopt a strictly higher incarnation and
                    // broadcast it. (A live node never accepts its own
                    // death; rejoining nodes converge via the
                    // contact-revival rule below.)
                    if incarnation >= self.my_incarnation {
                        self.my_incarnation = incarnation + 1;
                        self.record(now, self.id, SwimObservationKind::SelfRefute);
                        self.enqueue(SwimUpdate {
                            subject: self.id,
                            incarnation: self.my_incarnation,
                            status: SwimStatus::Alive,
                        });
                        return true;
                    }
                    return false;
                }
            }
        }
        let member = &mut self.members[subject.index()];
        let accepted = match (status, member.state) {
            // Alive refutes suspicion and revives the dead only with a
            // strictly greater incarnation; at the same incarnation
            // suspicion wins (standard SWIM precedence).
            (SwimStatus::Alive, _) => incarnation > member.incarnation,
            // Suspicion outranks Alive at equal incarnation; it never
            // un-deads.
            (SwimStatus::Suspect, MemberState::Alive) => incarnation >= member.incarnation,
            (SwimStatus::Suspect, MemberState::Suspect { .. }) => incarnation > member.incarnation,
            (SwimStatus::Suspect, MemberState::Dead) => false,
            // Death is accepted for any non-dead member unless the member
            // already refuted with a higher incarnation.
            (SwimStatus::Dead, MemberState::Dead) => false,
            (SwimStatus::Dead, _) => incarnation >= member.incarnation,
        };
        if !accepted {
            return false;
        }
        let was = member.state;
        member.incarnation = incarnation;
        member.state = match status {
            SwimStatus::Alive => MemberState::Alive,
            SwimStatus::Suspect => MemberState::Suspect { since: now },
            SwimStatus::Dead => MemberState::Dead,
        };
        match (was, status) {
            (_, SwimStatus::Suspect) => self.record(now, subject, SwimObservationKind::Suspect),
            (_, SwimStatus::Dead) => self.record(now, subject, SwimObservationKind::Confirm),
            (MemberState::Suspect { .. } | MemberState::Dead, SwimStatus::Alive) => {
                self.record(now, subject, SwimObservationKind::Refute)
            }
            (MemberState::Alive, SwimStatus::Alive) => {}
        }
        self.enqueue(update);
        true
    }

    /// Applies a batch of piggybacked updates.
    fn absorb(&mut self, now: SimTime, updates: &[SwimUpdate]) {
        for u in updates {
            self.apply(now, *u);
        }
    }

    /// Notes direct contact with `from` (any received message): a member
    /// we hold dead that demonstrably speaks is revived with a bumped
    /// incarnation, so rejoined nodes converge back into the view.
    pub fn contact(&mut self, now: SimTime, from: NodeId) {
        if from == self.id || from.index() >= self.members.len() {
            return;
        }
        if self.is_dead(from) {
            let inc = self.members[from.index()].incarnation + 1;
            self.apply(
                now,
                SwimUpdate {
                    subject: from,
                    incarnation: inc,
                    status: SwimStatus::Alive,
                },
            );
        }
    }

    /// One protocol period: expire overdue suspicions, then issue one
    /// direct probe to a non-dead peer chosen uniformly at random.
    pub fn on_tick<R: Rng64>(&mut self, now: SimTime, rng: &mut R) -> SwimTick {
        // 1. Confirm suspicions that outlived the suspect timeout.
        let timeout = SUSPECT_TIMEOUT;
        let expired: Vec<(NodeId, u64)> = self
            .members
            .iter()
            .enumerate()
            .filter_map(|(i, m)| match m.state {
                MemberState::Suspect { since } if now >= since + timeout => {
                    Some((NodeId::new(i as u32), m.incarnation))
                }
                _ => None,
            })
            .collect();
        for (subject, incarnation) in expired {
            self.apply(
                now,
                SwimUpdate {
                    subject,
                    incarnation,
                    status: SwimStatus::Dead,
                },
            );
        }
        // 2. A probe that never resolved is abandoned (its timers were
        // stale or the host skipped them); the new period starts clean.
        self.pending = None;
        // 3. Probe one live-or-suspect peer.
        let candidates: Vec<NodeId> = self
            .members
            .iter()
            .enumerate()
            .filter(|&(i, m)| i != self.id.index() && !matches!(m.state, MemberState::Dead))
            .map(|(i, _)| NodeId::new(i as u32))
            .collect();
        let mut tick = SwimTick::default();
        if candidates.is_empty() {
            return tick;
        }
        let target = candidates[rng.range_usize(candidates.len())];
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending = Some(Pending { target, seq });
        let updates = self.take_piggyback();
        tick.msgs.push((
            target,
            SwimMsg::Ping {
                seq,
                reply_to: self.id,
                updates,
            },
        ));
        tick.probe_seq = Some(seq);
        tick
    }

    /// The direct-probe timeout for `seq` fired without an ack: fan out
    /// `PingReq`s to [`PING_REQ_FANOUT`] other members. Returns the
    /// relays to send; empty when the probe already resolved (stale
    /// timer) — in which case the host must not arm the indirect timeout.
    pub fn on_probe_timeout<R: Rng64>(
        &mut self,
        _now: SimTime,
        rng: &mut R,
        seq: u64,
    ) -> Vec<(NodeId, SwimMsg)> {
        let Some(p) = self.pending else {
            return Vec::new();
        };
        if p.seq != seq {
            return Vec::new();
        }
        let relays: Vec<NodeId> = self
            .members
            .iter()
            .enumerate()
            .filter(|&(i, m)| {
                i != self.id.index()
                    && i != p.target.index()
                    && matches!(m.state, MemberState::Alive)
            })
            .map(|(i, _)| NodeId::new(i as u32))
            .collect();
        let k = PING_REQ_FANOUT.min(relays.len());
        let mut msgs = Vec::with_capacity(k.max(1));
        for idx in rng.sample_indices(relays.len(), k) {
            let updates = self.take_piggyback();
            msgs.push((
                relays[idx],
                SwimMsg::PingReq {
                    seq,
                    target: p.target,
                    updates,
                },
            ));
        }
        if msgs.is_empty() {
            // Nobody to relay through: the indirect phase is vacuous, but
            // the host still arms the indirect timeout, which will declare
            // the suspicion.
            msgs.push((
                p.target,
                SwimMsg::Ping {
                    seq,
                    reply_to: self.id,
                    updates: self.take_piggyback(),
                },
            ));
        }
        msgs
    }

    /// The indirect timeout for `seq` fired without any ack: suspect the
    /// probe target.
    pub fn on_indirect_timeout(&mut self, now: SimTime, seq: u64) {
        let Some(p) = self.pending else {
            return;
        };
        if p.seq != seq {
            return;
        }
        self.pending = None;
        let incarnation = self.members[p.target.index()].incarnation;
        self.apply(
            now,
            SwimUpdate {
                subject: p.target,
                incarnation,
                status: SwimStatus::Suspect,
            },
        );
    }

    /// Handles one SWIM message; returns replies/relays to send.
    pub fn on_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: SwimMsg,
    ) -> Vec<(NodeId, SwimMsg)> {
        self.contact(now, from);
        match msg {
            SwimMsg::Ping {
                seq,
                reply_to,
                updates,
            } => {
                self.absorb(now, &updates);
                let piggy = self.take_piggyback();
                vec![(
                    reply_to,
                    SwimMsg::Ack {
                        seq,
                        updates: piggy,
                    },
                )]
            }
            SwimMsg::PingReq {
                seq,
                target,
                updates,
            } => {
                self.absorb(now, &updates);
                let piggy = self.take_piggyback();
                // Relay the probe; the target acks the original prober
                // directly.
                vec![(
                    target,
                    SwimMsg::Ping {
                        seq,
                        reply_to: from,
                        updates: piggy,
                    },
                )]
            }
            SwimMsg::Ack { seq, updates } => {
                self.absorb(now, &updates);
                if let Some(p) = self.pending {
                    if p.seq == seq {
                        self.pending = None;
                    }
                }
                Vec::new()
            }
        }
    }

    /// Absorbs updates piggybacked on non-SWIM traffic (gossip pushes)
    /// and returns the updates to piggyback on an outgoing message.
    pub fn absorb_piggyback(&mut self, now: SimTime, from: NodeId, updates: &[SwimUpdate]) {
        self.contact(now, from);
        self.absorb(now, updates);
    }

    /// Updates to attach to an outgoing gossip message.
    pub fn outgoing_piggyback(&mut self) -> Vec<SwimUpdate> {
        self.take_piggyback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_util::rng::Xoshiro256StarStar;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn tick_probes_one_peer_and_times_out_to_suspicion() {
        let mut s = SwimState::new(NodeId::new(0), 4);
        let mut r = rng(1);
        let t0 = SimTime::from_millis(100);
        let tick = s.on_tick(t0, &mut r);
        assert_eq!(tick.msgs.len(), 1);
        let seq = tick.probe_seq.unwrap();
        let (target, msg) = &tick.msgs[0];
        assert!(matches!(msg, SwimMsg::Ping { .. }));
        // No ack: direct timeout fans out ping-reqs.
        let relays = s.on_probe_timeout(t0 + SimDuration::from_millis(120), &mut r, seq);
        assert_eq!(relays.len(), 2, "k=3 clamped to the 2 other members");
        assert!(relays
            .iter()
            .all(|(to, m)| *to != *target && matches!(m, SwimMsg::PingReq { .. })));
        // Still no ack: indirect timeout suspects the target.
        s.on_indirect_timeout(t0 + SimDuration::from_millis(400), seq);
        assert!(s.is_suspect(*target));
        assert_eq!(s.observations().len(), 1);
        assert_eq!(s.observations()[0].kind, SwimObservationKind::Suspect);
    }

    #[test]
    fn ack_cancels_the_probe() {
        let mut s = SwimState::new(NodeId::new(0), 4);
        let mut r = rng(2);
        let t0 = SimTime::from_millis(100);
        let tick = s.on_tick(t0, &mut r);
        let seq = tick.probe_seq.unwrap();
        let target = tick.msgs[0].0;
        let _ = s.on_message(
            t0 + SimDuration::from_millis(20),
            target,
            SwimMsg::Ack {
                seq,
                updates: vec![],
            },
        );
        // Both timeouts are now stale no-ops.
        assert!(s
            .on_probe_timeout(t0 + SimDuration::from_millis(120), &mut r, seq)
            .is_empty());
        s.on_indirect_timeout(t0 + SimDuration::from_millis(400), seq);
        assert!(!s.is_suspect(target));
        assert!(s.observations().is_empty());
    }

    #[test]
    fn ping_is_acked_to_reply_to() {
        let mut s = SwimState::new(NodeId::new(2), 4);
        let out = s.on_message(
            SimTime::from_millis(5),
            NodeId::new(3),
            SwimMsg::Ping {
                seq: 7,
                reply_to: NodeId::new(1),
                updates: vec![],
            },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeId::new(1));
        assert!(matches!(out[0].1, SwimMsg::Ack { seq: 7, .. }));
    }

    #[test]
    fn ping_req_relays_to_target() {
        let mut s = SwimState::new(NodeId::new(2), 4);
        let out = s.on_message(
            SimTime::from_millis(5),
            NodeId::new(0),
            SwimMsg::PingReq {
                seq: 9,
                target: NodeId::new(3),
                updates: vec![],
            },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeId::new(3));
        match &out[0].1 {
            SwimMsg::Ping { seq, reply_to, .. } => {
                assert_eq!(*seq, 9);
                assert_eq!(*reply_to, NodeId::new(0), "ack goes to the origin");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn suspicion_expires_to_confirm_on_tick() {
        let mut s = SwimState::new(NodeId::new(0), 3);
        let t0 = SimTime::from_secs(1);
        s.apply(
            t0,
            SwimUpdate {
                subject: NodeId::new(1),
                incarnation: 0,
                status: SwimStatus::Suspect,
            },
        );
        let mut r = rng(3);
        // Before the timeout: still suspect.
        let _ = s.on_tick(t0 + SimDuration::from_millis(1000), &mut r);
        assert!(s.is_suspect(NodeId::new(1)));
        // After: confirmed dead.
        let _ = s.on_tick(t0 + SimDuration::from_millis(2000), &mut r);
        assert!(s.is_dead(NodeId::new(1)));
        let kinds: Vec<_> = s.observations().iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            vec![SwimObservationKind::Suspect, SwimObservationKind::Confirm]
        );
    }

    #[test]
    fn refutation_is_monotone_in_incarnation() {
        let mut s = SwimState::new(NodeId::new(0), 3);
        let t = SimTime::from_secs(1);
        let j = NodeId::new(1);
        assert!(s.apply(
            t,
            SwimUpdate {
                subject: j,
                incarnation: 0,
                status: SwimStatus::Suspect
            }
        ));
        // Alive at the same incarnation does NOT clear suspicion.
        assert!(!s.apply(
            t,
            SwimUpdate {
                subject: j,
                incarnation: 0,
                status: SwimStatus::Alive
            }
        ));
        assert!(s.is_suspect(j));
        // Alive at a strictly higher incarnation refutes.
        assert!(s.apply(
            t,
            SwimUpdate {
                subject: j,
                incarnation: 1,
                status: SwimStatus::Alive
            }
        ));
        assert!(!s.is_suspect(j) && !s.is_dead(j));
        // A stale suspicion (lower incarnation) no longer applies.
        assert!(!s.apply(
            t,
            SwimUpdate {
                subject: j,
                incarnation: 0,
                status: SwimStatus::Suspect
            }
        ));
        assert!(!s.is_suspect(j));
    }

    #[test]
    fn self_suspicion_triggers_refutation() {
        let me = NodeId::new(2);
        let mut s = SwimState::new(me, 4);
        assert_eq!(s.incarnation(), 0);
        s.absorb(
            SimTime::from_secs(1),
            &[SwimUpdate {
                subject: me,
                incarnation: 0,
                status: SwimStatus::Suspect,
            }],
        );
        assert_eq!(s.incarnation(), 1, "incarnation bumped past the claim");
        // The refutation is queued for dissemination.
        let piggy = s.outgoing_piggyback();
        assert!(piggy.contains(&SwimUpdate {
            subject: me,
            incarnation: 1,
            status: SwimStatus::Alive
        }));
        assert_eq!(s.observations()[0].kind, SwimObservationKind::SelfRefute);
    }

    #[test]
    fn contact_revives_a_dead_member() {
        let mut s = SwimState::new(NodeId::new(0), 3);
        let j = NodeId::new(1);
        let t = SimTime::from_secs(2);
        s.apply(
            t,
            SwimUpdate {
                subject: j,
                incarnation: 5,
                status: SwimStatus::Dead,
            },
        );
        assert!(s.is_dead(j));
        let _ = s.on_message(
            t + SimDuration::from_secs(1),
            j,
            SwimMsg::Ack {
                seq: 99,
                updates: vec![],
            },
        );
        assert!(!s.is_dead(j), "a speaking member cannot stay dead");
        let last = s.observations().last().unwrap();
        assert_eq!(last.kind, SwimObservationKind::Refute);
    }

    #[test]
    fn piggyback_counters_retire_updates() {
        let mut s = SwimState::new(NodeId::new(0), 4);
        s.apply(
            SimTime::from_secs(1),
            SwimUpdate {
                subject: NodeId::new(1),
                incarnation: 0,
                status: SwimStatus::Suspect,
            },
        );
        // gossip_limit for n=4 is multiplier * (bit width of 4) = 3*3 = 9.
        let mut seen = 0;
        for _ in 0..9 {
            let p = s.take_piggyback();
            assert_eq!(p.len(), 1);
            seen += 1;
        }
        assert!(s.take_piggyback().is_empty(), "retired after {seen} sends");
    }

    #[test]
    fn deterministic_given_identical_inputs() {
        let run = || {
            let mut s = SwimState::new(NodeId::new(0), 16);
            let mut r = rng(77);
            let mut log = Vec::new();
            for step in 0..50u64 {
                let now = SimTime::from_millis(500 * (step + 1));
                let tick = s.on_tick(now, &mut r);
                for (to, msg) in &tick.msgs {
                    log.push(format!("{to:?}{msg:?}"));
                }
                if let Some(seq) = tick.probe_seq {
                    if step % 3 == 0 {
                        let relays =
                            s.on_probe_timeout(now + SimDuration::from_millis(120), &mut r, seq);
                        for (to, msg) in &relays {
                            log.push(format!("{to:?}{msg:?}"));
                        }
                        s.on_indirect_timeout(now + SimDuration::from_millis(400), seq);
                    }
                }
            }
            (log, s.observations().to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wire_size_counts_updates() {
        let m = SwimMsg::Ack {
            seq: 1,
            updates: vec![
                SwimUpdate {
                    subject: NodeId::new(1),
                    incarnation: 0,
                    status: SwimStatus::Alive,
                };
                3
            ],
        };
        assert_eq!(m.wire_size(), 16 + 3 * SWIM_UPDATE_BYTES);
    }
}
