//! Receipt-based contribution audits (paper §5.2, question 6).
//!
//! "Can we ensure that a peer does not artificially grow its contribution
//! by biasing the selection of peers … or the selection of events?" Our
//! answer: contribution claims are *checkable*, because every claimed
//! forwarded message has a receiver. A committee of `k` random witnesses
//! reports how many gossip messages it received from the audited subject
//! over a known window; since an honest sender spreads its traffic
//! uniformly (that is what unbiased `SELECTPARTICIPANTS` means), each
//! witness expects `claimed_rate / (n-1)` receipts per round. Summing over
//! the committee gives an estimator of the subject's true send rate whose
//! error shrinks as `1/√(evidence)`; a claim outside the tolerance band is
//! flagged.
//!
//! The committee logic is pure (no protocol messages in this module): the
//! gossip node tracks per-sender receipt counters and last claims when
//! [`crate::gossip::GossipConfig::audit_receipts`] is set, and the
//! experiment driver — standing in for an in-protocol audit round —
//! samples witnesses and calls [`audit_subject`].

use fed_sim::NodeId;
use std::fmt;

/// Minimum total receipts across the committee before a verdict is
/// allowed (protects against flagging on noise).
pub const MIN_EVIDENCE: u64 = 10;

/// Acceptable multiplicative deviation: a claim is consistent when
/// `estimate / (1 + TOLERANCE) <= claim <= estimate * (1 + TOLERANCE)`.
pub const TOLERANCE: f64 = 0.7;

/// One witness's evidence about a subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessReport {
    /// Gossip messages received from the subject.
    pub messages: u64,
    /// Rounds the witness has been counting.
    pub rounds: u64,
}

/// Possible audit outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditOutcome {
    /// Claim within tolerance of the estimate.
    Consistent,
    /// Subject claims more contribution than witnessed (an
    /// [`crate::behavior::Behavior::Inflator`]).
    OverClaimed,
    /// Subject contributes more than claimed (altruist or misconfigured;
    /// not punished but reported).
    UnderClaimed,
    /// Not enough receipts to judge.
    InsufficientEvidence,
}

/// The result of auditing one subject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditVerdict {
    /// Who was audited.
    pub subject: NodeId,
    /// Estimated true send rate (messages per round).
    pub estimated_rate: f64,
    /// The subject's claimed contribution rate (messages per round).
    pub claimed_rate: f64,
    /// Decision.
    pub outcome: AuditOutcome,
    /// Total receipts backing the estimate.
    pub evidence: u64,
}

impl fmt::Display for AuditVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit({}: claimed {:.2}/round, estimated {:.2}/round, {:?}, evidence {})",
            self.subject, self.claimed_rate, self.estimated_rate, self.outcome, self.evidence
        )
    }
}

/// Audits `subject` given committee evidence.
///
/// `system_size` is the total population `n`; each witness sees a fraction
/// `1 / (n-1)` of the subject's uniform traffic.
///
/// # Panics
///
/// Panics if `system_size < 2` (auditing needs at least one other node).
pub fn audit_subject(
    subject: NodeId,
    claimed_rate: f64,
    witnesses: &[WitnessReport],
    system_size: usize,
) -> AuditVerdict {
    assert!(system_size >= 2, "audit requires at least two nodes");
    let total_msgs: u64 = witnesses.iter().map(|w| w.messages).sum();
    let total_rounds: u64 = witnesses.iter().map(|w| w.rounds).sum();
    if total_msgs < MIN_EVIDENCE || total_rounds == 0 {
        return AuditVerdict {
            subject,
            estimated_rate: 0.0,
            claimed_rate,
            outcome: AuditOutcome::InsufficientEvidence,
            evidence: total_msgs,
        };
    }
    // Receipt rate per witness-round, scaled to the full population.
    let per_witness_rate = total_msgs as f64 / total_rounds as f64;
    let estimated_rate = per_witness_rate * (system_size as f64 - 1.0);
    let upper = estimated_rate * (1.0 + TOLERANCE);
    let lower = estimated_rate / (1.0 + TOLERANCE);
    // A claim that is not a number fails both comparisons below; it is no
    // more checkable than an infinite one, so it is over-claimed too.
    let outcome = if claimed_rate.is_nan() || claimed_rate > upper {
        AuditOutcome::OverClaimed
    } else if claimed_rate < lower {
        AuditOutcome::UnderClaimed
    } else {
        AuditOutcome::Consistent
    };
    AuditVerdict {
        subject,
        estimated_rate,
        claimed_rate,
        outcome,
        evidence: total_msgs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn witness(messages: u64, rounds: u64) -> WitnessReport {
        WitnessReport { messages, rounds }
    }

    #[test]
    fn honest_claim_is_consistent() {
        // n = 101, claimed 10 msgs/round -> each witness sees 0.1/round.
        // 20 witnesses × 100 rounds -> expect 200 receipts.
        let witnesses = vec![witness(10, 100); 20];
        let v = audit_subject(NodeId::new(5), 10.0, &witnesses, 101);
        assert_eq!(v.outcome, AuditOutcome::Consistent);
        assert!((v.estimated_rate - 10.0).abs() < 1e-9);
        assert_eq!(v.evidence, 200);
    }

    #[test]
    fn inflator_is_over_claimed() {
        // True rate 2/round, claims 10/round.
        let witnesses = vec![witness(2, 100); 20];
        let v = audit_subject(NodeId::new(5), 10.0, &witnesses, 101);
        assert_eq!(v.outcome, AuditOutcome::OverClaimed);
        assert!((v.estimated_rate - 2.0).abs() < 1e-9);
    }

    #[test]
    fn altruist_is_under_claimed() {
        let witnesses = vec![witness(10, 100); 20];
        let v = audit_subject(NodeId::new(5), 1.0, &witnesses, 101);
        assert_eq!(v.outcome, AuditOutcome::UnderClaimed);
    }

    #[test]
    fn sparse_evidence_withholds_judgement() {
        let witnesses = vec![witness(1, 100); 3];
        let v = audit_subject(NodeId::new(5), 50.0, &witnesses, 101);
        assert_eq!(v.outcome, AuditOutcome::InsufficientEvidence);
        let empty = audit_subject(NodeId::new(5), 0.0, &[], 101);
        assert_eq!(empty.outcome, AuditOutcome::InsufficientEvidence);
    }

    #[test]
    fn tolerance_band_is_two_sided() {
        // Per-witness rate 1.0/round with n = 11: estimate 10/round, so
        // the band is [10 / 1.7, 17] ≈ [5.88, 17].
        let witnesses = vec![witness(100, 100); 10];
        let ok_hi = audit_subject(NodeId::new(1), 16.9, &witnesses, 11);
        assert_eq!(ok_hi.outcome, AuditOutcome::Consistent);
        let bad_hi = audit_subject(NodeId::new(1), 17.1, &witnesses, 11);
        assert_eq!(bad_hi.outcome, AuditOutcome::OverClaimed);
        let ok_lo = audit_subject(NodeId::new(1), 5.9, &witnesses, 11);
        assert_eq!(ok_lo.outcome, AuditOutcome::Consistent);
        let bad_lo = audit_subject(NodeId::new(1), 5.8, &witnesses, 11);
        assert_eq!(bad_lo.outcome, AuditOutcome::UnderClaimed);
    }

    #[test]
    fn non_finite_claims_are_over_claimed_given_evidence() {
        let witnesses = vec![witness(10, 100); 20];
        for claim in [f64::NAN, f64::INFINITY] {
            let v = audit_subject(NodeId::new(5), claim, &witnesses, 101);
            assert_eq!(v.outcome, AuditOutcome::OverClaimed, "{v}");
        }
        let sparse = vec![witness(1, 100); 3];
        let v = audit_subject(NodeId::new(5), f64::NAN, &sparse, 101);
        assert_eq!(v.outcome, AuditOutcome::InsufficientEvidence);
    }

    #[test]
    fn noisy_witnesses_average_out() {
        // Heterogeneous windows and counts around a true rate of 5/round
        // with n = 51: per witness 0.1/round.
        let witnesses = vec![
            witness(12, 100),
            witness(8, 100),
            witness(11, 120),
            witness(5, 60),
            witness(9, 90),
        ];
        let v = audit_subject(NodeId::new(9), 5.0, &witnesses, 51);
        assert_eq!(v.outcome, AuditOutcome::Consistent, "{v}");
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn tiny_system_rejected() {
        let _ = audit_subject(NodeId::new(0), 1.0, &[], 1);
    }

    #[test]
    fn display_is_informative() {
        let v = audit_subject(NodeId::new(3), 10.0, &[witness(100, 100)], 11);
        let s = format!("{v}");
        assert!(s.contains("n3") && s.contains("claimed"), "{s}");
    }
}
