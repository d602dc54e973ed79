//! Membership-detection telemetry: per-window failure-detector series.
//!
//! A failure detector (SWIM in `fed-membership`) emits a stream of
//! *observations* — suspicions, death confirmations, refutations. This
//! module folds that stream, together with the scenario's ground-truth
//! crash/rejoin trace, into fixed virtual-time windows:
//!
//! * **detection latency** — for each confirmation of a node that really
//!   is down, the time since it crashed (summed per window; divide by
//!   `detections` for the mean);
//! * **false suspicions** — suspicions raised against nodes that were in
//!   fact alive (the cost of aggressive timeouts, and the signature of a
//!   partition: the far side looks dead);
//! * **partition recovery** — visible as the refutation wave after the
//!   heal, when contact with "dead" members resumes and their records
//!   are revived.
//!
//! Every accumulator is an integer, classification is a pure function of
//! the observation stream and the ground truth, and both inputs are
//! deterministic simulation data — so the series is byte-identical
//! across engines, shard counts and placements whenever
//! the observation streams are (which the parity suites assert).
//!
//! Windows are `[w·W, (w+1)·W)` like the main telemetry series; an
//! observation at exactly a boundary belongs to the later window.

use fed_membership::swim::SwimObservationKind;
use fed_sim::{SimDuration, SimTime};

/// One observation from one detector instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorEvent {
    /// When the observation was made (virtual time).
    pub at: SimTime,
    /// The node whose detector observed it.
    pub observer: usize,
    /// The node the observation concerns.
    pub subject: usize,
    /// What was observed.
    pub kind: SwimObservationKind,
}

/// Ground truth: one contiguous downtime of one node, `[down, up)`
/// (`up` is the rejoin instant, or the run horizon when the node never
/// came back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DowntimeInterval {
    /// The node that was down.
    pub node: usize,
    /// When it crashed.
    pub down: SimTime,
    /// When it rejoined (exclusive; the horizon if it never did).
    pub up: SimTime,
}

impl DowntimeInterval {
    fn covers(&self, node: usize, at: SimTime) -> bool {
        self.node == node && self.down <= at && at < self.up
    }
}

/// One window's worth of detection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MembershipWindowRow {
    /// Window index.
    pub index: u64,
    /// Suspicions raised (all of them).
    pub suspicions: u64,
    /// Death confirmations recorded (all of them).
    pub confirms: u64,
    /// Suspicion/death refutations.
    pub refutes: u64,
    /// Self-refutations (a live node clearing its own name).
    pub self_refutes: u64,
    /// Suspicions against nodes that were actually alive.
    pub false_suspicions: u64,
    /// Confirmations of nodes that were actually down.
    pub detections: u64,
    /// Σ (confirmation time − crash time) over this window's
    /// detections, in microseconds.
    pub detection_latency_us_sum: u64,
}

/// The per-window failure-detection series of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipSeries {
    /// Window width.
    pub window: SimDuration,
    /// Per-window counters, covering `[0, horizon)`.
    pub windows: Vec<MembershipWindowRow>,
}

impl MembershipSeries {
    /// Folds an observation stream and the ground-truth downtime
    /// intervals into per-window counters.
    ///
    /// Observations at or past `horizon` are ignored; `window` must be
    /// non-zero.
    pub fn build(
        window: SimDuration,
        horizon: SimTime,
        events: &[DetectorEvent],
        downtime: &[DowntimeInterval],
    ) -> Self {
        assert!(window > SimDuration::ZERO, "window width must be positive");
        let num_windows = horizon.as_micros().div_ceil(window.as_micros());
        let mut windows: Vec<MembershipWindowRow> = (0..num_windows)
            .map(|index| MembershipWindowRow {
                index,
                ..MembershipWindowRow::default()
            })
            .collect();
        for e in events {
            if e.at >= horizon {
                continue;
            }
            let row = &mut windows[(e.at.as_micros() / window.as_micros()) as usize];
            let down_since = downtime
                .iter()
                .find(|d| d.covers(e.subject, e.at))
                .map(|d| d.down);
            match e.kind {
                SwimObservationKind::Suspect => {
                    row.suspicions += 1;
                    if down_since.is_none() {
                        row.false_suspicions += 1;
                    }
                }
                SwimObservationKind::Confirm => {
                    row.confirms += 1;
                    if let Some(down) = down_since {
                        row.detections += 1;
                        row.detection_latency_us_sum += e.at.as_micros() - down.as_micros();
                    }
                }
                SwimObservationKind::Refute => row.refutes += 1,
                SwimObservationKind::SelfRefute => row.self_refutes += 1,
            }
        }
        MembershipSeries { window, windows }
    }

    /// Total true detections over the run.
    pub fn total_detections(&self) -> u64 {
        self.windows.iter().map(|w| w.detections).sum()
    }

    /// Total false suspicions over the run.
    pub fn total_false_suspicions(&self) -> u64 {
        self.windows.iter().map(|w| w.false_suspicions).sum()
    }

    /// Total refutations over the run (the partition-recovery signal).
    pub fn total_refutes(&self) -> u64 {
        self.windows.iter().map(|w| w.refutes).sum()
    }

    /// Mean detection latency in microseconds, `None` without a single
    /// true detection.
    pub fn detection_latency_mean_us(&self) -> Option<f64> {
        let detections = self.total_detections();
        if detections == 0 {
            return None;
        }
        let sum: u64 = self
            .windows
            .iter()
            .map(|w| w.detection_latency_us_sum)
            .sum();
        Some(sum as f64 / detections as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ms: u64, subject: usize, kind: SwimObservationKind) -> DetectorEvent {
        DetectorEvent {
            at: SimTime::from_millis(at_ms),
            observer: 0,
            subject,
            kind,
        }
    }

    #[test]
    fn classifies_against_ground_truth() {
        let downtime = [DowntimeInterval {
            node: 3,
            down: SimTime::from_millis(1_000),
            up: SimTime::from_millis(5_000),
        }];
        let events = [
            // True suspicion and detection of the crashed node.
            ev(1_400, 3, SwimObservationKind::Suspect),
            ev(2_000, 3, SwimObservationKind::Confirm),
            // False suspicion of a live node, later refuted.
            ev(2_100, 4, SwimObservationKind::Suspect),
            ev(2_600, 4, SwimObservationKind::Refute),
            // Confirm of a node that already rejoined: not a detection.
            ev(6_000, 3, SwimObservationKind::Confirm),
            // Past the horizon: ignored.
            ev(10_000, 3, SwimObservationKind::Suspect),
        ];
        let s = MembershipSeries::build(
            SimDuration::from_secs(1),
            SimTime::from_secs(8),
            &events,
            &downtime,
        );
        assert_eq!(s.windows.len(), 8);
        assert_eq!(s.windows[1].suspicions, 1);
        assert_eq!(s.windows[1].false_suspicions, 0);
        assert_eq!(s.windows[2].suspicions, 1);
        assert_eq!(s.windows[2].false_suspicions, 1);
        assert_eq!(s.windows[2].confirms, 1);
        assert_eq!(s.windows[2].detections, 1);
        assert_eq!(s.windows[2].detection_latency_us_sum, 1_000_000);
        assert_eq!(s.windows[2].refutes, 1);
        assert_eq!(s.windows[6].confirms, 1);
        assert_eq!(s.windows[6].detections, 0, "rejoined node is alive");
        assert_eq!(s.total_detections(), 1);
        assert_eq!(s.total_false_suspicions(), 1);
        assert_eq!(s.detection_latency_mean_us(), Some(1_000_000.0));
    }

    #[test]
    fn empty_stream_yields_zeroed_windows() {
        let s = MembershipSeries::build(
            SimDuration::from_millis(500),
            SimTime::from_millis(1_600),
            &[],
            &[],
        );
        assert_eq!(s.windows.len(), 4, "horizon rounds up to whole windows");
        assert!(s.windows.iter().all(|w| w.suspicions == 0));
        assert_eq!(s.detection_latency_mean_us(), None);
    }

    #[test]
    fn boundary_observation_lands_in_the_later_window() {
        let events = [ev(500, 1, SwimObservationKind::Suspect)];
        let s = MembershipSeries::build(
            SimDuration::from_millis(500),
            SimTime::from_millis(1_000),
            &events,
            &[],
        );
        assert_eq!(s.windows[0].suspicions, 0);
        assert_eq!(s.windows[1].suspicions, 1);
    }
}
