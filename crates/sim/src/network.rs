//! Network models: latency, loss, scheduled faults and mobility.
//!
//! The model is deliberately link-agnostic: every message independently
//! samples a latency and a loss verdict. This matches the abstractions used
//! to evaluate the gossip protocols the paper builds on (Bimodal Multicast,
//! lpbcast), where fairness and reliability are properties of the
//! *overlay*, not of individual physical links.

use crate::time::{SimDuration, SimTime};
use fed_util::dist::{InvalidDistribution, LogNormal};
use fed_util::rng::Rng64;

/// How per-message latency is sampled.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Minimum latency.
        lo: SimDuration,
        /// Maximum latency.
        hi: SimDuration,
    },
    /// Log-normal with the given median (milliseconds) and shape — the
    /// classic heavy-tailed WAN model.
    ///
    /// The optional `floor` clamps every sample from below. A log-normal
    /// has no positive infimum, so without a floor the model's
    /// [`lower_bound`](LatencyModel::lower_bound) is zero and a sharded
    /// engine falls back to the 1 µs delivery floor as its conservative
    /// lookahead — collapsing barrier windows to microseconds. Real WAN
    /// paths have a physical propagation minimum; setting `floor` to it
    /// restores millisecond-wide windows at identical fidelity above the
    /// floor.
    LogNormalMs {
        /// Median latency in milliseconds.
        median_ms: f64,
        /// Shape parameter of the underlying normal (0 = constant).
        sigma: f64,
        /// Minimum latency; samples below are clamped up to it.
        /// [`SimDuration::ZERO`] means no floor.
        floor: SimDuration,
    },
}

impl LatencyModel {
    /// A lower bound on every latency this model can sample.
    ///
    /// Used by sharded runtimes as the conservative lookahead: no message
    /// can arrive sooner than `send_time + lower_bound()`. Heavy-tailed
    /// models without a positive infimum (an unfloored
    /// [`LatencyModel::LogNormalMs`]) return [`SimDuration::ZERO`]; the
    /// engine's 1 µs delivery floor (see
    /// [`crate::exec::MIN_NETWORK_LATENCY`]) still applies on top.
    pub fn lower_bound(&self) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform { lo, .. } => *lo,
            LatencyModel::LogNormalMs { floor, .. } => *floor,
        }
    }

    /// Samples one latency value.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistribution`] if the model parameters are invalid
    /// (e.g. negative median); validated models never fail.
    pub fn sample<R: Rng64 + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<SimDuration, InvalidDistribution> {
        match self {
            LatencyModel::Constant(d) => Ok(*d),
            LatencyModel::Uniform { lo, hi } => {
                let (a, b) = (lo.as_micros(), hi.as_micros());
                if a >= b {
                    Ok(*lo)
                } else {
                    Ok(SimDuration::from_micros(a + rng.range_u64(b - a + 1)))
                }
            }
            LatencyModel::LogNormalMs {
                median_ms,
                sigma,
                floor,
            } => {
                let ln = LogNormal::from_median(*median_ms, *sigma)?;
                Ok(SimDuration::from_millis_f64(ln.sample(rng)).max(*floor))
            }
        }
    }
}

impl Default for LatencyModel {
    /// A 50 ms constant latency — a typical wide-area round-trip half.
    fn default() -> Self {
        LatencyModel::Constant(SimDuration::from_millis(50))
    }
}

/// A scheduled symmetric partition: nodes with id below `split` form one
/// side, the rest the other; messages crossing the split while
/// `at <= now < heal` are dropped (both directions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionFault {
    /// When the partition starts.
    pub at: SimTime,
    /// When it heals (exclusive).
    pub heal: SimTime,
    /// Boundary node id: ids `< split` are on side A, the rest on side B.
    pub split: u32,
}

/// A scheduled asymmetric (one-way) link failure: messages **from** nodes
/// with id below `split` **to** nodes at or above it are dropped while
/// `at <= now < until`; the reverse direction keeps working.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnewayFault {
    /// When the failure starts.
    pub at: SimTime,
    /// When it ends (exclusive).
    pub until: SimTime,
    /// Boundary node id: sends from ids `< split` to ids `>= split` drop.
    pub split: u32,
}

/// A scheduled latency spike: every message sent while `at <= now < until`
/// takes `extra` additional latency on top of its sampled value.
///
/// Delay spikes only *add* latency, so the model's conservative
/// [`NetworkModel::min_latency`] lookahead bound stays valid throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayFault {
    /// When the spike starts.
    pub at: SimTime,
    /// When it ends (exclusive).
    pub until: SimTime,
    /// Latency added to every message sent during the spike.
    pub extra: SimDuration,
}

/// Deterministic scheduled faults applied by the network model.
///
/// Every verdict is a pure function of `(now, from, to)` — no randomness is
/// consumed deciding a fault, so the per-node RNG streams (and therefore
/// bit-identity between the sequential and sharded engines) are unaffected
/// by which faults are configured. Drops remove messages and delay spikes
/// only add latency, so the conservative lookahead contract
/// ([`NetworkModel::min_latency`]) holds by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    /// Scheduled symmetric partition, if any.
    pub partition: Option<PartitionFault>,
    /// Scheduled one-way link failure, if any.
    pub oneway: Option<OnewayFault>,
    /// Scheduled message-delay spike, if any.
    pub delay: Option<DelayFault>,
}

impl FaultSchedule {
    /// `true` when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.partition.is_none() && self.oneway.is_none() && self.delay.is_none()
    }

    /// `true` when a message `from -> to` sent at `now` is dropped by a
    /// scheduled partition or one-way failure.
    pub fn drops(&self, now: SimTime, from: usize, to: usize) -> bool {
        if let Some(p) = &self.partition {
            if now >= p.at && now < p.heal {
                let side_a = (from as u64) < u64::from(p.split);
                let side_b = (to as u64) < u64::from(p.split);
                if side_a != side_b {
                    return true;
                }
            }
        }
        if let Some(o) = &self.oneway {
            if now >= o.at
                && now < o.until
                && (from as u64) < u64::from(o.split)
                && (to as u64) >= u64::from(o.split)
            {
                return true;
            }
        }
        false
    }

    /// Extra latency applied to a message sent at `now`.
    pub fn extra_delay(&self, now: SimTime) -> SimDuration {
        match &self.delay {
            Some(d) if now >= d.at && now < d.until => d.extra,
            _ => SimDuration::ZERO,
        }
    }
}

/// One step of a [`MobilityTrace`]: from `at` onwards (until the next
/// segment starts, or forever for the last segment of an aperiodic trace)
/// cross-split messages take `extra` additional latency, or are dropped
/// entirely when `disconnected` is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MobilitySegment {
    /// Trace-relative activation instant (relative to the period start for
    /// periodic traces, absolute for aperiodic ones).
    pub at: SimTime,
    /// Extra latency added to cross-split messages while this segment is
    /// active. Ignored when `disconnected` is set.
    pub extra: SimDuration,
    /// When set, cross-split messages are dropped while this segment is
    /// active.
    pub disconnected: bool,
}

/// A piecewise time-varying connectivity trace between two node groups —
/// the dynamic-topology analogue of a [`FaultSchedule`].
///
/// Nodes with id below `split` form the mobile group; the trace describes
/// how the link between the mobile group and everyone else changes over
/// time. At any instant the *active* segment is the last one whose `at`
/// is not in the future (on the trace-relative clock); cross-split
/// messages then take the segment's `extra` additional latency or drop
/// when it is `disconnected`. Before the first segment starts the trace
/// has no effect. With a `period` the trace clock is `now mod period`, so
/// the pattern repeats — a node shuttling through a coverage corridor;
/// without one the trace plays once on absolute time — a world that
/// degrades and never recovers.
///
/// Like scheduled faults, every verdict is a pure function of
/// `(now, from, to)` evaluated before any randomness is drawn, and a
/// trace can only *drop* messages or *add* latency — never deliver
/// early — so the conservative lookahead bound
/// ([`NetworkModel::min_latency`]) and seq-vs-cluster bit-identity hold
/// by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MobilityTrace {
    /// Boundary node id: ids `< split` form the mobile group.
    pub split: u32,
    /// Optional repeat period; the trace clock is `now mod period`.
    pub period: Option<SimDuration>,
    /// Piecewise segments, strictly increasing in `at`.
    pub segments: Vec<MobilitySegment>,
}

impl MobilityTrace {
    /// Checks the structural invariants the evaluation semantics rely on.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the trace has no segments,
    /// segment instants are not strictly increasing, the period is zero,
    /// or a segment starts at or past the period.
    pub fn validate(&self) -> Result<(), String> {
        if self.segments.is_empty() {
            return Err("mobility trace needs at least one segment".into());
        }
        for w in self.segments.windows(2) {
            if w[1].at <= w[0].at {
                return Err(format!(
                    "mobility segments must be strictly increasing in `at` \
                     ({:?}us then {:?}us)",
                    w[0].at.as_micros(),
                    w[1].at.as_micros()
                ));
            }
        }
        if let Some(p) = self.period {
            if p == SimDuration::ZERO {
                return Err("mobility period must be positive".into());
            }
            if let Some(seg) = self
                .segments
                .iter()
                .find(|s| s.at.as_micros() >= p.as_micros())
            {
                return Err(format!(
                    "mobility segment at {}us starts at or past the period ({}us)",
                    seg.at.as_micros(),
                    p.as_micros()
                ));
            }
        }
        Ok(())
    }

    /// The segment active at `now`, if any.
    fn active(&self, now: SimTime) -> Option<&MobilitySegment> {
        let t = match self.period {
            Some(p) => now.as_micros() % p.as_micros(),
            None => now.as_micros(),
        };
        self.segments.iter().rev().find(|s| s.at.as_micros() <= t)
    }

    /// `true` when `from -> to` crosses the mobile-group boundary.
    fn crosses(&self, from: usize, to: usize) -> bool {
        ((from as u64) < u64::from(self.split)) != ((to as u64) < u64::from(self.split))
    }

    /// `true` when a message `from -> to` sent at `now` is dropped by an
    /// active disconnected segment.
    pub fn drops(&self, now: SimTime, from: usize, to: usize) -> bool {
        self.crosses(from, to) && self.active(now).is_some_and(|s| s.disconnected)
    }

    /// Extra latency applied to a message `from -> to` sent at `now`.
    pub fn extra_delay(&self, now: SimTime, from: usize, to: usize) -> SimDuration {
        if !self.crosses(from, to) {
            return SimDuration::ZERO;
        }
        match self.active(now) {
            Some(s) if !s.disconnected => s.extra,
            _ => SimDuration::ZERO,
        }
    }
}

/// Full network model: latency plus iid loss plus scheduled faults and an
/// optional mobility trace.
///
/// Every connectivity verdict is a pure function of `(now, from, to)`.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    latency: LatencyModel,
    loss_probability: f64,
    /// Scheduled deterministic faults.
    faults: FaultSchedule,
    /// Time-varying connectivity trace, if any.
    mobility: Option<MobilityTrace>,
}

impl NetworkModel {
    /// A perfectly reliable network with the given latency model.
    pub fn reliable(latency: LatencyModel) -> Self {
        NetworkModel {
            latency,
            loss_probability: 0.0,
            faults: FaultSchedule::default(),
            mobility: None,
        }
    }

    /// A lossy network: each message is independently dropped with
    /// probability `loss` (clamped to `[0, 1)`).
    pub fn lossy(latency: LatencyModel, loss: f64) -> Self {
        NetworkModel {
            latency,
            loss_probability: loss.clamp(0.0, 0.999_999),
            faults: FaultSchedule::default(),
            mobility: None,
        }
    }

    /// Replaces the scheduled fault schedule (builder style).
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the mobility trace (builder style).
    pub fn with_mobility(mut self, mobility: Option<MobilityTrace>) -> Self {
        self.mobility = mobility;
        self
    }

    /// The configured mobility trace, if any.
    pub fn mobility(&self) -> Option<&MobilityTrace> {
        self.mobility.as_ref()
    }

    /// The scheduled fault schedule.
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// The configured loss probability.
    pub fn loss_probability(&self) -> f64 {
        self.loss_probability
    }

    /// The configured latency model.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// A lower bound on the delivery latency of any message this model
    /// delivers, floored at the engine's 1 µs minimum.
    ///
    /// This is the conservative lookahead of the model: a sharded runtime
    /// may process a time window of this width without waiting for
    /// messages sent inside the window by other shards.
    pub fn min_latency(&self) -> SimDuration {
        self.latency
            .lower_bound()
            .max(crate::exec::MIN_NETWORK_LATENCY)
    }

    /// Decides the fate of one message from `from` to `to` sent at `now`.
    ///
    /// Returns `Some(latency)` when the message is delivered, `None` when it
    /// is lost (random loss, a scheduled fault or a mobility blackout). The
    /// latency saturates at `u64::MAX` µs rather than wrapping, however
    /// large a delay spike or latency draw.
    ///
    /// Fault verdicts are evaluated *before* any randomness is drawn, and a
    /// scheduled drop consumes no randomness at all — so whether a fault
    /// fires for a message never shifts the RNG stream consumed by later
    /// messages relative to an engine that evaluated it identically.
    pub fn transmit<R: Rng64 + ?Sized>(
        &self,
        rng: &mut R,
        now: SimTime,
        from: usize,
        to: usize,
    ) -> Option<SimDuration> {
        if self.faults.drops(now, from, to) {
            return None;
        }
        if let Some(m) = &self.mobility {
            if m.drops(now, from, to) {
                return None;
            }
        }
        if self.loss_probability > 0.0 && rng.bernoulli(self.loss_probability) {
            return None;
        }
        let mobility_extra = match &self.mobility {
            Some(m) => m.extra_delay(now, from, to),
            None => SimDuration::ZERO,
        };
        // Validated at construction; latency sampling cannot fail for the
        // models constructible through the public API.
        self.latency.sample(rng).ok().map(|d| {
            d.saturating_add(self.faults.extra_delay(now))
                .saturating_add(mobility_extra)
        })
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::reliable(LatencyModel::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_util::rng::Xoshiro256StarStar;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(42)
    }

    #[test]
    fn constant_latency() {
        let m = LatencyModel::Constant(SimDuration::from_millis(10));
        let mut r = rng();
        assert_eq!(m.sample(&mut r).unwrap(), SimDuration::from_millis(10));
    }

    #[test]
    fn uniform_latency_in_bounds() {
        let m = LatencyModel::Uniform {
            lo: SimDuration::from_millis(10),
            hi: SimDuration::from_millis(20),
        };
        let mut r = rng();
        for _ in 0..1000 {
            let d = m.sample(&mut r).unwrap();
            assert!(d >= SimDuration::from_millis(10) && d <= SimDuration::from_millis(20));
        }
    }

    #[test]
    fn uniform_degenerate_bounds() {
        let m = LatencyModel::Uniform {
            lo: SimDuration::from_millis(5),
            hi: SimDuration::from_millis(5),
        };
        let mut r = rng();
        assert_eq!(m.sample(&mut r).unwrap(), SimDuration::from_millis(5));
    }

    #[test]
    fn lognormal_latency_positive() {
        let m = LatencyModel::LogNormalMs {
            median_ms: 50.0,
            sigma: 0.5,
            floor: SimDuration::ZERO,
        };
        let mut r = rng();
        for _ in 0..1000 {
            assert!(m.sample(&mut r).unwrap() > SimDuration::ZERO);
        }
    }

    #[test]
    fn lognormal_floor_clamps_samples_and_sets_lower_bound() {
        let floor = SimDuration::from_millis(5);
        let m = LatencyModel::LogNormalMs {
            median_ms: 6.0,
            sigma: 2.0, // heavy spread: many raw samples below the floor
            floor,
        };
        assert_eq!(m.lower_bound(), floor, "floor is the conservative bound");
        let mut r = rng();
        for _ in 0..5000 {
            assert!(m.sample(&mut r).unwrap() >= floor);
        }
        // A floored WAN model gives the sharded engine a real lookahead.
        let net = NetworkModel::reliable(m);
        assert_eq!(net.min_latency(), floor);
        // Without a floor the engine minimum applies.
        let bare = NetworkModel::reliable(LatencyModel::LogNormalMs {
            median_ms: 6.0,
            sigma: 2.0,
            floor: SimDuration::ZERO,
        });
        assert_eq!(bare.min_latency(), crate::exec::MIN_NETWORK_LATENCY);
    }

    #[test]
    fn reliable_network_never_drops() {
        let net = NetworkModel::reliable(LatencyModel::default());
        let mut r = rng();
        for i in 0..100 {
            assert!(net.transmit(&mut r, SimTime::ZERO, i, i + 1).is_some());
        }
    }

    #[test]
    fn lossy_network_drops_at_rate() {
        let net = NetworkModel::lossy(LatencyModel::default(), 0.3);
        let mut r = rng();
        let n = 100_000;
        let dropped = (0..n)
            .filter(|_| net.transmit(&mut r, SimTime::ZERO, 0, 1).is_none())
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn loss_probability_clamped() {
        let net = NetworkModel::lossy(LatencyModel::default(), 1.5);
        assert!(net.loss_probability() < 1.0);
        let net = NetworkModel::lossy(LatencyModel::default(), -0.5);
        assert_eq!(net.loss_probability(), 0.0);
    }

    #[test]
    fn scheduled_partition_drops_cross_split_inside_window_only() {
        let net = NetworkModel::reliable(LatencyModel::default()).with_faults(FaultSchedule {
            partition: Some(PartitionFault {
                at: SimTime::from_secs(10),
                heal: SimTime::from_secs(20),
                split: 4,
            }),
            ..FaultSchedule::default()
        });
        let mut r = rng();
        let during = SimTime::from_secs(15);
        // Cross-split drops in both directions while the partition holds.
        assert!(net.transmit(&mut r, during, 0, 7).is_none());
        assert!(net.transmit(&mut r, during, 7, 0).is_none());
        // Same side still passes.
        assert!(net.transmit(&mut r, during, 0, 3).is_some());
        assert!(net.transmit(&mut r, during, 5, 7).is_some());
        // Before `at` and at/after `heal` nothing is dropped.
        assert!(net.transmit(&mut r, SimTime::from_secs(9), 0, 7).is_some());
        assert!(net.transmit(&mut r, SimTime::from_secs(20), 0, 7).is_some());
    }

    #[test]
    fn oneway_fault_is_asymmetric() {
        let net = NetworkModel::reliable(LatencyModel::default()).with_faults(FaultSchedule {
            oneway: Some(OnewayFault {
                at: SimTime::from_secs(5),
                until: SimTime::from_secs(8),
                split: 2,
            }),
            ..FaultSchedule::default()
        });
        let mut r = rng();
        let during = SimTime::from_secs(6);
        // Low -> high drops; the reverse direction keeps delivering.
        assert!(net.transmit(&mut r, during, 1, 3).is_none());
        assert!(net.transmit(&mut r, during, 3, 1).is_some());
        assert!(net.transmit(&mut r, SimTime::from_secs(8), 1, 3).is_some());
    }

    #[test]
    fn delay_spike_adds_latency_and_preserves_lookahead() {
        let base = SimDuration::from_millis(10);
        let extra = SimDuration::from_millis(40);
        let net = NetworkModel::reliable(LatencyModel::Constant(base)).with_faults(FaultSchedule {
            delay: Some(DelayFault {
                at: SimTime::from_secs(1),
                until: SimTime::from_secs(2),
                extra,
            }),
            ..FaultSchedule::default()
        });
        let mut r = rng();
        let inside = net
            .transmit(&mut r, SimTime::from_millis(1500), 0, 1)
            .unwrap();
        assert_eq!(inside, base + extra);
        let outside = net
            .transmit(&mut r, SimTime::from_millis(2500), 0, 1)
            .unwrap();
        assert_eq!(outside, base);
        // Extra delay only adds: the conservative lookahead stays valid.
        assert!(inside >= net.min_latency());
    }

    fn corridor() -> MobilityTrace {
        // Connected at +10ms extra, then disconnected, repeating every 2s.
        MobilityTrace {
            split: 4,
            period: Some(SimDuration::from_secs(2)),
            segments: vec![
                MobilitySegment {
                    at: SimTime::ZERO,
                    extra: SimDuration::from_millis(10),
                    disconnected: false,
                },
                MobilitySegment {
                    at: SimTime::from_millis(1500),
                    extra: SimDuration::ZERO,
                    disconnected: true,
                },
            ],
        }
    }

    #[test]
    fn mobility_periodic_trace_repeats() {
        let base = SimDuration::from_millis(10);
        let net =
            NetworkModel::reliable(LatencyModel::Constant(base)).with_mobility(Some(corridor()));
        let mut r = rng();
        // First period: connected window adds 10ms, blackout drops.
        assert_eq!(
            net.transmit(&mut r, SimTime::from_millis(100), 0, 7),
            Some(base + SimDuration::from_millis(10))
        );
        assert!(net
            .transmit(&mut r, SimTime::from_millis(1700), 0, 7)
            .is_none());
        // Third period: same pattern, trace clock wrapped.
        assert_eq!(
            net.transmit(&mut r, SimTime::from_millis(4100), 0, 7),
            Some(base + SimDuration::from_millis(10))
        );
        assert!(net
            .transmit(&mut r, SimTime::from_millis(5700), 7, 0)
            .is_none());
    }

    #[test]
    fn mobility_affects_cross_split_only() {
        let base = SimDuration::from_millis(10);
        let net =
            NetworkModel::reliable(LatencyModel::Constant(base)).with_mobility(Some(corridor()));
        let mut r = rng();
        let blackout = SimTime::from_millis(1700);
        // Within either side the trace never applies.
        assert_eq!(net.transmit(&mut r, blackout, 0, 3), Some(base));
        assert_eq!(net.transmit(&mut r, blackout, 5, 7), Some(base));
        let connected = SimTime::from_millis(100);
        assert_eq!(net.transmit(&mut r, connected, 0, 3), Some(base));
    }

    #[test]
    fn mobility_aperiodic_trace_plays_once() {
        let base = SimDuration::from_millis(10);
        let trace = MobilityTrace {
            split: 2,
            period: None,
            segments: vec![MobilitySegment {
                at: SimTime::from_secs(3),
                extra: SimDuration::ZERO,
                disconnected: true,
            }],
        };
        let net = NetworkModel::reliable(LatencyModel::Constant(base)).with_mobility(Some(trace));
        let mut r = rng();
        // Before the first segment the trace has no effect.
        assert_eq!(
            net.transmit(&mut r, SimTime::from_secs(1), 0, 5),
            Some(base)
        );
        // The final segment holds forever.
        assert!(net.transmit(&mut r, SimTime::from_secs(4), 0, 5).is_none());
        assert!(net
            .transmit(&mut r, SimTime::from_secs(400), 5, 0)
            .is_none());
    }

    #[test]
    fn mobility_extra_only_adds_so_lookahead_holds() {
        let base = SimDuration::from_millis(10);
        let net =
            NetworkModel::reliable(LatencyModel::Constant(base)).with_mobility(Some(corridor()));
        let mut r = rng();
        for ms in [0u64, 500, 1400, 1999, 2100, 3600] {
            if let Some(d) = net.transmit(&mut r, SimTime::from_millis(ms), 0, 7) {
                assert!(d >= net.min_latency(), "at {ms}ms: {d:?}");
            }
        }
        assert_eq!(
            net.min_latency(),
            base,
            "mobility does not shrink the bound"
        );
    }

    #[test]
    fn mobility_drops_consume_no_randomness() {
        // As with scheduled faults: a mobility drop must not advance the RNG
        // stream consumed by later messages.
        let net = NetworkModel::lossy(
            LatencyModel::Uniform {
                lo: SimDuration::from_millis(1),
                hi: SimDuration::from_millis(50),
            },
            0.1,
        )
        .with_mobility(Some(MobilityTrace {
            split: 1,
            period: None,
            segments: vec![MobilitySegment {
                at: SimTime::ZERO,
                extra: SimDuration::ZERO,
                disconnected: true,
            }],
        }));
        let mut a = rng();
        let mut b = rng();
        assert!(net.transmit(&mut a, SimTime::ZERO, 0, 1).is_none());
        let after_drop = net.transmit(&mut a, SimTime::ZERO, 1, 2);
        let without_drop = net.transmit(&mut b, SimTime::ZERO, 1, 2);
        assert_eq!(after_drop, without_drop);
    }

    #[test]
    fn mobility_validate_rejects_bad_traces() {
        let seg = |ms: u64| MobilitySegment {
            at: SimTime::from_millis(ms),
            extra: SimDuration::ZERO,
            disconnected: false,
        };
        let empty = MobilityTrace {
            split: 1,
            period: None,
            segments: vec![],
        };
        assert!(empty
            .validate()
            .unwrap_err()
            .contains("at least one segment"));
        let unordered = MobilityTrace {
            split: 1,
            period: None,
            segments: vec![seg(100), seg(100)],
        };
        assert!(unordered
            .validate()
            .unwrap_err()
            .contains("strictly increasing"));
        let zero_period = MobilityTrace {
            split: 1,
            period: Some(SimDuration::ZERO),
            segments: vec![seg(0)],
        };
        assert!(zero_period.validate().unwrap_err().contains("positive"));
        let past_period = MobilityTrace {
            split: 1,
            period: Some(SimDuration::from_millis(100)),
            segments: vec![seg(0), seg(100)],
        };
        assert!(past_period
            .validate()
            .unwrap_err()
            .contains("past the period"));
        assert!(corridor().validate().is_ok());
    }

    #[test]
    fn fault_drops_consume_no_randomness() {
        // A dropped-by-fault message must not advance the RNG stream: the
        // next delivered message samples identical latency with or without
        // the dropped send in between.
        let faulty = NetworkModel::lossy(
            LatencyModel::Uniform {
                lo: SimDuration::from_millis(1),
                hi: SimDuration::from_millis(50),
            },
            0.1,
        )
        .with_faults(FaultSchedule {
            partition: Some(PartitionFault {
                at: SimTime::ZERO,
                heal: SimTime::from_secs(100),
                split: 1,
            }),
            ..FaultSchedule::default()
        });
        let mut a = rng();
        let mut b = rng();
        assert!(faulty.transmit(&mut a, SimTime::ZERO, 0, 1).is_none());
        let after_drop = faulty.transmit(&mut a, SimTime::ZERO, 1, 2);
        let without_drop = faulty.transmit(&mut b, SimTime::ZERO, 1, 2);
        assert_eq!(after_drop, without_drop);
    }
}
