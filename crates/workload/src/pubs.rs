//! Publication schedules: when, where and what gets published.

use fed_pubsub::{Event, EventId, TopicId};
use fed_sim::SimTime;
use fed_util::dist::{Exponential, InvalidDistribution, Zipf};
use fed_util::rng::Rng64;

/// One scheduled publication.
#[derive(Debug, Clone)]
pub struct Publication {
    /// When the publish command fires.
    pub at: SimTime,
    /// The publishing node index.
    pub publisher: usize,
    /// The event (topic, id and payload already set).
    pub event: Event,
}

/// A phased flash crowd: at a configured instant the publication stream
/// shifts onto a much hotter topic distribution (and optionally a higher
/// rate), modelling a breaking-news burst.
///
/// Structured overlays look fair in steady state while concentrating
/// load on interior nodes exactly during such bursts — this is the knob
/// the `timeseries` experiment uses to expose those transients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// When the crowd arrives (absolute instant; publications at or
    /// after it use the hot parameters).
    pub at: SimTime,
    /// Zipf exponent over topics during the crowd (large = almost
    /// everything lands on the hottest topics).
    pub topic_zipf_s: f64,
    /// Publication-rate multiplier during the crowd (1.0 = same rate).
    pub rate_factor: f64,
}

/// Parameters of a publication schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PubPlan {
    /// Mean publications per simulated second (Poisson process).
    pub rate_per_sec: f64,
    /// Total simulated span to fill.
    pub duration: SimTime,
    /// Zipf exponent over topics (0 = uniform; same skew convention as
    /// subscriptions).
    pub topic_zipf_s: f64,
    /// Payload bytes attached to each event.
    pub payload_bytes: usize,
    /// Warm-up offset: no publication before this instant (gives gossip
    /// rounds and controllers time to start).
    pub warmup: SimTime,
    /// Optional flash-crowd phase shift; `None` keeps one steady phase.
    pub flash: Option<FlashCrowd>,
}

impl Default for PubPlan {
    fn default() -> Self {
        PubPlan {
            rate_per_sec: 10.0,
            duration: SimTime::from_secs(30),
            topic_zipf_s: 1.0,
            payload_bytes: 64,
            warmup: SimTime::from_secs(1),
            flash: None,
        }
    }
}

/// Generates the full schedule for `n` publishers over `num_topics` topics.
///
/// Publishers are chosen uniformly; inter-arrival times are exponential
/// (Poisson process); topics follow the plan's Zipf law. Event ids are
/// `(publisher, per-publisher sequence)` so they are globally unique.
///
/// With a [`FlashCrowd`] configured the schedule is generated in two
/// phases: the steady phase up to `flash.at`, then the hot phase from
/// `max(flash.at, warmup)` with the crowd's Zipf skew and rate — the
/// Poisson process is memoryless, so restarting the inter-arrival clock
/// at the phase boundary keeps both phases exact.
///
/// # Errors
///
/// Returns [`InvalidDistribution`] for non-positive rates or invalid
/// skews (in either phase).
pub fn generate_schedule<R: Rng64>(
    rng: &mut R,
    n: usize,
    num_topics: usize,
    plan: &PubPlan,
) -> Result<Vec<Publication>, InvalidDistribution> {
    let mut schedule = Vec::new();
    let mut seqs = vec![0u32; n];
    let warmup = plan.warmup.as_secs_f64();
    let end = warmup + plan.duration.as_secs_f64();
    let phase = |rng: &mut R,
                 seqs: &mut Vec<u32>,
                 schedule: &mut Vec<Publication>,
                 rate: f64,
                 zipf_s: f64,
                 from: f64,
                 to: f64|
     -> Result<(), InvalidDistribution> {
        let inter = Exponential::new(rate)?;
        let zipf = Zipf::new(num_topics, zipf_s)?;
        let mut t = from;
        while t < to {
            t += inter.sample(rng);
            if t >= to {
                break;
            }
            let publisher = rng.range_usize(n);
            let topic = TopicId::new(zipf.sample(rng) as u32);
            let seq = seqs[publisher];
            seqs[publisher] += 1;
            let event = Event::new(
                EventId::new(publisher as u32, seq),
                topic,
                plan.payload_bytes,
            );
            schedule.push(Publication {
                at: SimTime::from_micros((t * 1e6) as u64),
                publisher,
                event,
            });
        }
        Ok(())
    };
    match plan.flash {
        None => phase(
            rng,
            &mut seqs,
            &mut schedule,
            plan.rate_per_sec,
            plan.topic_zipf_s,
            warmup,
            end,
        )?,
        Some(flash) => {
            let split = flash.at.as_secs_f64().clamp(warmup, end);
            phase(
                rng,
                &mut seqs,
                &mut schedule,
                plan.rate_per_sec,
                plan.topic_zipf_s,
                warmup,
                split,
            )?;
            phase(
                rng,
                &mut seqs,
                &mut schedule,
                plan.rate_per_sec * flash.rate_factor,
                flash.topic_zipf_s,
                split,
                end,
            )?;
        }
    }
    Ok(schedule)
}

/// A deterministic fixed-interval schedule: one publication every
/// `interval`, round-robin over publishers, cycling topics `0..num_topics`.
///
/// Useful for tests and convergence experiments where Poisson noise would
/// obscure the signal.
pub fn regular_schedule(
    n: usize,
    num_topics: usize,
    count: usize,
    start: SimTime,
    interval: SimTime,
    payload_bytes: usize,
) -> Vec<Publication> {
    (0..count)
        .map(|k| {
            let publisher = k % n.max(1);
            let topic = TopicId::new((k % num_topics.max(1)) as u32);
            let id = EventId::new(publisher as u32, (k / n.max(1)) as u32);
            let event = Event::new(id, topic, payload_bytes);
            Publication {
                at: SimTime::from_micros(start.as_micros() + interval.as_micros() * k as u64),
                publisher,
                event,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_util::rng::Xoshiro256StarStar;
    use std::collections::HashSet;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(7)
    }

    #[test]
    fn poisson_schedule_respects_bounds() {
        let plan = PubPlan {
            rate_per_sec: 50.0,
            duration: SimTime::from_secs(10),
            warmup: SimTime::from_secs(2),
            ..PubPlan::default()
        };
        let s = generate_schedule(&mut rng(), 20, 10, &plan).unwrap();
        assert!(!s.is_empty());
        let count = s.len() as f64;
        // ~500 expected
        assert!((350.0..650.0).contains(&count), "count={count}");
        for p in &s {
            assert!(p.at >= plan.warmup);
            assert!(p.at < SimTime::from_secs(12));
            assert!(p.publisher < 20);
            assert!(p.event.topic().index() < 10);
        }
        // Times are sorted.
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn event_ids_globally_unique() {
        let plan = PubPlan::default();
        let s = generate_schedule(&mut rng(), 5, 4, &plan).unwrap();
        let ids: HashSet<_> = s.iter().map(|p| p.event.id()).collect();
        assert_eq!(ids.len(), s.len());
    }

    #[test]
    fn zipf_topics_skewed() {
        let plan = PubPlan {
            rate_per_sec: 100.0,
            duration: SimTime::from_secs(30),
            topic_zipf_s: 1.5,
            ..PubPlan::default()
        };
        let s = generate_schedule(&mut rng(), 10, 20, &plan).unwrap();
        let top = s.iter().filter(|p| p.event.topic().index() == 0).count();
        let tail = s.iter().filter(|p| p.event.topic().index() == 19).count();
        assert!(top > tail * 3, "top={top} tail={tail}");
    }

    #[test]
    fn schedule_is_deterministic() {
        let plan = PubPlan::default();
        let a = generate_schedule(&mut rng(), 8, 4, &plan).unwrap();
        let b = generate_schedule(&mut rng(), 8, 4, &plan).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.publisher, y.publisher);
            assert_eq!(x.event.id(), y.event.id());
        }
    }

    #[test]
    fn invalid_plan_rejected() {
        let plan = PubPlan {
            rate_per_sec: 0.0,
            ..PubPlan::default()
        };
        assert!(generate_schedule(&mut rng(), 4, 4, &plan).is_err());
    }

    #[test]
    fn flash_crowd_shifts_topics_and_rate_at_the_instant() {
        let flash_at = SimTime::from_secs(16);
        let plan = PubPlan {
            rate_per_sec: 40.0,
            duration: SimTime::from_secs(30),
            topic_zipf_s: 0.0, // uniform before the crowd
            payload_bytes: 64,
            warmup: SimTime::from_secs(1),
            flash: Some(FlashCrowd {
                at: flash_at,
                topic_zipf_s: 4.0, // nearly everything on topic 0
                rate_factor: 3.0,
            }),
        };
        let s = generate_schedule(&mut rng(), 20, 10, &plan).unwrap();
        let (before, after): (Vec<_>, Vec<_>) = s.iter().partition(|p| p.at < flash_at);
        assert!(!before.is_empty() && !after.is_empty());
        // Rate roughly triples: spans are 15 s each, so the hot phase
        // should hold clearly more publications.
        assert!(
            after.len() > before.len() * 2,
            "before={} after={}",
            before.len(),
            after.len()
        );
        // Steady phase is uniform; the crowd concentrates on topic 0.
        let hot_share = |v: &[&Publication]| {
            v.iter().filter(|p| p.event.topic().index() == 0).count() as f64 / v.len() as f64
        };
        assert!(hot_share(&before) < 0.3, "steady phase must stay spread");
        assert!(hot_share(&after) > 0.7, "crowd must concentrate");
        // Global invariants survive the phase boundary.
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at), "sorted");
        let ids: HashSet<_> = s.iter().map(|p| p.event.id()).collect();
        assert_eq!(ids.len(), s.len(), "ids stay globally unique");
    }

    #[test]
    fn flash_crowd_outside_the_plan_span_is_harmless() {
        let base = PubPlan {
            rate_per_sec: 30.0,
            duration: SimTime::from_secs(5),
            ..PubPlan::default()
        };
        // A crowd after the end: identical to no crowd in distribution
        // (phase 2 is empty), and a crowd before warmup runs hot-only.
        let late = PubPlan {
            flash: Some(FlashCrowd {
                at: SimTime::from_secs(100),
                topic_zipf_s: 4.0,
                rate_factor: 5.0,
            }),
            ..base
        };
        let s = generate_schedule(&mut rng(), 8, 6, &late).unwrap();
        assert!(!s.is_empty());
        assert!(s.iter().all(|p| p.at < SimTime::from_secs(6)));
        let early = PubPlan {
            flash: Some(FlashCrowd {
                at: SimTime::ZERO,
                topic_zipf_s: 4.0,
                rate_factor: 1.0,
            }),
            ..base
        };
        let s = generate_schedule(&mut rng(), 8, 6, &early).unwrap();
        let hot = s.iter().filter(|p| p.event.topic().index() == 0).count();
        assert!(hot * 2 > s.len(), "hot-only schedule must be skewed");
        // Invalid hot-phase parameters are rejected even if configured.
        let bad = PubPlan {
            flash: Some(FlashCrowd {
                at: SimTime::from_secs(2),
                topic_zipf_s: 1.0,
                rate_factor: 0.0,
            }),
            ..base
        };
        assert!(generate_schedule(&mut rng(), 8, 6, &bad).is_err());
    }

    #[test]
    fn regular_schedule_round_robins() {
        let s = regular_schedule(
            3,
            2,
            7,
            SimTime::from_secs(1),
            SimTime::from_millis(100),
            32,
        );
        assert_eq!(s.len(), 7);
        assert_eq!(s[0].publisher, 0);
        assert_eq!(s[1].publisher, 1);
        assert_eq!(s[2].publisher, 2);
        assert_eq!(s[3].publisher, 0);
        assert_eq!(s[0].at, SimTime::from_secs(1));
        assert_eq!(s[1].at, SimTime::from_millis(1100));
        // ids unique
        let ids: HashSet<_> = s.iter().map(|p| p.event.id()).collect();
        assert_eq!(ids.len(), 7);
        // topics cycle
        assert_eq!(s[0].event.topic(), TopicId::new(0));
        assert_eq!(s[1].event.topic(), TopicId::new(1));
        assert_eq!(s[2].event.topic(), TopicId::new(0));
    }
}
