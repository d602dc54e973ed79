//! Fairness accounting: the paper's contribution/benefit ledger.
//!
//! Figure 1 defines fairness as every peer having the same
//! `contribution / benefit` ratio. Figures 2 and 3 instantiate the two
//! sides for the two selection models:
//!
//! * **Topic-based (Fig. 2)**: contribution = messages *published* +
//!   *forwarded*; benefit = interesting messages *delivered* + number of
//!   *filters* (subscriptions) placed.
//! * **Expressive (Fig. 3)**: contribution = `fanout × message size`
//!   (i.e. bytes forwarded); benefit = messages delivered.
//!
//! [`FairnessLedger`] tracks all four primitive counters, both as lifetime
//! totals and over rolling windows (the adaptive controllers react to
//! windowed *rates*, not lifetime sums — the paper: "a measure for benefit
//! would be the number of delivered events within a predefined time
//! period", §5.2).

use std::fmt;

/// Benefit floor protecting the ratio against division by zero for
/// peers that delivered nothing.
const EPSILON: f64 = 1.0;

/// The paper's two accountings (Fig. 2 vs Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Accounting {
    /// Contribution counts messages; each active filter adds one to the
    /// benefit.
    TopicBased,
    /// Contribution counts bytes (fanout × message size); benefit is
    /// deliveries only.
    Expressive,
}

/// The rule a contribution/benefit ratio is computed by: one of the
/// paper's two accountings, built by [`RatioSpec::topic_based`] or
/// [`RatioSpec::expressive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatioSpec(Accounting);

impl RatioSpec {
    /// Topic-based accounting per Figure 2: messages published, forwarded
    /// and relayed for maintenance against deliveries plus one per filter.
    pub fn topic_based() -> Self {
        RatioSpec(Accounting::TopicBased)
    }

    /// Expressive accounting per Figure 3 (bytes, deliveries only).
    pub fn expressive() -> Self {
        RatioSpec(Accounting::Expressive)
    }

    /// Weight of one active filter in the benefit: Fig. 2 adds
    /// `#filters`, Fig. 3 nothing.
    fn filter_weight(self) -> f64 {
        match self.0 {
            Accounting::TopicBased => 1.0,
            Accounting::Expressive => 0.0,
        }
    }
}

/// One accounting window's worth of counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Messages this peer originated (publish operations sent out).
    pub published_msgs: u64,
    /// Bytes of originated messages.
    pub published_bytes: u64,
    /// Messages forwarded on behalf of the system (gossip sends).
    pub forwarded_msgs: u64,
    /// Bytes forwarded.
    pub forwarded_bytes: u64,
    /// Interesting events delivered to the application.
    pub delivered_events: u64,
    /// Messages relayed for infrastructure maintenance (subscription
    /// routing, view shuffles) — the paper counts "infrastructure messages"
    /// in the contribution too (§2).
    pub maintenance_msgs: u64,
    /// Benefit credits granted for maintenance work performed on behalf of
    /// others (the compensation mechanism of §5.1: relays of subscription
    /// traffic should not see their ratio degrade).
    pub maintenance_credits: u64,
}

impl Counters {
    fn contribution(&self, spec: RatioSpec) -> f64 {
        match spec.0 {
            Accounting::TopicBased => {
                (self.published_msgs + self.forwarded_msgs + self.maintenance_msgs) as f64
            }
            Accounting::Expressive => (self.published_bytes + self.forwarded_bytes) as f64,
        }
    }
}

/// Per-peer fairness ledger: lifetime totals plus a rolling window.
///
/// # Examples
///
/// ```
/// use fed_core::ledger::{FairnessLedger, RatioSpec};
///
/// let mut ledger = FairnessLedger::new();
/// ledger.record_forward(512);
/// ledger.record_delivery();
/// ledger.set_active_filters(2);
/// let spec = RatioSpec::topic_based();
/// // contribution 1 message; benefit 1 delivery + 2 filters = 3
/// assert!((ledger.ratio(&spec) - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FairnessLedger {
    total: Counters,
    window: Counters,
    completed_window: Counters,
    active_filters: u32,
    windows_rolled: u64,
}

impl FairnessLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        FairnessLedger::default()
    }

    /// Records one originated (published) message of `bytes`.
    pub fn record_publish(&mut self, bytes: usize) {
        self.total.published_msgs += 1;
        self.total.published_bytes += bytes as u64;
        self.window.published_msgs += 1;
        self.window.published_bytes += bytes as u64;
    }

    /// Records one forwarded gossip message of `bytes`.
    pub fn record_forward(&mut self, bytes: usize) {
        self.total.forwarded_msgs += 1;
        self.total.forwarded_bytes += bytes as u64;
        self.window.forwarded_msgs += 1;
        self.window.forwarded_bytes += bytes as u64;
    }

    /// Records one relayed maintenance message (subscription routing etc.).
    pub fn record_maintenance(&mut self) {
        self.total.maintenance_msgs += 1;
        self.window.maintenance_msgs += 1;
    }

    /// Records `n` units of maintenance contribution at once (e.g. billing
    /// a subscriber for the full relay path of its subscription walk).
    pub fn record_maintenance_bulk(&mut self, n: u64) {
        self.total.maintenance_msgs += n;
        self.window.maintenance_msgs += n;
    }

    /// Grants one benefit credit compensating maintenance work.
    pub fn record_maintenance_credit(&mut self) {
        self.total.maintenance_credits += 1;
        self.window.maintenance_credits += 1;
    }

    /// Records delivery of one interesting event.
    pub fn record_delivery(&mut self) {
        self.total.delivered_events += 1;
        self.window.delivered_events += 1;
    }

    /// Updates the number of currently active filters/subscriptions.
    pub fn set_active_filters(&mut self, n: u32) {
        self.active_filters = n;
    }

    /// Currently active filters.
    pub fn active_filters(&self) -> u32 {
        self.active_filters
    }

    /// Folds another ledger's counters into this one.
    ///
    /// Used by composite architectures whose node runs two protocol
    /// stacks at once (e.g. the broker/gossip hybrid): message counters
    /// add, while `active_filters` takes the maximum — both stacks
    /// mirror the same application subscriptions, so adding would
    /// double-count the node's benefit.
    pub fn absorb(&mut self, other: &FairnessLedger) {
        fn add(a: &mut Counters, b: &Counters) {
            a.published_msgs += b.published_msgs;
            a.published_bytes += b.published_bytes;
            a.forwarded_msgs += b.forwarded_msgs;
            a.forwarded_bytes += b.forwarded_bytes;
            a.delivered_events += b.delivered_events;
            a.maintenance_msgs += b.maintenance_msgs;
            a.maintenance_credits += b.maintenance_credits;
        }
        add(&mut self.total, &other.total);
        add(&mut self.window, &other.window);
        add(&mut self.completed_window, &other.completed_window);
        self.active_filters = self.active_filters.max(other.active_filters);
        self.windows_rolled = self.windows_rolled.max(other.windows_rolled);
    }

    /// Closes the current window: its counters become the *completed*
    /// window that rate queries read, and a fresh window starts.
    pub fn roll_window(&mut self) {
        self.completed_window = self.window;
        self.window = Counters::default();
        self.windows_rolled += 1;
    }

    /// Number of completed windows.
    pub fn windows_rolled(&self) -> u64 {
        self.windows_rolled
    }

    /// Lifetime counters.
    pub fn totals(&self) -> &Counters {
        &self.total
    }

    /// The last completed window's counters.
    pub fn last_window(&self) -> &Counters {
        &self.completed_window
    }

    /// Lifetime contribution under `spec` (the numerator of Figs. 1–3).
    pub fn contribution(&self, spec: &RatioSpec) -> f64 {
        self.total.contribution(*spec)
    }

    /// Lifetime benefit under `spec` (the denominator of Figs. 1–3, plus
    /// maintenance credits when the compensation mechanism is active).
    pub fn benefit(&self, spec: &RatioSpec) -> f64 {
        self.total.delivered_events as f64
            + self.total.maintenance_credits as f64
            + spec.filter_weight() * self.active_filters as f64
    }

    /// Lifetime contribution/benefit ratio, the benefit floored at 1.
    pub fn ratio(&self, spec: &RatioSpec) -> f64 {
        self.contribution(spec) / self.benefit(spec).max(EPSILON)
    }

    /// Contribution accumulated in the last completed window.
    pub fn window_contribution(&self, spec: &RatioSpec) -> f64 {
        self.completed_window.contribution(*spec)
    }
}

impl fmt::Display for FairnessLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ledger(pub={}, fwd={}, maint={}, del={}, filters={})",
            self.total.published_msgs,
            self.total.forwarded_msgs,
            self.total.maintenance_msgs,
            self.total.delivered_events,
            self.active_filters
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_ratio_is_zero() {
        let ledger = FairnessLedger::new();
        let spec = RatioSpec::topic_based();
        assert_eq!(ledger.contribution(&spec), 0.0);
        assert_eq!(ledger.benefit(&spec), 0.0);
        assert_eq!(ledger.ratio(&spec), 0.0, "0 / max(0, eps) = 0");
    }

    #[test]
    fn topic_based_accounting_matches_fig2() {
        // Fig 2: contribution = #published + #forwarded;
        //        benefit = #delivered + #filters.
        let mut l = FairnessLedger::new();
        l.record_publish(100);
        l.record_forward(200);
        l.record_forward(200);
        l.record_delivery();
        l.record_delivery();
        l.record_delivery();
        l.set_active_filters(2);
        let spec = RatioSpec::topic_based();
        assert_eq!(l.contribution(&spec), 3.0);
        assert_eq!(l.benefit(&spec), 5.0);
        assert!((l.ratio(&spec) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn expressive_accounting_matches_fig3() {
        // Fig 3: contribution = bytes forwarded (fanout × msg size);
        //        benefit = #delivered.
        let mut l = FairnessLedger::new();
        l.record_forward(300);
        l.record_forward(300);
        l.record_delivery();
        l.set_active_filters(7); // must not affect expressive benefit
        let spec = RatioSpec::expressive();
        assert_eq!(l.contribution(&spec), 600.0);
        assert_eq!(l.benefit(&spec), 1.0);
        assert_eq!(l.ratio(&spec), 600.0);
    }

    #[test]
    fn maintenance_counts_in_message_contribution_only() {
        let mut l = FairnessLedger::new();
        l.record_maintenance();
        assert_eq!(l.contribution(&RatioSpec::topic_based()), 1.0);
        assert_eq!(l.contribution(&RatioSpec::expressive()), 0.0);
        l.record_maintenance_bulk(4);
        assert_eq!(l.contribution(&RatioSpec::topic_based()), 5.0);
    }

    #[test]
    fn maintenance_credit_compensates_ratio() {
        // A relay doing pure maintenance work: without credits its ratio
        // explodes; with one credit per relayed message it stays at 1.
        let mut l = FairnessLedger::new();
        for _ in 0..10 {
            l.record_maintenance();
            l.record_maintenance_credit();
        }
        let spec = RatioSpec::topic_based();
        assert_eq!(l.contribution(&spec), 10.0);
        assert_eq!(l.benefit(&spec), 10.0);
        assert_eq!(l.ratio(&spec), 1.0);
        l.roll_window();
        assert_eq!(l.last_window().maintenance_credits, 10);
    }

    #[test]
    fn epsilon_floors_zero_benefit() {
        let mut l = FairnessLedger::new();
        l.record_forward(10);
        // No delivery and no filter: both benefits are 0, floored at 1.
        assert_eq!(l.benefit(&RatioSpec::expressive()), 0.0);
        assert_eq!(l.ratio(&RatioSpec::expressive()), 10.0);
        assert_eq!(l.ratio(&RatioSpec::topic_based()), 1.0);
    }

    #[test]
    fn window_roll_snapshots_and_resets() {
        let mut l = FairnessLedger::new();
        l.record_forward(10);
        l.record_delivery();
        let spec = RatioSpec::expressive();
        assert_eq!(l.window_contribution(&spec), 0.0, "window not closed yet");
        l.roll_window();
        assert_eq!(l.window_contribution(&spec), 10.0);
        assert_eq!(l.last_window().delivered_events, 1);
        assert_eq!(l.windows_rolled(), 1);
        l.roll_window();
        assert_eq!(l.window_contribution(&spec), 0.0, "fresh empty window");
        // lifetime totals survive rolling
        assert_eq!(l.contribution(&spec), 10.0);
    }

    #[test]
    fn display_summarizes() {
        let mut l = FairnessLedger::new();
        l.record_publish(1);
        l.set_active_filters(4);
        let s = format!("{l}");
        assert!(s.contains("pub=1") && s.contains("filters=4"), "{s}");
    }

    #[test]
    fn spec_presets() {
        let t = RatioSpec::topic_based();
        assert_eq!(t.filter_weight(), 1.0);
        let e = RatioSpec::expressive();
        assert_eq!(e.filter_weight(), 0.0);
        assert_ne!(t, e);
    }
}
