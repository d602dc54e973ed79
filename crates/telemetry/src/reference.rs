//! The map-per-hook collector [`ShardCollector`](crate::ShardCollector)
//! replaced, kept as the reference the differential tests compare it
//! against: every hook divides `now` by the window width and looks the
//! window up in a `BTreeMap`, so which windows exist — and therefore
//! which the series holds — falls out of which entries were created.
//!
//! Compiled into the library under `cfg(test)` only and included by path
//! from `tests/differential.rs`; both roots name the three types below.

use crate::{TelemetrySeries, TelemetrySpec, WindowStats};
use fed_sim::exec::{Probe, SendFate};
use fed_sim::protocol::NodeId;
use fed_sim::time::SimTime;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
pub struct MapCollector {
    spec: TelemetrySpec,
    window_us: u64,
    /// Global id → local slot; `u32::MAX` when not owned.
    local: Vec<u32>,
    counts: Vec<u64>,
    alive: Vec<bool>,
    cur: u64,
    windows: BTreeMap<u64, WindowStats>,
}

impl MapCollector {
    pub fn new(spec: TelemetrySpec, n_global: usize, owned: &[u32]) -> Self {
        let mut local = vec![u32::MAX; n_global];
        for (li, &id) in owned.iter().enumerate() {
            local[id as usize] = li as u32;
        }
        MapCollector {
            spec,
            window_us: spec.window.as_micros(),
            local,
            counts: vec![0; owned.len()],
            alive: vec![true; owned.len()],
            cur: 0,
            windows: BTreeMap::new(),
        }
    }

    fn win_of(&self, t: SimTime) -> u64 {
        t.as_micros() / self.window_us
    }

    fn entry(&mut self, w: u64) -> &mut WindowStats {
        self.windows
            .entry(w)
            .or_insert_with(|| WindowStats::empty(w))
    }

    fn advance(&mut self, now: SimTime) {
        let w = self.win_of(now);
        while self.cur < w {
            self.close_current();
        }
    }

    fn close_current(&mut self) {
        let w = self.cur;
        let stats = self
            .windows
            .entry(w)
            .or_insert_with(|| WindowStats::empty(w));
        for (count, alive) in self.counts.iter_mut().zip(&self.alive) {
            if *alive {
                let c = *count;
                stats.alive += 1;
                stats.load_sum += c;
                stats.load_sumsq += (c as u128) * (c as u128);
                stats.load_min = stats.load_min.min(c);
                stats.load_max = stats.load_max.max(c);
                stats.load_hist.record(c as f64);
            } else {
                stats.crashed += 1;
            }
            *count = 0;
        }
        self.cur += 1;
    }

    pub fn finalize(mut self, horizon: SimTime) -> TelemetrySeries {
        let last = self.win_of(horizon);
        while self.cur <= last {
            self.close_current();
        }
        let max_w = self.windows.keys().next_back().copied().unwrap_or(last);
        let windows = (0..=max_w)
            .map(|w| {
                self.windows
                    .remove(&w)
                    .unwrap_or_else(|| WindowStats::empty(w))
            })
            .collect();
        TelemetrySeries {
            spec: self.spec,
            windows,
        }
    }
}

impl Probe for MapCollector {
    fn on_event(&mut self, now: SimTime) {
        self.advance(now);
        self.entry(self.cur).events += 1;
    }

    fn on_send(&mut self, now: SimTime, node: NodeId, bytes: u64, fate: SendFate) {
        self.advance(now);
        let li = self.local[node.index()];
        self.counts[li as usize] += 1;
        let w = self.cur;
        {
            let stats = self.entry(w);
            stats.msgs_sent += 1;
            stats.bytes_sent += bytes;
        }
        match fate {
            SendFate::Delivered { at } => {
                let lat_ms = at.duration_since(now).as_secs_f64() * 1e3;
                let dw = self.win_of(at);
                self.entry(dw).latency_hist.record(lat_ms);
            }
            SendFate::Lost => self.entry(w).msgs_lost += 1,
        }
    }

    fn on_receive(&mut self, now: SimTime, _node: NodeId, bytes: u64) {
        self.advance(now);
        let stats = self.entry(self.cur);
        stats.msgs_received += 1;
        stats.bytes_received += bytes;
    }

    fn on_liveness(&mut self, now: SimTime, node: NodeId, alive: bool) {
        self.advance(now);
        let li = self.local[node.index()];
        self.alive[li as usize] = alive;
    }
}
