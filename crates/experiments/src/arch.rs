//! T-ARCH — the paper's §4 survey as a measured table: how fair are the
//! existing architectures on the *same* heterogeneous workload?
//!
//! Systems: central broker, Scribe/Pastry trees, DKS-style groups+index,
//! data-aware multicast, SplitStream forest, classic static gossip, fair
//! gossip. For each: fairness over contribution/benefit ratios, fairness
//! over raw contributions (load balance — the §3 distinction), delivery
//! reliability, total traffic, and the hottest node's share.
//!
//! Every system runs through [`run_architecture`] on the identical
//! [`ScenarioSpec`] workload, so the rows differ only in architecture.

use crate::harness::{run_architecture, EngineKind, RunSummary};
use fed_metrics::table::{fmt_f64, Table};
use fed_workload::scenario::{Architecture, ScenarioSpec};

/// Result of the T-ARCH experiment.
#[derive(Debug)]
pub struct ArchResult {
    /// The comparison table.
    pub table: Table,
    /// Each system's run summary, in [`Architecture::ALL`] order.
    pub rows: Vec<(Architecture, RunSummary)>,
}

/// Runs the full architecture comparison.
pub fn run(n: usize, seed: u64) -> ArchResult {
    let rows: Vec<(Architecture, RunSummary)> = Architecture::ALL
        .into_iter()
        .map(|arch| {
            let spec = ScenarioSpec::standard(arch, n, seed);
            (
                arch,
                run_architecture(&spec, EngineKind::Sequential).summary(),
            )
        })
        .collect();

    let mut table = Table::new(
        format!("T-ARCH: fairness across architectures (n={n})"),
        &[
            "system",
            "ratio jain",
            "load jain",
            "reliability",
            "total msgs",
            "hottest node share",
        ],
    );
    for (arch, s) in &rows {
        table.row_owned(vec![
            arch.name().to_string(),
            fmt_f64(s.ratio.jain),
            fmt_f64(s.load.jain),
            fmt_f64(s.reliability),
            s.total_msgs.to_string(),
            fmt_f64(s.hottest_share),
        ]);
    }
    ArchResult { table, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_section4_verdicts_hold() {
        let r = run(64, 5);
        let of = |arch: Architecture| {
            &r.rows
                .iter()
                .find(|(a, _)| *a == arch)
                .unwrap_or_else(|| panic!("{arch} missing"))
                .1
        };
        let broker = of(Architecture::Broker);
        let fair = of(Architecture::FairGossip);
        let stat = of(Architecture::StaticGossip);
        let scribe = of(Architecture::Scribe);
        let split = of(Architecture::SplitStream);

        // Every architecture produced a row.
        assert_eq!(r.rows.len(), Architecture::ALL.len());
        // Broker: one node does nearly everything.
        assert!(broker.hottest_share > 0.5, "{}", r.table);
        // Fair gossip beats static gossip on ratio fairness.
        assert!(fair.ratio.jain > stat.ratio.jain, "{}", r.table);
        // Fair gossip is the fairest decentralized system in the table.
        assert!(fair.ratio.jain > scribe.ratio.jain, "{}", r.table);
        assert!(fair.ratio.jain > split.ratio.jain, "{}", r.table);
        // SplitStream balances load yet stays ratio-unfair (§3 distinction)
        assert!(split.load.jain > split.ratio.jain, "{}", r.table);
        // Everything except broker-after-crash delivers reliably here.
        for (arch, s) in &r.rows {
            assert!(s.reliability > 0.95, "{arch}: {}", s.reliability);
        }
    }
}
