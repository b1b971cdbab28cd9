//! Shared pieces of the `cbs-agent` / `cbs-ctl` pair: the fixed
//! reference sweep grid and the deterministic verdict report.
//!
//! Included via `#[path]` from both binaries — the grid must be
//! *identical* on both sides of the wire, and the report must be
//! byte-identical between `--local` and `--agents` runs (the
//! `agent-smoke` gate diffs the two outputs).

use cbs_core::{Analysis, SweepGrid, SweepReport};

/// The fixed cache grid every fan-out participant simulates: an LRU
/// ladder plus one FIFO/CLOCK lane each, per-volume caches merged into
/// the corpus verdict (the paper's Fig. 18 setting).
#[expect(
    clippy::expect_used,
    reason = "the builder only rejects duplicates and zero capacities; this grid is static"
)]
pub fn sweep_grid() -> SweepGrid {
    SweepGrid::new()
        .lru_capacity(64)
        .and_then(|g| g.lru_capacity(512))
        .and_then(|g| g.lru_capacity(4096))
        .and_then(|g| g.policy("fifo", 512))
        .and_then(|g| g.policy("clock", 512))
        .expect("static grid is valid")
        .with_workers(1)
}

/// Prints the deterministic verdict report for an analysis (and the
/// merged sweep, if one ran) to `out`.
///
/// Everything printed is a pure function of the corpus: per-volume
/// metric records, the finding verdicts, and the sweep's tallies.
/// Timing fields (lane nanos, expansion nanos) are deliberately
/// excluded — they differ run to run and would break the
/// byte-for-byte smoke diff.
pub fn print_report(
    out: &mut impl std::io::Write,
    analysis: &Analysis,
    sweep: Option<&SweepReport>,
) -> std::io::Result<()> {
    writeln!(out, "# cbs verdict report v1")?;
    writeln!(out, "volumes: {}", analysis.metrics().len())?;
    for m in analysis.metrics() {
        writeln!(out, "metric {:?}", m)?;
    }
    writeln!(out, "totals {:?}", analysis.totals())?;
    writeln!(out, "request_sizes {:?}", analysis.request_sizes())?;
    writeln!(out, "mean_sizes {:?}", analysis.mean_sizes())?;
    writeln!(out, "active_days {:?}", analysis.active_days())?;
    writeln!(out, "write_read_ratios {:?}", analysis.write_read_ratios())?;
    writeln!(out, "burstiness {:?}", analysis.burstiness())?;
    writeln!(out, "randomness {:?}", analysis.randomness())?;
    writeln!(out, "aggregation {:?}", analysis.aggregation())?;
    writeln!(out, "rw_mostly {:?}", analysis.rw_mostly())?;
    writeln!(out, "update_coverage {:?}", analysis.update_coverage())?;
    writeln!(out, "adjacency {:?}", analysis.adjacency())?;
    writeln!(out, "update_intervals {:?}", analysis.update_intervals())?;
    writeln!(out, "interval_groups {:?}", analysis.interval_groups())?;
    writeln!(out, "lru_miss_ratios {:?}", analysis.lru_miss_ratios())?;
    for a in analysis.assessments() {
        writeln!(out, "assessment {:?}", a)?;
    }
    if let Some(report) = sweep {
        writeln!(
            out,
            "sweep requests={} accesses={} sampled_accesses={}",
            report.requests(),
            report.accesses(),
            report.sampled_accesses()
        )?;
        for lane in report.lanes() {
            writeln!(
                out,
                "lane policy={} capacity={} sampled={} stats={:?}",
                lane.policy, lane.capacity, lane.sampled, lane.stats
            )?;
        }
        if let Some(mrc) = report.lru_mrc() {
            let ratios: Vec<String> = [64usize, 512, 4096]
                .iter()
                .map(|&c| format!("{}:{:?}", c, mrc.miss_ratio_at(c)))
                .collect();
            writeln!(out, "lru_mrc {}", ratios.join(" "))?;
        }
    }
    Ok(())
}
