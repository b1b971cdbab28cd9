//! One runner per paper table/figure.
//!
//! [`build_context`] synthesizes the four corpora and characterizes
//! them one at a time, keeping each one's metrics and generator but not
//! its trace; each `table_*` / `fig_*` function renders one paper
//! artifact as a paper-vs-measured text block; [`run_all`] concatenates
//! all of them into the report recorded in `EXPERIMENTS.md`. The one
//! costly stage, the Fig. 18-extension sweep ([`Corpus::policy_sweep`]),
//! runs at most once per corpus, only when asked for, and regenerates
//! the one volume it sweeps.

use std::sync::OnceLock;

use cbs_analysis::findings::adjacency::PairKind;
use cbs_analysis::findings::aggregation::AggregationBoxplots;
use cbs_analysis::findings::cache::LruMissRatios;
use cbs_analysis::findings::update_interval::IntervalGroup;
use cbs_core::{Analysis, SweepGrid, SweepReport, Workbench, POLICY_NAMES};
use cbs_synth::presets::{self, CorpusConfig};
use cbs_synth::CorpusGenerator;
use cbs_trace::TimeDelta;

use crate::fmt;
use crate::paper::{self, PaperCorpus};
use crate::table::TextTable;

/// Shape of a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReproConfig {
    /// AliCloud-like corpus shape.
    pub alicloud: CorpusConfig,
    /// MSRC-like corpus shape.
    pub msrc: CorpusConfig,
    /// Short full-intensity AliCloud-like window for short-term metrics
    /// (inter-arrival times, aggregate peak intensity) that do not
    /// survive intensity scaling.
    pub alicloud_burst: CorpusConfig,
    /// Short full-intensity MSRC-like window.
    pub msrc_burst: CorpusConfig,
}

impl ReproConfig {
    /// The default reproduction: 100 AliCloud-like volumes over the
    /// full 31 days and the full 36-volume MSRC-like week, with request
    /// rates scaled down to keep the run in the ~10-million-request
    /// range (see `DESIGN.md` §3 on what scaling preserves).
    pub fn default_run(seed: u64) -> Self {
        ReproConfig {
            alicloud: CorpusConfig::new(100, 31, seed).with_intensity_scale(0.008),
            msrc: CorpusConfig::new(36, 7, seed).with_intensity_scale(0.03),
            alicloud_burst: CorpusConfig::new(60, 0, seed ^ 0xB).with_extra_hours(1),
            msrc_burst: CorpusConfig::new(36, 0, seed ^ 0xB).with_extra_hours(1),
        }
    }

    /// A seconds-scale run for tests and doc examples.
    pub fn tiny(seed: u64) -> Self {
        ReproConfig {
            alicloud: CorpusConfig::new(25, 4, seed).with_intensity_scale(0.001),
            msrc: CorpusConfig::new(12, 3, seed).with_intensity_scale(0.004),
            alicloud_burst: CorpusConfig::new(6, 0, seed ^ 0xB)
                .with_extra_hours(1)
                .with_intensity_scale(0.5),
            msrc_burst: CorpusConfig::new(6, 0, seed ^ 0xB)
                .with_extra_hours(1)
                .with_intensity_scale(0.5),
        }
    }
}

/// The Fig. 18 extension on one corpus: every replacement policy at the
/// Finding 15 operating points (1 % and 10 % of the working set) on the
/// corpus's busiest volume.
#[derive(Debug)]
pub struct PolicySweep {
    /// The 1 % capacity, in blocks (at least 8).
    pub small: usize,
    /// The 10 % capacity, in blocks (at least 8).
    pub large: usize,
    /// One traversal of the volume through the whole policy × capacity
    /// grid.
    pub report: SweepReport,
}

/// One analyzed corpus and its Fig. 18-extension sweep, which runs on
/// first use: the report and the TSV export read the same result, and a
/// run that asks for neither never sweeps. The corpus keeps its
/// generator, not its trace: the sweep regenerates the one volume it
/// needs.
#[derive(Debug)]
pub struct Corpus {
    /// The characterization.
    pub analysis: Analysis,
    generator: CorpusGenerator,
    sweep: OnceLock<Option<PolicySweep>>,
}

impl Corpus {
    /// Generates the corpus, analyzes it and drops its trace; nothing is
    /// swept yet.
    pub fn new(generator: CorpusGenerator) -> Self {
        Corpus {
            analysis: Workbench::new(generator.generate()).analyze(),
            generator,
            sweep: OnceLock::new(),
        }
    }

    /// The Fig. 18 extension on the volume with the most requests, run
    /// on the first call over that volume regenerated alone; `None` when
    /// the corpus has no volume.
    pub fn policy_sweep(&self) -> Option<&PolicySweep> {
        self.sweep
            .get_or_init(|| {
                let analysis = &self.analysis;
                let busiest = analysis.metrics().iter().max_by_key(|m| m.requests())?;
                let small = busiest.cache_blocks_for_fraction(0.01).max(8);
                let large = busiest.cache_blocks_for_fraction(0.10).max(8);
                // Built-in names and non-zero capacities cannot be rejected.
                let grid = SweepGrid::new().grid(POLICY_NAMES, &[small, large]).ok()?;
                let index = self
                    .generator
                    .profiles()
                    .iter()
                    .position(|p| p.id == busiest.id)?;
                let requests = self.generator.generate_volume(index)?;
                let report = grid
                    .with_block_size(analysis.config().block_size)
                    .sweep(requests);
                Some(PolicySweep {
                    small,
                    large,
                    report,
                })
            })
            .as_ref()
    }
}

/// Both corpora, analyzed.
#[derive(Debug)]
pub struct ReproContext {
    /// The AliCloud-like corpus.
    pub alicloud: Corpus,
    /// The MSRC-like corpus.
    pub msrc: Corpus,
    /// The full-intensity short-window AliCloud-like corpus.
    pub alicloud_burst: Corpus,
    /// The full-intensity short-window MSRC-like corpus.
    pub msrc_burst: Corpus,
    /// The run shape.
    pub config: ReproConfig,
}

impl ReproContext {
    /// The two analyses paired with their paper references, in
    /// presentation order.
    pub fn corpora(&self) -> [(&Analysis, &'static PaperCorpus); 2] {
        [
            (&self.alicloud.analysis, &paper::ALICLOUD),
            (&self.msrc.analysis, &paper::MSRC),
        ]
    }

    /// The full-intensity short-window analyses, paired with their
    /// paper references.
    pub fn burst_corpora(&self) -> [(&Analysis, &'static PaperCorpus); 2] {
        [
            (&self.alicloud_burst.analysis, &paper::ALICLOUD),
            (&self.msrc_burst.analysis, &paper::MSRC),
        ]
    }
}

/// Synthesizes and analyzes the four corpora, one at a time: each trace
/// is dropped once its analysis is built.
pub fn build_context(config: &ReproConfig) -> ReproContext {
    ReproContext {
        alicloud: Corpus::new(presets::alicloud_like(&config.alicloud)),
        msrc: Corpus::new(presets::msrc_like(&config.msrc)),
        alicloud_burst: Corpus::new(presets::alicloud_like(&config.alicloud_burst)),
        msrc_burst: Corpus::new(presets::msrc_like(&config.msrc_burst)),
        config: *config,
    }
}

fn section(title: &str, body: String) -> String {
    format!("\n## {title}\n\n{body}")
}

/// Table I — basic statistics.
pub fn table1_basic(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec![
        "metric",
        "AliCloud paper",
        "AliCloud measured",
        "MSRC paper",
        "MSRC measured",
    ]);
    let ali = ctx.alicloud.analysis.totals();
    let msrc = ctx.msrc.analysis.totals();
    let pa = &paper::ALICLOUD.totals;
    let pm = &paper::MSRC.totals;
    t.row(vec![
        "volumes".into(),
        pa.volumes.to_string(),
        ali.volumes.to_string(),
        pm.volumes.to_string(),
        msrc.volumes.to_string(),
    ]);
    t.row(vec![
        "reads".into(),
        fmt::count((pa.reads_m * 1e6) as u64),
        fmt::count(ali.reads),
        fmt::count((pm.reads_m * 1e6) as u64),
        fmt::count(msrc.reads),
    ]);
    t.row(vec![
        "writes".into(),
        fmt::count((pa.writes_m * 1e6) as u64),
        fmt::count(ali.writes),
        fmt::count((pm.writes_m * 1e6) as u64),
        fmt::count(msrc.writes),
    ]);
    t.row(vec![
        "W:R ratio".into(),
        fmt::num(pa.write_read_ratio()),
        fmt::num_opt(ali.write_read_ratio()),
        fmt::num(pm.write_read_ratio()),
        fmt::num_opt(msrc.write_read_ratio()),
    ]);
    t.row(vec![
        "data read".into(),
        format!("{:.1}TiB", pa.read_tib),
        fmt::bytes(ali.read_bytes),
        format!("{:.2}TiB", pm.read_tib),
        fmt::bytes(msrc.read_bytes),
    ]);
    t.row(vec![
        "data written".into(),
        format!("{:.1}TiB", pa.write_tib),
        fmt::bytes(ali.write_bytes),
        format!("{:.2}TiB", pm.write_tib),
        fmt::bytes(msrc.write_bytes),
    ]);
    t.row(vec![
        "data updated".into(),
        format!("{:.1}TiB", pa.updated_tib),
        fmt::bytes(ali.updated_bytes),
        format!("{:.2}TiB", pm.updated_tib),
        fmt::bytes(msrc.updated_bytes),
    ]);
    t.row(vec![
        "read WSS / total WSS".into(),
        fmt::percent(pa.read_wss_fraction()),
        fmt::percent_opt(ali.read_wss_fraction()),
        fmt::percent(pm.read_wss_fraction()),
        fmt::percent_opt(msrc.read_wss_fraction()),
    ]);
    t.row(vec![
        "write WSS / total WSS".into(),
        fmt::percent(pa.write_wss_fraction()),
        fmt::percent_opt(ali.write_wss_fraction()),
        fmt::percent(pm.write_wss_fraction()),
        fmt::percent_opt(msrc.write_wss_fraction()),
    ]);
    section(
        "Table I — basic statistics (absolute counts scale with the run; ratios are comparable)",
        t.render(),
    )
}

/// Fig. 2 — request-size distributions.
pub fn fig2_sizes(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper", "measured"]);
    for (analysis, p) in ctx.corpora() {
        let sizes = analysis.request_sizes();
        let paper_read = if p.name == "AliCloud" {
            paper::sizes::ALICLOUD_READ_P75
        } else {
            paper::sizes::MSRC_READ_P75
        };
        let paper_write = if p.name == "AliCloud" {
            paper::sizes::ALICLOUD_WRITE_P75
        } else {
            paper::sizes::MSRC_WRITE_P75
        };
        t.row(vec![
            format!("{} read p75", p.name),
            format!("<= {}", fmt::bytes(paper_read)),
            sizes.read_p75().map_or("-".into(), fmt::bytes),
        ]);
        t.row(vec![
            format!("{} write p75", p.name),
            format!("<= {}", fmt::bytes(paper_write)),
            sizes.write_p75().map_or("-".into(), fmt::bytes),
        ]);
        let means = analysis.mean_sizes();
        t.row(vec![
            format!("{} mean-read-size p75 (per-vol)", p.name),
            if p.name == "AliCloud" {
                "<= 39.1KiB".into()
            } else {
                "<= 50.8KiB".into()
            },
            means
                .read_means
                .value_at(0.75)
                .map_or("-".into(), |v| fmt::bytes(v as u64)),
        ]);
        t.row(vec![
            format!("{} mean-write-size p75 (per-vol)", p.name),
            if p.name == "AliCloud" {
                "<= 34.4KiB".into()
            } else {
                "<= 15.3KiB".into()
            },
            means
                .write_means
                .value_at(0.75)
                .map_or("-".into(), |v| fmt::bytes(v as u64)),
        ]);
    }
    section("Fig. 2 — request sizes (small I/O dominates)", t.render())
}

/// Fig. 3 — active days.
pub fn fig3_active_days(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper", "measured"]);
    for (analysis, p) in ctx.corpora() {
        let days = analysis.active_days();
        t.row(vec![
            format!("{} volumes active exactly 1 day", p.name),
            fmt::percent(p.activeness.frac_one_day),
            fmt::percent(days.fraction_at_most(1)),
        ]);
    }
    section("Fig. 3 — active days per volume", t.render())
}

/// Fig. 4 — write-to-read ratios.
pub fn fig4_wr_ratio(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper", "measured"]);
    let ali = ctx.alicloud.analysis.write_read_ratios();
    let msrc = ctx.msrc.analysis.write_read_ratios();
    t.row(vec![
        "AliCloud write-dominant volumes".into(),
        fmt::percent(paper::wr_ratio::ALICLOUD_WRITE_DOMINANT),
        fmt::percent(ali.fraction_write_dominant()),
    ]);
    t.row(vec![
        "AliCloud volumes with W:R > 100".into(),
        fmt::percent(paper::wr_ratio::ALICLOUD_ABOVE_100),
        fmt::percent(ali.fraction_above(100.0)),
    ]);
    t.row(vec![
        "MSRC write-dominant volumes".into(),
        fmt::percent(paper::wr_ratio::MSRC_WRITE_DOMINANT),
        fmt::percent(msrc.fraction_write_dominant()),
    ]);
    section("Fig. 4 — write-to-read ratios", t.render())
}

/// Fig. 5 + Table II — intensities (Finding 1 + Finding 2's overall
/// burstiness).
pub fn fig5_intensity(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper", "measured", "note"]);
    for (analysis, p) in ctx.corpora() {
        let scale = if p.name == "AliCloud" {
            ctx.config.alicloud.intensity_scale
        } else {
            ctx.config.msrc.intensity_scale
        };
        let series = analysis.intensity_series();
        let note = format!("rates scaled x{scale}");
        t.row(vec![
            format!("{} median avg intensity (req/s)", p.name),
            fmt::num(p.intensity.median_avg_rps),
            fmt::num_opt(series.median_avg()),
            note.clone(),
        ]);
        t.row(vec![
            format!("{} volumes above 100 req/s (scaled)", p.name),
            fmt::percent(p.intensity.frac_avg_above_100),
            fmt::percent(series.fraction_avg_above(100.0 * scale)),
            String::new(),
        ]);
        t.row(vec![
            format!("{} volumes below 10 req/s (scaled)", p.name),
            fmt::percent(p.intensity.frac_avg_below_10),
            fmt::percent(1.0 - series.fraction_avg_above(10.0 * scale)),
            String::new(),
        ]);
    }
    for (analysis, p) in ctx.burst_corpora() {
        if let Some(overall) = analysis.overall_intensity() {
            t.row(vec![
                format!("{} overall burstiness ratio", p.name),
                fmt::num(p.intensity.overall_burstiness),
                fmt::num(overall.burstiness_ratio()),
                "Table II; full-intensity 1-hour window".into(),
            ]);
            t.row(vec![
                format!("{} overall avg intensity (req/s)", p.name),
                fmt::num(p.intensity.overall_avg_rps),
                fmt::num(overall.avg_rps),
                "Table II; scales with volume count".into(),
            ]);
        }
    }
    section(
        "Fig. 5 + Table II — load intensities (Finding 1-2)",
        t.render(),
    )
}

/// Fig. 6 — burstiness-ratio distribution (Findings 2-3).
pub fn fig6_burstiness(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper", "measured"]);
    for (analysis, p) in ctx.corpora() {
        let b = analysis.burstiness();
        t.row(vec![
            format!("{} volumes with ratio < 10", p.name),
            fmt::percent(p.intensity.frac_burst_below_10),
            fmt::percent(b.fraction_below(10.0)),
        ]);
        t.row(vec![
            format!("{} volumes with ratio > 100", p.name),
            fmt::percent(p.intensity.frac_burst_above_100),
            fmt::percent(b.fraction_above(100.0)),
        ]);
        t.row(vec![
            format!("{} volumes with ratio > 1000", p.name),
            fmt::percent(p.intensity.frac_burst_above_1000),
            fmt::percent(b.fraction_above(1000.0)),
        ]);
    }
    section("Fig. 6 — burstiness ratios (Findings 2-3)", t.render())
}

/// Fig. 7 — inter-arrival percentile groups (Finding 4).
pub fn fig7_interarrival(ctx: &ReproContext) -> String {
    // Inter-arrival percentiles are a short-term statistic that does
    // not survive intensity scaling, so they are measured on the
    // full-intensity one-hour corpora.
    let mut t = TextTable::new(vec!["metric", "paper", "measured"]);
    for (analysis, p) in ctx.burst_corpora() {
        let b = analysis.interarrival_boxplots();
        for (idx, label) in [(0usize, "p25"), (1, "p50"), (2, "p75")] {
            t.row(vec![
                format!("{} median of per-volume {label} (us)", p.name),
                fmt::num(p.interarrival_group_medians_us[idx]),
                fmt::num_opt(b.median_of_group(idx)),
            ]);
        }
    }
    section(
        "Fig. 7 — inter-arrival times (Finding 4; measured on the full-intensity 1-hour window)",
        t.render(),
    )
}

/// Figs. 8-9 — activeness (Findings 5-7).
pub fn fig8_activeness(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper", "measured"]);
    for (analysis, p) in ctx.corpora() {
        let days = if p.name == "AliCloud" {
            ctx.config.alicloud.days
        } else {
            ctx.config.msrc.days
        } as f64;
        let periods = analysis.active_periods();
        t.row(vec![
            format!("{} volumes active >= 95% of trace", p.name),
            fmt::percent(p.activeness.frac_active_95pct),
            fmt::percent(periods.fraction_active_at_least(0.95, days)),
        ]);
        t.row(vec![
            format!("{} median read-active time (days)", p.name),
            fmt::num(p.activeness.median_read_active_days),
            fmt::num_opt(periods.read_active_days.value_at(0.5)),
        ]);
        if let Some((lo, hi)) = analysis.activeness_series().read_only_reduction() {
            let (plo, phi) = p.activeness.read_reduction_range;
            t.row(vec![
                format!("{} read-only active-volume reduction", p.name),
                format!("{}-{}", fmt::percent(plo), fmt::percent(phi)),
                format!("{}-{}", fmt::percent(lo), fmt::percent(hi)),
            ]);
        }
    }
    section("Figs. 8-9 — activeness (Findings 5-7)", t.render())
}

/// Fig. 10 — randomness (Finding 8).
pub fn fig10_randomness(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper", "measured"]);
    for (analysis, p) in ctx.corpora() {
        let r = analysis.randomness();
        t.row(vec![
            format!("{} volumes with randomness > 50%", p.name),
            fmt::percent(p.randomness.frac_above_half),
            fmt::percent(r.fraction_above(0.5)),
        ]);
        t.row(vec![
            format!("{} max randomness ratio", p.name),
            format!("<= {}", fmt::percent(p.randomness.max_ratio)),
            fmt::percent_opt(r.max()),
        ]);
        let top = analysis.top_traffic(10);
        if !top.is_empty() {
            let lo = top
                .iter()
                .map(|v| v.randomness_ratio)
                .fold(f64::INFINITY, f64::min);
            let hi = top
                .iter()
                .map(|v| v.randomness_ratio)
                .fold(f64::NEG_INFINITY, f64::max);
            let (plo, phi) = p.randomness.top10_ratio_range;
            t.row(vec![
                format!("{} top-10-traffic randomness range", p.name),
                format!("{}-{}", fmt::percent(plo), fmt::percent(phi)),
                format!("{}-{}", fmt::percent(lo), fmt::percent(hi)),
            ]);
        }
    }
    section("Fig. 10 — randomness ratios (Finding 8)", t.render())
}

/// Fig. 11 — traffic aggregation (Finding 9).
pub fn fig11_aggregation(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper p25", "measured p25"]);
    for (analysis, p) in ctx.corpora() {
        let a = analysis.aggregation();
        let rows: [(&str, f64, &Vec<f64>); 4] = [
            ("read top-1%", p.aggregation.read_top1_p25, &a.read_top1),
            ("read top-10%", p.aggregation.read_top10_p25, &a.read_top10),
            ("write top-1%", p.aggregation.write_top1_p25, &a.write_top1),
            (
                "write top-10%",
                p.aggregation.write_top10_p25,
                &a.write_top10,
            ),
        ];
        for (label, paper_p25, values) in rows {
            t.row(vec![
                format!("{} {label} traffic share", p.name),
                fmt::percent(paper_p25),
                fmt::percent_opt(AggregationBoxplots::p25(values)),
            ]);
        }
    }
    section(
        "Fig. 11 — traffic aggregation in top blocks (Finding 9)",
        t.render(),
    )
}

/// Table III + Fig. 12 — read-/write-mostly blocks (Finding 10).
pub fn fig12_rw_mostly(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper", "measured"]);
    for (analysis, p) in ctx.corpora() {
        let r = analysis.rw_mostly();
        t.row(vec![
            format!("{} reads to read-mostly blocks", p.name),
            fmt::percent(p.rw_mostly.overall_read_share),
            fmt::percent_opt(r.overall_read_share),
        ]);
        t.row(vec![
            format!("{} writes to write-mostly blocks", p.name),
            fmt::percent(p.rw_mostly.overall_write_share),
            fmt::percent_opt(r.overall_write_share),
        ]);
        t.row(vec![
            format!("{} median per-volume read share", p.name),
            fmt::percent(p.rw_mostly.median_read_share),
            fmt::percent_opt(r.median_read_share()),
        ]);
        t.row(vec![
            format!("{} median per-volume write share", p.name),
            fmt::percent(p.rw_mostly.median_write_share),
            fmt::percent_opt(r.median_write_share()),
        ]);
    }
    section(
        "Table III + Fig. 12 — read-/write-mostly blocks (Finding 10)",
        t.render(),
    )
}

/// Table IV + Fig. 13 — update coverage (Finding 11).
pub fn fig13_coverage(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper", "measured"]);
    for (analysis, p) in ctx.corpora() {
        let c = analysis.update_coverage();
        let [pmean, pmed, pp90] = p.update_coverage;
        t.row(vec![
            format!("{} mean coverage", p.name),
            fmt::percent(pmean),
            fmt::percent_opt(c.mean()),
        ]);
        t.row(vec![
            format!("{} median coverage", p.name),
            fmt::percent(pmed),
            fmt::percent_opt(c.median()),
        ]);
        t.row(vec![
            format!("{} p90 coverage", p.name),
            fmt::percent(pp90),
            fmt::percent_opt(c.p90()),
        ]);
    }
    section(
        "Table IV + Fig. 13 — update coverage (Finding 11)",
        t.render(),
    )
}

/// Fig. 14 + Table V — RAW/WAW (Finding 12), plus RAR/WAR counts.
pub fn fig14_raw_waw(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper", "measured"]);
    for (analysis, p) in ctx.corpora() {
        let a = analysis.adjacency();
        t.row(vec![
            format!("{} RAW median time", p.name),
            fmt::hours(p.adjacency.median_hours[0]),
            a.median(PairKind::Raw)
                .map_or("-".into(), |d| fmt::hours(d.as_hours_f64())),
        ]);
        t.row(vec![
            format!("{} WAW median time", p.name),
            fmt::hours(p.adjacency.median_hours[1]),
            a.median(PairKind::Waw)
                .map_or("-".into(), |d| fmt::hours(d.as_hours_f64())),
        ]);
        t.row(vec![
            format!("{} WAW times under 1 min", p.name),
            fmt::percent(p.adjacency.waw_under_1min),
            fmt::percent(a.fraction_within(PairKind::Waw, TimeDelta::from_mins(1))),
        ]);
        t.row(vec![
            format!("{} WAW:RAW count ratio", p.name),
            fmt::num(p.adjacency.waw_to_raw_ratio()),
            fmt::num_opt(a.waw_to_raw_ratio()),
        ]);
    }
    section("Fig. 14 + Table V — RAW/WAW (Finding 12)", t.render())
}

/// Fig. 15 — RAR/WAR (Finding 13).
pub fn fig15_rar_war(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper", "measured"]);
    for (analysis, p) in ctx.corpora() {
        let a = analysis.adjacency();
        t.row(vec![
            format!("{} RAR median time", p.name),
            fmt::hours(p.adjacency.median_hours[2]),
            a.median(PairKind::Rar)
                .map_or("-".into(), |d| fmt::hours(d.as_hours_f64())),
        ]);
        t.row(vec![
            format!("{} WAR median time", p.name),
            fmt::hours(p.adjacency.median_hours[3]),
            a.median(PairKind::War)
                .map_or("-".into(), |d| fmt::hours(d.as_hours_f64())),
        ]);
        t.row(vec![
            format!("{} WAR times above 1 h", p.name),
            fmt::percent(p.adjacency.war_above_1h),
            fmt::percent(1.0 - a.fraction_within(PairKind::War, TimeDelta::from_hours(1))),
        ]);
        let rar = a.count(PairKind::Rar);
        let war = a.count(PairKind::War);
        t.row(vec![
            format!("{} RAR:WAR count ratio", p.name),
            fmt::num(p.adjacency.counts_m[2] / p.adjacency.counts_m[3]),
            if war > 0 {
                fmt::num(rar as f64 / war as f64)
            } else {
                "-".into()
            },
        ]);
    }
    section("Fig. 15 — RAR/WAR (Finding 13)", t.render())
}

/// Table VI + Figs. 16-17 — update intervals (Finding 14).
pub fn fig16_update_intervals(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper", "measured"]);
    for (analysis, p) in ctx.corpora() {
        let overall = analysis.update_intervals();
        if let Some(measured) = overall.percentiles_hours() {
            for (i, label) in ["p25", "p50", "p75", "p90", "p95"].iter().enumerate() {
                t.row(vec![
                    format!("{} update-interval {label}", p.name),
                    fmt::hours(p.update_interval_percentiles_h[i]),
                    fmt::hours(measured[i]),
                ]);
            }
        }
        let groups = analysis.interval_groups();
        let (p5, p240) = p.interval_group_medians;
        t.row(vec![
            format!("{} median share of intervals < 5 min", p.name),
            fmt::percent(p5),
            fmt::percent_opt(groups.median(IntervalGroup::Under5Min)),
        ]);
        t.row(vec![
            format!("{} median share of intervals > 240 min", p.name),
            fmt::percent(p240),
            fmt::percent_opt(groups.median(IntervalGroup::Over240Min)),
        ]);
    }
    section(
        "Table VI + Figs. 16-17 — update intervals (Finding 14)",
        t.render(),
    )
}

/// Fig. 18 — LRU miss ratios (Finding 15).
pub fn fig18_lru(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["metric", "paper p25", "measured p25"]);
    for (analysis, p) in ctx.corpora() {
        let r = analysis.lru_miss_ratios();
        let rows: [(&str, f64, &Vec<f64>); 4] = [
            ("read miss @1% WSS", p.lru.read_p25_small, &r.read_small),
            ("read miss @10% WSS", p.lru.read_p25_large, &r.read_large),
            ("write miss @1% WSS", p.lru.write_p25_small, &r.write_small),
            ("write miss @10% WSS", p.lru.write_p25_large, &r.write_large),
        ];
        for (label, paper_p25, values) in rows {
            t.row(vec![
                format!("{} {label}", p.name),
                fmt::percent(paper_p25),
                fmt::percent_opt(LruMissRatios::p25(values)),
            ]);
        }
    }
    section("Fig. 18 — LRU miss ratios (Finding 15)", t.render())
}

/// Fig. 18 extension — every replacement policy at the Finding 15
/// operating points (1 % and 10 % of the working set) on each corpus's
/// busiest volume, driven by the single-pass sweep engine: one trace
/// traversal answers the whole policy × capacity grid.
pub fn fig18_sweep(ctx: &ReproContext) -> String {
    let mut t = TextTable::new(vec!["corpus", "policy", "miss @1% WSS", "miss @10% WSS"]);
    for (corpus, p) in [(&ctx.alicloud, &paper::ALICLOUD), (&ctx.msrc, &paper::MSRC)] {
        let Some(sweep) = corpus.policy_sweep() else {
            continue;
        };
        for &name in POLICY_NAMES {
            let miss_at = |capacity: usize| {
                sweep
                    .report
                    .stats(name, capacity)
                    .and_then(|s| s.overall_miss_ratio())
            };
            t.row(vec![
                p.name.to_string(),
                name.to_owned(),
                fmt::percent_opt(miss_at(sweep.small)),
                fmt::percent_opt(miss_at(sweep.large)),
            ]);
        }
    }
    section(
        "Fig. 18 ext. — policy sweep at the Finding 15 points (single pass)",
        t.render(),
    )
}

/// Machine-checked verdicts for all 15 findings (Section IV).
pub fn findings_verdicts(ctx: &ReproContext) -> String {
    let mut verdicts = cbs_analysis::findings::verdicts::evaluate_pair(
        ctx.alicloud.analysis.metrics(),
        ctx.msrc.analysis.metrics(),
        ctx.alicloud.analysis.config(),
    );
    // Findings 1, 4, and 13 are absolute-rate / short-term claims that
    // do not survive intensity scaling (inter-access gaps stretch by
    // the inverse scale); judge them on the full-intensity one-hour
    // corpora instead.
    let burst = cbs_analysis::findings::verdicts::evaluate_pair(
        ctx.alicloud_burst.analysis.metrics(),
        ctx.msrc_burst.analysis.metrics(),
        ctx.alicloud_burst.analysis.config(),
    );
    verdicts[0] = burst[0].clone();
    verdicts[3] = burst[3].clone();
    verdicts[12] = burst[12].clone();
    let holds = cbs_analysis::findings::verdicts::holds_count(&verdicts);
    let mut body = String::new();
    for v in &verdicts {
        body.push_str(&v.to_string());
        body.push('\n');
    }
    body.push_str(&format!(
        "\n{holds}/15 directional claims hold on this run\n"
    ));
    section(
        "Findings scorecard — directional claims of Section IV",
        body,
    )
}

/// One table/figure builder: renders its section from an analyzed run.
pub type Experiment = fn(&ReproContext) -> String;

/// The experiment registry, in paper order.
pub fn registry() -> Vec<(&'static str, Experiment)> {
    vec![
        ("table1", table1_basic as Experiment),
        ("fig2", fig2_sizes),
        ("fig3", fig3_active_days),
        ("fig4", fig4_wr_ratio),
        ("fig5", fig5_intensity),
        ("fig6", fig6_burstiness),
        ("fig7", fig7_interarrival),
        ("fig8", fig8_activeness),
        ("fig10", fig10_randomness),
        ("fig11", fig11_aggregation),
        ("fig12", fig12_rw_mostly),
        ("fig13", fig13_coverage),
        ("fig14", fig14_raw_waw),
        ("fig15", fig15_rar_war),
        ("fig16", fig16_update_intervals),
        ("fig18", fig18_lru),
        ("fig18-sweep", fig18_sweep),
        ("verdicts", findings_verdicts),
    ]
}

/// Runs every experiment and concatenates the report.
pub fn run_all(ctx: &ReproContext) -> String {
    let mut out = String::from("# cbs-workbench reproduction report\n");
    out.push_str(&format!(
        "\nAliCloud-like: {} volumes, {} days, intensity x{}, seed {}\n",
        ctx.config.alicloud.volumes,
        ctx.config.alicloud.days,
        ctx.config.alicloud.intensity_scale,
        ctx.config.alicloud.seed,
    ));
    out.push_str(&format!(
        "MSRC-like: {} volumes, {} days, intensity x{}, seed {}\n",
        ctx.config.msrc.volumes,
        ctx.config.msrc.days,
        ctx.config.msrc.intensity_scale,
        ctx.config.msrc.seed,
    ));
    out.push_str(&format!(
        "Generated requests: AliCloud-like {}, MSRC-like {}\n",
        fmt::count(ctx.alicloud.analysis.totals().requests()),
        fmt::count(ctx.msrc.analysis.totals().requests()),
    ));
    for (_, run) in registry() {
        out.push_str(&run(ctx));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ReproContext {
        build_context(&ReproConfig::tiny(7))
    }

    #[test]
    fn every_experiment_renders() {
        let ctx = ctx();
        for (name, run) in registry() {
            let out = run(&ctx);
            assert!(
                out.contains("paper")
                    || out.contains("Fig")
                    || out.contains("Table")
                    || out.contains("Finding"),
                "experiment {name} produced: {out}"
            );
            assert!(out.len() > 100, "experiment {name} suspiciously short");
        }
    }

    /// `repro --seed 7 --tiny` prints `run_all` plus one newline; the
    /// golden is that stdout, so any change to the generator, the
    /// analyzer or the report shows up here.
    const GOLDEN_TINY_SEED7: &str = include_str!("../golden/repro_tiny_seed7.txt");

    #[test]
    fn run_all_contains_every_section() {
        let report = format!("{}\n", run_all(&ctx()));
        let first_diff = report
            .lines()
            .zip(GOLDEN_TINY_SEED7.lines())
            .position(|(got, want)| got != want)
            .map(|i| i + 1);
        assert!(
            report == GOLDEN_TINY_SEED7,
            "run_all(tiny, seed 7) differs from crates/report/golden/repro_tiny_seed7.txt \
             (first differing line: {first_diff:?}); if the change is intended, regenerate \
             it with `cargo run --release -p cbs-report --bin repro -- --seed 7 --tiny \
             > crates/report/golden/repro_tiny_seed7.txt` (--seed before --tiny: --tiny \
             reads the seed)"
        );
    }

    #[test]
    fn policy_sweep_runs_once_and_only_on_demand() {
        let ctx = ctx();
        table1_basic(&ctx);
        assert!(ctx.alicloud.sweep.get().is_none(), "table1 swept");
        fig18_sweep(&ctx);
        let first = ctx.alicloud.sweep.get().and_then(Option::as_ref);
        assert!(first.is_some(), "fig18-sweep did not sweep");
        assert!(std::ptr::eq(
            first.unwrap(),
            ctx.alicloud.policy_sweep().unwrap()
        ));
        assert!(ctx.alicloud_burst.sweep.get().is_none());
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<_> = registry().iter().map(|(n, _)| *n).collect();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(names.len(), unique.len());
    }
}
