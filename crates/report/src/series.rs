//! Plot-ready data export: every figure's series as TSV files.
//!
//! The text report (`experiments`) compares headline numbers; this
//! module dumps the *full curves* — CDF points, per-volume series,
//! boxplot summaries — so the figures can be re-plotted with any
//! plotting tool (`gnuplot`, matplotlib, ...). One file per figure
//! panel per corpus, tab-separated with a header row.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use cbs_analysis::findings::adjacency::PairKind;
use cbs_stats::{BoxplotSummary, Cdf, LogHistogram};

use crate::experiments::{Corpus, ReproContext};

/// Maximum points per exported CDF — plenty for a plot, small on disk.
const MAX_POINTS: usize = 512;

fn write_file(path: &Path, header: &str, rows: &[String]) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(file, "{header}")?;
    for row in rows {
        writeln!(file, "{row}")?;
    }
    file.flush()
}

/// Writes an empirical CDF as `value \t cum_fraction` rows.
pub fn write_cdf(path: &Path, cdf: &Cdf, value_label: &str) -> io::Result<()> {
    let rows: Vec<String> = cdf
        .downsampled_points(MAX_POINTS)
        .into_iter()
        .map(|(v, f)| format!("{v}\t{f}"))
        .collect();
    write_file(path, &format!("{value_label}\tcum_fraction"), &rows)
}

/// Writes a log-histogram's CDF as `value \t cum_fraction` rows.
pub fn write_hist_cdf(path: &Path, hist: &LogHistogram, value_label: &str) -> io::Result<()> {
    let points = hist.cdf_points();
    // downsample evenly if oversized
    let step = (points.len() / MAX_POINTS).max(1);
    let rows: Vec<String> = points
        .iter()
        .step_by(step)
        .chain(points.last().filter(|_| points.len() % step != 1))
        .map(|(v, f)| format!("{v}\t{f}"))
        .collect();
    write_file(path, &format!("{value_label}\tcum_fraction"), &rows)
}

/// Writes boxplot summaries, one labelled row each.
pub fn write_boxplots(path: &Path, rows: &[(String, Option<BoxplotSummary>)]) -> io::Result<()> {
    let lines: Vec<String> = rows
        .iter()
        .map(|(label, b)| match b {
            Some(b) => format!(
                "{label}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                b.min(),
                b.whisker_low(),
                b.q1(),
                b.median(),
                b.q3(),
                b.whisker_high(),
                b.max(),
                b.outlier_count()
            ),
            None => format!("{label}\t-\t-\t-\t-\t-\t-\t-\t-"),
        })
        .collect();
    write_file(
        path,
        "series\tmin\twhisker_lo\tq1\tmedian\tq3\twhisker_hi\tmax\toutliers",
        &lines,
    )
}

/// Exports every figure's data for one analyzed corpus under
/// `dir/<prefix>_*.tsv`; returns the files written.
pub fn export_corpus(corpus: &Corpus, dir: &Path, prefix: &str) -> io::Result<Vec<PathBuf>> {
    let analysis = &corpus.analysis;
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut path = |name: &str| -> PathBuf {
        let p = dir.join(format!("{prefix}_{name}.tsv"));
        written.push(p.clone());
        p
    };

    // Fig. 2(a): request-size CDFs
    let sizes = analysis.request_sizes();
    write_hist_cdf(&path("fig2a_read_sizes"), &sizes.read_hist, "bytes")?;
    write_hist_cdf(&path("fig2a_write_sizes"), &sizes.write_hist, "bytes")?;
    // Fig. 2(b): per-volume mean sizes
    let means = analysis.mean_sizes();
    write_cdf(&path("fig2b_mean_read_sizes"), &means.read_means, "bytes")?;
    write_cdf(&path("fig2b_mean_write_sizes"), &means.write_means, "bytes")?;

    // Fig. 3: active days
    write_cdf(
        &path("fig3_active_days"),
        &analysis.active_days().cdf,
        "days",
    )?;

    // Fig. 4: W:R ratios
    write_cdf(
        &path("fig4_wr_ratios"),
        &analysis.write_read_ratios().cdf,
        "ratio",
    )?;

    // Fig. 5: sorted intensities
    let series = analysis.intensity_series();
    let rows: Vec<String> = series
        .avg
        .iter()
        .zip(&series.peak)
        .enumerate()
        .map(|(rank, (a, p))| format!("{rank}\t{a}\t{p}"))
        .collect();
    write_file(&path("fig5_intensities"), "rank\tavg_rps\tpeak_rps", &rows)?;

    // Fig. 6: burstiness CDF
    write_cdf(
        &path("fig6_burstiness"),
        &analysis.burstiness().cdf,
        "ratio",
    )?;

    // Fig. 7: inter-arrival percentile boxplots
    let inter = analysis.interarrival_boxplots();
    let rows: Vec<(String, Option<BoxplotSummary>)> = inter
        .percentiles
        .iter()
        .zip(inter.boxplots.iter())
        .map(|(p, b)| (format!("p{p:.0}"), *b))
        .collect();
    write_boxplots(&path("fig7_interarrival_us"), &rows)?;

    // Fig. 8: active volumes per interval
    let act = analysis.activeness_series();
    let rows: Vec<String> = act
        .active
        .iter()
        .enumerate()
        .map(|(i, a)| format!("{i}\t{a}\t{}\t{}", act.read_active[i], act.write_active[i]))
        .collect();
    write_file(
        &path("fig8_activeness"),
        "interval\tactive\tread_active\twrite_active",
        &rows,
    )?;

    // Fig. 9: active-period CDFs
    let periods = analysis.active_periods();
    write_cdf(&path("fig9_active_days"), &periods.active_days, "days")?;
    write_cdf(
        &path("fig9_read_active_days"),
        &periods.read_active_days,
        "days",
    )?;
    write_cdf(
        &path("fig9_write_active_days"),
        &periods.write_active_days,
        "days",
    )?;

    // Fig. 10(a): randomness CDF; (b): top-traffic scatter
    write_cdf(
        &path("fig10a_randomness"),
        &analysis.randomness().cdf,
        "ratio",
    )?;
    let rows: Vec<String> = analysis
        .top_traffic(10)
        .iter()
        .map(|p| {
            format!(
                "{}\t{}\t{}",
                p.id.get(),
                p.traffic_bytes,
                p.randomness_ratio
            )
        })
        .collect();
    write_file(
        &path("fig10b_top_traffic"),
        "volume\ttraffic_bytes\trandomness_ratio",
        &rows,
    )?;

    // Fig. 11: aggregation boxplots
    let agg = analysis.aggregation();
    let boxed = |v: &[f64]| BoxplotSummary::from_unsorted(v.to_vec());
    write_boxplots(
        &path("fig11_aggregation"),
        &[
            ("read_top1".to_owned(), boxed(&agg.read_top1)),
            ("read_top10".to_owned(), boxed(&agg.read_top10)),
            ("write_top1".to_owned(), boxed(&agg.write_top1)),
            ("write_top10".to_owned(), boxed(&agg.write_top10)),
        ],
    )?;

    // Fig. 12: read-/write-mostly share CDFs
    let rw = analysis.rw_mostly();
    write_cdf(
        &path("fig12_read_mostly_share"),
        &rw.read_share_cdf,
        "share",
    )?;
    write_cdf(
        &path("fig12_write_mostly_share"),
        &rw.write_share_cdf,
        "share",
    )?;

    // Fig. 13: update coverage CDF
    write_cdf(
        &path("fig13_update_coverage"),
        &analysis.update_coverage().cdf,
        "coverage",
    )?;

    // Figs. 14-15: adjacency time CDFs
    let adj = analysis.adjacency();
    for kind in PairKind::ALL {
        write_hist_cdf(
            &path(&format!("fig14_15_{}_us", kind.label().to_lowercase())),
            adj.hist(kind),
            "elapsed_us",
        )?;
    }

    // Table VI / Fig. 16: update-interval distribution + boxplots
    write_hist_cdf(
        &path("fig16_update_intervals_us"),
        &analysis.update_intervals().hist,
        "elapsed_us",
    )?;
    let ub = analysis.update_interval_boxplots();
    let rows: Vec<(String, Option<BoxplotSummary>)> = ub
        .percentiles
        .iter()
        .zip(ub.boxplots.iter())
        .map(|(p, b)| (format!("p{p:.0}"), *b))
        .collect();
    write_boxplots(&path("fig16_update_interval_hours"), &rows)?;

    // Fig. 18: LRU miss-ratio boxplots
    let lru = analysis.lru_miss_ratios();
    write_boxplots(
        &path("fig18_lru_miss_ratios"),
        &[
            ("read_small".to_owned(), boxed(&lru.read_small)),
            ("read_large".to_owned(), boxed(&lru.read_large)),
            ("write_small".to_owned(), boxed(&lru.write_small)),
            ("write_large".to_owned(), boxed(&lru.write_large)),
        ],
    )?;

    // Fig. 18 extension: the full policy grid at the Finding 15 points
    // on the busiest volume, the sweep the report's table reads.
    if let Some(sweep) = corpus.policy_sweep() {
        let rows: Vec<String> = sweep
            .report
            .lanes()
            .iter()
            .map(|lane| {
                let miss = lane
                    .stats
                    .overall_miss_ratio()
                    .map_or_else(|| "NA".to_owned(), |m| format!("{m:.6}"));
                format!("{}\t{}\t{miss}", lane.policy, lane.capacity)
            })
            .collect();
        write_file(
            &path("fig18_policy_sweep"),
            "policy\tcapacity_blocks\tmiss_ratio",
            &rows,
        )?;
    }

    Ok(written)
}

/// Exports both corpora of a repro run; returns all files written.
pub fn export_all(ctx: &ReproContext, dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = export_corpus(&ctx.alicloud, dir, "alicloud")?;
    files.extend(export_corpus(&ctx.msrc, dir, "msrc")?);
    files.extend(export_corpus(&ctx.alicloud_burst, dir, "alicloud_burst")?);
    files.extend(export_corpus(&ctx.msrc_burst, dir, "msrc_burst")?);
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{build_context, ReproConfig};
    use cbs_synth::presets::{self, CorpusConfig};
    use cbs_trace::codec::cbt::crc32;

    #[expect(
        clippy::let_underscore_must_use,
        reason = "the directory may not exist yet"
    )]
    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cbs_series_test_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_corpus() -> Corpus {
        let config = CorpusConfig::new(6, 1, 3).with_intensity_scale(0.002);
        Corpus::new(presets::alicloud_like(&config))
    }

    #[test]
    fn exports_every_figure_file() {
        let dir = tmpdir("corpus");
        let files = export_corpus(&tiny_corpus(), &dir, "test").unwrap();
        assert!(
            files.len() >= 20,
            "expected many series files, got {}",
            files.len()
        );
        for f in &files {
            let content = std::fs::read_to_string(f).unwrap();
            assert!(content.lines().count() >= 1, "{} is empty", f.display());
            // header + tab-separated
            assert!(
                content.lines().next().unwrap().contains('\t'),
                "{}",
                f.display()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cdf_files_are_monotone() {
        let dir = tmpdir("monotone");
        export_corpus(&tiny_corpus(), &dir, "m").unwrap();
        let content = std::fs::read_to_string(dir.join("m_fig6_burstiness.tsv")).unwrap();
        let points: Vec<(f64, f64)> = content
            .lines()
            .skip(1)
            .map(|l| {
                let mut it = l.split('\t');
                (
                    it.next().unwrap().parse().unwrap(),
                    it.next().unwrap().parse().unwrap(),
                )
            })
            .collect();
        assert!(!points.is_empty());
        assert!(points
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert!((points.last().unwrap().1 - 1.0).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `export_all(tiny, seed 7)` as `file \t bytes \t crc32` rows in
    /// write order, so any change to a TSV byte shows up here.
    const MANIFEST_TINY_SEED7: &str = include_str!("../golden/series_tiny_seed7.tsv");

    #[test]
    fn export_all_matches_manifest() {
        let dir = tmpdir("manifest");
        let ctx = build_context(&ReproConfig::tiny(7));
        let files = export_all(&ctx, &dir).unwrap();
        let mut manifest = String::from("file\tbytes\tcrc32\n");
        for f in &files {
            let bytes = std::fs::read(f).unwrap();
            let name = f.file_name().unwrap().to_string_lossy();
            manifest.push_str(&format!("{name}\t{}\t{:08x}\n", bytes.len(), crc32(&bytes)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
        if manifest != MANIFEST_TINY_SEED7 {
            let got = std::env::temp_dir().join("cbs_series_tiny_seed7.tsv");
            std::fs::write(&got, &manifest).unwrap();
            let first_diff = manifest
                .lines()
                .zip(MANIFEST_TINY_SEED7.lines())
                .find(|(got, want)| got != want)
                .map(|(got, _)| got.split('\t').next().unwrap_or_default().to_owned());
            panic!(
                "export_all(tiny, seed 7) differs from crates/report/golden/series_tiny_seed7.tsv \
                 (first differing file: {first_diff:?}; {} rows written, {} expected); if the \
                 change is intended, regenerate it with `cp {} \
                 crates/report/golden/series_tiny_seed7.tsv`",
                manifest.lines().count() - 1,
                MANIFEST_TINY_SEED7.lines().count().saturating_sub(1),
                got.display()
            );
        }
    }

    #[test]
    fn boxplot_writer_handles_empty_series() {
        let dir = tmpdir("boxplot");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("box.tsv");
        write_boxplots(
            &path,
            &[
                (
                    "full".to_owned(),
                    BoxplotSummary::from_unsorted(vec![1.0, 2.0, 3.0]),
                ),
                ("empty".to_owned(), None),
            ],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 3);
        assert!(content.contains("empty\t-"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
