//! End-to-end integration: synthesize both corpora, run the full
//! characterization, and assert the *directional* findings of the paper
//! — the qualitative claims that must hold for any faithful
//! reproduction regardless of scale.

use cbs_core::prelude::*;
use cbs_core::Analysis;

fn alicloud_trace() -> Trace {
    let config = CorpusConfig::new(40, 4, 31).with_intensity_scale(0.003);
    cbs_synth::presets::alicloud_like(&config).generate()
}

fn analyze_alicloud() -> Analysis {
    Workbench::new(alicloud_trace()).analyze()
}

fn analyze_msrc() -> Analysis {
    let config = CorpusConfig::new(36, 4, 31).with_intensity_scale(0.01);
    let trace = cbs_synth::presets::msrc_like(&config).generate();
    Workbench::new(trace).analyze()
}

#[test]
fn directional_findings_hold() {
    let ali = analyze_alicloud();
    let msrc = analyze_msrc();

    // --- Fig. 4 / §III-C: AliCloud is write-dominant, MSRC is not ---
    let ali_wr = ali.write_read_ratios();
    let msrc_wr = msrc.write_read_ratios();
    assert!(
        ali_wr.fraction_write_dominant() > 0.80,
        "AliCloud write-dominant fraction {}",
        ali_wr.fraction_write_dominant()
    );
    assert!(
        msrc_wr.fraction_write_dominant() < 0.75,
        "MSRC write-dominant fraction {}",
        msrc_wr.fraction_write_dominant()
    );
    assert!(
        ali_wr.fraction_above(100.0) > 0.25,
        "AliCloud W:R > 100 volumes"
    );
    // corpus-level: AliCloud's aggregate skews to writes much harder
    // than MSRC's (the absolute MSRC ratio is seed-noisy at 36
    // volumes, so only the comparative claim is asserted tightly)
    let ali_ratio = ali.totals().write_read_ratio().unwrap();
    let msrc_ratio = msrc.totals().write_read_ratio().unwrap();
    assert!(ali_ratio > 1.5, "ali corpus W:R {ali_ratio}");
    assert!(msrc_ratio < 1.5, "msrc corpus W:R {msrc_ratio}");
    assert!(
        ali_ratio > 2.0 * msrc_ratio,
        "ali {ali_ratio} vs msrc {msrc_ratio}"
    );

    // --- Table I: AliCloud read WSS is a small share; MSRC read WSS
    //     is nearly everything ---
    let ali_read_wss = ali.totals().read_wss_fraction().unwrap();
    let msrc_read_wss = msrc.totals().read_wss_fraction().unwrap();
    assert!(ali_read_wss < 0.6, "AliCloud read WSS share {ali_read_wss}");
    assert!(
        msrc_read_wss > ali_read_wss,
        "enterprise read WSS share exceeds cloud's: {msrc_read_wss} vs {ali_read_wss}"
    );
    assert!(msrc_read_wss > 0.6, "MSRC read WSS share {msrc_read_wss}");
    assert!(ali.totals().write_wss_fraction().unwrap() > 0.7);
    assert!(msrc.totals().write_wss_fraction().unwrap() < 0.5);

    // --- Finding 8: AliCloud is more random than MSRC ---
    let ali_rand = ali.randomness();
    let msrc_rand = msrc.randomness();
    assert!(
        ali_rand.max().unwrap() > msrc_rand.max().unwrap(),
        "randomness: ali max {} vs msrc max {}",
        ali_rand.max().unwrap(),
        msrc_rand.max().unwrap()
    );
    assert!(
        msrc_rand.fraction_above(0.6) < 0.15,
        "MSRC mostly non-random"
    );

    // --- Finding 11: AliCloud update coverage far exceeds MSRC ---
    let ali_cov = ali.update_coverage().median().unwrap();
    let msrc_cov = msrc.update_coverage().median().unwrap();
    assert!(
        ali_cov > msrc_cov + 0.2,
        "coverage: ali {ali_cov} vs msrc {msrc_cov}"
    );

    // --- Finding 12: WAW dominates RAW in AliCloud; they are of the
    //     same order in MSRC ---
    use cbs_analysis::findings::adjacency::PairKind;
    let ali_adj = ali.adjacency();
    let msrc_adj = msrc.adjacency();
    assert!(
        ali_adj.waw_to_raw_ratio().unwrap() > 3.0,
        "AliCloud WAW:RAW {}",
        ali_adj.waw_to_raw_ratio().unwrap()
    );
    assert!(
        msrc_adj.waw_to_raw_ratio().unwrap() < ali_adj.waw_to_raw_ratio().unwrap(),
        "MSRC WAW:RAW below AliCloud's"
    );
    // AliCloud: rewrites come sooner than read-backs; in both corpora
    // a substantial share of rewrites happens within the hour (the
    // paper's "small WAW time" — asserted as a fraction because the
    // absolute medians stretch with intensity scaling)
    let ali_raw = ali_adj.median(PairKind::Raw).unwrap();
    let ali_waw = ali_adj.median(PairKind::Waw).unwrap();
    assert!(
        ali_waw < ali_raw,
        "WAW median {ali_waw} >= RAW median {ali_raw}"
    );
    for (name, adj) in [("ali", &ali_adj), ("msrc", &msrc_adj)] {
        let short = adj.fraction_within(PairKind::Waw, cbs_trace::TimeDelta::from_hours(1));
        assert!(short > 0.2, "{name}: only {short} of WAW times under 1h");
    }

    // --- Finding 15: bigger caches help, and help AliCloud more ---
    let ali_lru = ali.lru_miss_ratios();
    let msrc_lru = msrc.lru_miss_ratios();
    assert!(ali_lru.mean_read_reduction().unwrap() > 0.0);
    assert!(ali_lru.mean_write_reduction().unwrap() > 0.0);
    assert!(msrc_lru.mean_read_reduction().unwrap() > 0.0);

    // --- Findings 5-7: writes drive activeness (the "Active" and
    //     "Write-active" curves nearly overlap in most intervals) ---
    for (name, analysis) in [("ali", &ali), ("msrc", &msrc)] {
        let series = analysis.activeness_series();
        let busy: Vec<(u32, u32)> = series
            .active
            .iter()
            .zip(&series.write_active)
            .filter(|(a, _)| **a > 0)
            .map(|(a, w)| (*a, *w))
            .collect();
        let close = busy.iter().filter(|(a, w)| w * 2 >= *a).count();
        assert!(
            close * 10 >= busy.len() * 8,
            "{name}: write-active >= half of active in only {close}/{} intervals",
            busy.len()
        );
    }
}

#[test]
fn scaling_invariance_of_ratio_metrics() {
    // Ratio-type metrics should be stable under intensity scaling: run
    // the same corpus shape at two scales and compare.
    let small = CorpusConfig::new(20, 3, 5).with_intensity_scale(0.002);
    let large = CorpusConfig::new(20, 3, 5).with_intensity_scale(0.004);
    let a = Workbench::new(cbs_synth::presets::alicloud_like(&small).generate()).analyze();
    let b = Workbench::new(cbs_synth::presets::alicloud_like(&large).generate()).analyze();

    let wd_a = a.write_read_ratios().fraction_write_dominant();
    let wd_b = b.write_read_ratios().fraction_write_dominant();
    assert!(
        (wd_a - wd_b).abs() < 0.15,
        "write dominance: {wd_a} vs {wd_b}"
    );

    let cov_a = a.update_coverage().median().unwrap();
    let cov_b = b.update_coverage().median().unwrap();
    assert!((cov_a - cov_b).abs() < 0.25, "coverage: {cov_a} vs {cov_b}");
}

#[test]
fn determinism_across_full_pipeline() {
    let run = || {
        let config = CorpusConfig::new(10, 2, 31).with_intensity_scale(0.002);
        let trace = cbs_synth::presets::alicloud_like(&config).generate();
        let analysis = Workbench::new(trace).analyze_with_threads(2);
        let t = analysis.totals();
        (
            t.reads,
            t.writes,
            t.total_wss_bytes,
            t.updated_bytes,
            analysis.metrics().len(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn analysis_internal_consistency() {
    let trace = alicloud_trace();
    let request_count = trace.request_count();
    let analysis = Workbench::new(trace).analyze();
    let totals = analysis.totals();
    let mut reads = 0;
    let mut writes = 0;
    for m in analysis.metrics() {
        reads += m.reads;
        writes += m.writes;
        // WSS component inequalities
        assert!(m.wss_update_blocks <= m.wss_write_blocks);
        assert!(m.wss_read_blocks <= m.wss_blocks);
        assert!(m.wss_write_blocks <= m.wss_blocks);
        assert!(m.wss_read_blocks + m.wss_write_blocks >= m.wss_blocks);
        // updated bytes cannot exceed written bytes
        assert!(m.updated_bytes <= m.write_bytes);
        // adjacency pair total = block accesses − cold blocks
        let pairs =
            m.raw_hist.total() + m.waw_hist.total() + m.rar_hist.total() + m.war_hist.total();
        let accesses = m.read_mrc.total_accesses() + m.write_mrc.total_accesses();
        assert_eq!(pairs, accesses - m.wss_blocks, "{}", m.id);
        // randomness ratio is a probability
        let r = m.randomness_ratio();
        assert!((0.0..=1.0).contains(&r));
    }
    assert_eq!(totals.reads, reads);
    assert_eq!(totals.writes, writes);
    assert_eq!(totals.requests() as usize, request_count);
}
