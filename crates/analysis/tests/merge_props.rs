//! Property tests for the MERGEABLE analysis algebra.
//!
//! The agent/controller fan-out folds per-partition analysis results
//! with `merge`; these tests pin the monoid laws — associativity,
//! commutativity, identity — for [`VolumeMetrics`] and
//! [`WindowedAnalysis`], plus the block-range partition homomorphism of
//! windowed analysis and the by-volume exactness of `analyze_trace`.
//! They are the associativity evidence `cbs-lint`'s `mergeable-audit`
//! rule (CBS-L13) requires.

#![allow(clippy::expect_used, reason = "test helpers fail the test")]

use proptest::prelude::*;

use cbs_analysis::{
    analyze_trace, AnalysisConfig, VolumeAnalyzer, VolumeMetrics, WindowedAnalysis,
};
use cbs_trace::{IoRequest, OpKind, RequestBatch, TimeDelta, Timestamp, Trace, VolumeId};

prop_compose! {
    /// One single-volume request over a small block space; single-block
    /// spans so block-parity partitions stay disjoint.
    fn arb_request()(
        op_bit in 0u8..2,
        block in 0u64..48,
        ts in 0u64..(1 << 32),
    ) -> IoRequest {
        IoRequest::new(
            VolumeId::new(0),
            if op_bit == 0 { OpKind::Read } else { OpKind::Write },
            block * 4096,
            4096,
            Timestamp::from_micros(ts),
        )
    }
}

/// Time-sorts `reqs` in place (the analyzer's input contract).
fn sorted(mut reqs: Vec<IoRequest>) -> Vec<IoRequest> {
    cbs_trace::iter::sort_by_time(&mut reqs);
    reqs
}

/// Runs a fresh analyzer over one already-sorted partition stream.
fn metrics(reqs: &[IoRequest]) -> VolumeMetrics {
    let mut a = VolumeAnalyzer::new(VolumeId::new(0), Timestamp::ZERO, AnalysisConfig::default())
        .expect("valid config");
    a.observe_batch(&RequestBatch::from(reqs), 0..reqs.len());
    a.finish()
}

/// Compares metrics records exactly except for the floating-point
/// top-share pairs, which the record-level weighted-mean merge only
/// preserves up to rounding across groupings.
fn metrics_close(a: &VolumeMetrics, b: &VolumeMetrics) -> bool {
    let shares_close = |x: Option<(f64, f64)>, y: Option<(f64, f64)>| match (x, y) {
        (None, None) => true,
        (Some((x1, x10)), Some((y1, y10))) => (x1 - y1).abs() < 1e-9 && (x10 - y10).abs() < 1e-9,
        _ => false,
    };
    if !shares_close(a.top_read_shares, b.top_read_shares)
        || !shares_close(a.top_write_shares, b.top_write_shares)
    {
        return false;
    }
    let strip = |m: &VolumeMetrics| {
        let mut m = m.clone();
        m.top_read_shares = None;
        m.top_write_shares = None;
        m
    };
    strip(a) == strip(b)
}

/// Windowed analysis of one partition stream against the shared epoch.
fn windowed(reqs: &[IoRequest]) -> WindowedAnalysis {
    let trace = Trace::from_requests(reqs.to_vec());
    let view = trace
        .volume(VolumeId::new(0))
        .unwrap_or_else(|| cbs_trace::VolumeView::new(VolumeId::new(0), &[]));
    WindowedAnalysis::analyze(
        view,
        Timestamp::ZERO,
        TimeDelta::from_secs(600),
        &AnalysisConfig::default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `VolumeMetrics::merge` is associative (floats up to rounding)
    /// and commutative, with an empty same-volume record as identity.
    #[test]
    fn volume_metrics_merge_is_associative(
        ra in proptest::collection::vec(arb_request(), 1..120),
        rb in proptest::collection::vec(arb_request(), 1..120),
        rc in proptest::collection::vec(arb_request(), 1..120),
    ) {
        let m = |reqs: Vec<IoRequest>| metrics(&sorted(reqs));
        let (a, b, c) = (m(ra), m(rb), m(rc));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut right_tail = b.clone();
        right_tail.merge(&c);
        let mut right = a.clone();
        right.merge(&right_tail);
        prop_assert!(metrics_close(&left, &right));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert!(metrics_close(&ab, &ba));

        let identity = metrics(&[]);
        let mut with_identity = a.clone();
        with_identity.merge(&identity);
        prop_assert_eq!(with_identity, a);
    }

    /// `WindowedAnalysis::merge` is associative, commutes, has the
    /// empty analysis as identity, and is an exact homomorphism for
    /// disjoint block-range partitions.
    #[test]
    fn windowed_analysis_merge_is_associative(
        ra in proptest::collection::vec(arb_request(), 0..120),
        rb in proptest::collection::vec(arb_request(), 0..120),
        rc in proptest::collection::vec(arb_request(), 0..120),
    ) {
        let (ra, rb, rc) = (sorted(ra), sorted(rb), sorted(rc));
        let (a, b, c) = (windowed(&ra), windowed(&rb), windowed(&rc));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut right_tail = b.clone();
        right_tail.merge(&c);
        let mut right = a.clone();
        right.merge(&right_tail);
        prop_assert_eq!(&left, &right);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut with_identity = a.clone();
        with_identity.merge(&windowed(&[]));
        prop_assert_eq!(&with_identity, &a);

        // Disjoint block-range partitions: merged == sequential.
        let whole = windowed(&ra);
        let even: Vec<IoRequest> = ra
            .iter()
            .filter(|r| (r.offset() / 4096) % 2 == 0)
            .copied()
            .collect();
        let odd: Vec<IoRequest> = ra
            .iter()
            .filter(|r| (r.offset() / 4096) % 2 == 1)
            .copied()
            .collect();
        let mut merged = windowed(&even);
        merged.merge(&windowed(&odd));
        prop_assert_eq!(&merged, &whole);
    }

    /// `analyze_trace` on a volume-partitioned corpus merges back to
    /// the sequential per-volume records verbatim — the exactness law
    /// the by-volume partitioner relies on (each volume is analyzed
    /// whole, so `merge` never mixes partial volumes).
    #[test]
    fn volume_metrics_by_volume_partition_is_exact(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..150),
    ) {
        // Three volumes interleaved in one corpus.
        let reqs: Vec<IoRequest> = seeds
            .iter()
            .map(|&s| {
                IoRequest::new(
                    VolumeId::new((s % 3) as u32),
                    if s & 8 == 0 { OpKind::Read } else { OpKind::Write },
                    ((s >> 4) % 64) * 4096,
                    4096,
                    Timestamp::from_micros((s >> 10) % (1 << 30)),
                )
            })
            .collect();
        let trace = Trace::from_requests(reqs.clone());
        let config = AnalysisConfig::default();
        let sequential = analyze_trace(&trace, &config).expect("valid config");

        // Partition by volume, preserving the corpus epoch.
        let epoch = trace.start().unwrap_or(Timestamp::ZERO);
        for m in &sequential {
            let view = trace.volume(m.id).expect("volume exists");
            let partial = VolumeAnalyzer::analyze_volume(view, epoch, &config)
                .expect("valid config");
            prop_assert_eq!(&partial, m);
        }
    }
}
