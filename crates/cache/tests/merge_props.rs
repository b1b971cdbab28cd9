//! Property tests for the MERGEABLE cache-simulation algebra.
//!
//! The corpus-parallel driver folds per-partition cache state with
//! `merge`; these tests pin the monoid laws — associativity,
//! commutativity, identity — and the partition homomorphism
//! `sweep(a ++ b) == merge(sweep(a), sweep(b))` for disjoint volumes,
//! for [`CacheStats`], [`MissRatioCurve`], and [`SweepReport`]. They
//! are the associativity evidence `cbs-lint`'s `mergeable-audit` rule
//! (CBS-L13) requires.

#![allow(clippy::expect_used, reason = "test helpers fail the test")]

use proptest::prelude::*;

use cbs_cache::{CacheStats, MissRatioCurve, SweepGrid, SweepReport};
use cbs_trace::{IoRequest, OpKind, Timestamp, VolumeId};

prop_compose! {
    /// Access/hit tallies with hits never exceeding accesses.
    fn arb_stats()(
        ra in 0u64..1_000_000,
        rh_frac in 0u64..=100,
        wa in 0u64..1_000_000,
        wh_frac in 0u64..=100,
    ) -> CacheStats {
        CacheStats::from_counts(ra, ra * rh_frac / 100, wa, wa * wh_frac / 100)
    }
}

prop_compose! {
    /// A reuse-distance histogram plus cold misses.
    fn arb_mrc()(
        hist in proptest::collection::vec(0u64..1_000, 0..20),
        cold in 0u64..1_000,
    ) -> MissRatioCurve {
        MissRatioCurve::from_histogram(hist, cold)
    }
}

/// A small per-volume request stream with some block reuse.
fn stream(volume: u32, n: u64, blocks: u64) -> Vec<IoRequest> {
    (0..n)
        .map(|i| {
            IoRequest::new(
                VolumeId::new(volume),
                if i % 3 == 0 {
                    OpKind::Read
                } else {
                    OpKind::Write
                },
                ((i * 7 + i * i * 3) % blocks) * 4096,
                (i % 3) as u32 * 4096 + 2048,
                Timestamp::from_micros(i),
            )
        })
        .collect()
}

fn sweep(reqs: &[IoRequest]) -> SweepReport {
    SweepGrid::new()
        .with_workers(0)
        .grid(&["lru", "fifo"], &[16, 64])
        .expect("valid grid")
        .sweep(reqs.iter().copied())
}

/// Everything but the wall-clock timing fields, for comparing reports.
fn untimed(report: &SweepReport) -> Vec<(String, usize, bool, CacheStats, u64)> {
    report
        .lanes()
        .iter()
        .map(|l| (l.policy.clone(), l.capacity, l.sampled, l.stats, l.accesses))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `CacheStats::merge` is associative, commutes, and has zeroed
    /// stats as identity.
    #[test]
    fn cache_stats_merge_is_associative(
        a in arb_stats(),
        b in arb_stats(),
        c in arb_stats(),
    ) {
        let mut left = a;
        left.merge(&b);
        left.merge(&c);

        let mut right_tail = b;
        right_tail.merge(&c);
        let mut right = a;
        right.merge(&right_tail);
        prop_assert_eq!(left, right);

        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);

        let mut with_identity = a;
        with_identity.merge(&CacheStats::new());
        prop_assert_eq!(with_identity, a);
    }

    /// `MissRatioCurve::merge` is associative, commutes, has the empty
    /// curve as identity, and equals building one curve from the
    /// summed reuse-distance histograms.
    #[test]
    fn miss_ratio_curve_merge_is_associative(
        a in arb_mrc(),
        b in arb_mrc(),
        c in arb_mrc(),
        hist_a in proptest::collection::vec(0u64..1_000, 0..20),
        hist_b in proptest::collection::vec(0u64..1_000, 0..20),
        cold_a in 0u64..1_000,
        cold_b in 0u64..1_000,
    ) {
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
        with_identity.merge(&MissRatioCurve::from_histogram(Vec::new(), 0));
        prop_assert_eq!(with_identity.total_accesses(), a.total_accesses());
        for cap in 0..30usize {
            prop_assert_eq!(with_identity.miss_ratio_at(cap).to_bits(), a.miss_ratio_at(cap).to_bits());
        }

        // Homomorphism: merge of curves == curve of summed histograms.
        let mut merged = MissRatioCurve::from_histogram(hist_a.clone(), cold_a);
        merged.merge(&MissRatioCurve::from_histogram(hist_b.clone(), cold_b));
        let mut summed = vec![0u64; hist_a.len().max(hist_b.len())];
        for (i, &v) in hist_a.iter().enumerate() {
            summed[i] += v;
        }
        for (i, &v) in hist_b.iter().enumerate() {
            summed[i] += v;
        }
        let direct = MissRatioCurve::from_histogram(summed, cold_a + cold_b);
        prop_assert_eq!(merged.total_accesses(), direct.total_accesses());
        for cap in 0..25usize {
            prop_assert_eq!(merged.miss_ratio_at(cap).to_bits(), direct.miss_ratio_at(cap).to_bits(), "cap={}", cap);
        }
    }

    /// `SweepReport::merge` over disjoint volumes is associative and
    /// equals sweeping each volume separately — the partition-by-volume
    /// law the corpus-parallel driver relies on.
    #[test]
    fn sweep_report_merge_is_associative(
        na in 1u64..400,
        nb in 1u64..400,
        nc in 1u64..400,
        blocks in 10u64..200,
    ) {
        let (sa, sb, sc) = (
            stream(1, na, blocks),
            stream(2, nb, blocks),
            stream(3, nc, blocks),
        );

        let mut left = sweep(&sa);
        left.merge(&sweep(&sb));
        left.merge(&sweep(&sc));

        let mut right_tail = sweep(&sb);
        right_tail.merge(&sweep(&sc));
        let mut right = sweep(&sa);
        right.merge(&right_tail);
        prop_assert_eq!(untimed(&left), untimed(&right));
        prop_assert_eq!(left.requests(), right.requests());
        prop_assert_eq!(left.accesses(), right.accesses());

        let mut ab = sweep(&sa);
        ab.merge(&sweep(&sb));
        let mut ba = sweep(&sb);
        ba.merge(&sweep(&sa));
        prop_assert_eq!(ab.requests(), ba.requests());
        for (l, r) in ab.lanes().iter().zip(ba.lanes()) {
            prop_assert_eq!(&l.stats, &r.stats, "{}@{}", &l.policy, l.capacity);
        }

        // Identity: merging an empty-stream sweep changes nothing.
        let mut with_identity = sweep(&sa);
        let solo = sweep(&sa);
        with_identity.merge(&sweep(&[]));
        prop_assert_eq!(untimed(&with_identity), untimed(&solo));

        // The merged MRC answers like the per-volume curves combined.
        let (ml, mr) = (left.lru_mrc(), right.lru_mrc());
        match (ml, mr) {
            (Some(l), Some(r)) => {
                prop_assert_eq!(l.total_accesses(), r.total_accesses());
                for cap in [0usize, 1, 16, 64, 100_000] {
                    prop_assert_eq!(l.miss_ratio_at(cap).to_bits(), r.miss_ratio_at(cap).to_bits());
                }
            }
            (None, None) => {}
            other => prop_assert!(false, "MRC presence differs: {:?}", other.0.is_some()),
        }
    }

    /// Round-trip: `from_parts(into_parts(r))` preserves every
    /// observable of a sweep report.
    #[test]
    fn sweep_report_parts_roundtrip(n in 1u64..300, blocks in 10u64..100) {
        let report = sweep(&stream(7, n, blocks));
        let rebuilt = SweepReport::from_parts(report.clone().into_parts());
        prop_assert_eq!(untimed(&report), untimed(&rebuilt));
        prop_assert_eq!(report.requests(), rebuilt.requests());
        prop_assert_eq!(report.accesses(), rebuilt.accesses());
        prop_assert_eq!(report.sampled_accesses(), rebuilt.sampled_accesses());
        prop_assert_eq!(report.expand_nanos(), rebuilt.expand_nanos());
        prop_assert_eq!(
            report.lru_mrc().map(|m| m.cumulative_hits().to_vec()),
            rebuilt.lru_mrc().map(|m| m.cumulative_hits().to_vec())
        );
    }
}
