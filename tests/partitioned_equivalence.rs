//! Partitioned ≡ sequential: [`Workbench::analyze_with_threads`], which
//! partitions the corpus by volume across its workers, must reproduce
//! the inline (`threads = 0`) run bit-for-bit at any worker count —
//! every per-volume record *and* every finding verdict — and a worker
//! panic must poison the whole run instead of yielding a partial
//! corpus (parity with `StreamingSession`). Also pins the by-volume
//! fold: whole-volume records computed separately and concatenated
//! build the same analysis as the whole-corpus run.

use proptest::prelude::*;

use cbs_core::prelude::*;

prop_compose! {
    /// One request over a small multi-volume corpus.
    fn arb_request()(
        vol in 0u32..5,
        op_bit in 0u8..2,
        block in 0u64..64,
        len_blocks in 1u32..4,
        ts in 0u64..(1 << 34),
    ) -> IoRequest {
        IoRequest::new(
            VolumeId::new(vol),
            if op_bit == 0 { OpKind::Read } else { OpKind::Write },
            block * 4096,
            len_blocks * 4096,
            Timestamp::from_micros(ts),
        )
    }
}

fn trace_from(mut reqs: Vec<IoRequest>) -> Trace {
    cbs_trace::iter::sort_by_time(&mut reqs);
    Trace::from_requests(reqs)
}

/// Every finding verdict of an analysis, as one deterministic string.
/// Two analyses with equal verdict dumps answer all 15 paper findings
/// identically.
fn verdicts(analysis: &cbs_core::Analysis) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        analysis.totals(),
        analysis.request_sizes(),
        analysis.mean_sizes(),
        analysis.active_days(),
        analysis.write_read_ratios(),
        analysis.overall_intensity(),
        analysis.burstiness(),
        analysis.interarrival_boxplots(),
        analysis.active_periods(),
        analysis.randomness(),
        analysis.aggregation(),
        analysis.rw_mostly(),
        analysis.update_coverage(),
        analysis.adjacency(),
        analysis.update_intervals(),
        analysis.lru_miss_ratios(),
        analysis.assessments(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any worker count reproduces the inline fallback exactly:
    /// identical metric records and identical finding verdicts.
    #[test]
    fn partitioned_matches_inline_at_any_worker_count(
        reqs in proptest::collection::vec(arb_request(), 1..400),
    ) {
        let trace = trace_from(reqs);
        let inline = Workbench::new(trace.clone()).analyze_with_threads(0);
        for workers in [1usize, 2, 4, 8] {
            let parallel = Workbench::new(trace.clone()).analyze_with_threads(workers);
            prop_assert_eq!(parallel.metrics(), inline.metrics(), "workers={}", workers);
            prop_assert_eq!(verdicts(&parallel), verdicts(&inline), "workers={}", workers);
        }
    }

    /// The inline run itself equals the one-worker run, closing the
    /// chain: one worker == inline == any worker count.
    #[test]
    fn inline_fallback_matches_sequential_workbench(
        reqs in proptest::collection::vec(arb_request(), 1..400),
    ) {
        let trace = trace_from(reqs);
        let sequential = Workbench::new(trace.clone()).analyze_with_threads(1);
        let inline = Workbench::new(trace).analyze_with_threads(0);
        prop_assert_eq!(inline.metrics(), sequential.metrics());
        prop_assert_eq!(verdicts(&inline), verdicts(&sequential));
    }

    /// The by-volume fold: deal the volumes round-robin over `k`
    /// partitions, analyze each volume whole under the corpus epoch (so
    /// interval indices align), concatenate the records in partition
    /// order and build with `Analysis::from_parts`. Metrics and every
    /// verdict equal the whole-corpus run.
    #[test]
    fn by_volume_fold_matches_whole_corpus(
        reqs in proptest::collection::vec(arb_request(), 1..300),
    ) {
        let trace = trace_from(reqs);
        let whole = Workbench::new(trace.clone()).analyze_with_threads(0);
        let epoch = trace.start().unwrap_or(Timestamp::ZERO);
        let config = AnalysisConfig::default();
        for parts in 1..=3usize {
            let mut shares: Vec<Vec<VolumeMetrics>> = vec![Vec::new(); parts];
            for (i, view) in trace.volumes().enumerate() {
                let metrics = cbs_analysis::VolumeAnalyzer::analyze_volume(view, epoch, &config)
                    .expect("valid config");
                shares[i % parts].push(metrics);
            }
            let records: Vec<VolumeMetrics> = shares.into_iter().flatten().collect();
            let folded = cbs_core::Analysis::from_parts(trace.clone(), config.clone(), records)
                .expect("valid config");
            prop_assert_eq!(folded.metrics(), whole.metrics(), "parts={}", parts);
            prop_assert_eq!(verdicts(&folded), verdicts(&whole), "parts={}", parts);
        }
    }
}

#[test]
fn scaling_curve_is_identical_on_synthetic_corpus() {
    // The bench-grade corpus: every workers value of the
    // `analyze-partitioned` scaling curve must report identical
    // verdicts (this is the property the BENCH_ingest.json phase
    // asserts at the full corpus scale).
    let config = CorpusConfig::new(16, 2, 23).with_intensity_scale(0.002);
    let trace = cbs_synth::presets::alicloud_like(&config).generate();
    let baseline = Workbench::new(trace.clone()).analyze_with_threads(1);
    for workers in [2usize, 4, 8] {
        let run = Workbench::new(trace.clone()).analyze_with_threads(workers);
        assert_eq!(run.metrics(), baseline.metrics(), "workers={workers}");
        assert_eq!(verdicts(&run), verdicts(&baseline), "workers={workers}");
    }
}

/// A worker panic must resurface on the caller — never a partial
/// `Analysis`. The trigger is a randomness window too large to
/// allocate, which panics with a capacity overflow where each worker
/// builds its first `VolumeAnalyzer`. (The trigger used to be an
/// `offset + len` overflow in the analyzer's block walk; such requests
/// are now clamped at the end of the address space, and no request of
/// a time-sorted `Trace` panics the analyzer.)
#[test]
fn worker_panic_poisons_the_partitioned_run() {
    let reqs: Vec<IoRequest> = (0..200u64)
        .map(|i| {
            IoRequest::new(
                VolumeId::new((i % 4) as u32),
                OpKind::Write,
                (i % 16) * 4096,
                4096,
                Timestamp::from_secs(i),
            )
        })
        .collect();
    let trace = Trace::from_requests(reqs);
    let config = AnalysisConfig {
        randomness_window: usize::MAX,
        ..AnalysisConfig::default()
    };
    for workers in [0usize, 1, 3] {
        let trace = trace.clone();
        let config = config.clone();
        let result = std::panic::catch_unwind(move || {
            Workbench::with_config(trace, config)
                .expect("the window only has to be non-zero")
                .analyze_with_threads(workers)
        });
        assert!(
            result.is_err(),
            "workers={workers} returned a partial analysis"
        );
    }
}
