//! Partitioned ≡ sequential: [`Workbench::analyze_with_threads`], which
//! partitions the corpus by volume across its workers, must reproduce
//! the inline (`threads = 0`) run bit-for-bit at any worker count —
//! every per-volume record *and* every finding verdict — and a worker
//! panic must poison the whole run instead of yielding a partial
//! corpus (parity with `StreamingSession`). Also pins the
//! [`Analysis::merge`] monoid laws the `cbs-ctl` fold relies on
//! (associativity evidence for `cbs-lint`'s CBS-L13 `mergeable-audit`).

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

    /// `Analysis::merge` is associative and commutative on disjoint
    /// volume partitions, with an empty analysis as identity — the law
    /// the `cbs-ctl` cross-process fold depends on.
    #[test]
    fn analysis_merge_is_associative(
        reqs in proptest::collection::vec(arb_request(), 3..300),
    ) {
        let trace = trace_from(reqs);
        // Partition the corpus by volume id residue into three
        // disjoint sub-corpora.
        let part = |r: u32| {
            trace_from(
                trace
                    .requests()
                    .iter()
                    .filter(|q| q.volume().get() % 3 == r)
                    .copied()
                    .collect(),
            )
        };
        let analyze = |t: &Trace| Workbench::new(t.clone()).analyze_with_threads(1);
        let (a, b, c) = (analyze(&part(0)), analyze(&part(1)), analyze(&part(2)));

        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        let mut right_tail = b.clone();
        right_tail.merge(c.clone());
        let mut right = a.clone();
        right.merge(right_tail);
        prop_assert_eq!(left.metrics(), right.metrics());
        prop_assert_eq!(verdicts(&left), verdicts(&right));

        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b.clone();
        ba.merge(a.clone());
        prop_assert_eq!(ab.metrics(), ba.metrics());

        let mut with_identity = a.clone();
        with_identity.merge(analyze(&Trace::new()));
        prop_assert_eq!(with_identity.metrics(), a.metrics());

        // The three-way fold equals the whole-corpus analysis when the
        // partials share the corpus epoch — the `cbs-ctl` contract
        // (the JOB frame ships the epoch so per-agent interval indices
        // align). Build each partition the way an agent does.
        let whole = analyze(&trace);
        let epoch = trace.start().unwrap_or(Timestamp::ZERO);
        let config = AnalysisConfig::default();
        let partial = |r: u32| {
            let sub = part(r);
            let metrics: Vec<VolumeMetrics> = sub
                .volumes()
                .map(|view| {
                    cbs_analysis::VolumeAnalyzer::analyze_volume(view, epoch, &config)
                        .expect("valid config")
                })
                .collect();
            cbs_core::Analysis::from_parts(sub, config.clone(), metrics).expect("valid config")
        };
        let mut folded = partial(0);
        folded.merge(partial(1));
        folded.merge(partial(2));
        prop_assert_eq!(folded.metrics(), whole.metrics());
        prop_assert_eq!(verdicts(&folded), verdicts(&whole));
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
