//! Property-based tests: the single-pass analyzer against brute-force
//! reference implementations on arbitrary small traces.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use cbs_analysis::{analyze_trace, AnalysisConfig, VolumeAnalyzer};
use cbs_trace::{BlockSize, IoRequest, OpKind, RequestBatch, Timestamp, Trace, VolumeId};

fn arb_op() -> impl Strategy<Value = OpKind> {
    prop_oneof![Just(OpKind::Read), Just(OpKind::Write)]
}

prop_compose! {
    /// Requests confined to a small space so blocks collide often.
    fn arb_request()(
        volume in 0u32..4,
        op in arb_op(),
        block in 0u64..40,
        len_blocks in 1u32..4,
        ts in 0u64..(1 << 34),
    ) -> IoRequest {
        IoRequest::new(
            VolumeId::new(volume),
            op,
            block * 4096,
            len_blocks * 4096,
            Timestamp::from_micros(ts),
        )
    }
}

/// Brute-force per-volume reference computed straight from the
/// definition.
struct Reference {
    reads: u64,
    writes: u64,
    read_blocks: HashSet<u64>,
    write_blocks: HashSet<u64>,
    update_blocks: HashSet<u64>,
    all_blocks: HashSet<u64>,
    pair_counts: [u64; 4], // raw, waw, rar, war
    update_intervals: u64,
}

fn reference(requests: &[IoRequest]) -> Reference {
    let bs = BlockSize::DEFAULT;
    let mut r = Reference {
        reads: 0,
        writes: 0,
        read_blocks: HashSet::new(),
        write_blocks: HashSet::new(),
        update_blocks: HashSet::new(),
        all_blocks: HashSet::new(),
        pair_counts: [0; 4],
        update_intervals: 0,
    };
    let mut last_op: HashMap<u64, OpKind> = HashMap::new();
    let mut write_counts: HashMap<u64, u64> = HashMap::new();
    for req in requests {
        match req.op() {
            OpKind::Read => r.reads += 1,
            OpKind::Write => r.writes += 1,
        }
        for block in bs.span_of(req) {
            let b = block.get();
            r.all_blocks.insert(b);
            if let Some(prev) = last_op.get(&b) {
                let idx = match (prev, req.op()) {
                    (OpKind::Write, OpKind::Read) => 0,
                    (OpKind::Write, OpKind::Write) => 1,
                    (OpKind::Read, OpKind::Read) => 2,
                    (OpKind::Read, OpKind::Write) => 3,
                };
                r.pair_counts[idx] += 1;
            }
            last_op.insert(b, req.op());
            match req.op() {
                OpKind::Read => {
                    r.read_blocks.insert(b);
                }
                OpKind::Write => {
                    r.write_blocks.insert(b);
                    let count = write_counts.entry(b).or_insert(0);
                    *count += 1;
                    if *count >= 2 {
                        r.update_blocks.insert(b);
                        r.update_intervals += 1;
                    }
                }
            }
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every per-volume metric with an exact reference matches it.
    #[test]
    fn analyzer_matches_brute_force(reqs in proptest::collection::vec(arb_request(), 1..300)) {
        let trace = Trace::from_requests(reqs);
        let config = AnalysisConfig::default();
        let metrics = analyze_trace(&trace, &config, 0).expect("valid config");
        for m in &metrics {
            let volume_reqs = trace.volume(m.id).unwrap().requests();
            let r = reference(volume_reqs);
            prop_assert_eq!(m.reads, r.reads);
            prop_assert_eq!(m.writes, r.writes);
            prop_assert_eq!(m.wss_blocks, r.all_blocks.len() as u64);
            prop_assert_eq!(m.wss_read_blocks, r.read_blocks.len() as u64);
            prop_assert_eq!(m.wss_write_blocks, r.write_blocks.len() as u64);
            prop_assert_eq!(m.wss_update_blocks, r.update_blocks.len() as u64);
            prop_assert_eq!(m.raw_hist.total(), r.pair_counts[0]);
            prop_assert_eq!(m.waw_hist.total(), r.pair_counts[1]);
            prop_assert_eq!(m.rar_hist.total(), r.pair_counts[2]);
            prop_assert_eq!(m.war_hist.total(), r.pair_counts[3]);
            prop_assert_eq!(m.update_interval_hist.total(), r.update_intervals);
        }
    }

    /// Structural invariants that must hold for any input.
    #[test]
    fn analyzer_invariants(reqs in proptest::collection::vec(arb_request(), 1..300)) {
        let trace = Trace::from_requests(reqs);
        let config = AnalysisConfig::default();
        for m in analyze_trace(&trace, &config, 0).expect("valid config") {
            prop_assert!(m.wss_update_blocks <= m.wss_write_blocks);
            prop_assert!(m.wss_read_blocks.max(m.wss_write_blocks) <= m.wss_blocks);
            prop_assert!(m.wss_read_blocks + m.wss_write_blocks >= m.wss_blocks);
            prop_assert!(m.updated_bytes <= m.write_bytes);
            prop_assert!(m.random_requests <= m.requests());
            prop_assert!(m.peak_interval_requests <= m.requests());
            prop_assert!(m.peak_interval_requests >= 1);
            prop_assert!(m.first_ts <= m.last_ts);
            prop_assert_eq!(m.interarrival_hist.total(), m.requests() - 1);
            prop_assert_eq!(
                m.read_size_hist.total() + m.write_size_hist.total(),
                m.requests()
            );
            // adjacency pairs + cold blocks = block accesses
            let pairs = m.raw_hist.total() + m.waw_hist.total()
                + m.rar_hist.total() + m.war_hist.total();
            let accesses = m.read_mrc.total_accesses() + m.write_mrc.total_accesses();
            prop_assert_eq!(pairs + m.wss_blocks, accesses);
            // read/write-mostly traffic is bounded by the op traffic
            prop_assert!(m.read_bytes_to_read_mostly <= m.read_bytes);
            prop_assert!(m.write_bytes_to_write_mostly <= m.write_bytes);
            // activeness lists are sorted unique
            prop_assert!(m.active_intervals.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(m.active_days.windows(2).all(|w| w[0] < w[1]));
            // miss ratios are probabilities and monotone in cache size
            for frac in [0.01, 0.1, 1.0] {
                if let Some(r) = m.read_miss_ratio(frac) {
                    prop_assert!((0.0..=1.0).contains(&r));
                }
            }
            if let (Some(small), Some(large)) =
                (m.write_miss_ratio(0.01), m.write_miss_ratio(0.10))
            {
                prop_assert!(large <= small + 1e-12);
            }
        }
    }

    /// Metrics do not depend on how a volume's stream is cut into
    /// `observe_batch` runs: arbitrary splits equal one whole-stream
    /// `analyze_volume`.
    #[test]
    fn observe_batch_is_split_invariant(
        reqs in proptest::collection::vec(arb_request(), 1..300),
        split_seed in 0u64..10_000,
    ) {
        // One volume, time-sorted: the analyzer's input contract.
        let volume = VolumeId::new(0);
        let reqs: Vec<IoRequest> = reqs
            .iter()
            .map(|r| IoRequest::new(volume, r.op(), r.offset(), r.len(), r.ts()))
            .collect();
        let trace = Trace::from_requests(reqs);
        let view = trace.volume(volume).expect("one volume");
        let epoch = view.requests()[0].ts();
        let config = AnalysisConfig::default();
        let whole = VolumeAnalyzer::analyze_volume(view, epoch, &config).expect("valid config");

        let mut split = VolumeAnalyzer::new(volume, epoch, config).expect("valid config");
        let batch = RequestBatch::from(view.requests());
        let mut cuts = vec![
            split_seed as usize % (batch.len() + 1),
            (split_seed / 100) as usize % (batch.len() + 1),
        ];
        cuts.extend([0, batch.len()]);
        cuts.sort_unstable();
        for pair in cuts.windows(2) {
            split.observe_batch(&batch, pair[0]..pair[1]);
        }

        prop_assert_eq!(split.finish(), whole);
    }

    /// Analysis is invariant under input order (the trace sorts by
    /// timestamp; only metrics independent of equal-timestamp tie
    /// order are compared).
    #[test]
    fn order_invariance(mut reqs in proptest::collection::vec(arb_request(), 1..150)) {
        let config = AnalysisConfig::default();
        let a = analyze_trace(&Trace::from_requests(reqs.clone()), &config, 0).expect("valid config");
        reqs.reverse();
        let b = analyze_trace(&Trace::from_requests(reqs), &config, 0).expect("valid config");
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.reads, y.reads);
            prop_assert_eq!(x.writes, y.writes);
            prop_assert_eq!(x.wss_blocks, y.wss_blocks);
            prop_assert_eq!(x.wss_update_blocks, y.wss_update_blocks);
            prop_assert_eq!(x.peak_interval_requests, y.peak_interval_requests);
            prop_assert_eq!(x.active_intervals.clone(), y.active_intervals.clone());
        }
    }
}
