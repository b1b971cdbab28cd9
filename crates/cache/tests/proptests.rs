//! Property-based tests for the cache substrate.

#![allow(clippy::expect_used, reason = "test helpers fail the test")]

use proptest::prelude::*;

use cbs_cache::{
    policy_by_name, Arc, BlockNo, BlockNumbering, BlockStack, CachePolicy, CacheSim, Clock, Fifo,
    Lfu, Lru, MissRatioCurve, ReuseDistances, ShardsSampler, Slru, SweepGrid, TwoQ, POLICY_NAMES,
};
use cbs_trace::{BlockId, BlockSize, IoRequest, OpKind, Timestamp, VolumeId};

mod oracle;

fn arb_stream() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..48, 1..400)
}

/// Arbitrary request traces for the sweep engine: offsets spanning a
/// small block range (with unaligned straddlers), mixed lengths
/// (including zero-length no-ops), mixed read/write ops, and
/// occasionally empty traces.
fn arb_requests() -> impl Strategy<Value = Vec<IoRequest>> {
    proptest::strategy::FnStrategy(|rng: &mut proptest::test_runner::TestRng| {
        let len = rng.below(300) as usize;
        (0..len)
            .map(|i| {
                IoRequest::new(
                    VolumeId::new(0),
                    if rng.below(2) == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    rng.below(40 * 4096),
                    rng.below(3 * 4096) as u32,
                    Timestamp::from_micros(i as u64),
                )
            })
            .collect()
    })
}

/// Arbitrary request-shaped access sequences for the `ReuseStack` run
/// API: each entry is a span of distinct blocks plus one block to touch
/// singly afterwards.
///
/// A cold preamble first fills the stack to just below a 64-position
/// word edge or an 8/64/512/4096-word counter-group edge, so the spans
/// after it clear and append across that edge. Later spans are fresh
/// ranges (arbitrarily warm or cold) or revisit an earlier span
/// exactly, partially, reversed, or with never-seen blocks spliced in
/// as cold holes; lengths up to 200 cross word edges on their own. The
/// follow-up of a partial revisit is the block just past the slice —
/// the touch that takes the consecutive-position fast path.
fn arb_spans() -> impl Strategy<Value = Vec<(Vec<u64>, u64)>> {
    use proptest::test_runner::TestRng;
    fn pick<'a>(rng: &mut TestRng, history: &'a [Vec<u64>]) -> &'a Vec<u64> {
        &history[rng.below(history.len() as u64) as usize]
    }
    proptest::strategy::FnStrategy(|rng: &mut TestRng| {
        let edge = [0u64, 64, 512, 4096, 32_768, 262_144][rng.below(6) as usize];
        let preamble = edge.saturating_sub(rng.below(40));
        let mut spans: Vec<(Vec<u64>, u64)> = Vec::new();
        if preamble > 0 {
            spans.push(((0..preamble).collect(), preamble - 1));
        }
        let mut history: Vec<Vec<u64>> = Vec::new();
        let mut never_seen = 1u64 << 40;
        for _ in 0..1 + rng.below(80) {
            let kind = if history.is_empty() { 0 } else { rng.below(5) };
            let mut follow_up = None;
            let span: Vec<u64> = match kind {
                0 => {
                    let start = preamble.saturating_sub(150) + rng.below(300);
                    (start..start + 1 + rng.below(200)).collect()
                }
                1 => pick(rng, &history).clone(),
                2 => {
                    let whole = pick(rng, &history);
                    let a = rng.below(whole.len() as u64) as usize;
                    let b = a + 1 + rng.below((whole.len() - a) as u64) as usize;
                    follow_up = whole.get(b).copied();
                    whole[a..b].to_vec()
                }
                3 => pick(rng, &history).iter().rev().copied().collect(),
                _ => {
                    let mut holed = Vec::new();
                    for &block in pick(rng, &history) {
                        if rng.below(4) == 0 {
                            holed.push(never_seen);
                            never_seen += 1;
                        }
                        holed.push(block);
                    }
                    holed
                }
            };
            history.push(span.clone());
            let follow_up = follow_up.unwrap_or_else(|| {
                let from = pick(rng, &history);
                from[rng.below(from.len() as u64) as usize]
            });
            spans.push((span, follow_up));
        }
        spans
    })
}

/// A `ReuseStack` with the caller's half of the contract: the block →
/// latest-position map.
#[derive(Default)]
struct TrackedStack {
    stack: cbs_cache::ReuseStack,
    pos: std::collections::HashMap<u64, usize>,
}

impl TrackedStack {
    /// Touches `blocks` one by one; returns `(distance, new position)`
    /// per block, `u64::MAX` marking a first touch.
    fn touch_each(&mut self, blocks: &[u64]) -> Vec<(u64, usize)> {
        blocks
            .iter()
            .map(|&block| {
                let touched = match self.pos.get(&block) {
                    Some(&prev) => self.stack.touch(prev),
                    None => (u64::MAX, self.stack.touch_cold()),
                };
                self.pos.insert(block, touched.1);
                touched
            })
            .collect()
    }

    /// Touches `blocks` as maximal runs — of cold blocks, or of warm
    /// blocks with consecutive previous positions — the way the volume
    /// analyzer drives the stack.
    fn touch_by_runs(&mut self, blocks: &[u64]) -> Vec<(u64, usize)> {
        let prevs: Vec<Option<usize>> = blocks.iter().map(|b| self.pos.get(b).copied()).collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < prevs.len() {
            let mut k = 1;
            let (distance, first) = match prevs[i] {
                None => {
                    while prevs.get(i + k) == Some(&None) {
                        k += 1;
                    }
                    (u64::MAX, self.stack.touch_cold_run(k))
                }
                Some(p) => {
                    while prevs.get(i + k) == Some(&Some(p + k)) {
                        k += 1;
                    }
                    self.stack.touch_run(p, k)
                }
            };
            out.extend((0..k).map(|j| (distance, first + j)));
            i += k;
        }
        for (&block, &(_, pos)) in blocks.iter().zip(&out) {
            self.pos.insert(block, pos);
        }
        out
    }

    fn compact(&mut self) {
        let table = self.stack.compaction_table();
        for p in self.pos.values_mut() {
            *p = table[*p] as usize;
        }
        self.stack.rebuild_compacted();
    }
}

/// `stream`'s blocks by their first-touch numbers, the keys policies
/// take.
fn numbered(stream: &[u64]) -> Vec<BlockNo> {
    let mut numbers = BlockNumbering::new();
    stream
        .iter()
        .map(|&x| numbers.number(BlockId::new(x)))
        .collect()
}

/// Replays `stream` through `cache`, asserting the universal policy
/// invariants at every step, and returns the number of hits.
fn replay<P: CachePolicy>(mut cache: P, stream: &[u64]) -> u64 {
    let mut resident = std::collections::HashSet::new();
    let mut hits = 0u64;
    for block in numbered(stream) {
        let was_resident = resident.contains(&block);
        let out = cache.access(block);
        assert_eq!(out.hit, was_resident);
        hits += u64::from(out.hit);
        if let Some(v) = out.evicted {
            assert!(resident.remove(&v));
        }
        resident.insert(block);
        assert!(cache.len() <= cache.capacity());
        assert_eq!(cache.len(), resident.len());
        assert!(cache.contains(block));
    }
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every policy upholds residency/eviction/capacity invariants on
    /// arbitrary streams.
    #[test]
    fn policies_uphold_invariants(stream in arb_stream(), cap in 1usize..32) {
        replay(Lru::new(cap), &stream);
        replay(Fifo::new(cap), &stream);
        replay(Lfu::new(cap), &stream);
        replay(Clock::new(cap), &stream);
        replay(Arc::new(cap), &stream);
        replay(Slru::new(cap), &stream);
        replay(TwoQ::new(cap), &stream);
    }

    /// Every policy kernel returns the same `AccessResult` — hit and
    /// victim — as its naive `Vec`-based reference at every access.
    /// The sweep/`CacheSim` equivalence tests share the kernels on both
    /// sides; this is the check that does not.
    #[test]
    fn policy_kernels_match_naive_oracle(stream in arb_stream(), cap in 1usize..32) {
        for &name in POLICY_NAMES {
            let mut kernel = policy_by_name(name, cap).expect("known policy");
            let mut naive = oracle::naive_by_name(name, cap).expect("oracle covers every policy");
            for (i, (&x, block)) in stream.iter().zip(numbered(&stream)).enumerate() {
                prop_assert_eq!(
                    kernel.access(block), naive.access(block),
                    "{}@{} diverges at access {} (block {})", name, cap, i, x
                );
                prop_assert_eq!(kernel.len(), naive.len(), "{}@{} len at access {}", name, cap, i);
            }
        }
    }

    /// LRU hit counts predicted by reuse distances match simulation
    /// exactly (the stack property).
    #[test]
    fn reuse_distances_predict_lru(stream in arb_stream(), cap in 1usize..32) {
        let mut rd = ReuseDistances::new();
        let mut predicted_hits = 0u64;
        for &x in &stream {
            if let Some(d) = rd.access(BlockId::new(x)) {
                if (d as usize) < cap {
                    predicted_hits += 1;
                }
            }
        }
        let actual_hits = replay(Lru::new(cap), &stream);
        prop_assert_eq!(predicted_hits, actual_hits);
        // and the MRC agrees at this capacity
        let mrc = rd.to_mrc();
        let expected_ratio = 1.0 - actual_hits as f64 / stream.len() as f64;
        prop_assert!((mrc.miss_ratio_at(cap) - expected_ratio).abs() < 1e-12);
    }

    /// The LRU inclusion property: a larger cache always hits at least
    /// as often as a smaller one on the same stream.
    #[test]
    fn lru_is_inclusion_monotone(stream in arb_stream(), small in 1usize..16, extra in 1usize..16) {
        let small_hits = replay(Lru::new(small), &stream);
        let large_hits = replay(Lru::new(small + extra), &stream);
        prop_assert!(large_hits >= small_hits);
    }

    /// Miss-ratio curves are monotone non-increasing in capacity.
    #[test]
    fn mrc_monotone(hist in proptest::collection::vec(0u64..50, 0..40), cold in 0u64..50) {
        let mrc = MissRatioCurve::from_histogram(hist, cold);
        let mut prev = f64::INFINITY;
        for c in 0..45 {
            let m = mrc.miss_ratio_at(c);
            prop_assert!(m <= prev + 1e-12);
            prev = m;
        }
    }

    /// SHARDS at rate 1.0 equals the exact curve everywhere.
    #[test]
    fn shards_full_rate_exact(stream in arb_stream()) {
        let mut exact = ReuseDistances::new();
        let mut shards = ShardsSampler::new(1.0);
        for &x in &stream {
            exact.access(BlockId::new(x));
            shards.access(BlockId::new(x));
        }
        let me = exact.to_mrc();
        let ms = shards.to_mrc();
        for c in 0..64 {
            prop_assert!((me.miss_ratio_at(c) - ms.miss_ratio_at(c)).abs() < 1e-12);
        }
    }

    /// Cold misses equal the number of distinct blocks; histogram totals
    /// account for every access.
    #[test]
    fn reuse_distance_accounting(stream in arb_stream()) {
        let mut rd = ReuseDistances::new();
        for &x in &stream {
            rd.access(BlockId::new(x));
        }
        let distinct = stream.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        prop_assert_eq!(rd.cold_misses(), distinct);
        let finite: u64 = rd.histogram().iter().sum();
        prop_assert_eq!(finite + rd.cold_misses(), rd.accesses());
        prop_assert_eq!(rd.accesses(), stream.len() as u64);
    }

    /// `ReuseStack::touch_run`/`touch_cold_run` are bit-identical to
    /// the equivalent sequence of `touch`/`touch_cold` calls: same
    /// distances, same assigned positions, same `live()`/`positions()`,
    /// and the same answer to the next single `touch` (so the
    /// `last_cleared`/`last_rank` fast-path seed matches sequential
    /// state) — across compactions, one of them forced mid-sequence.
    #[test]
    fn reuse_touch_run_equals_sequential(spans in arb_spans()) {
        let mut seq = TrackedStack::default();
        let mut run = TrackedStack::default();
        for (i, (span, follow_up)) in spans.iter().enumerate() {
            prop_assert_eq!(run.touch_by_runs(span), seq.touch_each(span));
            prop_assert_eq!(run.stack.live(), seq.stack.live());
            prop_assert_eq!(run.stack.positions(), seq.stack.positions());
            let follow_up = std::slice::from_ref(follow_up);
            prop_assert_eq!(run.touch_each(follow_up), seq.touch_each(follow_up));
            prop_assert_eq!(run.stack.should_compact(), seq.stack.should_compact());
            if run.stack.should_compact() || i == spans.len() / 2 {
                seq.compact();
                run.compact();
            }
        }
    }

    /// `BlockStack::touch_span` — chunk walk, pending run, run
    /// retirement — reports for every block the distance per-block
    /// `ReuseDistances::access` returns (so: identical histogram and
    /// cold count), and tracks the same `live()`; after a forced
    /// compaction, one of them mid-sequence, `positions()` agrees too.
    /// Spans that are not consecutive block ids (reversed, holed) enter
    /// as their maximal consecutive pieces.
    #[test]
    fn block_stack_spans_equal_per_block_access(spans in arb_spans()) {
        let mut by_span = BlockStack::new();
        let mut by_block = ReuseDistances::new();
        let mut tracked = TrackedStack::default();
        let mut got: Vec<Option<u64>> = Vec::new();
        let mut want: Vec<Option<u64>> = Vec::new();
        for (i, (span, follow_up)) in spans.iter().enumerate() {
            let blocks = || span.iter().chain(std::iter::once(follow_up)).copied();
            let mut rest: Vec<u64> = blocks().collect();
            while let Some(&first) = rest.first() {
                let n = (1..rest.len())
                    .find(|&k| rest[k] != first + k as u64)
                    .unwrap_or(rest.len());
                by_span.touch_span(BlockId::new(first), n as u64, |d, n| {
                    got.extend(std::iter::repeat(d).take(n));
                });
                rest.drain(..n);
            }
            // Two per-block references: `ReuseDistances` (the span of
            // one on the same store) and a bare `ReuseStack` under a
            // plain map, which shares nothing with `BlockStack`.
            for (block, (distance, _)) in blocks().zip(tracked.touch_each(&blocks().collect::<Vec<_>>())) {
                let distance = (distance != u64::MAX).then_some(distance);
                prop_assert_eq!(by_block.access(BlockId::new(block)), distance);
                want.push(distance);
            }
            if i == spans.len() / 2 || i + 1 == spans.len() {
                by_span.flush(|d, n| got.extend(std::iter::repeat(d).take(n)));
                prop_assert_eq!(&got, &want);
                by_span.compact();
                tracked.compact();
                prop_assert_eq!(by_span.live(), tracked.stack.live());
                prop_assert_eq!(by_span.positions(), tracked.stack.positions());
            }
            prop_assert_eq!(by_span.live(), tracked.stack.live());
        }
        let cold = got.iter().filter(|d| d.is_none()).count() as u64;
        prop_assert_eq!(cold, by_block.cold_misses());
        let mut hist = vec![0u64; by_block.histogram().len()];
        for d in got.iter().flatten() {
            hist[*d as usize] += 1;
        }
        prop_assert_eq!(hist.as_slice(), by_block.histogram());
    }

    /// Belady's OPT never loses to any online demand policy.
    #[test]
    fn opt_dominates_online_policies(stream in arb_stream(), cap in 1usize..24) {
        let accesses: Vec<BlockId> = stream.iter().map(|&x| BlockId::new(x)).collect();
        let opt = cbs_cache::simulate_opt(&accesses, cap);
        prop_assert_eq!(opt.accesses, stream.len() as u64);
        let lru_hits = replay(Lru::new(cap), &stream);
        let arc_hits = replay(Arc::new(cap), &stream);
        let twoq_hits = replay(TwoQ::new(cap), &stream);
        prop_assert!(opt.hits >= lru_hits, "OPT {} < LRU {lru_hits}", opt.hits);
        prop_assert!(opt.hits >= arc_hits, "OPT {} < ARC {arc_hits}", opt.hits);
        prop_assert!(opt.hits >= twoq_hits, "OPT {} < 2Q {twoq_hits}", opt.hits);
    }

    /// Sweep lane stats are bit-identical to a fresh per-(policy,
    /// capacity) `CacheSim` over the same trace — every policy, several
    /// capacities, arbitrary request shapes (unaligned, zero-length,
    /// empty traces), with and without worker threads.
    #[test]
    fn sweep_lanes_match_fresh_sims(
        reqs in arb_requests(),
        caps in proptest::collection::vec(1usize..80, 1..4),
        workers in 0usize..3,
    ) {
        let capacities: Vec<usize> = caps;
        let names: Vec<&str> = POLICY_NAMES.to_vec();
        let report = SweepGrid::new()
            .with_workers(workers)
            .with_batch_size(64)
            .grid(&names, &capacities)
            .expect("known names, non-zero capacities")
            .sweep(reqs.iter().copied());
        prop_assert_eq!(report.requests(), reqs.len() as u64);
        for &name in &names {
            for &cap in &capacities {
                let policy = policy_by_name(name, cap).expect("known policy");
                let mut sim = CacheSim::new(policy, BlockSize::DEFAULT);
                sim.run(&reqs);
                let got = report.stats(name, cap).expect("lane present");
                prop_assert_eq!(got, sim.stats(), "{}@{}", name, cap);
            }
        }
    }

    /// The sweep's collapsed-stack miss-ratio curve equals a fresh
    /// `CacheSim<Lru>` at EVERY capacity — grid points, off-grid
    /// points, and capacities past the histogram tail (where the curve
    /// flattens at the cold-miss ratio).
    #[test]
    fn sweep_mrc_matches_lru_sim_at_every_capacity(reqs in arb_requests()) {
        let report = SweepGrid::new()
            .with_workers(0)
            .lru_capacity(1)
            .expect("non-zero")
            .sweep(reqs.iter().copied());
        let mrc = report.lru_mrc().expect("stack lane ran");
        // 40 blocks of working set: capacity 100 is far past the tail.
        for cap in 1usize..100 {
            let mut sim = CacheSim::new(Lru::new(cap), BlockSize::DEFAULT);
            sim.run(&reqs);
            match sim.stats().overall_miss_ratio() {
                Some(expected) => {
                    prop_assert!(
                        (mrc.miss_ratio_at(cap) - expected).abs() < 1e-12,
                        "capacity {}: mrc {} vs sim {}", cap, mrc.miss_ratio_at(cap), expected
                    );
                }
                // Zero block accesses (empty trace or all zero-length
                // requests): the curve's convention is all-misses while
                // the sim reports no ratio.
                None => prop_assert_eq!(mrc.miss_ratio_at(cap), 1.0),
            }
        }
    }
}
