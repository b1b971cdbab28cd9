//! Every exact policy lane on block ids no small-id stream reaches:
//! offsets clamped at the top of the address space and ids spread over
//! 2⁴⁰, with a live set larger than every capacity so eviction and
//! ghost hits run. Policies index by dense block numbers, so a raw id
//! that slipped past the numbering would ask for an array of its size;
//! here each lane must equal a fresh `CacheSim` and the naive oracle.

#![allow(clippy::expect_used, reason = "test helpers fail the test")]

use cbs_cache::{policy_by_name, BlockNumbering, CacheSim, CacheStats, SweepGrid, POLICY_NAMES};
use cbs_trace::{BlockSize, IoRequest, OpKind, Timestamp, VolumeId};

mod oracle;

const CAPACITIES: [usize; 4] = [1, 7, 64, 200];

/// splitmix64: a fixed, well-mixed sequence per seed.
fn mixer(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// 3 000 requests over a live set several times the largest capacity:
/// a pool of ids spread over 2⁴⁰ (some of them chunk neighbours),
/// retouched with skew, fresh spread ids, and ranges at the very top of
/// the address space, some reaching past it (clamped), with unaligned
/// straddlers and zero-length records among them.
fn hostile(seed: u64) -> Vec<IoRequest> {
    let mut next = mixer(seed);
    let bytes = u64::from(BlockSize::DEFAULT.bytes());
    let pool: Vec<u64> = (0..600)
        .map(|i| {
            let spread = next() % (1 << 40);
            // Every fourth id sits next to the previous one's chunk.
            if i % 4 == 3 {
                spread | 15
            } else {
                spread
            }
        })
        .collect();
    (0..3000u64)
        .map(|i| {
            let op = if next() % 3 == 0 {
                OpKind::Read
            } else {
                OpKind::Write
            };
            let (offset, len) = match next() % 10 {
                // Near the top: the last few blocks, ranges past the end.
                0 | 1 => (
                    u64::MAX - next() % (6 * bytes),
                    (next() % (3 * bytes)) as u32,
                ),
                2 => (next() % (1 << 40) * bytes, bytes as u32),
                _ => {
                    // Skewed reuse: low pool indexes are hotter.
                    let hot = (next() % 600).min(next() % 600) as usize;
                    let jitter = next() % bytes;
                    (pool[hot] * bytes + jitter, (next() % (2 * bytes)) as u32)
                }
            };
            IoRequest::new(VolumeId::new(0), op, offset, len, Timestamp::from_micros(i))
        })
        .collect()
}

/// `name`@`capacity` through the naive `Vec` oracle, blocks numbered by
/// a numbering of its own.
fn naive_stats(reqs: &[IoRequest], name: &str, capacity: usize) -> CacheStats {
    let mut naive = oracle::naive_by_name(name, capacity).expect("oracle covers every policy");
    let mut numbers = BlockNumbering::new();
    let mut stats = CacheStats::new();
    for req in reqs {
        for block in BlockSize::DEFAULT.span_of(req) {
            stats.record(req.op(), naive.access(numbers.number(block)).hit);
        }
    }
    stats
}

#[test]
fn exact_lanes_on_hostile_ids_match_cache_sim_and_naive_oracle() {
    for (seed, workers) in [(1u64, 0usize), (2, 2)] {
        let reqs = hostile(seed);
        let distinct = reqs
            .iter()
            .flat_map(|r| BlockSize::DEFAULT.span_of(r))
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct > 3 * CAPACITIES[3], "live set {distinct}");
        let report = SweepGrid::new()
            .with_workers(workers)
            .with_batch_size(97)
            .grid(POLICY_NAMES, &CAPACITIES)
            .expect("known names, non-zero capacities")
            .sweep(reqs.iter().copied());
        for &name in POLICY_NAMES {
            for &capacity in &CAPACITIES {
                let lane = report.stats(name, capacity).expect("lane present");
                let policy = policy_by_name(name, capacity).expect("known policy");
                let mut sim = CacheSim::new(policy, BlockSize::DEFAULT);
                sim.run(&reqs);
                let what = format!("{name}@{capacity}, seed {seed}");
                assert_eq!(lane, sim.stats(), "{what}: sweep vs CacheSim");
                assert_eq!(
                    lane,
                    naive_stats(&reqs, name, capacity),
                    "{what}: vs oracle"
                );
                // More misses than distinct blocks: blocks came back
                // after eviction, so eviction (and ghost) paths ran.
                let misses = lane.total_accesses() - lane.read_hits() - lane.write_hits();
                assert!(misses > distinct as u64, "{what}: {misses} misses");
                assert!(lane.read_hits() + lane.write_hits() > 0, "{what}: no hits");
            }
        }
    }
}
