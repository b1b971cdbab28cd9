//! Differential test of every [`VolumeMetrics`] field against a
//! deliberately naive oracle.
//!
//! The oracle walks every request once, straight from each metric's
//! definition: `HashMap`s and sorted sets for the per-interval and
//! per-block state, a `VecDeque` for the randomness window, one
//! `HashMap` entry per block and a move-to-front `Vec` for the LRU
//! stack — no chunks, no runs, no block numbering, no column loops, no
//! batching, and its own (`u128`) span arithmetic. Its reuse distances
//! owe nothing to `cbs-cache`, whose numbering the analyzer shares.
//! The analyzer has one code path; it must agree with the oracle
//! however its input is cut: whole-view
//! [`VolumeAnalyzer::analyze_volume`] (8 192-request runs),
//! [`VolumeAnalyzer::observe_batch`] at arbitrary splits, and
//! [`StreamingWorkbench`] (whose shard workers regroup each batch by
//! volume) across batch sizes and shard counts, over request shapes
//! chosen to break run coalescing, the regroup, the run boundaries and
//! the randomness window's edges. At 2 GiB blocks a few full-block
//! requests carry a block's byte counts past 2³², the `u32` low words
//! the analyzer keeps them in; that case runs the whole-view and split
//! feeds only, since the streaming workbench analyzes at 4 KiB blocks.

#![allow(clippy::expect_used, reason = "test helpers fail the test")]

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use cbs_analysis::{AnalysisConfig, VolumeAnalyzer, VolumeMetrics};
use cbs_cache::MissRatioCurve;
use cbs_core::StreamingWorkbench;
use cbs_stats::LogHistogram;
use cbs_trace::{BlockSize, IoRequest, OpKind, RequestBatch, Timestamp, VolumeId, VolumeView};

const MICROS_PER_DAY: u64 = 86_400 * 1_000_000;

/// What the oracle remembers about one block.
struct OracleBlock {
    last_op: OpKind,
    last_ts: Timestamp,
    last_write_ts: Option<Timestamp>,
    read_bytes: u64,
    write_bytes: u64,
    writes: u64,
}

/// Shares of `traffic` (per-block byte counts) carried by the busiest
/// `f1` and `f10` fractions of its blocks, at least one block each.
fn top_shares(mut traffic: Vec<u64>, (f1, f10): (f64, f64)) -> Option<(f64, f64)> {
    if traffic.is_empty() {
        return None;
    }
    traffic.sort_unstable();
    traffic.reverse();
    let total: u64 = traffic.iter().sum();
    let share = |f: f64| {
        let k = ((traffic.len() as f64 * f).ceil() as usize).clamp(1, traffic.len());
        traffic[..k].iter().sum::<u64>() as f64 / total as f64
    };
    Some((share(f1), share(f10)))
}

/// The default analysis at `block` bytes per block.
fn config(block: BlockSize) -> AnalysisConfig {
    AnalysisConfig {
        block_size: block,
        ..AnalysisConfig::default()
    }
}

/// One volume's requests, in order, through the oracle at `block`.
fn oracle(
    block: BlockSize,
    volume: VolumeId,
    epoch: Timestamp,
    requests: &[IoRequest],
) -> VolumeMetrics {
    let c = config(block);
    let block = u128::from(block.bytes());
    let hist = || LogHistogram::new(c.hist_precision_bits);
    let (mut read_sizes, mut write_sizes, mut gaps) = (hist(), hist(), hist());
    let (mut raw, mut waw, mut rar, mut war, mut update) = (hist(), hist(), hist(), hist(), hist());
    let [mut reads, mut writes, mut read_bytes, mut write_bytes] = [0u64; 4];
    let mut per_peak_interval: HashMap<u64, u64> = HashMap::new();
    // All requests, reads, writes.
    let mut intervals: [BTreeSet<u32>; 3] = Default::default();
    let mut days: BTreeSet<u32> = BTreeSet::new();
    let mut window: VecDeque<u64> = VecDeque::new();
    let mut random_requests = 0u64;
    let mut blocks: HashMap<u64, OracleBlock> = HashMap::new();
    // Block ids, most recently touched last: a block's reuse distance
    // is the number of blocks above it.
    let mut stack: Vec<u64> = Vec::new();
    let mut distances: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut cold = [0u64; 2];
    let mut updated_bytes = 0u64;

    for (i, req) in requests.iter().enumerate() {
        let (op, offset, ts) = (req.op(), req.offset(), req.ts());
        let len = u64::from(req.len());
        let which = usize::from(op == OpKind::Write);
        match op {
            OpKind::Read => {
                reads += 1;
                read_bytes += len;
                read_sizes.record(len);
            }
            OpKind::Write => {
                writes += 1;
                write_bytes += len;
                write_sizes.record(len);
            }
        }
        if i > 0 {
            gaps.record((ts - requests[i - 1].ts()).as_micros());
        }

        let rel = ts.saturating_duration_since(epoch).as_micros();
        *per_peak_interval
            .entry(rel / c.peak_interval.as_micros())
            .or_default() += 1;
        let interval = u32::try_from(rel / c.active_interval.as_micros()).unwrap_or(u32::MAX);
        intervals[0].insert(interval);
        intervals[1 + which].insert(interval);
        days.insert(u32::try_from(rel / MICROS_PER_DAY).unwrap_or(u32::MAX));

        // Random iff the nearest of the previous `randomness_window`
        // offsets is more than the threshold away (none: infinitely far).
        let nearest = window.iter().map(|&v| v.abs_diff(offset)).min();
        if nearest.unwrap_or(u64::MAX) > c.randomness_threshold {
            random_requests += 1;
        }
        window.push_back(offset);
        if window.len() > c.randomness_window {
            window.pop_front();
        }

        let start = u128::from(offset);
        // Clamped at the end of the 2^64-byte address space.
        let end = (start + u128::from(len)).min(1 << 64);
        if end == start {
            continue;
        }
        for b in start / block..=(end - 1) / block {
            let overlap = (end.min((b + 1) * block) - start.max(b * block)) as u64;
            let id = b as u64;

            // A block not in `blocks` is not in the stack either: only
            // a warm block is searched for.
            let depth = blocks
                .contains_key(&id)
                .then(|| stack.iter().rev().position(|&s| s == id))
                .flatten();
            if let Some(depth) = depth {
                stack.remove(stack.len() - 1 - depth);
            }
            stack.push(id);
            match depth {
                Some(d) => {
                    if distances[which].len() <= d {
                        distances[which].resize(d + 1, 0);
                    }
                    distances[which][d] += 1;
                }
                None => cold[which] += 1,
            }

            let warm = blocks.contains_key(&id);
            let block = blocks.entry(id).or_insert(OracleBlock {
                last_op: op,
                last_ts: ts,
                last_write_ts: None,
                read_bytes: 0,
                write_bytes: 0,
                writes: 0,
            });
            if warm {
                let elapsed = (ts - block.last_ts).as_micros();
                match (block.last_op, op) {
                    (OpKind::Write, OpKind::Read) => raw.record(elapsed),
                    (OpKind::Write, OpKind::Write) => waw.record(elapsed),
                    (OpKind::Read, OpKind::Read) => rar.record(elapsed),
                    (OpKind::Read, OpKind::Write) => war.record(elapsed),
                }
                if op == OpKind::Write {
                    updated_bytes += overlap;
                }
            }
            match op {
                OpKind::Read => block.read_bytes += overlap,
                OpKind::Write => {
                    if let Some(previous) = block.last_write_ts {
                        update.record((ts - previous).as_micros());
                    }
                    block.last_write_ts = Some(ts);
                    block.write_bytes += overlap;
                    block.writes += 1;
                }
            }
            block.last_op = op;
            block.last_ts = ts;
        }
    }

    let count = |f: fn(&OracleBlock) -> bool| blocks.values().filter(|b| f(b)).count() as u64;
    let traffic = |f: fn(&OracleBlock) -> u64| -> Vec<u64> {
        blocks.values().map(f).filter(|&bytes| bytes > 0).collect()
    };
    let (mut read_bytes_to_read_mostly, mut write_bytes_to_write_mostly) = (0, 0);
    for b in blocks.values() {
        let total = b.read_bytes + b.write_bytes;
        if total > 0 {
            let read_share = b.read_bytes as f64 / total as f64;
            if read_share > c.rw_mostly_threshold {
                read_bytes_to_read_mostly += b.read_bytes;
            }
            if 1.0 - read_share > c.rw_mostly_threshold {
                write_bytes_to_write_mostly += b.write_bytes;
            }
        }
    }
    let [read_distances, write_distances] = distances;
    let [active_intervals, read_active_intervals, write_active_intervals] =
        intervals.map(|set| set.into_iter().collect());
    VolumeMetrics {
        id: volume,
        reads,
        writes,
        read_bytes,
        write_bytes,
        updated_bytes,
        first_ts: requests[0].ts(),
        last_ts: requests[requests.len() - 1].ts(),
        peak_interval_requests: per_peak_interval.values().copied().max().unwrap_or(0),
        read_size_hist: read_sizes,
        write_size_hist: write_sizes,
        interarrival_hist: gaps,
        active_intervals,
        read_active_intervals,
        write_active_intervals,
        active_days: days.into_iter().collect(),
        random_requests,
        wss_blocks: blocks.len() as u64,
        wss_read_blocks: count(|b| b.read_bytes > 0),
        wss_write_blocks: count(|b| b.write_bytes > 0),
        wss_update_blocks: count(|b| b.writes >= 2),
        top_read_shares: top_shares(traffic(|b| b.read_bytes), c.top_fractions),
        top_write_shares: top_shares(traffic(|b| b.write_bytes), c.top_fractions),
        read_bytes_to_read_mostly,
        write_bytes_to_write_mostly,
        raw_hist: raw,
        waw_hist: waw,
        rar_hist: rar,
        war_hist: war,
        update_interval_hist: update,
        read_mrc: MissRatioCurve::from_histogram(read_distances, cold[0]),
        write_mrc: MissRatioCurve::from_histogram(write_distances, cold[1]),
    }
}

/// Asserts `got` equals the oracle's `want`: every field exactly, but
/// the two floating-point share pairs only to within 1e-12.
fn assert_matches(got: &VolumeMetrics, want: &VolumeMetrics, what: &str) {
    let close = |a: Option<(f64, f64)>, b: Option<(f64, f64)>| match (a, b) {
        (Some(a), Some(b)) => (a.0 - b.0).abs() <= 1e-12 && (a.1 - b.1).abs() <= 1e-12,
        (a, b) => a.is_none() && b.is_none(),
    };
    assert!(
        close(got.top_read_shares, want.top_read_shares)
            && close(got.top_write_shares, want.top_write_shares),
        "{what}: top shares {:?} {:?}, oracle {:?} {:?}",
        got.top_read_shares,
        got.top_write_shares,
        want.top_read_shares,
        want.top_write_shares
    );
    macro_rules! fields {
        ($($field:ident),*) => {
            $(assert_eq!(got.$field, want.$field, "{what}: {}", stringify!($field));)*
        };
    }
    fields!(
        id,
        reads,
        writes,
        read_bytes,
        write_bytes,
        updated_bytes,
        first_ts,
        last_ts,
        peak_interval_requests,
        read_size_hist,
        write_size_hist,
        interarrival_hist,
        active_intervals,
        read_active_intervals,
        write_active_intervals,
        active_days,
        random_requests,
        wss_blocks,
        wss_read_blocks,
        wss_write_blocks,
        wss_update_blocks,
        read_bytes_to_read_mostly,
        write_bytes_to_write_mostly,
        raw_hist,
        waw_hist,
        rar_hist,
        war_hist,
        update_interval_hist,
        read_mrc,
        write_mrc
    );
    // Catches a field added to `VolumeMetrics` but not to the list.
    let without_shares = |m: &VolumeMetrics| VolumeMetrics {
        top_read_shares: None,
        top_write_shares: None,
        ..m.clone()
    };
    assert_eq!(without_shares(got), without_shares(want), "{what}");
}

fn analyzer(block: BlockSize, volume: VolumeId, epoch: Timestamp) -> VolumeAnalyzer {
    VolumeAnalyzer::new(volume, epoch, config(block)).expect("valid config")
}

/// Checks every way of driving the analyzer at `block` against the
/// oracle on `stream` (any number of volumes, each volume's requests in
/// non-decreasing time order).
fn check(shape: &str, block: BlockSize, stream: &[IoRequest]) {
    let mut per_volume: BTreeMap<VolumeId, Vec<IoRequest>> = BTreeMap::new();
    for req in stream {
        per_volume.entry(req.volume()).or_default().push(*req);
    }
    // The streaming session's default epoch: the first observed request.
    let epoch = stream[0].ts();
    let want: Vec<VolumeMetrics> = per_volume
        .iter()
        .map(|(&volume, reqs)| oracle(block, volume, epoch, reqs))
        .collect();

    for ((&volume, reqs), want) in per_volume.iter().zip(&want) {
        let whole =
            VolumeAnalyzer::analyze_volume(VolumeView::new(volume, reqs), epoch, &config(block))
                .expect("valid config");
        assert_matches(&whole, want, &format!("{shape}: analyze_volume, {volume}"));

        let batch = RequestBatch::from(reqs.as_slice());
        for splits in [&[1][..], &[7], &[3, 1, 64, 2, 500]] {
            let mut batched = analyzer(block, volume, epoch);
            let mut start = 0;
            for &size in splits.iter().cycle() {
                let end = start + size.min(batch.len() - start);
                batched.observe_batch(&batch, start..end);
                start = end;
                if start == batch.len() {
                    break;
                }
            }
            assert_matches(
                &batched.finish(),
                want,
                &format!("{shape}: observe_batch split {splits:?}, {volume}"),
            );
        }
    }

    // The streaming workbench analyzes at the default block size only.
    if block != BlockSize::DEFAULT {
        return;
    }
    for batch_size in [1, 7, 8192] {
        for shards in [0, 1, 3] {
            let streamed = StreamingWorkbench::new()
                .with_shards(shards)
                .with_batch_size(batch_size)
                .analyze(stream.iter().copied());
            assert_eq!(
                streamed.iter().map(|m| m.id).collect::<Vec<_>>(),
                per_volume.keys().copied().collect::<Vec<_>>()
            );
            for (got, want) in streamed.iter().zip(&want) {
                let what = format!("{shape}: streaming batch={batch_size} shards={shards}");
                assert_matches(got, want, &what);
            }
        }
    }
}

fn req(volume: u32, op: OpKind, offset: u64, len: u32, micros: u64) -> IoRequest {
    IoRequest::new(
        VolumeId::new(volume),
        op,
        offset,
        len,
        Timestamp::from_micros(micros),
    )
}

fn op_of(i: u64) -> OpKind {
    if i % 3 == 0 {
        OpKind::Read
    } else {
        OpKind::Write
    }
}

#[test]
fn one_hot_block() {
    let stream: Vec<IoRequest> = (0..500u64)
        .map(|i| {
            req(
                0,
                op_of(i * 7 + i / 5),
                7 * 4096 + (i % 4) * 1000,
                96 + (i % 9) as u32 * 100,
                i * 13,
            )
        })
        .collect();
    check("one hot block", BlockSize::DEFAULT, &stream);
}

#[test]
fn span_last_touched_block_by_block_in_reverse() {
    // 64 single-block writes, last block first: the span that follows
    // finds 64 previous positions in descending order — no two form a
    // run. Then the span again, now one run of 64.
    let mut stream: Vec<IoRequest> = (0..64u64)
        .map(|i| req(0, OpKind::Write, (63 - i) * 4096, 4096, i))
        .collect();
    stream.push(req(0, OpKind::Read, 0, 64 * 4096, 100));
    stream.push(req(0, OpKind::Write, 0, 64 * 4096, 200));
    stream.push(req(0, OpKind::Write, 0, 64 * 4096, 300));
    check("reverse single-block writes", BlockSize::DEFAULT, &stream);
}

#[test]
fn alternating_read_write_over_one_span() {
    let stream: Vec<IoRequest> = (0..80u64)
        .map(|i| {
            let op = if i % 2 == 0 {
                OpKind::Write
            } else {
                OpKind::Read
            };
            // Unaligned on both ends: partial first and last block.
            req(0, op, 10 * 4096 + 512, 20 * 4096, i * 1000)
        })
        .collect();
    check("alternating read/write", BlockSize::DEFAULT, &stream);
}

#[test]
fn spans_with_cold_holes() {
    let mut stream = Vec::new();
    let mut t = 0u64;
    // Every third block warm, then spans over all of them: warm blocks
    // sit between cold ones. Widen the span each round so each also ends
    // in fresh cold blocks, and revisit halves so runs split mid-span.
    for i in (0..90u64).step_by(3) {
        stream.push(req(0, OpKind::Write, i * 4096, 4096, t));
        t += 1;
    }
    for round in 0..6u64 {
        stream.push(req(0, op_of(round), 0, (30 + round as u32 * 12) * 4096, t));
        stream.push(req(0, op_of(round + 1), 20 * 4096, 15 * 4096, t + 1));
        stream.push(req(0, OpKind::Read, (40 + round) * 4096, 0, t + 2));
        t += 3;
    }
    check("cold holes", BlockSize::DEFAULT, &stream);
}

#[test]
fn equal_timestamps_throughout() {
    let stream: Vec<IoRequest> = (0..300u64)
        .map(|i| {
            req(
                (i % 3) as u32,
                op_of(i),
                (i * 5 % 24) * 4096,
                (1 + i % 7) as u32 * 4096,
                5,
            )
        })
        .collect();
    check("equal timestamps", BlockSize::DEFAULT, &stream);
}

#[test]
fn three_hundred_volumes_round_robin() {
    // One 8192-record batch holds ~27 records of each volume, never two
    // in a row: the worker's regroup has to keep each volume's order.
    let mut stream = Vec::new();
    for round in 0..30u64 {
        for v in 0..300u32 {
            let offset = ((round * 3 + u64::from(v)) % 12) * 4096;
            stream.push(req(
                v,
                op_of(round + u64::from(v)),
                offset,
                3 * 4096,
                round * 300 + u64::from(v),
            ));
        }
    }
    check("300 volumes round-robin", BlockSize::DEFAULT, &stream);
}

#[test]
fn one_hundred_one_request_volumes() {
    let stream: Vec<IoRequest> = (0..100u32)
        .map(|v| {
            req(
                v,
                op_of(u64::from(v)),
                u64::from(v) * 1000,
                9000,
                u64::from(v),
            )
        })
        .collect();
    check("100 one-request volumes", BlockSize::DEFAULT, &stream);
}

#[test]
fn requests_at_the_end_of_the_address_space() {
    // `offset + len` past u64::MAX used to wrap to an empty span: the
    // request was counted but touched no block. Clamped instead, the
    // last block of the address space is touched like any other.
    let top = u64::MAX - 4095; // first byte of the last 4 KiB block
    let stream = vec![
        req(0, OpKind::Write, u64::MAX - 10, 4096, 1),
        req(0, OpKind::Write, top - 4096, 3 * 4096, 2),
        req(0, OpKind::Read, u64::MAX, 1, 3),
        req(0, OpKind::Read, u64::MAX, 0, 4),
        req(0, OpKind::Write, top, u32::MAX, 5),
    ];
    check("end of the address space", BlockSize::DEFAULT, &stream);

    let mut a = analyzer(BlockSize::DEFAULT, VolumeId::new(0), Timestamp::ZERO);
    a.observe_batch(&RequestBatch::from(stream.as_slice()), 0..stream.len());
    let m = a.finish();
    assert_eq!((m.reads, m.writes), (2, 3));
    // Two blocks: the last one, and the one below it.
    assert_eq!(m.wss_blocks, 2);
    assert_eq!(m.wss_write_blocks, 2);
    assert_eq!(m.wss_read_blocks, 1);
    assert_eq!(m.wss_update_blocks, 1);
    // Rewrites of the last block: the whole block twice (11 bytes of it
    // were new the first time round).
    assert_eq!(m.updated_bytes, 2 * 4096);
    assert_eq!(m.update_interval_hist.total(), 2);
    assert_eq!(m.raw_hist.total() + m.rar_hist.total(), 1);
}

#[test]
fn one_volume_longer_than_two_runs() {
    // `analyze_volume` cuts this volume into three runs; every metric
    // that carries state across requests (inter-arrival, peak bin,
    // activeness, randomness window, block state, reuse stack) crosses
    // both run boundaries. Bursts of equal timestamps every third
    // request, a long gap every 1 000 requests, four days in all.
    let stream: Vec<IoRequest> = (0..2 * 8192 + 1000u64)
        .map(|i| {
            let offset = match i % 4 {
                0 => (i % 64) * 4096,                           // hot region
                1 => i * 8192,                                  // sequential scan
                2 => i.wrapping_mul(2_654_435_761) % (1 << 40), // far jumps
                _ => (i / 4 % 512) * 4096 + 100,                // unaligned warm region
            };
            let len = 512 * (1 + (i * 13 % 128)) as u32;
            let micros = i / 3 * 250_000 + i / 1000 * 20_000_000_000;
            req(0, op_of(i * 7 + i / 11), offset, len, micros)
        })
        .collect();
    check(
        "one volume longer than two runs",
        BlockSize::DEFAULT,
        &stream,
    );
}

#[test]
fn randomness_window_edges() {
    // A stride of exactly the threshold is never random, a stride one
    // byte longer always is — climbing, the nearest window offset sits
    // on the range's low edge, descending on its high edge; then both
    // ends of the address space, where the range saturates.
    let t = AnalysisConfig::default().randomness_threshold;
    let mut offsets: Vec<u64> = (0..40).map(|k| k * t).collect();
    offsets.extend((0..40).map(|k| (1 << 40) - k * t));
    offsets.extend((0..40).map(|k| (1 << 41) + k * (t + 1)));
    offsets.extend((0..40).map(|k| (1 << 42) - k * (t + 1)));
    offsets.extend([
        u64::MAX - t,
        u64::MAX,
        u64::MAX - 2 * t - 1,
        0,
        t,
        t / 2,
        t + 1,
    ]);
    let stream: Vec<IoRequest> = offsets
        .iter()
        .enumerate()
        .map(|(i, &offset)| req(0, op_of(i as u64), offset, 512, i as u64 * 1000))
        .collect();
    check("randomness window edges", BlockSize::DEFAULT, &stream);
}

#[test]
fn byte_counts_past_two_to_the_32_at_two_gib_blocks() {
    // Each full-block request moves 2 GiB, so a block's third one
    // carries its count past 2^32. Block 0 carries both ways, its
    // writes last, after block 1's reads: the carries are logged out of
    // block-number order. The 4 GiB - 1 requests leave partial blocks
    // in the counts.
    const G: u64 = 1 << 31;
    let block = BlockSize::new(1 << 31).expect("a power of two");
    let (read, write) = (OpKind::Read, OpKind::Write);
    let mut shapes = vec![(write, 3 * G, G as u32); 3];
    for _ in 0..2 {
        shapes.extend([
            (read, 0, G as u32),
            (read, G, G as u32),
            (write, 0, u32::MAX),
        ]);
    }
    shapes.extend([
        (read, 0, G as u32),
        (read, G + 512, u32::MAX),
        (write, 0, G as u32),
    ]);
    let mut stream: Vec<IoRequest> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(op, offset, len))| req(0, op, offset, len, i as u64 * 1_000_000))
        .collect();
    stream.push(req(1, read, 7 * G, 4096, 20_000_000));
    check("2 GiB blocks", block, &stream);

    // The busiest block carries 6 GiB each way: block 0's reads of the
    // 7 GiB - 1 read in all, and block 0's (or 3's) writes of 8 GiB - 2.
    let want = oracle(
        block,
        VolumeId::new(0),
        stream[0].ts(),
        &stream[..shapes.len()],
    );
    let share = |top: u64, total: u64| top as f64 / total as f64;
    assert_eq!(want.wss_blocks, 4);
    let (top_read, top_write) = (share(3 * G, 7 * G - 1), share(3 * G, 8 * G - 2));
    assert_eq!(want.top_read_shares, Some((top_read, top_read)));
    assert_eq!(want.top_write_shares, Some((top_write, top_write)));
}
