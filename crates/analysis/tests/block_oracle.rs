//! Differential test of the block-granular metrics against a
//! deliberately naive oracle.
//!
//! The oracle walks every request block by block with one `HashMap`
//! entry per block and [`cbs_cache::ReuseDistances`] for the stack — no
//! chunks, no runs, no batching, and its own (`u128`) span arithmetic.
//! Every fast path must agree with it exactly: per-request
//! [`VolumeAnalyzer::observe`], [`VolumeAnalyzer::observe_batch`] at
//! arbitrary splits, and [`StreamingWorkbench`] (whose shard workers
//! regroup each batch by volume) across batch sizes and shard counts,
//! over request shapes chosen to break run coalescing and the regroup.

use std::collections::{BTreeMap, HashMap};

use cbs_analysis::{AnalysisConfig, VolumeAnalyzer, VolumeMetrics};
use cbs_cache::{MissRatioCurve, ReuseDistances};
use cbs_core::StreamingWorkbench;
use cbs_stats::LogHistogram;
use cbs_trace::{BlockId, IoRequest, OpKind, RequestBatch, Timestamp, VolumeId};

const BLOCK: u128 = 4096;

/// What the oracle remembers about one block.
struct OracleBlock {
    last_op: OpKind,
    last_ts: Timestamp,
    last_write_ts: Option<Timestamp>,
    read_bytes: u64,
    write_bytes: u64,
    writes: u64,
}

/// The block-granular slice of [`VolumeMetrics`], computed naively.
#[derive(Debug, PartialEq)]
struct BlockMetrics {
    read_mrc: MissRatioCurve,
    write_mrc: MissRatioCurve,
    raw_hist: LogHistogram,
    waw_hist: LogHistogram,
    rar_hist: LogHistogram,
    war_hist: LogHistogram,
    update_interval_hist: LogHistogram,
    updated_bytes: u64,
    wss_blocks: u64,
    wss_read_blocks: u64,
    wss_write_blocks: u64,
    wss_update_blocks: u64,
}

impl BlockMetrics {
    fn of(m: &VolumeMetrics) -> Self {
        BlockMetrics {
            read_mrc: m.read_mrc.clone(),
            write_mrc: m.write_mrc.clone(),
            raw_hist: m.raw_hist.clone(),
            waw_hist: m.waw_hist.clone(),
            rar_hist: m.rar_hist.clone(),
            war_hist: m.war_hist.clone(),
            update_interval_hist: m.update_interval_hist.clone(),
            updated_bytes: m.updated_bytes,
            wss_blocks: m.wss_blocks,
            wss_read_blocks: m.wss_read_blocks,
            wss_write_blocks: m.wss_write_blocks,
            wss_update_blocks: m.wss_update_blocks,
        }
    }
}

/// One volume's requests, in order, through the oracle.
fn oracle(requests: &[IoRequest]) -> BlockMetrics {
    let hist = || LogHistogram::new(AnalysisConfig::default().hist_precision_bits);
    let (mut raw, mut waw, mut rar, mut war, mut update) = (hist(), hist(), hist(), hist(), hist());
    let mut blocks: HashMap<u64, OracleBlock> = HashMap::new();
    let mut stack = ReuseDistances::new();
    let mut distances: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut cold = [0u64; 2];
    let mut updated_bytes = 0u64;

    for req in requests {
        let (op, ts) = (req.op(), req.ts());
        let start = u128::from(req.offset());
        // Clamped at the end of the 2^64-byte address space.
        let end = (start + u128::from(req.len())).min(1 << 64);
        if end == start {
            continue;
        }
        for b in start / BLOCK..=(end - 1) / BLOCK {
            let overlap = (end.min((b + 1) * BLOCK) - start.max(b * BLOCK)) as u64;
            let id = b as u64;

            let which = usize::from(op == OpKind::Write);
            match stack.access(BlockId::new(id)) {
                Some(d) => {
                    let d = d as usize;
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

    let [read_distances, write_distances] = distances;
    let count = |f: fn(&OracleBlock) -> bool| blocks.values().filter(|b| f(b)).count() as u64;
    BlockMetrics {
        read_mrc: MissRatioCurve::from_histogram(read_distances, cold[0]),
        write_mrc: MissRatioCurve::from_histogram(write_distances, cold[1]),
        raw_hist: raw,
        waw_hist: waw,
        rar_hist: rar,
        war_hist: war,
        update_interval_hist: update,
        updated_bytes,
        wss_blocks: blocks.len() as u64,
        wss_read_blocks: count(|b| b.read_bytes > 0),
        wss_write_blocks: count(|b| b.write_bytes > 0),
        wss_update_blocks: count(|b| b.writes >= 2),
    }
}

fn analyzer(volume: VolumeId, epoch: Timestamp) -> VolumeAnalyzer {
    VolumeAnalyzer::new(volume, epoch, AnalysisConfig::default()).expect("default config")
}

/// Checks every fast path against the oracle on `stream` (any number
/// of volumes, each volume's requests in non-decreasing time order).
fn check(shape: &str, stream: &[IoRequest]) {
    let mut per_volume: BTreeMap<VolumeId, Vec<IoRequest>> = BTreeMap::new();
    for req in stream {
        per_volume.entry(req.volume()).or_default().push(*req);
    }
    let want: Vec<BlockMetrics> = per_volume.values().map(|reqs| oracle(reqs)).collect();
    let epoch = stream[0].ts();

    for ((&volume, reqs), want) in per_volume.iter().zip(&want) {
        let mut one_by_one = analyzer(volume, epoch);
        for req in reqs {
            one_by_one.observe(req);
        }
        let one_by_one = one_by_one.finish();
        assert_eq!(
            &BlockMetrics::of(&one_by_one),
            want,
            "{shape}: observe, {volume}"
        );

        let batch = RequestBatch::from(reqs.as_slice());
        for splits in [&[usize::MAX][..], &[1], &[7], &[3, 1, 64, 2, 500]] {
            let mut batched = analyzer(volume, epoch);
            let mut start = 0;
            for &size in splits.iter().cycle() {
                let end = start + size.min(batch.len() - start);
                batched.observe_batch(&batch, start..end);
                start = end;
                if start == batch.len() {
                    break;
                }
            }
            assert_eq!(
                batched.finish(),
                one_by_one,
                "{shape}: observe_batch split {splits:?}, {volume}"
            );
        }
    }

    for batch_size in [1, 7, 8192] {
        for shards in [1, 3] {
            let streamed = StreamingWorkbench::new()
                .with_shards(shards)
                .with_batch_size(batch_size)
                .analyze(stream.iter().copied());
            let got: Vec<BlockMetrics> = streamed.iter().map(BlockMetrics::of).collect();
            assert_eq!(
                streamed.iter().map(|m| m.id).collect::<Vec<_>>(),
                per_volume.keys().copied().collect::<Vec<_>>()
            );
            assert_eq!(
                got, want,
                "{shape}: streaming batch={batch_size} shards={shards}"
            );
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
    check("one hot block", &stream);
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
    check("reverse single-block writes", &stream);
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
    check("alternating read/write", &stream);
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
    check("cold holes", &stream);
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
    check("equal timestamps", &stream);
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
    check("300 volumes round-robin", &stream);
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
    check("100 one-request volumes", &stream);
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
    check("end of the address space", &stream);

    let mut a = analyzer(VolumeId::new(0), Timestamp::ZERO);
    for r in &stream {
        a.observe(r);
    }
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
