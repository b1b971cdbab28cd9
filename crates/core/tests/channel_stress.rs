//! Deterministic channel-interleaving stress test for the streaming
//! fan-out.
//!
//! The per-volume ordering guarantee ("each volume's stream reaches
//! exactly one worker, in send order") must make the final metrics
//! independent of *every* channel-level degree of freedom: shard
//! count, batch size, channel depth (and with it how often the
//! producer blocks on backpressure), and how observations are chopped
//! into `observe`/`observe_request_batch` calls. This test fixes one
//! seeded request stream and sweeps those knobs across their nastiest
//! settings — depth 1 with batch size 1 maximizes producer/worker
//! interleaving and exercises the backpressure path on nearly every
//! send — asserting bit-identical results every time.
//!
//! Determinism: the stream comes from a fixed-seed LCG, so every run
//! of this test replays the same requests; what varies between runs is
//! only the thread interleaving, which is exactly what must not leak
//! into the output.

use cbs_analysis::VolumeMetrics;
use cbs_core::StreamingWorkbench;
use cbs_trace::{IoRequest, OpKind, RequestBatch, Timestamp, VolumeId};

/// A deterministic skewed request stream: timestamps globally
/// ascending, volume choice LCG-driven with volume 0 hot (roughly a
/// third of all traffic), mixed reads/writes, varied offsets/lengths.
fn seeded_stream(n: u64) -> Vec<IoRequest> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..n)
        .map(|i| {
            let r = lcg();
            // Volume 0 is hot; the rest spread over the residues of
            // r % 12 not divisible by 3 (the hot branch absorbs those),
            // i.e. 8 distinct cold volumes.
            let volume = if r % 3 == 0 { 0 } else { 1 + (r % 12) as u32 };
            IoRequest::new(
                VolumeId::new(volume),
                if r % 5 < 2 {
                    OpKind::Read
                } else {
                    OpKind::Write
                },
                (r % 4000) * 512,
                ((r % 16) as u32 + 1) * 512,
                Timestamp::from_micros(i * 13),
            )
        })
        .collect()
}

/// Runs the stream through a session with the given channel knobs.
fn run(reqs: &[IoRequest], shards: usize, batch: usize, depth: usize) -> Vec<VolumeMetrics> {
    let mut session = StreamingWorkbench::new()
        .with_shards(shards)
        .with_batch_size(batch)
        .with_channel_depth(depth)
        .start();
    for req in reqs {
        session.observe(*req);
    }
    session.finish()
}

#[test]
fn metrics_are_invariant_across_channel_interleavings() {
    let reqs = seeded_stream(6_000);
    let baseline = run(&reqs, 1, 1024, 64);
    assert_eq!(baseline.len(), 9, "hot volume plus 8 cold ones");
    assert_eq!(baseline.iter().map(|m| m.requests()).sum::<u64>(), 6_000);

    for &(shards, batch, depth) in &[
        (0usize, 1usize, 1usize), // no shard thread: the caller runs all
        (1, 1, 1),                // fully serialized, every send blocks
        (2, 1, 1),                // tiny batches, constant backpressure
        (3, 7, 1),                // odd batch size, minimal depth
        (4, 64, 2),
        (8, 1, 4),    // almost one shard per cold volume
        (9, 256, 64), // one shard per volume, roomy channels
    ] {
        let got = run(&reqs, shards, batch, depth);
        assert_eq!(
            got, baseline,
            "metrics diverged at shards={shards} batch={batch} depth={depth}"
        );
    }
}

#[test]
fn call_granularity_does_not_leak_into_metrics() {
    let reqs = seeded_stream(3_000);
    let baseline = run(&reqs, 4, 32, 2);

    // Same stream, chopped into uneven observe_request_batch calls (1, 2,
    // 3, … requests per call) — flush points shift against batch boundaries.
    let mut session = StreamingWorkbench::new()
        .with_shards(4)
        .with_batch_size(32)
        .with_channel_depth(2)
        .start();
    let mut rest = &reqs[..];
    let mut step = 1usize;
    while !rest.is_empty() {
        let take = step.min(rest.len());
        session.observe_request_batch(&RequestBatch::from(&rest[..take]));
        rest = &rest[take..];
        step = step % 97 + 1;
    }
    assert_eq!(session.observed(), 3_000);
    assert_eq!(session.finish(), baseline);
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Three end-to-end runs under the most interleaving-prone knobs:
    // any nondeterminism in routing or batching shows up as a diff.
    let reqs = seeded_stream(2_000);
    let first = run(&reqs, 5, 1, 1);
    for _ in 0..2 {
        assert_eq!(run(&reqs, 5, 1, 1), first);
    }
}
