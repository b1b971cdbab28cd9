//! Cross-crate observability gates.
//!
//! Two properties anchor the `cbs-obs` layer:
//!
//! 1. **Reconciliation** — registry counters must agree with the
//!    pipeline's own accounting (`StreamingSession::observed`,
//!    `DecodeStats`) on every feed path: per-request `observe`,
//!    columnar `observe_request_batch`, and CBT blocks. A counter that
//!    drifts from ground truth is worse than no counter.
//! 2. **All-or-error** — a stream interrupted by a shard-worker panic
//!    never yields partial metrics: the panic surfaces during feeding
//!    or at `finish`, and a poisoned session refuses to produce
//!    results.

use cbs_core::StreamingWorkbench;
use cbs_obs::Registry;
use cbs_trace::{CbtReader, CbtWriter, IoRequest, OpKind, RequestBatch, Timestamp, VolumeId};

fn requests(n: u64) -> Vec<IoRequest> {
    (0..n)
        .map(|i| {
            IoRequest::new(
                VolumeId::new((i % 11) as u32),
                if i % 3 == 0 {
                    OpKind::Read
                } else {
                    OpKind::Write
                },
                (i % 64) * 4096,
                4096,
                Timestamp::from_micros(i * 250),
            )
        })
        .collect()
}

/// Requests the shares took in, summed over the `stream.shards` gauge:
/// the shard threads and the caller's own share, the last index.
fn shard_request_total(registry: &Registry) -> u64 {
    let shares = registry.gauge("stream.shards").get();
    (0..shares)
        .map(|s| registry.counter(&format!("stream.shard{s}.requests")).get())
        .sum()
}

#[test]
fn counters_reconcile_across_all_feed_paths() {
    const N: u64 = 20_000;
    const SHARDS: usize = 3;
    let reqs = requests(N);

    // Path 1: per-request observe.
    let registry = Registry::new();
    let mut session = StreamingWorkbench::new()
        .with_shards(SHARDS)
        .with_batch_size(512)
        .with_registry(&registry)
        .start();
    for req in &reqs {
        session.observe(*req);
    }
    assert_eq!(session.observed(), N);
    let per_request = session.finish();
    assert_eq!(registry.counter("stream.observed").get(), N);
    assert_eq!(shard_request_total(&registry), N);

    // Path 2: columnar observe_request_batch.
    let registry = Registry::new();
    let mut session = StreamingWorkbench::new()
        .with_shards(SHARDS)
        .with_batch_size(512)
        .with_registry(&registry)
        .start();
    for piece in reqs.chunks(777) {
        session.observe_request_batch(&RequestBatch::from(piece));
    }
    assert_eq!(session.observed(), N);
    let per_batch = session.finish();
    assert_eq!(registry.counter("stream.observed").get(), N);
    assert_eq!(shard_request_total(&registry), N);

    // Path 3: CBT blocks straight into the session, with the reader
    // publishing into the same registry.
    let mut writer = CbtWriter::with_block_capacity(Vec::new(), 4096);
    for req in &reqs {
        writer.write_request(req).expect("encode");
    }
    let cbt = writer.finish().expect("finish");
    let registry = Registry::new();
    let mut session = StreamingWorkbench::new()
        .with_shards(SHARDS)
        .with_batch_size(512)
        .with_registry(&registry)
        .start();
    let mut reader = CbtReader::new(&cbt[..]).with_registry(&registry);
    while let Some(batch) = reader.read_batch().expect("clean stream") {
        session.observe_request_batch(&batch);
    }
    assert_eq!(session.observed(), N);
    let from_cbt = session.finish();
    assert_eq!(registry.counter("cbt.records").get(), N);
    assert_eq!(registry.counter("stream.observed").get(), N);
    assert_eq!(shard_request_total(&registry), N);

    // Same pipeline, same answers.
    assert_eq!(per_request, per_batch);
    assert_eq!(per_request, from_cbt);

    // The export carries everything the gates above checked.
    let json = registry.to_json();
    assert!(json.contains("\"stream.observed\":{\"type\":\"counter\",\"value\":20000}"));
    assert!(json.contains("\"cbt.records\":{\"type\":\"counter\",\"value\":20000}"));
}

/// Worker-panic injection relies on the analyzer's debug-build ordering
/// assertion, so the all-or-error property is only testable when
/// `debug_assertions` are on (the default for `cargo test`).
#[cfg(debug_assertions)]
mod panic_interruption {
    use super::*;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// However the stream around the fatal record is shaped, and
        /// however the session is tuned, a panic-interrupted stream is
        /// all-or-error: `finish` never returns partial metrics.
        #[test]
        fn panic_interrupted_stream_never_returns_metrics(
            prefix in 0usize..300,
            suffix in 0usize..300,
            shards in 0usize..4,
            batch_size in 1usize..64,
            depth in 1usize..4,
        ) {
            let registry = Registry::new();
            let session = StreamingWorkbench::new()
                .with_shards(shards)
                .with_batch_size(batch_size)
                .with_channel_depth(depth)
                .with_registry(&registry)
                .start();
            let req = |secs: u64| {
                IoRequest::new(VolumeId::new(0), OpKind::Write, 0, 4096, Timestamp::from_secs(secs))
            };
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                let mut session = session;
                for i in 0..prefix {
                    session.observe(req(10 + i as u64));
                }
                session.observe(req(10 + prefix as u64));
                // Out of order for volume 0: the shard worker panics on
                // the analyzer's ordering assertion.
                session.observe(req(1));
                for i in 0..suffix {
                    session.observe(req(5_000 + i as u64));
                }
                session.finish()
            }));
            prop_assert!(
                outcome.is_err(),
                "a panic-interrupted stream must never yield metrics"
            );
        }
    }
}
