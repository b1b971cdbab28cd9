//! Streaming ≡ batch: the sharded one-pass pipeline must produce
//! per-volume metrics identical to `Workbench::analyze`, whether the
//! records arrive from a lazy synthetic corpus stream, from CBT blocks
//! (buffered or memory-mapped) or from the parallel CSV decoder.

use cbs_core::prelude::*;
use cbs_trace::codec::alicloud::AliCloudWriter;
use cbs_trace::{CbtReader, CbtSliceReader, CbtWriter, Mmap, ParallelDecoder};

fn corpus() -> cbs_synth::CorpusGenerator {
    let config = CorpusConfig::new(24, 3, 11).with_intensity_scale(0.002);
    cbs_synth::presets::alicloud_like(&config)
}

#[test]
fn streaming_matches_batch_on_synthetic_corpus() {
    let generator = corpus();
    let batch = Workbench::new(generator.generate()).analyze();
    for shards in [0, 1, 4] {
        let streaming = StreamingWorkbench::new()
            .with_shards(shards)
            .with_batch_size(1024)
            .analyze(generator.stream());
        assert_eq!(
            streaming,
            batch.metrics(),
            "streaming metrics diverge from batch at {shards} shards"
        );
    }

    // The same corpus re-ingested from CBT: owned blocks from the
    // buffered reader, then borrowed blocks over a memory-mapped file.
    let mut writer = CbtWriter::new(Vec::new());
    for req in generator.stream() {
        writer.write_request(&req).unwrap();
    }
    let cbt = writer.finish().unwrap();
    let mut session = StreamingWorkbench::new().start();
    let mut reader = CbtReader::new(&cbt[..]);
    while let Some(block) = reader.read_batch().unwrap() {
        session.observe_request_batch(&block);
    }
    assert_eq!(session.finish(), batch.metrics(), "CBT-fed metrics diverge");

    let path = std::env::temp_dir().join(format!(
        "cbs_streaming_equivalence_{}.cbt",
        std::process::id()
    ));
    std::fs::write(&path, &cbt).unwrap();
    let map = Mmap::open(&path).unwrap();
    let mut session = StreamingWorkbench::new().start();
    let mut reader = CbtSliceReader::new(&map);
    while let Some(block) = reader.read_batch_ref().unwrap() {
        session.observe_request_batch_ref(block);
    }
    drop(map);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        session.finish(),
        batch.metrics(),
        "mmap-fed metrics diverge"
    );
}

#[test]
fn streaming_matches_batch_through_parallel_decoder() {
    // Full pipeline: synthesize → serialize to AliCloud CSV → chunked
    // parallel decode → sharded streaming analysis, compared against
    // deserialize-everything → batch analysis.
    let generator = corpus();
    let mut csv = Vec::new();
    {
        let mut w = AliCloudWriter::new(&mut csv);
        for req in generator.stream() {
            w.write_request(&req).unwrap();
        }
    }

    let trace: Trace = cbs_trace::codec::alicloud::AliCloudReader::new(&csv[..])
        .collect::<Result<Vec<_>, _>>()
        .unwrap()
        .into_iter()
        .collect();
    let records = trace.request_count() as u64;
    let batch = Workbench::new(trace).analyze();

    let mut session = StreamingWorkbench::new().with_shards(3).start();
    let decoder = ParallelDecoder::new()
        .with_threads(4)
        .with_chunk_size(64 * 1024);
    let stats = decoder
        .decode_alicloud_batches(&csv[..], |batch| session.observe_request_batch(&batch))
        .unwrap();
    let streaming = session.finish();

    assert_eq!(stats.records, records);
    assert_eq!(streaming, batch.metrics());
}

#[test]
fn streaming_totals_match_batch_totals() {
    // Corpus-level findings derive from the metrics alone, so the
    // streamed metrics feed the same finding constructors.
    let generator = corpus();
    let batch = Workbench::new(generator.generate()).analyze();
    let streaming = StreamingWorkbench::new().analyze(generator.stream());

    let block = u64::from(batch.config().block_size.bytes());
    let batch_totals = batch.totals();
    let stream_totals = cbs_analysis::findings::basic::TraceTotals::from_metrics(&streaming, block);
    assert_eq!(batch_totals.reads, stream_totals.reads);
    assert_eq!(batch_totals.writes, stream_totals.writes);
    assert_eq!(batch_totals.total_wss_bytes, stream_totals.total_wss_bytes);
    assert_eq!(batch_totals.updated_bytes, stream_totals.updated_bytes);
}
