//! Property-based tests for the trace data model and codecs.

#![allow(clippy::expect_used, reason = "test helpers fail the test")]

use proptest::prelude::*;

use cbs_trace::codec::alicloud::{self, AliCloudReader, AliCloudWriter};
use cbs_trace::codec::msrc::{self, MsrcReader, MsrcWriter, VolumeRegistry};
use cbs_trace::iter::{is_sorted_by_time, sort_by_time};
use cbs_trace::{
    BlockSize, CbtReader, CbtWriter, IoRequest, MergeByTime, OpKind, RequestBatch, TimeDelta,
    Timestamp, Trace, VolumeId,
};

fn arb_op() -> impl Strategy<Value = OpKind> {
    prop_oneof![Just(OpKind::Read), Just(OpKind::Write)]
}

prop_compose! {
    fn arb_request()(
        volume in 0u32..64,
        op in arb_op(),
        offset in 0u64..(1 << 40),
        len in 0u32..(1 << 22),
        ts in 0u64..(1 << 45),
    ) -> IoRequest {
        IoRequest::new(VolumeId::new(volume), op, offset, len, Timestamp::from_micros(ts))
    }
}

proptest! {
    /// AliCloud format ⇄ record round-trips exactly.
    #[test]
    fn alicloud_record_roundtrip(req in arb_request()) {
        let line = alicloud::format_record(&req);
        let back = alicloud::parse_record(&line).unwrap();
        prop_assert_eq!(back, req);
    }

    /// AliCloud stream round-trips through writer + reader.
    #[test]
    fn alicloud_stream_roundtrip(reqs in proptest::collection::vec(arb_request(), 0..200)) {
        let mut buf = Vec::new();
        AliCloudWriter::new(&mut buf).write_all(&reqs).unwrap();
        let back: Vec<IoRequest> = AliCloudReader::new(&buf[..])
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(back, reqs);
    }

    /// MSRC format round-trips the request, response time, and volume name.
    #[test]
    fn msrc_record_roundtrip(req in arb_request(), response_us in 0u64..(1 << 30)) {
        let response = TimeDelta::from_micros(response_us);
        let line = msrc::format_record(&req, "hostx", req.volume().get(), response);
        let mut reg = VolumeRegistry::new();
        let rec = msrc::parse_record(&line, &mut reg).unwrap();
        // Volume ids are re-assigned densely by the registry; compare the rest.
        prop_assert_eq!(rec.request().op(), req.op());
        prop_assert_eq!(rec.request().offset(), req.offset());
        prop_assert_eq!(rec.request().len(), req.len());
        prop_assert_eq!(rec.request().ts(), req.ts());
        prop_assert_eq!(rec.response_time(), response);
        let expected_name = format!("hostx_{}", req.volume().get());
        prop_assert_eq!(reg.name_of(rec.request().volume()), Some(expected_name.as_str()));
    }

    /// MSRC stream round-trips through writer + reader with named volumes.
    #[test]
    fn msrc_stream_roundtrip(reqs in proptest::collection::vec(arb_request(), 0..100)) {
        let mut buf = Vec::new();
        {
            let mut w = MsrcWriter::new(&mut buf);
            for r in &reqs {
                w.write_named(r, &format!("host_{}", r.volume().get()), TimeDelta::ZERO)
                    .unwrap();
            }
        }
        let recs: Vec<_> = MsrcReader::new(&buf[..]).collect::<Result<Vec<_>, _>>().unwrap();
        prop_assert_eq!(recs.len(), reqs.len());
        for (rec, req) in recs.iter().zip(&reqs) {
            prop_assert_eq!(rec.request().offset(), req.offset());
            prop_assert_eq!(rec.request().len(), req.len());
            prop_assert_eq!(rec.request().ts(), req.ts());
            prop_assert_eq!(rec.request().op(), req.op());
        }
    }

    /// Block spans cover exactly the bytes of the request: every touched
    /// byte falls in an emitted block and every emitted block overlaps
    /// the byte range.
    #[test]
    fn block_span_covers_range(
        offset in 0u64..(1 << 40),
        len in 0u32..(1 << 18),
        shift in 9u32..17,
    ) {
        let bs = BlockSize::new(1 << shift).unwrap();
        let blocks: Vec<_> = bs.span(offset, len).collect();
        prop_assert_eq!(blocks.len() as u64, bs.count(offset, len));
        if len == 0 {
            prop_assert!(blocks.is_empty());
        } else {
            // first block contains `offset`, last contains the final byte
            prop_assert_eq!(*blocks.first().unwrap(), bs.block_of(offset));
            prop_assert_eq!(*blocks.last().unwrap(), bs.block_of(offset + u64::from(len) - 1));
            // blocks are consecutive
            for w in blocks.windows(2) {
                prop_assert_eq!(w[1].get(), w[0].get() + 1);
            }
        }
    }

    /// Merging sorted runs yields a sorted, complete permutation.
    #[test]
    fn merge_by_time_is_sorted_permutation(
        mut runs in proptest::collection::vec(
            proptest::collection::vec(arb_request(), 0..50),
            0..6,
        )
    ) {
        for run in &mut runs {
            sort_by_time(run);
        }
        let expected: usize = runs.iter().map(Vec::len).sum();
        let merged: Vec<_> =
            MergeByTime::new(runs.iter().cloned().map(Vec::into_iter).collect()).collect();
        prop_assert_eq!(merged.len(), expected);
        prop_assert!(is_sorted_by_time(&merged));
        // multiset equality via sorted comparison
        let mut all: Vec<_> = runs.concat();
        let mut merged_sorted = merged.clone();
        let key = |r: &IoRequest| (r.ts(), r.volume(), r.offset(), r.len(), r.op().index());
        all.sort_by_key(key);
        merged_sorted.sort_by_key(key);
        prop_assert_eq!(all, merged_sorted);
    }

    /// Trace construction preserves every request and sorts per volume.
    #[test]
    fn trace_grouping_invariants(reqs in proptest::collection::vec(arb_request(), 0..300)) {
        let trace = Trace::from_requests(reqs.clone());
        prop_assert_eq!(trace.request_count(), reqs.len());
        let mut seen = 0usize;
        for view in trace.volumes() {
            prop_assert!(is_sorted_by_time(view.requests()));
            prop_assert!(view.requests().iter().all(|r| r.volume() == view.id()));
            seen += view.len();
        }
        prop_assert_eq!(seen, reqs.len());
        // global time order is sorted as well
        let merged: Vec<_> = trace.iter_time_ordered().collect();
        prop_assert!(is_sorted_by_time(&merged));
    }
}

fn encode_cbt(reqs: &[IoRequest], block_capacity: usize) -> Vec<u8> {
    let mut writer = CbtWriter::with_block_capacity(Vec::new(), block_capacity);
    writer
        .write_batch(&RequestBatch::from(reqs))
        .expect("Vec sink never fails");
    writer.finish().expect("Vec sink never fails")
}

fn decode_cbt(bytes: &[u8]) -> Result<Vec<IoRequest>, cbs_trace::CbtError> {
    let mut reader = CbtReader::new(bytes);
    let mut out = Vec::new();
    while let Some(batch) = reader.read_batch()? {
        out.extend(batch.iter());
    }
    Ok(out)
}

proptest! {
    /// CSV → CBT → decode is bit-identical to direct CSV decoding for
    /// the AliCloud dialect, at every block capacity.
    #[test]
    fn cbt_matches_direct_alicloud_decode(
        reqs in proptest::collection::vec(arb_request(), 0..400),
        block_capacity in 1usize..300,
    ) {
        let mut csv = Vec::new();
        AliCloudWriter::new(&mut csv).write_all(&reqs).unwrap();
        let direct: Vec<IoRequest> = AliCloudReader::new(&csv[..])
            .collect::<Result<_, _>>()
            .unwrap();
        let via_cbt = decode_cbt(&encode_cbt(&direct, block_capacity)).unwrap();
        prop_assert_eq!(via_cbt, direct);
    }

    /// The same property for the MSRC dialect, going through the
    /// columnar batch decoder (the `cbs-convert` path): the requests a
    /// CBT file yields are bit-identical to a direct sequential read.
    #[test]
    fn cbt_matches_direct_msrc_decode(
        reqs in proptest::collection::vec(arb_request(), 0..300),
        block_capacity in 1usize..300,
    ) {
        let mut csv = Vec::new();
        {
            let mut w = MsrcWriter::new(&mut csv);
            for r in &reqs {
                w.write_record(r, "host", r.volume().get() % 5, TimeDelta::from_micros(9))
                    .unwrap();
            }
        }
        let mut seq_reader = MsrcReader::new(&csv[..]);
        let mut direct = Vec::new();
        for item in &mut seq_reader {
            direct.push(item.unwrap().into_request());
        }

        let decoder = cbs_trace::ParallelDecoder::new().with_threads(2).with_chunk_size(4096);
        let mut registry = VolumeRegistry::new();
        let mut writer = CbtWriter::with_block_capacity(Vec::new(), block_capacity);
        decoder
            .decode_msrc_batches(&csv[..], &mut registry, |batch| {
                writer.write_batch(&batch).unwrap();
            })
            .unwrap();
        let bytes = writer.finish().unwrap();
        let via_cbt = decode_cbt(&bytes).unwrap();
        prop_assert_eq!(via_cbt, direct);
    }

    /// Truncating a CBT stream anywhere either raises an error or — when
    /// the cut falls exactly on a block boundary, which the format cannot
    /// distinguish from a clean end of stream — yields a strict prefix of
    /// whole blocks, never garbled or reordered records.
    #[test]
    fn cbt_truncation_never_yields_wrong_records(
        reqs in proptest::collection::vec(arb_request(), 1..200),
        block_capacity in 1usize..64,
        cut_seed in 0usize..10_000,
    ) {
        let bytes = encode_cbt(&reqs, block_capacity);
        let cut = cut_seed % bytes.len(); // strictly shorter than the stream
        match decode_cbt(&bytes[..cut]) {
            Err(_) => {}
            Ok(decoded) => {
                prop_assert!(decoded.len() < reqs.len());
                prop_assert_eq!(decoded.len() % block_capacity, 0, "partial block yielded");
                prop_assert_eq!(&decoded[..], &reqs[..decoded.len()]);
            }
        }
    }

    /// The zero-copy slice reader (the mmap path) is bit-identical to
    /// the buffered reader on the same stream: same records, same
    /// per-block boundaries, and the same error at the same point for
    /// truncated or corrupted input, with both poisoning afterwards.
    #[test]
    fn cbt_slice_reader_matches_buffered(
        reqs in proptest::collection::vec(arb_request(), 0..200),
        block_capacity in 1usize..64,
        damage_seed in 0usize..10_000,
        flip in 0u8..=255,
    ) {
        let mut bytes = encode_cbt(&reqs, block_capacity);
        // flip == 0 leaves the stream clean; otherwise damage one byte
        // (any byte: header, block header, payload) or truncate.
        if flip != 0 && !bytes.is_empty() {
            let pos = damage_seed % bytes.len();
            if damage_seed % 3 == 0 {
                bytes.truncate(pos);
            } else {
                bytes[pos] ^= flip;
            }
        }

        let mut buffered = CbtReader::new(&bytes[..]);
        let mut sliced = cbs_trace::CbtSliceReader::new(&bytes);
        loop {
            let b = buffered.read_batch();
            let s = sliced.read_batch_ref();
            match (b, s) {
                (Ok(Some(bb)), Ok(Some(sb))) => {
                    prop_assert_eq!(bb.as_ref(), sb);
                }
                (Ok(None), Ok(None)) => break,
                (Err(be), Err(se)) => {
                    prop_assert_eq!(format!("{be:?}"), format!("{se:?}"));
                    // Both must now be poisoned.
                    prop_assert!(matches!(
                        buffered.read_batch(),
                        Err(cbs_trace::CbtError::Poisoned)
                    ));
                    prop_assert!(matches!(
                        sliced.read_batch_ref(),
                        Err(cbs_trace::CbtError::Poisoned)
                    ));
                    break;
                }
                (b, s) => prop_assert!(
                    false,
                    "readers diverged: buffered={:?} sliced={:?}",
                    b.map(|o| o.map(|x| x.len())),
                    s.map(|o| o.map(|x| x.len()))
                ),
            }
        }
    }

    /// `Mmap::open` + slice reader decodes a real on-disk CBT file to
    /// exactly the records that were written.
    #[test]
    fn cbt_mmap_roundtrip(
        reqs in proptest::collection::vec(arb_request(), 0..120),
        block_capacity in 1usize..48,
    ) {
        let bytes = encode_cbt(&reqs, block_capacity);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "cbs-trace-proptest-{}-{}.cbt",
            std::process::id(),
            reqs.len()
        ));
        std::fs::write(&path, &bytes).expect("write temp file");
        let map = cbs_trace::Mmap::open(&path).expect("map");
        let mut reader = cbs_trace::CbtSliceReader::new(&map);
        let mut decoded = Vec::new();
        while let Some(batch) = reader.read_batch_ref().expect("clean stream") {
            decoded.extend(batch.iter());
        }
        drop(reader);
        drop(map);
        std::fs::remove_file(&path).expect("cleanup");
        prop_assert_eq!(decoded, reqs);
    }

    /// Flipping any byte of a CBT stream is either detected (magic,
    /// version, block header, or checksum failure) or harmless — flips in
    /// the header's unvalidated flags/reserved bytes — never silently
    /// wrong records.
    #[test]
    fn cbt_corruption_never_yields_wrong_records(
        reqs in proptest::collection::vec(arb_request(), 1..200),
        block_capacity in 1usize..64,
        pos_seed in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let bytes = encode_cbt(&reqs, block_capacity);
        let pos = pos_seed % bytes.len();
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= flip;
        match decode_cbt(&corrupted) {
            Err(_) => {}
            Ok(decoded) => {
                // Only the 6 flags/reserved header bytes are ignored by
                // design; nothing else may pass unnoticed.
                prop_assert!((10..16).contains(&pos), "undetected flip at byte {}", pos);
                prop_assert_eq!(decoded, reqs);
            }
        }
    }
}

proptest! {
    /// Parallel chunked decoding is byte-equivalent to sequential
    /// reading for every chunk size: records that straddle chunk
    /// boundaries are never mis-parsed, dropped, or reordered.
    #[test]
    fn parallel_decode_matches_sequential_across_chunk_sizes(
        reqs in proptest::collection::vec(arb_request(), 0..400),
        chunk_size in 4096usize..16384,
        threads in 1usize..5,
    ) {
        let mut buf = Vec::new();
        AliCloudWriter::new(&mut buf).write_all(&reqs).unwrap();
        let sequential: Vec<IoRequest> = AliCloudReader::new(&buf[..])
            .collect::<Result<_, _>>()
            .unwrap();
        let decoder = cbs_trace::ParallelDecoder::new()
            .with_threads(threads)
            .with_chunk_size(chunk_size);
        let mut parallel = Vec::new();
        decoder
            .decode_alicloud_batches(&buf[..], |batch| parallel.extend(batch.iter()))
            .unwrap();
        prop_assert_eq!(parallel, sequential);
    }

    /// The same boundary property for MSRC, including deterministic
    /// first-appearance volume-id assignment across chunks.
    #[test]
    fn parallel_msrc_decode_matches_sequential(
        reqs in proptest::collection::vec(arb_request(), 0..300),
        chunk_size in 4096usize..16384,
        threads in 1usize..5,
    ) {
        let mut buf = Vec::new();
        {
            let mut w = MsrcWriter::new(&mut buf);
            for r in &reqs {
                w.write_record(r, "host", r.volume().get() % 7, TimeDelta::from_micros(5))
                    .unwrap();
            }
        }
        let mut seq_reader = MsrcReader::new(&buf[..]);
        let mut sequential = Vec::new();
        for item in &mut seq_reader {
            sequential.push(item.unwrap().into_request());
        }
        let seq_registry = seq_reader.into_registry();

        let decoder = cbs_trace::ParallelDecoder::new()
            .with_threads(threads)
            .with_chunk_size(chunk_size);
        let mut par_registry = VolumeRegistry::new();
        let mut parallel = Vec::new();
        decoder
            .decode_msrc_batches(&buf[..], &mut par_registry, |batch| {
                parallel.extend(batch.iter())
            })
            .unwrap();
        prop_assert_eq!(parallel, sequential);
        prop_assert_eq!(par_registry.len(), seq_registry.len());
        for (id, name) in seq_registry.iter() {
            prop_assert_eq!(par_registry.name_of(id), Some(name));
        }
    }
}
