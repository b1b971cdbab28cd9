//! Integration: a synthetic corpus survives a round-trip through each
//! on-disk codec with identical analysis results.

use std::io::{BufReader, BufWriter};

use cbs_analysis::{analyze_trace, AnalysisConfig};
use cbs_core::prelude::*;
use cbs_trace::codec::alicloud::{AliCloudReader, AliCloudWriter};
use cbs_trace::codec::msrc::{MsrcReader, MsrcWriter};

fn corpus() -> Trace {
    let config = CorpusConfig::new(6, 1, 13).with_intensity_scale(0.002);
    cbs_synth::presets::alicloud_like(&config).generate()
}

#[test]
fn alicloud_codec_roundtrip_preserves_analysis() {
    let trace = corpus();
    let path = std::env::temp_dir().join("cbs_test_roundtrip.alicloud.csv");
    {
        let file = std::fs::File::create(&path).unwrap();
        let mut writer = AliCloudWriter::new(BufWriter::new(file));
        for req in trace.iter_time_ordered() {
            writer.write_request(&req).unwrap();
        }
        writer.into_inner().unwrap();
    }
    let reader = AliCloudReader::new(BufReader::new(std::fs::File::open(&path).unwrap()));
    let restored = Trace::from_records(reader).unwrap();
    std::fs::remove_file(&path).unwrap();

    assert_eq!(restored.request_count(), trace.request_count());
    assert_eq!(restored.volume_count(), trace.volume_count());

    // The analyses must be identical, not just the counts.
    let config = AnalysisConfig::default();
    let before = analyze_trace(&trace, &config, 0).expect("valid config");
    let after = analyze_trace(&restored, &config, 0).expect("valid config");
    assert_eq!(before.len(), after.len());
    for (b, a) in before.iter().zip(&after) {
        assert_eq!(b.id, a.id);
        assert_eq!(b.reads, a.reads);
        assert_eq!(b.writes, a.writes);
        assert_eq!(b.read_bytes, a.read_bytes);
        assert_eq!(b.write_bytes, a.write_bytes);
        assert_eq!(b.wss_blocks, a.wss_blocks);
        assert_eq!(b.wss_update_blocks, a.wss_update_blocks);
        assert_eq!(b.random_requests, a.random_requests);
        assert_eq!(b.raw_hist, a.raw_hist);
        assert_eq!(b.waw_hist, a.waw_hist);
        assert_eq!(b.rar_hist, a.rar_hist);
        assert_eq!(b.war_hist, a.war_hist);
        assert_eq!(b.update_interval_hist, a.update_interval_hist);
        assert_eq!(b.interarrival_hist, a.interarrival_hist);
        assert_eq!(b.active_intervals, a.active_intervals);
        assert_eq!(b.peak_interval_requests, a.peak_interval_requests);
    }
}

#[test]
fn msrc_codec_roundtrip_preserves_requests() {
    let trace = corpus();
    let mut buf = Vec::new();
    {
        let mut writer = MsrcWriter::new(&mut buf);
        for req in trace.iter_time_ordered() {
            writer
                .write_record(&req, "host", req.volume().get(), TimeDelta::from_micros(50))
                .unwrap();
        }
    }
    let mut reader = MsrcReader::new(&buf[..]);
    let mut count = 0usize;
    let mut bytes = 0u64;
    for record in &mut reader {
        let record = record.unwrap();
        bytes += u64::from(record.request().len());
        assert_eq!(record.response_time(), TimeDelta::from_micros(50));
        count += 1;
    }
    assert_eq!(count, trace.request_count());
    let expected_bytes: u64 = trace.requests().iter().map(|r| u64::from(r.len())).sum();
    assert_eq!(bytes, expected_bytes);
    // every distinct volume got a registry entry
    assert_eq!(reader.into_registry().len(), trace.volume_count());
}

#[test]
fn corrupt_rows_are_reported_with_line_numbers() {
    let text = "419,W,0,4096,10\n419,BAD,0,4096,20\n419,R,0,4096,30\n";
    let results: Vec<_> = AliCloudReader::new(text.as_bytes()).collect();
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert_eq!(results[1].as_ref().unwrap_err().line(), Some(2));
    assert!(results[2].is_ok(), "reader recovers after a bad row");
}
