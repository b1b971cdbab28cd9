//! Replay ≡ analysis: a null-backend replay observed back into the
//! workbench must be *metric-identical* to analyzing the source trace
//! directly — replay changes when requests are issued, never what they
//! are. This is the end-to-end conservation law on top of the
//! per-request remap laws proptested in `crates/replay/tests`.

use cbs_core::prelude::*;
use cbs_replay::CbtSliceRequests;
use cbs_trace::{CbtSliceReader, CbtWriter};

/// A small mixed trace spanning ~40 ms so even recorded (×1) pacing
/// replays in well under a second.
fn short_trace() -> Trace {
    let reqs: Vec<IoRequest> = (0..600u64)
        .map(|i| {
            IoRequest::new(
                VolumeId::new((i % 7) as u32),
                if i % 3 == 0 {
                    OpKind::Write
                } else {
                    OpKind::Read
                },
                (i * 37 % 512) * 4096,
                ((i % 4) as u32 + 1) * 4096,
                Timestamp::from_micros(i * 66),
            )
        })
        .collect();
    Trace::from_requests(reqs)
}

fn analyze_requests(reqs: Vec<IoRequest>) -> Analysis {
    Workbench::new(Trace::from_requests(reqs)).analyze()
}

#[test]
fn recorded_x1_replay_matches_direct_analysis() {
    let trace = short_trace();
    let direct = Workbench::new(trace.clone()).analyze();

    let mut replayed = Vec::new();
    let mut replayer = Replayer::new(NullBackend::new()); // Timing::recorded() default
    let report = replayer
        .run_observed(trace.iter_time_ordered(), |req| replayed.push(req))
        .expect("null replay cannot fail");

    assert_eq!(report.requests, trace.request_count() as u64);
    assert!(
        report.wall_nanos >= report.offered_nanos,
        "recorded pacing must take at least the trace span"
    );

    let re = analyze_requests(replayed);
    assert_eq!(
        direct.metrics(),
        re.metrics(),
        "×1 replayed stream must re-analyze metric-identical"
    );
}

#[test]
fn x1000_replay_of_synthetic_corpus_matches_direct() {
    // A one-hour synthetic corpus compresses to ~3.6 s at ×1000.
    let config = CorpusConfig::new(6, 0, 17)
        .with_extra_hours(1)
        .with_intensity_scale(0.02);
    let generator = cbs_synth::presets::alicloud_like(&config);
    let direct = Workbench::new(generator.generate()).analyze();

    let mut replayed = Vec::new();
    let mut replayer = Replayer::new(NullBackend::new())
        .with_timing(Timing::multiplier(1000.0).expect("valid rate"));
    let report = replayer
        .run_observed(generator.stream(), |req| replayed.push(req))
        .expect("null replay cannot fail");

    assert_eq!(report.requests, direct.totals().requests());
    let re = analyze_requests(replayed);
    assert_eq!(
        direct.metrics(),
        re.metrics(),
        "×1000 replayed corpus must re-analyze metric-identical"
    );
}

#[test]
fn replay_through_cbt_round_trip_matches_direct() {
    // Full pipeline: trace → CBT encode → zero-copy slice decode →
    // replay → re-analysis, against analyzing the original directly.
    let trace = short_trace();
    let direct = Workbench::new(trace.clone()).analyze();

    let mut encoded = Vec::new();
    let mut w = CbtWriter::new(&mut encoded);
    for req in trace.iter_time_ordered() {
        w.write_request(&req).expect("in-memory CBT write");
    }
    w.finish().expect("in-memory CBT finish");

    let mut replayed = Vec::new();
    let mut replayer = Replayer::new(MemBackend::new())
        .with_timing(Timing::multiplier(1000.0).expect("valid rate"));
    let source = CbtSliceRequests::new(CbtSliceReader::new(&encoded));
    let mut failed = false;
    let report = replayer
        .run_observed(
            source.map_while(|r| match r {
                Ok(req) => Some(req),
                Err(_) => {
                    failed = true;
                    None
                }
            }),
            |req| replayed.push(req),
        )
        .expect("mem replay cannot fail");
    assert!(!failed, "clean CBT stream must decode fully");
    assert_eq!(report.requests, trace.request_count() as u64);
    assert!(
        replayer.backend().page_count() > 0,
        "writes must materialize pages"
    );

    let re = analyze_requests(replayed);
    assert_eq!(direct.metrics(), re.metrics());
}

/// The lane counts every multi-lane law must hold at: an even split,
/// a larger even split, and a prime that never divides the volume
/// count evenly.
const LANE_COUNTS: [usize; 3] = [2, 4, 7];

#[test]
fn recorded_x1_lane_replay_matches_direct_analysis() {
    // The ×1 identity law survives sharding: the feeder observes the
    // post-remap stream in source order before fanning out, so the
    // re-analysis is lane-count-invariant.
    let trace = short_trace();
    let direct = Workbench::new(trace.clone()).analyze();

    for lanes in LANE_COUNTS {
        let mut replayed = Vec::new();
        let mut set = LaneSet::new(lanes, |_| NullBackend::new()); // recorded pacing default
        let multi = set
            .run_observed(trace.iter_time_ordered(), |req| replayed.push(req))
            .expect("null lane replay cannot fail");

        assert_eq!(multi.merged.requests, trace.request_count() as u64);
        assert!(
            multi.merged.wall_nanos >= multi.merged.offered_nanos,
            "recorded pacing must take at least the trace span at {lanes} lanes"
        );

        let re = analyze_requests(replayed);
        assert_eq!(
            direct.metrics(),
            re.metrics(),
            "×1 lane-replayed stream must re-analyze metric-identical at {lanes} lanes"
        );
    }
}

#[test]
fn x1000_lane_replay_of_synthetic_corpus_matches_direct() {
    // The ×1000 identity law at every lane count, over the same
    // corpus as the single-lane test above.
    let config = CorpusConfig::new(6, 0, 17)
        .with_extra_hours(1)
        .with_intensity_scale(0.02);
    let generator = cbs_synth::presets::alicloud_like(&config);
    let direct = Workbench::new(generator.generate()).analyze();

    for lanes in LANE_COUNTS {
        let mut replayed = Vec::new();
        let mut set = LaneSet::new(lanes, |_| NullBackend::new())
            .with_timing(Timing::multiplier(1000.0).expect("valid rate"));
        let multi = set
            .run_observed(generator.stream(), |req| replayed.push(req))
            .expect("null lane replay cannot fail");

        assert_eq!(multi.merged.requests, direct.totals().requests());
        let re = analyze_requests(replayed);
        assert_eq!(
            direct.metrics(),
            re.metrics(),
            "×1000 lane-replayed corpus must re-analyze metric-identical at {lanes} lanes"
        );
    }
}

#[test]
fn lane_fan_out_then_merge_round_trips_metrics() {
    // fanout:3 ∘ merge:3 ≡ identity must survive sharding both
    // stages — remap happens centrally in the feeder, so routing can
    // never split one post-remap volume across lanes.
    let trace = short_trace();
    let direct = Workbench::new(trace.clone()).analyze();

    for lanes in LANE_COUNTS {
        let mut fanned = Vec::new();
        let mut set = LaneSet::new(lanes, |_| NullBackend::new())
            .with_timing(Timing::multiplier(1000.0).expect("valid rate"))
            .with_remap(Remap::fan_out(3).expect("nonzero factor"));
        set.run_observed(trace.iter_time_ordered(), |req| fanned.push(req))
            .expect("fan-out lane replay");

        let mut merged = Vec::new();
        let mut set = LaneSet::new(lanes, |_| NullBackend::new())
            .with_timing(Timing::multiplier(1000.0).expect("valid rate"))
            .with_remap(Remap::merge_into(3).expect("nonzero factor"));
        set.run_observed(fanned, |req| merged.push(req))
            .expect("merge lane replay");

        let re = analyze_requests(merged);
        assert_eq!(
            direct.metrics(),
            re.metrics(),
            "fanout:3 ∘ merge:3 must be the identity on metrics at {lanes} lanes"
        );
    }
}

#[test]
fn lane_mem_backend_state_is_deterministic() {
    // Mem-backend determinism: sticky per-volume routing makes the
    // union of the lane page stores equal the single-lane store, and
    // repeating the run reproduces it exactly.
    let trace = short_trace();

    let mut single = Replayer::new(MemBackend::new())
        .with_timing(Timing::multiplier(1000.0).expect("valid rate"));
    single
        .run(trace.iter_time_ordered())
        .expect("single-lane mem replay");
    let single_pages = single.backend().page_count();
    let single_bytes = single.backend().resident_bytes();
    assert!(single_pages > 0, "writes must materialize pages");

    for lanes in LANE_COUNTS {
        let mut seen = None;
        for _run in 0..2 {
            let mut set = LaneSet::new(lanes, |_| MemBackend::new())
                .with_timing(Timing::multiplier(1000.0).expect("valid rate"));
            set.run(trace.iter_time_ordered())
                .expect("multi-lane mem replay");
            let pages: usize = set.backends().iter().map(MemBackend::page_count).sum();
            let bytes: u64 = set.backends().iter().map(MemBackend::resident_bytes).sum();
            assert_eq!(
                (pages, bytes),
                (single_pages, single_bytes),
                "lane mem state must conserve the single-lane store at {lanes} lanes"
            );
            if let Some(prev) = seen {
                assert_eq!(
                    prev,
                    (pages, bytes),
                    "repeat runs must be deterministic at {lanes} lanes"
                );
            }
            seen = Some((pages, bytes));
        }
    }
}

#[test]
fn fan_out_then_merge_round_trips_metrics() {
    // fanout:n relocates volume v's requests onto v*n..v*n+n and
    // merge:n folds them straight back — the composition is the
    // identity on every per-volume metric.
    let trace = short_trace();
    let direct = Workbench::new(trace.clone()).analyze();

    let mut fanned = Vec::new();
    let mut replayer = Replayer::new(NullBackend::new())
        .with_timing(Timing::multiplier(1000.0).expect("valid rate"))
        .with_remap(Remap::fan_out(3).expect("nonzero factor"));
    replayer
        .run_observed(trace.iter_time_ordered(), |req| fanned.push(req))
        .expect("fan-out replay");

    let mut merged = Vec::new();
    let mut replayer = Replayer::new(NullBackend::new())
        .with_timing(Timing::multiplier(1000.0).expect("valid rate"))
        .with_remap(Remap::merge_into(3).expect("nonzero factor"));
    replayer
        .run_observed(fanned, |req| merged.push(req))
        .expect("merge replay");

    let re = analyze_requests(merged);
    assert_eq!(
        direct.metrics(),
        re.metrics(),
        "fanout:3 ∘ merge:3 must be the identity on metrics"
    );
}
