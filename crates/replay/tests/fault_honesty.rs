//! A replay that meets a fault must say so, in the numbers it reports.
//!
//! The issue loop carries one clock reading from a request's
//! completion to the next request's issue. These tests inject the
//! faults under which a reading carried too far would flatter the
//! engine — a backend that stalls, a stall outside the loop, a backend
//! that fails — and pin what the report and the registry must then
//! show, for the inline engine ([`Replayer`]) and for [`LaneSet`] at
//! one and three lanes:
//!
//! * every stall is in the service-time sum, and the requests queued
//!   behind it on its lane are late by it;
//! * time spent outside the loop (the source, the `observe` hook, a
//!   lane blocked on its channel) is lateness too: it shows as lag on
//!   the next request, not as nothing;
//! * a recorded-pace run still waits for its targets;
//! * a failed call ends the run with the backend's name, and what was
//!   issued before it — the failed call's own samples included — still
//!   reaches the registry.
//!
//! `FaultyBackend` lives here, not in the crate: no product API.

#![allow(clippy::expect_used, reason = "test helpers fail the test")]

use std::io;
use std::time::Duration;

use cbs_obs::Registry;
use cbs_replay::{LaneSet, ReplayError, Replayer, StorageBackend, Timing};
use cbs_trace::{IoRequest, OpKind, Timestamp, VolumeId};

const STALL: Duration = Duration::from_millis(2);
const STALL_NANOS: u64 = 2_000_000;

/// Lane counts every law is checked at (besides the inline engine).
const LANE_COUNTS: [usize; 2] = [1, 3];

/// A backend that sleeps [`STALL`] on every `stall_every`-th call and
/// returns `EIO` on the `fail_at`-th (`0` = never, for both), counting
/// what it did so a test can hold the report against it.
#[derive(Debug, Default)]
struct FaultyBackend {
    stall_every: u64,
    fail_at: u64,
    calls: u64,
    ok: u64,
    stalls: u64,
}

impl FaultyBackend {
    fn stalling(stall_every: u64) -> Self {
        FaultyBackend {
            stall_every,
            ..FaultyBackend::default()
        }
    }

    fn failing_at(fail_at: u64) -> Self {
        FaultyBackend {
            fail_at,
            ..FaultyBackend::default()
        }
    }

    fn call(&mut self) -> io::Result<()> {
        self.calls += 1;
        if self.stall_every != 0 && self.calls % self.stall_every == 0 {
            std::thread::sleep(STALL);
            self.stalls += 1;
        }
        if self.calls == self.fail_at {
            return Err(io::Error::from_raw_os_error(5)); // EIO
        }
        self.ok += 1;
        Ok(())
    }

    /// Stalls that happened before this backend's last call returned —
    /// the ones its last request was queued behind.
    fn stalls_before_last_call(&self) -> u64 {
        self.calls.saturating_sub(1) / self.stall_every
    }
}

impl StorageBackend for FaultyBackend {
    fn name(&self) -> &'static str {
        "faulty"
    }
    fn read(&mut self, _v: VolumeId, _o: u64, _l: u32) -> io::Result<()> {
        self.call()
    }
    fn write(&mut self, _v: VolumeId, _o: u64, _l: u32) -> io::Result<()> {
        self.call()
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `n` requests over 8 volumes, `gap_us` apart on the recorded clock.
fn stream(n: u64, gap_us: u64) -> Vec<IoRequest> {
    (0..n)
        .map(|i| {
            IoRequest::new(
                VolumeId::new((i % 8) as u32),
                if i % 4 == 0 {
                    OpKind::Write
                } else {
                    OpKind::Read
                },
                i * 4096,
                4096,
                Timestamp::from_micros(i * gap_us),
            )
        })
        .collect()
}

fn x1000() -> Timing {
    Timing::multiplier(1000.0).expect("valid rate")
}

/// (i) Backend stalls. 1 024 requests 1 µs apart at ×1000 are all due
/// within the first microsecond, so each is issued as soon as the one
/// before it on its lane completes — and is late by every stall before
/// it. A reading not re-taken after the backend call would issue the
/// requests behind a stall "on time".
#[test]
fn backend_stalls_are_served_and_seen_by_the_requests_behind_them() {
    const N: u64 = 1024;
    const EVERY: u64 = 64;
    let reqs = stream(N, 1);
    let span_nanos = N; // last target: 1 023 µs / 1000

    let mut replayer = Replayer::new(FaultyBackend::stalling(EVERY)).with_timing(x1000());
    let report = replayer
        .run(reqs.iter().copied())
        .expect("stalls are not errors");
    let backend = replayer.backend();
    assert_eq!(backend.stalls, N / EVERY);
    assert_eq!((report.requests, backend.ok), (N, N));
    assert_eq!((report.issue_lag.count, report.backend.count), (N, N));
    assert!(
        report.backend.sum >= backend.stalls * STALL_NANOS,
        "service time lost a stall: {} ns over {} stalls",
        report.backend.sum,
        backend.stalls
    );
    assert!(
        report.issue_lag.max + span_nanos >= backend.stalls_before_last_call() * STALL_NANOS,
        "the last request was not late by the stalls before it: max lag {} ns",
        report.issue_lag.max
    );

    for lanes in LANE_COUNTS {
        let mut set = LaneSet::new(lanes, |_| FaultyBackend::stalling(EVERY)).with_timing(x1000());
        let report = set
            .run(reqs.iter().copied())
            .expect("stalls are not errors");
        let merged = &report.merged;
        assert_eq!(merged.requests, N, "lanes={lanes}");
        assert_eq!(
            (merged.issue_lag.count, merged.backend.count),
            (N, N),
            "lanes={lanes}"
        );
        // Each lane's backend counts its own calls, so stalls fall on
        // every 64th call *of a lane*.
        let stalls: u64 = set.backends().iter().map(|b| b.stalls).sum();
        assert!(
            stalls >= N / EVERY - lanes as u64,
            "lanes={lanes}: {stalls}"
        );
        assert!(
            merged.backend.sum >= stalls * STALL_NANOS,
            "lanes={lanes}: service time lost a stall: {} ns over {stalls} stalls",
            merged.backend.sum
        );
        for (lane, backend) in report.per_lane.iter().zip(set.backends()) {
            assert_eq!(
                lane.requests, backend.ok,
                "lanes={lanes} lane {}",
                lane.lane
            );
            assert_eq!(lane.backend.count, backend.calls);
            assert!(lane.backend.sum >= backend.stalls * STALL_NANOS);
            assert!(
                lane.issue_lag.max + span_nanos >= backend.stalls_before_last_call() * STALL_NANOS,
                "lanes={lanes} lane {}: max lag {} ns behind {} stalls",
                lane.lane,
                lane.issue_lag.max,
                backend.stalls_before_last_call()
            );
        }
    }
}

/// (i, outside the loop) A stall the loop does not see happen — here
/// the `observe` hook sleeping before the first request is handed over,
/// so a lane's first batch reaches it 2 ms into the run — is lateness
/// all the same. Every request is due in the first microsecond, so
/// every one of them is at least 2 ms late; a reading carried across
/// the hook, or across the lane's channel receive, would report the
/// first request of the run (of each lane) as on time.
#[test]
fn a_stall_outside_the_loop_is_reported_as_lag() {
    const N: u64 = 1024;
    let reqs = stream(N, 1);
    let span_nanos = N;
    let stall_before_first = || {
        let mut first = true;
        move |_req: IoRequest| {
            if std::mem::take(&mut first) {
                std::thread::sleep(STALL);
            }
        }
    };

    let mut replayer = Replayer::new(FaultyBackend::default()).with_timing(x1000());
    let report = replayer
        .run_observed(reqs.iter().copied(), stall_before_first())
        .expect("no fault injected");
    assert_eq!(report.issue_lag.count, N);
    assert!(
        report.issue_lag.min + span_nanos >= STALL_NANOS,
        "inline: a request behind the hook's stall was issued only {} ns late",
        report.issue_lag.min
    );

    for lanes in LANE_COUNTS {
        let mut set = LaneSet::new(lanes, |_| FaultyBackend::default()).with_timing(x1000());
        let report = set
            .run_observed(reqs.iter().copied(), stall_before_first())
            .expect("no fault injected");
        assert_eq!(report.merged.issue_lag.count, N, "lanes={lanes}");
        for lane in &report.per_lane {
            assert!(
                lane.issue_lag.min + span_nanos >= STALL_NANOS,
                "lanes={lanes} lane {}: a request behind the feeder's stall was issued only {} ns late",
                lane.lane,
                lane.issue_lag.min
            );
        }
    }
}

/// (ii) Recorded pace: 20 requests 5 ms apart at ×1. The run cannot
/// end before its last target, and the typical request goes out within
/// a millisecond of its own (p50, not p99: the shared host stalls a
/// thread for milliseconds at will). A stale reading would skip the
/// wait or misstate the lag.
#[test]
fn recorded_pace_waits_for_every_target() {
    const N: u64 = 20;
    const GAP_US: u64 = 5_000;
    let reqs = stream(N, GAP_US);
    let offered = (N - 1) * GAP_US * 1000;
    let check = |who: &str, report: &cbs_replay::ReplayReport| {
        assert_eq!(report.offered_nanos, offered, "{who}");
        assert!(
            report.wall_nanos >= offered,
            "{who}: finished {} ns before the last target",
            offered - report.wall_nanos
        );
        assert_eq!(report.issue_lag.count, N, "{who}");
        assert!(
            report.issue_lag.p50 < 1_000_000,
            "{who}: median lag {} ns",
            report.issue_lag.p50
        );
        assert!(report.slept_nanos > 0, "{who}: pacing means sleeping");
    };

    let mut replayer = Replayer::new(FaultyBackend::default());
    check(
        "inline",
        &replayer.run(reqs.iter().copied()).expect("no fault"),
    );
    for lanes in LANE_COUNTS {
        let mut set = LaneSet::new(lanes, |_| FaultyBackend::default());
        let report = set.run(reqs.iter().copied()).expect("no fault");
        check(&format!("lanes={lanes}"), &report.merged);
    }
}

/// (iii) `EIO` on a backend's `k`-th call ends the run with
/// [`ReplayError::Backend`] naming it — and the run's numbers still
/// reach the registry: `replay.requests` counts exactly the calls that
/// returned `Ok`, the lag and service histograms hold one sample per
/// call made, the failed one included. A tally dropped on the error
/// path would leave all three at zero.
#[test]
fn a_failed_call_ends_the_run_and_keeps_its_numbers() {
    const K: u64 = 300;
    let reqs = stream(4096, 1);
    let is_faulty_backend_error = |err: &ReplayError| {
        matches!(
            err,
            ReplayError::Backend { backend: "faulty", source } if source.raw_os_error() == Some(5)
        )
    };

    let registry = Registry::new();
    let mut replayer =
        Replayer::with_registry(FaultyBackend::failing_at(K), &registry).with_timing(x1000());
    let err = replayer
        .run(reqs.iter().copied())
        .expect_err("call K fails the run");
    assert!(is_faulty_backend_error(&err), "{err}");
    assert_eq!(replayer.backend().calls, K, "the run stops at the failure");
    assert_eq!(registry.counter("replay.requests").get(), K - 1);
    assert_eq!(registry.counter("replay.bytes").get(), (K - 1) * 4096);
    assert_eq!(registry.histogram("replay.issue_lag_nanos").count(), K);
    assert_eq!(registry.histogram("replay.backend_nanos").count(), K);

    for lanes in LANE_COUNTS {
        let registry = Registry::new();
        let mut set = LaneSet::new(lanes, |_| FaultyBackend::failing_at(K))
            .with_timing(x1000())
            .with_registry(&registry);
        let err = set
            .run(reqs.iter().copied())
            .expect_err("call K fails the run");
        assert!(is_faulty_backend_error(&err), "lanes={lanes}: {err}");
        // Every lane stops at its own K-th call or when the feeder,
        // having met the dead lane, stops feeding; the backends say
        // how far each got.
        let calls: u64 = set.backends().iter().map(|b| b.calls).sum();
        let ok: u64 = set.backends().iter().map(|b| b.ok).sum();
        assert!(ok < calls, "lanes={lanes}: some call failed");
        assert!(set.backends().iter().all(|b| b.calls <= K));
        assert_eq!(
            registry.counter("replay.requests").get(),
            ok,
            "lanes={lanes}"
        );
        assert_eq!(registry.counter("replay.bytes").get(), ok * 4096);
        assert_eq!(
            registry.histogram("replay.issue_lag_nanos").count(),
            calls,
            "lanes={lanes}"
        );
        assert_eq!(registry.histogram("replay.backend_nanos").count(), calls);
        for (lane, backend) in set.backends().iter().enumerate() {
            let name = format!("replay.lane{lane}.requests");
            assert_eq!(registry.counter(&name).get(), backend.ok, "{name}");
        }
    }
}
