//! The by-volume batch driver: [`analyze_trace_parallel`].
//!
//! Every volume of a materialized [`Trace`] is analyzed whole by
//! exactly one worker, so the result is bit-identical at any thread
//! count, inline included. [`crate::Workbench`] is the facade over this
//! one cursor loop.

use std::sync::atomic::{AtomicUsize, Ordering};

use cbs_analysis::{AnalysisConfig, InvalidConfig, VolumeAnalyzer, VolumeMetrics};
use cbs_trace::{Timestamp, Trace};

/// Analyzes every volume of `trace` using up to `threads` worker
/// threads (volumes are independent, so the fan-out is embarrassingly
/// parallel; results are returned in volume-id order regardless of
/// scheduling). `threads = 0` runs the same loop inline on the calling
/// thread — no thread is spawned.
///
/// Workers steal volume indices from a shared atomic cursor and keep
/// their finished `(index, metrics)` pairs thread-local; results are
/// scattered into ordered slots only after the workers join, so no lock
/// is taken per volume and no channel is needed.
///
/// # Errors
///
/// Returns [`InvalidConfig`] if `config` fails validation.
///
/// # Panics
///
/// Propagates panics from worker threads (e.g. the analyzer's
/// debug-build ordering assertions): a panic-interrupted run never
/// yields a partial corpus.
pub fn analyze_trace_parallel(
    trace: &Trace,
    config: &AnalysisConfig,
    threads: usize,
) -> Result<Vec<VolumeMetrics>, InvalidConfig> {
    config.validate()?;
    let epoch = trace.start().unwrap_or(Timestamp::ZERO);
    let views: Vec<_> = trace.volumes().collect();

    let next = AtomicUsize::new(0);
    let steal = || {
        let mut local = Vec::new();
        loop {
            // ORDERING: the ticket counter only partitions indices —
            // fetch_add is exact under Relaxed, and the volume data it
            // indexes was published before the threads spawned.
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= views.len() {
                break;
            }
            // The config was validated at entry, so the per-volume run
            // cannot be rejected.
            if let Ok(metrics) = VolumeAnalyzer::analyze_volume(views[idx], epoch, config) {
                local.push((idx, metrics));
            }
        }
        local
    };
    let per_worker: Vec<Vec<(usize, VolumeMetrics)>> = if threads == 0 {
        vec![steal()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.min(views.len()))
                .map(|_| scope.spawn(steal))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(local) => local,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    };

    let mut slots: Vec<Option<VolumeMetrics>> = (0..views.len()).map(|_| None).collect();
    for (idx, metrics) in per_worker.into_iter().flatten() {
        slots[idx] = Some(metrics);
    }
    debug_assert!(
        slots.iter().all(Option::is_some),
        "a cursor slot was skipped"
    );
    Ok(slots.into_iter().flatten().collect())
}

/// The default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_analysis::analyze_trace;
    use cbs_trace::{IoRequest, OpKind, VolumeId};

    fn sample_trace(volumes: u32, per_volume: u64) -> Trace {
        let mut reqs = Vec::new();
        for v in 0..volumes {
            for i in 0..per_volume {
                reqs.push(IoRequest::new(
                    VolumeId::new(v),
                    if (i + u64::from(v)) % 3 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    (i % 50) * 4096,
                    4096,
                    Timestamp::from_secs(i * (u64::from(v) + 1)),
                ));
            }
        }
        Trace::from_requests(reqs)
    }

    #[test]
    fn parallel_matches_sequential() {
        let trace = sample_trace(8, 200);
        let config = AnalysisConfig::default();
        let seq = analyze_trace(&trace, &config).expect("valid config");
        let par = analyze_trace_parallel(&trace, &config, 4).expect("valid config");
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.id, p.id);
            assert_eq!(s.reads, p.reads);
            assert_eq!(s.writes, p.writes);
            assert_eq!(s.wss_blocks, p.wss_blocks);
            assert_eq!(s.random_requests, p.random_requests);
            assert_eq!(s.active_intervals, p.active_intervals);
            assert_eq!(s.raw_hist, p.raw_hist);
            assert_eq!(s.waw_hist, p.waw_hist);
            assert_eq!(s.update_interval_hist, p.update_interval_hist);
        }
    }

    #[test]
    fn more_threads_than_volumes() {
        let trace = sample_trace(2, 10);
        let out = analyze_trace_parallel(&trace, &AnalysisConfig::default(), 16).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_trace() {
        let out = analyze_trace_parallel(&Trace::new(), &AnalysisConfig::default(), 4).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_runs_inline() {
        let trace = sample_trace(2, 5);
        let out = analyze_trace_parallel(&trace, &AnalysisConfig::default(), 0).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let config = AnalysisConfig {
            randomness_window: 0,
            ..AnalysisConfig::default()
        };
        let err = analyze_trace_parallel(&Trace::new(), &config, 4).unwrap_err();
        assert!(err.message().contains("randomness_window"));
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
