//! The corpus-partitioned multi-core driver: [`PartitionedWorkbench`].
//!
//! [`crate::Workbench`] fans out per-volume analyzers but reduces their
//! results on one thread with plain collection; this driver is the
//! merge-algebra counterpart: workers produce *partial* per-volume
//! records and the reducer folds them through the MERGEABLE laws
//! ([`VolumeMetrics::merge`] / [`cbs_analysis::VolumeAnalyzer::merge`])
//! — the same reduction `cbs-ctl` applies across processes, exercised
//! here across threads.
//!
//! ```text
//! corpus ──► partition by volume ──► W workers ──► bounded channel ──► merge fold
//!            (each volume whole:      analyze      (partials stream     Analysis
//!             merge is exact)         volumes       back; panic ⇒
//!                                                   poison, no partial
//!                                                   Analysis escapes)
//! ```
//!
//! # Exactness
//!
//! Partitioning is **by volume**: every volume's stream is analyzed
//! whole by exactly one worker, so merged records are bit-identical to
//! the sequential path — the `workers = 0` inline fallback, any worker
//! count, and [`crate::Workbench::analyze`] all produce byte-equal
//! [`Analysis`] results and finding verdicts.
//!
//! Single-volume traces cannot be split by volume; with
//! [`with_block_split`](PartitionedWorkbench::with_block_split) the
//! driver instead partitions the volume's **block range** (CBT block
//! ids striped into contiguous ranges, requests routed by their first
//! block) and folds the per-range analyzers with
//! [`cbs_analysis::VolumeAnalyzer::merge`]. Per-block metrics stay
//! exact; stream-order state (peaks, inter-arrivals, randomness, reuse
//! distances) is partition-scoped as documented on the merge — this
//! mode trades those metrics' exactness for parallelism and is
//! therefore opt-in.
//!
//! # Failure model
//!
//! Poison parity with [`crate::StreamingSession`]: a worker panic
//! closes the results channel, the reducer drains, joins, and re-raises
//! the worker's panic — a panic-interrupted run never yields a partial
//! [`Analysis`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;

use cbs_analysis::{AnalysisConfig, InvalidConfig, VolumeAnalyzer, VolumeMetrics};
use cbs_trace::{Timestamp, Trace};

use crate::workbench::{merge_metrics_by_id, Analysis};

/// Default in-flight partial records per results channel; bounds the
/// reducer's lag behind the workers.
pub const DEFAULT_PARTIAL_DEPTH: usize = 4;

/// Builder for a corpus-partitioned analysis — see the [module
/// docs](self).
///
/// # Example
///
/// ```
/// use cbs_core::PartitionedWorkbench;
/// use cbs_trace::{IoRequest, OpKind, Timestamp, Trace, VolumeId};
///
/// let trace = Trace::from_requests((0..600u64).map(|i| {
///     IoRequest::new(
///         VolumeId::new((i % 3) as u32),
///         if i % 4 == 0 { OpKind::Read } else { OpKind::Write },
///         (i % 32) * 4096,
///         4096,
///         Timestamp::from_micros(i * 700),
///     )
/// }).collect());
/// let parallel = PartitionedWorkbench::new().with_workers(2).analyze(trace.clone());
/// let inline = PartitionedWorkbench::new().with_workers(0).analyze(trace);
/// assert_eq!(parallel.metrics(), inline.metrics());
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedWorkbench {
    config: AnalysisConfig,
    workers: usize,
    channel_depth: usize,
    block_split: bool,
}

impl Default for PartitionedWorkbench {
    fn default() -> Self {
        Self::new()
    }
}

impl PartitionedWorkbench {
    /// Creates a driver with the paper's default analysis parameters
    /// and one worker per available core.
    pub fn new() -> Self {
        PartitionedWorkbench {
            config: AnalysisConfig::default(),
            workers: crate::parallel::default_threads(),
            channel_depth: DEFAULT_PARTIAL_DEPTH,
            block_split: false,
        }
    }

    /// Uses custom analysis parameters.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if the config fails validation.
    pub fn with_config(mut self, config: AnalysisConfig) -> Result<Self, InvalidConfig> {
        config.validate()?;
        self.config = config;
        Ok(self)
    }

    /// Sets the worker thread count. `0` selects the inline fallback:
    /// no threads, but the identical partition/merge code path — the
    /// reference the threaded runs are compared against.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets how many partial per-volume records may be in flight on
    /// the results channel (min 1) before workers block.
    #[must_use]
    pub fn with_channel_depth(mut self, depth: usize) -> Self {
        self.channel_depth = depth.max(1);
        self
    }

    /// Enables block-range partitioning for single-volume traces (see
    /// the [module docs](self) for the exactness trade-off). Off by
    /// default; has no effect on multi-volume corpora.
    #[must_use]
    pub fn with_block_split(mut self, block_split: bool) -> Self {
        self.block_split = block_split;
        self
    }

    /// Configured worker count (`0` = inline fallback).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Characterizes the corpus, partitioning across the configured
    /// workers and merging partials — bit-identical to
    /// [`crate::Workbench::analyze`] (by-volume mode).
    ///
    /// # Panics
    ///
    /// Propagates worker panics (poison parity: no partial
    /// [`Analysis`] is ever returned).
    pub fn analyze(self, trace: Trace) -> Analysis {
        let epoch = trace.start().unwrap_or(Timestamp::ZERO);
        let metrics = if self.block_split && trace.volume_count() == 1 && self.workers >= 2 {
            self.analyze_block_split(&trace, epoch)
        } else {
            self.analyze_by_volume(&trace, epoch)
        };
        match Analysis::from_parts(trace, self.config, metrics) {
            Ok(analysis) => analysis,
            // cbs-lint: allow(no-panic-in-lib) -- with_config validated the config, so rejection is unreachable
            Err(e) => unreachable!("validated config rejected: {e}"),
        }
    }

    /// By-volume partitioning: workers steal volume indices from a
    /// shared cursor, analyze each volume whole, and stream the
    /// finished record over a bounded channel to the reducer, which
    /// folds arrivals through [`merge_metrics_by_id`] as they land.
    fn analyze_by_volume(&self, trace: &Trace, epoch: Timestamp) -> Vec<VolumeMetrics> {
        let views: Vec<_> = trace.volumes().collect();
        if views.is_empty() {
            return Vec::new();
        }
        if self.workers == 0 {
            // Inline fallback: same per-volume analysis, same merge
            // fold, no threads.
            let mut merged = Vec::new();
            for view in views {
                let record = analyze_one(view, epoch, &self.config);
                merge_metrics_by_id(&mut merged, vec![record]);
            }
            return merged;
        }
        let workers = self.workers.min(views.len());
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = sync_channel::<VolumeMetrics>(self.channel_depth);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    let (views, cursor, config) = (&views, &cursor, &self.config);
                    scope.spawn(move || loop {
                        // ORDERING: the ticket counter only partitions
                        // indices; fetch_add is exact under Relaxed and
                        // the views were published before the spawn.
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= views.len() {
                            break;
                        }
                        let record = analyze_one(views[idx], epoch, config);
                        if tx.send(record).is_err() {
                            // The reducer is gone — only possible while
                            // this scope is already unwinding.
                            break;
                        }
                    })
                })
                .collect();
            drop(tx); // the reducer's rx closes once every worker exits
            let mut merged = Vec::new();
            let mut received = 0usize;
            for record in rx {
                merge_metrics_by_id(&mut merged, vec![record]);
                received += 1;
            }
            // Poison: a worker that died mid-volume closed its sender
            // without delivering; surface its panic instead of
            // returning a partial corpus.
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            assert_eq!(received, views.len(), "a worker dropped a volume");
            merged
        })
    }

    /// Block-range partitioning for a single-volume trace: stripe the
    /// volume's CBT block-id space into `workers` contiguous ranges,
    /// route each request by its first block, analyze every range
    /// partition on its own thread, and fold the partial analyzers
    /// with [`VolumeAnalyzer::merge`].
    fn analyze_block_split(&self, trace: &Trace, epoch: Timestamp) -> Vec<VolumeMetrics> {
        let Some(view) = trace.volumes().next() else {
            return Vec::new();
        };
        let block_bytes = u64::from(self.config.block_size.bytes());
        let max_block = view
            .requests()
            .iter()
            .map(|r| {
                r.offset()
                    .saturating_add(u64::from(r.len()).saturating_sub(1))
                    / block_bytes
            })
            .max()
            .unwrap_or(0);
        let parts = self.workers;
        let width = ((max_block + 1).div_ceil(parts as u64)).max(1);

        let mut streams: Vec<Vec<cbs_trace::IoRequest>> = vec![Vec::new(); parts];
        for req in view.requests() {
            let p = (((req.offset() / block_bytes) / width) as usize).min(parts - 1);
            streams[p].push(*req);
        }

        let partials: Vec<VolumeAnalyzer> = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .map(|stream| {
                    let config = &self.config;
                    let id = view.id();
                    scope.spawn(move || {
                        let mut analyzer = match VolumeAnalyzer::new(id, epoch, config.clone()) {
                            Ok(a) => a,
                            // cbs-lint: allow(no-panic-in-lib) -- with_config validated the config, so rejection is unreachable
                            Err(e) => unreachable!("validated config rejected: {e}"),
                        };
                        for req in stream {
                            analyzer.observe(req);
                        }
                        analyzer
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(analyzer) => analyzer,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        let mut iter = partials.into_iter();
        // `parts >= 2`, so there is always a first partial.
        let Some(mut folded) = iter.next() else {
            return Vec::new();
        };
        for partial in iter {
            folded.merge(partial);
        }
        vec![folded.finish()]
    }
}

/// Analyzes one volume whole; the config was validated by the builder,
/// so rejection is unreachable.
fn analyze_one(
    view: cbs_trace::VolumeView<'_>,
    epoch: Timestamp,
    config: &AnalysisConfig,
) -> VolumeMetrics {
    match VolumeAnalyzer::analyze_volume(view, epoch, config) {
        Ok(record) => record,
        // cbs-lint: allow(no-panic-in-lib) -- with_config validated the config, so rejection is unreachable
        Err(e) => unreachable!("validated config rejected: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workbench;
    use cbs_trace::{IoRequest, OpKind, VolumeId};

    fn corpus(volumes: u32, per_volume: u64) -> Trace {
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
                    (i % 40) * 4096,
                    ((i % 3) as u32 + 1) * 4096,
                    Timestamp::from_secs(i * 11 + u64::from(v)),
                ));
            }
        }
        Trace::from_requests(reqs)
    }

    #[test]
    fn matches_sequential_workbench_exactly() {
        let trace = corpus(7, 150);
        let sequential = Workbench::new(trace.clone()).analyze_with_threads(1);
        for workers in [0, 1, 2, 5, 16] {
            let partitioned = PartitionedWorkbench::new()
                .with_workers(workers)
                .analyze(trace.clone());
            assert_eq!(
                partitioned.metrics(),
                sequential.metrics(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn empty_trace_yields_empty_analysis() {
        let analysis = PartitionedWorkbench::new().analyze(Trace::new());
        assert!(analysis.metrics().is_empty());
        let inline = PartitionedWorkbench::new()
            .with_workers(0)
            .analyze(Trace::new());
        assert!(inline.metrics().is_empty());
    }

    #[test]
    fn block_split_keeps_per_block_metrics_exact() {
        // One volume, many blocks: block-range mode must keep every
        // per-block metric identical to sequential; stream-order
        // metrics are partition-scoped by contract.
        let reqs: Vec<IoRequest> = (0..4_000u64)
            .map(|i| {
                IoRequest::new(
                    VolumeId::new(0),
                    if i % 5 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    ((i * 17) % 256) * 4096,
                    4096,
                    Timestamp::from_micros(i * 900),
                )
            })
            .collect();
        let trace = Trace::from_requests(reqs);
        let sequential = Workbench::new(trace.clone()).analyze_with_threads(1);
        let split = PartitionedWorkbench::new()
            .with_workers(4)
            .with_block_split(true)
            .analyze(trace);
        let (s, p) = (&sequential.metrics()[0], &split.metrics()[0]);
        assert_eq!(p.reads, s.reads);
        assert_eq!(p.writes, s.writes);
        assert_eq!(p.read_bytes, s.read_bytes);
        assert_eq!(p.write_bytes, s.write_bytes);
        assert_eq!(p.updated_bytes, s.updated_bytes);
        assert_eq!(p.first_ts, s.first_ts);
        assert_eq!(p.last_ts, s.last_ts);
        assert_eq!(p.wss_blocks, s.wss_blocks);
        assert_eq!(p.wss_read_blocks, s.wss_read_blocks);
        assert_eq!(p.wss_write_blocks, s.wss_write_blocks);
        assert_eq!(p.wss_update_blocks, s.wss_update_blocks);
        assert_eq!(p.read_size_hist, s.read_size_hist);
        assert_eq!(p.write_size_hist, s.write_size_hist);
        assert_eq!(p.raw_hist, s.raw_hist);
        assert_eq!(p.waw_hist, s.waw_hist);
        assert_eq!(p.rar_hist, s.rar_hist);
        assert_eq!(p.war_hist, s.war_hist);
        assert_eq!(p.update_interval_hist, s.update_interval_hist);
        assert_eq!(p.top_read_shares, s.top_read_shares);
        assert_eq!(p.top_write_shares, s.top_write_shares);
        assert_eq!(p.active_intervals, s.active_intervals);
        assert_eq!(p.active_days, s.active_days);
    }

    #[test]
    fn block_split_ignored_for_multi_volume_corpora() {
        let trace = corpus(3, 60);
        let sequential = Workbench::new(trace.clone()).analyze_with_threads(1);
        let partitioned = PartitionedWorkbench::new()
            .with_workers(4)
            .with_block_split(true)
            .analyze(trace);
        assert_eq!(partitioned.metrics(), sequential.metrics());
    }

    #[test]
    fn channel_depth_does_not_change_results() {
        let trace = corpus(5, 80);
        let a = PartitionedWorkbench::new()
            .with_workers(3)
            .with_channel_depth(1)
            .analyze(trace.clone());
        let b = PartitionedWorkbench::new()
            .with_workers(3)
            .with_channel_depth(64)
            .analyze(trace);
        assert_eq!(a.metrics(), b.metrics());
    }
}
