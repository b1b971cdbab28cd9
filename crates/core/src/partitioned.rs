//! The corpus-partitioned multi-core driver: [`PartitionedWorkbench`].
//!
//! A builder over the one by-volume batch driver,
//! [`crate::parallel::analyze_trace_parallel`], with an explicit worker
//! count (`0` = inline on the calling thread, the reference the
//! threaded runs are compared against), returning an [`Analysis`] ready
//! for [`Analysis::merge`] — the reduction `cbs-ctl` applies across
//! processes.
//!
//! Partitioning is **by volume**: every volume's stream is analyzed
//! whole by exactly one worker, so the inline fallback, any worker
//! count and [`crate::Workbench::analyze`] all produce byte-equal
//! [`Analysis`] results and finding verdicts. A worker panic is
//! re-raised on the caller once the workers have joined (poison parity
//! with [`crate::StreamingSession`]): a panic-interrupted run never
//! yields a partial [`Analysis`].

use cbs_analysis::{AnalysisConfig, InvalidConfig};
use cbs_trace::Trace;

use crate::workbench::Analysis;

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
    /// no threads, but the identical per-volume loop — the reference
    /// the threaded runs are compared against.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Configured worker count (`0` = inline fallback).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Characterizes the corpus, partitioning its volumes across the
    /// configured workers — bit-identical to
    /// [`crate::Workbench::analyze`].
    ///
    /// # Panics
    ///
    /// Propagates worker panics (poison parity: no partial
    /// [`Analysis`] is ever returned).
    pub fn analyze(self, trace: Trace) -> Analysis {
        Analysis::by_volume(trace, self.config, self.workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workbench;
    use cbs_trace::{IoRequest, OpKind, Timestamp, VolumeId};

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
}
