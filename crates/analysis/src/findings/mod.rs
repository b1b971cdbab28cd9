//! Per-finding data builders, keyed to the paper's numbered findings
//! F1-F15 (each submodule cites the IDs it reproduces).
//!
//! Each submodule turns `&[VolumeMetrics]` (and, where the paper
//! aggregates across volumes in time, the trace itself) into the exact
//! data behind one of the paper's tables or figures:
//!
//! | Module | Paper artifacts |
//! |---|---|
//! | [`basic`] | Table I |
//! | [`request_size`] | Fig. 2 |
//! | [`rw_ratio`] | Fig. 4 |
//! | [`intensity`] | Fig. 5, Table II, Fig. 6 (Findings 1-3) |
//! | [`interarrival`] | Fig. 7 (Finding 4) |
//! | [`activeness`] | Figs. 3, 8, 9 (Findings 5-7) |
//! | [`randomness`] | Fig. 10 (Finding 8) |
//! | [`aggregation`] | Fig. 11 (Finding 9) |
//! | [`rw_mostly`] | Table III, Fig. 12 (Finding 10) |
//! | [`update_coverage`] | Table IV, Fig. 13 (Finding 11) |
//! | [`adjacency`] | Figs. 14-15, Table V (Findings 12-13) |
//! | [`update_interval`] | Table VI, Figs. 16-17 (Finding 14) |
//! | [`cache`] | Fig. 18 (Finding 15) |
//! | [`verdicts`] | machine-checked directional claims of all 15 findings |

pub mod activeness;
pub mod adjacency;
pub mod aggregation;
pub mod basic;
pub mod cache;
pub mod intensity;
pub mod interarrival;
pub mod randomness;
pub mod request_size;
pub mod rw_mostly;
pub mod rw_ratio;
pub mod update_coverage;
pub mod update_interval;
pub mod verdicts;

/// The percentile groups the paper's boxplot figures use.
pub const PAPER_PERCENTILES: [f64; 5] = [25.0, 50.0, 75.0, 90.0, 95.0];

#[cfg(test)]
pub(crate) mod testutil {
    //! A tiny two-corpus fixture shared by finding tests.

    use cbs_trace::{IoRequest, OpKind, Timestamp, Trace, VolumeId};

    use crate::{analyze_trace, AnalysisConfig, VolumeMetrics};

    /// Builds a small deterministic trace with three volumes of
    /// distinct personalities:
    ///
    /// * vol 0 — write-dominant, hot block 0 overwritten repeatedly;
    /// * vol 1 — read-dominant, sequential reads over 64 blocks;
    /// * vol 2 — single burst of mixed ops on day 1.
    pub(crate) fn fixture() -> (Trace, Vec<VolumeMetrics>) {
        let mut reqs = Vec::new();
        // vol 0: 60 writes to block 0 (1 per minute), 6 reads
        for i in 0..60u64 {
            reqs.push(IoRequest::new(
                VolumeId::new(0),
                OpKind::Write,
                0,
                4096,
                Timestamp::from_mins(i),
            ));
        }
        for i in 0..6u64 {
            reqs.push(IoRequest::new(
                VolumeId::new(0),
                OpKind::Read,
                4096,
                8192,
                Timestamp::from_mins(i * 10) + cbs_trace::TimeDelta::from_secs(30),
            ));
        }
        // vol 1: 64 sequential reads, 4 writes
        for i in 0..64u64 {
            reqs.push(IoRequest::new(
                VolumeId::new(1),
                OpKind::Read,
                i * 4096,
                4096,
                Timestamp::from_secs(i * 100),
            ));
        }
        for i in 0..4u64 {
            reqs.push(IoRequest::new(
                VolumeId::new(1),
                OpKind::Write,
                (1 << 30) + i * 4096,
                4096,
                Timestamp::from_secs(1000 + i),
            ));
        }
        // vol 2: a burst on day 1
        for i in 0..20u64 {
            reqs.push(IoRequest::new(
                VolumeId::new(2),
                if i % 2 == 0 {
                    OpKind::Write
                } else {
                    OpKind::Read
                },
                i * 1_000_000,
                16384,
                Timestamp::from_days(1) + cbs_trace::TimeDelta::from_millis(i),
            ));
        }
        let trace = Trace::from_requests(reqs);
        let metrics = analyze_trace(&trace, &AnalysisConfig::default(), 0).expect("valid config");
        (trace, metrics)
    }
}
