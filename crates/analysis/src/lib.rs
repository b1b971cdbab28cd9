//! The workload-characterization engine: a single-pass per-volume
//! analyzer implementing every metric behind the 15 findings of
//! *"An In-Depth Analysis of Cloud Block Storage Workloads in
//! Large-Scale Production"* (IISWC'20).
//!
//! # Architecture
//!
//! [`VolumeAnalyzer`] consumes one volume's time-sorted requests exactly
//! once and feeds all metric collectors simultaneously — counters,
//! log-scale histograms, a per-block state map (shared by the working-set,
//! aggregation, read/write-mostly, update-coverage, adjacency and
//! update-interval metrics), the randomness window, and an exact
//! reuse-distance computation whose miss-ratio curves answer the LRU
//! simulation of Finding 15 at *any* cache size without a second pass.
//! The result is a passive [`VolumeMetrics`] record.
//!
//! [`analyze_trace`] runs the analyzer over every volume of a
//! [`cbs_trace::Trace`] (see `cbs-core` for the parallel driver) and the
//! [`findings`] modules turn `&[VolumeMetrics]` into the exact data
//! series of each paper table and figure.
//!
//! # Example
//!
//! ```
//! use cbs_analysis::{analyze_trace, AnalysisConfig};
//! use cbs_trace::{IoRequest, OpKind, Timestamp, Trace, VolumeId};
//!
//! let trace = Trace::from_requests(vec![
//!     IoRequest::new(VolumeId::new(0), OpKind::Write, 0, 4096, Timestamp::from_secs(0)),
//!     IoRequest::new(VolumeId::new(0), OpKind::Write, 0, 4096, Timestamp::from_secs(60)),
//!     IoRequest::new(VolumeId::new(0), OpKind::Read, 4096, 4096, Timestamp::from_secs(90)),
//! ]);
//! let metrics = analyze_trace(&trace, &AnalysisConfig::default()).unwrap();
//! let v = &metrics[0];
//! assert_eq!(v.writes, 2);
//! assert_eq!(v.wss_blocks, 2);
//! assert_eq!(v.wss_update_blocks, 1); // block 0 written twice
//! ```

#![forbid(unsafe_code)]

pub mod analyzer;
pub mod config;
pub mod findings;
pub mod metrics;
pub mod recommend;
pub mod windowed;

pub use analyzer::{analyze_trace, VolumeAnalyzer};
pub use config::{AnalysisConfig, InvalidConfig};
pub use metrics::VolumeMetrics;
pub use windowed::{WindowStats, WindowedAnalysis};
