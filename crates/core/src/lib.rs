//! High-level facade of the *cbs-workbench*: load or synthesize a
//! block-level I/O trace, characterize it, and read out every metric of
//! the IISWC'20 cloud block storage study.
//!
//! This crate ties the substrates together:
//!
//! * [`cbs_trace`] — the data model and codecs;
//! * [`cbs_synth`] — synthetic AliCloud-like / MSRC-like corpora;
//! * [`cbs_analysis`] — the single-pass characterization engine;
//! * [`cbs_cache`] / [`cbs_stats`] — the simulation and statistics
//!   substrates.
//!
//! The entry point is [`Workbench`]:
//!
//! ```
//! use cbs_core::prelude::*;
//!
//! // Synthesize a miniature AliCloud-like corpus...
//! let config = CorpusConfig::new(12, 2, 7).with_intensity_scale(0.002);
//! let trace = cbs_synth::presets::alicloud_like(&config).generate();
//!
//! // ...and characterize it (in parallel across volumes).
//! let analysis = Workbench::new(trace).analyze();
//! assert!(analysis.metrics().len() > 0);
//!
//! // Finding 4-style question: write-dominance across volumes.
//! let ratios = analysis.write_read_ratios();
//! assert!(ratios.fraction_write_dominant() > 0.5);
//! ```

#![forbid(unsafe_code)]

pub mod streaming;
pub mod workbench;

pub use cbs_cache::{
    policy_by_name, CacheSweep, LaneReport, SweepError, SweepGrid, SweepReport, POLICY_NAMES,
};
pub use streaming::{StreamingSession, StreamingWorkbench};
pub use workbench::{Analysis, Workbench};

/// Convenient glob-import surface: the types almost every user of the
/// workbench touches.
pub mod prelude {
    pub use cbs_analysis::{AnalysisConfig, VolumeMetrics};
    pub use cbs_synth::presets::CorpusConfig;
    pub use cbs_trace::{
        BlockId, BlockSize, IoRequest, OpKind, TimeDelta, Timestamp, Trace, VolumeId,
    };

    pub use cbs_cache::{SweepGrid, SweepReport};

    pub use cbs_replay::{
        DirectFileBackend, FileBackend, LaneSet, MemBackend, MultiLaneReport, NullBackend, Remap,
        ReplayLaneReport, ReplayReport, Replayer, StorageBackend, Timing,
    };

    pub use crate::streaming::{StreamingSession, StreamingWorkbench};
    pub use crate::workbench::{Analysis, Workbench};
}
