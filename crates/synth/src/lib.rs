//! Synthetic cloud block storage workload generation.
//!
//! The IISWC'20 study analyzes two production corpora that cannot ship
//! with this repository (the AliCloud release is hundreds of GiB; the
//! MSRC release lives on SNIA). `cbs-synth` is the substitution
//! substrate: a deterministic, seeded generator of block-level I/O
//! traces whose *distributional shapes* match what the paper reports for
//! each corpus, so that every table and figure can be regenerated and
//! compared directionally.
//!
//! The model, bottom-up:
//!
//! * [`dist`] — self-contained samplers (exponential, log-normal, Zipf,
//!   Pareto, geometric, discrete mixtures) built on `rand`'s uniform
//!   source;
//! * [`arrival`] — a bursty ON/OFF arrival process with diurnal
//!   modulation: requests arrive in bursts with microsecond-scale
//!   intra-burst gaps (the paper's Finding 4), and the ON-fraction knob
//!   sets the peak-to-average *burstiness ratio* (Findings 2-3);
//! * [`spatial`] — a sequential/hot/uniform address mixture over
//!   configurable regions: the sequential share sets the randomness
//!   ratio (Finding 8), the hot set sets traffic aggregation
//!   (Finding 9), and region overlap sets read-mostly/write-mostly
//!   behaviour (Finding 10) and update coverage (Finding 11);
//! * [`size`] — request-size mixtures over aligned sizes (small-I/O
//!   dominance, Fig. 2);
//! * [`profile`] — [`VolumeProfile`]: everything one volume needs;
//! * [`presets`] — [`presets::alicloud_like`] and
//!   [`presets::msrc_like`] corpus mixtures calibrated to the paper's
//!   reported marginals;
//! * [`generator`] — turns profiles into a time-sorted
//!   [`cbs_trace::Trace`].
//!
//! # Example
//!
//! ```
//! use cbs_synth::presets::{self, CorpusConfig};
//!
//! // A miniature AliCloud-like corpus: 20 volumes, 3 days.
//! let config = CorpusConfig::new(20, 3, 42).with_intensity_scale(0.002);
//! let trace = presets::alicloud_like(&config).generate();
//! assert!(trace.volume_count() > 0);
//! assert!(!trace.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod arrival;
pub mod dist;
pub mod error;
pub mod generator;
pub mod presets;
pub mod profile;
pub mod size;
pub mod spatial;

pub use error::InvalidProfile;
pub use generator::CorpusGenerator;
pub use presets::CorpusConfig;
pub use profile::VolumeProfile;
