//! Experiment harness: regenerates every table and figure of the
//! IISWC'20 cloud block storage study from synthetic corpora and prints
//! paper-vs-measured comparisons.
//!
//! * [`paper`] — the numbers the paper reports, transcribed as
//!   constants;
//! * [`fmt`] — humanized numbers (counts, bytes, durations);
//! * [`table`] — plain-text table rendering;
//! * [`experiments`] — one runner per table/figure (Table I … Fig. 18);
//! * [`series`] — plot-ready TSV export of every figure's full curves;
//! * the `repro` binary — builds both corpora, runs every experiment,
//!   and emits the full report (see `EXPERIMENTS.md` at the repository
//!   root for a recorded run).
//!
//! # Example
//!
//! ```
//! use cbs_report::experiments::{self, ReproConfig};
//!
//! // A deliberately tiny run (seconds, not minutes).
//! let config = ReproConfig::tiny(42);
//! let ctx = experiments::build_context(&config);
//! let report = experiments::run_all(&ctx);
//! assert!(report.contains("Table I"));
//! assert!(report.contains("Fig. 18"));
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fmt;
pub mod paper;
pub mod series;
pub mod table;
