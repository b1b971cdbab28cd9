//! Statistics substrate for workload characterization.
//!
//! `cbs-stats` provides the small set of statistical containers every
//! figure and table of the IISWC'20 cloud block storage study is built
//! from:
//!
//! * [`Summary`] — streaming count/mean/min/max/variance (Welford);
//! * [`Quantiles`] — exact quantiles over an owned sample set;
//! * [`LogHistogram`] — HDR-style log-linear histogram over `u64` values
//!   with bounded relative error, for quantiles over hundreds of millions
//!   of elapsed-time observations in fixed memory;
//! * [`Cdf`] — empirical cumulative distribution with figure-friendly
//!   downsampling;
//! * [`P2Quantile`] — O(1)-memory single-quantile streaming estimation
//!   (Jain & Chlamtac's P² algorithm);
//! * [`BoxplotSummary`] — Tukey five-number summaries with outlier counts
//!   (the paper's boxplot figures);
//! * [`TimeBins`] — fixed-width time-binned counters (per-minute peak
//!   intensities, 10-minute activeness intervals);
//! * [`Reservoir`] — deterministic uniform reservoir sampling for
//!   bounded-memory exact-quantile fallbacks.
//!
//! # Example
//!
//! ```
//! use cbs_stats::{Cdf, Quantiles, Summary};
//!
//! let mut s = Summary::new();
//! for x in [1.0, 2.0, 3.0, 4.0] {
//!     s.record(x);
//! }
//! assert_eq!(s.mean(), Some(2.5));
//!
//! let q = Quantiles::from_unsorted(vec![1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(q.median(), Some(2.5));
//!
//! let cdf = Cdf::from_unsorted(vec![1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
//! ```

#![forbid(unsafe_code)]

pub mod boxplot;
pub mod cdf;
pub mod histogram;
pub mod p2;
pub mod quantile;
pub mod reservoir;
pub mod series;
pub mod summary;

pub use boxplot::BoxplotSummary;
pub use cdf::Cdf;
pub use histogram::LogHistogram;
pub use p2::P2Quantile;
pub use quantile::Quantiles;
pub use reservoir::Reservoir;
pub use series::TimeBins;
pub use summary::Summary;
