//! Statistics substrate for workload characterization.
//!
//! `cbs-stats` provides the small set of statistical containers every
//! figure and table of the IISWC'20 cloud block storage study is built
//! from:
//!
//! * [`Quantiles`] — exact quantiles over an owned sample set;
//! * [`LogHistogram`] — HDR-style log-linear histogram over `u64` values
//!   with bounded relative error, for quantiles over hundreds of millions
//!   of elapsed-time observations in fixed memory;
//! * [`Cdf`] — empirical cumulative distribution with figure-friendly
//!   downsampling;
//! * [`BoxplotSummary`] — Tukey five-number summaries with outlier counts
//!   (the paper's boxplot figures);
//! * [`TimeBins`] — fixed-width time-binned counters (Table II's
//!   per-minute peak intensity).
//!
//! # Example
//!
//! ```
//! use cbs_stats::{Cdf, Quantiles};
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
pub mod quantile;
pub mod series;

pub use boxplot::BoxplotSummary;
pub use cdf::Cdf;
pub use histogram::LogHistogram;
pub use quantile::Quantiles;
pub use series::TimeBins;
