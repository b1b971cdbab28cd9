//! `cbs-obs` — dependency-free observability for the ingest pipeline.
//!
//! The paper's corpora are ~20.2 billion requests over 31 days; at that
//! scale a silent failure mode (a shard worker dying early while the
//! producer happily decodes the rest, a corrupt block read as clean
//! EOF) wastes hours and corrupts findings. This crate gives every
//! pipeline stage cheap, always-on eyes:
//!
//! * [`Counter`] — monotonically increasing `u64` (relaxed atomic add);
//! * [`Gauge`] — settable `u64` level with a high-water-mark helper;
//! * [`Histogram`] — fixed log-linear buckets (8 sub-buckets per
//!   power-of-two octave) with count/sum/min/max and approximate
//!   quantiles (≤12.5% relative error), safe to hammer from many
//!   threads;
//! * [`LocalHistogram`] — the same buckets as plain `u64`s for a loop
//!   with one writer that publishes when it ends
//!   ([`Histogram::absorb`]);
//! * [`SpanTimer`] / [`Stopwatch`] — wall-clock timing that records
//!   into a histogram of nanoseconds, so *all* timing flows through one
//!   audited place (clippy's `disallowed_methods` rejects
//!   `Instant::now` everywhere but [`Stopwatch::start`]);
//! * [`Registry`] — named metrics with deterministic human and JSON
//!   export.
//!
//! # Overhead budget
//!
//! Every recording primitive is one (histograms: two or three) relaxed
//! atomic read-modify-write. Pipeline instrumentation records at
//! *batch* granularity — per flushed batch, per decoded chunk, per CBT
//! block — never per request on a hot path, so the measured cost on
//! the 10M-request streaming benchmark is under 1% (see
//! `EXPERIMENTS.md`). Handles are cheap `Arc` clones and everything is
//! lock-free after creation; the registry's mutex is touched only on
//! metric creation and export.
//!
//! # Example
//!
//! ```
//! use cbs_obs::Registry;
//!
//! let registry = Registry::new();
//! let decoded = registry.counter("decode.records");
//! decoded.add(8192);
//! let timer = registry.span("decode.chunk");
//! {
//!     let _guard = timer.start(); // records elapsed nanos on drop
//! }
//! assert_eq!(decoded.get(), 8192);
//! assert!(registry.to_json().contains("\"decode.records\""));
//! ```

#![forbid(unsafe_code)]

pub mod metrics;
pub mod names;
pub mod registry;
pub mod timer;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, LocalHistogram};
pub use names::METRIC_NAMES;
pub use registry::{MetricKind, MetricSample, MetricValue, Registry};
pub use timer::{RunningSpan, SpanTimer, Stopwatch};
