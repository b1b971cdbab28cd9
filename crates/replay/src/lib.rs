//! `cbs-replay` — timing-faithful open-loop trace replay.
//!
//! The rest of the workbench *analyzes* cloud block storage traces;
//! this crate closes the loop by *generating load* from them, the way
//! TraceTracker replays reconstructed workloads against new hardware.
//! Any trace source — CBT files ([`cbs_trace::CbtReader`] /
//! [`CbtSliceRequests`]), decoded CSV, or the synthetic corpus
//! generator's stream — replays at recorded timestamps or a rate
//! multiplier (×0.1…×1000), with volume remapping (1→1, 1→N fan-out,
//! N→1 merge), onto a pluggable [`StorageBackend`].
//!
//! Three pieces, composed by [`Replayer`]:
//!
//! * **[`Timing`]** (schedule) — the open-loop scheduler issues each
//!   request at its scaled recorded time, sleeping coarsely and
//!   spinning the final stretch; per-request *issue lag* (actual minus
//!   target issue time) is the fidelity signal.
//! * **[`Remap`]** (placement) — rewrites volume ids only; op, offset,
//!   length, and timestamp are preserved, so replayed streams stay
//!   comparable to the source analysis.
//! * **[`StorageBackend`]** (target) — [`NullBackend`] measures the
//!   engine itself, [`MemBackend`] is a deterministic in-memory page
//!   store, [`FileBackend`] exercises the real VFS path against
//!   preallocated per-volume files, and [`DirectFileBackend`] opens
//!   them `O_DIRECT` (aligned scratch, recorded fallback reason when
//!   the filesystem refuses) so service times come from the device,
//!   not the page cache.
//!
//! When one scheduler thread can't pace the stream, [`LaneSet`]
//! shards the issue side: a feeder thread decodes/remaps in stream
//! order and fans batches out to N per-volume scheduler lanes
//! (sticky least-loaded routing, bounded channels, panic-poison
//! parity), and the per-lane tallies fold (counters add, histogram
//! buckets add) into a [`MultiLaneReport`] whose merged view is
//! identical to the single-lane run at any lane count.
//!
//! An issued request costs the engine one clock read and no atomic: a
//! run is tallied in plain counters its issue loop owns and lands in
//! `cbs-obs` metrics under registered `replay.*` names once, when it
//! ends; [`ReplayReport`] summarizes it (achieved-vs-offered
//! throughput, lag and service-time distributions).
//!
//! # Example
//!
//! ```
//! use cbs_replay::{NullBackend, Replayer, Timing};
//! use cbs_trace::{IoRequest, OpKind, Timestamp, Trace, VolumeId};
//!
//! # fn main() -> Result<(), cbs_replay::ReplayError> {
//! let trace = Trace::from_requests(
//!     (0..256)
//!         .map(|i| {
//!             IoRequest::new(
//!                 VolumeId::new(i % 16),
//!                 OpKind::Write,
//!                 (i as u64) * 4096,
//!                 4096,
//!                 Timestamp::from_micros(i as u64 * 100),
//!             )
//!         })
//!         .collect(),
//! );
//! let mut replayer =
//!     Replayer::new(NullBackend::new()).with_timing(Timing::multiplier(1000.0)?);
//! let report = replayer.run(trace.iter_time_ordered())?;
//! assert_eq!(report.requests, 256);
//! println!(
//!     "achieved {:.0} req/s ({:.1}% of offered), p99 lag {} ns",
//!     report.achieved_rps(),
//!     report.achieved_offered_ratio() * 100.0,
//!     report.issue_lag.p99
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod error;
pub mod lanes;
pub mod remap;
pub mod schedule;
pub mod source;

pub use backend::{
    AlignedBuf, DirectFileBackend, FileBackend, MemBackend, NullBackend, StorageBackend,
    DIRECT_ALIGN, PAGE_BYTES,
};
pub use error::ReplayError;
pub use lanes::{
    LaneSet, MultiLaneReport, ReplayLaneReport, DEFAULT_LANE_CHANNEL_DEPTH, LANE_BATCH_REQUESTS,
};
pub use remap::{Remap, VolumeRemapper};
pub use schedule::{ReplayReport, Replayer, Timing, MAX_MULTIPLIER, MIN_MULTIPLIER};
pub use source::CbtSliceRequests;
