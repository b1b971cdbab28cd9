//! Block-level I/O trace data model and codecs.
//!
//! `cbs-trace` is the foundation crate of the *cbs-workbench*: it defines
//! the in-memory representation of block-level I/O requests and the on-disk
//! codecs for the two trace families analyzed by the IISWC'20 study
//! *"An In-Depth Analysis of Cloud Block Storage Workloads in Large-Scale
//! Production"*:
//!
//! * the **AliCloud** format released at `github.com/alibaba/block-traces`
//!   (`device_id,opcode,offset,length,timestamp` CSV rows, timestamps in
//!   microseconds), parsed by [`codec::alicloud`];
//! * the **MSRC** format released by Microsoft Research Cambridge on SNIA
//!   (`Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime` CSV
//!   rows, timestamps in Windows 100 ns ticks), parsed by [`codec::msrc`].
//!
//! Both codecs normalize into the same [`IoRequest`] record so that every
//! downstream analysis is format-agnostic.
//!
//! # Example
//!
//! ```
//! use cbs_trace::{IoRequest, OpKind, Timestamp, VolumeId};
//! use cbs_trace::codec::alicloud::{AliCloudReader, AliCloudWriter};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Write two requests in the AliCloud CSV format...
//! let mut buf = Vec::new();
//! {
//!     let mut w = AliCloudWriter::new(&mut buf);
//!     w.write_request(&IoRequest::new(
//!         VolumeId::new(3),
//!         OpKind::Write,
//!         4096,
//!         8192,
//!         Timestamp::from_micros(1_000_000),
//!     ))?;
//!     w.write_request(&IoRequest::new(
//!         VolumeId::new(3),
//!         OpKind::Read,
//!         0,
//!         4096,
//!         Timestamp::from_micros(2_000_000),
//!     ))?;
//! }
//!
//! // ...and read them back.
//! let reqs: Vec<IoRequest> = AliCloudReader::new(&buf[..])
//!     .collect::<Result<_, _>>()?;
//! assert_eq!(reqs.len(), 2);
//! assert_eq!(reqs[0].op(), OpKind::Write);
//! assert_eq!(reqs[1].len(), 4096);
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod block;
/// One planted violation per workspace lint, each under `#[expect]`, so
/// `cargo clippy -- -D warnings` fails when a lint stops firing. It
/// lives here because `cbs-trace` is the one library that does not
/// forbid `unsafe_code`, which the `unsafe_code` canary needs.
#[cfg(all(clippy, not(test)))]
pub mod canary;
pub mod codec;
pub mod error;
pub mod hash;
pub mod iter;
pub mod mmap;
pub mod op;
pub mod request;
pub mod time;
pub mod trace;
pub mod volume;
pub mod workers;

pub use batch::{BlockAccessColumn, RequestBatch, RequestBatchRef};
pub use block::{BlockId, BlockSize, BlockSpan};
pub use codec::cbt::{CbtReader, CbtSliceReader, CbtWriter};
pub use codec::parallel::{DecodeStats, ParallelDecoder};
pub use error::{CbtError, ParseRecordError, TraceError};
pub use iter::MergeByTime;
pub use mmap::Mmap;
pub use op::OpKind;
pub use request::IoRequest;
pub use time::{TimeDelta, Timestamp};
pub use trace::{Trace, VolumeView};
pub use volume::VolumeId;
