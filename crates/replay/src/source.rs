//! Request-stream adapters for the replayer.
//!
//! [`Replayer::run`](crate::Replayer::run) takes any
//! `IntoIterator<Item = IoRequest>` and
//! [`run_results`](crate::Replayer::run_results) any fallible stream,
//! so most sources plug in directly:
//!
//! * **CBT files** — `CbtReader` is already an
//!   `Iterator<Item = Result<IoRequest, CbtError>>`; hand it to
//!   `run_results` as-is.
//! * **Synthetic corpora** — `CorpusGenerator::stream()` yields
//!   time-ordered `IoRequest`s; hand it to `run` as-is.
//! * **In-memory traces** — `Trace::iter_time_ordered()` likewise.
//! * **CSV** — decode with `ParallelDecoder::decode_alicloud_slice`
//!   (or `decode_msrc_slice`), sort into a `Trace`, then replay its
//!   time-ordered iterator.
//!
//! This module adds the one adapter that needs real code:
//! [`CbtSliceRequests`], which drives the zero-copy
//! [`CbtSliceReader`] block by block and reassembles each request
//! straight out of the reader's decoded columns as it is asked for —
//! no second, row-major copy of the block in between.

use cbs_trace::{CbtError, CbtSliceReader, IoRequest};

/// Flattens a [`CbtSliceReader`]'s lent batches into a request stream
/// suitable for [`Replayer::run_results`](crate::Replayer::run_results).
///
/// # Example
///
/// ```
/// use cbs_replay::{CbtSliceRequests, NullBackend, Replayer, Timing};
/// use cbs_trace::{CbtSliceReader, CbtWriter, IoRequest, OpKind, Timestamp, VolumeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut encoded = Vec::new();
/// {
///     let mut w = CbtWriter::new(&mut encoded);
///     for i in 0..32u64 {
///         w.write_request(&IoRequest::new(
///             VolumeId::new(1),
///             OpKind::Read,
///             i * 4096,
///             4096,
///             Timestamp::from_micros(i),
///         ))?;
///     }
///     w.finish()?;
/// }
/// let source = CbtSliceRequests::new(CbtSliceReader::new(&encoded));
/// let mut replayer = Replayer::new(NullBackend::new())
///     .with_timing(Timing::multiplier(1000.0)?);
/// let report = replayer.run_results(source)?;
/// assert_eq!(report.requests, 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CbtSliceRequests<'a> {
    reader: CbtSliceReader<'a>,
    /// Records in the reader's current block, and the next to yield.
    len: usize,
    next: usize,
    done: bool,
}

impl<'a> CbtSliceRequests<'a> {
    /// Wraps a slice reader (configure `with_registry` etc. before
    /// wrapping).
    pub fn new(reader: CbtSliceReader<'a>) -> Self {
        CbtSliceRequests {
            reader,
            len: 0,
            next: 0,
            done: false,
        }
    }
}

impl Iterator for CbtSliceRequests<'_> {
    type Item = Result<IoRequest, CbtError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.next < self.len {
                let req = self.reader.current_batch_ref().get(self.next);
                self.next += 1;
                return Some(Ok(req));
            }
            if self.done {
                return None;
            }
            match self.reader.read_batch_ref() {
                Ok(Some(batch)) => {
                    self.len = batch.len();
                    self.next = 0;
                }
                Ok(None) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    // The reader is poisoned now; fuse after yielding.
                    self.len = 0;
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_trace::{CbtWriter, OpKind, Timestamp, VolumeId};

    fn encode(n: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = CbtWriter::new(&mut out);
        for i in 0..n {
            w.write_request(&IoRequest::new(
                VolumeId::new((i % 3) as u32),
                if i % 2 == 0 {
                    OpKind::Read
                } else {
                    OpKind::Write
                },
                i * 512,
                512,
                Timestamp::from_micros(i * 7),
            ))
            .unwrap();
        }
        w.finish().unwrap();
        out
    }

    #[test]
    fn yields_every_record_in_order() {
        let bytes = encode(1000);
        let reqs: Vec<IoRequest> = CbtSliceRequests::new(CbtSliceReader::new(&bytes))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(reqs.len(), 1000);
        assert_eq!(reqs[999].ts(), Timestamp::from_micros(999 * 7));
    }

    #[test]
    fn corruption_yields_one_error_then_fuses() {
        let mut bytes = encode(1000);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let mut it = CbtSliceRequests::new(CbtSliceReader::new(&bytes));
        let mut errs = 0;
        for item in &mut it {
            if item.is_err() {
                errs += 1;
            }
        }
        assert_eq!(errs, 1);
        assert!(it.next().is_none(), "iterator must fuse after an error");
    }

    #[test]
    fn empty_stream_is_empty() {
        let bytes = encode(0);
        assert_eq!(
            CbtSliceRequests::new(CbtSliceReader::new(&bytes)).count(),
            0
        );
    }
}
