//! The normalized block-level I/O request record: [`IoRequest`].

use core::fmt;

use crate::{OpKind, Timestamp, VolumeId};

/// One block-level I/O request, normalized across trace formats.
///
/// This is the unit record every analysis in the workbench consumes. It
/// carries exactly the five fields common to the AliCloud and MSRC trace
/// releases: volume, operation kind, byte offset, byte length, and
/// timestamp. The struct is 32 bytes and `Copy`, so traces of tens of
/// millions of requests fit comfortably in memory and iterate at memory
/// bandwidth.
///
/// # Example
///
/// ```
/// use cbs_trace::{IoRequest, OpKind, Timestamp, VolumeId};
///
/// let r = IoRequest::new(
///     VolumeId::new(1),
///     OpKind::Write,
///     4096,
///     16384,
///     Timestamp::from_secs(2),
/// );
/// assert_eq!(r.end_offset(), 4096 + 16384);
/// assert!(r.op().is_write());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct IoRequest {
    volume: VolumeId,
    op: OpKind,
    offset: u64,
    len: u32,
    ts: Timestamp,
}

impl IoRequest {
    /// Creates a request.
    ///
    /// `offset` and `len` are in bytes; `len` may be zero (a handful of
    /// zero-length records exist in the real corpora and are preserved by
    /// the codecs — analyses decide how to treat them).
    #[inline]
    pub const fn new(volume: VolumeId, op: OpKind, offset: u64, len: u32, ts: Timestamp) -> Self {
        IoRequest {
            volume,
            op,
            offset,
            len,
            ts,
        }
    }

    /// The volume this request targets.
    #[inline]
    pub const fn volume(&self) -> VolumeId {
        self.volume
    }

    /// The operation kind.
    #[inline]
    pub const fn op(&self) -> OpKind {
        self.op
    }

    /// The starting byte offset within the volume.
    #[inline]
    pub const fn offset(&self) -> u64 {
        self.offset
    }

    /// The request length in bytes.
    #[inline]
    pub const fn len(&self) -> u32 {
        self.len
    }

    /// Returns `true` if the request length is zero.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The submission timestamp.
    #[inline]
    pub const fn ts(&self) -> Timestamp {
        self.ts
    }

    /// The first byte offset past the end of the request, clamped to
    /// `u64::MAX` for a request that reaches past the address space.
    #[inline]
    pub const fn end_offset(&self) -> u64 {
        self.offset.saturating_add(self.len as u64)
    }

    /// Returns `true` if this request is a read.
    #[inline]
    pub const fn is_read(&self) -> bool {
        self.op.is_read()
    }

    /// Returns `true` if this request is a write.
    #[inline]
    pub const fn is_write(&self) -> bool {
        self.op.is_write()
    }

    /// Returns a copy of this request re-targeted at another volume.
    ///
    /// Useful when stitching per-volume streams into a corpus.
    #[inline]
    pub const fn with_volume(mut self, volume: VolumeId) -> Self {
        self.volume = volume;
        self
    }

    /// Returns a copy of this request with the timestamp shifted by
    /// `delta` microseconds forward.
    #[inline]
    pub fn shifted_by(mut self, delta: crate::TimeDelta) -> Self {
        self.ts += delta;
        self
    }

    /// Returns the absolute distance in bytes between this request's start
    /// offset and `other_offset`.
    ///
    /// This is the primitive of the paper's randomness metric (Finding 8):
    /// a request is *random* when the minimum such distance to the previous
    /// 32 requests exceeds a threshold (128 KiB by default).
    #[inline]
    pub const fn offset_distance(&self, other_offset: u64) -> u64 {
        self.offset.abs_diff(other_offset)
    }
}

impl fmt::Display for IoRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} off={} len={} @{}",
            self.volume, self.op, self.offset, self.len, self.ts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimeDelta;

    fn req() -> IoRequest {
        IoRequest::new(
            VolumeId::new(9),
            OpKind::Read,
            10_000,
            512,
            Timestamp::from_millis(5),
        )
    }

    #[test]
    fn accessors() {
        let r = req();
        assert_eq!(r.volume(), VolumeId::new(9));
        assert_eq!(r.op(), OpKind::Read);
        assert_eq!(r.offset(), 10_000);
        assert_eq!(r.len(), 512);
        assert_eq!(r.ts(), Timestamp::from_millis(5));
        assert_eq!(r.end_offset(), 10_512);
        assert!(r.is_read());
        assert!(!r.is_write());
        assert!(!r.is_empty());
    }

    #[test]
    fn zero_length_requests_are_representable() {
        let r = IoRequest::new(VolumeId::new(0), OpKind::Write, 0, 0, Timestamp::ZERO);
        assert!(r.is_empty());
        assert_eq!(r.end_offset(), 0);
    }

    #[test]
    fn end_offset_clamps_past_the_address_space() {
        let at = |offset, len| {
            IoRequest::new(
                VolumeId::new(0),
                OpKind::Write,
                offset,
                len,
                Timestamp::ZERO,
            )
        };
        assert_eq!(at(u64::MAX - 10, 4096).end_offset(), u64::MAX);
        assert_eq!(at(u64::MAX - 4096, 4096).end_offset(), u64::MAX);
        assert_eq!(at(u64::MAX, 0).end_offset(), u64::MAX);
    }

    #[test]
    fn with_volume_retargets() {
        let r = req().with_volume(VolumeId::new(3));
        assert_eq!(r.volume(), VolumeId::new(3));
        assert_eq!(r.offset(), 10_000);
    }

    #[test]
    fn shifted_by_moves_timestamp() {
        let r = req().shifted_by(TimeDelta::from_millis(10));
        assert_eq!(r.ts(), Timestamp::from_millis(15));
    }

    #[test]
    fn offset_distance_is_symmetric() {
        let r = req();
        assert_eq!(r.offset_distance(10_100), 100);
        assert_eq!(r.offset_distance(9_900), 100);
        assert_eq!(r.offset_distance(10_000), 0);
    }

    #[test]
    fn record_is_compact() {
        assert!(std::mem::size_of::<IoRequest>() <= 32);
    }
}
