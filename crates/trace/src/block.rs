//! Fixed-size block decomposition of byte-addressed requests.
//!
//! The paper's spatial and temporal analyses (working sets, read-/write-
//! mostly classification, update coverage, RAW/WAW/RAR/WAR adjacency,
//! update intervals, LRU simulation) all operate on fixed-size *blocks*
//! rather than raw byte ranges. [`BlockSize`] captures the unit (4 KiB by
//! default, the sector-aligned unit used by the released traces) and
//! [`BlockSpan`] enumerates the blocks a request touches.

use core::fmt;

use crate::IoRequest;

/// The default block unit used by the workbench: 4 KiB.
pub const DEFAULT_BLOCK_BYTES: u32 = 4096;

/// A validated, power-of-two block size in bytes.
///
/// # Example
///
/// ```
/// use cbs_trace::BlockSize;
///
/// let bs = BlockSize::new(4096).unwrap();
/// assert_eq!(bs.bytes(), 4096);
/// assert_eq!(bs.block_of(8191), cbs_trace::BlockId::new(1));
/// assert!(BlockSize::new(3000).is_none()); // not a power of two
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BlockSize(u32);

impl BlockSize {
    /// The 4 KiB default unit.
    pub const DEFAULT: BlockSize = BlockSize(DEFAULT_BLOCK_BYTES);

    /// Creates a block size, returning `None` unless `bytes` is a
    /// power of two (and non-zero).
    #[inline]
    pub const fn new(bytes: u32) -> Option<Self> {
        if bytes.is_power_of_two() {
            Some(BlockSize(bytes))
        } else {
            None
        }
    }

    /// The size in bytes.
    #[inline]
    pub const fn bytes(self) -> u32 {
        self.0
    }

    /// log2 of the size; block ids are offsets shifted right by this.
    #[inline]
    pub const fn shift(self) -> u32 {
        self.0.trailing_zeros()
    }

    /// Returns the id of the block containing byte `offset`.
    #[inline]
    pub const fn block_of(self, offset: u64) -> BlockId {
        BlockId(offset >> self.shift())
    }

    /// Returns the first byte offset of `block`.
    #[inline]
    pub const fn offset_of(self, block: BlockId) -> u64 {
        block.0 << self.shift()
    }

    /// Enumerates the blocks touched by the byte range
    /// `[offset, offset + len)`.
    ///
    /// A zero-length range touches no blocks. A range reaching past
    /// `u64::MAX` (possible for any parsed trace line) is clamped at
    /// the end of the address space instead of wrapping to an empty
    /// span.
    #[inline]
    pub const fn span(self, offset: u64, len: u32) -> BlockSpan {
        let first = offset >> self.shift();
        let end = if len == 0 {
            first // empty: next == end
        } else {
            // Saturates only for 1-byte blocks, whose id `u64::MAX`
            // has no exclusive end.
            (offset.saturating_add(len as u64 - 1) >> self.shift()).saturating_add(1)
        };
        BlockSpan { next: first, end }
    }

    /// Bytes of `block` that lie in `[offset, offset + len)`, the range
    /// clamped at the end of the address space like
    /// [`span`](Self::span); 0 when they are disjoint.
    #[inline]
    pub const fn overlap(self, block: BlockId, offset: u64, len: u32) -> u32 {
        // Inclusive ends keep the arithmetic exact in the last block of
        // the address space, whose exclusive end is 2^64.
        if len == 0 {
            return 0;
        }
        let last = offset.saturating_add(len as u64 - 1);
        let block_start = self.offset_of(block);
        let block_last = block_start | (self.0 as u64 - 1);
        let lo = if offset > block_start {
            offset
        } else {
            block_start
        };
        let hi = if last < block_last { last } else { block_last };
        if lo > hi {
            0
        } else {
            (hi - lo) as u32 + 1
        }
    }

    /// Enumerates the blocks touched by a request.
    #[inline]
    pub const fn span_of(self, req: &IoRequest) -> BlockSpan {
        self.span(req.offset(), req.len())
    }

    /// Number of blocks touched by the byte range `[offset, offset+len)`.
    #[inline]
    pub const fn count(self, offset: u64, len: u32) -> u64 {
        let span = self.span(offset, len);
        span.end - span.next
    }
}

impl Default for BlockSize {
    fn default() -> Self {
        BlockSize::DEFAULT
    }
}

impl fmt::Display for BlockSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 % 1024 == 0 {
            write!(f, "{}KiB", self.0 / 1024)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// Identifier of one fixed-size block within a volume.
///
/// Block ids are dense: block *k* covers bytes
/// `[k * block_size, (k + 1) * block_size)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BlockId(u64);

impl BlockId {
    /// Creates a block id from its dense index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        BlockId(index)
    }

    /// Returns the dense index.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk-{}", self.0)
    }
}

impl From<u64> for BlockId {
    #[inline]
    fn from(index: u64) -> Self {
        BlockId(index)
    }
}

impl From<BlockId> for u64 {
    #[inline]
    fn from(b: BlockId) -> u64 {
        b.0
    }
}

/// Iterator over the [`BlockId`]s touched by a byte range.
///
/// Produced by [`BlockSize::span`] / [`BlockSize::span_of`]. A consumer
/// that works per span rather than per block (the cache sweep's span
/// columns) reads an unconsumed span as [`first`](Self::first) plus
/// [`remaining`](Self::remaining) — both `const`, both carrying
/// `span`'s clamp at the end of the address space, so the arithmetic is
/// derived in one place.
#[derive(Debug, Clone)]
pub struct BlockSpan {
    next: u64,
    end: u64,
}

impl BlockSpan {
    /// Number of blocks remaining in the span: its length while
    /// unconsumed. (`len()` is the `ExactSizeIterator` one, in `usize`.)
    #[inline]
    pub const fn remaining(&self) -> u64 {
        self.end - self.next
    }

    /// Returns `true` if the span covers no blocks.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.next == self.end
    }

    /// The first block of the span, if any (without consuming it).
    #[inline]
    pub const fn first(&self) -> Option<BlockId> {
        if self.is_empty() {
            None
        } else {
            Some(BlockId(self.next))
        }
    }
}

impl Iterator for BlockSpan {
    type Item = BlockId;

    #[inline]
    fn next(&mut self) -> Option<BlockId> {
        if self.next < self.end {
            let id = BlockId(self.next);
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for BlockSpan {}

impl std::iter::FusedIterator for BlockSpan {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpKind, Timestamp, VolumeId};

    const BS: BlockSize = BlockSize::DEFAULT;

    #[test]
    fn rejects_non_power_of_two() {
        assert!(BlockSize::new(0).is_none());
        assert!(BlockSize::new(4095).is_none());
        assert!(BlockSize::new(4096).is_some());
        assert!(BlockSize::new(1).is_some());
    }

    #[test]
    fn block_of_and_offset_of_roundtrip() {
        assert_eq!(BS.block_of(0), BlockId::new(0));
        assert_eq!(BS.block_of(4095), BlockId::new(0));
        assert_eq!(BS.block_of(4096), BlockId::new(1));
        assert_eq!(BS.offset_of(BlockId::new(3)), 12288);
        assert_eq!(
            BS.block_of(BS.offset_of(BlockId::new(77))),
            BlockId::new(77)
        );
    }

    #[test]
    fn aligned_span() {
        let blocks: Vec<_> = BS.span(4096, 8192).collect();
        assert_eq!(blocks, vec![BlockId::new(1), BlockId::new(2)]);
    }

    #[test]
    fn unaligned_span_touches_partial_blocks() {
        // [4000, 4000 + 200) straddles blocks 0 and... no, stays in block 0.
        let blocks: Vec<_> = BS.span(4000, 90).collect();
        assert_eq!(blocks, vec![BlockId::new(0)]);
        // [4000, 4300) straddles blocks 0 and 1.
        let blocks: Vec<_> = BS.span(4000, 300).collect();
        assert_eq!(blocks, vec![BlockId::new(0), BlockId::new(1)]);
    }

    #[test]
    fn single_byte_span() {
        let blocks: Vec<_> = BS.span(8192, 1).collect();
        assert_eq!(blocks, vec![BlockId::new(2)]);
    }

    #[test]
    fn zero_length_span_is_empty() {
        let mut span = BS.span(4096, 0);
        assert!(span.is_empty());
        assert_eq!(span.first(), None);
        assert_eq!(span.next(), None);
        assert_eq!(BS.count(4096, 0), 0);
    }

    #[test]
    fn spans_clamp_at_the_end_of_the_address_space() {
        // offset + len > u64::MAX used to wrap: `first` huge, `end`
        // tiny, an "empty" span whose size_hint underflowed.
        let last_block = BlockId::new(u64::MAX >> BS.shift());
        for (off, len) in [
            (u64::MAX - 10, 4096u32),
            (u64::MAX, 1),
            (u64::MAX, u32::MAX),
            (u64::MAX - 4095, 4096),
        ] {
            let span = BS.span(off, len);
            assert_eq!(span.size_hint(), (1, Some(1)), "off={off} len={len}");
            assert_eq!(BS.count(off, len), 1);
            assert_eq!(span.collect::<Vec<_>>(), vec![last_block]);
        }
        // Two blocks, the second cut short by the clamp.
        let span = BS.span(u64::MAX - 4100, 8192);
        assert_eq!(span.len(), 2);
        assert_eq!(BS.count(u64::MAX - 4100, 8192), 2);
        assert_eq!(span.last(), Some(last_block));
        // Zero length stays empty wherever it sits.
        for off in [u64::MAX, u64::MAX - 1, u64::MAX - 4096] {
            let span = BS.span(off, 0);
            assert!(span.is_empty());
            assert_eq!(span.size_hint(), (0, Some(0)));
            assert_eq!(BS.count(off, 0), 0);
        }
        // 1-byte blocks: id u64::MAX has no exclusive end, so the span
        // stops before it rather than overflowing.
        let bytes = BlockSize::new(1).unwrap();
        assert_eq!(bytes.count(u64::MAX - 3, 100), 3);
        assert_eq!(bytes.span(u64::MAX, 5).size_hint(), (0, Some(0)));
    }

    #[test]
    fn first_and_remaining_describe_the_clamped_span() {
        // What a span column stores must be what iteration yields.
        for (off, len) in [
            (u64::MAX - 10, 4096u32),
            (u64::MAX - 4100, 8192),
            (4000, 300),
        ] {
            let span = BS.span(off, len);
            let first = span.first().expect("non-empty");
            let blocks: Vec<_> = span.clone().collect();
            assert_eq!(blocks.len() as u64, span.remaining());
            let walked: Vec<_> = (first.get()..first.get() + span.remaining())
                .map(BlockId::new)
                .collect();
            assert_eq!(walked, blocks, "off={off} len={len}");
        }
        let clamped = BS.span(u64::MAX - 10, 4096);
        assert_eq!(clamped.first(), Some(BS.block_of(u64::MAX)));
        assert_eq!(clamped.remaining(), 1);
        // 1-byte blocks: `first + remaining` stops short of overflow.
        let bytes = BlockSize::new(1).unwrap();
        let span = bytes.span(u64::MAX - 3, 100);
        assert_eq!(span.first().map(BlockId::get), Some(u64::MAX - 3));
        assert_eq!(span.remaining(), 3);
    }

    #[test]
    fn overlap_is_exact_up_to_the_last_byte() {
        assert_eq!(BS.overlap(BlockId::new(0), 4000, 300), 96);
        assert_eq!(BS.overlap(BlockId::new(1), 4000, 300), 204);
        assert_eq!(BS.overlap(BlockId::new(2), 4000, 300), 0);
        assert_eq!(BS.overlap(BlockId::new(0), 4000, 0), 0);
        // Clamped request: 11 bytes remain below 2^64.
        let top = BS.block_of(u64::MAX);
        assert_eq!(BS.overlap(top, u64::MAX - 10, 4096), 11);
        // A whole block at the very top, and the largest block size.
        assert_eq!(BS.overlap(top, u64::MAX - 4095, u32::MAX), 4096);
        let big = BlockSize::new(1 << 31).unwrap();
        let start = big.offset_of(big.block_of(u64::MAX));
        assert_eq!(
            big.overlap(big.block_of(u64::MAX), start, u32::MAX),
            1 << 31
        );
    }

    #[test]
    fn count_matches_span_len() {
        for (off, len) in [
            (0u64, 1u32),
            (1, 4096),
            (4095, 2),
            (0, 65536),
            (12345, 9999),
        ] {
            let expected = BS.span(off, len).count() as u64;
            assert_eq!(BS.count(off, len), expected, "off={off} len={len}");
        }
    }

    #[test]
    fn span_of_request() {
        let r = IoRequest::new(VolumeId::new(0), OpKind::Read, 4095, 2, Timestamp::ZERO);
        let blocks: Vec<_> = BS.span_of(&r).collect();
        assert_eq!(blocks, vec![BlockId::new(0), BlockId::new(1)]);
    }

    #[test]
    fn exact_size_iterator() {
        let span = BS.span(0, 16384);
        assert_eq!(span.len(), 4);
        assert_eq!(span.remaining(), 4);
    }

    #[test]
    fn display_formats() {
        assert_eq!(BlockSize::DEFAULT.to_string(), "4KiB");
        assert_eq!(BlockSize::new(512).unwrap().to_string(), "512B");
        assert_eq!(BlockId::new(5).to_string(), "blk-5");
    }

    #[test]
    fn other_block_sizes() {
        let bs = BlockSize::new(16384).unwrap();
        assert_eq!(bs.block_of(16383), BlockId::new(0));
        assert_eq!(bs.block_of(16384), BlockId::new(1));
        assert_eq!(bs.span(0, 65536).count(), 4);
    }
}
