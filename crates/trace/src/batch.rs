//! Struct-of-arrays request batches: [`RequestBatch`].
//!
//! The streaming pipeline moves requests between threads and feeds them
//! to analysis kernels in batches. Carrying them as `Vec<IoRequest>`
//! (array-of-structs) makes every kernel loop stride over 32-byte
//! records even when it only needs one field; `RequestBatch` stores
//! each field in its own column so that
//!
//! * batched kernels ([`observe_batch`]) scan exactly the columns they
//!   use at full cache-line density,
//! * the columnar trace codec ([`crate::codec::cbt`]) encodes and
//!   decodes straight out of the columns without transposing, and
//! * channel transfers move five `Vec`s regardless of batch length.
//!
//! A batch imposes no ordering or single-volume invariant of its own —
//! it is a plain container; producers keep whatever ordering contract
//! their consumer requires (the streaming pipeline preserves per-volume
//! timestamp order exactly as it did with `Vec<IoRequest>`).
//!
//! [`observe_batch`]: ../../cbs_analysis/struct.VolumeAnalyzer.html#method.observe_batch

use crate::{BlockId, BlockSize, IoRequest, OpKind, Timestamp, VolumeId};

/// A batch of requests in struct-of-arrays layout.
///
/// All five columns always have identical length. Records can be
/// appended from [`IoRequest`]s ([`push`](Self::push)) or read back out
/// ([`get`](Self::get), [`iter`](Self::iter)); kernels that want raw
/// columns use the slice accessors.
///
/// # Example
///
/// ```
/// use cbs_trace::{IoRequest, OpKind, RequestBatch, Timestamp, VolumeId};
///
/// let mut batch = RequestBatch::new();
/// batch.push(&IoRequest::new(
///     VolumeId::new(3),
///     OpKind::Write,
///     4096,
///     8192,
///     Timestamp::from_secs(1),
/// ));
/// assert_eq!(batch.len(), 1);
/// assert_eq!(batch.offsets()[0], 4096);
/// assert_eq!(batch.get(0).op(), OpKind::Write);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestBatch {
    volumes: Vec<VolumeId>,
    ops: Vec<OpKind>,
    offsets: Vec<u64>,
    lens: Vec<u32>,
    timestamps: Vec<Timestamp>,
}

impl RequestBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `capacity` records in every
    /// column.
    pub fn with_capacity(capacity: usize) -> Self {
        RequestBatch {
            volumes: Vec::with_capacity(capacity),
            ops: Vec::with_capacity(capacity),
            offsets: Vec::with_capacity(capacity),
            lens: Vec::with_capacity(capacity),
            timestamps: Vec::with_capacity(capacity),
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.volumes.len()
    }

    /// Returns `true` if the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.volumes.is_empty()
    }

    /// Appends one request.
    #[inline]
    pub fn push(&mut self, req: &IoRequest) {
        self.push_fields(req.volume(), req.op(), req.offset(), req.len(), req.ts());
    }

    /// Appends one record from its fields (no `IoRequest` round-trip).
    #[inline]
    pub fn push_fields(
        &mut self,
        volume: VolumeId,
        op: OpKind,
        offset: u64,
        len: u32,
        ts: Timestamp,
    ) {
        self.volumes.push(volume);
        self.ops.push(op);
        self.offsets.push(offset);
        self.lens.push(len);
        self.timestamps.push(ts);
    }

    /// Appends records `range` of `other`, column by column.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past `other.len()`, like slice indexing.
    pub fn extend_from_range(&mut self, other: &RequestBatch, range: std::ops::Range<usize>) {
        self.volumes
            .extend_from_slice(&other.volumes[range.clone()]);
        self.ops.extend_from_slice(&other.ops[range.clone()]);
        self.offsets
            .extend_from_slice(&other.offsets[range.clone()]);
        self.lens.extend_from_slice(&other.lens[range.clone()]);
        self.timestamps.extend_from_slice(&other.timestamps[range]);
    }

    /// Reassembles record `index` as an [`IoRequest`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`, like slice indexing.
    #[inline]
    pub fn get(&self, index: usize) -> IoRequest {
        IoRequest::new(
            self.volumes[index],
            self.ops[index],
            self.offsets[index],
            self.lens[index],
            self.timestamps[index],
        )
    }

    /// The volume-id column.
    #[inline]
    pub fn volumes(&self) -> &[VolumeId] {
        &self.volumes
    }

    /// The operation-kind column.
    #[inline]
    pub fn ops(&self) -> &[OpKind] {
        &self.ops
    }

    /// The byte-offset column.
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The byte-length column.
    #[inline]
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// The timestamp column.
    #[inline]
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.timestamps
    }

    /// Rewrites the volume column in place. Used when volume ids were
    /// interned against a local registry (e.g. per-chunk during
    /// parallel MSRC decoding) and must be remapped to global ids.
    pub fn remap_volumes<F>(&mut self, mut f: F)
    where
        F: FnMut(VolumeId) -> VolumeId,
    {
        for v in &mut self.volumes {
            *v = f(*v);
        }
    }

    /// Removes all records, keeping the columns' capacity.
    pub fn clear(&mut self) {
        self.volumes.clear();
        self.ops.clear();
        self.offsets.clear();
        self.lens.clear();
        self.timestamps.clear();
    }

    /// Iterates the records as [`IoRequest`]s in batch order.
    pub fn iter(&self) -> impl Iterator<Item = IoRequest> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Expands every record into its block-granular accesses, replacing
    /// the contents of `out` — the shared expansion kernel.
    ///
    /// The result is exactly the concatenation of
    /// [`BlockSize::span_of`] over the records in batch order, paired
    /// with each record's op (zero-length records touch no blocks), but
    /// computed straight off the offset/len/op columns. Its consumer is
    /// the per-configuration cache simulation (`CacheSim::run_batch`,
    /// the naive loop of `cache_perf`), which reuses one scratch column
    /// across batches. The sweep engine does not build it: it keeps
    /// each record as a span
    /// ([`BlockSpan::first`](crate::BlockSpan::first) and
    /// [`remaining`](crate::BlockSpan::remaining) of the same
    /// [`BlockSize::span`]) and lets its lanes walk the spans.
    pub fn expand_blocks_into(&self, block_size: BlockSize, out: &mut BlockAccessColumn) {
        out.clear();
        for i in 0..self.len() {
            let op = self.ops[i];
            for block in block_size.span(self.offsets[i], self.lens[i]) {
                out.blocks.push(block);
                out.ops.push(op);
            }
        }
    }

    /// Copies the batch out as a flat request vector.
    pub fn to_requests(&self) -> Vec<IoRequest> {
        self.iter().collect()
    }

    /// Borrows the batch as a [`RequestBatchRef`] column view.
    #[inline]
    pub fn as_ref(&self) -> RequestBatchRef<'_> {
        RequestBatchRef {
            volumes: &self.volumes,
            ops: &self.ops,
            offsets: &self.offsets,
            lens: &self.lens,
            timestamps: &self.timestamps,
        }
    }

    /// Mutable access to all five columns at once, for decoders that
    /// fill a batch column-by-column. Callers must leave every column
    /// at the same length.
    #[inline]
    pub(crate) fn columns_mut(&mut self) -> ColumnsMut<'_> {
        (
            &mut self.volumes,
            &mut self.ops,
            &mut self.offsets,
            &mut self.lens,
            &mut self.timestamps,
        )
    }
}

/// All five column vectors of a [`RequestBatch`], borrowed mutably
/// (volumes, ops, offsets, lens, timestamps).
pub(crate) type ColumnsMut<'a> = (
    &'a mut Vec<VolumeId>,
    &'a mut Vec<OpKind>,
    &'a mut Vec<u64>,
    &'a mut Vec<u32>,
    &'a mut Vec<Timestamp>,
);

/// A borrowed struct-of-arrays view of a batch of requests.
///
/// The zero-copy counterpart of [`RequestBatch`]: five column slices
/// with identical lengths, borrowed from whoever owns the backing
/// storage — an owned batch ([`RequestBatch::as_ref`]) or a decoder's
/// reused column buffers ([`CbtSliceReader::read_batch_ref`]). Handing
/// out a `RequestBatchRef` moves records between pipeline stages
/// without cloning five `Vec`s per block.
///
/// [`CbtSliceReader::read_batch_ref`]:
///     crate::codec::cbt::CbtSliceReader::read_batch_ref
///
/// # Example
///
/// ```
/// use cbs_trace::{IoRequest, OpKind, RequestBatch, Timestamp, VolumeId};
///
/// let mut batch = RequestBatch::new();
/// batch.push(&IoRequest::new(
///     VolumeId::new(3),
///     OpKind::Write,
///     4096,
///     8192,
///     Timestamp::from_secs(1),
/// ));
/// let view = batch.as_ref();
/// assert_eq!(view.len(), 1);
/// assert_eq!(view.offsets()[0], 4096);
/// assert_eq!(view.get(0), batch.get(0));
/// assert_eq!(view.to_batch(), batch);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestBatchRef<'a> {
    volumes: &'a [VolumeId],
    ops: &'a [OpKind],
    offsets: &'a [u64],
    lens: &'a [u32],
    timestamps: &'a [Timestamp],
}

impl<'a> RequestBatchRef<'a> {
    /// Assembles a view from five equal-length column slices.
    ///
    /// # Panics
    ///
    /// Panics if the columns differ in length.
    pub fn from_columns(
        volumes: &'a [VolumeId],
        ops: &'a [OpKind],
        offsets: &'a [u64],
        lens: &'a [u32],
        timestamps: &'a [Timestamp],
    ) -> Self {
        assert!(
            ops.len() == volumes.len()
                && offsets.len() == volumes.len()
                && lens.len() == volumes.len()
                && timestamps.len() == volumes.len(),
            "request batch columns must have identical lengths"
        );
        RequestBatchRef {
            volumes,
            ops,
            offsets,
            lens,
            timestamps,
        }
    }

    /// Number of records in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.volumes.len()
    }

    /// Returns `true` if the view holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.volumes.is_empty()
    }

    /// Reassembles record `index` as an [`IoRequest`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`, like slice indexing.
    #[inline]
    pub fn get(&self, index: usize) -> IoRequest {
        IoRequest::new(
            self.volumes[index],
            self.ops[index],
            self.offsets[index],
            self.lens[index],
            self.timestamps[index],
        )
    }

    /// The volume-id column.
    #[inline]
    pub fn volumes(&self) -> &'a [VolumeId] {
        self.volumes
    }

    /// The operation-kind column.
    #[inline]
    pub fn ops(&self) -> &'a [OpKind] {
        self.ops
    }

    /// The byte-offset column.
    #[inline]
    pub fn offsets(&self) -> &'a [u64] {
        self.offsets
    }

    /// The byte-length column.
    #[inline]
    pub fn lens(&self) -> &'a [u32] {
        self.lens
    }

    /// The timestamp column.
    #[inline]
    pub fn timestamps(&self) -> &'a [Timestamp] {
        self.timestamps
    }

    /// Iterates the records as [`IoRequest`]s in batch order.
    pub fn iter(&self) -> impl Iterator<Item = IoRequest> + 'a {
        let this = *self;
        (0..this.len()).map(move |i| this.get(i))
    }

    /// Copies the view into an owned [`RequestBatch`].
    pub fn to_batch(&self) -> RequestBatch {
        RequestBatch {
            volumes: self.volumes.to_vec(),
            ops: self.ops.to_vec(),
            offsets: self.offsets.to_vec(),
            lens: self.lens.to_vec(),
            timestamps: self.timestamps.to_vec(),
        }
    }
}

/// Block-granular accesses in struct-of-arrays layout: the shared
/// expansion of a [`RequestBatch`].
///
/// Each entry is one `(block, op)` access, in the order
/// [`BlockSize::span_of`] would have produced while walking the batch.
/// Per-configuration cache simulation (`CacheSim::run_batch`) walks
/// this column; the single-pass sweep engine works from spans and
/// never materialises it.
///
/// # Example
///
/// ```
/// use cbs_trace::{BlockAccessColumn, BlockSize, IoRequest, OpKind, RequestBatch,
///                 Timestamp, VolumeId};
///
/// let mut batch = RequestBatch::new();
/// batch.push(&IoRequest::new(
///     VolumeId::new(0), OpKind::Write, 4096, 8192, Timestamp::ZERO,
/// ));
/// let mut col = BlockAccessColumn::new();
/// batch.expand_blocks_into(BlockSize::DEFAULT, &mut col);
/// assert_eq!(col.len(), 2); // blocks 1 and 2
/// assert_eq!(col.blocks()[0].get(), 1);
/// assert_eq!(col.ops()[1], OpKind::Write);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockAccessColumn {
    blocks: Vec<BlockId>,
    ops: Vec<OpKind>,
}

impl BlockAccessColumn {
    /// Creates an empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty column with room for `capacity` accesses.
    pub fn with_capacity(capacity: usize) -> Self {
        BlockAccessColumn {
            blocks: Vec::with_capacity(capacity),
            ops: Vec::with_capacity(capacity),
        }
    }

    /// Number of block accesses.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if the column holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Appends one block access.
    #[inline]
    pub fn push(&mut self, block: BlockId, op: OpKind) {
        self.blocks.push(block);
        self.ops.push(op);
    }

    /// The block-id column.
    #[inline]
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// The operation-kind column.
    #[inline]
    pub fn ops(&self) -> &[OpKind] {
        &self.ops
    }

    /// Removes all accesses, keeping the columns' capacity.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.ops.clear();
    }

    /// Iterates the accesses as `(block, op)` pairs in column order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, OpKind)> + '_ {
        self.blocks.iter().copied().zip(self.ops.iter().copied())
    }
}

impl From<&[IoRequest]> for RequestBatch {
    fn from(requests: &[IoRequest]) -> Self {
        let mut batch = RequestBatch::with_capacity(requests.len());
        for req in requests {
            batch.push(req);
        }
        batch
    }
}

impl From<Vec<IoRequest>> for RequestBatch {
    fn from(requests: Vec<IoRequest>) -> Self {
        RequestBatch::from(requests.as_slice())
    }
}

impl FromIterator<IoRequest> for RequestBatch {
    fn from_iter<I: IntoIterator<Item = IoRequest>>(iter: I) -> Self {
        let mut batch = RequestBatch::new();
        for req in iter {
            batch.push(&req);
        }
        batch
    }
}

impl Extend<IoRequest> for RequestBatch {
    fn extend<I: IntoIterator<Item = IoRequest>>(&mut self, iter: I) {
        for req in iter {
            self.push(&req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<IoRequest> {
        (0..n)
            .map(|i| {
                IoRequest::new(
                    VolumeId::new((i % 5) as u32),
                    if i % 3 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    (i as u64) * 4096,
                    512 * (i as u32 % 9 + 1),
                    Timestamp::from_micros(i as u64 * 250),
                )
            })
            .collect()
    }

    #[test]
    fn roundtrips_requests() {
        let reqs = sample(100);
        let batch = RequestBatch::from(reqs.as_slice());
        assert_eq!(batch.len(), 100);
        assert!(!batch.is_empty());
        assert_eq!(batch.to_requests(), reqs);
        for (i, req) in reqs.iter().enumerate() {
            assert_eq!(&batch.get(i), req);
        }
    }

    #[test]
    fn columns_are_consistent() {
        let reqs = sample(17);
        let batch: RequestBatch = reqs.iter().copied().collect();
        assert_eq!(batch.volumes().len(), 17);
        assert_eq!(batch.ops().len(), 17);
        assert_eq!(batch.offsets().len(), 17);
        assert_eq!(batch.lens().len(), 17);
        assert_eq!(batch.timestamps().len(), 17);
        assert_eq!(batch.offsets()[3], reqs[3].offset());
        assert_eq!(batch.lens()[4], reqs[4].len());
        assert_eq!(batch.timestamps()[5], reqs[5].ts());
        assert_eq!(batch.volumes()[6], reqs[6].volume());
        assert_eq!(batch.ops()[7], reqs[7].op());
    }

    #[test]
    fn clear_keeps_nothing() {
        let mut batch = RequestBatch::from(sample(10));
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.iter().count(), 0);
    }

    #[test]
    fn extend_appends() {
        let reqs = sample(6);
        let mut batch = RequestBatch::from(&reqs[..3]);
        batch.extend(reqs[3..].iter().copied());
        assert_eq!(batch.to_requests(), reqs);
    }

    #[test]
    fn expansion_matches_span_of() {
        let bs = BlockSize::DEFAULT;
        let mut reqs = sample(200);
        // Unaligned straddlers and a zero-length record.
        reqs.push(IoRequest::new(
            VolumeId::new(9),
            OpKind::Read,
            4000,
            300,
            Timestamp::ZERO,
        ));
        reqs.push(IoRequest::new(
            VolumeId::new(9),
            OpKind::Write,
            8192,
            0,
            Timestamp::ZERO,
        ));
        // Reaches past u64::MAX: clamped to the last block, not wrapped.
        reqs.push(IoRequest::new(
            VolumeId::new(9),
            OpKind::Write,
            u64::MAX - 10,
            4096,
            Timestamp::ZERO,
        ));
        let batch = RequestBatch::from(reqs.as_slice());
        let mut col = BlockAccessColumn::new();
        batch.expand_blocks_into(bs, &mut col);
        assert_eq!(col.blocks().last(), Some(&bs.block_of(u64::MAX)));
        let expected: Vec<(BlockId, OpKind)> = reqs
            .iter()
            .flat_map(|r| bs.span_of(r).map(move |b| (b, r.op())))
            .collect();
        assert_eq!(col.len(), expected.len());
        assert_eq!(col.iter().collect::<Vec<_>>(), expected);
        assert_eq!(col.blocks().len(), col.ops().len());
    }

    #[test]
    fn expansion_replaces_previous_contents() {
        let bs = BlockSize::DEFAULT;
        let mut col = BlockAccessColumn::with_capacity(8);
        col.push(BlockId::new(77), OpKind::Read);
        RequestBatch::from(sample(5)).expand_blocks_into(bs, &mut col);
        assert!(col.blocks().iter().all(|b| b.get() != 77));
        RequestBatch::new().expand_blocks_into(bs, &mut col);
        assert!(col.is_empty());
        assert_eq!(col.iter().count(), 0);
    }

    #[test]
    fn expansion_respects_block_size() {
        let bs = BlockSize::new(16384).expect("power of two");
        let reqs = sample(50);
        let batch = RequestBatch::from(reqs.as_slice());
        let mut col = BlockAccessColumn::new();
        batch.expand_blocks_into(bs, &mut col);
        let expected: u64 = reqs.iter().map(|r| bs.count(r.offset(), r.len())).sum();
        assert_eq!(col.len() as u64, expected);
    }

    #[test]
    fn equality_is_by_content() {
        let reqs = sample(8);
        let a = RequestBatch::from(reqs.as_slice());
        let b: RequestBatch = reqs.into_iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, RequestBatch::new());
    }
}
