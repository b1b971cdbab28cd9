//! Dense block numbers: [`BlockNo`], minted once by a
//! [`BlockNumbering`], and the direct index policies keep by them.
//!
//! Block ids are sparse 64-bit values, so a policy that looks a block
//! up by its id needs a hash table, and a sweep with `k` policy lanes
//! hashes every block touch `k` times. A [`BlockNumbering`] hashes each
//! touch once, where the data enters, and hands out the block's
//! first-touch number: `0, 1, 2, …` in the order distinct blocks first
//! appear. The number space is exactly the distinct blocks, so every
//! policy finds its node with one array load ([`DirectIndex`]) instead
//! of a probe.
//!
//! [`BlockNo`] has no public constructor: only a numbering mints one,
//! so a raw block id never reaches a direct index (one near 2⁶⁴ would
//! ask it for an array that large).
//!
//! A numbering is the workspace's one map keyed by block id. Everything
//! else that keeps per-block state indexes a plain `Vec` by number: the
//! policies ([`DirectIndex`]), the LRU stack ([`crate::BlockStack`]'s
//! positions) and the volume analyzer in `cbs-analysis` (its per-block
//! states).

use cbs_trace::hash::FxHashMap;
use cbs_trace::BlockId;

use crate::list::NIL;

/// Number of consecutive block ids whose numbers share one chunk.
const CHUNK_BLOCKS: u64 = 16;

/// A block's dense first-touch number, the key every
/// [`CachePolicy`](crate::CachePolicy) indexes by. Minted only by a
/// [`BlockNumbering`]; always below `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockNo(u32);

impl BlockNo {
    /// The number as an index: `0` for the first block numbered.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Any number, for unit tests of code keyed by numbers.
    #[cfg(test)]
    pub(crate) const fn from_raw(n: u32) -> BlockNo {
        BlockNo(n)
    }
}

/// Gives every distinct block a dense `u32` number on its first touch.
///
/// Numbers live in 16-block chunks behind one hash lookup per chunk,
/// so a span of consecutive block ids costs one probe per chunk it
/// crosses, not one per block. Only chunks that hold a numbered block
/// exist, and a number exists only for a touched block, so a store
/// indexed by number keeps no empty slots however sparse the ids.
///
/// # Example
///
/// ```
/// use cbs_cache::BlockNumbering;
/// use cbs_trace::BlockId;
///
/// let mut numbers = BlockNumbering::new();
/// let far = numbers.number(BlockId::new(1 << 60));
/// let near = numbers.number(BlockId::new(7));
/// numbers.number(BlockId::new(50));
/// assert_eq!((far.index(), near.index()), (0, 1)); // first-touch order
/// assert_eq!(numbers.number(BlockId::new(1 << 60)), far);
/// // A span enters as runs of consecutive numbers: 7 has 1 already,
/// // 8 and 9 get 3 and 4.
/// let mut runs = Vec::new();
/// numbers.number_span(BlockId::new(7), 3, |first, n| runs.push((first.index(), n)));
/// assert_eq!(runs, [(1, 1), (3, 2)]);
/// assert_eq!(numbers.len(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockNumbering {
    /// Chunk id (block id / 16) → index into `chunks`.
    chunk_index: FxHashMap<u64, u32>,
    /// Numbers of a chunk's 16 blocks, [`NIL`] where not yet numbered.
    chunks: Vec<[u32; CHUNK_BLOCKS as usize]>,
    /// The next number to hand out: the count of distinct blocks.
    next: u32,
}

impl BlockNumbering {
    /// Creates a numbering that has numbered nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct blocks numbered so far.
    pub fn len(&self) -> usize {
        self.next as usize
    }

    /// Returns `true` if no block has been numbered.
    pub fn is_empty(&self) -> bool {
        self.next == 0
    }

    /// `block`'s number, if it has one; mints nothing. Tests map
    /// numbers back to blocks with it.
    #[cfg(test)]
    pub(crate) fn get(&self, block: BlockId) -> Option<BlockNo> {
        let chunk = *self.chunk_index.get(&(block.get() / CHUNK_BLOCKS))?;
        let no = self.chunks[chunk as usize][(block.get() % CHUNK_BLOCKS) as usize];
        (no != NIL).then_some(BlockNo(no))
    }

    /// `block`'s number, minting the next one on its first touch.
    ///
    /// # Panics
    ///
    /// Panics if every number below `u32::MAX` is taken.
    #[inline]
    pub fn number(&mut self, block: BlockId) -> BlockNo {
        let chunk = self.chunk_of(block.get() / CHUNK_BLOCKS);
        let slot = &mut self.chunks[chunk][(block.get() % CHUNK_BLOCKS) as usize];
        if *slot == NIL {
            *slot = mint(&mut self.next);
        }
        BlockNo(*slot)
    }

    /// Numbers the `blocks` consecutive block ids from `first` on, in
    /// ascending order, and reports them as maximal runs of consecutive
    /// numbers: `sink(first number, count)` per run, in block order. A
    /// span first touched together, or all new, is one run.
    ///
    /// `first + blocks` must not overflow (a [`cbs_trace::BlockSpan`]
    /// never does).
    ///
    /// # Panics
    ///
    /// Panics if every number below `u32::MAX` is taken.
    #[inline]
    pub fn number_span(&mut self, first: BlockId, blocks: u64, mut sink: impl FnMut(BlockNo, u32)) {
        // The pending run: its first number and length (0 = none).
        let (mut run, mut len) = (BlockNo(0), 0u32);
        let mut block = first.get();
        let end = block + blocks;
        while block < end {
            // The part of the span inside `block`'s chunk, one lookup.
            let slot = (block % CHUNK_BLOCKS) as usize;
            let m = (CHUNK_BLOCKS - slot as u64).min(end - block) as usize;
            let chunk = self.chunk_of(block / CHUNK_BLOCKS);
            for no in &mut self.chunks[chunk][slot..slot + m] {
                if *no == NIL {
                    *no = mint(&mut self.next);
                }
                if len > 0 && *no == run.0 + len {
                    len += 1;
                } else {
                    if len > 0 {
                        sink(run, len);
                    }
                    (run, len) = (BlockNo(*no), 1);
                }
            }
            block += m as u64;
        }
        if len > 0 {
            sink(run, len);
        }
    }

    /// Index into `chunks` of chunk `id`, created unnumbered if new.
    #[inline]
    fn chunk_of(&mut self, id: u64) -> usize {
        let next = self.chunks.len() as u32;
        let index = *self.chunk_index.entry(id).or_insert(next);
        if index == next {
            self.chunks.push([NIL; CHUNK_BLOCKS as usize]);
        }
        index as usize
    }
}

/// Hands out `*next` and advances it, keeping every number below
/// [`NIL`].
#[inline]
fn mint(next: &mut u32) -> u32 {
    assert!(*next < NIL, "block numbering is out of u32 numbers");
    let no = *next;
    *next += 1;
    no
}

/// The numbers of a run a numbering reported: `first`, `first + 1`, …
/// `n` of them.
pub(crate) fn run_numbers(first: BlockNo, n: u32) -> impl Iterator<Item = BlockNo> {
    (first.0..first.0 + n).map(BlockNo)
}

/// A `u32` per block number, [`NIL`] where the block is untracked: the
/// one index the policies keep. It grows to the highest number stored
/// (`resize(n + 1)`), never ahead of it, so its size is bounded by the
/// distinct blocks of the numbering that minted the keys.
#[derive(Debug, Clone, Default)]
pub(crate) struct DirectIndex {
    slots: Vec<u32>,
}

impl DirectIndex {
    /// The value stored for `no`, if any.
    #[inline]
    pub(crate) fn get(&self, no: BlockNo) -> Option<u32> {
        match self.slots.get(no.index()) {
            Some(&value) if value != NIL => Some(value),
            _ => None,
        }
    }

    /// Stores `value` (not [`NIL`]) for `no`.
    #[inline]
    pub(crate) fn insert(&mut self, no: BlockNo, value: u32) {
        debug_assert!(value != NIL, "NIL marks an untracked block");
        let i = no.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, NIL);
        }
        self.slots[i] = value;
    }

    /// Forgets `no`, which must have a value.
    #[inline]
    pub(crate) fn remove(&mut self, no: BlockNo) {
        debug_assert!(self.get(no).is_some(), "removed an untracked block");
        self.slots[no.index()] = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockId {
        BlockId::new(i)
    }

    /// The runs `number_span` reports for a span, as `(first, count)`.
    fn span_numbers(numbers: &mut BlockNumbering, first: u64, n: u64) -> Vec<(u32, u32)> {
        let mut runs = Vec::new();
        numbers.number_span(b(first), n, |no, k| runs.push((no.0, k)));
        runs
    }

    #[test]
    fn numbers_follow_first_touch_order() {
        let mut numbers = BlockNumbering::new();
        assert!(numbers.is_empty());
        let order = [900u64, 3, 1 << 40, 3, 17, 900, u64::MAX];
        let got: Vec<u32> = order.iter().map(|&x| numbers.number(b(x)).0).collect();
        assert_eq!(got, [0, 1, 2, 1, 3, 0, 4]);
        assert_eq!(numbers.len(), 5);
        assert_eq!(numbers.get(b(17)), Some(BlockNo(3)));
        assert_eq!(numbers.get(b(18)), None, "get mints nothing");
        assert_eq!(numbers.get(b(1 << 50)), None);
        assert_eq!(numbers.len(), 5);
    }

    #[test]
    fn numbering_is_a_bijection_onto_0_to_len() {
        // Spread ids, chunk neighbours and repeats, through both entries.
        let mut numbers = BlockNumbering::new();
        let mut seen = std::collections::HashMap::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..5000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let block = match step % 3 {
                0 => state.min(u64::MAX - 1),
                1 => state % 200,
                _ => (state % 64) << 36,
            };
            let no = if step % 2 == 0 {
                numbers.number(b(block))
            } else {
                let runs = span_numbers(&mut numbers, block, 1);
                assert_eq!(runs.len(), 1);
                BlockNo(runs[0].0)
            };
            assert_eq!(*seen.entry(block).or_insert(no), no, "block {block}");
        }
        let mut all: Vec<u32> = seen.values().map(|no| no.0).collect();
        all.sort_unstable();
        assert_eq!(all, (0..numbers.len() as u32).collect::<Vec<_>>());
        for (&block, &no) in &seen {
            assert_eq!(numbers.get(b(block)), Some(no));
        }
    }

    #[test]
    fn spans_cross_chunk_edges_as_one_run() {
        let mut numbers = BlockNumbering::new();
        // 14..50 crosses three chunk edges (16, 32, 48): all new, one run.
        assert_eq!(span_numbers(&mut numbers, 14, 36), [(0, 36)]);
        // The same blocks again, and a sub-span over one edge.
        assert_eq!(span_numbers(&mut numbers, 14, 36), [(0, 36)]);
        assert_eq!(span_numbers(&mut numbers, 30, 4), [(16, 4)]);
        // A span ending exactly on a chunk edge, then one starting on it.
        assert_eq!(span_numbers(&mut numbers, 60, 4), [(36, 4)]);
        assert_eq!(span_numbers(&mut numbers, 64, 2), [(40, 2)]);
        // The last chunk of the address space.
        let top = u64::MAX - 3;
        assert_eq!(span_numbers(&mut numbers, top, 3), [(42, 3)]);
        assert_eq!(numbers.get(b(u64::MAX - 1)), Some(BlockNo(44)));
        assert_eq!(numbers.len(), 45);
    }

    #[test]
    fn runs_split_where_numbers_stop_being_consecutive() {
        let mut numbers = BlockNumbering::new();
        numbers.number(b(5)); // 0
        numbers.number(b(3)); // 1
                              // 2..8: 2 new (2), 3 old (1), 4 new (3), 5 old (0), 6, 7 new (4, 5)
        assert_eq!(
            span_numbers(&mut numbers, 2, 6),
            [(2, 1), (1, 1), (3, 1), (0, 1), (4, 2)]
        );
        // Now 2..8 carries 2 1 3 0 4 5: the same splits, nothing minted.
        assert_eq!(
            span_numbers(&mut numbers, 2, 6),
            [(2, 1), (1, 1), (3, 1), (0, 1), (4, 2)]
        );
        // 3..5 is 1 3: split; 4..6 is 3 0: split; 6..8 is 4 5: one run.
        assert_eq!(span_numbers(&mut numbers, 3, 2), [(1, 1), (3, 1)]);
        assert_eq!(span_numbers(&mut numbers, 6, 2), [(4, 2)]);
        // A warm run continues into new blocks when the numbers do:
        // 8 gets 6, right after 7's 5.
        assert_eq!(span_numbers(&mut numbers, 6, 3), [(4, 3)]);
        assert_eq!(span_numbers(&mut numbers, 0, 0), []);
        assert_eq!(numbers.len(), 7);
    }

    #[test]
    fn run_numbers_enumerates_a_run() {
        let got: Vec<usize> = run_numbers(BlockNo(7), 3).map(BlockNo::index).collect();
        assert_eq!(got, [7, 8, 9]);
        assert_eq!(run_numbers(BlockNo(7), 0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of u32 numbers")]
    fn minting_past_the_u32_range_panics() {
        let mut numbers = BlockNumbering {
            next: NIL,
            ..BlockNumbering::new()
        };
        numbers.number(b(1));
    }

    #[test]
    fn direct_index_grows_to_the_highest_number_only() {
        let mut index = DirectIndex::default();
        assert_eq!(index.get(BlockNo(5)), None);
        index.insert(BlockNo(5), 9);
        assert_eq!(index.slots.len(), 6);
        assert_eq!(index.get(BlockNo(5)), Some(9));
        assert_eq!(index.get(BlockNo(4)), None);
        assert_eq!(index.get(BlockNo(1000)), None);
        index.insert(BlockNo(2), 0);
        assert_eq!(index.slots.len(), 6);
        index.remove(BlockNo(5));
        assert_eq!(index.get(BlockNo(5)), None);
        assert_eq!(index.get(BlockNo(2)), Some(0));
    }
}
