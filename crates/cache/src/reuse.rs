//! Reuse (stack) distance computation: [`ReuseStack`], [`BlockStack`],
//! [`ReuseDistances`] and [`ShardsSampler`].
//!
//! The *reuse distance* of an access is the number of **distinct** blocks
//! referenced since the previous access to the same block (∞ for a first
//! access). Under LRU, an access hits a cache of capacity `c` iff its
//! reuse distance is `< c` — so one pass over a trace yields the whole
//! miss-ratio curve ([`crate::MissRatioCurve`]). The paper cites Counter
//! Stacks (OSDI'14) and SHARDS (FAST'15) for exactly this machinery.
//!
//! The exact computation is Mattson's algorithm. Its classic
//! implementation keeps a Fenwick tree with one cell per *access
//! position*; [`ReuseStack`] compresses that to one **bit** per position
//! (a `Vec<u64>` occupancy bitset) plus a radix-8 hierarchy of per-group
//! popcount counters. Three observations make touches cheap:
//!
//! * every live bit marks the *most recent* access position of some
//!   distinct block, so the number of live positions **above** `p` — the
//!   reuse distance — is `live − rank(p)`, turning the classic
//!   two-prefix-sum query into one rank;
//! * unlike a Fenwick tree, the counter hierarchy makes clearing a bit a
//!   handful of direct decrements (no log-depth update walk), and a rank
//!   is one masked sum over a fixed group of 8 counters per level plus
//!   eight masked `count_ones` — every level is padded to whole groups,
//!   so nothing in it branches on the position;
//! * workloads retouch *runs* of blocks that were last touched together
//!   (a request rewriting the same span), and clearing position `p`
//!   leaves `rank(p + 1)` unchanged — so consecutive-position touches
//!   skip the rank walk entirely and reuse the previous rank, and
//!   [`ReuseStack::touch_run`] retires a whole such run with one rank,
//!   one masked clear and one masked append per 64-position word.
//!
//! [`BlockStack`] adds the block → last-position map (16-block chunks,
//! one hash lookup per chunk), finds those runs in spans of consecutive
//! block ids, and owns compaction; it is the only such map in the
//! crate. [`ReuseDistances`] is a distance histogram over it, one block
//! at a time; the sweep engine's LRU lane feeds it whole request spans.
//! Callers that already keep per-block state (the volume analyzer) fold
//! the position into their own store and drive [`ReuseStack`] directly.
//! [`ShardsSampler`] implements fixed-rate SHARDS spatial sampling for
//! approximate curves at a small fraction of the cost.

use cbs_trace::hash::FxHashMap;
use cbs_trace::BlockId;

/// Occupancy bitset + hierarchical popcount index for exact reuse
/// distances.
///
/// A `ReuseStack` assigns monotonically increasing *positions* to
/// accesses and tracks which positions are *live* (the latest access of
/// some block). The caller owns the block → position map:
///
/// * first touch of a block → [`touch_cold`](Self::touch_cold), store
///   the returned position;
/// * repeat touch → [`touch`](Self::touch) with the stored position,
///   which returns the reuse distance and the new position to store.
///
/// Dead positions accumulate one *bit* each; when
/// [`should_compact`](Self::should_compact) turns true, the caller
/// relabels every stored position via
/// [`compacted_pos`](Self::compacted_pos) and then calls
/// [`rebuild_compacted`](Self::rebuild_compacted), keeping memory at
/// O(distinct blocks).
///
/// # Example
///
/// ```
/// use cbs_cache::ReuseStack;
///
/// // stream: a b a  →  a's second access has distance 1
/// let mut stack = ReuseStack::new();
/// let a = stack.touch_cold();
/// let _b = stack.touch_cold();
/// let (distance, _new_a) = stack.touch(a);
/// assert_eq!(distance, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReuseStack {
    /// Bit `p % 64` of word `p / 64` is set iff position `p` is live.
    /// `words`, `l1`, `l2` and `l3` are always whole groups of 8 (zero
    /// padded), so a rank reads fixed-size groups.
    words: Vec<u64>,
    /// Set-bit count per group of 8 words (512 positions).
    l1: Vec<u32>,
    /// Set-bit count per group of 64 words (4 Ki positions).
    l2: Vec<u32>,
    /// Set-bit count per group of 512 words (32 Ki positions).
    l3: Vec<u32>,
    /// Set-bit count per group of 4096 words (256 Ki positions).
    l4: Vec<u32>,
    /// Number of live positions (= distinct blocks tracked).
    live: usize,
    /// Next position to assign.
    next_pos: usize,
    /// Position cleared last by the most recent [`touch`](Self::touch)
    /// or [`touch_run`](Self::touch_run) (`usize::MAX` = none); keyed
    /// against `prev - 1` for the consecutive-run fast path.
    last_cleared: usize,
    /// The rank that was computed for `last_cleared`.
    last_rank: u64,
}

impl Default for ReuseStack {
    fn default() -> Self {
        ReuseStack {
            words: Vec::new(),
            l1: Vec::new(),
            l2: Vec::new(),
            l3: Vec::new(),
            l4: Vec::new(),
            live: 0,
            next_pos: 0,
            last_cleared: usize::MAX,
            last_rank: 0,
        }
    }
}

/// Panic message of the one bound on minted positions.
const POSITION_LIMIT: &str = "reuse stack is limited to 2^32 - 2 positions between compactions \
     (2 TiB of distinct 4 KiB blocks live at once)";

impl ReuseStack {
    /// The most positions a stack assigns between compactions, checked
    /// where they are minted. Callers may therefore keep positions in a
    /// `u32` — [`compaction_table`](Self::compaction_table) does — with
    /// `u32::MAX` free as a "no position" mark and one past any
    /// assigned position still below that mark. Compaction keeps
    /// `positions() < 8 × live()`, so the bound is reached only past
    /// 2²⁹ live blocks.
    pub const MAX_POSITIONS: usize = u32::MAX as usize - 1;

    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live positions — equals the number of distinct blocks
    /// whose last access is being tracked.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total positions assigned since the last compaction (bounds the
    /// bitset length).
    pub fn positions(&self) -> usize {
        self.next_pos
    }

    /// Records a first-touch access and returns its position.
    #[inline]
    pub fn touch_cold(&mut self) -> usize {
        self.push_live()
    }

    /// Records a repeat access whose previous position is `prev`
    /// (as returned by the last `touch`/`touch_cold` for this block).
    /// Returns the reuse distance and the new position.
    ///
    /// Fast path: if the immediately preceding `touch` cleared
    /// `prev - 1`, then `rank(prev)` equals that touch's rank — the
    /// clear removed one bit below `prev` and `prev`'s own bit adds it
    /// back, while appends land strictly above. Spans retouched in
    /// order (the common rewrite pattern) therefore pay for one rank
    /// walk per run, not per block.
    #[inline]
    pub fn touch(&mut self, prev: usize) -> (u64, usize) {
        // Live positions strictly above `prev` are exactly the blocks
        // accessed since this block's previous access.
        let rank = if prev != 0 && prev - 1 == self.last_cleared {
            self.last_rank
        } else {
            self.rank_inclusive(prev)
        };
        let distance = self.live as u64 - rank;
        self.clear(prev);
        self.last_cleared = prev;
        self.last_rank = rank;
        (distance, self.push_live())
    }

    /// Number of live positions `<= pos`. `pos` must have been assigned.
    ///
    /// Branch-free below the top level: every level is kept padded to
    /// whole groups of 8, so each level sums its full group under a
    /// `j < k` mask and the eight words of `pos`'s own group are
    /// popcounted under per-word masks — fixed trip counts the compiler
    /// unrolls and vectorises (baseline SSE2, no `popcnt` needed), where
    /// loops of 0–7 data-dependent iterations mispredicted on every
    /// level. Only the top level, one counter per 256 Ki positions, is
    /// still a linear scan.
    #[inline]
    fn rank_inclusive(&self, pos: usize) -> u64 {
        let w = pos / 64;
        let mut sum = 0u64;
        for &count in &self.l4[..w >> 12] {
            sum += u64::from(count);
        }
        sum += u64::from(masked_sum(&self.l3, w >> 12, (w >> 9) & 7));
        sum += u64::from(masked_sum(&self.l2, w >> 9, (w >> 6) & 7));
        sum += u64::from(masked_sum(&self.l1, w >> 6, (w >> 3) & 7));
        // Words below `w` count whole, `w` itself up to `pos`'s bit,
        // words above not at all.
        let group = &self.words[w & !7..][..8];
        let (k, last) = (w & 7, u64::MAX >> (63 - pos % 64));
        let mut ones = 0u32;
        for (j, &bits) in group.iter().enumerate() {
            let below = u64::from(j < k).wrapping_neg();
            let at = u64::from(j == k).wrapping_neg();
            ones += (bits & (below | (at & last))).count_ones();
        }
        sum + u64::from(ones)
    }

    /// Clears live position `pos`: one bit plus four direct decrements.
    #[inline]
    fn clear(&mut self, pos: usize) {
        let w = pos / 64;
        self.words[w] &= !(1u64 << (pos % 64));
        self.l1[w >> 3] -= 1;
        self.l2[w >> 6] -= 1;
        self.l3[w >> 9] -= 1;
        self.l4[w >> 12] -= 1;
        self.live -= 1;
    }

    #[inline]
    fn push_live(&mut self) -> usize {
        let pos = self.next_pos;
        assert!(pos < Self::MAX_POSITIONS, "{}", POSITION_LIMIT);
        self.next_pos += 1;
        let w = pos / 64;
        if w == self.words.len() {
            self.grow();
        }
        self.words[w] |= 1u64 << (pos % 64);
        self.l1[w >> 3] += 1;
        self.l2[w >> 6] += 1;
        self.l3[w >> 9] += 1;
        self.l4[w >> 12] += 1;
        self.live += 1;
        pos
    }

    /// Appends one zeroed group of 8 words and extends the counter
    /// levels to cover it, each level in whole groups of 8 (the shape
    /// [`rank_inclusive`](Self::rank_inclusive) reads).
    #[cold]
    fn grow(&mut self) {
        let n = self.words.len() + 8;
        self.words.resize(n, 0);
        self.resize_counters(n);
    }

    /// Sizes the counter levels for `n_words` words (a multiple of 8),
    /// zero-filling what is new.
    fn resize_counters(&mut self, n_words: usize) {
        self.l1.resize((n_words / 8).next_multiple_of(8), 0);
        self.l2.resize(n_words.div_ceil(64).next_multiple_of(8), 0);
        self.l3.resize(n_words.div_ceil(512).next_multiple_of(8), 0);
        self.l4.resize(n_words.div_ceil(4096), 0);
    }

    /// True when at least ⅞ of the assigned positions are dead (and the
    /// stack is big enough for compaction to matter). The threshold
    /// trades bitset slack (one *bit* per dead position) for compaction
    /// frequency: relabeling is O(live), so amortized compaction cost
    /// per touch stays a small constant.
    pub fn should_compact(&self) -> bool {
        self.next_pos >= 1024 && self.next_pos >= 8 * self.live
    }

    /// The position `pos` will carry after the next
    /// [`rebuild_compacted`](Self::rebuild_compacted). `pos` must be
    /// live. Call for every stored position *before* rebuilding.
    ///
    /// For bulk relabeling prefer
    /// [`compaction_table`](Self::compaction_table), which amortizes the
    /// per-position rank walk into one linear sweep.
    pub fn compacted_pos(&self, pos: usize) -> usize {
        (self.rank_inclusive(pos) - 1) as usize
    }

    /// Builds the full old-position → new-position relabel table for
    /// the next [`rebuild_compacted`](Self::rebuild_compacted) in one
    /// linear sweep: `table[pos]` is the compacted position for every
    /// live `pos`; dead positions hold `u32::MAX`, which
    /// [`MAX_POSITIONS`](Self::MAX_POSITIONS) keeps from ever being a
    /// position.
    pub fn compaction_table(&self) -> Vec<u32> {
        let mut table = vec![u32::MAX; self.next_pos];
        let mut new_pos = 0u32;
        for (w, &bits) in self.words.iter().enumerate() {
            let mut rest = bits;
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                let pos = w * 64 + bit;
                if pos >= self.next_pos {
                    break;
                }
                table[pos] = new_pos;
                new_pos += 1;
                rest &= rest - 1;
            }
        }
        table
    }

    /// Renumbers the live positions to `0..live()` (preserving order)
    /// and drops all dead positions. Stored positions must already have
    /// been relabeled via [`compacted_pos`](Self::compacted_pos).
    pub fn rebuild_compacted(&mut self) {
        let live = self.live;
        let n_words = live.div_ceil(64);
        self.words.clear();
        self.words.resize(n_words, u64::MAX);
        if live % 64 != 0 {
            if let Some(last) = self.words.last_mut() {
                *last = u64::MAX >> (64 - live % 64);
            }
        }
        // Back to whole groups of 8: zero words above the live ones.
        self.words.resize(n_words.next_multiple_of(8), 0);
        // O(n) rebuild of the counter hierarchy from word popcounts.
        for level in [&mut self.l1, &mut self.l2, &mut self.l3, &mut self.l4] {
            level.clear();
        }
        self.resize_counters(self.words.len());
        for (w, bits) in self.words.iter().enumerate() {
            let ones = bits.count_ones();
            self.l1[w >> 3] += ones;
            self.l2[w >> 6] += ones;
            self.l3[w >> 9] += ones;
            self.l4[w >> 12] += ones;
        }
        self.next_pos = live;
        // Old positions are renumbered, so the run fast path must not
        // match against a pre-compaction clear.
        self.last_cleared = usize::MAX;
        self.last_rank = 0;
    }

    /// Records `len` first touches at once and returns the position of
    /// the first; touch `j` receives position `return + j`, exactly as
    /// `len` calls of [`touch_cold`](Self::touch_cold) would.
    #[inline]
    pub fn touch_cold_run(&mut self, len: usize) -> usize {
        self.push_live_range(len)
    }

    /// Records repeat touches of `len` blocks whose previous positions
    /// are the consecutive live positions `prev..prev + len` — blocks
    /// last touched together, in the same order. Bit-identical to
    /// calling [`touch`](Self::touch) on `prev`, `prev + 1`, … in turn:
    /// returns the reuse distance, which is **the same for every block
    /// of the run**, and the position assigned to the first (touch `j`
    /// receives `return.1 + j`).
    ///
    /// Why one rank serves the whole run: when touch `j` is reached,
    /// the `j` positions `prev..prev + j` below it have just been
    /// cleared, and exactly those `j` positions were the live bits
    /// between `prev` and `prev + j` — the two cancel, so
    /// `rank(prev + j)` then equals `rank(prev)` at the start (appends
    /// land above every ranked position, and `live` is restored by each
    /// touch's own append). The run costs one rank walk (none when it
    /// continues the previous call's run), one masked clear and one
    /// masked append per 64-position word, with each counter level
    /// adjusted by the popcount. `len` must be at least 1.
    #[inline]
    pub fn touch_run(&mut self, prev: usize, len: usize) -> (u64, usize) {
        debug_assert!(len >= 1, "a warm run holds at least one block");
        let rank = if prev != 0 && prev - 1 == self.last_cleared {
            self.last_rank
        } else {
            self.rank_inclusive(prev)
        };
        let distance = self.live as u64 - rank;
        self.clear_range(prev, len);
        self.last_cleared = prev + len - 1;
        self.last_rank = rank;
        (distance, self.push_live_range(len))
    }

    /// Clears the live positions `pos..pos + len`, one masked word at a
    /// time.
    #[inline]
    fn clear_range(&mut self, pos: usize, len: usize) {
        let end = pos + len;
        let mut p = pos;
        while p < end {
            let (w, n, mask) = word_span(p, end);
            debug_assert_eq!(self.words[w] & mask, mask, "run positions must be live");
            self.words[w] &= !mask;
            self.l1[w >> 3] -= n;
            self.l2[w >> 6] -= n;
            self.l3[w >> 9] -= n;
            self.l4[w >> 12] -= n;
            p += n as usize;
        }
        self.live -= len;
    }

    /// Appends `len` live positions, one masked word at a time, and
    /// returns the first.
    #[inline]
    fn push_live_range(&mut self, len: usize) -> usize {
        let first = self.next_pos;
        let end = first + len;
        assert!(end <= Self::MAX_POSITIONS, "{}", POSITION_LIMIT);
        let mut p = first;
        while p < end {
            let (w, n, mask) = word_span(p, end);
            if w == self.words.len() {
                self.grow();
            }
            self.words[w] |= mask;
            self.l1[w >> 3] += n;
            self.l2[w >> 6] += n;
            self.l3[w >> 9] += n;
            self.l4[w >> 12] += n;
            p += n as usize;
        }
        self.next_pos = end;
        self.live += len;
        first
    }
}

/// The sum of the first `k < 8` counters of `level`'s group `group`,
/// computed over the whole (always present) group of 8 under a `j < k`
/// mask. No group of any level sums past 2¹⁸.
#[inline]
fn masked_sum(level: &[u32], group: usize, k: usize) -> u32 {
    let mut sum = 0u32;
    for (j, &count) in level[group * 8..][..8].iter().enumerate() {
        sum += count & u32::from(j < k).wrapping_neg();
    }
    sum
}

/// The part of `p..end` that falls into `p`'s 64-position word: the
/// word index, the number of positions and their bit mask.
#[inline]
fn word_span(p: usize, end: usize) -> (usize, u32, u64) {
    let lo = p % 64;
    let n = (64 - lo).min(end - p);
    (p / 64, n as u32, (u64::MAX >> (64 - n)) << lo)
}

/// Number of consecutive blocks whose positions share one chunk.
const CHUNK_BLOCKS: u64 = 16;

/// "No previous position": the key of a cold run. Never an assigned
/// position, nor one past one ([`ReuseStack::MAX_POSITIONS`]).
const COLD: u32 = u32::MAX;

/// Latest stack positions of 16 consecutive block ids.
#[derive(Debug, Clone)]
struct PosChunk {
    /// Bit `i` set iff block `i` of the chunk has been touched.
    occupied: u16,
    pos: [u32; CHUNK_BLOCKS as usize],
}

/// Consecutive block ids touched back to back whose stack touches are
/// deferred so that one [`ReuseStack::touch_run`] (or
/// [`touch_cold_run`](ReuseStack::touch_cold_run)) retires them all.
#[derive(Debug, Clone, Copy, Default)]
struct PendingRun {
    /// Blocks in the run; 0 = nothing pending.
    len: usize,
    /// The only block id that can extend the run.
    next_block: u64,
    /// The previous position that block must have: one past the run's
    /// last previous position, or [`COLD`] for a run of first touches.
    next_prev: u32,
}

/// A [`ReuseStack`] together with the block → latest-position map it
/// needs: the one owner of "where was this block last" in the crate.
///
/// Accesses arrive as *spans* of consecutive block ids
/// ([`touch_span`](Self::touch_span); a single block is a span of one).
/// Positions live in 16-block chunks behind one hash lookup per chunk,
/// and the stack is touched **per run**, not per block: consecutive
/// block ids whose previous positions are consecutive too — blocks last
/// touched together, the common rewrite — are retired by one
/// [`ReuseStack::touch_run`] and reported to the caller once, as
/// `(distance, blocks)`. A run stays pending across spans until a block
/// breaks it or [`flush`](Self::flush) is called.
///
/// The run rule, and why it is safe: a block joins the pending run only
/// if its **id** is the run's last id + 1 and its previous position is
/// the run's last previous position + 1 (or both are cold). Consecutive
/// ids make the run's blocks distinct, so every previous position in
/// the run was assigned before the run started and is still live —
/// exactly `touch_run`'s precondition. The position test alone is not
/// enough: in `A B A B A B` the third `A`'s previous position is the
/// one the pending run `A B` is about to be given, and a run that
/// swallowed it would clear a position not yet pushed.
///
/// Dead positions are compacted away in [`flush`](Self::flush), once
/// no run is pending: a pending run's key is in pre-compaction
/// numbering. Distances are invariant under compaction.
///
/// # Example
///
/// ```
/// use cbs_cache::BlockStack;
/// use cbs_trace::BlockId;
///
/// let mut stack = BlockStack::new();
/// let mut seen = Vec::new();
/// // blocks 8..12 twice: four cold touches, then four at distance 3
/// for _ in 0..2 {
///     stack.touch_span(BlockId::new(8), 4, |distance, blocks| seen.push((distance, blocks)));
/// }
/// stack.flush(|distance, blocks| seen.push((distance, blocks)));
/// assert_eq!(seen, [(None, 4), (Some(3), 4)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockStack {
    stack: ReuseStack,
    /// Chunk id (block id / 16) → index into `chunks`.
    chunk_index: FxHashMap<u64, u32>,
    chunks: Vec<PosChunk>,
    run: PendingRun,
}

impl BlockStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct blocks tracked, those of a pending run included.
    pub fn live(&self) -> usize {
        self.stack.live()
            + if self.run.next_prev == COLD {
                self.run.len
            } else {
                0
            }
    }

    /// Stack positions assigned since the last compaction, those a
    /// pending run is about to be given included.
    pub fn positions(&self) -> usize {
        self.stack.positions() + self.run.len
    }

    /// Touches the `blocks` consecutive block ids starting at `first`,
    /// in ascending order. `sink(distance, n)` is called for each run
    /// this retires: `n` blocks sharing one reuse `distance` (`None` =
    /// first touches). The span's own last run stays pending — it is
    /// reported by a later `touch_span` or by [`flush`](Self::flush) —
    /// so every touch is reported exactly once, in access order.
    ///
    /// `first + blocks` must not overflow (a [`cbs_trace::BlockSpan`]
    /// never does).
    #[inline]
    pub fn touch_span(
        &mut self,
        first: BlockId,
        blocks: u64,
        mut sink: impl FnMut(Option<u64>, usize),
    ) {
        let mut block = first.get();
        let end = block + blocks;
        while block < end {
            // The part of the span inside `block`'s chunk: slots
            // `slot..slot + m`, one hash lookup.
            let slot = (block % CHUNK_BLOCKS) as usize;
            let m = (CHUNK_BLOCKS - slot as u64).min(end - block) as usize;
            let index = self.chunk_of(block / CHUNK_BLOCKS);
            let warm = u32::from(self.chunks[index].occupied) >> slot & ((1 << m) - 1);
            // Split it into maximal cold runs (off the mask alone) and
            // warm runs of consecutive previous positions (one compare
            // loop); an all-cold or all-warm-in-order segment is one.
            let mut j = 0;
            while j < m {
                let rest = warm >> j;
                let (prev, k) = if rest & 1 == 0 {
                    (COLD, (rest.trailing_zeros() as usize).min(m - j))
                } else {
                    let pos = &self.chunks[index].pos[slot + j..][..rest.trailing_ones() as usize];
                    let mut k = 1;
                    while k < pos.len() && pos[k] == pos[0].wrapping_add(k as u32) {
                        k += 1;
                    }
                    (pos[0], k)
                };
                let new_pos = self.extend_run(block + j as u64, k, prev, &mut sink);
                for (i, pos) in self.chunks[index].pos[slot + j..][..k]
                    .iter_mut()
                    .enumerate()
                {
                    // Truncation past `MAX_POSITIONS` is never read: the
                    // run's retirement, which precedes every use of a
                    // position it was given, panics on the bound.
                    *pos = (new_pos + i) as u32;
                }
                j += k;
            }
            self.chunks[index].occupied |= (((1u32 << m) - 1) << slot) as u16;
            block += m as u64;
        }
    }

    /// Index into `chunks` of chunk `id`, created empty if new.
    #[inline]
    fn chunk_of(&mut self, id: u64) -> usize {
        let next = self.chunks.len() as u32;
        let index = *self.chunk_index.entry(id).or_insert(next);
        if index == next {
            self.chunks.push(PosChunk {
                occupied: 0,
                pos: [0; CHUNK_BLOCKS as usize],
            });
        }
        index as usize
    }

    /// Adds `k` blocks from `block` on, with consecutive previous
    /// positions from `prev` on (all cold if [`COLD`]), to the pending
    /// run if they continue it — else retires that run and starts a new
    /// one. Returns the position the first of them will be given.
    #[inline]
    fn extend_run(
        &mut self,
        block: u64,
        k: usize,
        prev: u32,
        sink: &mut impl FnMut(Option<u64>, usize),
    ) -> usize {
        let run = &self.run;
        if run.len == 0 || block != run.next_block || prev != run.next_prev {
            self.retire_run(sink);
            self.run = PendingRun {
                len: 0,
                next_block: block,
                next_prev: prev,
            };
        }
        // Nothing is pushed while a run is pending, so its block `i`
        // lands on `positions() + i` — read afresh for every run, hence
        // in the numbering of any compaction since the last one.
        let run = &mut self.run;
        let new_pos = self.stack.positions() + run.len;
        run.len += k;
        run.next_block += k as u64;
        if prev != COLD {
            run.next_prev += k as u32;
        }
        new_pos
    }

    /// Applies the pending run, if any, to the stack and reports it.
    #[inline]
    fn retire_run(&mut self, sink: &mut impl FnMut(Option<u64>, usize)) {
        let PendingRun { len, next_prev, .. } = self.run;
        if len == 0 {
            return;
        }
        self.run.len = 0;
        let distance = if next_prev == COLD {
            self.stack.touch_cold_run(len);
            None
        } else {
            Some(self.stack.touch_run(next_prev as usize - len, len).0)
        };
        sink(distance, len);
    }

    /// Retires the pending run, if any (reporting it to `sink`), then
    /// compacts the stack if most of its positions are dead
    /// ([`ReuseStack::should_compact`]). Returns `true` if it compacted.
    ///
    /// Callers flush wherever they need every touch reported — and
    /// often enough to bound dead positions, which cost one bit each
    /// until the next flush.
    pub fn flush(&mut self, mut sink: impl FnMut(Option<u64>, usize)) -> bool {
        self.retire_run(&mut sink);
        let due = self.stack.should_compact();
        if due {
            self.compact();
        }
        due
    }

    /// Renumbers the live positions to `0..live()`, dropping the dead
    /// ones, whatever their share.
    ///
    /// # Panics
    ///
    /// Panics if a run is pending: its key is in the old numbering.
    pub fn compact(&mut self) {
        assert!(self.run.len == 0, "compaction with a run pending");
        let table = self.stack.compaction_table();
        for chunk in &mut self.chunks {
            let mut occupied = chunk.occupied;
            while occupied != 0 {
                let slot = occupied.trailing_zeros() as usize;
                occupied &= occupied - 1;
                chunk.pos[slot] = table[chunk.pos[slot] as usize];
            }
        }
        self.stack.rebuild_compacted();
    }
}

/// Counts `n` accesses at finite reuse `distance` in `histogram`
/// (`histogram[d]` = accesses at distance `d`), growing it to fit.
#[inline]
pub(crate) fn count_distance(histogram: &mut Vec<u64>, distance: u64, n: u64) {
    let d = distance as usize;
    if d >= histogram.len() {
        histogram.resize(d + 1, 0);
    }
    histogram[d] += n;
}

/// Exact reuse-distance histogram of a block-access stream.
///
/// # Example
///
/// ```
/// use cbs_cache::ReuseDistances;
/// use cbs_trace::BlockId;
///
/// let mut rd = ReuseDistances::new();
/// for &b in &[1u64, 2, 3, 1, 2, 3] {
///     rd.access(BlockId::new(b));
/// }
/// // second round: each access has distance 2 (two distinct blocks
/// // touched since the previous access to the same block)
/// assert_eq!(rd.cold_misses(), 3);
/// assert_eq!(rd.histogram().get(2).copied(), Some(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReuseDistances {
    blocks: BlockStack,
    /// histogram\[d\] = number of accesses with finite reuse distance d.
    histogram: Vec<u64>,
    cold_misses: u64,
    accesses: u64,
    metrics: Option<ReuseMetrics>,
}

/// Registry handles updated at each compaction (see
/// [`ReuseDistances::with_registry`]).
#[derive(Debug, Clone)]
struct ReuseMetrics {
    compactions: cbs_obs::Counter,
    live_entries: cbs_obs::Gauge,
    dead_entries: cbs_obs::Gauge,
}

impl ReuseDistances {
    /// Creates an empty computation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes stack-health metrics into `registry`: a
    /// `reuse.compactions` counter plus `reuse.live_entries` /
    /// `reuse.dead_entries` gauges showing how much of the position
    /// space holds live blocks. Gauges refresh at each compaction (the
    /// only moment the ratio changes shape), so per-access cost is
    /// untouched.
    #[must_use]
    pub fn with_registry(mut self, registry: &cbs_obs::Registry) -> Self {
        self.metrics = Some(ReuseMetrics {
            compactions: registry.counter("reuse.compactions"),
            live_entries: registry.gauge("reuse.live_entries"),
            dead_entries: registry.gauge("reuse.dead_entries"),
        });
        self
    }

    /// Processes one access and returns its reuse distance
    /// (`None` = cold / infinite).
    pub fn access(&mut self, block: BlockId) -> Option<u64> {
        self.accesses += 1;
        // A span of one, flushed at once: the distance is known on
        // return, and compaction keeps memory at O(distinct blocks).
        let mut distance = None;
        self.blocks.touch_span(block, 1, |d, _| distance = d);
        let compacted = self.blocks.flush(|d, _| distance = d);
        match distance {
            Some(d) => count_distance(&mut self.histogram, d, 1),
            None => self.cold_misses += 1,
        }
        if let (true, Some(m)) = (compacted, &self.metrics) {
            m.compactions.inc();
            m.live_entries.set(self.blocks.live() as u64);
            m.dead_entries
                .set((self.blocks.positions() - self.blocks.live()) as u64);
        }
        distance
    }

    /// Processes a whole access stream.
    pub fn run<I: IntoIterator<Item = BlockId>>(&mut self, accesses: I) {
        for b in accesses {
            self.access(b);
        }
    }

    /// Total accesses processed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of first-touch (infinite-distance) accesses — equals the
    /// number of distinct blocks seen.
    pub fn cold_misses(&self) -> u64 {
        self.cold_misses
    }

    /// The finite-distance histogram: `histogram()[d]` accesses had
    /// reuse distance exactly `d`.
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Builds the LRU miss-ratio curve implied by these distances.
    pub fn to_mrc(&self) -> crate::MissRatioCurve {
        crate::MissRatioCurve::from_histogram(self.histogram.clone(), self.cold_misses)
    }
}

/// Fixed-rate SHARDS spatial sampling (Waldspurger et al., FAST'15).
///
/// Only blocks whose hash falls below a threshold are fed to the exact
/// computation; distances are re-scaled by the sampling rate. With rate
/// `R`, cost drops by ~`1/R` while the curve stays accurate for
/// reasonably large working sets.
///
/// # Example
///
/// ```
/// use cbs_cache::ShardsSampler;
/// use cbs_trace::BlockId;
///
/// let mut sampler = ShardsSampler::new(0.5);
/// for i in 0..10_000u64 {
///     sampler.access(BlockId::new(i % 500));
/// }
/// let mrc = sampler.to_mrc();
/// // cyclic scan over 500 blocks: a 500-block cache captures everything
/// assert!(mrc.miss_ratio_at(600) < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct ShardsSampler {
    inner: ReuseDistances,
    /// Sampling threshold over the full 64-bit hash space.
    threshold: u64,
    rate: f64,
    total_accesses: u64,
}

impl ShardsSampler {
    /// Creates a sampler keeping roughly `rate` of blocks
    /// (`0 < rate <= 1`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < rate <= 1`.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "sampling rate must be in (0, 1], got {rate}"
        );
        let threshold = Self::threshold_for(rate);
        ShardsSampler {
            inner: ReuseDistances::new(),
            threshold,
            rate,
            total_accesses: 0,
        }
    }

    /// The configured sampling rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The spatial-filter threshold for `rate` over the full 64-bit
    /// hash space: a block is sampled iff `shards_hash(block)` is at or
    /// below it. Shared with the sweep engine so its precomputed sample
    /// filter selects exactly the blocks this sampler would.
    pub(crate) fn threshold_for(rate: f64) -> u64 {
        if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * u64::MAX as f64) as u64
        }
    }

    /// Offers one access; sampled-out blocks are counted but not traced.
    pub fn access(&mut self, block: BlockId) {
        self.total_accesses += 1;
        if shards_hash(block) <= self.threshold {
            self.inner.access(block);
        }
    }

    /// Offers `total` accesses whose spatial filter the caller already
    /// ran at [`threshold_for`](Self::threshold_for) this sampler's
    /// rate: `sampled` yields the blocks that passed, in access order.
    /// Equivalent to [`access`](Self::access) on each of the `total`
    /// blocks, without hashing any of them again.
    pub(crate) fn access_prefiltered(
        &mut self,
        sampled: impl IntoIterator<Item = BlockId>,
        total: u64,
    ) {
        self.total_accesses += total;
        for block in sampled {
            debug_assert!(shards_hash(block) <= self.threshold, "unfiltered block");
            self.inner.access(block);
        }
    }

    /// Total accesses offered (sampled or not).
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Accesses that passed the spatial filter.
    pub fn sampled_accesses(&self) -> u64 {
        self.inner.accesses()
    }

    /// Builds the re-scaled miss-ratio curve: sampled distances are
    /// multiplied by `1/rate` to estimate true stack depths.
    pub fn to_mrc(&self) -> crate::MissRatioCurve {
        self.build_mrc(0)
    }

    /// Like [`ShardsSampler::to_mrc`], with the SHARDS-adj correction
    /// from the FAST'15 paper applied.
    ///
    /// With a heavy-tailed popularity distribution the spatial filter
    /// rarely samples exactly `rate × total` accesses — missing (or
    /// over-sampling) a few hot blocks shifts the whole estimated
    /// curve up (or down), because hot blocks contribute mostly
    /// small-distance hits. The difference `expected − actual` is
    /// credited to the distance-0 bucket, which removes the systematic
    /// bias in the bend and tail of the curve. The trade-off is the
    /// head: the correction mass lands below the sampler's `~1/rate`
    /// distance resolution, so estimates at capacities within a few
    /// resolution units of zero get *worse* — prefer [`ShardsSampler::
    /// to_mrc`] when tiny caches (or tiny working sets) matter, and
    /// this curve for large-trace sweeps (the sweep engine's sampled
    /// MRC lane uses it).
    pub fn to_mrc_adjusted(&self) -> crate::MissRatioCurve {
        let expected = (self.total_accesses as f64 * self.rate).round() as i64;
        self.build_mrc(expected - self.inner.accesses() as i64)
    }

    /// Shared rescale + histogram build; `adjustment` accesses are
    /// credited to (or debited from, saturating) the distance-0 bucket.
    fn build_mrc(&self, adjustment: i64) -> crate::MissRatioCurve {
        let scale = 1.0 / self.rate;
        let sampled = self.inner.histogram();
        let mut scaled: Vec<u64> = vec![0];
        for (d, &count) in sampled.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let scaled_d = (d as f64 * scale).round() as usize;
            if scaled_d >= scaled.len() {
                scaled.resize(scaled_d + 1, 0);
            }
            scaled[scaled_d] += count;
        }
        if adjustment >= 0 {
            scaled[0] += adjustment as u64;
        } else {
            scaled[0] = scaled[0].saturating_sub(adjustment.unsigned_abs());
        }
        crate::MissRatioCurve::from_histogram(scaled, self.inner.cold_misses())
    }
}

/// splitmix64 over a block id — well-mixed for sequential ids. The
/// single hash function behind every SHARDS-style spatial filter in the
/// crate ([`ShardsSampler`] and the sweep engine's sampled lanes), so
/// all of them agree on which blocks a given rate selects.
#[inline]
pub(crate) fn shards_hash(block: BlockId) -> u64 {
    let mut z = block.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockId {
        BlockId::new(i)
    }

    #[test]
    fn stack_rank_and_distance() {
        let mut s = ReuseStack::new();
        // Positions 0..=70 all live (spanning a word boundary).
        let positions: Vec<usize> = (0..71).map(|_| s.touch_cold()).collect();
        assert_eq!(s.live(), 71);
        assert_eq!(positions, (0..71).collect::<Vec<_>>());
        // Touching position 0 sees all 70 later blocks.
        let (d, new_pos) = s.touch(0);
        assert_eq!(d, 70);
        assert_eq!(new_pos, 71);
        assert_eq!(s.live(), 71);
        // Touching position 64 (word 1) now sees 6 later live positions
        // (65..=70) plus the relocated block at 71.
        let (d, _) = s.touch(64);
        assert_eq!(d, 7);
    }

    #[test]
    fn stack_compaction_preserves_order() {
        let mut s = ReuseStack::new();
        let mut pos: Vec<usize> = (0..100).map(|_| s.touch_cold()).collect();
        // Touch the first 50 blocks over and over until most positions
        // are dead (100 + 50·19 = 1050 assigned, 100 live).
        for _round in 0..19 {
            for p in pos.iter_mut().take(50) {
                let (_, new_pos) = s.touch(*p);
                *p = new_pos;
            }
        }
        assert!(s.should_compact());
        let relabeled: Vec<usize> = pos.iter().map(|&p| s.compacted_pos(p)).collect();
        // The bulk table must agree with per-position relabeling.
        let table = s.compaction_table();
        for (&p, &r) in pos.iter().zip(&relabeled) {
            assert_eq!(table[p] as usize, r);
        }
        s.rebuild_compacted();
        assert_eq!(s.positions(), 100);
        assert_eq!(s.live(), 100);
        // Relative order preserved: blocks 50..100 (untouched, oldest)
        // come first, then blocks 0..50 in re-touch order.
        let mut sorted = relabeled.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_eq!(relabeled[50..], (0..50).collect::<Vec<_>>()[..]);
        assert_eq!(relabeled[..50], (50..100).collect::<Vec<_>>()[..]);
        // Distances still correct after the rebuild: the oldest block
        // (block 50, now at position 0) sees all 99 others.
        let (d, _) = s.touch(relabeled[50]);
        assert_eq!(d, 99);
    }

    /// Drives one span of `prevs` (`None` = cold) through the run API,
    /// splitting it into maximal cold runs and warm runs of consecutive
    /// previous positions; returns per-touch `(distance, new position)`.
    fn touch_span_by_runs(s: &mut ReuseStack, prevs: &[Option<usize>]) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < prevs.len() {
            let mut k = 1;
            let (distance, first) = match prevs[i] {
                None => {
                    while prevs.get(i + k) == Some(&None) {
                        k += 1;
                    }
                    (u64::MAX, s.touch_cold_run(k))
                }
                Some(p) => {
                    while prevs.get(i + k) == Some(&Some(p + k)) {
                        k += 1;
                    }
                    s.touch_run(p, k)
                }
            };
            out.extend((0..k).map(|j| (distance, first + j)));
            i += k;
        }
        out
    }

    #[test]
    fn touch_cold_run_assigns_consecutive_positions() {
        let mut s = ReuseStack::new();
        assert_eq!(s.touch_cold_run(3), 0);
        // Crosses the first word and the first 8-word counter group.
        assert_eq!(s.touch_cold_run(600), 3);
        assert_eq!(s.live(), 603);
        assert_eq!(s.positions(), 603);
        let mut seq = ReuseStack::new();
        for _ in 0..603 {
            seq.touch_cold();
        }
        assert_eq!(s.words, seq.words);
        assert_eq!(
            (&s.l1, &s.l2, &s.l3, &s.l4),
            (&seq.l1, &seq.l2, &seq.l3, &seq.l4)
        );
    }

    #[test]
    fn touch_run_matches_sequential_touches() {
        // Drive a run-touched stack and a sequential stack through the
        // same deterministic stream of spans (the access pattern the
        // analyzer produces) and demand bit-identical distances,
        // positions and internal state — including across compactions.
        let mut seq = ReuseStack::new();
        let mut run = ReuseStack::new();
        let mut seq_pos: std::collections::HashMap<u64, usize> = Default::default();
        let mut run_pos: std::collections::HashMap<u64, usize> = Default::default();
        let mut rng = 0x9e37u64;
        for _ in 0..2_000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let start = (rng >> 33) % 400;
            let span = 1 + (rng >> 20) % 150;
            let blocks: Vec<u64> = (start..start + span).collect();

            let mut want = Vec::new();
            for &blk in &blocks {
                let touched = match seq_pos.get(&blk).copied() {
                    Some(prev) => seq.touch(prev),
                    None => (u64::MAX, seq.touch_cold()),
                };
                seq_pos.insert(blk, touched.1);
                want.push(touched);
            }

            let prevs: Vec<Option<usize>> =
                blocks.iter().map(|blk| run_pos.get(blk).copied()).collect();
            let got = touch_span_by_runs(&mut run, &prevs);
            for (&blk, &(_, pos)) in blocks.iter().zip(&got) {
                run_pos.insert(blk, pos);
            }

            assert_eq!(got, want);
            assert_eq!(run.live(), seq.live());
            assert_eq!(run.positions(), seq.positions());
            assert_eq!(run.words, seq.words);
            assert_eq!(
                (&run.l1, &run.l2, &run.l3, &run.l4),
                (&seq.l1, &seq.l2, &seq.l3, &seq.l4)
            );
            assert_eq!(run.last_cleared, seq.last_cleared);
            assert_eq!(run.last_rank, seq.last_rank);

            assert_eq!(run.should_compact(), seq.should_compact());
            if run.should_compact() {
                let st = seq.compaction_table();
                for p in seq_pos.values_mut() {
                    *p = st[*p] as usize;
                }
                seq.rebuild_compacted();
                let rt = run.compaction_table();
                for p in run_pos.values_mut() {
                    *p = rt[*p] as usize;
                }
                run.rebuild_compacted();
            }
        }
    }

    #[test]
    fn touch_run_interleaves_with_single_touches() {
        // The fast-path seed left by touch_run must hand over to plain
        // touch() (and to the next run) without perturbing distances.
        let mut a = ReuseStack::new();
        let mut b = ReuseStack::new();
        let pa = a.touch_cold_run(10);
        let pb: Vec<usize> = (0..10).map(|_| b.touch_cold()).collect();
        let (d, first) = a.touch_run(pa + 3, 3);
        let (d3, _) = b.touch(pb[3]);
        let (d4, _) = b.touch(pb[4]);
        let (d5, n5) = b.touch(pb[5]);
        assert_eq!([d, d, d], [d3, d4, d5]);
        assert_eq!(first + 2, n5);
        // A run continuing where the last one stopped skips the rank
        // walk in both.
        assert_eq!(a.touch_run(pa + 6, 2).0, b.touch(pb[6]).0);
        b.touch(pb[7]);
        assert_eq!(a.touch(pa + 8), b.touch(pb[8]));
        // And the relocated blocks reuse correctly.
        assert_eq!(a.touch(first + 2), b.touch(n5));
    }

    #[test]
    #[should_panic(expected = "2^32 - 2 positions")]
    fn single_touch_past_the_position_limit_panics() {
        let mut s = ReuseStack {
            next_pos: ReuseStack::MAX_POSITIONS,
            ..ReuseStack::default()
        };
        s.touch_cold();
    }

    #[test]
    #[should_panic(expected = "2^32 - 2 positions")]
    fn run_reaching_past_the_position_limit_panics() {
        // Two positions are left; the third would alias the u32 "no
        // position" mark in every caller's table.
        let mut s = ReuseStack {
            next_pos: ReuseStack::MAX_POSITIONS - 2,
            ..ReuseStack::default()
        };
        s.touch_cold_run(3);
    }

    /// Live positions `<= pos`, counted bit by bit.
    fn naive_rank(s: &ReuseStack, pos: usize) -> u64 {
        (0..=pos)
            .filter(|p| s.words[p / 64] >> (p % 64) & 1 == 1)
            .count() as u64
    }

    /// The `n`-th live position at or after `from`, cyclically.
    fn live_from(s: &ReuseStack, from: usize) -> usize {
        (0..s.next_pos)
            .map(|i| (from + i) % s.next_pos)
            .find(|p| s.words[p / 64] >> (p % 64) & 1 == 1)
            .expect("the stack holds a live position")
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// After arbitrary cold runs, touches, run touches and
        /// compactions, every level is whole groups of 8 and
        /// `rank_inclusive` equals a bit-by-bit count at **every**
        /// assigned position — the last, partly assigned group included.
        #[test]
        fn rank_equals_naive_popcount(
            ops in proptest::collection::vec(0u64..u64::MAX, 1..40),
        ) {
            let mut s = ReuseStack::new();
            s.touch_cold_run(1);
            for op in ops {
                // One draw, three fields: what to do, where, how long.
                let (kind, at, len) = (op % 8, (op >> 8) as usize % 100_000, 1 + (op >> 40) as usize % 89);
                match kind {
                    0 | 1 => {
                        // Up to ~600 positions at once: crosses words
                        // and the first counter groups.
                        s.touch_cold_run(len * (1 + at % 7));
                    }
                    2 | 3 => {
                        let prev = live_from(&s, at % s.next_pos);
                        s.touch(prev);
                    }
                    4..=6 => {
                        let prev = live_from(&s, at % s.next_pos);
                        let mut n = 1;
                        while n < len
                            && prev + n < s.next_pos
                            && s.words[(prev + n) / 64] >> ((prev + n) % 64) & 1 == 1
                        {
                            n += 1;
                        }
                        s.touch_run(prev, n);
                    }
                    _ => s.rebuild_compacted(),
                }
                proptest::prop_assert_eq!(s.words.len() % 8, 0);
                proptest::prop_assert_eq!(s.l1.len() % 8, 0);
                proptest::prop_assert_eq!(s.l2.len() % 8, 0);
                proptest::prop_assert_eq!(s.l3.len() % 8, 0);
                proptest::prop_assert!(s.words.len() * 64 >= s.next_pos);
                let mut running = 0u64;
                for pos in 0..s.next_pos {
                    running += s.words[pos / 64] >> (pos % 64) & 1;
                    proptest::prop_assert_eq!(s.rank_inclusive(pos), running, "rank({})", pos);
                }
                proptest::prop_assert_eq!(running, s.live() as u64);
            }
        }
    }

    #[test]
    fn rank_reads_every_level_of_a_large_stack() {
        // 600 K positions reach the third l4 counter; punch holes so
        // the levels differ, then spot-check ranks around every group
        // edge against the bit-by-bit count.
        let mut s = ReuseStack::new();
        s.touch_cold_run(600_000);
        for pos in (0..600_000).step_by(7) {
            s.clear(pos);
        }
        for edge in [64usize, 512, 4096, 32_768, 262_144, 524_288, 599_999] {
            for pos in edge.saturating_sub(2)..(edge + 2).min(600_000) {
                assert_eq!(s.rank_inclusive(pos), naive_rank(&s, pos), "rank({pos})");
            }
        }
    }

    /// The reuse distance of every block access of `spans` (first
    /// block, block count), in order, on a naive LRU stack — a `Vec`,
    /// most recent last — that shares nothing with `BlockStack`.
    fn naive_span_distances(spans: &[(u64, u64)]) -> Vec<Option<u64>> {
        let mut stack: Vec<u64> = Vec::new();
        let mut out = Vec::new();
        for &(first, n) in spans {
            for block in first..first + n {
                let depth = stack.iter().rev().position(|&s| s == block);
                if let Some(depth) = depth {
                    stack.remove(stack.len() - 1 - depth);
                }
                stack.push(block);
                out.push(depth.map(|d| d as u64));
            }
        }
        out
    }

    /// Feeds `spans` to `stack` as one column (one flush at the end)
    /// and returns the reported runs expanded to one distance a block.
    fn span_distances(stack: &mut BlockStack, spans: &[(u64, u64)]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        let mut sink = |d: Option<u64>, n: usize| out.extend(std::iter::repeat(d).take(n));
        for &(first, n) in spans {
            stack.touch_span(b(first), n, &mut sink);
        }
        stack.flush(&mut sink);
        out
    }

    /// Runs `columns` through one `BlockStack` and checks every
    /// distance against the naive stack; returns the stack.
    fn check_columns(columns: &[&[(u64, u64)]]) -> BlockStack {
        let all: Vec<(u64, u64)> = columns.iter().flat_map(|c| c.iter().copied()).collect();
        let want = naive_span_distances(&all);
        let mut stack = BlockStack::new();
        let got: Vec<Option<u64>> = columns
            .iter()
            .flat_map(|column| span_distances(&mut stack, column))
            .collect();
        assert_eq!(got, want);
        let distinct = want.iter().filter(|d| d.is_none()).count();
        assert_eq!(stack.live(), distinct);
        stack
    }

    #[test]
    fn run_never_swallows_a_position_it_is_about_to_assign() {
        // A B A B A B in one column: the third A's previous position is
        // the one the pending run "A B" is about to be given, so the
        // position test alone would extend that run over it. All six
        // distances are 1 either way; the stale bits such a run leaves
        // behind show in the ranks of what follows (C D, then B, then A).
        let tail = [(50, 2), (11, 1), (10, 1)];
        let mut column = vec![(10, 2), (10, 2), (10, 2)];
        column.extend(tail);
        check_columns(&[&column]);
        // The same with the pair split across two requests each time.
        let mut column = vec![(10, 1), (11, 1), (10, 1), (11, 1), (10, 1), (11, 1)];
        column.extend(tail);
        check_columns(&[&column]);
    }

    #[test]
    fn one_span_splits_into_the_runs_its_history_dictates() {
        // Overlaps the tails of two earlier requests and ends on a
        // never-seen block: three runs (3..6, 6..11, cold 11).
        check_columns(&[&[(0, 6), (100, 3), (6, 5), (3, 9)]]);
        // A cold hole (block 4) inside an otherwise warm span.
        check_columns(&[&[(0, 4), (5, 4), (0, 9)]]);
        // The same span twice in a row, then shifted by one.
        check_columns(&[&[(0, 5), (0, 5), (1, 5)]]);
        // Warm blocks revisited in an order that is not their last one.
        check_columns(&[&[(7, 1), (5, 1), (6, 1), (4, 1), (4, 4), (4, 4)]]);
    }

    #[test]
    fn runs_cross_chunk_and_word_edges() {
        // 60 cold blocks first, so blocks 10..22 (crossing the chunk
        // edge at 16) land on positions 60..72 (crossing the word edge
        // at 64); their retouch is one warm run over both edges.
        let spans = [(1000, 60), (10, 12), (500, 3), (10, 12), (10, 12)];
        let mut stack = BlockStack::new();
        let mut runs = Vec::new();
        for &(first, n) in &spans {
            stack.touch_span(b(first), n, |d, n| runs.push((d, n)));
        }
        stack.flush(|d, n| runs.push((d, n)));
        assert_eq!(
            runs,
            [
                (None, 60),
                (None, 12),
                (None, 3),
                (Some(14), 12),
                (Some(11), 12)
            ]
        );
        check_columns(&[&spans]);
        // Consecutive requests over consecutive blocks are one run too.
        check_columns(&[&[(0, 40), (40, 40), (0, 40), (40, 40), (20, 40)]]);
    }

    #[test]
    fn compaction_waits_for_the_pending_run() {
        // 70 rounds over 3 + 20 blocks: 1 610 positions, 23 live, so
        // the flush that ends the first column compacts — with the
        // column's last run still pending when it is called. The second
        // column then reads positions in the new numbering.
        let column: Vec<(u64, u64)> = (0..70).flat_map(|_| [(90, 3), (0, 20)]).collect();
        let mut flushed = BlockStack::new();
        span_distances(&mut flushed, &column);
        assert_eq!(flushed.positions(), 23, "the flush compacted");
        let stack = check_columns(&[&column[..], &[(5, 30), (0, 10), (90, 3)], &column[..]]);
        assert!(stack.positions() < 1024 + 8 * stack.live());
    }

    #[test]
    #[should_panic(expected = "run pending")]
    fn forced_compaction_refuses_a_pending_run() {
        let mut stack = BlockStack::new();
        stack.touch_span(b(0), 4, |_, _| {});
        stack.compact();
    }

    #[test]
    fn spans_reach_the_end_of_the_address_space() {
        // 1-byte blocks: the span of (u64::MAX - 3, 100) is clamped to
        // the three blocks below id u64::MAX.
        let top = u64::MAX - 3;
        check_columns(&[&[(top, 3), (7, 2), (top + 1, 2), (top, 3)]]);
    }

    #[test]
    fn access_is_the_span_of_one() {
        // Same stream through `ReuseDistances::access` block by block
        // and through spans: identical histogram and cold count.
        let spans: Vec<(u64, u64)> = (0..400u64)
            .map(|i| ((i * 37 + i * i * 5) % 90, 1 + i % 23))
            .collect();
        let mut rd = ReuseDistances::new();
        for &(first, n) in &spans {
            rd.run((first..first + n).map(b));
        }
        let mut stack = BlockStack::new();
        let mut hist: Vec<u64> = Vec::new();
        let mut cold = 0u64;
        for d in span_distances(&mut stack, &spans) {
            match d {
                Some(d) => {
                    let d = d as usize;
                    if d >= hist.len() {
                        hist.resize(d + 1, 0);
                    }
                    hist[d] += 1;
                }
                None => cold += 1,
            }
        }
        assert_eq!(hist, rd.histogram());
        assert_eq!(cold, rd.cold_misses());
        assert_eq!(stack.live(), rd.blocks.live());
    }

    #[test]
    fn cold_accesses_have_no_distance() {
        let mut rd = ReuseDistances::new();
        assert_eq!(rd.access(b(1)), None);
        assert_eq!(rd.access(b(2)), None);
        assert_eq!(rd.cold_misses(), 2);
        assert_eq!(rd.accesses(), 2);
        assert!(rd.histogram().iter().all(|&c| c == 0));
    }

    #[test]
    fn immediate_reuse_is_distance_zero() {
        let mut rd = ReuseDistances::new();
        rd.access(b(5));
        assert_eq!(rd.access(b(5)), Some(0));
        assert_eq!(rd.histogram()[0], 1);
    }

    #[test]
    fn classic_example_distances() {
        // stream: a b c b a → distances: ∞ ∞ ∞ 1 2
        let mut rd = ReuseDistances::new();
        assert_eq!(rd.access(b(0)), None);
        assert_eq!(rd.access(b(1)), None);
        assert_eq!(rd.access(b(2)), None);
        assert_eq!(rd.access(b(1)), Some(1));
        assert_eq!(rd.access(b(0)), Some(2));
    }

    #[test]
    fn repeated_touches_do_not_inflate_distance() {
        // a b b b a: distinct blocks between the two a's is 1
        let mut rd = ReuseDistances::new();
        rd.access(b(0));
        rd.access(b(1));
        rd.access(b(1));
        rd.access(b(1));
        assert_eq!(rd.access(b(0)), Some(1));
    }

    #[test]
    fn distances_match_naive_model_on_random_stream() {
        // naive model: LRU stack as a Vec
        let stream: Vec<u64> = (0..500).map(|i| (i * 37 + 11) % 60).collect();
        let mut rd = ReuseDistances::new();
        let mut stack: Vec<u64> = Vec::new();
        for &x in &stream {
            let expected = stack.iter().rev().position(|&s| s == x).map(|d| d as u64);
            let got = rd.access(b(x));
            assert_eq!(got, expected, "block {x}");
            if let Some(pos) = stack.iter().position(|&s| s == x) {
                stack.remove(pos);
            }
            stack.push(x);
        }
    }

    #[test]
    fn compaction_bounds_memory_and_preserves_distances() {
        // 40k accesses over 100 distinct blocks, irregular revisit
        // order; compaction must keep the position space near the
        // distinct-block count while leaving every distance identical
        // to the naive LRU-stack model.
        let stream: Vec<u64> = (0..40_000).map(|i| (i * i * 7 + i * 13) % 100).collect();
        let mut rd = ReuseDistances::new();
        let mut stack: Vec<u64> = Vec::new();
        for &x in &stream {
            let expected = stack.iter().rev().position(|&s| s == x).map(|d| d as u64);
            assert_eq!(rd.access(b(x)), expected, "block {x}");
            if let Some(pos) = stack.iter().position(|&s| s == x) {
                stack.remove(pos);
            }
            stack.push(x);
        }
        assert_eq!(rd.accesses(), 40_000);
        assert!(
            rd.blocks.positions() < 8 * 100 + 1024,
            "position space grew with accesses: {} positions for 100 blocks",
            rd.blocks.positions()
        );
    }

    #[test]
    fn registry_tracks_compactions() {
        // Re-accessing a small block set many times inflates the dead
        // position space (next_pos grows, live stays at 50), so the
        // should_compact threshold — next_pos >= 1024 and >= 8 * live —
        // must fire several times over 40k accesses.
        let registry = cbs_obs::Registry::new();
        let mut rd = ReuseDistances::new().with_registry(&registry);
        rd.run((0..40_000u64).map(|i| b(i % 50)));
        let compactions = registry.counter("reuse.compactions").get();
        assert!(compactions >= 1, "no compaction over 40k accesses");
        // Gauges hold the state published at the most recent
        // compaction: all 50 blocks were live, and the freshly rebuilt
        // stack had no dead positions yet.
        assert_eq!(registry.gauge("reuse.live_entries").get(), 50);
        assert_eq!(registry.gauge("reuse.dead_entries").get(), 0);
        // Metrics never perturb the computation itself.
        let mut plain = ReuseDistances::new();
        plain.run((0..40_000u64).map(|i| b(i % 50)));
        assert_eq!(rd.histogram(), plain.histogram());
        assert_eq!(rd.cold_misses(), plain.cold_misses());
    }

    #[test]
    fn run_consumes_stream() {
        let mut rd = ReuseDistances::new();
        rd.run((0..10u64).map(b));
        assert_eq!(rd.accesses(), 10);
        assert_eq!(rd.cold_misses(), 10);
    }

    #[test]
    fn full_rate_shards_equals_exact() {
        let stream: Vec<u64> = (0..400).map(|i| (i * 13) % 47).collect();
        let mut exact = ReuseDistances::new();
        let mut sampler = ShardsSampler::new(1.0);
        for &x in &stream {
            exact.access(b(x));
            sampler.access(b(x));
        }
        assert_eq!(sampler.sampled_accesses(), exact.accesses());
        let m_exact = exact.to_mrc();
        let m_shards = sampler.to_mrc();
        for c in [1usize, 10, 47, 100] {
            assert!((m_exact.miss_ratio_at(c) - m_shards.miss_ratio_at(c)).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_reduces_cost() {
        let mut sampler = ShardsSampler::new(0.25);
        for i in 0..10_000u64 {
            sampler.access(b(i % 1000));
        }
        assert_eq!(sampler.total_accesses(), 10_000);
        let frac = sampler.sampled_accesses() as f64 / 10_000.0;
        assert!(frac > 0.1 && frac < 0.4, "sampled fraction {frac}");
        assert!((sampler.rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn rejects_bad_rate() {
        let _ = ShardsSampler::new(0.0);
    }
}
