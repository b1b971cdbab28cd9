//! Reuse (stack) distance computation: [`ReuseStack`],
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
//!   is at most seven additions per level plus one masked `count_ones` —
//!   touching only two cache lines that aren't already hot;
//! * workloads retouch *runs* of blocks that were last touched together
//!   (a request rewriting the same span), and clearing position `p`
//!   leaves `rank(p + 1)` unchanged — so consecutive-position touches
//!   skip the rank walk entirely and reuse the previous rank, and
//!   [`ReuseStack::touch_run`] retires a whole such run with one rank,
//!   one masked clear and one masked append per 64-position word.
//!
//! [`ReuseDistances`] adds the block → last-position map and the
//! distance histogram on top; callers that already keep per-block state
//! (the volume analyzer) fold the position into their own map and drive
//! [`ReuseStack`] directly, paying one hash lookup per touch instead of
//! two. [`ShardsSampler`] implements fixed-rate SHARDS spatial sampling
//! for approximate curves at a small fraction of the cost.

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

impl ReuseStack {
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
    /// At most seven additions per hierarchy level (the top level is a
    /// linear scan over 32 Ki-position supergroups), plus whole-word and
    /// masked popcounts inside `pos`'s own 8-word group.
    #[inline]
    fn rank_inclusive(&self, pos: usize) -> u64 {
        let w = pos / 64;
        let (g1, g2, g3) = (w >> 3, w >> 6, w >> 9);
        let mut sum = 0u64;
        for i in 0..(w >> 12) {
            sum += u64::from(self.l4[i]);
        }
        for i in ((w >> 12) << 3)..g3 {
            sum += u64::from(self.l3[i]);
        }
        for i in (g3 << 3)..g2 {
            sum += u64::from(self.l2[i]);
        }
        for i in (g2 << 3)..g1 {
            sum += u64::from(self.l1[i]);
        }
        for i in (g1 << 3)..w {
            sum += u64::from(self.words[i].count_ones());
        }
        let mask = u64::MAX >> (63 - pos % 64);
        sum + u64::from((self.words[w] & mask).count_ones())
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
        self.next_pos += 1;
        let w = pos / 64;
        if w == self.words.len() {
            self.words.push(0);
            self.grow_counters();
        }
        self.words[w] |= 1u64 << (pos % 64);
        self.l1[w >> 3] += 1;
        self.l2[w >> 6] += 1;
        self.l3[w >> 9] += 1;
        self.l4[w >> 12] += 1;
        self.live += 1;
        pos
    }

    /// Extends the counter levels to cover `words.len()` words.
    fn grow_counters(&mut self) {
        let n = self.words.len();
        if self.l1.len() * 8 < n {
            self.l1.push(0);
        }
        if self.l2.len() * 64 < n {
            self.l2.push(0);
        }
        if self.l3.len() * 512 < n {
            self.l3.push(0);
        }
        if self.l4.len() * 4096 < n {
            self.l4.push(0);
        }
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
    /// live `pos`; dead positions hold `u32::MAX`.
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
        // O(n) rebuild of the counter hierarchy from word popcounts.
        self.l1.clear();
        self.l1.resize(n_words.div_ceil(8), 0);
        self.l2.clear();
        self.l2.resize(n_words.div_ceil(64), 0);
        self.l3.clear();
        self.l3.resize(n_words.div_ceil(512), 0);
        self.l4.clear();
        self.l4.resize(n_words.div_ceil(4096), 0);
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
        let mut p = first;
        while p < end {
            let (w, n, mask) = word_span(p, end);
            if w == self.words.len() {
                self.words.push(0);
                self.grow_counters();
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

/// The part of `p..end` that falls into `p`'s 64-position word: the
/// word index, the number of positions and their bit mask.
#[inline]
fn word_span(p: usize, end: usize) -> (usize, u32, u64) {
    let lo = p % 64;
    let n = (64 - lo).min(end - p);
    (p / 64, n as u32, (u64::MAX >> (64 - n)) << lo)
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
    stack: ReuseStack,
    /// block → position of its most recent access.
    last_pos: FxHashMap<BlockId, usize>,
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

impl ReuseMetrics {
    fn publish(&self, stack: &ReuseStack) {
        self.live_entries.set(stack.live() as u64);
        self.dead_entries
            .set(stack.positions().saturating_sub(stack.live()) as u64);
    }
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
        let distance = match self.last_pos.entry(block) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                let (distance, pos) = self.stack.touch(*entry.get());
                *entry.get_mut() = pos;
                Some(distance)
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(self.stack.touch_cold());
                self.cold_misses += 1;
                None
            }
        };
        if let Some(d) = distance {
            let d = d as usize;
            if d >= self.histogram.len() {
                self.histogram.resize(d + 1, 0);
            }
            self.histogram[d] += 1;
        }
        // Only `last_pos.len()` positions are live; compacting when
        // most are dead keeps memory at O(distinct blocks) instead of
        // O(accesses), at amortized O(1) extra cost per access.
        if self.stack.should_compact() {
            let table = self.stack.compaction_table();
            for pos in self.last_pos.values_mut() {
                *pos = table[*pos] as usize;
            }
            self.stack.rebuild_compacted();
            if let Some(m) = &self.metrics {
                m.compactions.inc();
                m.publish(&self.stack);
            }
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
            rd.stack.positions() < 8 * 100 + 1024,
            "position space grew with accesses: {} positions for 100 blocks",
            rd.stack.positions()
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
