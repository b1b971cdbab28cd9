//! The single-pass per-volume analyzer: [`VolumeAnalyzer`] and
//! [`analyze_trace`].

use std::mem;
use std::ops::Range;

use cbs_cache::ReuseStack;
use cbs_stats::LogHistogram;
use cbs_trace::hash::FxHashMap;
use cbs_trace::{IoRequest, OpKind, RequestBatch, Timestamp, Trace, VolumeId, VolumeView};

use crate::config::{AnalysisConfig, InvalidConfig};
use crate::metrics::{merge_sorted_unique, VolumeMetrics};
use crate::simd;

/// Per-block running state shared by the spatial and temporal metrics.
///
/// The block's reuse-stack position lives here too, so one probe per
/// block touch serves both the block-state update and the reuse
/// distance (they used to be two separate maps). Kept at 48 bytes so a
/// 16-block [`BlockChunk`] stays compact.
#[derive(Debug, Clone, Copy)]
struct BlockState {
    read_bytes: u64,
    write_bytes: u64,
    last_ts: Timestamp,
    /// Timestamp of the previous write; only meaningful when
    /// `write_count > 0` (update intervals).
    last_write_ts: Timestamp,
    write_count: u32,
    /// Position of this block's latest access in the reuse stack.
    reuse_pos: u32,
    last_op: OpKind,
}

impl BlockState {
    const EMPTY: BlockState = BlockState {
        read_bytes: 0,
        write_bytes: 0,
        last_ts: Timestamp::ZERO,
        last_write_ts: Timestamp::ZERO,
        write_count: 0,
        reuse_pos: 0,
        last_op: OpKind::Read,
    };
}

/// Number of consecutive blocks per [`BlockChunk`].
const CHUNK_BLOCKS: u64 = 16;

/// Block states for 16 consecutive block ids.
///
/// Requests touch *runs* of consecutive blocks, so storing states in
/// aligned 16-block chunks turns ~6 random hash probes per request
/// (one per block) into ~1 chunk lookup plus direct slot indexing —
/// the dominant cache-miss saving in the touch loop.
#[derive(Debug, Clone)]
struct BlockChunk {
    /// Bit `i` set iff slot `i` holds a live block state.
    occupied: u16,
    states: [BlockState; CHUNK_BLOCKS as usize],
}

impl BlockChunk {
    const EMPTY: BlockChunk = BlockChunk {
        occupied: 0,
        states: [BlockState::EMPTY; CHUNK_BLOCKS as usize],
    };
}

/// Run-length tally over one request's blocks: counts consecutive equal
/// keys so the caller records each run once instead of once per block.
struct Tally<K>(Option<(K, usize)>);

impl<K: PartialEq> Tally<K> {
    /// Counts `key`; when it differs from the running key, returns the
    /// finished run `(key, count)` and starts a new one.
    #[inline]
    fn push(&mut self, key: K) -> Option<(K, usize)> {
        match &mut self.0 {
            Some((k, n)) if *k == key => {
                *n += 1;
                None
            }
            _ => self.0.replace((key, 1)),
        }
    }
}

/// Streaming analyzer for one volume.
///
/// Feed time-sorted requests via [`observe`](VolumeAnalyzer::observe)
/// (or run a whole [`VolumeView`] with
/// [`analyze_volume`](VolumeAnalyzer::analyze_volume)), then call
/// [`finish`](VolumeAnalyzer::finish).
///
/// MERGEABLE: analyzers over the same volume/epoch/config form a
/// commutative monoid under [`merge`](VolumeAnalyzer::merge) with
/// **partition-scoped** semantics — counters, histograms and per-block
/// state fold exactly; state the per-partition streams never observed
/// together (cross-partition reuse distances, boundary inter-arrivals,
/// a peak straddling the cut, the randomness window) stays local to
/// each partition. A fresh analyzer is the identity. Merge is the
/// terminal fold: call it after all observes, then
/// [`finish`](VolumeAnalyzer::finish).
///
/// # Panics
///
/// `observe` panics in debug builds if requests arrive out of timestamp
/// order, target a different volume, or follow a
/// [`merge`](VolumeAnalyzer::merge).
#[derive(Debug)]
pub struct VolumeAnalyzer {
    config: AnalysisConfig,
    epoch: Timestamp,
    id: VolumeId,

    reads: u64,
    writes: u64,
    read_bytes: u64,
    write_bytes: u64,
    updated_bytes: u64,
    first_ts: Option<Timestamp>,
    last_ts: Option<Timestamp>,

    read_size_hist: LogHistogram,
    write_size_hist: LogHistogram,
    interarrival_hist: LogHistogram,

    /// Current peak-interval index and its running count.
    peak_bin: u64,
    peak_bin_count: u64,
    peak_max: u64,
    /// Exclusive end of the current peak bin in relative micros, so the
    /// per-record division is only paid at bin transitions (`rel` is
    /// non-decreasing). Starts at 0 to force the first recompute.
    peak_bin_end: u64,

    active_intervals: Vec<u32>,
    read_active_intervals: Vec<u32>,
    write_active_intervals: Vec<u32>,
    active_days: Vec<u32>,
    /// Cached activeness interval/day indices with their exclusive bin
    /// ends in relative micros (same transition trick as `peak_bin_end`).
    cur_interval: u32,
    active_bin_end: u64,
    cur_day: u32,
    day_bin_end: u64,

    /// Ring buffer of the previous `randomness_window` request offsets.
    offset_window: Vec<u64>,
    offset_cursor: usize,
    random_requests: u64,

    /// Chunk id (block id / 16) → index into `chunks`.
    chunk_index: FxHashMap<u64, u32>,
    chunks: Vec<BlockChunk>,
    distinct_blocks: u64,

    raw_hist: LogHistogram,
    waw_hist: LogHistogram,
    rar_hist: LogHistogram,
    war_hist: LogHistogram,
    update_interval_hist: LogHistogram,

    reuse_stack: ReuseStack,
    /// Finite reuse-distance histograms split by op kind, plus cold
    /// counts — everything needed for per-op LRU miss-ratio curves.
    read_distance_hist: Vec<u64>,
    write_distance_hist: Vec<u64>,
    read_cold: u64,
    write_cold: u64,

    /// Scratch buffers reused across batched calls (write-mask words
    /// and inter-arrival deltas).
    scratch_mask: Vec<u64>,
    scratch_deltas: Vec<u64>,

    /// Set once another partition has been folded in: reuse-stack
    /// positions of merged-in blocks are partition-local, so further
    /// observes would compute garbage distances. `merge` is terminal.
    merged: bool,
}

impl VolumeAnalyzer {
    /// Creates an analyzer for `id`. `epoch` anchors interval and day
    /// indices (pass the corpus start so indices are comparable across
    /// volumes).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if `config` fails
    /// [`AnalysisConfig::validate`].
    pub fn new(
        id: VolumeId,
        epoch: Timestamp,
        config: AnalysisConfig,
    ) -> Result<Self, InvalidConfig> {
        config.validate()?;
        let bits = config.hist_precision_bits;
        let hist = || LogHistogram::new(bits);
        Ok(VolumeAnalyzer {
            offset_window: Vec::with_capacity(config.randomness_window),
            config,
            epoch,
            id,
            reads: 0,
            writes: 0,
            read_bytes: 0,
            write_bytes: 0,
            updated_bytes: 0,
            first_ts: None,
            last_ts: None,
            read_size_hist: hist(),
            write_size_hist: hist(),
            interarrival_hist: hist(),
            peak_bin: 0,
            peak_bin_count: 0,
            peak_max: 0,
            peak_bin_end: 0,
            active_intervals: Vec::new(),
            read_active_intervals: Vec::new(),
            write_active_intervals: Vec::new(),
            active_days: Vec::new(),
            cur_interval: 0,
            active_bin_end: 0,
            cur_day: 0,
            day_bin_end: 0,
            offset_cursor: 0,
            random_requests: 0,
            chunk_index: FxHashMap::default(),
            chunks: Vec::new(),
            distinct_blocks: 0,
            raw_hist: hist(),
            waw_hist: hist(),
            rar_hist: hist(),
            war_hist: hist(),
            update_interval_hist: hist(),
            reuse_stack: ReuseStack::new(),
            read_distance_hist: Vec::new(),
            write_distance_hist: Vec::new(),
            read_cold: 0,
            write_cold: 0,
            scratch_mask: Vec::new(),
            scratch_deltas: Vec::new(),
            merged: false,
        })
    }

    /// Runs a whole volume view through a fresh analyzer.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if `config` fails validation.
    pub fn analyze_volume(
        view: VolumeView<'_>,
        epoch: Timestamp,
        config: &AnalysisConfig,
    ) -> Result<VolumeMetrics, InvalidConfig> {
        let mut analyzer = VolumeAnalyzer::new(view.id(), epoch, config.clone())?;
        for req in view.requests() {
            analyzer.observe(req);
        }
        Ok(analyzer.finish())
    }

    /// Processes one request.
    pub fn observe(&mut self, req: &IoRequest) {
        debug_assert!(!self.merged, "observe after merge is unsupported");
        debug_assert_eq!(req.volume(), self.id, "request targets another volume");
        debug_assert!(
            self.last_ts.map_or(true, |t| req.ts() >= t),
            "requests must arrive in timestamp order"
        );
        let (op, offset, len, ts) = (req.op(), req.offset(), req.len(), req.ts());
        let rel = ts.saturating_duration_since(self.epoch).as_micros();
        self.note_count(op, len);
        self.note_time(ts);
        self.note_peak(rel);
        self.note_active(rel, op);
        self.note_random(offset);
        self.touch_blocks(op, offset, len, ts);
    }

    /// Processes the records of `batch` in `range` — the batched fast
    /// path, exactly equivalent to calling
    /// [`observe`](VolumeAnalyzer::observe) on each record in order.
    ///
    /// Per-metric work runs as fused loops over the batch's columns
    /// instead of one dispatch per request, so the per-request
    /// bookkeeping (volume check, field extraction, branch misses
    /// across unrelated metrics) is paid once per batch run. All
    /// records in `range` must target this analyzer's volume in
    /// non-decreasing timestamp order, like `observe`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for `batch`.
    pub fn observe_batch(&mut self, batch: &RequestBatch, range: Range<usize>) {
        let ops = &batch.ops()[range.clone()];
        let lens = &batch.lens()[range.clone()];
        let offsets = &batch.offsets()[range.clone()];
        let timestamps = &batch.timestamps()[range.clone()];
        debug_assert!(!self.merged, "observe after merge is unsupported");
        #[cfg(debug_assertions)]
        {
            for &v in &batch.volumes()[range.clone()] {
                debug_assert_eq!(v, self.id, "request targets another volume");
            }
            let mut prev = self.last_ts;
            for &ts in timestamps {
                debug_assert!(
                    prev.map_or(true, |t| ts >= t),
                    "requests must arrive in timestamp order"
                );
                prev = Some(ts);
            }
        }

        // Loop fission: every metric's state is touched by exactly one
        // loop/kernel, and each visits records in order — so the result
        // is bit-identical to interleaving them per request.
        self.note_counts_batch(ops, lens);
        self.note_times_batch(timestamps);
        for &ts in timestamps {
            let rel = ts.saturating_duration_since(self.epoch).as_micros();
            self.note_peak(rel);
        }
        for (&ts, &op) in timestamps.iter().zip(ops) {
            let rel = ts.saturating_duration_since(self.epoch).as_micros();
            self.note_active(rel, op);
        }
        for &offset in offsets {
            self.note_random(offset);
        }
        for i in 0..ops.len() {
            self.touch_blocks(ops[i], offsets[i], lens[i], timestamps[i]);
        }
    }

    /// Counts, traffic and size histograms.
    #[inline]
    fn note_count(&mut self, op: OpKind, len: u32) {
        match op {
            OpKind::Read => {
                self.reads += 1;
                self.read_bytes += u64::from(len);
                self.read_size_hist.record(u64::from(len));
            }
            OpKind::Write => {
                self.writes += 1;
                self.write_bytes += u64::from(len);
                self.write_size_hist.record(u64::from(len));
            }
        }
    }

    /// Batched [`note_count`](Self::note_count): one SIMD pass for the
    /// counters and byte sums, then a mask-driven loop for the two size
    /// histograms (histogram adds commute, so recording all records in
    /// order against precomputed masks is bit-identical).
    fn note_counts_batch(&mut self, ops: &[OpKind], lens: &[u32]) {
        let sums = simd::op_len_sums(ops, lens);
        self.reads += sums.reads;
        self.writes += sums.writes;
        self.read_bytes += sums.read_bytes;
        self.write_bytes += sums.write_bytes;
        let mut mask = mem::take(&mut self.scratch_mask);
        simd::write_mask(ops, &mut mask);
        for (i, &len) in lens.iter().enumerate() {
            let hist = if mask[i / 64] >> (i % 64) & 1 == 1 {
                &mut self.write_size_hist
            } else {
                &mut self.read_size_hist
            };
            hist.record(u64::from(len));
        }
        self.scratch_mask = mask;
    }

    /// Inter-arrival histogram and observed span.
    #[inline]
    fn note_time(&mut self, ts: Timestamp) {
        if let Some(prev) = self.last_ts {
            self.interarrival_hist.record((ts - prev).as_micros());
        }
        self.first_ts.get_or_insert(ts);
        self.last_ts = Some(ts);
    }

    /// Batched [`note_time`](Self::note_time): the gaps come from one
    /// SIMD first-difference pass over the microsecond column. The
    /// leading gap is seeded with the previous record's timestamp (or
    /// skipped when this is the first record ever, like the scalar
    /// path); timestamps are non-decreasing so the wrapping subtraction
    /// equals the checked one.
    fn note_times_batch(&mut self, timestamps: &[Timestamp]) {
        let Some(&last) = timestamps.last() else {
            return;
        };
        let micros = simd::timestamps_as_micros(timestamps);
        let mut deltas = mem::take(&mut self.scratch_deltas);
        let prev = self.last_ts.unwrap_or(timestamps[0]).as_micros();
        simd::deltas_u64(micros, prev, &mut deltas);
        let skip_first = usize::from(self.last_ts.is_none());
        for &gap in &deltas[skip_first..] {
            self.interarrival_hist.record(gap);
        }
        self.first_ts.get_or_insert(timestamps[0]);
        self.last_ts = Some(last);
        self.scratch_deltas = deltas;
    }

    /// Peak intensity (streaming max over peak intervals).
    ///
    /// `rel` is non-decreasing, so the bin index only changes when `rel`
    /// crosses the cached bin end — the division is paid per transition,
    /// not per record (`peak_bin_end` starts at 0, forcing the first
    /// record to compute its bin like the plain divide did).
    #[inline]
    fn note_peak(&mut self, rel: u64) {
        if rel >= self.peak_bin_end {
            let period = self.config.peak_interval.as_micros();
            let bin = rel / period;
            // Saturation is exact: the end only saturates for the last
            // representable bin, which no later `rel` can leave.
            self.peak_bin_end = bin.saturating_add(1).saturating_mul(period);
            if bin != self.peak_bin {
                self.peak_max = self.peak_max.max(self.peak_bin_count);
                self.peak_bin = bin;
                self.peak_bin_count = 0;
            }
        }
        self.peak_bin_count += 1;
    }

    /// Activeness (sorted-unique push: requests arrive in order).
    ///
    /// Same bin-end transition trick as [`note_peak`](Self::note_peak),
    /// applied to both the interval and the day index.
    #[inline]
    fn note_active(&mut self, rel: u64, op: OpKind) {
        if rel >= self.active_bin_end {
            let q = rel / self.config.active_interval.as_micros();
            self.cur_interval = u32::try_from(q).unwrap_or(u32::MAX);
            self.active_bin_end = q
                .saturating_add(1)
                .saturating_mul(self.config.active_interval.as_micros());
        }
        let interval = self.cur_interval;
        push_unique(&mut self.active_intervals, interval);
        match op {
            OpKind::Read => push_unique(&mut self.read_active_intervals, interval),
            OpKind::Write => push_unique(&mut self.write_active_intervals, interval),
        }
        if rel >= self.day_bin_end {
            let q = rel / cbs_trace::time::MICROS_PER_DAY;
            self.cur_day = u32::try_from(q).unwrap_or(u32::MAX);
            self.day_bin_end = q
                .saturating_add(1)
                .saturating_mul(cbs_trace::time::MICROS_PER_DAY);
        }
        push_unique(&mut self.active_days, self.cur_day);
    }

    /// Randomness: a request is random iff no window offset lies within
    /// `randomness_threshold` of it.
    ///
    /// `min(abs_diff) > threshold` is evaluated as range *non*-membership
    /// in `[offset - t, offset + t]` (saturating — saturation is exact at
    /// both edges), which the SIMD kernel scans without computing any
    /// distance. The empty-window case keeps the scalar comparison so
    /// the `threshold == u64::MAX` edge stays bit-identical.
    #[inline]
    fn note_random(&mut self, offset: u64) {
        let threshold = self.config.randomness_threshold;
        let is_random = if self.offset_window.is_empty() {
            u64::MAX > threshold
        } else {
            let lo = offset.saturating_sub(threshold);
            let hi = offset.saturating_add(threshold);
            !simd::any_within(&self.offset_window, lo, hi)
        };
        if is_random {
            self.random_requests += 1;
        }
        if self.offset_window.len() < self.config.randomness_window {
            self.offset_window.push(offset);
        } else {
            self.offset_window[self.offset_cursor] = offset;
            self.offset_cursor = (self.offset_cursor + 1) % self.config.randomness_window;
        }
    }

    /// Block-granular state: adjacency, updates, WSS, reuse.
    ///
    /// One pass over the span stores every block's new [`BlockState`]
    /// (a sequential walk through at most a few chunks) and tallies
    /// what the metrics need **per run, not per block**. A multi-block
    /// request's blocks were almost always last touched together, so
    /// they share a previous op and timestamp and sit on consecutive
    /// reuse-stack positions: the stack retires each such run with one
    /// [`ReuseStack::touch_run`] (one rank, one distance for the whole
    /// run) and each histogram takes one `record_n` per distinct key.
    /// Counters and histograms are sums, so recording a run at its end
    /// is bit-identical to recording its blocks one by one; the stack
    /// runs are applied in span order, exactly as sequential touches
    /// would be. A single-block request is a run of one.
    #[inline]
    fn touch_blocks(&mut self, op: OpKind, offset: u64, len: u32, ts: Timestamp) {
        let bs = self.config.block_size;
        // Every touch appends one stack position, so block `i` of the
        // span lands on `base + i` whatever runs the span splits into.
        let base = self.reuse_stack.positions();
        // Previous positions are consecutive exactly while `prev - i`
        // stays constant; `None` keys a run of cold blocks.
        let mut stack_run: Tally<Option<usize>> = Tally(None);
        let mut adjacency: Tally<(OpKind, Timestamp)> = Tally(None);
        let mut updates: Tally<Timestamp> = Tally(None);
        let span = bs.span(offset, len);
        let blocks = span.len();
        // Spans cover consecutive blocks, so the chunk lookup amortizes
        // over up to 16 touches; `cur` caches the active chunk index.
        let mut cur_chunk = u64::MAX;
        let mut cur = 0usize;
        for (i, block) in span.enumerate() {
            let b = block.get();
            let overlap = u64::from(bs.overlap(block, offset, len));
            if b / CHUNK_BLOCKS != cur_chunk {
                cur_chunk = b / CHUNK_BLOCKS;
                let next = self.chunks.len() as u32;
                let idx = *self.chunk_index.entry(cur_chunk).or_insert(next);
                if idx == next {
                    self.chunks.push(BlockChunk::EMPTY);
                }
                cur = idx as usize;
            }
            let chunk = &mut self.chunks[cur];
            let slot = (b % CHUNK_BLOCKS) as usize;
            let warm = chunk.occupied & (1 << slot) != 0;
            chunk.occupied |= 1 << slot;
            let state = &mut chunk.states[slot];
            let old = *state;
            if !warm {
                *state = BlockState {
                    last_write_ts: ts,
                    ..BlockState::EMPTY
                };
            }
            match op {
                OpKind::Read => state.read_bytes += overlap,
                OpKind::Write => {
                    state.write_bytes += overlap;
                    state.write_count += 1;
                    state.last_write_ts = ts;
                }
            }
            state.last_op = op;
            state.last_ts = ts;
            // The block's stack position rides in its state, so the
            // chunk lookup is the only hash op per touched chunk. The
            // cast cannot lose a position that is ever read: the run
            // holding this block is retired before the span ends, and
            // the stack panics there once positions pass
            // `ReuseStack::MAX_POSITIONS`.
            state.reuse_pos = (base + i) as u32;

            let stack_key = warm.then(|| (old.reuse_pos as usize).wrapping_sub(i));
            if let Some((key, n)) = stack_run.push(stack_key) {
                self.retire_stack_run(op, key, i, n);
            }
            if warm {
                if let Some((last, n)) = adjacency.push((old.last_op, old.last_ts)) {
                    self.record_adjacency(op, ts, last, n);
                }
                if op == OpKind::Write {
                    self.updated_bytes += overlap;
                    if old.write_count > 0 {
                        if let Some((last_write, n)) = updates.push(old.last_write_ts) {
                            self.update_interval_hist
                                .record_n((ts - last_write).as_micros(), n as u64);
                        }
                    }
                }
            }
        }
        if let Some((key, n)) = stack_run.0 {
            self.retire_stack_run(op, key, blocks, n);
        }
        if let Some((last, n)) = adjacency.0 {
            self.record_adjacency(op, ts, last, n);
        }
        if let Some((last_write, n)) = updates.0 {
            self.update_interval_hist
                .record_n((ts - last_write).as_micros(), n as u64);
        }

        // Dead stack positions cost one bit each; compact once most are
        // dead so memory stays O(distinct blocks). Distances are
        // invariant under compaction (live order is preserved).
        if self.reuse_stack.should_compact() {
            let table = self.reuse_stack.compaction_table();
            for chunk in &mut self.chunks {
                let mut occ = chunk.occupied;
                while occ != 0 {
                    let slot = occ.trailing_zeros() as usize;
                    occ &= occ - 1;
                    let state = &mut chunk.states[slot];
                    state.reuse_pos = table[state.reuse_pos as usize];
                }
            }
            self.reuse_stack.rebuild_compacted();
        }
    }

    /// Applies a finished stack run of `n` blocks ending before span
    /// index `end`: `key` is `None` for first touches (WSS and cold
    /// counts), else the run's constant `prev - index`, and the run's
    /// one reuse distance — over the unified stream, split per op —
    /// counts `n` times.
    #[inline]
    fn retire_stack_run(&mut self, op: OpKind, key: Option<usize>, end: usize, n: usize) {
        let Some(key) = key else {
            self.reuse_stack.touch_cold_run(n);
            self.distinct_blocks += n as u64;
            match op {
                OpKind::Read => self.read_cold += n as u64,
                OpKind::Write => self.write_cold += n as u64,
            }
            return;
        };
        let (distance, _) = self.reuse_stack.touch_run(key.wrapping_add(end - n), n);
        let hist = match op {
            OpKind::Read => &mut self.read_distance_hist,
            OpKind::Write => &mut self.write_distance_hist,
        };
        let d = distance as usize;
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += n as u64;
    }

    /// Records `n` re-touches at `ts` of blocks last touched by
    /// `last.0` at `last.1` in the matching RAW/WAW/RAR/WAR histogram.
    #[inline]
    fn record_adjacency(&mut self, op: OpKind, ts: Timestamp, last: (OpKind, Timestamp), n: usize) {
        let hist = match (last.0, op) {
            (OpKind::Write, OpKind::Read) => &mut self.raw_hist,
            (OpKind::Write, OpKind::Write) => &mut self.waw_hist,
            (OpKind::Read, OpKind::Read) => &mut self.rar_hist,
            (OpKind::Read, OpKind::Write) => &mut self.war_hist,
        };
        hist.record_n((ts - last.1).as_micros(), n as u64);
    }

    /// Folds another partition's analyzer state into `self` — the
    /// terminal reduce of the corpus-parallel fan-out (see the type
    /// docs for which laws are exact vs partition-scoped). Call
    /// [`finish`](VolumeAnalyzer::finish) afterwards; observing more
    /// requests after a merge is unsupported (merged-in blocks carry
    /// partition-local reuse positions).
    ///
    /// # Panics
    ///
    /// Panics if the analyzers disagree on volume, epoch, or config.
    pub fn merge(&mut self, other: VolumeAnalyzer) {
        assert_eq!(self.id, other.id, "merge requires the same volume");
        assert_eq!(self.epoch, other.epoch, "merge requires the same epoch");
        assert_eq!(self.config, other.config, "merge requires the same config");
        self.merged = true;

        self.reads += other.reads;
        self.writes += other.writes;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.updated_bytes += other.updated_bytes;
        self.first_ts = match (self.first_ts, other.first_ts) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_ts = match (self.last_ts, other.last_ts) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };

        self.read_size_hist.merge(&other.read_size_hist);
        self.write_size_hist.merge(&other.write_size_hist);
        self.interarrival_hist.merge(&other.interarrival_hist);
        self.raw_hist.merge(&other.raw_hist);
        self.waw_hist.merge(&other.waw_hist);
        self.rar_hist.merge(&other.rar_hist);
        self.war_hist.merge(&other.war_hist);
        self.update_interval_hist.merge(&other.update_interval_hist);

        // Peaks are partition-scoped: finalize both running bins and
        // keep the max (a peak straddling the cut is undercounted).
        self.peak_max = self
            .peak_max
            .max(self.peak_bin_count)
            .max(other.peak_max.max(other.peak_bin_count));
        self.peak_bin = 0;
        self.peak_bin_count = 0;
        self.peak_bin_end = 0;

        merge_sorted_unique(&mut self.active_intervals, &other.active_intervals);
        merge_sorted_unique(
            &mut self.read_active_intervals,
            &other.read_active_intervals,
        );
        merge_sorted_unique(
            &mut self.write_active_intervals,
            &other.write_active_intervals,
        );
        merge_sorted_unique(&mut self.active_days, &other.active_days);

        // Randomness windows are partition-local; the verdicts add.
        self.random_requests += other.random_requests;

        // Reuse distances were computed against each partition's own
        // stack; the distance histograms and cold counts add.
        if self.read_distance_hist.len() < other.read_distance_hist.len() {
            self.read_distance_hist
                .resize(other.read_distance_hist.len(), 0);
        }
        for (i, &v) in other.read_distance_hist.iter().enumerate() {
            self.read_distance_hist[i] += v;
        }
        if self.write_distance_hist.len() < other.write_distance_hist.len() {
            self.write_distance_hist
                .resize(other.write_distance_hist.len(), 0);
        }
        for (i, &v) in other.write_distance_hist.iter().enumerate() {
            self.write_distance_hist[i] += v;
        }
        self.read_cold += other.read_cold;
        self.write_cold += other.write_cold;

        // Per-block state folds order-free: bytes and write counts
        // add, last-access bookkeeping takes the later access.
        for (chunk_id, other_idx) in other.chunk_index {
            let other_chunk = &other.chunks[other_idx as usize];
            let next = self.chunks.len() as u32;
            let idx = *self.chunk_index.entry(chunk_id).or_insert(next);
            if idx == next {
                self.chunks.push(BlockChunk::EMPTY);
            }
            let chunk = &mut self.chunks[idx as usize];
            let mut occ = other_chunk.occupied;
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let theirs = &other_chunk.states[slot];
                if chunk.occupied & (1 << slot) == 0 {
                    chunk.occupied |= 1 << slot;
                    chunk.states[slot] = *theirs;
                    self.distinct_blocks += 1;
                } else {
                    merge_block_state(&mut chunk.states[slot], theirs);
                }
            }
        }
    }

    /// Completes the analysis.
    ///
    /// An analyzer that observed no requests yields all-zero metrics
    /// spanning `[epoch, epoch]` ([`analyze_trace`] never produces
    /// empty volumes, so this only matters for hand-driven sessions).
    pub fn finish(mut self) -> VolumeMetrics {
        let first_ts = self.first_ts.unwrap_or(self.epoch);
        let last_ts = self.last_ts.unwrap_or(self.epoch);
        self.peak_max = self.peak_max.max(self.peak_bin_count);

        // --- aggregate block-level results ---
        let mut wss_read_blocks = 0u64;
        let mut wss_write_blocks = 0u64;
        let mut wss_update_blocks = 0u64;
        let mut read_bytes_to_read_mostly = 0u64;
        let mut write_bytes_to_write_mostly = 0u64;
        let mut read_traffic: Vec<u64> = Vec::new();
        let mut write_traffic: Vec<u64> = Vec::new();
        let threshold = self.config.rw_mostly_threshold;
        for chunk in &self.chunks {
            let mut occ = chunk.occupied;
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let state = &chunk.states[slot];
                if state.read_bytes > 0 {
                    wss_read_blocks += 1;
                    read_traffic.push(state.read_bytes);
                }
                if state.write_bytes > 0 {
                    wss_write_blocks += 1;
                    write_traffic.push(state.write_bytes);
                }
                if state.write_count >= 2 {
                    wss_update_blocks += 1;
                }
                let total = state.read_bytes + state.write_bytes;
                if total > 0 {
                    let read_share = state.read_bytes as f64 / total as f64;
                    if read_share > threshold {
                        read_bytes_to_read_mostly += state.read_bytes;
                    }
                    if 1.0 - read_share > threshold {
                        write_bytes_to_write_mostly += state.write_bytes;
                    }
                }
            }
        }
        let (f1, f10) = self.config.top_fractions;
        let top_read_shares = top_shares(&mut read_traffic, f1, f10);
        let top_write_shares = top_shares(&mut write_traffic, f1, f10);

        VolumeMetrics {
            id: self.id,
            reads: self.reads,
            writes: self.writes,
            read_bytes: self.read_bytes,
            write_bytes: self.write_bytes,
            updated_bytes: self.updated_bytes,
            first_ts,
            last_ts,
            peak_interval_requests: self.peak_max,
            read_size_hist: self.read_size_hist,
            write_size_hist: self.write_size_hist,
            interarrival_hist: self.interarrival_hist,
            active_intervals: self.active_intervals,
            read_active_intervals: self.read_active_intervals,
            write_active_intervals: self.write_active_intervals,
            active_days: self.active_days,
            random_requests: self.random_requests,
            wss_blocks: self.distinct_blocks,
            wss_read_blocks,
            wss_write_blocks,
            wss_update_blocks,
            top_read_shares,
            top_write_shares,
            read_bytes_to_read_mostly,
            write_bytes_to_write_mostly,
            raw_hist: self.raw_hist,
            waw_hist: self.waw_hist,
            rar_hist: self.rar_hist,
            war_hist: self.war_hist,
            update_interval_hist: self.update_interval_hist,
            read_mrc: cbs_cache::MissRatioCurve::from_histogram(
                self.read_distance_hist,
                self.read_cold,
            ),
            write_mrc: cbs_cache::MissRatioCurve::from_histogram(
                self.write_distance_hist,
                self.write_cold,
            ),
        }
    }
}

/// Folds one block's per-partition state into another (see
/// [`VolumeAnalyzer::merge`]): traffic and write counts add, the
/// last-access fields take the later access with a deterministic
/// tie-break (writes outrank reads on equal timestamps) so the fold is
/// order-free. The reuse position stays partition-local — merge is
/// terminal, nothing reads it again.
fn merge_block_state(mine: &mut BlockState, theirs: &BlockState) {
    mine.read_bytes += theirs.read_bytes;
    mine.write_bytes += theirs.write_bytes;
    if theirs.write_count > 0 {
        mine.last_write_ts = if mine.write_count > 0 {
            mine.last_write_ts.max(theirs.last_write_ts)
        } else {
            theirs.last_write_ts
        };
    }
    mine.write_count += theirs.write_count;
    if (theirs.last_ts, op_rank(theirs.last_op)) > (mine.last_ts, op_rank(mine.last_op)) {
        mine.last_op = theirs.last_op;
    }
    mine.last_ts = mine.last_ts.max(theirs.last_ts);
}

/// Total order on op kinds for the last-access tie-break.
fn op_rank(op: OpKind) -> u8 {
    match op {
        OpKind::Read => 0,
        OpKind::Write => 1,
    }
}

/// Appends `value` to a sorted-unique vector fed with non-decreasing
/// values.
fn push_unique(sorted: &mut Vec<u32>, value: u32) {
    if sorted.last() != Some(&value) {
        debug_assert!(sorted.last().map_or(true, |&l| l < value));
        sorted.push(value);
    }
}

/// Shares of total traffic carried by the top-`f1` and top-`f10`
/// fractions of blocks (by per-block traffic). `None` for no traffic.
fn top_shares(traffic: &mut [u64], f1: f64, f10: f64) -> Option<(f64, f64)> {
    if traffic.is_empty() {
        return None;
    }
    traffic.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = traffic.iter().sum();
    let share = |fraction: f64| {
        let k = ((traffic.len() as f64 * fraction).ceil() as usize).clamp(1, traffic.len());
        let top: u64 = traffic[..k].iter().sum();
        top as f64 / total as f64
    };
    Some((share(f1), share(f10)))
}

/// Analyzes every volume of a trace sequentially, returning metrics in
/// volume-id order. Interval/day indices are anchored at the trace
/// start.
///
/// # Errors
///
/// Returns [`InvalidConfig`] if `config` fails validation.
pub fn analyze_trace(
    trace: &Trace,
    config: &AnalysisConfig,
) -> Result<Vec<VolumeMetrics>, InvalidConfig> {
    config.validate()?;
    let epoch = trace.start().unwrap_or(Timestamp::ZERO);
    trace
        .volumes()
        .map(|view| VolumeAnalyzer::analyze_volume(view, epoch, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_trace::TimeDelta;

    fn req(op: OpKind, offset: u64, len: u32, secs: u64) -> IoRequest {
        IoRequest::new(
            VolumeId::new(0),
            op,
            offset,
            len,
            Timestamp::from_secs(secs),
        )
    }

    fn analyze(requests: Vec<IoRequest>) -> VolumeMetrics {
        let trace = Trace::from_requests(requests);
        analyze_trace(&trace, &AnalysisConfig::default())
            .expect("valid config")
            .into_iter()
            .next()
            .expect("one volume")
    }

    #[test]
    fn counts_and_traffic() {
        let m = analyze(vec![
            req(OpKind::Write, 0, 4096, 0),
            req(OpKind::Write, 4096, 8192, 1),
            req(OpKind::Read, 0, 4096, 2),
        ]);
        assert_eq!(m.reads, 1);
        assert_eq!(m.writes, 2);
        assert_eq!(m.read_bytes, 4096);
        assert_eq!(m.write_bytes, 12288);
        assert_eq!(m.requests(), 3);
        assert_eq!(m.span(), TimeDelta::from_secs(2));
    }

    #[test]
    fn wss_and_update_blocks() {
        let m = analyze(vec![
            req(OpKind::Write, 0, 4096, 0),    // block 0
            req(OpKind::Write, 0, 4096, 1),    // block 0 again → update
            req(OpKind::Write, 4096, 4096, 2), // block 1
            req(OpKind::Read, 8192, 4096, 3),  // block 2 (read only)
        ]);
        assert_eq!(m.wss_blocks, 3);
        assert_eq!(m.wss_read_blocks, 1);
        assert_eq!(m.wss_write_blocks, 2);
        assert_eq!(m.wss_update_blocks, 1);
        assert_eq!(m.updated_bytes, 4096);
        assert!((m.update_coverage() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn multi_block_requests_touch_every_block() {
        let m = analyze(vec![req(OpKind::Write, 0, 16384, 0)]);
        assert_eq!(m.wss_blocks, 4);
        assert_eq!(m.wss_write_blocks, 4);
        assert_eq!(m.wss_update_blocks, 0);
    }

    #[test]
    fn adjacency_pair_classification() {
        let m = analyze(vec![
            req(OpKind::Write, 0, 4096, 0),
            req(OpKind::Read, 0, 4096, 10),  // RAW, 10 s
            req(OpKind::Read, 0, 4096, 15),  // RAR, 5 s
            req(OpKind::Write, 0, 4096, 75), // WAR, 60 s
            req(OpKind::Write, 0, 4096, 76), // WAW, 1 s
        ]);
        assert_eq!(m.raw_hist.total(), 1);
        assert_eq!(m.rar_hist.total(), 1);
        assert_eq!(m.war_hist.total(), 1);
        assert_eq!(m.waw_hist.total(), 1);
        // RAW time ~10 s (within histogram error)
        let raw = m.raw_hist.quantile(0.5).unwrap() as f64;
        assert!((raw - 10e6).abs() / 10e6 < 0.02, "raw={raw}");
    }

    #[test]
    fn update_interval_allows_reads_between() {
        let m = analyze(vec![
            req(OpKind::Write, 0, 4096, 0),
            req(OpKind::Read, 0, 4096, 50), // read between the writes
            req(OpKind::Write, 0, 4096, 100), // update interval = 100 s
        ]);
        assert_eq!(m.update_interval_hist.total(), 1);
        let ui = m.update_interval_hist.quantile(0.5).unwrap() as f64;
        assert!((ui - 100e6).abs() / 100e6 < 0.02, "ui={ui}");
        // while WAW counts only the adjacent write pair — here none
        assert_eq!(m.waw_hist.total(), 0);
        assert_eq!(m.war_hist.total(), 1);
    }

    #[test]
    fn randomness_window_classification() {
        // first request: no window → random; second at distance 4 KiB:
        // not random; third at 10 MiB: random.
        let m = analyze(vec![
            req(OpKind::Read, 0, 4096, 0),
            req(OpKind::Read, 4096, 4096, 1),
            req(OpKind::Read, 10 << 20, 4096, 2),
        ]);
        assert_eq!(m.random_requests, 2);
        assert!((m.randomness_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn randomness_window_is_bounded() {
        // 40 requests at the same offset, then one far away: the far
        // one is random even though offset 0 left the window long ago.
        let mut reqs: Vec<IoRequest> = (0..40)
            .map(|i| req(OpKind::Read, 4096 * (i % 2), 4096, i))
            .collect();
        reqs.push(req(OpKind::Read, 1 << 30, 4096, 50));
        let m = analyze(reqs);
        // request 0 (no window) + the last one
        assert_eq!(m.random_requests, 2);
    }

    #[test]
    fn peak_and_average_intensity() {
        // 10 requests in minute 0, 1 request in minute 10
        let mut reqs: Vec<IoRequest> = (0..10).map(|i| req(OpKind::Write, 0, 512, i)).collect();
        reqs.push(req(OpKind::Write, 0, 512, 600));
        let m = analyze(reqs);
        let config = AnalysisConfig::default();
        assert_eq!(m.peak_interval_requests, 10);
        assert!((m.avg_intensity() - 11.0 / 600.0).abs() < 1e-9);
        assert!((m.peak_intensity(&config) - 10.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn activeness_intervals_and_days() {
        let m = analyze(vec![
            req(OpKind::Write, 0, 512, 0),          // interval 0, day 0
            req(OpKind::Read, 0, 512, 60),          // interval 0
            req(OpKind::Write, 0, 512, 601),        // interval 1
            req(OpKind::Write, 0, 512, 86_400 + 5), // day 1
        ]);
        assert_eq!(m.active_intervals, vec![0, 1, 144]);
        assert_eq!(m.read_active_intervals, vec![0]);
        assert_eq!(m.write_active_intervals, vec![0, 1, 144]);
        assert_eq!(m.active_days, vec![0, 1]);
    }

    #[test]
    fn epoch_anchors_indices() {
        // volume starting at day 3 of the corpus
        let trace = Trace::from_requests(vec![
            IoRequest::new(
                VolumeId::new(0),
                OpKind::Write,
                0,
                512,
                Timestamp::from_secs(0),
            ),
            IoRequest::new(
                VolumeId::new(1),
                OpKind::Write,
                0,
                512,
                Timestamp::from_days(3),
            ),
        ]);
        let metrics = analyze_trace(&trace, &AnalysisConfig::default()).expect("valid config");
        assert_eq!(metrics[0].active_days, vec![0]);
        assert_eq!(metrics[1].active_days, vec![3]);
    }

    #[test]
    fn read_write_mostly_attribution() {
        // block 0: write-only; block 1: read-only; block 2: mixed 50/50
        let m = analyze(vec![
            req(OpKind::Write, 0, 4096, 0),
            req(OpKind::Read, 4096, 4096, 1),
            req(OpKind::Write, 8192, 4096, 2),
            req(OpKind::Read, 8192, 4096, 3),
        ]);
        assert_eq!(m.write_bytes_to_write_mostly, 4096); // block 0 only
        assert_eq!(m.read_bytes_to_read_mostly, 4096); // block 1 only
    }

    #[test]
    fn top_shares_concentrate_on_hot_blocks() {
        // 100 blocks once + block 0 hammered 100 more times
        let mut reqs: Vec<IoRequest> = (0..100u64)
            .map(|i| req(OpKind::Write, i * 4096, 4096, i))
            .collect();
        for i in 0..100u64 {
            reqs.push(req(OpKind::Write, 0, 4096, 100 + i));
        }
        let m = analyze(reqs);
        let (top1, top10) = m.top_write_shares.unwrap();
        // block 0 carries 101/200 of write traffic
        assert!((top1 - 101.0 / 200.0).abs() < 1e-9, "top1={top1}");
        assert!(top10 > top1);
        assert_eq!(m.top_read_shares, None);
    }

    #[test]
    fn mrc_split_by_op_kind() {
        // writes churn 2 blocks; reads always re-hit block 0
        let m = analyze(vec![
            req(OpKind::Write, 0, 4096, 0),
            req(OpKind::Write, 4096, 4096, 1),
            req(OpKind::Read, 0, 4096, 2), // distance 1
            req(OpKind::Read, 0, 4096, 3), // distance 0
        ]);
        // read MRC: 2 accesses, distances {1, 0} → at capacity 2 all hit
        assert_eq!(m.read_mrc.total_accesses(), 2);
        assert_eq!(m.read_mrc.miss_ratio_at(2), 0.0);
        assert_eq!(m.read_mrc.miss_ratio_at(1), 0.5);
        // write MRC: both cold
        assert_eq!(m.write_mrc.total_accesses(), 2);
        assert_eq!(m.write_mrc.miss_ratio_at(100), 1.0);
    }

    #[test]
    fn interarrival_histogram() {
        let m = analyze(vec![
            req(OpKind::Write, 0, 512, 0),
            req(OpKind::Write, 0, 512, 1),
            req(OpKind::Write, 0, 512, 3),
        ]);
        assert_eq!(m.interarrival_hist.total(), 2);
    }

    #[test]
    fn analyze_trace_orders_by_volume() {
        let trace = Trace::from_requests(vec![
            IoRequest::new(VolumeId::new(5), OpKind::Read, 0, 512, Timestamp::ZERO),
            IoRequest::new(VolumeId::new(1), OpKind::Read, 0, 512, Timestamp::ZERO),
        ]);
        let metrics = analyze_trace(&trace, &AnalysisConfig::default()).expect("valid config");
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].id, VolumeId::new(1));
        assert_eq!(metrics[1].id, VolumeId::new(5));
    }

    #[test]
    fn empty_trace_yields_no_metrics() {
        let metrics =
            analyze_trace(&Trace::new(), &AnalysisConfig::default()).expect("valid config");
        assert!(metrics.is_empty());
    }

    #[test]
    fn observe_batch_equals_per_request_observe() {
        // An irregular single-volume stream exercising every metric:
        // repeats, multi-block requests, far jumps, dense + sparse time.
        let reqs: Vec<IoRequest> = (0..2_000u64)
            .map(|i| {
                let op = if i % 3 == 0 {
                    OpKind::Read
                } else {
                    OpKind::Write
                };
                let offset = (i * i * 7 + i * 13) % 300 * 4096 + (i % 5) * 100;
                let len = 512 * ((i % 17) as u32 + 1);
                req_at(op, offset, len, i * 1100 + i * 37 % 1000)
            })
            .collect();

        let config = AnalysisConfig::default();
        let epoch = reqs[0].ts();
        let mut one_by_one =
            VolumeAnalyzer::new(VolumeId::new(0), epoch, config.clone()).expect("valid");
        for r in &reqs {
            one_by_one.observe(r);
        }

        // Feed the same stream as batches of varying sizes and ranges.
        let batch = RequestBatch::from(reqs.as_slice());
        let mut batched = VolumeAnalyzer::new(VolumeId::new(0), epoch, config).expect("valid");
        let mut start = 0usize;
        for chunk in [1usize, 7, 64, 500, 2000] {
            let end = (start + chunk).min(batch.len());
            batched.observe_batch(&batch, start..end);
            start = end;
            if start == batch.len() {
                break;
            }
        }

        assert_eq!(one_by_one.finish(), batched.finish());
    }

    /// Like [`req`] but with monotone microsecond timestamps.
    fn req_at(op: OpKind, offset: u64, len: u32, micros: u64) -> IoRequest {
        IoRequest::new(
            VolumeId::new(0),
            op,
            offset,
            len,
            Timestamp::from_micros(micros),
        )
    }
}
