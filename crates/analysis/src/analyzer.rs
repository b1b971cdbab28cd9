//! The single-pass per-volume analyzer, [`VolumeAnalyzer`], and the
//! one by-volume driver that runs it over every volume of a corpus,
//! [`analyze_volumes`], with its trace source [`analyze_trace`].

use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicUsize, Ordering};

use cbs_cache::{BlockNo, BlockNumbering, ReuseStack};
use cbs_stats::LogHistogram;
use cbs_trace::{IoRequest, OpKind, RequestBatch, Timestamp, Trace, VolumeId, VolumeView};

use crate::config::{AnalysisConfig, InvalidConfig};
use crate::findings::intensity::{OverallBins, OverallIntensity};
use crate::metrics::VolumeMetrics;

/// Requests [`VolumeAnalyzer::analyze_volume`] copies into its batch
/// per [`observe_batch`](VolumeAnalyzer::observe_batch) call — the
/// streaming path's default batch size.
const VIEW_RUN: usize = 8192;

/// Per-block running state shared by the spatial and temporal metrics.
///
/// The block's reuse-stack position lives here too, so one probe per
/// block touch serves both the block-state update and the reuse
/// distance (they used to be two separate maps). 32 bytes, aligned to
/// 32 so two states share each cache line and none straddles one; the
/// states sit in one `Vec` indexed by the block's number. The byte
/// counts are the low words of exact counts ([`Carries`]). The two
/// timestamps stay whole: narrower ones would cap the span a volume may
/// cover.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct BlockState {
    read_bytes: u32,
    write_bytes: u32,
    last_ts: Timestamp,
    /// Timestamp of the previous write; only meaningful when
    /// `write_count > 0` (update intervals).
    last_write_ts: Timestamp,
    /// Position of this block's latest access in the reuse stack.
    reuse_pos: u32,
    /// Writes so far, saturating: only `> 0` and `>= 2` are read.
    write_count: u8,
    last_op: OpKind,
}

const _: () =
    assert!(std::mem::size_of::<BlockState>() == 32 && std::mem::align_of::<BlockState>() == 32);

impl BlockState {
    const EMPTY: BlockState = BlockState {
        read_bytes: 0,
        write_bytes: 0,
        last_ts: Timestamp::ZERO,
        last_write_ts: Timestamp::ZERO,
        reuse_pos: 0,
        write_count: 0,
        last_op: OpKind::Read,
    };
}

/// Exact `u64` counts kept as `u32` low words, one read and one write
/// word per slot: an add that wraps a word past 2³² logs the word's
/// `(slot, op)` here, and [`widen`](Carries::widen) adds 2³² back per
/// log. Wraps are rare (a block's traffic or a distance's count past
/// 4 GiB or 4 G accesses), so the log stays short.
#[derive(Debug, Default)]
struct Carries(Vec<(usize, OpKind)>);

impl Carries {
    /// Adds `n` to `word`, the `op` word of `slot`. A `u32` add wraps
    /// at most once.
    #[inline]
    fn add(&mut self, word: &mut u32, n: u32, slot: usize, op: OpKind) {
        let (sum, wrapped) = word.overflowing_add(n);
        *word = sum;
        if wrapped {
            self.0.push((slot, op));
        }
    }

    /// The exact counts: `lows` yields slot `i`'s `[read, write]` low
    /// words as its `i`-th item, widened with that slot's carries.
    fn widen(mut self, lows: impl Iterator<Item = [u32; 2]>) -> impl Iterator<Item = [u64; 2]> {
        self.0.sort_unstable();
        let mut carries = self.0.into_iter().peekable();
        lows.enumerate().map(move |(slot, low)| {
            let mut wide = low.map(u64::from);
            while let Some((_, op)) = carries.next_if(|&(s, _)| s == slot) {
                wide[op as usize] += 1 << 32;
            }
            wide
        })
    }
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
/// Feed time-sorted requests as column runs via
/// [`observe_batch`](VolumeAnalyzer::observe_batch) (or run a whole
/// [`VolumeView`] with [`analyze_volume`](VolumeAnalyzer::analyze_volume)),
/// then call [`finish`](VolumeAnalyzer::finish).
///
/// # Panics
///
/// `observe_batch` panics in debug builds if requests arrive out of
/// timestamp order or target a different volume.
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

    /// Gives each block its dense first-touch number: the one hash
    /// lookup per 16-block chunk of a span.
    numbers: BlockNumbering,
    /// Per-block state, indexed by block number. A block is new exactly
    /// when its number is `states.len()`: numbers are minted in the
    /// order blocks are first touched.
    states: Vec<BlockState>,
    /// Wraps of the states' byte counts, by block number.
    byte_carries: Carries,
    /// Scratch: the runs of numbers the current span was numbered to.
    runs: Vec<(BlockNo, u32)>,

    raw_hist: LogHistogram,
    waw_hist: LogHistogram,
    rar_hist: LogHistogram,
    war_hist: LogHistogram,
    update_interval_hist: LogHistogram,

    reuse_stack: ReuseStack,
    /// Finite reuse-distance counts, `[read, write]` per distance, with
    /// their wraps by distance, plus cold counts — everything needed
    /// for per-op LRU miss-ratio curves.
    distance_counts: Vec<[u32; 2]>,
    distance_carries: Carries,
    read_cold: u64,
    write_cold: u64,
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
            numbers: BlockNumbering::new(),
            states: Vec::new(),
            byte_carries: Carries::default(),
            runs: Vec::new(),
            raw_hist: hist(),
            waw_hist: hist(),
            rar_hist: hist(),
            war_hist: hist(),
            update_interval_hist: hist(),
            reuse_stack: ReuseStack::new(),
            distance_counts: Vec::new(),
            distance_carries: Carries::default(),
            read_cold: 0,
            write_cold: 0,
        })
    }

    /// Runs a whole volume view through a fresh analyzer: the view is
    /// copied into one reused [`RequestBatch`], 8 192 requests at a
    /// time, and each run goes through
    /// [`observe_batch`](VolumeAnalyzer::observe_batch) — the code the
    /// streaming path runs. Metrics do not depend on where runs split.
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
        let mut batch = RequestBatch::with_capacity(view.len().min(VIEW_RUN));
        for run in view.requests().chunks(VIEW_RUN) {
            batch.clear();
            for req in run {
                batch.push(req);
            }
            analyzer.observe_batch(&batch, 0..batch.len());
        }
        Ok(analyzer.finish())
    }

    /// Processes the records of `batch` in `range`, in order.
    ///
    /// Per-metric work runs as fused loops over the batch's columns
    /// instead of one dispatch per request, so the per-request
    /// bookkeeping (volume check, field extraction, branch misses
    /// across unrelated metrics) is paid once per batch run. All
    /// records in `range` must target this analyzer's volume in
    /// non-decreasing timestamp order, also across calls.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for `batch`; in debug builds,
    /// also if a record targets another volume or arrives out of
    /// timestamp order.
    pub fn observe_batch(&mut self, batch: &RequestBatch, range: Range<usize>) {
        let ops = &batch.ops()[range.clone()];
        let lens = &batch.lens()[range.clone()];
        let offsets = &batch.offsets()[range.clone()];
        let timestamps = &batch.timestamps()[range.clone()];
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
        // loop, and each visits records in order — so the result is
        // bit-identical to interleaving them per request.
        self.note_counts(ops, lens);
        self.note_times(timestamps);
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
    ///
    /// The counters and byte sums come from one branch-free pass (the
    /// write bit widened to an all-ones mask selects write lengths;
    /// reads are what is left); the two size histograms from a second
    /// pass that picks the histogram by op.
    fn note_counts(&mut self, ops: &[OpKind], lens: &[u32]) {
        let (mut writes, mut write_bytes, mut total_bytes) = (0u64, 0u64, 0u64);
        for (&op, &len) in ops.iter().zip(lens) {
            let (w, len) = (u64::from(op.is_write()), u64::from(len));
            writes += w;
            write_bytes += len & w.wrapping_neg();
            total_bytes += len;
        }
        self.reads += ops.len() as u64 - writes;
        self.writes += writes;
        self.read_bytes += total_bytes - write_bytes;
        self.write_bytes += write_bytes;
        for (&op, &len) in ops.iter().zip(lens) {
            match op {
                OpKind::Read => self.read_size_hist.record(u64::from(len)),
                OpKind::Write => self.write_size_hist.record(u64::from(len)),
            }
        }
    }

    /// Inter-arrival histogram and observed span. The gap chain is
    /// seeded from the previous run's last timestamp, so only the first
    /// request ever has no gap.
    fn note_times(&mut self, timestamps: &[Timestamp]) {
        let Some((&first, rest)) = timestamps.split_first() else {
            return;
        };
        let (mut prev, gaps) = match self.last_ts {
            Some(last) => (last, timestamps),
            None => (first, rest),
        };
        for &ts in gaps {
            self.interarrival_hist.record((ts - prev).as_micros());
            prev = ts;
        }
        self.first_ts.get_or_insert(first);
        self.last_ts = Some(prev);
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
    /// both edges, and keeps `lo <= hi`), so `v` is inside iff
    /// `v - lo <= hi - lo` in wrapping arithmetic: one compare per
    /// window slot, folded without an early exit so the loop vectorizes.
    /// An empty window has no minimum distance: it counts as `u64::MAX`
    /// away, so `threshold == u64::MAX` makes no request random.
    #[inline]
    fn note_random(&mut self, offset: u64) {
        let threshold = self.config.randomness_threshold;
        let is_random = if self.offset_window.is_empty() {
            u64::MAX > threshold
        } else {
            let lo = offset.saturating_sub(threshold);
            let width = offset.saturating_add(threshold) - lo;
            !self
                .offset_window
                .iter()
                .fold(false, |hit, &v| hit | (v.wrapping_sub(lo) <= width))
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
    /// The span is numbered first (one hash probe per 16-block chunk
    /// it crosses), then one pass over its blocks stores every block's
    /// new [`BlockState`] and tallies what the metrics need **per run,
    /// not per block**. A multi-block request's blocks were almost
    /// always last touched together, so they share a previous op and
    /// timestamp and sit on consecutive reuse-stack positions: the stack
    /// retires each such run with one [`ReuseStack::touch_run`] (one
    /// rank, one distance for the whole run) and each histogram takes
    /// one `record_n` per distinct key. Counters and histograms are
    /// sums, so recording a run at its end is bit-identical to recording
    /// its blocks one by one; the stack runs are applied in span order,
    /// exactly as sequential touches would be. A single-block request
    /// is a run of one.
    #[inline]
    fn touch_blocks(&mut self, op: OpKind, offset: u64, len: u32, ts: Timestamp) {
        let bs = self.config.block_size;
        let span = bs.span(offset, len);
        let Some(first) = span.first() else {
            return; // zero-length: touches no block
        };
        let blocks = span.len();
        let mut runs = std::mem::take(&mut self.runs);
        runs.clear();
        self.numbers
            .number_span(first, span.remaining(), |no, n| runs.push((no, n)));
        // Every touch appends one stack position, so block `i` of the
        // span lands on `base + i` whatever runs the span splits into.
        let base = self.reuse_stack.positions();
        // Previous positions are consecutive exactly while `prev - i`
        // stays constant; `None` keys a run of cold blocks.
        let mut stack_run: Tally<Option<usize>> = Tally(None);
        let mut adjacency: Tally<(OpKind, Timestamp)> = Tally(None);
        let mut updates: Tally<Timestamp> = Tally(None);
        let numbered = runs
            .iter()
            .flat_map(|&(no, n)| no.index()..no.index() + n as usize);
        for ((i, block), no) in span.enumerate().zip(numbered) {
            let overlap = bs.overlap(block, offset, len);
            // Runs come in block order and new blocks are numbered in
            // that order, so a new block's number is the next slot.
            let warm = no < self.states.len();
            if !warm {
                debug_assert_eq!(no, self.states.len(), "numbers are dense");
                self.states.push(BlockState {
                    last_write_ts: ts,
                    ..BlockState::EMPTY
                });
            }
            let state = &mut self.states[no];
            let old = *state;
            match op {
                OpKind::Read => self
                    .byte_carries
                    .add(&mut state.read_bytes, overlap, no, op),
                OpKind::Write => {
                    self.byte_carries
                        .add(&mut state.write_bytes, overlap, no, op);
                    state.write_count = state.write_count.saturating_add(1);
                    state.last_write_ts = ts;
                }
            }
            state.last_op = op;
            state.last_ts = ts;
            // The block's stack position rides in its state, so the
            // numbering is the only hash op per touched chunk. The cast
            // cannot lose a position that is ever read: the run holding
            // this block is retired before the span ends, and the stack
            // panics there once positions pass
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
                    self.updated_bytes += u64::from(overlap);
                    if old.write_count > 0 {
                        if let Some((last_write, n)) = updates.push(old.last_write_ts) {
                            self.update_interval_hist
                                .record_n((ts - last_write).as_micros(), n as u64);
                        }
                    }
                }
            }
        }
        self.runs = runs;
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
            for state in &mut self.states {
                state.reuse_pos = table[state.reuse_pos as usize];
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
            match op {
                OpKind::Read => self.read_cold += n as u64,
                OpKind::Write => self.write_cold += n as u64,
            }
            return;
        };
        let (distance, _) = self.reuse_stack.touch_run(key.wrapping_add(end - n), n);
        let d = distance as usize;
        if d >= self.distance_counts.len() {
            self.distance_counts.resize(d + 1, [0; 2]);
        }
        // A run lies inside one request's span: at most `u32::MAX`
        // blocks, so the cast is exact.
        let word = &mut self.distance_counts[d][op as usize];
        self.distance_carries.add(word, n as u32, d, op);
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

    /// Completes the analysis.
    ///
    /// An analyzer that observed no requests yields all-zero metrics
    /// spanning `[epoch, epoch]` ([`analyze_volumes`] never analyzes
    /// an empty volume, so this only matters for hand-driven sessions).
    pub fn finish(mut self) -> VolumeMetrics {
        let first_ts = self.first_ts.unwrap_or(self.epoch);
        let last_ts = self.last_ts.unwrap_or(self.epoch);
        self.peak_max = self.peak_max.max(self.peak_bin_count);

        // Each per-block structure is freed once it has been read, so
        // the next one's allocation does not add to the analyzer's peak.
        drop((self.numbers, self.reuse_stack));

        // --- aggregate block-level results ---
        let mut wss_read_blocks = 0u64;
        let mut wss_write_blocks = 0u64;
        let mut wss_update_blocks = 0u64;
        let mut read_bytes_to_read_mostly = 0u64;
        let mut write_bytes_to_write_mostly = 0u64;
        let mut read_traffic: Vec<u64> = Vec::new();
        let mut write_traffic: Vec<u64> = Vec::new();
        let threshold = self.config.rw_mostly_threshold;
        let states = self.states;
        let traffic = self
            .byte_carries
            .widen(states.iter().map(|s| [s.read_bytes, s.write_bytes]));
        for (state, [read_bytes, write_bytes]) in states.iter().zip(traffic) {
            if read_bytes > 0 {
                wss_read_blocks += 1;
                read_traffic.push(read_bytes);
            }
            if write_bytes > 0 {
                wss_write_blocks += 1;
                write_traffic.push(write_bytes);
            }
            if state.write_count >= 2 {
                wss_update_blocks += 1;
            }
            let total = read_bytes + write_bytes;
            if total > 0 {
                let read_share = read_bytes as f64 / total as f64;
                if read_share > threshold {
                    read_bytes_to_read_mostly += read_bytes;
                }
                if 1.0 - read_share > threshold {
                    write_bytes_to_write_mostly += write_bytes;
                }
            }
        }
        let wss_blocks = states.len() as u64;
        drop(states);
        let (f1, f10) = self.config.top_fractions;
        let top_read_shares = top_shares(&mut read_traffic, f1, f10);
        let top_write_shares = top_shares(&mut write_traffic, f1, f10);
        drop((read_traffic, write_traffic));

        // Each op's distance column, widened and trimmed to that op's
        // largest distance + 1: the histogram a per-op `Vec<u64>` kept.
        let len = self.distance_counts.len();
        let mut distances = [Vec::with_capacity(len), Vec::with_capacity(len)];
        let counts = self.distance_counts.into_iter();
        for wide in self.distance_carries.widen(counts) {
            for (column, count) in distances.iter_mut().zip(wide) {
                column.push(count);
            }
        }
        for column in &mut distances {
            while column.last() == Some(&0) {
                column.pop();
            }
        }
        let [read_distances, write_distances] = distances;

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
            wss_blocks,
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
            read_mrc: cbs_cache::MissRatioCurve::from_histogram(read_distances, self.read_cold),
            write_mrc: cbs_cache::MissRatioCurve::from_histogram(write_distances, self.write_cold),
        }
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
///
/// Two linear-time selections instead of a sort: the wider cut moves
/// the busiest blocks to the front, then the narrower cut selects within
/// that prefix. A share is a `u64` sum, so the order inside a cut does
/// not change it.
fn top_shares(traffic: &mut [u64], f1: f64, f10: f64) -> Option<(f64, f64)> {
    if traffic.is_empty() {
        return None;
    }
    let total: u64 = traffic.iter().sum();
    let cut =
        |fraction: f64| ((traffic.len() as f64 * fraction).ceil() as usize).clamp(1, traffic.len());
    let (k1, k10) = (cut(f1), cut(f10));
    let (narrow, wide) = (k1.min(k10), k1.max(k10));
    // Moves the `k` busiest of `blocks` to its front; their traffic.
    let busiest = |blocks: &mut [u64], k: usize| -> u64 {
        blocks.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
        blocks[..k].iter().sum()
    };
    let wide_sum = busiest(traffic, wide);
    let narrow_sum = busiest(&mut traffic[..wide], narrow);
    let share = |sum: u64| sum as f64 / total as f64;
    let (top1, top10) = if k1 <= k10 {
        (narrow_sum, wide_sum)
    } else {
        (wide_sum, narrow_sum)
    };
    Some((share(top1), share(top10)))
}

/// [`analyze_volumes`] over the volumes of `trace`, under its start;
/// the records only.
///
/// # Errors
///
/// Returns [`InvalidConfig`] if `config` fails validation.
pub fn analyze_trace(
    trace: &Trace,
    config: &AnalysisConfig,
    threads: usize,
) -> Result<Vec<VolumeMetrics>, InvalidConfig> {
    let views: Vec<_> = trace.volumes().collect();
    let epoch = trace.start().unwrap_or(Timestamp::ZERO);
    let volume = |i: usize| views[i].requests();
    Ok(analyze_volumes(views.len(), epoch, config, threads, volume)?.0)
}

/// The one by-volume driver: analyzes volumes `0..volumes`, volume `i`
/// being the time-sorted requests `volume(i)` returns, each whole under
/// `epoch` (the corpus start), on up to `threads` workers (`0` runs
/// inline). Returns the records in volume-id order and Table II (`None`
/// without requests); an empty volume adds to neither.
///
/// Workers take indices in order off an atomic cursor, so each holds one
/// volume at a time, and keep their records and [`OverallBins`] local
/// until the join: no lock, no channel, O(workers × bins) for Table II.
///
/// # Errors
///
/// Returns [`InvalidConfig`] if `config` fails validation.
///
/// # Panics
///
/// On a volume out of time order or naming two volumes
/// ([`VolumeView::new`]). A panic in `volume` or the analysis is
/// re-raised once every worker stops: never a partial corpus.
pub fn analyze_volumes<R: Deref<Target = [IoRequest]>>(
    volumes: usize,
    epoch: Timestamp,
    config: &AnalysisConfig,
    threads: usize,
    volume: impl Fn(usize) -> R + Sync,
) -> Result<(Vec<VolumeMetrics>, Option<OverallIntensity>), InvalidConfig> {
    config.validate()?;
    let next = AtomicUsize::new(0);
    let work = || {
        let (mut records, mut bins) = (Vec::new(), OverallBins::new(epoch, config));
        // ORDERING: the ticket counter only partitions indices — fetch_add
        // is exact under Relaxed, and what `volume` reads predates the spawn.
        let tickets = std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed));
        for idx in tickets.take_while(|&idx| idx < volumes) {
            let requests = volume(idx);
            if let Some(first) = requests.first() {
                let view = VolumeView::new(first.volume(), &requests);
                records.push(VolumeAnalyzer::analyze_volume(view, epoch, config));
                bins.add(&requests);
            }
        }
        (records, bins)
    };
    let per_worker: Vec<_> = if threads == 0 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.min(volumes))
                .map(|_| scope.spawn(work))
                .collect();
            (handles.into_iter())
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    let (mut metrics, mut bins) = (Vec::new(), OverallBins::new(epoch, config));
    for (records, local) in per_worker {
        for record in records {
            metrics.push(record?);
        }
        bins.merge(&local);
    }
    metrics.sort_by_key(|m| m.id);
    Ok((metrics, bins.finish(config)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_trace::{IoRequest, TimeDelta};

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
        analyze_trace(&trace, &AnalysisConfig::default(), 0)
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
        let metrics = analyze_trace(&trace, &AnalysisConfig::default(), 0).expect("valid config");
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
    fn carries_keep_counts_exact_across_the_u32_boundary() {
        let mut carries = Carries::default();
        // Slot 0 read: up to 2^32 - 1 without a carry, onto 2^32, then
        // across it a second time. Slot 2 write: 2^32 - 1 twice, the
        // largest sum one add can make. Slot 1: untouched.
        let mut lows = [[0u32; 2]; 3];
        carries.add(&mut lows[0][0], u32::MAX, 0, OpKind::Read);
        carries.add(&mut lows[2][1], u32::MAX, 2, OpKind::Write);
        assert_eq!(lows[0][0], u32::MAX);
        assert!(carries.0.is_empty());
        carries.add(&mut lows[0][0], 1, 0, OpKind::Read);
        assert_eq!(lows[0][0], 0);
        carries.add(&mut lows[2][1], u32::MAX, 2, OpKind::Write);
        carries.add(&mut lows[0][0], u32::MAX, 0, OpKind::Read);
        carries.add(&mut lows[0][0], 2, 0, OpKind::Read);
        carries.add(&mut lows[0][1], 7, 0, OpKind::Write);
        let wide: Vec<[u64; 2]> = carries.widen(lows.into_iter()).collect();
        assert_eq!(
            wide,
            [
                [(1 << 32) + u64::from(u32::MAX) + 2, 7],
                [0, 0],
                [0, 2 * u64::from(u32::MAX)],
            ]
        );
    }

    #[test]
    fn top_shares_select_what_a_sort_would() {
        let traffic: Vec<u64> = (0..1000u64).map(|i| i * 7919 % 1013 + i % 3).collect();
        let mut sorted = traffic.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sorted.iter().sum();
        let share = |k: usize| sorted[..k].iter().sum::<u64>() as f64 / total as f64;
        for (f1, f10, k1, k10) in [
            (0.01, 0.10, 10, 100),
            (0.10, 0.01, 100, 10),
            (0.0001, 1.0, 1, 1000),
            (0.5, 0.5, 500, 500),
        ] {
            let got = top_shares(&mut traffic.clone(), f1, f10);
            assert_eq!(got, Some((share(k1), share(k10))), "{f1} {f10}");
        }
        assert_eq!(top_shares(&mut [], 0.01, 0.1), None);
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
        let metrics = analyze_trace(&trace, &AnalysisConfig::default(), 0).expect("valid config");
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].id, VolumeId::new(1));
        assert_eq!(metrics[1].id, VolumeId::new(5));
    }

    #[test]
    fn empty_trace_yields_no_metrics() {
        let metrics =
            analyze_trace(&Trace::new(), &AnalysisConfig::default(), 0).expect("valid config");
        assert!(metrics.is_empty());
    }

    #[test]
    fn empty_trace() {
        let out = analyze_trace(&Trace::new(), &AnalysisConfig::default(), 4).unwrap();
        assert!(out.is_empty());
    }

    /// `volumes` volumes of `per_volume` requests each, at per-volume
    /// rates so the volumes differ.
    fn sample_trace(volumes: u32, per_volume: u64) -> Trace {
        let mut reqs = Vec::new();
        for v in 0..volumes {
            for i in 0..per_volume {
                reqs.push(IoRequest::new(
                    VolumeId::new(v),
                    if (i + u64::from(v)) % 3 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    (i % 50) * 4096,
                    4096,
                    Timestamp::from_secs(i * (u64::from(v) + 1)),
                ));
            }
        }
        Trace::from_requests(reqs)
    }

    #[test]
    fn parallel_matches_sequential() {
        let trace = sample_trace(8, 200);
        let config = AnalysisConfig::default();
        let inline = analyze_trace(&trace, &config, 0).expect("valid config");
        let threaded = analyze_trace(&trace, &config, 4).expect("valid config");
        assert_eq!(inline.len(), 8);
        assert_eq!(threaded, inline);
    }

    #[test]
    fn more_threads_than_volumes() {
        let trace = sample_trace(2, 10);
        let out = analyze_trace(&trace, &AnalysisConfig::default(), 16).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn zero_threads_runs_inline() {
        let trace = sample_trace(2, 5);
        let out = analyze_trace(&trace, &AnalysisConfig::default(), 0).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        // `usize::MAX` would overflow the window reservation in
        // `VolumeAnalyzer::new` if validation let it through.
        for window in [0, usize::MAX] {
            let config = AnalysisConfig {
                randomness_window: window,
                ..AnalysisConfig::default()
            };
            for threads in [0, 4] {
                let err = analyze_trace(&sample_trace(2, 5), &config, threads).unwrap_err();
                assert!(err.message().contains("randomness_window"));
            }
            let err = VolumeAnalyzer::new(VolumeId::new(0), Timestamp::ZERO, config).unwrap_err();
            assert!(err.message().contains("randomness_window"));
        }
    }

    /// A worker panic must resurface on the caller — never a partial
    /// corpus — at any worker count, including the inline run, whether
    /// the source panics or the analysis refuses what it yields.
    #[test]
    fn worker_panic_poisons_the_partitioned_run() {
        let trace = sample_trace(4, 50);
        let views: Vec<_> = trace.volumes().collect();
        let epoch = trace.start().unwrap();
        let config = AnalysisConfig::default();
        // Volume 2's requests out of time order.
        let mut reversed = views[2].requests().to_vec();
        reversed.reverse();
        for threads in [0usize, 1, 3] {
            let panicking_source = std::panic::catch_unwind(|| {
                analyze_volumes(views.len(), epoch, &config, threads, |i| {
                    assert_ne!(i, 2, "injected source fault");
                    views[i].requests()
                })
            });
            let panicking_analysis = std::panic::catch_unwind(|| {
                analyze_volumes(views.len(), epoch, &config, threads, |i| {
                    if i == 2 {
                        &reversed[..]
                    } else {
                        views[i].requests()
                    }
                })
            });
            for (fault, result) in [
                ("source", panicking_source.is_err()),
                ("analysis", panicking_analysis.is_err()),
            ] {
                assert!(
                    result,
                    "threads={threads}: a panicking {fault} returned a partial analysis"
                );
            }
        }
    }

    /// The driver's source may yield empty volumes: they give no record
    /// and no Table II count, and a source with no request at all gives
    /// no metrics and no Table II.
    #[test]
    fn empty_volumes_in_the_source_contribute_nothing() {
        let trace = sample_trace(2, 20);
        let views: Vec<_> = trace.volumes().collect();
        let epoch = trace.start().unwrap();
        let config = AnalysisConfig::default();
        let whole = (
            analyze_trace(&trace, &config, 0).unwrap(),
            OverallIntensity::from_trace(&trace, &config),
        );
        for threads in [0, 2] {
            let gappy = analyze_volumes(4, epoch, &config, threads, |i| match i {
                0 => views[0].requests(),
                2 => views[1].requests(),
                _ => &[],
            })
            .unwrap();
            assert_eq!(gappy, whole, "threads={threads}");
            for volumes in [0, 3] {
                let none = analyze_volumes(volumes, epoch, &config, threads, |_| Vec::new());
                assert_eq!(none.unwrap(), (Vec::new(), None), "threads={threads}");
            }
        }
    }

    #[test]
    fn randomness_threshold_is_inclusive() {
        // The first request (empty window) is random; the second is
        // random iff it lies more than `t` bytes from the first, on
        // either side.
        let t = AnalysisConfig::default().randomness_threshold;
        let base = 1u64 << 30;
        let randoms = |second: u64| {
            analyze(vec![
                req(OpKind::Read, base, 512, 0),
                req(OpKind::Read, second, 512, 1),
            ])
            .random_requests
        };
        assert_eq!(randoms(base + t), 1);
        assert_eq!(randoms(base - t), 1);
        assert_eq!(randoms(base + t + 1), 2);
        assert_eq!(randoms(base - t - 1), 2);

        // Nothing is farther than `u64::MAX` away — not even the first
        // request, whose window is empty.
        let config = AnalysisConfig {
            randomness_threshold: u64::MAX,
            ..AnalysisConfig::default()
        };
        let trace = Trace::from_requests(vec![
            req(OpKind::Read, 0, 512, 0),
            req(OpKind::Write, u64::MAX - 512, 512, 1),
            req(OpKind::Read, base, 512, 2),
        ]);
        let m = &analyze_trace(&trace, &config, 0).expect("valid config")[0];
        assert_eq!(m.random_requests, 0);
    }

    #[test]
    fn analyze_volume_is_independent_of_run_boundaries() {
        // An irregular single-volume stream exercising every metric:
        // repeats, multi-block requests, far jumps, dense + sparse time.
        let irregular = |i: u64| {
            let op = if i % 3 == 0 {
                OpKind::Read
            } else {
                OpKind::Write
            };
            let offset = (i * i * 7 + i * 13) % 300 * 4096 + (i % 5) * 100;
            let len = 512 * ((i % 17) as u32 + 1);
            req_at(op, offset, len, i * 1100 + i * 37 % 1000)
        };
        // One short of a run, one run, one over, two runs and one over.
        for n in [VIEW_RUN - 1, VIEW_RUN, VIEW_RUN + 1, 2 * VIEW_RUN + 1] {
            let reqs: Vec<IoRequest> = (0..n as u64).map(irregular).collect();
            let trace = Trace::from_requests(reqs.clone());
            let view = trace.volume(VolumeId::new(0)).expect("one volume");
            let (epoch, config) = (reqs[0].ts(), AnalysisConfig::default());
            let by_runs = VolumeAnalyzer::analyze_volume(view, epoch, &config).expect("valid");
            let mut whole = VolumeAnalyzer::new(VolumeId::new(0), epoch, config).expect("valid");
            whole.observe_batch(&RequestBatch::from(reqs.as_slice()), 0..n);
            assert_eq!(by_runs, whole.finish(), "n={n}");
        }
    }

    #[test]
    fn sparse_and_hostile_ids_keep_one_state_per_block() {
        // One single-block request per 16-block chunk, spread over 2^40
        // blocks, plus the last blocks of the address space (the very
        // last one reached by a request clamped at 2^64), each touched
        // twice and once more out of order.
        let stride = (1u64 << 40) / 500;
        let mut offsets: Vec<u64> = (0..500u64).map(|k| (k * stride + k % 16) * 4096).collect();
        offsets.extend([
            u64::MAX - 10,
            u64::MAX - 4096 - 100,
            u64::MAX - 40 * 4096 - 100,
        ]);
        let n = offsets.len();
        let mut reqs: Vec<IoRequest> = Vec::new();
        for round in 0..3u64 {
            for (i, &offset) in offsets.iter().enumerate() {
                let op = if (i as u64 + round) % 3 == 0 {
                    OpKind::Read
                } else {
                    OpKind::Write
                };
                let at = round * n as u64 + if round == 2 { n - 1 - i } else { i } as u64;
                reqs.push(req_at(op, offset, 50, at));
            }
        }
        reqs.sort_by_key(|r| r.ts());
        let config = AnalysisConfig::default();
        let batch = RequestBatch::from(reqs.as_slice());
        let mut whole =
            VolumeAnalyzer::new(VolumeId::new(0), Timestamp::ZERO, config.clone()).expect("valid");
        whole.observe_batch(&batch, 0..batch.len());
        assert_eq!(whole.states.len(), n, "one state per touched block");
        assert_eq!(whole.numbers.len(), n);
        let mut one_by_one =
            VolumeAnalyzer::new(VolumeId::new(0), Timestamp::ZERO, config).expect("valid");
        for i in 0..batch.len() {
            one_by_one.observe_batch(&batch, i..i + 1);
        }
        assert_eq!(one_by_one.states.len(), n);
        let m = whole.finish();
        assert_eq!(m.wss_blocks, n as u64);
        assert_eq!(
            m.read_mrc.total_accesses() + m.write_mrc.total_accesses(),
            3 * n as u64
        );
        assert_eq!(m, one_by_one.finish());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "timestamp order")]
    fn run_older_than_the_last_panics_in_debug_builds() {
        let mut a =
            VolumeAnalyzer::new(VolumeId::new(0), Timestamp::ZERO, AnalysisConfig::default())
                .expect("valid config");
        a.observe_batch(
            &RequestBatch::from(&[req(OpKind::Read, 0, 512, 5)][..]),
            0..1,
        );
        a.observe_batch(
            &RequestBatch::from(&[req(OpKind::Read, 0, 512, 4)][..]),
            0..1,
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "another volume")]
    fn request_of_another_volume_panics_in_debug_builds() {
        let mut a =
            VolumeAnalyzer::new(VolumeId::new(1), Timestamp::ZERO, AnalysisConfig::default())
                .expect("valid config");
        a.observe_batch(
            &RequestBatch::from(&[req(OpKind::Read, 0, 512, 5)][..]),
            0..1,
        );
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
