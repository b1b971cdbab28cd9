//! Chunked parallel trace decoding.
//!
//! [`ParallelDecoder`] splits an input stream on newline boundaries into
//! large chunks, parses the chunks on worker threads, and re-emits
//! decoded batches **in input order** through a caller-supplied sink.
//!
//! A worker walks its chunk once (`parse_chunk`, the one chunk loop
//! behind all four `decode_*` entry points). At each line it first tries
//! the dialect's row scanner (`alicloud::row_at`, `msrc::row_at`), which
//! reads a canonical row and the newline that ends it in place off the
//! chunk and appends it straight to the record container. A line the
//! scanner refuses — padded, spelled another way, blank, the MSRC
//! header, malformed — is cut at its newline, trimmed and decided by the
//! general parser ([`alicloud::parse_record_bytes`],
//! [`msrc::parse_record_bytes`]), the only producer of errors (see the
//! soundness rule in the [codec docs](super)).
//! [`DecodeStats::general_path_lines`] counts those rows, so a corpus
//! that runs at the general parser's speed says so. The pipeline is
//!
//! ```text
//! feeder thread          N worker threads            calling thread
//! ┌──────────────┐  work  ┌──────────────┐  results  ┌─────────────┐
//! │ read blocks, │ ─────► │ parse chunk  │ ────────► │ reorder by  │
//! │ cut at '\n'  │ (seq,  │ (bytes → T)  │ (seq, out)│ seq, remap, │
//! │ boundaries   │ bytes) │              │           │ sink(batch) │
//! └──────────────┘        └──────────────┘           └─────────────┘
//! ```
//!
//! All channels are bounded, so peak memory is
//! `O(threads × chunk_size)` regardless of input length, and a slow sink
//! backpressures the whole pipeline.
//!
//! Error semantics match the sequential readers exactly: every record on
//! a line before the first malformed line is delivered to the sink, then
//! decoding stops and the error is returned carrying the one-based line
//! number of the offending row. I/O errors from the underlying reader
//! surface after all complete chunks read before the failure have been
//! decoded and delivered.
//!
//! The feeder is a thread of its own on purpose: its 1 MiB read,
//! zero-fill and carry copy would otherwise land on the parser, the
//! stage that binds (DESIGN.md §9 has the variants without it).
//!
//! MSRC volume identity is kept deterministic: a worker interns scanned
//! and general-path rows alike, in row order, into one chunk-local
//! [`VolumeRegistry`], and the in-order consumer remaps its names into
//! the shared global registry, so ids are assigned in first-appearance
//! input order — byte-identical to a sequential read.

use std::collections::BTreeMap;
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;

use cbs_obs::{Counter, Gauge, Registry};

use crate::error::{ParseRecordError, TraceError};
use crate::{IoRequest, RequestBatch, VolumeId};

use super::msrc::{MsrcRecord, VolumeRegistry};
use super::{alicloud, msrc, trim_ascii};

/// Default chunk size handed to each worker (1 MiB of input text).
pub const DEFAULT_CHUNK_SIZE: usize = 1 << 20;

/// Counters describing one decode run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Records delivered to the sink.
    pub records: u64,
    /// Input lines consumed (blank lines and the MSRC header included).
    pub lines: u64,
    /// Input bytes consumed.
    pub bytes: u64,
    /// Chunks dispatched to workers.
    pub chunks: u64,
    /// Rows the row scanner refused and the general parser decided
    /// (blank lines and the MSRC header are not rows): 0 on a canonical
    /// file, near `records` on a padded one decoding at half speed.
    pub general_path_lines: u64,
}

/// Chunked, multi-threaded decoder for the supported CSV dialects.
///
/// Construction is cheap; the decoder holds only configuration. Threads
/// are scoped per call — nothing outlives a `decode_*` invocation.
///
/// # Example
///
/// ```
/// use cbs_trace::codec::parallel::ParallelDecoder;
///
/// let text = "419,W,0,4096,10\n725,R,4096,512,20\n";
/// let decoder = ParallelDecoder::new().with_threads(2);
/// let reqs = decoder.decode_alicloud_slice(text.as_bytes()).unwrap();
/// assert_eq!(reqs.len(), 2);
/// assert_eq!(reqs[0].volume().get(), 419); // input order is preserved
/// ```
#[derive(Debug, Clone)]
pub struct ParallelDecoder {
    threads: usize,
    chunk_size: usize,
    metrics: Option<DecodeMetrics>,
}

/// Registry handles the in-order consumer's [`Ledger`] updates per
/// chunk (see [`ParallelDecoder::with_registry`]).
#[derive(Debug, Clone)]
struct DecodeMetrics {
    records: Counter,
    lines: Counter,
    bytes: Counter,
    chunks: Counter,
    general_path_lines: Counter,
    malformed_line: Gauge,
}

impl DecodeMetrics {
    fn new(registry: &Registry) -> Self {
        DecodeMetrics {
            records: registry.counter("decode.records"),
            lines: registry.counter("decode.lines"),
            bytes: registry.counter("decode.bytes"),
            chunks: registry.counter("decode.chunks"),
            general_path_lines: registry.counter("decode.general_path_lines"),
            malformed_line: registry.gauge("decode.malformed_line"),
        }
    }
}

impl Default for ParallelDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ParallelDecoder {
    /// Creates a decoder using every available core and the default
    /// chunk size.
    pub fn new() -> Self {
        ParallelDecoder {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            chunk_size: DEFAULT_CHUNK_SIZE,
            metrics: None,
        }
    }

    /// Publishes decode metrics into `registry`: live `decode.records`,
    /// `decode.lines`, `decode.bytes`, `decode.chunks` and
    /// `decode.general_path_lines` counters (mirroring the final
    /// [`DecodeStats`], but readable from another thread mid-run), plus
    /// a `decode.malformed_line` gauge holding the
    /// one-based line number that stopped a decode (`0` = none).
    /// Updates happen once per in-order chunk (~1 MiB of input), so the
    /// cost is unmeasurable.
    #[must_use]
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.metrics = Some(DecodeMetrics::new(registry));
        self
    }

    /// Sets the number of parser worker threads (min 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the target chunk size in bytes (min 4 KiB). Lines longer
    /// than the chunk size are still handled — a chunk grows until it
    /// contains at least one newline.
    #[must_use]
    pub fn with_chunk_size(mut self, bytes: usize) -> Self {
        self.chunk_size = bytes.max(4096);
        self
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Decodes AliCloud CSV from `input`, delivering batches of parsed
    /// requests to `sink` in input order.
    ///
    /// # Errors
    ///
    /// The first parse error in input order (records on earlier lines
    /// are still delivered first), or the reader's I/O error.
    pub fn decode_alicloud<R, F>(&self, input: R, mut sink: F) -> Result<DecodeStats, TraceError>
    where
        R: Read + Send,
        F: FnMut(Vec<IoRequest>),
    {
        let mut ledger = Ledger::new(&self.metrics);
        run_pipeline(
            self.threads,
            ReaderChunks::new(input, self.chunk_size),
            |chunk, _seq| {
                parse_alicloud_chunk(chunk, Vec::with_capacity(line_count(chunk)), Vec::push)
            },
            |out| ledger.book(out, &mut sink),
        )?;
        Ok(ledger.stats)
    }

    /// Convenience wrapper: decodes an in-memory AliCloud CSV buffer
    /// into a flat `Vec` (still chunked and parsed in parallel).
    ///
    /// # Errors
    ///
    /// See [`ParallelDecoder::decode_alicloud`].
    pub fn decode_alicloud_slice(&self, bytes: &[u8]) -> Result<Vec<IoRequest>, TraceError> {
        let mut out = Vec::new();
        self.decode_alicloud(bytes, |batch| out.extend(batch))?;
        Ok(out)
    }

    /// Like [`decode_alicloud`](Self::decode_alicloud) but delivers
    /// columnar [`RequestBatch`]es: workers parse straight into
    /// struct-of-arrays columns, so the batches can be handed to the
    /// batched analysis kernels or a CBT writer without transposing.
    ///
    /// # Errors
    ///
    /// See [`ParallelDecoder::decode_alicloud`].
    pub fn decode_alicloud_batches<R, F>(
        &self,
        input: R,
        mut sink: F,
    ) -> Result<DecodeStats, TraceError>
    where
        R: Read + Send,
        F: FnMut(RequestBatch),
    {
        let mut ledger = Ledger::new(&self.metrics);
        run_pipeline(
            self.threads,
            ReaderChunks::new(input, self.chunk_size),
            |chunk, _seq| {
                let records = RequestBatch::with_capacity(line_count(chunk));
                parse_alicloud_chunk(chunk, records, |records, req| records.push(&req))
            },
            |out| ledger.book(out, &mut sink),
        )?;
        Ok(ledger.stats)
    }

    /// Decodes MSRC CSV from `input`, delivering batches of parsed
    /// records to `sink` in input order. Volume ids are resolved through
    /// `registry` in first-appearance input order, exactly as a
    /// sequential [`super::msrc::MsrcReader`] would assign them.
    ///
    /// # Errors
    ///
    /// The first parse error in input order (records on earlier lines
    /// are still delivered first), or the reader's I/O error.
    pub fn decode_msrc<R, F>(
        &self,
        input: R,
        registry: &mut VolumeRegistry,
        mut sink: F,
    ) -> Result<DecodeStats, TraceError>
    where
        R: Read + Send,
        F: FnMut(Vec<MsrcRecord>),
    {
        let mut ledger = Ledger::new(&self.metrics);
        run_pipeline(
            self.threads,
            ReaderChunks::new(input, self.chunk_size),
            |chunk, seq| {
                let records = Vec::with_capacity(line_count(chunk));
                parse_msrc_chunk(chunk, seq == 0, records, Vec::push)
            },
            |mut out| {
                let global = resolve_names(registry, &out.names);
                for rec in &mut out.records {
                    rec.remap_volume(global[rec.request().volume().as_usize()]);
                }
                ledger.book(out, &mut sink)
            },
        )?;
        Ok(ledger.stats)
    }

    /// Like [`decode_msrc`](Self::decode_msrc) but delivers columnar
    /// [`RequestBatch`]es (request fields only — the MSRC response-time
    /// column is dropped, exactly as the CBT trace format does).
    /// Volume ids are resolved through `registry` in first-appearance
    /// input order, identical to the record-level decoder.
    ///
    /// # Errors
    ///
    /// See [`ParallelDecoder::decode_msrc`].
    pub fn decode_msrc_batches<R, F>(
        &self,
        input: R,
        registry: &mut VolumeRegistry,
        mut sink: F,
    ) -> Result<DecodeStats, TraceError>
    where
        R: Read + Send,
        F: FnMut(RequestBatch),
    {
        let mut ledger = Ledger::new(&self.metrics);
        run_pipeline(
            self.threads,
            ReaderChunks::new(input, self.chunk_size),
            |chunk, seq| {
                let records = RequestBatch::with_capacity(line_count(chunk));
                parse_msrc_chunk(chunk, seq == 0, records, |records, rec| {
                    records.push(rec.request())
                })
            },
            |mut out| {
                let global = resolve_names(registry, &out.names);
                out.records.remap_volumes(|local| global[local.as_usize()]);
                ledger.book(out, &mut sink)
            },
        )?;
        Ok(ledger.stats)
    }

    /// Convenience wrapper: decodes an in-memory MSRC CSV buffer into a
    /// flat `Vec` plus the volume registry.
    ///
    /// # Errors
    ///
    /// See [`ParallelDecoder::decode_msrc`].
    pub fn decode_msrc_slice(
        &self,
        bytes: &[u8],
    ) -> Result<(Vec<MsrcRecord>, VolumeRegistry), TraceError> {
        let mut registry = VolumeRegistry::new();
        let mut out = Vec::new();
        self.decode_msrc(bytes, &mut registry, |batch| out.extend(batch))?;
        Ok((out, registry))
    }
}

// --- chunk parsing --------------------------------------------------------

/// What a worker made of one chunk; `R` is the record container
/// (`Vec<IoRequest>`, `Vec<MsrcRecord>` or a [`RequestBatch`]).
struct ChunkOut<R> {
    /// The `count` records before the first malformed line. MSRC
    /// volume ids are **chunk-local**; the in-order consumer remaps
    /// them to global registry ids.
    records: R,
    count: u64,
    /// MSRC only: chunk-local registry names in local-id order.
    names: Vec<String>,
    lines: u64,
    bytes: u64,
    /// Of `count` (plus the malformed line), the rows the scanner refused.
    general_path_lines: u64,
    /// The first malformed line (one-based within the chunk).
    error: Option<(u64, ParseRecordError)>,
}

/// Lines in `chunk` as the chunk loop (and `BufRead::lines`) counts
/// them: a record container reserved to it never grows, and is too large
/// only by the chunk's blank lines.
fn line_count(chunk: &[u8]) -> usize {
    // Summed in `u8` lanes, 255 bytes at a time: that compiles to
    // byte-wide vector compares; `filter().count()` ran 13 times slower,
    // a quarter of the parse.
    let newlines = chunk.chunks(255).map(|run| {
        let hits: u8 = run.iter().map(|&b| u8::from(b == b'\n')).sum();
        usize::from(hits)
    });
    let unterminated = chunk.last().is_some_and(|&b| b != b'\n');
    newlines.sum::<usize>() + usize::from(unterminated)
}

/// The chunk loop every dialect and container share. One iteration is
/// one line, counted whatever it holds: `row_at` reads a canonical row
/// and its line end in place; a line it refuses is cut at its `\n`,
/// trimmed, skipped if blank and otherwise decided by `parse_line`
/// (`Ok(None)`: the header), whose first error ends the chunk. Both
/// intern into `state` (the MSRC chunk-local registry).
fn parse_chunk<R, T, S>(
    chunk: &[u8],
    state: &mut S,
    records: R,
    row_at: impl Fn(&[u8], &mut usize, &mut S) -> Option<T>,
    parse_line: impl Fn(u64, &[u8], &mut S) -> Result<Option<T>, ParseRecordError>,
    push: impl Fn(&mut R, T),
) -> ChunkOut<R> {
    let mut out = ChunkOut {
        records,
        count: 0,
        names: Vec::new(),
        lines: 0,
        bytes: chunk.len() as u64,
        general_path_lines: 0,
        error: None,
    };
    let mut pos = 0;
    while pos < chunk.len() {
        out.lines += 1;
        let mut next = pos;
        if let Some(row) = row_at(chunk, &mut next, state) {
            push(&mut out.records, row);
            out.count += 1;
            pos = next;
            continue;
        }
        let rest = &chunk[pos..];
        let end = rest.iter().position(|&b| b == b'\n');
        let line = trim_ascii(&rest[..end.unwrap_or(rest.len())]);
        pos += end.map_or(rest.len(), |end| end + 1);
        if line.is_empty() {
            continue;
        }
        match parse_line(out.lines, line, state) {
            Ok(None) => {}
            Ok(Some(row)) => {
                push(&mut out.records, row);
                out.count += 1;
                out.general_path_lines += 1;
            }
            Err(e) => {
                out.general_path_lines += 1;
                out.error = Some((out.lines, e));
                break;
            }
        }
    }
    out
}

fn parse_alicloud_chunk<R>(
    chunk: &[u8],
    records: R,
    push: impl Fn(&mut R, IoRequest),
) -> ChunkOut<R> {
    parse_chunk(
        chunk,
        &mut (),
        records,
        |chunk, pos, ()| alicloud::row_at(chunk, pos),
        |_, line, ()| alicloud::parse_record_bytes(line).map(Some),
        push,
    )
}

fn parse_msrc_chunk<R>(
    chunk: &[u8],
    is_first_chunk: bool,
    records: R,
    push: impl Fn(&mut R, MsrcRecord),
) -> ChunkOut<R> {
    let mut local = VolumeRegistry::new();
    let mut out = parse_chunk(
        chunk,
        &mut local,
        records,
        msrc::row_at,
        |line_no, line, local| {
            if is_first_chunk && line_no == 1 && line.starts_with(b"Timestamp,") {
                return Ok(None); // header
            }
            msrc::parse_record_bytes(line, local).map(Some)
        },
        push,
    );
    out.names = local.iter().map(|(_, name)| name.to_owned()).collect();
    out
}

/// Chunk-local id k maps to the global id of the k-th first-seen name
/// in the chunk.
fn resolve_names(registry: &mut VolumeRegistry, names: &[String]) -> Vec<VolumeId> {
    names
        .iter()
        .map(|name| registry.resolve_name(name))
        .collect()
}

/// The in-order consumer's books: run totals, the line number the next
/// chunk starts after, and the live registry mirror.
struct Ledger<'a> {
    stats: DecodeStats,
    lines_before: u64,
    metrics: &'a Option<DecodeMetrics>,
}

impl<'a> Ledger<'a> {
    fn new(metrics: &'a Option<DecodeMetrics>) -> Self {
        Ledger {
            stats: DecodeStats::default(),
            lines_before: 0,
            metrics,
        }
    }

    /// Books one in-order chunk: delivers its records (if any) to
    /// `sink`, then reports its malformed line, if it had one, under
    /// its one-based line number in the whole input.
    fn book<R>(&mut self, out: ChunkOut<R>, sink: &mut impl FnMut(R)) -> Result<(), TraceError> {
        self.stats.chunks += 1;
        self.stats.bytes += out.bytes;
        self.stats.records += out.count;
        self.stats.general_path_lines += out.general_path_lines;
        if out.count > 0 {
            sink(out.records);
        }
        let base = self.lines_before;
        self.lines_before += out.lines;
        let consumed_lines = out.error.as_ref().map_or(out.lines, |(rel, _)| *rel);
        self.stats.lines += consumed_lines;
        if let Some(m) = self.metrics {
            m.chunks.inc();
            m.bytes.add(out.bytes);
            m.records.add(out.count);
            m.lines.add(consumed_lines);
            m.general_path_lines.add(out.general_path_lines);
        }
        match out.error {
            None => Ok(()),
            Some((rel, e)) => {
                if let Some(m) = self.metrics {
                    m.malformed_line.set(base + rel);
                }
                Err(TraceError::parse(base + rel, e))
            }
        }
    }
}

// --- pipeline engine ------------------------------------------------------

/// Reads `R` in `chunk_size` blocks and yields chunks that end on a
/// newline boundary (except possibly the last).
struct ReaderChunks<R> {
    input: R,
    chunk_size: usize,
    carry: Vec<u8>,
    done: bool,
}

impl<R: Read> ReaderChunks<R> {
    fn new(input: R, chunk_size: usize) -> Self {
        ReaderChunks {
            input,
            chunk_size,
            carry: Vec::new(),
            done: false,
        }
    }

    /// Reads until `buf` grew by `want` bytes or EOF; returns bytes read.
    fn read_block(&mut self, buf: &mut Vec<u8>, want: usize) -> std::io::Result<usize> {
        let start = buf.len();
        buf.resize(start + want, 0);
        let mut filled = 0;
        while filled < want {
            match self.input.read(&mut buf[start + filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    buf.truncate(start + filled);
                    return Err(e);
                }
            }
        }
        buf.truncate(start + filled);
        Ok(filled)
    }
}

impl<R: Read> Iterator for ReaderChunks<R> {
    type Item = std::io::Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut buf = std::mem::take(&mut self.carry);
        loop {
            match self.read_block(&mut buf, self.chunk_size) {
                Ok(0) => {
                    // EOF: the remainder (no trailing newline) is the
                    // final chunk.
                    self.done = true;
                    return if buf.is_empty() { None } else { Some(Ok(buf)) };
                }
                Ok(_) => match buf.iter().rposition(|&b| b == b'\n') {
                    Some(pos) => {
                        self.carry = buf.split_off(pos + 1);
                        return Some(Ok(buf));
                    }
                    // No newline yet (line longer than chunk_size):
                    // keep growing the block.
                    None => continue,
                },
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Runs the feeder → workers → in-order consumer pipeline over `chunks`.
///
/// `worker` parses one chunk (called on worker threads); `consume` sees
/// each worker output exactly once, in input order, on the calling
/// thread. A `consume` error aborts the pipeline promptly: the feeder
/// stops producing, in-flight results are drained and discarded, and
/// the first in-order error is returned.
fn run_pipeline<C, I, P, W, F>(
    threads: usize,
    chunks: I,
    worker: W,
    mut consume: F,
) -> Result<(), TraceError>
where
    C: AsRef<[u8]> + Send,
    I: Iterator<Item = std::io::Result<C>> + Send,
    P: Send,
    W: Fn(&[u8], u64) -> P + Sync,
    F: FnMut(P) -> Result<(), TraceError>,
{
    let abort = AtomicBool::new(false);
    let (work_tx, work_rx) = sync_channel::<(u64, C)>(threads * 2);
    let work_rx = Mutex::new(work_rx);
    let (result_tx, result_rx) = sync_channel::<(u64, P)>(threads * 2);

    std::thread::scope(|scope| {
        // Feeder: pull chunks, stamp sequence numbers, stop on abort.
        let feeder = scope.spawn({
            let abort = &abort;
            move || -> Option<std::io::Error> {
                let mut chunks = chunks;
                let mut seq = 0u64;
                loop {
                    // ORDERING: abort is an advisory stop flag; Relaxed
                    // suffices because the error itself travels through
                    // `failure`/join, not through this load, and a late
                    // observation only feeds a few extra chunks.
                    if abort.load(Ordering::Relaxed) {
                        return None;
                    }
                    match chunks.next() {
                        Some(Ok(chunk)) => {
                            if work_tx.send((seq, chunk)).is_err() {
                                return None;
                            }
                            seq += 1;
                        }
                        Some(Err(e)) => return Some(e),
                        None => return None,
                    }
                }
                // work_tx drops here, closing the work channel.
            }
        });

        for _ in 0..threads {
            let result_tx = result_tx.clone();
            let work_rx = &work_rx;
            let worker = &worker;
            scope.spawn(move || {
                loop {
                    // Hold the lock only to dequeue; parsing runs unlocked.
                    // A poisoned lock means a sibling worker panicked:
                    // stop pulling work and let the join surface it.
                    let Ok(guard) = work_rx.lock() else { break };
                    let item = guard.recv();
                    drop(guard);
                    let Ok((seq, chunk)) = item else { break };
                    let out = worker(chunk.as_ref(), seq);
                    if result_tx.send((seq, out)).is_err() {
                        break;
                    }
                }
            });
        }
        // The consumer must observe channel close when workers finish.
        drop(result_tx);

        // Consumer (this thread): restore input order, feed the sink.
        let mut failure: Option<TraceError> = None;
        let mut pending: BTreeMap<u64, P> = BTreeMap::new();
        let mut next_seq = 0u64;
        for (seq, out) in result_rx {
            if failure.is_some() {
                continue; // drain so the pipeline can unwind
            }
            pending.insert(seq, out);
            while let Some(out) = pending.remove(&next_seq) {
                next_seq += 1;
                if let Err(e) = consume(out) {
                    // ORDERING: Relaxed store pairs with the feeder's
                    // advisory Relaxed load above; shutdown correctness
                    // rests on channel close + join, not this flag.
                    abort.store(true, Ordering::Relaxed);
                    pending.clear();
                    failure = Some(e);
                    break;
                }
            }
        }

        let io_failure = match feeder.join() {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        match (failure, io_failure) {
            // A parse error always precedes (in input order) anything
            // the feeder failed on later.
            (Some(e), _) => Err(e),
            (None, Some(io)) => Err(TraceError::Io(io)),
            (None, None) => Ok(()),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::super::alicloud::{AliCloudReader, AliCloudWriter};
    use super::super::msrc::MsrcReader;
    use super::*;
    use crate::{OpKind, Timestamp, VolumeId};

    fn sample_csv(rows: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = AliCloudWriter::new(&mut buf);
        for i in 0..rows {
            let req = IoRequest::new(
                VolumeId::new((i % 13) as u32),
                if i % 3 == 0 {
                    OpKind::Read
                } else {
                    OpKind::Write
                },
                (i as u64 % 50) * 4096,
                4096 + (i as u32 % 4) * 512,
                Timestamp::from_micros(i as u64 * 100),
            );
            w.write_request(&req).unwrap();
        }
        buf
    }

    #[test]
    fn matches_sequential_reader() {
        let csv = sample_csv(10_000);
        let sequential: Vec<IoRequest> = AliCloudReader::new(&csv[..])
            .collect::<Result<_, _>>()
            .unwrap();
        for threads in [1, 2, 4] {
            let decoder = ParallelDecoder::new()
                .with_threads(threads)
                .with_chunk_size(4096);
            let parallel = decoder.decode_alicloud_slice(&csv).unwrap();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn batches_arrive_in_order_with_stats() {
        let csv = sample_csv(5_000);
        let decoder = ParallelDecoder::new().with_threads(4).with_chunk_size(4096);
        let mut collected = Vec::new();
        let stats = decoder
            .decode_alicloud(&csv[..], |batch| collected.extend(batch))
            .unwrap();
        assert_eq!(stats.records, 5_000);
        assert_eq!(stats.lines, 5_000);
        assert_eq!(stats.bytes, csv.len() as u64);
        assert!(stats.chunks > 1, "{stats:?}");
        let ts: Vec<_> = collected.iter().map(|r| r.ts()).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted, "input order preserved");
    }

    #[test]
    fn error_line_numbers_match_sequential() {
        let mut csv = sample_csv(1_000);
        // Corrupt one row in the middle.
        let text = String::from_utf8(csv.clone()).unwrap();
        let byte_of_line_500: usize = text.lines().take(499).map(|l| l.len() + 1).sum();
        csv.splice(byte_of_line_500..byte_of_line_500, *b"bogus,");

        let seq_err = AliCloudReader::new(&csv[..])
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        let decoder = ParallelDecoder::new().with_threads(4).with_chunk_size(4096);
        let mut delivered = 0usize;
        let par_err = decoder
            .decode_alicloud(&csv[..], |batch| delivered += batch.len())
            .unwrap_err();
        assert_eq!(par_err.line(), seq_err.line());
        assert_eq!(par_err.line(), Some(500));
        // Every record before the bad line was delivered.
        assert_eq!(delivered, 499);
    }

    #[test]
    fn blank_lines_and_missing_trailing_newline() {
        let text = "419,W,0,4096,10\n\n  \n725,R,4096,512,20";
        let decoder = ParallelDecoder::new().with_threads(2);
        let reqs = decoder.decode_alicloud_slice(text.as_bytes()).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[1].volume(), VolumeId::new(725));
    }

    #[test]
    fn empty_input() {
        let decoder = ParallelDecoder::new();
        let stats = decoder.decode_alicloud(&b""[..], |_| {}).unwrap();
        assert_eq!(stats, DecodeStats::default());
    }

    #[test]
    fn long_lines_grow_chunks() {
        // A comment-free format has no long lines, but a chunk smaller
        // than one line must still work.
        let csv = sample_csv(100);
        let decoder = ParallelDecoder::new().with_threads(2).with_chunk_size(4096);
        // with_chunk_size clamps at 4 KiB; craft a single line longer
        // than that.
        let mut big = vec![b' '; 8192];
        big.extend_from_slice(b"419,W,0,4096,10\n");
        big.extend_from_slice(&csv);
        let reqs = decoder.decode_alicloud_slice(&big).unwrap();
        assert_eq!(reqs.len(), 101);
    }

    #[test]
    fn msrc_ids_match_sequential() {
        let mut buf = String::new();
        buf.push_str("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n");
        let hosts = ["src1", "hm", "proj", "web", "usr"];
        for i in 0..5_000u64 {
            let host = hosts[(i / 7 % 5) as usize];
            let disk = i % 3;
            buf.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                128_166_372_003_061_629u64 + i * 10_000,
                host,
                disk,
                if i % 4 == 0 { "Read" } else { "Write" },
                i * 4096,
                4096,
                1000 + i
            ));
        }
        let seq_reader = MsrcReader::new(buf.as_bytes());
        let mut seq_records = Vec::new();
        let mut seq_reader = seq_reader;
        for item in &mut seq_reader {
            seq_records.push(item.unwrap());
        }
        let seq_registry = seq_reader.into_registry();

        let decoder = ParallelDecoder::new().with_threads(4).with_chunk_size(4096);
        let (par_records, par_registry) = decoder.decode_msrc_slice(buf.as_bytes()).unwrap();
        assert_eq!(par_records, seq_records);
        assert_eq!(par_registry.len(), seq_registry.len());
        for (id, name) in seq_registry.iter() {
            assert_eq!(par_registry.name_of(id), Some(name));
        }
    }

    #[test]
    fn alicloud_batches_match_record_decode() {
        let csv = sample_csv(10_000);
        let sequential: Vec<IoRequest> = AliCloudReader::new(&csv[..])
            .collect::<Result<_, _>>()
            .unwrap();
        let decoder = ParallelDecoder::new().with_threads(3).with_chunk_size(4096);
        let mut columnar = Vec::new();
        let stats = decoder
            .decode_alicloud_batches(&csv[..], |batch| columnar.extend(batch.iter()))
            .unwrap();
        assert_eq!(columnar, sequential);
        assert_eq!(stats.records, 10_000);
    }

    #[test]
    fn msrc_batches_match_record_decode() {
        let mut buf = String::new();
        buf.push_str("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n");
        let hosts = ["src1", "hm", "proj"];
        for i in 0..4_000u64 {
            buf.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                128_166_372_003_061_629u64 + i * 10_000,
                hosts[(i / 11 % 3) as usize],
                i % 2,
                if i % 4 == 0 { "Read" } else { "Write" },
                i * 4096,
                4096,
                1000 + i
            ));
        }
        let decoder = ParallelDecoder::new().with_threads(4).with_chunk_size(4096);
        let (records, rec_registry) = decoder.decode_msrc_slice(buf.as_bytes()).unwrap();
        let expected: Vec<IoRequest> = records.iter().map(|r| *r.request()).collect();

        let mut batch_registry = VolumeRegistry::new();
        let mut columnar = Vec::new();
        decoder
            .decode_msrc_batches(buf.as_bytes(), &mut batch_registry, |batch| {
                columnar.extend(batch.iter())
            })
            .unwrap();
        assert_eq!(columnar, expected);
        assert_eq!(batch_registry.len(), rec_registry.len());
        for (id, name) in rec_registry.iter() {
            assert_eq!(batch_registry.name_of(id), Some(name));
        }
    }

    #[test]
    fn io_error_surfaces_after_complete_chunks() {
        struct FailAfter {
            data: Vec<u8>,
            pos: usize,
        }
        impl Read for FailAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Err(std::io::Error::other("disk on fire"));
                }
                let n = buf.len().min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let csv = sample_csv(2_000);
        let total = AliCloudReader::new(&csv[..]).count();
        let decoder = ParallelDecoder::new().with_threads(2).with_chunk_size(4096);
        let mut delivered = 0usize;
        let err = decoder
            .decode_alicloud(FailAfter { data: csv, pos: 0 }, |batch| {
                delivered += batch.len()
            })
            .unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
        // At most the final partial block (plus carry) is lost.
        assert!(delivered >= total - 250, "{delivered} of {total}");
        assert!(delivered > 0);
    }

    #[test]
    fn registry_mirrors_decode_stats() {
        let csv = sample_csv(5_000);
        let registry = cbs_obs::Registry::new();
        let decoder = ParallelDecoder::new()
            .with_threads(4)
            .with_chunk_size(4096)
            .with_registry(&registry);
        let stats = decoder.decode_alicloud(&csv[..], |_| {}).unwrap();
        assert_eq!(registry.counter("decode.records").get(), stats.records);
        assert_eq!(registry.counter("decode.lines").get(), stats.lines);
        assert_eq!(registry.counter("decode.bytes").get(), stats.bytes);
        assert_eq!(registry.counter("decode.chunks").get(), stats.chunks);
        assert_eq!(registry.gauge("decode.malformed_line").get(), 0);
    }

    #[test]
    fn registry_records_malformed_line() {
        let mut csv = sample_csv(1_000);
        let text = String::from_utf8(csv.clone()).unwrap();
        let byte_of_line_500: usize = text.lines().take(499).map(|l| l.len() + 1).sum();
        csv.splice(byte_of_line_500..byte_of_line_500, *b"bogus,");
        let registry = cbs_obs::Registry::new();
        let decoder = ParallelDecoder::new()
            .with_threads(4)
            .with_chunk_size(4096)
            .with_registry(&registry);
        let err = decoder.decode_alicloud(&csv[..], |_| {}).unwrap_err();
        assert_eq!(err.line(), Some(500));
        assert_eq!(registry.gauge("decode.malformed_line").get(), 500);
        // Only clean lines before the failure are counted.
        assert_eq!(registry.counter("decode.records").get(), 499);
    }

    #[test]
    fn lines_of_counts_like_bufread_lines() {
        // `a`/`b` stand for a row; the chunk loop counts a line whatever
        // path decides it, so each case runs once with rows the scanner
        // takes and once with rows it refuses.
        let cases: [(&str, usize); 7] = [
            ("", 0),
            ("\n", 1),
            ("a", 1),
            ("a\n", 1),
            ("a\n\nb\n", 3),
            ("a\nb", 2),
            ("a\r\n\r\nb", 3),
        ];
        for (shape, want) in cases {
            for (a, b) in [("1,R,2,3,4", "5,W,6,7,8"), (" 1,R,2,3,4", "5,w,6,7,8")] {
                let input = shape.replace('a', a).replace('b', b);
                let out = parse_alicloud_chunk(input.as_bytes(), Vec::new(), Vec::push);
                assert!(out.error.is_none(), "{input:?}");
                assert_eq!(out.lines, want as u64, "{input:?}");
                assert_eq!(out.count, shape.matches(['a', 'b']).count() as u64);
                let refused = if a.starts_with(' ') { out.count } else { 0 };
                assert_eq!(out.general_path_lines, refused, "{input:?}");
                assert_eq!(line_count(input.as_bytes()), want, "{input:?}");
                assert_eq!(
                    std::io::BufRead::lines(input.as_bytes()).count(),
                    want,
                    "BufRead {input:?}"
                );
            }
        }
    }
}
