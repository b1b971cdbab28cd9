//! The columnar binary trace format (**CBT**).
//!
//! CSV decode costs dominate re-analysis of large corpora: every run
//! re-parses the same decimal text. CBT is the "convert once, re-ingest
//! fast" answer — a compact columnar binary representation of an
//! [`IoRequest`] stream that decodes at a large multiple of CSV speed
//! and typically occupies a fraction of the CSV's bytes.
//!
//! # Layout
//!
//! A CBT stream is a 16-byte header followed by zero or more
//! self-contained *blocks*:
//!
//! ```text
//! header  := magic "CBTRACE1" (8 B) | version u16 LE | flags u16 LE | reserved u32 LE
//! block   := payload_len u32 LE | count u32 LE | crc32 u32 LE | payload
//! payload := ts_col | vol_col | op_col | off_col | len_col
//! ```
//!
//! Within a block's payload the five columns are concatenated:
//!
//! * `ts_col` — per-record timestamp **deltas** (previous record's
//!   timestamp within the block, starting from 0), zigzag + LEB128
//!   varint. Sorted traces make these tiny (1-2 bytes).
//! * `vol_col` — raw volume ids as LEB128 varints.
//! * `op_col` — one bit per record (`1` = write), packed LSB-first into
//!   `ceil(count / 8)` bytes.
//! * `off_col` — per-record offset deltas (same zigzag scheme as
//!   timestamps), so sequential runs collapse to 2-3 bytes per record.
//! * `len_col` — raw request lengths as LEB128 varints.
//!
//! Every block carries the CRC-32 (IEEE) of its payload; decoding
//! verifies it before trusting any varint, so corruption surfaces as
//! [`CbtError::ChecksumMismatch`] rather than silently-wrong metrics.
//! Truncation and structural damage surface as [`CbtError::Corrupt`]
//! with the zero-based block index.
//!
//! Deltas reset at each block boundary, so a block decodes without any
//! state from its predecessors.
//!
//! # Example
//!
//! ```
//! use cbs_trace::{CbtReader, CbtWriter, IoRequest, OpKind, Timestamp, VolumeId};
//!
//! # fn main() -> Result<(), cbs_trace::CbtError> {
//! let reqs: Vec<IoRequest> = (0..100)
//!     .map(|i| {
//!         IoRequest::new(
//!             VolumeId::new(i % 4),
//!             if i % 3 == 0 { OpKind::Read } else { OpKind::Write },
//!             u64::from(i) * 4096,
//!             4096,
//!             Timestamp::from_micros(u64::from(i) * 100),
//!         )
//!     })
//!     .collect();
//!
//! let mut writer = CbtWriter::new(Vec::new());
//! for req in &reqs {
//!     writer.write_request(req)?;
//! }
//! let encoded = writer.finish()?;
//!
//! let decoded: Vec<IoRequest> =
//!     CbtReader::new(&encoded[..]).collect::<Result<_, _>>()?;
//! assert_eq!(decoded, reqs);
//! # Ok(())
//! # }
//! ```
//!
//! [`IoRequest`]: crate::IoRequest

use std::io::{Read, Write};

use cbs_obs::{Counter, Registry, SpanTimer, Stopwatch};

use crate::batch::{RequestBatch, RequestBatchRef};
use crate::error::CbtError;
use crate::{IoRequest, OpKind, Timestamp, VolumeId};

/// The 8 magic bytes opening every CBT stream.
pub const MAGIC: [u8; 8] = *b"CBTRACE1";

/// The format version this module reads and writes.
pub const VERSION: u16 = 1;

/// Records buffered per block by default (~64 Ki).
///
/// Large enough that per-block overhead (12-byte header + delta resets)
/// is negligible, small enough that a streaming reader's working set
/// stays in cache.
pub const DEFAULT_BLOCK_CAPACITY: usize = 64 * 1024;

const HEADER_LEN: usize = 16;
const BLOCK_HEADER_LEN: usize = 12;
/// Upper bound on a block payload (256 MiB); anything larger is treated
/// as corruption rather than attempted as an allocation.
const MAX_BLOCK_PAYLOAD: u32 = 256 * 1024 * 1024;

// --- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) ---------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC_TABLES[k][b]` is the CRC state byte `b` leaves
/// behind after `k` further zero bytes — which is what lets eight
/// input bytes be folded with eight independent lookups instead of
/// eight dependent ones. 8 KiB, built at compile time.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// One byte into the (inverted) CRC state: the classic table step,
/// which slicing-by-8 keeps for the tail that does not fill a word.
#[inline]
fn crc_step(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8)
}

/// Computes the CRC-32 (IEEE) of `bytes`, as stored in CBT block
/// headers — slicing-by-8: eight bytes per step through eight tables,
/// the bytewise step for the last `len % 8`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = crc_step(c, b);
    }
    !c
}

// --- varint / zigzag ------------------------------------------------------

/// Values staged by [`put_varints`] between two appends to its output.
const VARINT_STAGE_VALUES: usize = 64;
/// The longest LEB128 encoding of a `u64`.
const MAX_VARINT_LEN: usize = 10;

/// Appends each of `values` to `out` as a LEB128 varint. Bytes are
/// staged on the stack and reach `out` one `extend_from_slice` per
/// [`VARINT_STAGE_VALUES`] values at least, so the output's capacity is
/// checked per run of values, not per byte.
#[inline]
fn put_varints(out: &mut Vec<u8>, values: impl Iterator<Item = u64>) {
    let mut stage = [0u8; VARINT_STAGE_VALUES * MAX_VARINT_LEN];
    let mut staged = 0;
    for mut v in values {
        if staged > stage.len() - MAX_VARINT_LEN {
            out.extend_from_slice(&stage[..staged]);
            staged = 0;
        }
        if v < 1 << 56 {
            // Up to eight bytes, without a branch on the length (which
            // a column of offset deltas makes unpredictable): spread the
            // 56 bits into eight 7-bit groups, one per byte — halves,
            // quarters, eighths — set the continuation bit of all but
            // the last byte, store all eight, keep `len` of them.
            let x = (v & 0x0000_0000_0fff_ffff) | ((v & 0x00ff_ffff_f000_0000) << 4);
            let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x0fff_c000_0fff_c000) << 2);
            let x = (x & 0x007f_007f_007f_007f) | ((x & 0x3f80_3f80_3f80_3f80) << 1);
            let len = ((70 - (v | 1).leading_zeros()) / 7) as usize;
            let continued = VARINT_CONT_BITS & ((1u64 << (8 * (len - 1))) - 1);
            stage[staged..staged + 8].copy_from_slice(&(x | continued).to_le_bytes());
            staged += len;
        } else {
            while v >= 0x80 {
                stage[staged] = (v as u8) | 0x80;
                staged += 1;
                v >>= 7;
            }
            stage[staged] = v as u8;
            staged += 1;
        }
    }
    out.extend_from_slice(&stage[..staged]);
}

/// [`put_varints`] over the zigzagged wrapping deltas of `values`, the
/// first one taken from 0.
#[inline]
fn put_deltas(out: &mut Vec<u8>, values: impl Iterator<Item = u64>) {
    let mut prev = 0u64;
    put_varints(
        out,
        values.map(|value| {
            let delta = zigzag(value.wrapping_sub(prev) as i64);
            prev = value;
            delta
        }),
    );
}

/// Decodes one LEB128 varint at `*pos`, advancing it. `None` on overrun
/// or an encoding longer than 10 bytes.
#[inline]
fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// All continuation bits of 8 packed varint bytes, for the SWAR fast
/// path below.
const VARINT_CONT_BITS: u64 = 0x8080_8080_8080_8080;

/// Decodes `count` LEB128 varints starting at `*pos*`, feeding each
/// decoded value through `push` (which returns `false` to reject a
/// value, e.g. one that overflows the column's element type).
///
/// Hot path: friendly traces encode most values in one byte, so eight
/// continuation bits are tested with a single unaligned `u64` load
/// (SWAR); only a mixed group falls back to the byte-at-a-time decoder
/// for its first varint before re-probing.
#[inline]
fn decode_varints(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    mut push: impl FnMut(u64) -> bool,
) -> Result<(), ColumnError> {
    let mut remaining = count;
    while remaining >= 8 {
        if let Some(chunk) = buf.get(*pos..*pos + 8) {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(chunk);
            let word = u64::from_le_bytes(bytes);
            if word & VARINT_CONT_BITS == 0 {
                for i in 0..8 {
                    if !push((word >> (8 * i)) & 0x7f) {
                        return Err(ColumnError::Range);
                    }
                }
                *pos += 8;
                remaining -= 8;
                continue;
            }
        }
        let v = get_varint(buf, pos).ok_or(ColumnError::Truncated)?;
        if !push(v) {
            return Err(ColumnError::Range);
        }
        remaining -= 1;
    }
    while remaining > 0 {
        let v = get_varint(buf, pos).ok_or(ColumnError::Truncated)?;
        if !push(v) {
            return Err(ColumnError::Range);
        }
        remaining -= 1;
    }
    Ok(())
}

/// Why a column failed to decode; mapped to [`CbtError::Corrupt`] with
/// a column-specific detail by the callers.
enum ColumnError {
    Truncated,
    Range,
}

/// Decodes one block payload into `batch`'s columns, single pass per
/// column, shared by the buffered and the zero-copy readers. `block` is
/// only used to label corruption errors.
fn decode_columns(
    buf: &[u8],
    count: usize,
    block: u64,
    batch: &mut RequestBatch,
) -> Result<(), CbtError> {
    batch.clear();
    let (volumes, ops, offsets, lens, timestamps) = batch.columns_mut();
    let mut pos = 0usize;

    timestamps.reserve(count);
    let mut prev_ts = 0u64;
    decode_varints(buf, &mut pos, count, |v| {
        prev_ts = prev_ts.wrapping_add(unzigzag(v) as u64);
        timestamps.push(Timestamp::from_micros(prev_ts));
        true
    })
    .map_err(|_| corrupt_at(block, "truncated timestamp column"))?;

    volumes.reserve(count);
    decode_varints(buf, &mut pos, count, |v| match u32::try_from(v) {
        Ok(vol) => {
            volumes.push(VolumeId::new(vol));
            true
        }
        Err(_) => false,
    })
    .map_err(|e| match e {
        ColumnError::Truncated => corrupt_at(block, "truncated volume column"),
        ColumnError::Range => corrupt_at(block, "volume id out of range"),
    })?;

    let op_bytes = count.div_ceil(8);
    let bits = buf
        .get(pos..pos + op_bytes)
        .ok_or_else(|| corrupt_at(block, "truncated op column"))?;
    pos += op_bytes;
    ops.reserve(count);
    for i in 0..count {
        ops.push(if bits[i / 8] >> (i % 8) & 1 == 1 {
            OpKind::Write
        } else {
            OpKind::Read
        });
    }

    offsets.reserve(count);
    let mut prev_off = 0u64;
    decode_varints(buf, &mut pos, count, |v| {
        prev_off = prev_off.wrapping_add(unzigzag(v) as u64);
        offsets.push(prev_off);
        true
    })
    .map_err(|_| corrupt_at(block, "truncated offset column"))?;

    lens.reserve(count);
    decode_varints(buf, &mut pos, count, |v| match u32::try_from(v) {
        Ok(len) => {
            lens.push(len);
            true
        }
        Err(_) => false,
    })
    .map_err(|e| match e {
        ColumnError::Truncated => corrupt_at(block, "truncated length column"),
        ColumnError::Range => corrupt_at(block, "request length out of range"),
    })?;

    if pos != buf.len() {
        return Err(corrupt_at(block, "trailing bytes in block"));
    }
    Ok(())
}

// --- writer ---------------------------------------------------------------

/// Streaming encoder for CBT.
///
/// Buffers records into blocks of
/// [`block_capacity`](CbtWriter::with_block_capacity) records, encodes
/// each block's columns, and writes it with a checksum.
/// [`finish`](CbtWriter::finish) flushes the final partial block and
/// must be called — dropping the writer loses buffered records.
///
/// See the [module docs](self) for the layout and an example.
#[derive(Debug)]
pub struct CbtWriter<W: Write> {
    inner: W,
    pending: RequestBatch,
    payload: Vec<u8>,
    block_capacity: usize,
    header_written: bool,
}

impl<W: Write> CbtWriter<W> {
    /// Creates a writer with the default block capacity.
    pub fn new(inner: W) -> Self {
        Self::with_block_capacity(inner, DEFAULT_BLOCK_CAPACITY)
    }

    /// Creates a writer that flushes a block every `block_capacity`
    /// records (minimum 1).
    pub fn with_block_capacity(inner: W, block_capacity: usize) -> Self {
        CbtWriter {
            inner,
            pending: RequestBatch::new(),
            payload: Vec::new(),
            block_capacity: block_capacity.max(1),
            header_written: false,
        }
    }

    /// Appends one request to the stream.
    pub fn write_request(&mut self, req: &IoRequest) -> Result<(), CbtError> {
        self.pending.push(req);
        if self.pending.len() >= self.block_capacity {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Appends every record of `batch` to the stream: column by column
    /// up to each block boundary, so blocks — and the file's bytes — are
    /// the ones [`write_request`](Self::write_request) would cut.
    pub fn write_batch(&mut self, batch: &RequestBatch) -> Result<(), CbtError> {
        let mut start = 0;
        while start < batch.len() {
            let room = self.block_capacity - self.pending.len();
            let end = batch.len().min(start + room);
            self.pending.extend_from_range(batch, start..end);
            start = end;
            if self.pending.len() >= self.block_capacity {
                self.flush_block()?;
            }
        }
        Ok(())
    }

    /// Flushes the final partial block (and the header, for an empty
    /// stream) and returns the underlying writer.
    pub fn finish(mut self) -> Result<W, CbtError> {
        self.ensure_header()?;
        if !self.pending.is_empty() {
            self.flush_block()?;
        }
        self.inner.flush()?;
        Ok(self.inner)
    }

    fn ensure_header(&mut self) -> Result<(), CbtError> {
        if !self.header_written {
            let mut header = [0u8; HEADER_LEN];
            header[..8].copy_from_slice(&MAGIC);
            header[8..10].copy_from_slice(&VERSION.to_le_bytes());
            // flags (10..12) and reserved (12..16) stay zero.
            self.inner.write_all(&header)?;
            self.header_written = true;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), CbtError> {
        self.ensure_header()?;
        self.payload.clear();
        encode_payload(&self.pending, &mut self.payload);
        let count = self.pending.len() as u32;
        let checksum = crc32(&self.payload);
        let mut header = [0u8; BLOCK_HEADER_LEN];
        header[..4].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        header[4..8].copy_from_slice(&count.to_le_bytes());
        header[8..12].copy_from_slice(&checksum.to_le_bytes());
        self.inner.write_all(&header)?;
        self.inner.write_all(&self.payload)?;
        self.pending.clear();
        Ok(())
    }
}

fn encode_payload(batch: &RequestBatch, out: &mut Vec<u8>) {
    put_deltas(out, batch.timestamps().iter().map(|ts| ts.as_micros()));
    put_varints(out, batch.volumes().iter().map(|vol| u64::from(vol.get())));
    out.extend(batch.ops().chunks(8).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .fold(0u8, |byte, (bit, op)| byte | u8::from(op.is_write()) << bit)
    }));
    put_deltas(out, batch.offsets().iter().copied());
    put_varints(out, batch.lens().iter().map(|&len| u64::from(len)));
}

// --- reader ---------------------------------------------------------------

/// Streaming decoder for CBT.
///
/// Two consumption styles:
///
/// * [`read_batch`](CbtReader::read_batch) — the fast path: yields one
///   decoded block at a time as a [`RequestBatch`], ready to feed
///   straight into batched analysis kernels.
/// * the [`Iterator`] impl — yields individual
///   `Result<IoRequest, CbtError>` records, for drop-in compatibility
///   with the CSV readers.
///
/// The header is validated lazily on the first read. After any error
/// the reader is poisoned: [`read_batch`](CbtReader::read_batch)
/// returns [`CbtError::Poisoned`] forever after, so a corrupt mid-file
/// block can never be observed as a shorter-but-clean trace — `Ok(None)`
/// is reserved for a genuinely clean end of stream. (The record
/// iterator yields the original error once, then fuses to `None`.)
#[derive(Debug)]
pub struct CbtReader<R: Read> {
    inner: R,
    header_read: bool,
    block_index: u64,
    payload: Vec<u8>,
    /// Records of the current block not yet yielded by the iterator.
    current: RequestBatch,
    pos: usize,
    failed: bool,
    metrics: Option<CbtMetrics>,
}

/// Reader-side registry handles (see [`CbtReader::with_registry`]).
#[derive(Debug)]
struct CbtMetrics {
    blocks: Counter,
    records: Counter,
    bytes: Counter,
    crc_failures: Counter,
    corrupt_blocks: Counter,
    block_decode: SpanTimer,
}

impl CbtMetrics {
    fn new(registry: &Registry) -> Self {
        CbtMetrics {
            blocks: registry.counter("cbt.blocks"),
            records: registry.counter("cbt.records"),
            bytes: registry.counter("cbt.bytes"),
            crc_failures: registry.counter("cbt.crc_failures"),
            corrupt_blocks: registry.counter("cbt.corrupt_blocks"),
            block_decode: registry.span("cbt.block_decode"),
        }
    }
}

impl<R: Read> CbtReader<R> {
    /// Creates a reader over any byte source.
    pub fn new(inner: R) -> Self {
        CbtReader {
            inner,
            header_read: false,
            block_index: 0,
            payload: Vec::new(),
            current: RequestBatch::new(),
            pos: 0,
            failed: false,
            metrics: None,
        }
    }

    /// Publishes reader metrics into `registry`: `cbt.blocks`,
    /// `cbt.records`, and `cbt.bytes` counters for throughput
    /// accounting, `cbt.crc_failures` / `cbt.corrupt_blocks` for damage,
    /// and a `cbt.block_decode` span timing each block's read + decode
    /// (stalls show up as a long tail). Recording is per block, so the
    /// overhead is unmeasurable next to decoding ~64 Ki records.
    #[must_use]
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.metrics = Some(CbtMetrics::new(registry));
        self
    }

    /// Decodes the next block, or `Ok(None)` at a clean end of stream.
    ///
    /// Must not be interleaved with the record [`Iterator`]: records the
    /// iterator has buffered from a previous block are not returned
    /// here.
    ///
    /// # Errors
    ///
    /// Any decode failure poisons the reader; every subsequent call
    /// returns [`CbtError::Poisoned`] so the failure cannot be
    /// swallowed into a clean-looking early EOF.
    pub fn read_batch(&mut self) -> Result<Option<RequestBatch>, CbtError> {
        if self.failed {
            return Err(CbtError::Poisoned);
        }
        let clock = self.metrics.as_ref().map(|_| Stopwatch::start());
        match self.try_read_batch() {
            Ok(Some(batch)) => {
                if let (Some(m), Some(clock)) = (&self.metrics, clock) {
                    m.block_decode.record_nanos(clock.elapsed_nanos());
                    m.blocks.inc();
                    m.records.add(batch.len() as u64);
                    m.bytes.add((BLOCK_HEADER_LEN + self.payload.len()) as u64);
                }
                Ok(Some(batch))
            }
            // Clean EOF and failures record nothing: an empty read or an
            // aborted decode would pollute the span distribution.
            Ok(None) => Ok(None),
            Err(e) => {
                if let Some(m) = &self.metrics {
                    match &e {
                        CbtError::ChecksumMismatch { .. } => m.crc_failures.inc(),
                        CbtError::Corrupt { .. } => m.corrupt_blocks.inc(),
                        _ => {}
                    }
                }
                self.failed = true;
                Err(e)
            }
        }
    }

    fn try_read_batch(&mut self) -> Result<Option<RequestBatch>, CbtError> {
        self.ensure_header()?;
        let mut header = [0u8; BLOCK_HEADER_LEN];
        if !self.read_exact_or_eof(&mut header, "truncated block header")? {
            return Ok(None);
        }
        let payload_len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let count = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let checksum = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if payload_len > MAX_BLOCK_PAYLOAD {
            return Err(self.corrupt("block payload length too large"));
        }
        // Each record costs at least 1 byte in four varint columns, so a
        // count grossly exceeding the payload is structural damage; this
        // also bounds the column allocations below.
        if u64::from(count) * 4 > u64::from(payload_len) {
            return Err(self.corrupt("record count exceeds payload size"));
        }
        self.payload.clear();
        self.payload.resize(payload_len as usize, 0);
        let mut read_buf = std::mem::take(&mut self.payload);
        let fully = self.read_exact_or_eof(&mut read_buf, "")?;
        self.payload = read_buf;
        if !fully || self.payload.len() != payload_len as usize {
            return Err(self.corrupt("truncated block payload"));
        }
        let found = crc32(&self.payload);
        if found != checksum {
            return Err(CbtError::ChecksumMismatch {
                block: self.block_index,
                expected: checksum,
                found,
            });
        }
        let batch = self.decode_payload(count as usize)?;
        self.block_index += 1;
        Ok(Some(batch))
    }

    fn decode_payload(&mut self, count: usize) -> Result<RequestBatch, CbtError> {
        let mut batch = RequestBatch::with_capacity(count);
        decode_columns(&self.payload, count, self.block_index, &mut batch)?;
        Ok(batch)
    }

    fn ensure_header(&mut self) -> Result<(), CbtError> {
        if self.header_read {
            return Ok(());
        }
        let mut header = [0u8; HEADER_LEN];
        self.inner.read_exact(&mut header).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                CbtError::BadMagic {
                    found: [0u8; 8], // too short to even hold the magic
                }
            } else {
                CbtError::Io(e)
            }
        })?;
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&header[..8]);
        if magic != MAGIC {
            return Err(CbtError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != VERSION {
            return Err(CbtError::UnsupportedVersion { found: version });
        }
        self.header_read = true;
        Ok(())
    }

    /// Fills `buf` completely, or returns `Ok(false)` on EOF *before the
    /// first byte*; EOF mid-buffer is `Corrupt` with `detail` (or
    /// `Ok(false)` with the partial length left visible when `detail` is
    /// empty, for callers that format their own error).
    fn read_exact_or_eof(
        &mut self,
        buf: &mut [u8],
        detail: &'static str,
    ) -> Result<bool, CbtError> {
        let mut filled = 0usize;
        while filled < buf.len() {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) => {
                    if filled == 0 {
                        return Ok(false);
                    }
                    if detail.is_empty() {
                        return Ok(false);
                    }
                    return Err(self.corrupt(detail));
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(CbtError::Io(e)),
            }
        }
        Ok(true)
    }

    fn corrupt(&self, detail: &'static str) -> CbtError {
        corrupt_at(self.block_index, detail)
    }
}

fn corrupt_at(block: u64, detail: &'static str) -> CbtError {
    CbtError::Corrupt { block, detail }
}

impl<R: Read> Iterator for CbtReader<R> {
    type Item = Result<IoRequest, CbtError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.pos < self.current.len() {
                let req = self.current.get(self.pos);
                self.pos += 1;
                return Some(Ok(req));
            }
            match self.read_batch() {
                Ok(Some(batch)) => {
                    self.current = batch;
                    self.pos = 0;
                }
                Ok(None) => return None,
                // The original error was already yielded once; the
                // iterator contract wants fused `None` afterwards.
                Err(CbtError::Poisoned) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

// --- zero-copy reader -----------------------------------------------------

/// Zero-copy decoder for an in-memory CBT stream (typically an
/// [`Mmap`](crate::Mmap) of the trace file).
///
/// Unlike [`CbtReader`], which copies every block payload out of its
/// `Read` source and hands back an owned [`RequestBatch`], this reader
/// walks the stream as one `&[u8]`: block payloads are decoded straight
/// out of the source slice (no payload copy, no per-block allocation),
/// and [`read_batch_ref`](Self::read_batch_ref) lends the decoded
/// columns as a [`RequestBatchRef`] backed by buffers the reader reuses
/// across blocks.
///
/// Error semantics are identical to [`CbtReader`]: every block checksum
/// is verified before decoding, any failure poisons the reader
/// ([`CbtError::Poisoned`] forever after), and a corrupt mid-file block
/// can never be observed as a shorter-but-clean trace.
///
/// # Example
///
/// ```
/// use cbs_trace::{CbtSliceReader, CbtWriter, IoRequest, OpKind, Timestamp, VolumeId};
///
/// # fn main() -> Result<(), cbs_trace::CbtError> {
/// let mut writer = CbtWriter::new(Vec::new());
/// writer.write_request(&IoRequest::new(
///     VolumeId::new(1),
///     OpKind::Read,
///     0,
///     4096,
///     Timestamp::ZERO,
/// ))?;
/// let encoded = writer.finish()?;
///
/// let mut reader = CbtSliceReader::new(&encoded);
/// let batch = reader.read_batch_ref()?.expect("one block");
/// assert_eq!(batch.len(), 1);
/// assert_eq!(batch.lens()[0], 4096);
/// assert!(reader.read_batch_ref()?.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CbtSliceReader<'a> {
    data: &'a [u8],
    pos: usize,
    header_read: bool,
    block_index: u64,
    /// Reused column buffers the returned views borrow from.
    current: RequestBatch,
    failed: bool,
    metrics: Option<CbtMetrics>,
}

impl<'a> CbtSliceReader<'a> {
    /// Creates a reader over a complete in-memory CBT stream.
    pub fn new(data: &'a [u8]) -> Self {
        CbtSliceReader {
            data,
            pos: 0,
            header_read: false,
            block_index: 0,
            current: RequestBatch::new(),
            failed: false,
            metrics: None,
        }
    }

    /// Publishes the same `cbt.*` reader metrics as
    /// [`CbtReader::with_registry`].
    #[must_use]
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.metrics = Some(CbtMetrics::new(registry));
        self
    }

    /// Decodes the next block and lends it as a [`RequestBatchRef`], or
    /// `Ok(None)` at a clean end of stream.
    ///
    /// The view borrows the reader's internal column buffers, so it
    /// must be consumed before the next call.
    ///
    /// # Errors
    ///
    /// Any decode failure poisons the reader; every subsequent call
    /// returns [`CbtError::Poisoned`], exactly like
    /// [`CbtReader::read_batch`].
    pub fn read_batch_ref(&mut self) -> Result<Option<RequestBatchRef<'_>>, CbtError> {
        if self.failed {
            return Err(CbtError::Poisoned);
        }
        let clock = self.metrics.as_ref().map(|_| Stopwatch::start());
        match self.try_read_block() {
            Ok(Some(block_bytes)) => {
                if let (Some(m), Some(clock)) = (&self.metrics, clock) {
                    m.block_decode.record_nanos(clock.elapsed_nanos());
                    m.blocks.inc();
                    m.records.add(self.current.len() as u64);
                    m.bytes.add(block_bytes as u64);
                }
                Ok(Some(self.current.as_ref()))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                if let Some(m) = &self.metrics {
                    match &e {
                        CbtError::ChecksumMismatch { .. } => m.crc_failures.inc(),
                        CbtError::Corrupt { .. } => m.corrupt_blocks.inc(),
                        _ => {}
                    }
                }
                self.failed = true;
                // A decode that stopped half-way left ragged columns.
                self.current.clear();
                Err(e)
            }
        }
    }

    /// The block the last successful
    /// [`read_batch_ref`](Self::read_batch_ref) decoded, lent again —
    /// for a consumer that walks a block record by record between two
    /// reads instead of copying it out first. Reads and changes
    /// nothing; empty before the first block and after a failure.
    #[inline]
    pub fn current_batch_ref(&self) -> RequestBatchRef<'_> {
        self.current.as_ref()
    }

    /// Decodes the next block into `self.current`, returning the number
    /// of stream bytes it occupied (header + payload), or `None` at a
    /// clean end of stream.
    fn try_read_block(&mut self) -> Result<Option<usize>, CbtError> {
        self.ensure_header()?;
        let remaining = self.data.len() - self.pos;
        if remaining == 0 {
            return Ok(None);
        }
        if remaining < BLOCK_HEADER_LEN {
            return Err(self.corrupt("truncated block header"));
        }
        let header = &self.data[self.pos..self.pos + BLOCK_HEADER_LEN];
        let payload_len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let count = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let checksum = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if payload_len > MAX_BLOCK_PAYLOAD {
            return Err(self.corrupt("block payload length too large"));
        }
        if u64::from(count) * 4 > u64::from(payload_len) {
            return Err(self.corrupt("record count exceeds payload size"));
        }
        let start = self.pos + BLOCK_HEADER_LEN;
        let payload = self
            .data
            .get(start..start + payload_len as usize)
            .ok_or_else(|| self.corrupt("truncated block payload"))?;
        let found = crc32(payload);
        if found != checksum {
            return Err(CbtError::ChecksumMismatch {
                block: self.block_index,
                expected: checksum,
                found,
            });
        }
        decode_columns(payload, count as usize, self.block_index, &mut self.current)?;
        self.pos = start + payload_len as usize;
        self.block_index += 1;
        Ok(Some(BLOCK_HEADER_LEN + payload_len as usize))
    }

    fn ensure_header(&mut self) -> Result<(), CbtError> {
        if self.header_read {
            return Ok(());
        }
        if self.data.len() < HEADER_LEN {
            // Same shape as the buffered reader's short-file error.
            return Err(CbtError::BadMagic { found: [0u8; 8] });
        }
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&self.data[..8]);
        if magic != MAGIC {
            return Err(CbtError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([self.data[8], self.data[9]]);
        if version != VERSION {
            return Err(CbtError::UnsupportedVersion { found: version });
        }
        self.pos = HEADER_LEN;
        self.header_read = true;
        Ok(())
    }

    fn corrupt(&self, detail: &'static str) -> CbtError {
        corrupt_at(self.block_index, detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(n: u64) -> Vec<IoRequest> {
        (0..n)
            .map(|i| {
                IoRequest::new(
                    VolumeId::new((i % 7) as u32 * 1000),
                    if i % 3 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    (i * 37) % 1_000_000 * 4096,
                    512 * ((i % 13) as u32 + 1),
                    Timestamp::from_micros(1_577_808_000_000_000 + i * 250),
                )
            })
            .collect()
    }

    fn encode(reqs: &[IoRequest], block_capacity: usize) -> Vec<u8> {
        let mut w = CbtWriter::with_block_capacity(Vec::new(), block_capacity);
        for r in reqs {
            w.write_request(r).expect("write");
        }
        w.finish().expect("finish")
    }

    #[test]
    fn roundtrips_across_block_sizes() {
        let reqs = sample(1000);
        for cap in [1, 7, 100, 1000, 4096] {
            let bytes = encode(&reqs, cap);
            let decoded: Vec<IoRequest> = CbtReader::new(&bytes[..])
                .collect::<Result<_, _>>()
                .expect("decode");
            assert_eq!(decoded, reqs, "block capacity {cap}");
        }
    }

    #[test]
    fn empty_stream_is_header_only() {
        let bytes = CbtWriter::new(Vec::new()).finish().expect("finish");
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(&bytes[..8], &MAGIC);
        let mut r = CbtReader::new(&bytes[..]);
        assert!(r.read_batch().expect("read").is_none());
        assert!(CbtReader::new(&bytes[..]).next().is_none());
    }

    #[test]
    fn read_batch_yields_blocks() {
        let reqs = sample(250);
        let bytes = encode(&reqs, 100);
        let mut r = CbtReader::new(&bytes[..]);
        let mut all = Vec::new();
        let mut sizes = Vec::new();
        while let Some(batch) = r.read_batch().expect("read") {
            sizes.push(batch.len());
            all.extend(batch.iter());
        }
        assert_eq!(sizes, vec![100, 100, 50]);
        assert_eq!(all, reqs);
    }

    #[test]
    fn write_batch_equals_write_request() {
        // Every batch length relative to the block boundary, into an
        // empty writer and into one already holding `lead` records.
        for cap in [1usize, 7, 65_536] {
            for len in [cap - 1, cap, cap + 1, 2 * cap + 3] {
                for lead in [0, 3] {
                    let reqs = sample((lead + len) as u64);
                    let mut w = CbtWriter::with_block_capacity(Vec::new(), cap);
                    w.write_batch(&RequestBatch::from(&reqs[..lead]))
                        .expect("write");
                    w.write_batch(&RequestBatch::from(&reqs[lead..]))
                        .expect("write");
                    let via_batch = w.finish().expect("finish");
                    assert!(
                        via_batch == encode(&reqs, cap),
                        "cap {cap} len {len} lead {lead}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode(&sample(10), 64);
        bytes[0] = b'X';
        let err = CbtReader::new(&bytes[..])
            .read_batch()
            .expect_err("should fail");
        assert!(matches!(err, CbtError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn rejects_future_version() {
        let mut bytes = encode(&sample(10), 64);
        bytes[8] = 0xff;
        let err = CbtReader::new(&bytes[..])
            .read_batch()
            .expect_err("should fail");
        assert!(
            matches!(err, CbtError::UnsupportedVersion { found } if found == 0x00ff),
            "{err}"
        );
    }

    #[test]
    fn detects_payload_corruption() {
        let bytes = encode(&sample(100), 64);
        // Flip one payload byte in every position after the first block
        // header; each must yield ChecksumMismatch (payload) on block 0.
        let first_payload = HEADER_LEN + BLOCK_HEADER_LEN;
        let mut corrupted = bytes.clone();
        corrupted[first_payload + 5] ^= 0x40;
        let err = CbtReader::new(&corrupted[..])
            .read_batch()
            .expect_err("should fail");
        assert!(
            matches!(err, CbtError::ChecksumMismatch { block: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn detects_truncation() {
        let bytes = encode(&sample(100), 64);
        for cut in [
            HEADER_LEN - 1,                     // inside the stream header
            HEADER_LEN + 3,                     // inside the first block header
            HEADER_LEN + BLOCK_HEADER_LEN + 10, // inside the first payload
            bytes.len() - 1,                    // inside the last payload
        ] {
            let mut r = CbtReader::new(&bytes[..cut]);
            let mut result = Ok(());
            loop {
                match r.read_batch() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            assert!(result.is_err(), "cut at {cut} went undetected");
        }
    }

    #[test]
    fn errors_poison_the_reader() {
        let mut bytes = encode(&sample(100), 64);
        let len = bytes.len();
        bytes.truncate(len - 1);
        let mut r = CbtReader::new(&bytes[..]);
        assert!(r.read_batch().expect("first block ok").is_some());
        assert!(matches!(
            r.read_batch().expect_err("truncated"),
            CbtError::Corrupt { .. }
        ));
        // Reads after the failure keep erroring — never `Ok(None)`,
        // which would let a retrying caller mistake the truncated
        // stream for a clean, shorter one.
        for _ in 0..3 {
            assert!(matches!(
                r.read_batch().expect_err("poisoned"),
                CbtError::Poisoned
            ));
        }
    }

    #[test]
    fn corrupt_mid_file_is_never_a_clean_shorter_trace() {
        // A mid-file checksum failure must make it impossible to drain
        // the reader into something that looks like a complete trace:
        // however often the caller retries `read_batch`, the total
        // (records seen, final state) is (first block only, error).
        let reqs = sample(300);
        let mut bytes = encode(&reqs, 100);
        let block0_payload =
            u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]) as usize;
        let second_payload = HEADER_LEN + 2 * BLOCK_HEADER_LEN + block0_payload;
        bytes[second_payload + 5] ^= 0x01; // damage block 1 of 3
        let mut r = CbtReader::new(&bytes[..]);
        let mut records = 0usize;
        let mut errors = 0usize;
        for _ in 0..10 {
            match r.read_batch() {
                Ok(Some(batch)) => records += batch.len(),
                Ok(None) => panic!("poisoned reader signalled clean EOF"),
                Err(_) => errors += 1,
            }
        }
        assert_eq!(records, 100, "only the intact first block is yielded");
        assert!(errors >= 9);
        // The record iterator view: yields the error exactly once, then
        // fuses — and never silently ends before the error.
        let mut r = CbtReader::new(&bytes[..]);
        let mut ok = 0usize;
        let mut saw_error = false;
        for item in r.by_ref() {
            match item {
                Ok(_) => ok += 1,
                Err(e) => {
                    assert!(matches!(e, CbtError::ChecksumMismatch { .. }), "{e}");
                    saw_error = true;
                }
            }
        }
        assert!(saw_error, "iterator must surface the corruption");
        assert_eq!(ok, 100);
        assert!(r.next().is_none(), "fused after the error");
    }

    #[test]
    fn registry_counts_blocks_and_damage() {
        use cbs_obs::Registry;
        let reqs = sample(250);
        let bytes = encode(&reqs, 100);
        let registry = Registry::new();
        let mut r = CbtReader::new(&bytes[..]).with_registry(&registry);
        while r.read_batch().expect("clean stream").is_some() {}
        assert_eq!(registry.counter("cbt.blocks").get(), 3);
        assert_eq!(registry.counter("cbt.records").get(), 250);
        assert_eq!(
            registry.counter("cbt.bytes").get(),
            (bytes.len() - HEADER_LEN) as u64
        );
        assert_eq!(registry.counter("cbt.crc_failures").get(), 0);
        assert_eq!(r.read_batch().expect("still clean at EOF"), None);

        // Damage block 1: the CRC failure is counted once (poisoned
        // re-reads do not inflate it).
        let block0_payload =
            u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]) as usize;
        let mut damaged = bytes.clone();
        damaged[HEADER_LEN + 2 * BLOCK_HEADER_LEN + block0_payload + 5] ^= 0x10;
        let registry = Registry::new();
        let mut r = CbtReader::new(&damaged[..]).with_registry(&registry);
        assert!(r.read_batch().expect("block 0 intact").is_some());
        assert!(r.read_batch().is_err());
        assert!(r.read_batch().is_err());
        assert_eq!(registry.counter("cbt.crc_failures").get(), 1);
        assert_eq!(registry.counter("cbt.blocks").get(), 1);
    }

    #[test]
    fn extreme_values_roundtrip() {
        let reqs = vec![
            IoRequest::new(
                VolumeId::new(u32::MAX),
                OpKind::Write,
                u64::MAX,
                u32::MAX,
                Timestamp::from_micros(u64::MAX),
            ),
            IoRequest::new(
                VolumeId::new(0),
                OpKind::Read,
                0,
                0,
                Timestamp::from_micros(0),
            ),
            IoRequest::new(
                VolumeId::new(1),
                OpKind::Write,
                u64::MAX / 2,
                1,
                Timestamp::from_micros(u64::MAX / 2 + 3),
            ),
        ];
        let bytes = encode(&reqs, 2);
        let decoded: Vec<IoRequest> = CbtReader::new(&bytes[..])
            .collect::<Result<_, _>>()
            .expect("decode");
        assert_eq!(decoded, reqs);
    }

    /// Drains a slice reader, returning (records decoded, first error).
    fn drain_slice(data: &[u8]) -> (Vec<IoRequest>, Option<CbtError>) {
        let mut r = CbtSliceReader::new(data);
        let mut all = Vec::new();
        loop {
            match r.read_batch_ref() {
                Ok(Some(batch)) => all.extend(batch.iter()),
                Ok(None) => return (all, None),
                Err(e) => return (all, Some(e)),
            }
        }
    }

    #[test]
    fn slice_reader_matches_buffered_on_clean_streams() {
        let reqs = sample(1000);
        for cap in [1, 7, 100, 1000, 4096] {
            let bytes = encode(&reqs, cap);
            let (got, err) = drain_slice(&bytes);
            assert!(err.is_none(), "block capacity {cap}: {err:?}");
            assert_eq!(got, reqs, "block capacity {cap}");
        }
        // Header-only stream.
        let bytes = CbtWriter::new(Vec::new()).finish().expect("finish");
        let (got, err) = drain_slice(&bytes);
        assert!(got.is_empty() && err.is_none());
    }

    #[test]
    fn slice_reader_lends_reused_buffers() {
        let reqs = sample(250);
        let bytes = encode(&reqs, 100);
        let mut r = CbtSliceReader::new(&bytes);
        let first = r.read_batch_ref().expect("read").expect("block");
        assert_eq!(first.len(), 100);
        assert_eq!(first.get(0), reqs[0]);
        // Next read reuses the same buffers; the previous view's
        // borrow has ended.
        let second = r.read_batch_ref().expect("read").expect("block");
        assert_eq!(second.get(0), reqs[100]);
    }

    #[test]
    fn slice_reader_lends_the_current_block_again() {
        let reqs = sample(250);
        let mut bytes = encode(&reqs, 100);
        let mut r = CbtSliceReader::new(&bytes);
        assert!(r.current_batch_ref().is_empty(), "nothing decoded yet");
        for block in 0..3 {
            let read = r.read_batch_ref().expect("read").expect("block").to_batch();
            assert_eq!(r.current_batch_ref().to_batch(), read);
            assert_eq!(r.current_batch_ref().get(0), reqs[block * 100]);
        }
        assert!(r.read_batch_ref().expect("clean end").is_none());
        // A failed decode must not lend its half-filled columns.
        let block0_payload =
            u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]) as usize;
        bytes[HEADER_LEN + 2 * BLOCK_HEADER_LEN + block0_payload + 5] ^= 0x01;
        let mut r = CbtSliceReader::new(&bytes);
        assert_eq!(
            r.read_batch_ref().expect("block 0").expect("some").len(),
            100
        );
        assert!(r.read_batch_ref().is_err());
        assert!(r.current_batch_ref().is_empty());
    }

    #[test]
    fn slice_reader_rejects_header_damage() {
        let mut bytes = encode(&sample(10), 64);
        bytes[0] = b'X';
        let (_, err) = drain_slice(&bytes);
        assert!(matches!(err, Some(CbtError::BadMagic { .. })), "{err:?}");

        let mut bytes = encode(&sample(10), 64);
        bytes[8] = 0xff;
        let (_, err) = drain_slice(&bytes);
        assert!(
            matches!(err, Some(CbtError::UnsupportedVersion { found }) if found == 0x00ff),
            "{err:?}"
        );

        let (_, err) = drain_slice(&[]);
        assert!(matches!(err, Some(CbtError::BadMagic { .. })), "{err:?}");
    }

    #[test]
    fn slice_reader_poisons_on_mid_file_corruption() {
        let reqs = sample(300);
        let mut bytes = encode(&reqs, 100);
        let block0_payload =
            u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]) as usize;
        bytes[HEADER_LEN + 2 * BLOCK_HEADER_LEN + block0_payload + 5] ^= 0x01;
        let mut r = CbtSliceReader::new(&bytes);
        assert_eq!(
            r.read_batch_ref()
                .expect("block 0 intact")
                .expect("some")
                .len(),
            100
        );
        assert!(matches!(
            r.read_batch_ref().expect_err("damaged"),
            CbtError::ChecksumMismatch { block: 1, .. }
        ));
        for _ in 0..3 {
            assert!(matches!(
                r.read_batch_ref().expect_err("poisoned"),
                CbtError::Poisoned
            ));
        }
    }

    #[test]
    fn slice_reader_detects_truncation() {
        let bytes = encode(&sample(100), 64);
        for cut in [
            HEADER_LEN - 1,
            HEADER_LEN + 3,
            HEADER_LEN + BLOCK_HEADER_LEN + 10,
            bytes.len() - 1,
        ] {
            let (_, err) = drain_slice(&bytes[..cut]);
            assert!(err.is_some(), "cut at {cut} went undetected");
        }
    }

    #[test]
    fn slice_reader_registry_matches_buffered() {
        use cbs_obs::Registry;
        let reqs = sample(250);
        let bytes = encode(&reqs, 100);
        let buffered = Registry::new();
        let mut r = CbtReader::new(&bytes[..]).with_registry(&buffered);
        while r.read_batch().expect("clean").is_some() {}
        let sliced = Registry::new();
        let mut r = CbtSliceReader::new(&bytes).with_registry(&sliced);
        while r.read_batch_ref().expect("clean").is_some() {}
        for name in ["cbt.blocks", "cbt.records", "cbt.bytes", "cbt.crc_failures"] {
            assert_eq!(
                sliced.counter(name).get(),
                buffered.counter(name).get(),
                "{name}"
            );
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// CRC-32 by its definition, one byte then eight shift-and-xor
    /// steps at a time, sharing no table with `crc32`: the reference
    /// the sliced kernel must equal on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(u32::MAX, |c, &b| {
            (0..8).fold(c ^ u32::from(b), |c, _| {
                if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            })
        })
    }

    /// Pseudo-random bytes from the proptest shim's generator.
    fn noise(len: usize) -> Vec<u8> {
        let mut rng = proptest::test_runner::TestRng::for_test("crc32 noise");
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_equals_bytewise_at_every_length_and_alignment() {
        // Every tail length around the 8-byte word, from every start
        // offset of one shared buffer (so the words straddle whatever
        // alignment the allocator happened to give).
        let buf = noise(8 + 64);
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
        let big = noise(1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    proptest! {
        /// Same value as the bytewise reference on arbitrary bytes at
        /// arbitrary offsets, including all-zero and all-one runs (a
        /// zero table index on every lane).
        #[test]
        fn crc32_equals_bytewise_reference(
            mut buf in proptest::collection::vec(0u8..=u8::MAX, 0..4096),
            start in 0usize..8,
            fill in prop_oneof![Just(None), Just(Some(0u8)), Just(Some(0xffu8))],
        ) {
            if let Some(byte) = fill {
                buf.fill(byte);
            }
            let bytes = &buf[start.min(buf.len())..];
            prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
    }

    /// The one-value encoder `put_varints` replaced, kept as its
    /// reference.
    fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }

    #[test]
    fn put_varints_equals_one_value_put_varint() {
        // Both ends of every encoded length from one to ten bytes, at
        // every phase against the staging buffer's flush points and
        // across several of them.
        let mut values = vec![0u64, 127, 128, 1 << 32, 1 << 63, u64::MAX];
        values.extend((1..=9).flat_map(|k| [(1u64 << (7 * k)) - 1, 1 << (7 * k)]));
        for count in (0..=2 * VARINT_STAGE_VALUES + 2).chain([1000]) {
            for phase in 0..values.len() {
                let column = || values.iter().cycle().skip(phase).take(count).copied();
                let mut staged = vec![0xAA];
                put_varints(&mut staged, column());
                let mut reference = vec![0xAA];
                for v in column() {
                    put_varint(&mut reference, v);
                }
                assert!(staged == reference, "count {count} phase {phase}");
            }
        }
        // The worst case for the staging buffer: nothing but ten-byte values.
        let mut staged = Vec::new();
        put_varints(&mut staged, std::iter::repeat(u64::MAX).take(1000));
        assert_eq!(staged.len(), 1000 * MAX_VARINT_LEN);
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX];
        put_varints(&mut buf, values.iter().copied());
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        assert_eq!(get_varint(&buf, &mut pos), None);
    }

    #[test]
    fn compresses_sorted_traces() {
        // Sorted timestamps + sequential offsets: CBT must be far
        // smaller than the 5-column CSV equivalent (~40+ bytes/record).
        let reqs = sample(10_000);
        let bytes = encode(&reqs, DEFAULT_BLOCK_CAPACITY);
        let per_record = bytes.len() as f64 / reqs.len() as f64;
        assert!(
            per_record < 16.0,
            "CBT spent {per_record:.1} bytes/record on a friendly trace"
        );
    }
}
