//! Hand-rolled, dependency-free wire codec for the `cbs-ctl` /
//! `cbs-agent` process fan-out.
//!
//! [`crate::Workbench::analyze_with_threads`] scales the by-volume
//! analysis across threads; these frames scale it across *processes*:
//! the controller partitions a corpus by volume, each agent analyzes
//! its share whole and streams the per-volume records back, and the
//! controller concatenates them into [`crate::Analysis::from_parts`]
//! (sweep reports fold with [`SweepReport::merge`]) — byte-identical to
//! a single-process run because every volume is analyzed whole under
//! the corpus epoch.
//!
//! # Frame format
//!
//! Every message is one length-prefixed frame (all integers
//! little-endian, no external serializer):
//!
//! ```text
//! [payload_len: u32] [tag: u8] [payload: payload_len bytes]
//! ```
//!
//! | tag | name    | direction   | payload                              |
//! |-----|---------|-------------|--------------------------------------|
//! | 1   | JOB     | ctl → agent | version u8, epoch µs u64, flags u8   |
//! | 2   | VOLUME  | ctl → agent | volume id u32, n u64, n × request    |
//! | 3   | FIN     | both        | empty — end of stream                |
//! | 4   | METRICS | agent → ctl | one encoded [`VolumeMetrics`]        |
//! | 5   | SWEEP   | agent → ctl | one encoded [`SweepReport`]          |
//!
//! A request is `op u8, offset u64, len u32, ts µs u64` (the volume id
//! rides on the enclosing VOLUME frame). Composite values encode
//! field-by-field: `Option` as a `u8` flag, `f64` as IEEE-754 bits
//! (`to_bits`), strings and vectors as `u64` count + elements,
//! histograms as precision bits + non-empty `(bucket_lower, count)`
//! pairs (re-recorded on decode — bucket lower bounds land back in
//! their own buckets, so the roundtrip is bit-exact), miss-ratio
//! curves as their cumulative-hits prefix sums + total.
//!
//! The encoding is asserted roundtrip-exact by tests here and
//! end-to-end by the `agent-smoke` gate in `scripts/check.sh`.

use std::io::{Read, Write};

use cbs_analysis::VolumeMetrics;
use cbs_cache::{CacheStats, LaneReport, MissRatioCurve, SweepReport, SweepReportParts};
use cbs_stats::LogHistogram;
use cbs_trace::{IoRequest, OpKind, Timestamp, VolumeId};

/// Wire protocol version carried in the JOB frame; agents reject
/// mismatches instead of mis-decoding.
pub const WIRE_VERSION: u8 = 1;

/// Largest accepted frame payload (guards against corrupt or hostile
/// length prefixes before allocating).
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// JOB frame: ctl announces version, corpus epoch and flags.
pub const TAG_JOB: u8 = 1;
/// VOLUME frame: one volume's full request stream.
pub const TAG_VOLUME: u8 = 2;
/// FIN frame: end of stream in either direction.
pub const TAG_FIN: u8 = 3;
/// METRICS frame: one per-volume partial record.
pub const TAG_METRICS: u8 = 4;
/// SWEEP frame: the agent's partial cache-sweep report.
pub const TAG_SWEEP: u8 = 5;

/// JOB flag bit: the controller also wants a cache sweep per agent.
pub const JOB_FLAG_SWEEP: u8 = 1;

/// Decode/transport failure.
#[derive(Debug)]
pub enum WireError {
    /// The payload ended before the value it was declared to hold.
    UnexpectedEof,
    /// A frame carried an unknown tag.
    BadTag(u8),
    /// A value failed validation (context in the message).
    Invalid(&'static str),
    /// The underlying socket/pipe failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "frame payload ended early"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            WireError::Invalid(what) => write!(f, "invalid wire value: {what}"),
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One decoded frame: tag plus raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame tag (`TAG_*`).
    pub tag: u8,
    /// The undecoded payload bytes.
    pub payload: Vec<u8>,
}

/// Writes one `[len][tag][payload]` frame.
///
/// # Errors
///
/// Returns [`WireError::Invalid`] if the payload exceeds
/// [`MAX_FRAME_LEN`], or the underlying I/O error.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or(WireError::Invalid("frame payload too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[tag])?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame, validating the length prefix before allocating.
///
/// # Errors
///
/// Returns the underlying I/O error (including `UnexpectedEof` from a
/// peer that hung up mid-frame) or [`WireError::Invalid`] on an
/// oversized length prefix.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Invalid("frame length prefix too large"));
    }
    let mut tag_buf = [0u8; 1];
    r.read_exact(&mut tag_buf)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Frame {
        tag: tag_buf[0],
        payload,
    })
}

// ---------------------------------------------------------------------------
// Primitive encoders: a growable byte sink and a bounds-checked cursor.
// ---------------------------------------------------------------------------

/// Append-only encoder over a byte vector.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact,
    /// including NaN payloads and signed zeros).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u32(x);
        }
    }
}

/// Bounds-checked decoder over a payload slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Returns an error unless every byte was consumed — a
    /// trailing-garbage guard for fixed-shape payloads.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Invalid("trailing bytes after payload"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::UnexpectedEof)?;
        if end > self.buf.len() {
            return Err(WireError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool byte out of range")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.len_prefix()?;
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::Invalid("non-utf8 string"))
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let len = self.len_prefix()?;
        (0..len).map(|_| self.u64()).collect()
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, WireError> {
        let len = self.len_prefix()?;
        (0..len).map(|_| self.u32()).collect()
    }

    /// Reads a `u64` length prefix, bounded by the bytes actually
    /// remaining so a corrupt prefix cannot trigger a huge allocation.
    fn len_prefix(&mut self) -> Result<usize, WireError> {
        let len = self.u64()?;
        if len > (self.buf.len() - self.pos) as u64 {
            return Err(WireError::Invalid("length prefix exceeds payload"));
        }
        Ok(len as usize)
    }
}

// ---------------------------------------------------------------------------
// Composite codecs.
// ---------------------------------------------------------------------------

fn enc_option_shares(e: &mut Enc, v: Option<(f64, f64)>) {
    match v {
        Some((a, b)) => {
            e.bool(true);
            e.f64(a);
            e.f64(b);
        }
        None => e.bool(false),
    }
}

fn dec_option_shares(d: &mut Dec<'_>) -> Result<Option<(f64, f64)>, WireError> {
    Ok(if d.bool()? {
        Some((d.f64()?, d.f64()?))
    } else {
        None
    })
}

/// Encodes a [`LogHistogram`] as precision bits + non-empty buckets.
pub fn enc_histogram(e: &mut Enc, h: &LogHistogram) {
    e.u32(h.precision_bits());
    let buckets: Vec<(u64, u64)> = h.iter_buckets().map(|(lo, _w, c)| (lo, c)).collect();
    e.u64(buckets.len() as u64);
    for (lo, c) in buckets {
        e.u64(lo);
        e.u64(c);
    }
}

/// Decodes a [`LogHistogram`]; bit-exact because each bucket's lower
/// bound indexes back into the same bucket.
pub fn dec_histogram(d: &mut Dec<'_>) -> Result<LogHistogram, WireError> {
    let bits = d.u32()?;
    if bits > 16 {
        return Err(WireError::Invalid("histogram precision out of range"));
    }
    let mut h = LogHistogram::new(bits);
    let n = d.u64()?;
    for _ in 0..n {
        let lo = d.u64()?;
        let c = d.u64()?;
        h.record_n(lo, c);
    }
    Ok(h)
}

/// Encodes a [`MissRatioCurve`] as its cumulative-hits prefix sums and
/// total access count.
pub fn enc_mrc(e: &mut Enc, mrc: &MissRatioCurve) {
    e.u64_slice(mrc.cumulative_hits());
    e.u64(mrc.total_accesses());
}

/// Decodes a [`MissRatioCurve`].
pub fn dec_mrc(d: &mut Dec<'_>) -> Result<MissRatioCurve, WireError> {
    let hits = d.u64_vec()?;
    let total = d.u64()?;
    Ok(MissRatioCurve::from_parts(hits, total))
}

/// Encodes a complete [`VolumeMetrics`] record, field by field in
/// declaration order.
pub fn enc_volume_metrics(e: &mut Enc, m: &VolumeMetrics) {
    e.u32(m.id.get());
    e.u64(m.reads);
    e.u64(m.writes);
    e.u64(m.read_bytes);
    e.u64(m.write_bytes);
    e.u64(m.updated_bytes);
    e.u64(m.first_ts.as_micros());
    e.u64(m.last_ts.as_micros());
    e.u64(m.peak_interval_requests);
    enc_histogram(e, &m.read_size_hist);
    enc_histogram(e, &m.write_size_hist);
    enc_histogram(e, &m.interarrival_hist);
    e.u32_slice(&m.active_intervals);
    e.u32_slice(&m.read_active_intervals);
    e.u32_slice(&m.write_active_intervals);
    e.u32_slice(&m.active_days);
    e.u64(m.random_requests);
    e.u64(m.wss_blocks);
    e.u64(m.wss_read_blocks);
    e.u64(m.wss_write_blocks);
    e.u64(m.wss_update_blocks);
    enc_option_shares(e, m.top_read_shares);
    enc_option_shares(e, m.top_write_shares);
    e.u64(m.read_bytes_to_read_mostly);
    e.u64(m.write_bytes_to_write_mostly);
    enc_histogram(e, &m.raw_hist);
    enc_histogram(e, &m.waw_hist);
    enc_histogram(e, &m.rar_hist);
    enc_histogram(e, &m.war_hist);
    enc_histogram(e, &m.update_interval_hist);
    enc_mrc(e, &m.read_mrc);
    enc_mrc(e, &m.write_mrc);
}

/// Decodes a [`VolumeMetrics`] record.
pub fn dec_volume_metrics(d: &mut Dec<'_>) -> Result<VolumeMetrics, WireError> {
    Ok(VolumeMetrics {
        id: VolumeId::new(d.u32()?),
        reads: d.u64()?,
        writes: d.u64()?,
        read_bytes: d.u64()?,
        write_bytes: d.u64()?,
        updated_bytes: d.u64()?,
        first_ts: Timestamp::from_micros(d.u64()?),
        last_ts: Timestamp::from_micros(d.u64()?),
        peak_interval_requests: d.u64()?,
        read_size_hist: dec_histogram(d)?,
        write_size_hist: dec_histogram(d)?,
        interarrival_hist: dec_histogram(d)?,
        active_intervals: d.u32_vec()?,
        read_active_intervals: d.u32_vec()?,
        write_active_intervals: d.u32_vec()?,
        active_days: d.u32_vec()?,
        random_requests: d.u64()?,
        wss_blocks: d.u64()?,
        wss_read_blocks: d.u64()?,
        wss_write_blocks: d.u64()?,
        wss_update_blocks: d.u64()?,
        top_read_shares: dec_option_shares(d)?,
        top_write_shares: dec_option_shares(d)?,
        read_bytes_to_read_mostly: d.u64()?,
        write_bytes_to_write_mostly: d.u64()?,
        raw_hist: dec_histogram(d)?,
        waw_hist: dec_histogram(d)?,
        rar_hist: dec_histogram(d)?,
        war_hist: dec_histogram(d)?,
        update_interval_hist: dec_histogram(d)?,
        read_mrc: dec_mrc(d)?,
        write_mrc: dec_mrc(d)?,
    })
}

fn enc_cache_stats(e: &mut Enc, s: &CacheStats) {
    e.u64(s.read_accesses());
    e.u64(s.read_hits());
    e.u64(s.write_accesses());
    e.u64(s.write_hits());
}

fn dec_cache_stats(d: &mut Dec<'_>) -> Result<CacheStats, WireError> {
    let (ra, rh) = (d.u64()?, d.u64()?);
    let (wa, wh) = (d.u64()?, d.u64()?);
    if rh > ra || wh > wa {
        return Err(WireError::Invalid("cache hits exceed accesses"));
    }
    Ok(CacheStats::from_counts(ra, rh, wa, wh))
}

fn enc_option_mrc(e: &mut Enc, v: &Option<MissRatioCurve>) {
    match v {
        Some(mrc) => {
            e.bool(true);
            enc_mrc(e, mrc);
        }
        None => e.bool(false),
    }
}

fn dec_option_mrc(d: &mut Dec<'_>) -> Result<Option<MissRatioCurve>, WireError> {
    Ok(if d.bool()? { Some(dec_mrc(d)?) } else { None })
}

/// Encodes a [`SweepReport`] via its [`SweepReportParts`].
pub fn enc_sweep_report(e: &mut Enc, report: &SweepReport) {
    let parts = report.clone().into_parts();
    e.u64(parts.lanes.len() as u64);
    for lane in &parts.lanes {
        e.str(&lane.policy);
        e.u64(lane.capacity as u64);
        e.bool(lane.sampled);
        enc_cache_stats(e, &lane.stats);
        e.u64(lane.nanos);
        e.u64(lane.accesses);
    }
    enc_option_mrc(e, &parts.lru_mrc);
    enc_option_mrc(e, &parts.sampled_mrc);
    e.u64(parts.requests);
    e.u64(parts.accesses);
    e.u64(parts.sampled_accesses);
    e.u64(parts.expand_nanos);
    e.f64(parts.sample_rate);
}

/// Decodes a [`SweepReport`].
pub fn dec_sweep_report(d: &mut Dec<'_>) -> Result<SweepReport, WireError> {
    let n = d.u64()?;
    let mut lanes = Vec::new();
    for _ in 0..n {
        lanes.push(LaneReport {
            policy: d.str()?,
            capacity: usize::try_from(d.u64()?)
                .map_err(|_| WireError::Invalid("lane capacity overflows usize"))?,
            sampled: d.bool()?,
            stats: dec_cache_stats(d)?,
            nanos: d.u64()?,
            accesses: d.u64()?,
        });
    }
    Ok(SweepReport::from_parts(SweepReportParts {
        lanes,
        lru_mrc: dec_option_mrc(d)?,
        sampled_mrc: dec_option_mrc(d)?,
        requests: d.u64()?,
        accesses: d.u64()?,
        sampled_accesses: d.u64()?,
        expand_nanos: d.u64()?,
        sample_rate: d.f64()?,
    }))
}

/// Encodes one volume's request stream as a VOLUME payload.
pub fn enc_volume_stream(e: &mut Enc, id: VolumeId, requests: &[IoRequest]) {
    e.u32(id.get());
    e.u64(requests.len() as u64);
    for r in requests {
        e.u8(match r.op() {
            OpKind::Read => 0,
            OpKind::Write => 1,
        });
        e.u64(r.offset());
        e.u32(r.len());
        e.u64(r.ts().as_micros());
    }
}

/// Decodes a VOLUME payload back into `(volume, requests)`. The
/// requests must be in non-decreasing timestamp order, the analyzer's
/// input contract: a controller that breaks it gets an error, not a
/// panicking agent.
pub fn dec_volume_stream(d: &mut Dec<'_>) -> Result<(VolumeId, Vec<IoRequest>), WireError> {
    let id = VolumeId::new(d.u32()?);
    let n = d.u64()?;
    // Each request occupies 21 payload bytes; bound the allocation by
    // what the payload can actually hold.
    if n > (d.buf.len() as u64) / 21 + 1 {
        return Err(WireError::Invalid("request count exceeds payload"));
    }
    let mut reqs: Vec<IoRequest> = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let op = match d.u8()? {
            0 => OpKind::Read,
            1 => OpKind::Write,
            _ => return Err(WireError::Invalid("op byte out of range")),
        };
        let offset = d.u64()?;
        let len = d.u32()?;
        let ts = Timestamp::from_micros(d.u64()?);
        if reqs.last().is_some_and(|prev| ts < prev.ts()) {
            return Err(WireError::Invalid("request timestamps out of order"));
        }
        reqs.push(IoRequest::new(id, op, offset, len, ts));
    }
    Ok((id, reqs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_analysis::{analyze_trace, AnalysisConfig};
    use cbs_trace::Trace;

    fn sample_metrics() -> Vec<VolumeMetrics> {
        let reqs: Vec<IoRequest> = (0..900u64)
            .map(|i| {
                IoRequest::new(
                    VolumeId::new((i % 2) as u32),
                    if i % 3 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    ((i * 13) % 96) * 4096,
                    (((i % 4) + 1) * 4096) as u32,
                    Timestamp::from_micros(i * 50_000),
                )
            })
            .collect();
        analyze_trace(&Trace::from_requests(reqs), &AnalysisConfig::default(), 0)
            .expect("valid config")
    }

    #[test]
    fn volume_metrics_roundtrip_is_bit_exact() {
        for m in sample_metrics() {
            let mut e = Enc::new();
            enc_volume_metrics(&mut e, &m);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            let back = dec_volume_metrics(&mut d).expect("decodes");
            d.finish().expect("no trailing bytes");
            assert_eq!(back, m);
        }
    }

    #[test]
    fn volume_stream_roundtrip() {
        let reqs: Vec<IoRequest> = (0..64u64)
            .map(|i| {
                IoRequest::new(
                    VolumeId::new(7),
                    if i % 2 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    i * 512,
                    4096,
                    Timestamp::from_micros(i),
                )
            })
            .collect();
        let mut e = Enc::new();
        enc_volume_stream(&mut e, VolumeId::new(7), &reqs);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let (id, back) = dec_volume_stream(&mut d).expect("decodes");
        d.finish().expect("no trailing bytes");
        assert_eq!(id, VolumeId::new(7));
        assert_eq!(back, reqs);
    }

    #[test]
    fn frame_roundtrip_over_a_pipe() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_JOB, &[WIRE_VERSION, 0, 0]).expect("writes");
        write_frame(&mut buf, TAG_FIN, &[]).expect("writes");
        let mut cursor = &buf[..];
        let job = read_frame(&mut cursor).expect("reads");
        assert_eq!(
            (job.tag, job.payload.as_slice()),
            (TAG_JOB, &[1u8, 0, 0][..])
        );
        let fin = read_frame(&mut cursor).expect("reads");
        assert_eq!((fin.tag, fin.payload.len()), (TAG_FIN, 0));
        assert!(cursor.is_empty());
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let m = &sample_metrics()[0];
        let mut e = Enc::new();
        enc_volume_metrics(&mut e, m);
        let bytes = e.into_bytes();
        for cut in [0, 1, 4, bytes.len() / 2, bytes.len() - 1] {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(dec_volume_metrics(&mut d).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_length_prefixes_are_rejected() {
        // Oversized frame length.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.push(TAG_JOB);
        assert!(read_frame(&mut &buf[..]).is_err());

        // Vector length prefix larger than the remaining payload.
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.u64_vec().is_err());

        // A VOLUME frame whose timestamps go backwards: an error, since
        // the agent hands the requests to `VolumeView::new`, which
        // asserts time order.
        let req = |us| {
            IoRequest::new(
                VolumeId::new(3),
                OpKind::Read,
                0,
                512,
                Timestamp::from_micros(us),
            )
        };
        let mut e = Enc::new();
        enc_volume_stream(&mut e, VolumeId::new(3), &[req(20), req(20), req(10)]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            dec_volume_stream(&mut d),
            Err(WireError::Invalid("request timestamps out of order"))
        ));
    }
}
