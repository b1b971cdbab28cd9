//! Codec for the MSR Cambridge block-trace CSV format.
//!
//! Rows are `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`:
//!
//! ```text
//! 128166372003061629,hm,1,Read,383496192,32768,113736
//! 128166372016382155,src1,0,Write,8192,4096,23855
//! ```
//!
//! * `Timestamp` and `ResponseTime` — Windows 100 ns ticks (the former
//!   since 1601-01-01, the latter a duration);
//! * `Hostname` + `DiskNumber` — together identify a volume (e.g. the
//!   paper's `src1_0`); the reader assigns each distinct pair a dense
//!   [`VolumeId`] via [`VolumeRegistry`];
//! * `Type` — `Read` or `Write`;
//! * `Offset`, `Size` — bytes.
//!
//! Timestamps are normalized to microseconds (ticks / 10). The response
//! time is preserved on the side ([`MsrcRecord::response_time`]) because
//! the paper's analyses exclude latency but downstream users may want it.
//!
//! Every parser here — [`parse_record`], [`parse_record_bytes`] and the
//! row scanner the parallel decoder's chunk loop tries first — numbers
//! volumes through the one [`VolumeRegistry`] it is handed, whose hit
//! path compares the row's raw host bytes and parsed disk number against
//! names it already holds: the `hostname_disk` string is built once per
//! volume, not once per row.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::io::{BufRead, Write};

use crate::error::{ParseRecordError, TraceError};
use crate::hash::FxHasher;
use crate::{IoRequest, OpKind, TimeDelta, Timestamp, VolumeId};

use super::{field, field_bytes, parse_len, parse_len_bytes, parse_u64, parse_u64_bytes};
use super::{scan_field, scan_line_end, scan_u64};

/// Number of Windows 100 ns ticks per microsecond.
const TICKS_PER_MICRO: u64 = 10;

/// One parsed MSRC row: the normalized request plus the fields the
/// normalized model does not carry (volume name, response time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsrcRecord {
    request: IoRequest,
    response_time: TimeDelta,
}

impl MsrcRecord {
    /// A row's fields, its two times still in Windows ticks.
    fn from_ticks(
        volume: VolumeId,
        op: OpKind,
        offset: u64,
        len: u32,
        ticks: u64,
        response_ticks: u64,
    ) -> Self {
        let ts = Timestamp::from_micros(ticks / TICKS_PER_MICRO);
        MsrcRecord {
            request: IoRequest::new(volume, op, offset, len, ts),
            response_time: TimeDelta::from_micros(response_ticks / TICKS_PER_MICRO),
        }
    }

    /// The normalized request.
    pub fn request(&self) -> &IoRequest {
        &self.request
    }

    /// Consumes the record, returning the normalized request.
    pub fn into_request(self) -> IoRequest {
        self.request
    }

    /// The recorded device response time.
    pub fn response_time(&self) -> TimeDelta {
        self.response_time
    }

    /// Rewrites the record's volume id — used by the parallel decoder to
    /// translate chunk-local registry ids into global ones.
    pub(crate) fn remap_volume(&mut self, id: VolumeId) {
        self.request = IoRequest::new(
            id,
            self.request.op(),
            self.request.offset(),
            self.request.len(),
            self.request.ts(),
        );
    }
}

/// Maps MSRC `(hostname, disk-number)` pairs to dense [`VolumeId`]s.
///
/// Ids are assigned in first-appearance order, so a single-threaded read
/// of a given file set is deterministic.
///
/// # Example
///
/// ```
/// use cbs_trace::codec::msrc::VolumeRegistry;
///
/// let mut reg = VolumeRegistry::new();
/// let a = reg.resolve("src1", 0);
/// let b = reg.resolve("hm", 1);
/// assert_ne!(a, b);
/// assert_eq!(reg.resolve("src1", 0), a); // stable
/// assert_eq!(reg.name_of(a), Some("src1_0"));
/// ```
#[derive(Debug, Default, Clone)]
pub struct VolumeRegistry {
    /// The one source of ids.
    by_name: HashMap<String, VolumeId>,
    names: Vec<String>,
    /// Direct-mapped `(host bytes, disk) → id` cache in front of
    /// `by_name`, empty until the first [`resolve`](Self::resolve). A
    /// slot only ever remembers an answer `by_name` gave, and two volumes
    /// sharing a slot cost each other a probe, never a wrong id.
    recent: Vec<Option<Recent>>,
    /// The name being probed, rebuilt in place on a cache miss.
    scratch: String,
}

/// One cache slot: `names[id]` is `host_len` host bytes, `_`, `disk`.
#[derive(Debug, Clone, Copy)]
struct Recent {
    id: VolumeId,
    host_len: usize,
    disk: u32,
}

/// Slots in [`VolumeRegistry::recent`] (a power of two): a few times the
/// 36 volumes of the whole MSRC release.
const RECENT_SLOTS: usize = 256;

impl VolumeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `(hostname, disk)`, assigning the next dense id
    /// on first sight.
    pub fn resolve(&mut self, hostname: &str, disk: u32) -> VolumeId {
        self.resolve_bytes(hostname.as_bytes(), disk)
    }

    /// [`resolve`](Self::resolve) on a hostname still in the input
    /// buffer (decoded lossily if it is not UTF-8). Allocates only for a
    /// volume's first row.
    ///
    /// The key is the host's bytes and the *parsed* disk number — `00`
    /// and `0` are one disk, and `("a_1", 0)` and `("a", 10)` are two
    /// volumes only because the number is compared as a number.
    #[inline]
    pub(crate) fn resolve_bytes(&mut self, host: &[u8], disk: u32) -> VolumeId {
        let mut hasher = FxHasher::default();
        hasher.write(host);
        hasher.write_u32(disk);
        let slot = hasher.finish() as usize % RECENT_SLOTS;
        if let Some(Some(hit)) = self.recent.get(slot) {
            let name = self.names.get(hit.id.as_usize()).map(String::as_bytes);
            if hit.disk == disk
                && hit.host_len == host.len()
                && name.and_then(|n| n.get(..host.len())) == Some(host)
            {
                return hit.id;
            }
        }
        self.resolve_missed(host, disk, slot)
    }

    /// The cache-miss half of [`resolve_bytes`](Self::resolve_bytes):
    /// builds the name in `scratch`, asks `by_name`, remembers the answer.
    #[cold]
    #[expect(
        clippy::let_underscore_must_use,
        reason = "writing to a String cannot fail"
    )]
    fn resolve_missed(&mut self, host: &[u8], disk: u32, slot: usize) -> VolumeId {
        let text = String::from_utf8_lossy(host);
        let mut name = std::mem::take(&mut self.scratch);
        name.clear();
        // Writing to a `String` cannot fail.
        let _ = write!(name, "{text}_{disk}");
        let id = self.resolve_name(&name);
        self.scratch = name;
        // A host that is not UTF-8 is not a prefix of its own name, so a
        // slot holding it could never hit — and must not claim to.
        if matches!(text, std::borrow::Cow::Borrowed(_)) {
            self.recent.resize(RECENT_SLOTS, None);
            self.recent[slot] = Some(Recent {
                id,
                host_len: host.len(),
                disk,
            });
        }
        id
    }

    /// Returns the id for a pre-joined `hostname_disk` name, assigning
    /// the next dense id on first sight. Used by the parallel decoder to
    /// merge chunk-local registries back into a global one while
    /// preserving first-appearance id order.
    pub fn resolve_name(&mut self, name: &str) -> VolumeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = VolumeId::new(self.names.len() as u32);
        self.by_name.insert(name.to_owned(), id);
        self.names.push(name.to_owned());
        id
    }

    /// Returns the `hostname_disk` name of a previously assigned id.
    pub fn name_of(&self, id: VolumeId) -> Option<&str> {
        self.names.get(id.as_usize()).map(String::as_str)
    }

    /// Returns the id previously assigned to `hostname_disk`, if any.
    pub fn lookup(&self, name: &str) -> Option<VolumeId> {
        self.by_name.get(name).copied()
    }

    /// Number of volumes registered so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no volume has been registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(VolumeId, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (VolumeId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (VolumeId::new(i as u32), n.as_str()))
    }
}

/// Parses one MSRC CSV row, resolving the volume through `registry`.
///
/// # Errors
///
/// Returns a [`ParseRecordError`] describing the first malformed field.
pub fn parse_record(
    line: &str,
    registry: &mut VolumeRegistry,
) -> Result<MsrcRecord, ParseRecordError> {
    let mut fields = line.split(',');
    let timestamp = field(&mut fields, 0, "timestamp")?;
    let hostname = field(&mut fields, 1, "hostname")?;
    let disk = field(&mut fields, 2, "disk_number")?;
    let kind = field(&mut fields, 3, "type")?;
    let offset = field(&mut fields, 4, "offset")?;
    let size = field(&mut fields, 5, "size")?;
    let response = field(&mut fields, 6, "response_time")?;

    let ticks = parse_u64(timestamp, "timestamp")?;
    let disk = parse_u64(disk, "disk_number")?;
    let disk = u32::try_from(disk).map_err(|_| ParseRecordError::OutOfRange {
        name: "disk_number",
        text: disk.to_string(),
    })?;
    let op: OpKind = kind.parse().map_err(|_| ParseRecordError::InvalidOp {
        text: kind.to_owned(),
    })?;
    let offset = parse_u64(offset, "offset")?;
    let len = parse_len(size, "size")?;
    let response_ticks = parse_u64(response, "response_time")?;

    let volume = registry.resolve(hostname, disk);
    Ok(MsrcRecord::from_ticks(
        volume,
        op,
        offset,
        len,
        ticks,
        response_ticks,
    ))
}

/// Parses one MSRC CSV row directly from bytes: the general parser
/// behind [`crate::codec::parallel::ParallelDecoder`], which decides
/// every row its row scanner refuses. Nothing is allocated for a row of
/// a volume the registry has seen.
///
/// Semantics match [`parse_record`] for ASCII input.
///
/// # Errors
///
/// Returns a [`ParseRecordError`] describing the first malformed field.
pub fn parse_record_bytes(
    line: &[u8],
    registry: &mut VolumeRegistry,
) -> Result<MsrcRecord, ParseRecordError> {
    let mut fields = line.split(|&b| b == b',');
    let timestamp = field_bytes(&mut fields, 0, "timestamp")?;
    let hostname = field_bytes(&mut fields, 1, "hostname")?;
    let disk = field_bytes(&mut fields, 2, "disk_number")?;
    let kind = field_bytes(&mut fields, 3, "type")?;
    let offset = field_bytes(&mut fields, 4, "offset")?;
    let size = field_bytes(&mut fields, 5, "size")?;
    let response = field_bytes(&mut fields, 6, "response_time")?;

    let ticks = parse_u64_bytes(timestamp, "timestamp")?;
    let disk = parse_u64_bytes(disk, "disk_number")?;
    let disk = u32::try_from(disk).map_err(|_| ParseRecordError::OutOfRange {
        name: "disk_number",
        text: disk.to_string(),
    })?;
    let op = match kind {
        b"R" | b"r" | b"Read" | b"read" | b"READ" => OpKind::Read,
        b"W" | b"w" | b"Write" | b"write" | b"WRITE" => OpKind::Write,
        _ => {
            return Err(ParseRecordError::InvalidOp {
                text: String::from_utf8_lossy(kind).into_owned(),
            })
        }
    };
    let offset = parse_u64_bytes(offset, "offset")?;
    let len = parse_len_bytes(size, "size")?;
    let response_ticks = parse_u64_bytes(response, "response_time")?;

    let volume = registry.resolve_bytes(hostname, disk);
    Ok(MsrcRecord::from_ticks(
        volume,
        op,
        offset,
        len,
        ticks,
        response_ticks,
    ))
}

/// The row scanner: reads the canonical row
/// `u64,host,u64,Read|Write,u64,u64,u64` and its line end at `*pos` in
/// one pass, leaving `*pos` on the next line. `host` is one or more
/// ASCII-graphic bytes, so it needs no trimming and no lossy decoding.
///
/// `None` refuses the row and is not an error: [`parse_record_bytes`]
/// decides such a line (soundness rule: [module docs](super)). The
/// registry is only touched once the whole row has been accepted.
#[inline]
pub(crate) fn row_at(
    chunk: &[u8],
    pos: &mut usize,
    registry: &mut VolumeRegistry,
) -> Option<MsrcRecord> {
    let ticks = scan_field(chunk, pos)?;
    let rest = chunk.get(*pos..)?;
    let host = rest.get(
        ..rest
            .iter()
            .position(|b| *b == b',' || !b.is_ascii_graphic())?,
    )?;
    if host.is_empty() || rest.get(host.len()) != Some(&b',') {
        return None;
    }
    *pos += host.len() + 1;
    let disk = u32::try_from(scan_field(chunk, pos)?).ok()?;
    let (op, op_len) = match chunk.get(*pos..)? {
        [b'R', b'e', b'a', b'd', b',', ..] => (OpKind::Read, 5),
        [b'W', b'r', b'i', b't', b'e', b',', ..] => (OpKind::Write, 6),
        _ => return None,
    };
    *pos += op_len;
    let offset = scan_field(chunk, pos)?;
    let len = u32::try_from(scan_field(chunk, pos)?).ok()?;
    let response_ticks = scan_u64(chunk, pos)?;
    scan_line_end(chunk, pos)?;
    let volume = registry.resolve_bytes(host, disk);
    Some(MsrcRecord::from_ticks(
        volume,
        op,
        offset,
        len,
        ticks,
        response_ticks,
    ))
}

/// Formats a request (plus metadata) as one MSRC CSV row (no newline).
pub fn format_record(req: &IoRequest, hostname: &str, disk: u32, response: TimeDelta) -> String {
    format!(
        "{},{},{},{},{},{},{}",
        req.ts().as_micros() * TICKS_PER_MICRO,
        hostname,
        disk,
        req.op().as_word(),
        req.offset(),
        req.len(),
        response.as_micros() * TICKS_PER_MICRO,
    )
}

/// Streaming reader over MSRC CSV rows.
///
/// Yields [`MsrcRecord`]s; the volume registry is owned by the reader and
/// can be taken out afterwards via [`MsrcReader::into_registry`] (or
/// borrowed with [`MsrcReader::registry`]) to translate ids back to
/// `hostname_disk` names. A header line starting with `Timestamp,` is
/// skipped automatically.
#[derive(Debug)]
pub struct MsrcReader<R> {
    lines: std::io::Lines<R>,
    registry: VolumeRegistry,
    line_no: u64,
}

impl<R: BufRead> MsrcReader<R> {
    /// Creates a reader over `inner` with a fresh volume registry.
    pub fn new(inner: R) -> Self {
        Self::with_registry(inner, VolumeRegistry::new())
    }

    /// Creates a reader that continues assigning ids in an existing
    /// registry — used when reading a corpus split across many files.
    pub fn with_registry(inner: R, registry: VolumeRegistry) -> Self {
        MsrcReader {
            lines: inner.lines(),
            registry,
            line_no: 0,
        }
    }

    /// The registry accumulated so far.
    pub fn registry(&self) -> &VolumeRegistry {
        &self.registry
    }

    /// Consumes the reader, returning the registry.
    pub fn into_registry(self) -> VolumeRegistry {
        self.registry
    }
}

impl<R: BufRead> Iterator for MsrcReader<R> {
    type Item = Result<MsrcRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.lines.next()? {
                Ok(line) => line,
                Err(e) => return Some(Err(TraceError::Io(e))),
            };
            self.line_no += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if self.line_no == 1 && trimmed.starts_with("Timestamp,") {
                continue; // header
            }
            return Some(
                parse_record(trimmed, &mut self.registry)
                    .map_err(|e| TraceError::parse(self.line_no, e)),
            );
        }
    }
}

/// Streaming writer emitting MSRC CSV rows.
///
/// The writer needs the `hostname`/`disk` identity that [`IoRequest`]
/// does not carry, so rows are written through
/// [`MsrcWriter::write_record`] with explicit identity, or through
/// [`MsrcWriter::write_named`] using a `name` of the `hostname_disk`
/// form.
#[derive(Debug)]
pub struct MsrcWriter<W> {
    inner: W,
}

impl<W: Write> MsrcWriter<W> {
    /// Creates a writer over `inner`.
    pub fn new(inner: W) -> Self {
        MsrcWriter { inner }
    }

    /// Writes one row with explicit volume identity.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_record(
        &mut self,
        req: &IoRequest,
        hostname: &str,
        disk: u32,
        response: TimeDelta,
    ) -> std::io::Result<()> {
        writeln!(
            self.inner,
            "{}",
            format_record(req, hostname, disk, response)
        )
    }

    /// Writes one row deriving identity from a `hostname_disk` name
    /// (the last `_`-separated component is the disk number; if it does
    /// not parse, disk 0 is used and the whole name is the hostname).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_named(
        &mut self,
        req: &IoRequest,
        name: &str,
        response: TimeDelta,
    ) -> std::io::Result<()> {
        let (host, disk) = match name.rsplit_once('_') {
            Some((host, digits)) => match digits.parse::<u32>() {
                Ok(d) => (host, d),
                Err(_) => (name, 0),
            },
            None => (name, 0),
        };
        self.write_record(req, host, disk, response)
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush failure.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROW: &str = "128166372003061629,hm,1,Read,383496192,32768,113736";

    #[test]
    fn parses_release_style_row() {
        let mut reg = VolumeRegistry::new();
        let rec = parse_record(ROW, &mut reg).unwrap();
        let r = rec.request();
        assert_eq!(r.volume(), VolumeId::new(0));
        assert_eq!(reg.name_of(r.volume()), Some("hm_1"));
        assert_eq!(r.op(), OpKind::Read);
        assert_eq!(r.offset(), 383_496_192);
        assert_eq!(r.len(), 32_768);
        // ticks / 10 = microseconds
        assert_eq!(r.ts().as_micros(), 12_816_637_200_306_162);
        assert_eq!(rec.response_time(), TimeDelta::from_micros(11_373));
    }

    #[test]
    fn registry_assigns_dense_stable_ids() {
        let mut reg = VolumeRegistry::new();
        let a = reg.resolve("src1", 0);
        let b = reg.resolve("src1", 1);
        let c = reg.resolve("hm", 0);
        assert_eq!(a, VolumeId::new(0));
        assert_eq!(b, VolumeId::new(1));
        assert_eq!(c, VolumeId::new(2));
        assert_eq!(reg.resolve("src1", 1), b);
        assert_eq!(reg.len(), 3);
        assert!(!reg.is_empty());
        assert_eq!(reg.lookup("hm_0"), Some(c));
        assert_eq!(reg.lookup("nope_9"), None);
        let names: Vec<_> = reg.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(names, vec!["src1_0", "src1_1", "hm_0"]);
    }

    #[test]
    fn byte_parser_matches_str_parser() {
        let lines = [
            ROW,
            "128166372016382155,src1,0,Write,8192,4096,23855",
            " 1 , hm , 1 , read , 0 , 512 , 0 ",
            "1,hm,1,Erase,0,0,0",
            "1,hm,1,Read,0,512",
            "x,hm,1,Read,0,512,0",
            "1,hm,99999999999,Read,0,512,0",
            "0000000000000000000000010,hm,1,Read,0,512,0",
            "1,hm,1,Read,184467440737095516150,512,0",
            "1,\x0Bhm\x0B,1,Read\x0B,0,\x0B512,0",
            "1,hm,1,Read,0,512,0,extra",
            "1,,1,Read,0,512,0",
            "1,h\u{e9},1,Read,0,512,0",
        ];
        for line in lines {
            let mut reg_a = VolumeRegistry::new();
            let mut reg_b = VolumeRegistry::new();
            assert_eq!(
                parse_record_bytes(line.as_bytes(), &mut reg_a),
                parse_record(line, &mut reg_b),
                "{line:?}"
            );
            assert_eq!(reg_a.len(), reg_b.len());
            assert_eq!(
                reg_a.name_of(VolumeId::new(0)),
                reg_b.name_of(VolumeId::new(0))
            );
        }
    }

    #[test]
    fn row_scanner_takes_canonical_rows_only() {
        let scan = |text: &str, reg: &mut VolumeRegistry| {
            let mut pos = 0;
            row_at(text.as_bytes(), &mut pos, reg).map(|rec| (rec, pos))
        };
        for (text, row_len) in [
            (ROW, ROW.len()),
            ("128166372016382155,src1,0,Write,8192,4096,23855\nx", 48),
            ("128166372016382155,src1,0,Write,8192,4096,23855\r\n", 49),
            ("00010,a_1,00,Read,0,0512,0009\n", 30),
            (
                "1,x-y.z#!,4294967295,Write,9999999999999999999,4294967295,19\n",
                61,
            ),
        ] {
            let line = text.lines().next().unwrap();
            let (mut reg_a, mut reg_b) = (VolumeRegistry::new(), VolumeRegistry::new());
            let want = parse_record_bytes(line.as_bytes(), &mut reg_b).unwrap();
            assert_eq!(scan(text, &mut reg_a), Some((want, row_len)), "{text:?}");
            assert_eq!(
                reg_a.name_of(VolumeId::new(0)),
                reg_b.name_of(VolumeId::new(0))
            );
        }
        for text in [
            "",
            "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime",
            " 1,hm,1,Read,0,512,0",
            "1, hm,1,Read,0,512,0",
            "1,hm ,1,Read,0,512,0",
            "1,h m,1,Read,0,512,0",
            "1,,1,Read,0,512,0",
            "1,h\u{e9},1,Read,0,512,0",
            "1,hm,+1,Read,0,512,0",
            "1,hm,1,R,0,512,0",
            "1,hm,1,W,0,512,0",
            "1,hm,1,read,0,512,0",
            "1,hm,1,READ,0,512,0",
            "1,hm,1,Erase,0,512,0",
            "1,hm,1,Readx,0,512,0",
            "1,hm,1,Read,0,512",
            "1,hm,1,Read,0,512,",
            "1,hm,1,Read,0,512,0,extra",
            "1,hm,1,Read,0,512,0 ",
            "1,hm,1,Read,0,512,0\r",
            "1,hm,4294967296,Read,0,512,0",
            "1,hm,1,Read,0,4294967296,0",
            "12345678901234567890,hm,1,Read,0,512,0",
        ] {
            let mut reg = VolumeRegistry::new();
            assert_eq!(scan(text, &mut reg), None, "{text:?}");
            assert!(reg.is_empty(), "a refused row interned a volume: {text:?}");
        }
    }

    /// The `format!`-and-probe interner `resolve` used to be.
    #[derive(Default)]
    struct NaiveRegistry {
        by_name: HashMap<String, u32>,
        names: Vec<String>,
    }

    impl NaiveRegistry {
        fn resolve(&mut self, host: &[u8], disk: u32) -> u32 {
            let name = format!("{}_{disk}", String::from_utf8_lossy(host));
            let next = self.names.len() as u32;
            *self.by_name.entry(name.clone()).or_insert_with(|| {
                self.names.push(name);
                next
            })
        }
    }

    #[test]
    fn interning_matches_format_and_probe() {
        // Hosts and disks whose names collide or nearly do, hosts that
        // are not UTF-8 (distinct bytes, one lossy name), and more
        // volumes than the cache has slots, visited in interleaved order
        // three times over.
        let mut keys: Vec<(Vec<u8>, u32)> = vec![
            (b"a_1".to_vec(), 0),
            (b"a".to_vec(), 10),
            (b"a".to_vec(), 1),
            (b"a_1".to_vec(), 10),
            (b"".to_vec(), 0),
            (b"_".to_vec(), 0),
            (vec![0x80], 0),
            (vec![0x81], 0),
            (vec![0xEF, 0xBF, 0xBD], 0),
            (vec![0x80, 0x80], 0),
            (vec![0xEF, 0xBF], 0),
            (vec![0xF0, 0x90, 0x80], 0),
            ("h\u{e9}".as_bytes().to_vec(), 7),
        ];
        for i in 0..3 * RECENT_SLOTS as u32 {
            keys.push((format!("host{}", i % 97).into_bytes(), i / 97));
        }
        let mut registry = VolumeRegistry::new();
        let mut naive = NaiveRegistry::default();
        // A name merged in from another registry keeps its id when the
        // same volume later arrives as (host, disk).
        assert_eq!(
            registry.resolve_name("host5_2").get(),
            naive.resolve(b"host5", 2)
        );
        for round in 0..3 {
            for step in 0..keys.len() {
                let (host, disk) = &keys[(step * 7 + round) % keys.len()];
                assert_eq!(
                    registry.resolve_bytes(host, *disk).get(),
                    naive.resolve(host, *disk),
                    "{host:?} {disk}"
                );
            }
        }
        let names: Vec<&str> = registry.iter().map(|(_, name)| name).collect();
        assert_eq!(names, naive.names);
        // What makes a cache hit sound: a slot's name is its host bytes,
        // `_`, its disk (so no slot holds a lossily decoded host).
        for hit in registry.recent.iter().flatten() {
            let name = names[hit.id.as_usize()].as_bytes();
            let mut rebuilt = name[..hit.host_len].to_vec();
            rebuilt.extend(format!("_{}", hit.disk).bytes());
            assert_eq!(name, rebuilt);
        }
        assert_eq!(registry.len(), naive.names.len());
        for (id, name) in naive.names.iter().enumerate() {
            assert_eq!(registry.lookup(name), Some(VolumeId::new(id as u32)));
        }
        // `resolve` and `parse_record` go through the same interner.
        assert_eq!(registry.resolve("a_1", 0).get(), naive.resolve(b"a_1", 0));
        assert_eq!(registry.resolve("a", 10).get(), naive.resolve(b"a", 10));
        assert_ne!(registry.resolve("a_1", 0), registry.resolve("a", 10));
        assert_eq!(registry.len(), naive.names.len());
    }

    #[test]
    fn resolve_name_matches_resolve() {
        let mut reg = VolumeRegistry::new();
        let a = reg.resolve_name("src1_0");
        assert_eq!(reg.resolve("src1", 0), a);
        assert_eq!(reg.name_of(a), Some("src1_0"));
    }

    #[test]
    fn reader_skips_header_and_blank_lines() {
        let text = format!(
            "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n{ROW}\n\n{ROW}\n"
        );
        let reader = MsrcReader::new(text.as_bytes());
        let recs: Vec<_> = reader.collect::<Result<_, _>>().unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn reader_reports_line_numbers() {
        let text = format!("{ROW}\n128,hm,1,Erase,0,0,0\n");
        let results: Vec<_> = MsrcReader::new(text.as_bytes()).collect();
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().unwrap_err().line(), Some(2));
    }

    #[test]
    fn shared_registry_across_files() {
        let reader1 = MsrcReader::new(ROW.as_bytes());
        let (recs1, reg) = reader1.by_ref_collect();
        let reader2 = MsrcReader::with_registry(ROW.as_bytes(), reg);
        let recs2: Vec<_> = reader2.collect::<Result<_, _>>().unwrap();
        // Same (hostname, disk) pair resolves to the same id in file 2.
        assert_eq!(recs2[0].request().volume(), recs1[0].request().volume());
    }

    // Helper: collect records and return the registry too.
    trait ByRefCollect {
        fn by_ref_collect(self) -> (Vec<MsrcRecord>, VolumeRegistry);
    }
    impl<R: BufRead> ByRefCollect for MsrcReader<R> {
        fn by_ref_collect(mut self) -> (Vec<MsrcRecord>, VolumeRegistry) {
            let mut out = Vec::new();
            for item in &mut self {
                out.push(item.unwrap());
            }
            (out, self.into_registry())
        }
    }

    #[test]
    fn format_parse_roundtrip() {
        let req = IoRequest::new(
            VolumeId::new(0),
            OpKind::Write,
            8192,
            4096,
            Timestamp::from_micros(55),
        );
        let line = format_record(&req, "src1", 0, TimeDelta::from_micros(7));
        let mut reg = VolumeRegistry::new();
        let rec = parse_record(&line, &mut reg).unwrap();
        assert_eq!(rec.request(), &req);
        assert_eq!(rec.response_time(), TimeDelta::from_micros(7));
        assert_eq!(reg.name_of(VolumeId::new(0)), Some("src1_0"));
    }

    #[test]
    fn writer_named_splits_disk_suffix() {
        let req = IoRequest::new(
            VolumeId::new(0),
            OpKind::Read,
            0,
            512,
            Timestamp::from_micros(1),
        );
        let mut buf = Vec::new();
        {
            let mut w = MsrcWriter::new(&mut buf);
            w.write_named(&req, "proj_2", TimeDelta::ZERO).unwrap();
            w.write_named(&req, "weird", TimeDelta::ZERO).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert!(lines.next().unwrap().contains(",proj,2,"));
        assert!(lines.next().unwrap().contains(",weird,0,"));
    }

    #[test]
    fn missing_field_named() {
        let mut reg = VolumeRegistry::new();
        let e = parse_record("1,hm,1,Read,0,512", &mut reg).unwrap_err();
        assert!(matches!(
            e,
            ParseRecordError::MissingField {
                name: "response_time",
                ..
            }
        ));
    }

    #[test]
    fn into_request_moves_out() {
        let mut reg = VolumeRegistry::new();
        let rec = parse_record(ROW, &mut reg).unwrap();
        let req = rec.clone().into_request();
        assert_eq!(&req, rec.request());
    }
}
