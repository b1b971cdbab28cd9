//! Codec for the Alibaba `block-traces` CSV format.
//!
//! Rows are `device_id,opcode,offset,length,timestamp`:
//!
//! ```text
//! 419,W,366131200,4096,1577808000000046
//! 725,R,1054515200,16384,1577808000000134
//! ```
//!
//! * `device_id` — integer volume id (the release numbers volumes 0-999);
//! * `opcode` — `R` or `W`;
//! * `offset`, `length` — bytes;
//! * `timestamp` — microseconds (the release uses Unix microseconds;
//!   the reader keeps them verbatim, so the trace epoch is the Unix epoch).

use std::io::{BufRead, Write};

use crate::error::{ParseRecordError, TraceError};
use crate::{IoRequest, OpKind, Timestamp, VolumeId};

use super::{field, field_bytes, parse_len, parse_len_bytes, parse_u64, parse_u64_bytes};
use super::{scan_field, scan_line_end, scan_u64};

/// Parses one AliCloud CSV row into an [`IoRequest`].
///
/// # Errors
///
/// Returns a [`ParseRecordError`] describing the first malformed field.
///
/// # Example
///
/// ```
/// use cbs_trace::codec::alicloud::parse_record;
/// use cbs_trace::OpKind;
///
/// let r = parse_record("419,W,366131200,4096,1577808000000046").unwrap();
/// assert_eq!(r.volume().get(), 419);
/// assert_eq!(r.op(), OpKind::Write);
/// assert_eq!(r.len(), 4096);
/// ```
pub fn parse_record(line: &str) -> Result<IoRequest, ParseRecordError> {
    let mut fields = line.split(',');
    let device = field(&mut fields, 0, "device_id")?;
    let opcode = field(&mut fields, 1, "opcode")?;
    let offset = field(&mut fields, 2, "offset")?;
    let length = field(&mut fields, 3, "length")?;
    let timestamp = field(&mut fields, 4, "timestamp")?;

    let device = parse_u64(device, "device_id")?;
    let device = u32::try_from(device).map_err(|_| ParseRecordError::OutOfRange {
        name: "device_id",
        text: device.to_string(),
    })?;
    let op: OpKind = opcode.parse().map_err(|_| ParseRecordError::InvalidOp {
        text: opcode.to_owned(),
    })?;
    let offset = parse_u64(offset, "offset")?;
    let len = parse_len(length, "length")?;
    let ts = parse_u64(timestamp, "timestamp")?;

    Ok(IoRequest::new(
        VolumeId::new(device),
        op,
        offset,
        len,
        Timestamp::from_micros(ts),
    ))
}

/// Parses one AliCloud CSV row directly from bytes — the allocation-free
/// fast path used by [`crate::codec::parallel::ParallelDecoder`].
///
/// Semantics match [`parse_record`] for ASCII input (all the release
/// contains): fields are trimmed of ASCII whitespace and integers are
/// parsed in place, with no per-line `String` allocation on the happy
/// path.
///
/// # Errors
///
/// Returns a [`ParseRecordError`] describing the first malformed field.
pub fn parse_record_bytes(line: &[u8]) -> Result<IoRequest, ParseRecordError> {
    let mut fields = line.split(|&b| b == b',');
    let device = field_bytes(&mut fields, 0, "device_id")?;
    let opcode = field_bytes(&mut fields, 1, "opcode")?;
    let offset = field_bytes(&mut fields, 2, "offset")?;
    let length = field_bytes(&mut fields, 3, "length")?;
    let timestamp = field_bytes(&mut fields, 4, "timestamp")?;

    let device = parse_u64_bytes(device, "device_id")?;
    let device = u32::try_from(device).map_err(|_| ParseRecordError::OutOfRange {
        name: "device_id",
        text: device.to_string(),
    })?;
    let op = match opcode {
        b"R" | b"r" | b"Read" | b"read" | b"READ" => OpKind::Read,
        b"W" | b"w" | b"Write" | b"write" | b"WRITE" => OpKind::Write,
        _ => {
            return Err(ParseRecordError::InvalidOp {
                text: String::from_utf8_lossy(opcode).into_owned(),
            })
        }
    };
    let offset = parse_u64_bytes(offset, "offset")?;
    let len = parse_len_bytes(length, "length")?;
    let ts = parse_u64_bytes(timestamp, "timestamp")?;

    Ok(IoRequest::new(
        VolumeId::new(device),
        op,
        offset,
        len,
        Timestamp::from_micros(ts),
    ))
}

/// The row scanner: reads the canonical row `u64,[RW],u64,u64,u64` and
/// its line end at `*pos` in one pass, leaving `*pos` on the next line.
///
/// `None` refuses the row — padding, another opcode spelling, a `+`, 20
/// or more digits, a device or length past `u32`, an empty or extra
/// field — and is not an error: [`parse_record_bytes`] decides such a
/// line (see the soundness rule in the [module docs](super)).
#[inline]
pub(crate) fn row_at(chunk: &[u8], pos: &mut usize) -> Option<IoRequest> {
    let device = u32::try_from(scan_field(chunk, pos)?).ok()?;
    let op = match chunk.get(*pos..*pos + 2)? {
        b"R," => OpKind::Read,
        b"W," => OpKind::Write,
        _ => return None,
    };
    *pos += 2;
    let offset = scan_field(chunk, pos)?;
    let len = u32::try_from(scan_field(chunk, pos)?).ok()?;
    let ts = scan_u64(chunk, pos)?;
    scan_line_end(chunk, pos)?;
    Some(IoRequest::new(
        VolumeId::new(device),
        op,
        offset,
        len,
        Timestamp::from_micros(ts),
    ))
}

/// Formats an [`IoRequest`] as one AliCloud CSV row (without newline).
pub fn format_record(req: &IoRequest) -> String {
    format!(
        "{},{},{},{},{}",
        req.volume().get(),
        req.op().as_char(),
        req.offset(),
        req.len(),
        req.ts().as_micros()
    )
}

/// Streaming reader over AliCloud CSV rows.
///
/// Yields `Result<IoRequest, TraceError>`; blank lines are skipped, and
/// parse failures carry their one-based line number. The reader can be
/// passed a `&mut R` if the caller wants to keep ownership of the
/// underlying reader (see C-RW-VALUE).
#[derive(Debug)]
pub struct AliCloudReader<R> {
    lines: std::io::Lines<R>,
    line_no: u64,
}

impl<R: BufRead> AliCloudReader<R> {
    /// Creates a reader over `inner`.
    pub fn new(inner: R) -> Self {
        AliCloudReader {
            lines: inner.lines(),
            line_no: 0,
        }
    }
}

impl<R: BufRead> Iterator for AliCloudReader<R> {
    type Item = Result<IoRequest, TraceError>;

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
            return Some(parse_record(trimmed).map_err(|e| TraceError::parse(self.line_no, e)));
        }
    }
}

/// Streaming writer emitting AliCloud CSV rows.
#[derive(Debug)]
pub struct AliCloudWriter<W> {
    inner: W,
}

impl<W: Write> AliCloudWriter<W> {
    /// Creates a writer over `inner`. A `&mut W` is accepted as well.
    pub fn new(inner: W) -> Self {
        AliCloudWriter { inner }
    }

    /// Writes one request as a CSV row.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_request(&mut self, req: &IoRequest) -> std::io::Result<()> {
        writeln!(self.inner, "{}", format_record(req))
    }

    /// Writes every request from an iterator.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_all<'a, I>(&mut self, requests: I) -> std::io::Result<()>
    where
        I: IntoIterator<Item = &'a IoRequest>,
    {
        for req in requests {
            self.write_request(req)?;
        }
        Ok(())
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

    fn sample() -> IoRequest {
        IoRequest::new(
            VolumeId::new(419),
            OpKind::Write,
            366_131_200,
            4096,
            Timestamp::from_micros(1_577_808_000_000_046),
        )
    }

    #[test]
    fn parses_release_style_row() {
        let r = parse_record("419,W,366131200,4096,1577808000000046").unwrap();
        assert_eq!(r, sample());
    }

    #[test]
    fn parses_with_whitespace() {
        let r = parse_record(" 419 , W , 366131200 , 4096 , 1577808000000046 ").unwrap();
        assert_eq!(r, sample());
    }

    #[test]
    fn format_parse_roundtrip() {
        let r = sample();
        assert_eq!(parse_record(&format_record(&r)).unwrap(), r);
    }

    #[test]
    fn byte_parser_matches_str_parser() {
        let lines = [
            "419,W,366131200,4096,1577808000000046",
            " 419 , W , 366131200 , 4096 , 1577808000000046 ",
            "725,r,0,512,1",
            "0,Read,18446744073709551615,4194304,0",
            "419,W,366131200,4096",
            "419,X,1,1,1",
            "419,R,abc,1,1",
            "419,R,0,99999999999,1",
            "99999999999,R,0,1,1",
            "",
            ",,,,",
            "1,R,0000000000000000000000002,3,4",
            "1,R,184467440737095516150,3,4",
            "\x0B1,R\x0B,2,\x0B3\x0B,4\x0B",
            "1,R,2,3,4,5",
        ];
        for line in lines {
            assert_eq!(
                parse_record_bytes(line.as_bytes()),
                parse_record(line),
                "{line:?}"
            );
        }
    }

    #[test]
    fn row_scanner_takes_canonical_rows_only() {
        let scan = |text: &str| {
            let mut pos = 0;
            row_at(text.as_bytes(), &mut pos).map(|req| (req, pos))
        };
        // Accepted rows mean what the general parser says they mean.
        for (text, row_len) in [
            ("419,W,366131200,4096,1577808000000046", 37),
            ("419,W,366131200,4096,1577808000000046\n7,R,0,0,0\n", 38),
            ("419,W,366131200,4096,1577808000000046\r\n", 39),
            ("007,R,00,0512,0000000000000000001\n", 34),
            ("4294967295,R,9999999999999999999,4294967295,0", 45),
        ] {
            let line = text.lines().next().unwrap();
            assert_eq!(
                scan(text),
                Some((parse_record_bytes(line.as_bytes()).unwrap(), row_len)),
                "{text:?}"
            );
        }
        // Refused rows: some are valid (the general parser decides).
        for text in [
            "",
            "\n",
            " 419,W,0,4096,10",
            "419 ,W,0,4096,10",
            "419,W,0,4096,10 \n",
            "419,W,0,4096,10\t",
            "+419,W,0,4096,10",
            "419,W,+0,4096,10",
            "419,r,0,4096,10",
            "419,w,0,4096,10",
            "419,Read,0,4096,10",
            "419,READ,0,4096,10",
            "419,X,0,4096,10",
            "419,,0,4096,10",
            "419,W,,4096,10",
            ",W,0,4096,10",
            "419,W,0,4096,",
            "419,W,0,4096",
            "419,W,0,4096,10,5",
            "419,W,0,4096,10,",
            "419,W,0,4096,10\r",
            "419,W,0,4096,10\r7,R,0,0,0\n",
            "4294967296,W,0,4096,10",
            "419,W,0,4294967296,10",
            "419,W,12345678901234567890,4096,10",
            "419,W,0,4096,00000000000000000010",
        ] {
            assert_eq!(scan(text), None, "{text:?}");
        }
    }

    #[test]
    fn missing_field() {
        let e = parse_record("419,W,366131200,4096").unwrap_err();
        assert!(matches!(
            e,
            ParseRecordError::MissingField {
                name: "timestamp",
                ..
            }
        ));
    }

    #[test]
    fn invalid_opcode() {
        let e = parse_record("419,X,1,1,1").unwrap_err();
        assert!(matches!(e, ParseRecordError::InvalidOp { .. }));
    }

    #[test]
    fn invalid_number() {
        let e = parse_record("419,R,abc,1,1").unwrap_err();
        assert!(matches!(
            e,
            ParseRecordError::InvalidNumber { name: "offset", .. }
        ));
    }

    #[test]
    fn oversized_length_is_out_of_range() {
        let e = parse_record("419,R,0,99999999999,1").unwrap_err();
        assert!(matches!(
            e,
            ParseRecordError::OutOfRange { name: "length", .. }
        ));
    }

    #[test]
    fn oversized_device_is_out_of_range() {
        let e = parse_record("99999999999,R,0,1,1").unwrap_err();
        assert!(matches!(
            e,
            ParseRecordError::OutOfRange {
                name: "device_id",
                ..
            }
        ));
    }

    #[test]
    fn reader_skips_blank_lines_and_counts_lines() {
        let text = "419,W,0,4096,10\n\n  \n725,R,4096,512,20\n";
        let reqs: Vec<_> = AliCloudReader::new(text.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[1].volume(), VolumeId::new(725));
    }

    #[test]
    fn reader_reports_line_numbers() {
        let text = "419,W,0,4096,10\nbogus row\n";
        let results: Vec<_> = AliCloudReader::new(text.as_bytes()).collect();
        assert!(results[0].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert_eq!(err.line(), Some(2));
    }

    #[test]
    fn writer_roundtrip_many() {
        let reqs: Vec<IoRequest> = (0..100)
            .map(|i| {
                IoRequest::new(
                    VolumeId::new(i % 7),
                    if i % 3 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    u64::from(i) * 4096,
                    512 * (i + 1),
                    Timestamp::from_micros(u64::from(i) * 1000),
                )
            })
            .collect();
        let mut buf = Vec::new();
        AliCloudWriter::new(&mut buf).write_all(&reqs).unwrap();
        let back: Vec<IoRequest> = AliCloudReader::new(&buf[..])
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, reqs);
    }

    #[test]
    fn into_inner_flushes() {
        let mut w = AliCloudWriter::new(std::io::BufWriter::new(Vec::new()));
        w.write_request(&sample()).unwrap();
        let buf = w.into_inner().unwrap().into_inner().unwrap();
        assert!(!buf.is_empty());
    }
}
