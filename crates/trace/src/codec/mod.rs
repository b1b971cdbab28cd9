//! On-disk trace codecs.
//!
//! Two CSV dialects are supported, one per trace family analyzed in the
//! paper:
//!
//! * [`alicloud`] — the format of the Alibaba `block-traces` release:
//!   `device_id,opcode,offset,length,timestamp`, with `opcode` in
//!   `{R, W}` and `timestamp` in microseconds.
//! * [`msrc`] — the format of the MSR Cambridge release on SNIA:
//!   `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`, with
//!   `Timestamp`/`ResponseTime` in Windows 100 ns ticks and `Type` in
//!   `{Read, Write}`.
//!
//! Both readers are plain-`Iterator` line parsers over any
//! [`std::io::BufRead`] source, yield `Result<_, TraceError>` items with
//! one-based line numbers on failure, skip blank lines, and never
//! allocate per record on the happy path ([`msrc::VolumeRegistry`]
//! builds a volume's name once, not once per row).
//!
//! Each dialect has two parsers over bytes. The *general* one
//! (`parse_record_bytes`) defines what a row means — it trims fields,
//! takes every opcode spelling, ignores extra trailing fields — and is
//! the only producer of [`ParseRecordError`]s. The *row scanner*
//! (`row_at`) reads one canonical row and its line end in a single pass,
//! eight digits at a time ([`scan_u64`]), and refuses everything else.
//! **Soundness rule: the scanner may refuse any row; it may never accept
//! a row the general parser rejects, nor yield different fields.** A
//! refusal is never an error: [`parallel`]'s chunk loop hands that one
//! line to the general parser.
//!
//! In addition to the CSV dialects, [`cbt`] implements the **columnar
//! binary trace format**: a compact delta/varint-encoded representation
//! that a CSV corpus is converted to once (via `cbs-convert`) and then
//! re-ingested at a large multiple of CSV decode speed.

pub mod alicloud;
pub mod cbt;
pub mod files;
pub mod msrc;
pub mod parallel;

use crate::error::ParseRecordError;

/// Splits `line` on commas and returns field `index`, or a
/// `MissingField` error naming it.
pub(crate) fn field<'a>(
    fields: &mut std::str::Split<'a, char>,
    index: usize,
    name: &'static str,
) -> Result<&'a str, ParseRecordError> {
    fields
        .next()
        .map(str::trim)
        .ok_or(ParseRecordError::MissingField { index, name })
}

/// Parses an unsigned integer field.
pub(crate) fn parse_u64(text: &str, name: &'static str) -> Result<u64, ParseRecordError> {
    text.parse::<u64>()
        .map_err(|_| ParseRecordError::InvalidNumber {
            name,
            text: text.to_owned(),
        })
}

/// Parses a request-length field into `u32`, reporting overflow as
/// `OutOfRange` (the real corpora never exceed a few MiB per request).
pub(crate) fn parse_len(text: &str, name: &'static str) -> Result<u32, ParseRecordError> {
    let wide = parse_u64(text, name)?;
    u32::try_from(wide).map_err(|_| ParseRecordError::OutOfRange {
        name,
        text: text.to_owned(),
    })
}

// --- byte-slice fast path -------------------------------------------------
//
// The parallel decoder parses fields straight out of the input buffer,
// skipping the per-line `String` allocation and UTF-8 validation of the
// `str` path. Semantics match the `str` parsers for ASCII input (the
// only kind the corpora contain): fields are trimmed of ASCII
// whitespace, and error payloads carry the lossily-decoded field text.

/// The ASCII bytes `str::trim` strips: `u8::is_ascii_whitespace` plus
/// vertical tab, which `char::is_whitespace` counts and it does not.
fn is_trimmed(byte: u8) -> bool {
    byte.is_ascii_whitespace() || byte == 0x0B
}

/// Trims ASCII whitespace from both ends of a byte field, as
/// `str::trim` does for ASCII text.
pub(crate) fn trim_ascii(mut bytes: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = bytes {
        if is_trimmed(*first) {
            bytes = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., last] = bytes {
        if is_trimmed(*last) {
            bytes = rest;
        } else {
            break;
        }
    }
    bytes
}

/// Splits off the next comma-separated field of `line`, trimmed, or a
/// `MissingField` error naming it.
pub(crate) fn field_bytes<'a>(
    fields: &mut std::slice::Split<'a, u8, impl FnMut(&u8) -> bool>,
    index: usize,
    name: &'static str,
) -> Result<&'a [u8], ParseRecordError> {
    fields
        .next()
        .map(trim_ascii)
        .ok_or(ParseRecordError::MissingField { index, name })
}

/// Parses an unsigned decimal integer directly from bytes.
pub(crate) fn parse_u64_bytes(bytes: &[u8], name: &'static str) -> Result<u64, ParseRecordError> {
    let invalid = || ParseRecordError::InvalidNumber {
        name,
        text: String::from_utf8_lossy(bytes).into_owned(),
    };
    // `str::parse::<u64>` accepts one leading `+`.
    let digits = match bytes {
        [b'+', rest @ ..] => rest,
        _ => bytes,
    };
    if digits.is_empty() {
        return Err(invalid());
    }
    // Leading zeros may make a valid field any length (`str::parse`
    // agrees): overflow is the arithmetic's call.
    let mut value: u64 = 0;
    for &b in digits {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return Err(invalid());
        }
        value = value
            .checked_mul(10)
            .and_then(|v| v.checked_add(u64::from(digit)))
            .ok_or_else(invalid)?;
    }
    Ok(value)
}

/// Byte-slice counterpart of [`parse_len`].
pub(crate) fn parse_len_bytes(bytes: &[u8], name: &'static str) -> Result<u32, ParseRecordError> {
    let wide = parse_u64_bytes(bytes, name)?;
    u32::try_from(wide).map_err(|_| ParseRecordError::OutOfRange {
        name,
        text: String::from_utf8_lossy(bytes).into_owned(),
    })
}

// --- row scanner ----------------------------------------------------------

/// `POW10[k]` scales an accumulator past `k` further digits.
#[rustfmt::skip]
const POW10: [u64; 9] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// The most decimal digits that cannot overflow a `u64`.
const MAX_SCAN_DIGITS: usize = 19;

/// Scans the run of ASCII digits at `*pos`, eight at a time, and leaves
/// `*pos` on the byte that ended it. `None` for no digit and for 20 or
/// more: a scanned number cannot overflow, so what an overflow means
/// stays [`parse_u64_bytes`]' decision alone.
#[inline]
pub(crate) fn scan_u64(chunk: &[u8], pos: &mut usize) -> Option<u64> {
    let (mut value, mut digits) = (0u64, 0usize);
    loop {
        // The next eight bytes; past the chunk's end, NULs (no digits).
        let word = match chunk.get(*pos..*pos + 8).map(<[u8; 8]>::try_from) {
            Some(Ok(word)) => word,
            _ => {
                let mut word = [0u8; 8];
                let rest = chunk.get(*pos..)?;
                word[..rest.len()].copy_from_slice(rest);
                word
            }
        };
        // Digits become 0..=9. Bit 7 of `not_digit` marks a byte whose
        // low seven bits are 10 or more (adding 0x76 carries into bit 7,
        // never out of the byte) or whose own bit 7 is set.
        let x = u64::from_le_bytes(word) ^ 0x3030_3030_3030_3030;
        let not_digit =
            (((x & 0x7f7f_7f7f_7f7f_7f7f) + 0x7676_7676_7676_7676) | x) & 0x8080_8080_8080_8080;
        let k = (not_digit.trailing_zeros() / 8) as usize;
        digits += k;
        if k == 0 || digits > MAX_SCAN_DIGITS {
            return (k == 0 && digits > 0).then_some(value);
        }
        // The first digit is the lowest byte: shifting the k digits to
        // the top pads with leading decimal zeros, then three
        // multiply-mask steps fold pairs, quads and all eight.
        let x = x << (8 * (8 - k));
        let x = ((x & 0x0f00_0f00_0f00_0f00) >> 8) + (x & 0x000f_000f_000f_000f) * 10;
        let x = ((x & 0x00ff_0000_00ff_0000) >> 16) + (x & 0x0000_00ff_0000_00ff) * 100;
        let x = ((x & 0x0000_ffff_0000_0000) >> 32) + (x & 0x0000_0000_0000_ffff) * 10_000;
        value = value * POW10[k] + x;
        *pos += k;
        if k < 8 {
            return Some(value);
        }
    }
}

/// Scans `digits ,` — every field of a row but its last.
#[inline]
pub(crate) fn scan_field(chunk: &[u8], pos: &mut usize) -> Option<u64> {
    let value = scan_u64(chunk, pos)?;
    (*chunk.get(*pos)? == b',').then(|| *pos += 1)?;
    Some(value)
}

/// Steps `*pos` over the end of a row — the chunk's end, `\n` or
/// `\r\n` — onto the next line. Anything else (padding, an extra field,
/// a lone `\r`) is `None`.
#[inline]
pub(crate) fn scan_line_end(chunk: &[u8], pos: &mut usize) -> Option<()> {
    match chunk.get(*pos..)? {
        [] => {}
        [b'\n', ..] => *pos += 1,
        [b'\r', b'\n', ..] => *pos += 2,
        _ => return None,
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_ascii_matches_str_trim() {
        for s in [
            "",
            " ",
            "a",
            " a ",
            "\t4096\r",
            "  1 2  ",
            "\x0B7\x0B\x0C",
            "\x0B",
        ] {
            assert_eq!(trim_ascii(s.as_bytes()), s.trim().as_bytes(), "{s:?}");
        }
    }

    #[test]
    fn parse_u64_bytes_matches_str_parse() {
        for s in [
            "0",
            "1",
            "4096",
            "18446744073709551615",
            "1577808000000046",
            "+1",
            "0000000000000000000000001",
            "+00000000000000000000018446744073709551615",
        ] {
            assert_eq!(
                parse_u64_bytes(s.as_bytes(), "f").unwrap(),
                s.parse::<u64>().unwrap()
            );
        }
        for s in [
            "",
            "abc",
            "-1",
            "1.5",
            "18446744073709551616",
            "184467440737095516150",
            "000018446744073709551616",
            "1e9",
            "+",
            "++1",
        ] {
            assert!(parse_u64_bytes(s.as_bytes(), "f").is_err(), "{s:?}");
            assert!(s.parse::<u64>().is_err(), "{s:?}");
        }
    }

    #[test]
    fn scan_u64_matches_parse_u64_bytes() {
        // Every digit count around the 8-byte word and the 19-digit
        // limit, starting at every alignment, with every distance from
        // the end of the digits to the end of the chunk.
        for digits in 1..=21usize {
            for fill in [b'0', b'1', b'9'] {
                for lead in 0..=8usize {
                    for tail in 0..=8usize {
                        let mut chunk = vec![b','; lead];
                        chunk.extend((0..digits).map(|i| if i % 3 == 0 { fill } else { b'7' }));
                        let end = chunk.len();
                        chunk.extend(b",x\n123456".iter().take(tail));
                        let field = &chunk[lead..end];
                        let mut pos = lead;
                        let scanned = scan_u64(&chunk, &mut pos);
                        let what = format!("{:?} lead {lead} tail {tail}", field);
                        if digits <= MAX_SCAN_DIGITS {
                            assert_eq!(scanned, parse_u64_bytes(field, "f").ok(), "{what}");
                            assert_eq!(pos, end, "{what}");
                        } else {
                            assert_eq!(scanned, None, "{what}");
                        }
                    }
                }
            }
        }
        // The largest value the scanner takes, and no digit at all.
        let mut pos = 0;
        assert_eq!(
            scan_u64(b"9999999999999999999,", &mut pos),
            Some(9_999_999_999_999_999_999)
        );
        for refused in ["", ",", "+1", " 1", "-1", "\n"] {
            let mut pos = 0;
            assert_eq!(scan_u64(refused.as_bytes(), &mut pos), None, "{refused:?}");
            assert_eq!(pos, 0);
        }
        // Bytes with the high bit set are not digits (0xB0 ^ 0x30 = 0x80).
        let mut pos = 0;
        assert_eq!(scan_u64(b"12\xB0\xB9\xFF345,", &mut pos), Some(12));
        assert_eq!(pos, 2);
    }

    #[test]
    fn scan_line_end_takes_lf_crlf_and_the_chunk_end_only() {
        for (input, want) in [
            ("", Some(0)),
            ("\n", Some(1)),
            ("\nx", Some(1)),
            ("\r\n", Some(2)),
            ("\r", None),
            ("\rx", None),
            (" \n", None),
            (",5\n", None),
        ] {
            let mut pos = 0;
            let got = scan_line_end(input.as_bytes(), &mut pos).map(|()| pos);
            assert_eq!(got, want, "{input:?}");
        }
    }

    #[test]
    fn parse_len_bytes_reports_overflow() {
        assert!(matches!(
            parse_len_bytes(b"99999999999", "length"),
            Err(ParseRecordError::OutOfRange { name: "length", .. })
        ));
        assert_eq!(parse_len_bytes(b"4096", "length").unwrap(), 4096);
    }
}
