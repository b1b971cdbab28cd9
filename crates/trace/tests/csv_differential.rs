//! Differential test of the parallel CSV decoder against the sequential
//! readers, over files built from canonical rows and mutation operators.
//!
//! [`ParallelDecoder`]'s chunk loop reads canonical rows with a one-pass
//! row scanner and hands every other line to the general parser. The
//! sequential [`AliCloudReader`] / [`MsrcReader`] know nothing of either:
//! they cut lines with `BufRead::lines` and parse `str` fields. For every
//! generated file the two must agree on the records, the registry's ids
//! *and names*, the counters, and — when a row is malformed — on the
//! error's line and value. The generator also knows which rows it left
//! canonical, so the scanner refusing a row it should take (slow, not
//! wrong) shows up as a wrong `general_path_lines`.

#![allow(clippy::panic, reason = "test helpers fail the test")]

use proptest::prelude::*;

use cbs_trace::codec::alicloud::AliCloudReader;
use cbs_trace::codec::msrc::{MsrcReader, MsrcRecord, VolumeRegistry};
use cbs_trace::{IoRequest, ParallelDecoder, TraceError};

/// SplitMix64: the whole file is drawn from one proptest-chosen seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Dialect {
    Ali,
    Msrc,
}

const MSRC_HEADER: &str = "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime";

impl Dialect {
    /// Indices of the numeric fields, then of those that must fit `u32`.
    fn numeric(self) -> (&'static [usize], &'static [usize]) {
        match self {
            Dialect::Ali => (&[0, 2, 3, 4], &[0, 3]),
            Dialect::Msrc => (&[0, 2, 4, 5, 6], &[2, 5]),
        }
    }

    fn op_field(self) -> usize {
        match self {
            Dialect::Ali => 1,
            Dialect::Msrc => 3,
        }
    }

    /// Spellings the general parser takes and the row scanner refuses.
    fn other_ops(self) -> &'static [&'static str] {
        match self {
            Dialect::Ali => &["r", "w", "Read", "Write", "READ", "write"],
            Dialect::Msrc => &["R", "W", "r", "w", "read", "WRITE"],
        }
    }

    fn canonical_row(self, rng: &mut Rng, index: u64) -> Vec<String> {
        let write = rng.below(3) > 0;
        let offset = rng.next() >> rng.pick(&[4u32, 24, 40]);
        let len = (rng.next() as u32) >> rng.pick(&[0u32, 12, 20]);
        match self {
            Dialect::Ali => vec![
                rng.pick(&[0u32, 7, 419, 725, u32::MAX]).to_string(),
                (if write { "W" } else { "R" }).to_owned(),
                offset.to_string(),
                len.to_string(),
                (1_577_808_000_000_000 + index * 37).to_string(),
            ],
            Dialect::Msrc => vec![
                (128_166_372_003_061_629 + index * 10_007).to_string(),
                rng.pick(&["a", "a_1", "hm", "src1", "x-y.z", "proj"])
                    .to_owned(),
                // Leading zeros stay canonical: `00` and `0` are one disk.
                rng.pick(&["0", "1", "10", "00", "010"]).to_owned(),
                (if write { "Write" } else { "Read" }).to_owned(),
                offset.to_string(),
                len.to_string(),
                (rng.next() >> 44).to_string(),
            ],
        }
    }
}

/// A generated file and what the generator knows about it.
struct Corpus {
    bytes: Vec<u8>,
    /// Valid rows the row scanner must refuse (on an error-free file,
    /// exactly `DecodeStats::general_path_lines`).
    general_rows: u64,
    has_error: bool,
}

/// A valid row made non-canonical. Returns `false` if the draw left it
/// canonical after all.
fn mutate_valid(dialect: Dialect, rng: &mut Rng, fields: &mut Vec<String>) -> bool {
    let (numeric, _) = dialect.numeric();
    match rng.below(7) {
        0 => {
            let i = rng.below(fields.len());
            let pad = rng.pick(&[" ", "\t", "\x0B", "  "]);
            fields[i] = match rng.below(3) {
                0 => format!("{pad}{}", fields[i]),
                1 => format!("{}{pad}", fields[i]),
                _ => format!("{pad}{}{pad}", fields[i]),
            };
        }
        1 => {
            let i = rng.pick(numeric);
            fields[i] = format!("+{}", fields[i]);
        }
        2 => {
            let i = rng.pick(numeric);
            fields[i] = format!("{:0>25}", fields[i]);
        }
        3 => fields[dialect.op_field()] = rng.pick(dialect.other_ops()).to_owned(),
        4 => fields.push(rng.pick(&["5", "junk", "", " "]).to_owned()),
        5 if dialect == Dialect::Msrc => {
            fields[1] = rng
                .pick(&["h\u{e9}", "\u{30db}\u{30b9}\u{30c8}", ""])
                .to_owned();
        }
        _ => {
            // Zero-padded inside 19 digits: still canonical.
            let i = rng.pick(numeric);
            if fields[i].len() <= 16 {
                fields[i] = format!("00{}", fields[i]);
            }
            return false;
        }
    }
    true
}

/// A row the general parser must reject.
fn mutate_invalid(dialect: Dialect, rng: &mut Rng, fields: &mut Vec<String>) {
    let (numeric, narrow) = dialect.numeric();
    match rng.below(8) {
        0 => {
            let i = rng.below(fields.len());
            // An empty host is a valid (if odd) MSRC volume name.
            let i = if dialect == Dialect::Msrc && i == 1 {
                0
            } else {
                i
            };
            fields[i].clear();
        }
        1 => fields[rng.pick(numeric)] = "99999999999999999999".to_owned(),
        2 => fields[rng.pick(numeric)] = "000184467440737095516160".to_owned(),
        3 => fields[rng.pick(narrow)] = "4294967296".to_owned(),
        4 => fields[dialect.op_field()] = rng.pick(&["X", "Erase", "RW", "Readx"]).to_owned(),
        5 => {
            fields.pop();
        }
        6 => fields[rng.pick(numeric)] = rng.pick(&["12a", "1 2", "-1", "++1", "1.5"]).to_owned(),
        _ => {
            // A lone `\r` is not a line end: it glues two rows into one.
            let glued = format!("{}\r7", fields[fields.len() - 1]);
            let last = fields.len() - 1;
            fields[last] = glued;
        }
    }
}

fn corpus(dialect: Dialect, seed: u64, rows: usize) -> Corpus {
    let mut rng = Rng(seed);
    let mut out = Corpus {
        bytes: Vec::new(),
        general_rows: 0,
        has_error: false,
    };
    // Half the files carry one malformed row (or a misplaced header).
    let bad_row = (rng.below(2) == 0 && rows > 0).then(|| rng.below(rows));
    let crlf_file = rng.below(4) == 0;
    match rng.below(4) {
        0 if dialect == Dialect::Msrc => out.bytes.extend(format!("{MSRC_HEADER}\n").bytes()),
        // A header anywhere else is a malformed row.
        1 if rng.below(4) == 0 => {
            if dialect == Dialect::Msrc {
                out.bytes.extend(b"\n");
            }
            out.bytes.extend(format!("{MSRC_HEADER}\n").bytes());
            out.has_error = true;
        }
        _ => {}
    }
    for index in 0..rows {
        if rng.below(16) == 0 {
            let blank = rng.pick(&["\n", "  \n", "\t\n", "\r\n", "\x0B\n"]);
            out.bytes.extend(blank.bytes());
        }
        let mut fields = dialect.canonical_row(&mut rng, index as u64);
        if bad_row == Some(index) {
            mutate_invalid(dialect, &mut rng, &mut fields);
            out.has_error = true;
        } else if rng.below(10) == 0 && mutate_valid(dialect, &mut rng, &mut fields) {
            out.general_rows += 1;
        }
        out.bytes.extend(fields.join(",").bytes());
        let last = index + 1 == rows;
        if crlf_file || rng.below(32) == 0 {
            out.bytes.extend(b"\r\n");
        } else if !(last && rng.below(2) == 0) {
            out.bytes.push(b'\n');
        }
    }
    out
}

/// Everything a decode run says: records, then how it ended.
#[derive(Debug, PartialEq)]
struct Decoded<T> {
    records: Vec<T>,
    names: Vec<String>,
    /// `(line, ParseRecordError)` of the malformed row, the latter as
    /// its `Debug` text (variant and every field).
    error: Option<(u64, String)>,
}

fn outcome(error: Option<TraceError>) -> Option<(u64, String)> {
    error.map(|e| match e {
        TraceError::Parse { line, source } => (line, format!("{source:?}")),
        other => panic!("not a parse error: {other}"),
    })
}

fn names(registry: &VolumeRegistry) -> Vec<String> {
    registry
        .iter()
        .enumerate()
        .map(|(i, (id, name))| {
            assert_eq!(id.as_usize(), i);
            name.to_owned()
        })
        .collect()
}

fn sequential_ali(bytes: &[u8]) -> Decoded<IoRequest> {
    let mut records = Vec::new();
    let mut error = None;
    for item in AliCloudReader::new(bytes) {
        match item {
            Ok(req) => records.push(req),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    Decoded {
        records,
        names: Vec::new(),
        error: outcome(error),
    }
}

fn sequential_msrc(bytes: &[u8]) -> Decoded<MsrcRecord> {
    let mut reader = MsrcReader::new(bytes);
    let mut records = Vec::new();
    let mut error = None;
    for item in &mut reader {
        match item {
            Ok(rec) => records.push(rec),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    Decoded {
        records,
        names: names(reader.registry()),
        error: outcome(error),
    }
}

fn check_stats(decoder_stats: &cbs_trace::DecodeStats, corpus: &Corpus, records: usize) {
    assert_eq!(decoder_stats.records, records as u64);
    assert_eq!(
        decoder_stats.lines,
        std::io::BufRead::lines(&corpus.bytes[..]).count() as u64
    );
    assert_eq!(decoder_stats.bytes, corpus.bytes.len() as u64);
    assert_eq!(decoder_stats.general_path_lines, corpus.general_rows);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn alicloud_decoder_equals_sequential_reader(
        seed in 0u64..=u64::MAX,
        rows in 0usize..900,
        threads in 1usize..=4,
        chunk_kib in 4usize..=64,
    ) {
        let corpus = corpus(Dialect::Ali, seed, rows);
        let want = sequential_ali(&corpus.bytes);
        prop_assert_eq!(want.error.is_some(), corpus.has_error);
        let decoder = ParallelDecoder::new()
            .with_threads(threads)
            .with_chunk_size(chunk_kib << 10);

        let mut records = Vec::new();
        let run = decoder
            .decode_alicloud_batches(&corpus.bytes[..], |batch| records.extend(batch.iter()));
        if let Ok(stats) = &run {
            check_stats(stats, &corpus, records.len());
        }
        let got = Decoded { records, names: Vec::new(), error: outcome(run.err()) };
        prop_assert_eq!(&got, &want);
    }

    #[test]
    fn msrc_decoder_equals_sequential_reader(
        seed in 0u64..=u64::MAX,
        rows in 0usize..700,
        threads in 1usize..=4,
        chunk_kib in 4usize..=64,
    ) {
        let corpus = corpus(Dialect::Msrc, seed, rows);
        let want = sequential_msrc(&corpus.bytes);
        prop_assert_eq!(want.error.is_some(), corpus.has_error);
        let decoder = ParallelDecoder::new()
            .with_threads(threads)
            .with_chunk_size(chunk_kib << 10);

        let mut registry = VolumeRegistry::new();
        let mut requests = Vec::new();
        let run = decoder.decode_msrc_batches(&corpus.bytes[..], &mut registry, |batch| {
            requests.extend(batch.iter())
        });
        if let Ok(stats) = &run {
            check_stats(stats, &corpus, requests.len());
        }
        let want_requests: Vec<IoRequest> = want.records.iter().map(|r| *r.request()).collect();
        prop_assert_eq!(requests, want_requests);
        prop_assert_eq!(names(&registry), want.names);
        prop_assert_eq!(outcome(run.err()), want.error);
    }
}
