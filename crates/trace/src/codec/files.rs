//! File-level loading conveniences for the released trace corpora.
//!
//! The AliCloud release is one large CSV; the MSRC release is a
//! directory of per-volume CSVs sharing one volume namespace. These
//! helpers wrap the streaming readers with the `File`/directory
//! plumbing (and an optional request cap for exploratory work on
//! multi-GiB files).

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use crate::codec::alicloud::AliCloudReader;
use crate::codec::msrc::{MsrcReader, VolumeRegistry};
use crate::{Trace, TraceError};

/// Loads an AliCloud-format CSV file, keeping at most `limit` requests
/// (`None` = all).
///
/// # Errors
///
/// Returns the I/O error from opening/reading the file or the first
/// parse error (annotated with its line number).
///
/// # Example
///
/// ```no_run
/// let trace = cbs_trace::codec::files::load_alicloud(
///     "alibaba_block_traces_2020/io_traces.csv",
///     Some(1_000_000),
/// )?;
/// println!("{} volumes", trace.volume_count());
/// # Ok::<(), cbs_trace::TraceError>(())
/// ```
pub fn load_alicloud<P: AsRef<Path>>(path: P, limit: Option<usize>) -> Result<Trace, TraceError> {
    let file = File::open(path).map_err(TraceError::Io)?;
    let reader = AliCloudReader::new(BufReader::new(file));
    let mut requests = Vec::new();
    for record in reader {
        requests.push(record?);
        if limit.is_some_and(|cap| requests.len() >= cap) {
            break;
        }
    }
    Ok(Trace::from_requests(requests))
}

/// Loads every `*.csv` file under `dir` in the MSRC format, sharing one
/// volume registry so `hostname_disk` names map to stable ids across
/// files. Files are visited in sorted name order (determinism).
///
/// Returns the trace and the registry.
///
/// # Errors
///
/// Returns the first I/O or parse error encountered.
pub fn load_msrc_dir<P: AsRef<Path>>(
    dir: P,
    limit: Option<usize>,
) -> Result<(Trace, VolumeRegistry), TraceError> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(TraceError::Io)?
        .collect::<Result<Vec<_>, _>>()
        .map_err(TraceError::Io)?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "csv"))
        .collect();
    paths.sort();

    let mut registry = VolumeRegistry::new();
    let mut requests = Vec::new();
    'files: for path in paths {
        let file = File::open(&path).map_err(TraceError::Io)?;
        let mut reader = MsrcReader::with_registry(BufReader::new(file), registry);
        for record in &mut reader {
            requests.push(record?.into_request());
            if limit.is_some_and(|cap| requests.len() >= cap) {
                registry = reader.into_registry();
                break 'files;
            }
        }
        registry = reader.into_registry();
    }
    Ok((Trace::from_requests(requests), registry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::alicloud::AliCloudWriter;
    use crate::codec::msrc::MsrcWriter;
    use crate::{IoRequest, OpKind, TimeDelta, Timestamp, VolumeId};
    use std::io::Write as _;

    #[expect(
        clippy::let_underscore_must_use,
        reason = "the directory may not exist yet"
    )]
    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cbs_files_test_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn req(v: u32, us: u64) -> IoRequest {
        IoRequest::new(
            VolumeId::new(v),
            OpKind::Write,
            u64::from(v) * 4096,
            4096,
            Timestamp::from_micros(us),
        )
    }

    #[test]
    fn alicloud_file_roundtrip_with_limit() {
        let dir = tmp("ali");
        let path = dir.join("trace.csv");
        {
            let mut w = AliCloudWriter::new(std::io::BufWriter::new(File::create(&path).unwrap()));
            for i in 0..100 {
                w.write_request(&req(i % 4, u64::from(i) * 10)).unwrap();
            }
            w.into_inner().unwrap();
        }
        let full = load_alicloud(&path, None).unwrap();
        assert_eq!(full.request_count(), 100);
        assert_eq!(full.volume_count(), 4);
        let capped = load_alicloud(&path, Some(10)).unwrap();
        assert_eq!(capped.request_count(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn alicloud_missing_file_is_io_error() {
        let err = load_alicloud("/nonexistent/cbs/trace.csv", None).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
    }

    #[test]
    fn alicloud_bad_row_reports_line() {
        let dir = tmp("ali_bad");
        let path = dir.join("trace.csv");
        std::fs::write(&path, "419,W,0,4096,10\nnot a row\n").unwrap();
        let err = load_alicloud(&path, None).unwrap_err();
        assert_eq!(err.line(), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn msrc_dir_shares_registry_across_files() {
        let dir = tmp("msrc");
        for (file, host) in [("a.csv", "src1"), ("b.csv", "hm")] {
            let mut w = MsrcWriter::new(std::io::BufWriter::new(
                File::create(dir.join(file)).unwrap(),
            ));
            for i in 0..5u64 {
                w.write_record(&req(0, i * 7), host, 0, TimeDelta::ZERO)
                    .unwrap();
                // `src1` also appears in file b, testing id stability
                w.write_record(&req(0, i * 7 + 1), "src1", 1, TimeDelta::ZERO)
                    .unwrap();
            }
            w.into_inner().unwrap();
        }
        // a stray non-csv file must be ignored
        let mut other = File::create(dir.join("README.txt")).unwrap();
        writeln!(other, "not a trace").unwrap();

        let (trace, registry) = load_msrc_dir(&dir, None).unwrap();
        assert_eq!(trace.request_count(), 20);
        // volumes: src1_0 (file a), src1_1 (both files), hm_0 (file b)
        assert_eq!(registry.len(), 3);
        assert!(registry.lookup("src1_1").is_some());
        assert!(registry.lookup("hm_0").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn msrc_dir_limit_stops_early() {
        let dir = tmp("msrc_cap");
        let mut w = MsrcWriter::new(std::io::BufWriter::new(
            File::create(dir.join("a.csv")).unwrap(),
        ));
        for i in 0..50u64 {
            w.write_record(&req(0, i), "host", 0, TimeDelta::ZERO)
                .unwrap();
        }
        w.into_inner().unwrap();
        let (trace, _) = load_msrc_dir(&dir, Some(7)).unwrap();
        assert_eq!(trace.request_count(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
