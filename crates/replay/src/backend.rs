//! The [`StorageBackend`] trait and its four stock implementations:
//! [`NullBackend`], [`MemBackend`], [`FileBackend`], and
//! [`DirectFileBackend`].
//!
//! A backend is the *target* of a replay: the scheduler decides *when*
//! a request is issued, the backend decides *what issuing costs*. The
//! trait is deliberately synchronous and `&mut self` — the open-loop
//! scheduler issues from one thread and measures the call's wall time
//! into the `replay.backend_nanos` histogram, so any internal
//! parallelism is a backend implementation detail. Under a
//! [`LaneSet`](crate::LaneSet) each lane owns its own instance, so the
//! contract is unchanged.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use cbs_trace::VolumeId;

/// Page granularity of the in-memory page store (4 KiB — the paper's
/// block size for cache analyses).
pub const PAGE_BYTES: u64 = 4096;

/// A replay target: somewhere reads and writes can be issued.
///
/// Implementations return `std::io::Error` on failure; the replayer
/// wraps it with the backend's [`name`](StorageBackend::name) and
/// aborts the run — a replay that silently drops I/O would corrupt the
/// achieved-throughput claim.
pub trait StorageBackend {
    /// Short stable identifier for reports (`"null"`, `"mem"`, `"file"`).
    fn name(&self) -> &'static str;

    /// Issues a read of `len` bytes at `offset` on `volume`.
    fn read(&mut self, volume: VolumeId, offset: u64, len: u32) -> io::Result<()>;

    /// Issues a write of `len` bytes at `offset` on `volume`.
    fn write(&mut self, volume: VolumeId, offset: u64, len: u32) -> io::Result<()>;

    /// Makes all issued writes durable (or whatever the backend's
    /// closest notion is). Called once at the end of a replay.
    fn flush(&mut self) -> io::Result<()>;
}

/// A backend that does nothing, instantly.
///
/// This is the scheduler-calibration target: with service time pinned
/// at ~0, achieved-vs-offered throughput measures the *replay engine*,
/// not the storage — the `replay_perf` ×1000 acceptance run uses it.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullBackend;

impl NullBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        NullBackend
    }
}

impl StorageBackend for NullBackend {
    fn name(&self) -> &'static str {
        "null"
    }

    fn read(&mut self, _volume: VolumeId, _offset: u64, _len: u32) -> io::Result<()> {
        Ok(())
    }

    fn write(&mut self, _volume: VolumeId, _offset: u64, _len: u32) -> io::Result<()> {
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An in-memory page store: writes materialize 4 KiB pages in a hash
/// map and fill them with a deterministic pattern; reads copy resident
/// page contents into a scratch buffer (absent pages read as zeroes,
/// like a thin-provisioned volume).
///
/// Memory grows with the written working set, not the address space —
/// the same sparsity the paper's volumes rely on. Use
/// [`resident_bytes`](MemBackend::resident_bytes) to audit footprint.
#[derive(Debug, Default)]
pub struct MemBackend {
    pages: HashMap<(u32, u64), Box<[u8]>>,
    scratch: Vec<u8>,
}

impl MemBackend {
    /// Creates an empty page store.
    pub fn new() -> Self {
        MemBackend::default()
    }

    /// Number of 4 KiB pages materialized by writes so far.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Bytes of page payload currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_BYTES
    }

    /// The deterministic fill byte for a (volume, page) pair, so tests
    /// can verify read-back without the backend storing per-write
    /// provenance.
    fn fill_byte(volume: u32, page: u64) -> u8 {
        (volume as u64 ^ page ^ 0xA5) as u8
    }

    fn page_range(offset: u64, len: u32) -> (u64, u64) {
        let first = offset / PAGE_BYTES;
        let last = offset.saturating_add(len as u64).saturating_sub(1) / PAGE_BYTES;
        (first, last)
    }
}

impl StorageBackend for MemBackend {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn read(&mut self, volume: VolumeId, offset: u64, len: u32) -> io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        self.scratch.resize(PAGE_BYTES as usize, 0);
        let (first, last) = Self::page_range(offset, len);
        for page in first..=last {
            match self.pages.get(&(volume.get(), page)) {
                Some(data) => self.scratch[..data.len()].copy_from_slice(data),
                None => self.scratch.fill(0),
            }
        }
        Ok(())
    }

    fn write(&mut self, volume: VolumeId, offset: u64, len: u32) -> io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        let (first, last) = Self::page_range(offset, len);
        for page in first..=last {
            let fill = Self::fill_byte(volume.get(), page);
            let data = self
                .pages
                .entry((volume.get(), page))
                .or_insert_with(|| vec![0u8; PAGE_BYTES as usize].into_boxed_slice());
            data.fill(fill);
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A file-per-volume backend: requests become `seek` + `read`/`write`
/// on sparse files under a directory, so replay exercises the real VFS
/// and page-cache path.
///
/// Files are created lazily on first touch as `vol-<id>.dat`; reads
/// past EOF (thin-provisioned holes) read as zeroes. With
/// [`with_preallocate`](FileBackend::with_preallocate), each file is
/// extended (`ftruncate`-style, still sparse) to the expected volume
/// size at open, so first-touch writes mid-replay don't pay the
/// length-extension metadata churn on every append.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    files: HashMap<u32, File>,
    scratch: Vec<u8>,
    preallocate: u64,
}

impl FileBackend {
    /// Opens (creating if needed) the backing directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileBackend {
            dir,
            files: HashMap::new(),
            scratch: Vec::new(),
            preallocate: 0,
        })
    }

    /// Extends every volume file to at least `bytes` at open (builder
    /// style). Pass the remapped stream's maximum `offset + len` so
    /// replay-time writes land inside the established length instead
    /// of growing the file request by request. The extension is
    /// sparse: no blocks are materialized until written.
    #[must_use]
    pub fn with_preallocate(mut self, bytes: u64) -> Self {
        self.preallocate = bytes;
        self
    }

    /// Number of volume files touched so far.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Grow-only scratch borrow: the buffer keeps its high-water
    /// capacity across requests, so varying request sizes reuse one
    /// allocation instead of re-zeroing on every shrink/grow cycle.
    fn scratch_slice(scratch: &mut Vec<u8>, len: usize) -> &mut [u8] {
        if scratch.len() < len {
            scratch.resize(len, 0);
        }
        &mut scratch[..len]
    }

    // Associated, not a method: borrows only `files`/`dir`, leaving
    // `scratch` free for the caller.
    fn file<'m>(
        files: &'m mut HashMap<u32, File>,
        dir: &std::path::Path,
        volume: u32,
        preallocate: u64,
    ) -> io::Result<&'m mut File> {
        match files.entry(volume) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let path = dir.join(format!("vol-{volume}.dat"));
                let f = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(path)?;
                if preallocate > 0 && f.metadata()?.len() < preallocate {
                    f.set_len(preallocate)?;
                }
                Ok(e.insert(f))
            }
        }
    }
}

impl StorageBackend for FileBackend {
    fn name(&self) -> &'static str {
        "file"
    }

    fn read(&mut self, volume: VolumeId, offset: u64, len: u32) -> io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        let buf = Self::scratch_slice(&mut self.scratch, len as usize);
        let f = Self::file(&mut self.files, &self.dir, volume.get(), self.preallocate)?;
        f.seek(SeekFrom::Start(offset))?;
        // Short reads (offset past EOF on a sparse file) are holes:
        // the unread tail reads as zeroes, which is the thin-volume
        // semantics we want, so only propagate hard errors.
        let mut filled = 0;
        while filled < buf.len() {
            match f.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        buf[filled..].fill(0);
        Ok(())
    }

    fn write(&mut self, volume: VolumeId, offset: u64, len: u32) -> io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        let pattern = (volume.get() as u64 ^ offset) as u8;
        let buf = Self::scratch_slice(&mut self.scratch, len as usize);
        buf.fill(pattern);
        let f = Self::file(&mut self.files, &self.dir, volume.get(), self.preallocate)?;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(&self.scratch[..len as usize])
    }

    fn flush(&mut self) -> io::Result<()> {
        for f in self.files.values_mut() {
            f.sync_data()?;
        }
        Ok(())
    }
}

/// Alignment O_DIRECT transfers must satisfy on offset, length, and
/// buffer address (4 KiB covers every mainstream filesystem/device;
/// the logical-block-size minimum is never larger in practice).
pub const DIRECT_ALIGN: u64 = 4096;

/// Linux `O_DIRECT` open flag. The value is architecture-specific:
/// most targets use 0x4000, but aarch64 (like powerpc before it)
/// swapped `O_DIRECT` and `O_DIRECTORY`, so it is 0x10000 there.
#[cfg(unix)]
const O_DIRECT_FLAG: i32 = if cfg!(any(
    target_arch = "aarch64",
    target_arch = "powerpc",
    target_arch = "powerpc64"
)) {
    0x10000
} else {
    0x4000
};

/// A heap buffer whose readable window starts on a [`DIRECT_ALIGN`]
/// boundary — the aligned-allocation helper `O_DIRECT` transfers
/// require, built safely (no `unsafe`) by over-allocating and slicing
/// from the first aligned byte.
#[derive(Debug, Default)]
pub struct AlignedBuf {
    buf: Vec<u8>,
    /// Offset of the first [`DIRECT_ALIGN`]-aligned byte in `buf`.
    start: usize,
    /// Usable aligned capacity from `start`.
    cap: usize,
}

impl AlignedBuf {
    /// Allocates an aligned buffer holding at least `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        let buf = vec![0u8; cap + DIRECT_ALIGN as usize];
        let start = buf.as_ptr().align_offset(DIRECT_ALIGN as usize);
        AlignedBuf { buf, start, cap }
    }

    /// Borrows `len` aligned bytes, growing (with a fresh aligned
    /// allocation) only when the current capacity is exceeded — the
    /// same grow-only reuse discipline as [`FileBackend`]'s scratch.
    pub fn slice_mut(&mut self, len: usize) -> &mut [u8] {
        if self.cap < len {
            *self = Self::with_capacity(len);
        }
        &mut self.buf[self.start..self.start + len]
    }

    /// Borrows `len` aligned bytes read-only. Callers must have sized
    /// the buffer with [`slice_mut`](AlignedBuf::slice_mut) first.
    pub fn slice(&self, len: usize) -> &[u8] {
        &self.buf[self.start..self.start + len]
    }
}

/// A file-per-volume backend that opens its files with `O_DIRECT`,
/// bypassing the page cache so replayed I/O hits storage at device
/// speed — the fidelity TraceTracker-style replay needs (a
/// page-cache-absorbed replay measures DRAM, not the device).
///
/// `O_DIRECT` requires offset, length, and buffer address aligned to
/// [`DIRECT_ALIGN`]; requests are widened to the containing aligned
/// span and staged through an [`AlignedBuf`]. Filesystems that refuse
/// `O_DIRECT` (tmpfs, some overlays) are detected by a one-block probe
/// at construction: the backend then falls back to buffered I/O and
/// records why in [`fallback_reason`](DirectFileBackend::fallback_reason)
/// — the replay still runs, and reports can disclose the degraded
/// fidelity instead of silently measuring the page cache.
#[derive(Debug)]
pub struct DirectFileBackend {
    dir: PathBuf,
    files: HashMap<u32, File>,
    scratch: AlignedBuf,
    preallocate: u64,
    direct: bool,
    fallback_reason: Option<String>,
}

impl DirectFileBackend {
    /// Opens (creating if needed) the backing directory and probes it
    /// for `O_DIRECT` support.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let (direct, fallback_reason) = match Self::probe(&dir) {
            Ok(()) => (true, None),
            Err(e) => (false, Some(format!("O_DIRECT unavailable: {e}"))),
        };
        Ok(DirectFileBackend {
            dir,
            files: HashMap::new(),
            scratch: AlignedBuf::default(),
            preallocate: 0,
            direct,
            fallback_reason,
        })
    }

    /// Extends every volume file to at least `bytes` at open — see
    /// [`FileBackend::with_preallocate`].
    #[must_use]
    pub fn with_preallocate(mut self, bytes: u64) -> Self {
        self.preallocate = bytes;
        self
    }

    /// `true` when files are actually opened with `O_DIRECT`; `false`
    /// when the probe failed and the backend fell back to buffered
    /// I/O (see [`fallback_reason`](DirectFileBackend::fallback_reason)).
    pub fn is_direct(&self) -> bool {
        self.direct
    }

    /// Why the backend fell back to buffered I/O, or `None` when
    /// `O_DIRECT` is active.
    pub fn fallback_reason(&self) -> Option<&str> {
        self.fallback_reason.as_deref()
    }

    /// Number of volume files touched so far.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// One aligned write through a freshly `O_DIRECT`-opened probe
    /// file: both the open and the first transfer can be the step a
    /// filesystem refuses, so both must succeed before the backend
    /// commits to direct I/O.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "removing the probe file is best-effort; the probe's own result is what counts"
    )]
    fn probe(dir: &std::path::Path) -> io::Result<()> {
        let path = dir.join(".o_direct.probe");
        let result = (|| {
            let mut f = Self::open_direct(&path, true)?;
            let mut buf = AlignedBuf::with_capacity(DIRECT_ALIGN as usize);
            f.write_all(buf.slice_mut(DIRECT_ALIGN as usize))?;
            Ok(())
        })();
        let _ = std::fs::remove_file(&path);
        result
    }

    #[cfg(unix)]
    fn open_direct(path: &std::path::Path, direct: bool) -> io::Result<File> {
        use std::os::unix::fs::OpenOptionsExt;
        let mut opts = OpenOptions::new();
        opts.read(true).write(true).create(true).truncate(false);
        if direct {
            opts.custom_flags(O_DIRECT_FLAG);
        }
        opts.open(path)
    }

    #[cfg(not(unix))]
    fn open_direct(path: &std::path::Path, direct: bool) -> io::Result<File> {
        if direct {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "O_DIRECT requires a unix platform",
            ));
        }
        OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
    }

    /// The aligned span containing `[offset, offset + len)`: start
    /// rounded down, end rounded up to [`DIRECT_ALIGN`].
    fn aligned_span(offset: u64, len: u32) -> (u64, usize) {
        let start = offset - (offset % DIRECT_ALIGN);
        let end = offset
            .saturating_add(len as u64)
            .saturating_add(DIRECT_ALIGN - 1)
            / DIRECT_ALIGN
            * DIRECT_ALIGN;
        (start, (end - start) as usize)
    }

    fn file<'m>(
        files: &'m mut HashMap<u32, File>,
        dir: &std::path::Path,
        volume: u32,
        direct: bool,
        preallocate: u64,
    ) -> io::Result<&'m mut File> {
        match files.entry(volume) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let path = dir.join(format!("vol-{volume}.dat"));
                let f = Self::open_direct(&path, direct)?;
                if preallocate > 0 && f.metadata()?.len() < preallocate {
                    // Aligned up so a direct read of the last request's
                    // span never crosses EOF mid-sector.
                    let len =
                        preallocate.saturating_add(DIRECT_ALIGN - 1) / DIRECT_ALIGN * DIRECT_ALIGN;
                    f.set_len(len)?;
                }
                Ok(e.insert(f))
            }
        }
    }
}

impl StorageBackend for DirectFileBackend {
    fn name(&self) -> &'static str {
        "direct"
    }

    fn read(&mut self, volume: VolumeId, offset: u64, len: u32) -> io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        let (start, span) = Self::aligned_span(offset, len);
        let buf = self.scratch.slice_mut(span);
        let f = Self::file(
            &mut self.files,
            &self.dir,
            volume.get(),
            self.direct,
            self.preallocate,
        )?;
        f.seek(SeekFrom::Start(start))?;
        // Holes read as zeroes, exactly like FileBackend; O_DIRECT
        // short-reads at EOF the same way buffered I/O does.
        let mut filled = 0;
        while filled < buf.len() {
            match f.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        buf[filled..].fill(0);
        Ok(())
    }

    fn write(&mut self, volume: VolumeId, offset: u64, len: u32) -> io::Result<()> {
        if len == 0 {
            return Ok(());
        }
        let (start, span) = Self::aligned_span(offset, len);
        let pattern = (volume.get() as u64 ^ offset) as u8;
        self.scratch.slice_mut(span).fill(pattern);
        let f = Self::file(
            &mut self.files,
            &self.dir,
            volume.get(),
            self.direct,
            self.preallocate,
        )?;
        f.seek(SeekFrom::Start(start))?;
        f.write_all(self.scratch.slice(span))
    }

    fn flush(&mut self) -> io::Result<()> {
        for f in self.files.values_mut() {
            f.sync_data()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_backend_accepts_everything() {
        let mut b = NullBackend::new();
        assert!(b.read(VolumeId::new(1), 0, 4096).is_ok());
        assert!(b.write(VolumeId::new(1), u64::MAX - 4096, 4096).is_ok());
        assert!(b.flush().is_ok());
        assert_eq!(b.name(), "null");
    }

    #[test]
    fn mem_backend_materializes_pages_on_write_only() {
        let mut b = MemBackend::new();
        b.read(VolumeId::new(7), 0, 65536).unwrap();
        assert_eq!(b.page_count(), 0, "reads must not allocate");
        // 8 KiB write straddling a page boundary touches 3 pages.
        b.write(VolumeId::new(7), 2048, 8192).unwrap();
        assert_eq!(b.page_count(), 3);
        assert_eq!(b.resident_bytes(), 3 * PAGE_BYTES);
        // Rewriting the same range allocates nothing new.
        b.write(VolumeId::new(7), 2048, 8192).unwrap();
        assert_eq!(b.page_count(), 3);
        // Same offsets on another volume are distinct pages.
        b.write(VolumeId::new(8), 2048, 8192).unwrap();
        assert_eq!(b.page_count(), 6);
        b.flush().unwrap();
    }

    #[test]
    fn mem_backend_zero_len_is_noop() {
        let mut b = MemBackend::new();
        b.write(VolumeId::new(1), 4096, 0).unwrap();
        b.read(VolumeId::new(1), 4096, 0).unwrap();
        assert_eq!(b.page_count(), 0);
    }

    #[test]
    fn file_backend_round_trips() {
        let dir = std::env::temp_dir().join(format!("cbs-replay-test-{}", std::process::id()));
        let mut b = FileBackend::new(&dir).unwrap();
        b.write(VolumeId::new(3), 8192, 4096).unwrap();
        b.read(VolumeId::new(3), 8192, 4096).unwrap();
        // Read from a hole (never written) succeeds as zeroes.
        b.read(VolumeId::new(3), 1 << 30, 4096).unwrap();
        // A second volume creates a second file.
        b.write(VolumeId::new(4), 0, 512).unwrap();
        assert_eq!(b.file_count(), 2);
        b.flush().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backend_preallocates_at_open() {
        let dir = std::env::temp_dir().join(format!("cbs-replay-prealloc-{}", std::process::id()));
        let mut b = FileBackend::new(&dir).unwrap().with_preallocate(1 << 20);
        b.write(VolumeId::new(0), 0, 512).unwrap();
        let len = std::fs::metadata(dir.join("vol-0.dat")).unwrap().len();
        assert_eq!(len, 1 << 20, "file extended to the preallocation size");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aligned_buf_is_aligned_and_reuses() {
        let mut buf = AlignedBuf::with_capacity(8192);
        let p1 = buf.slice_mut(8192).as_ptr() as usize;
        assert_eq!(p1 % DIRECT_ALIGN as usize, 0);
        // Smaller borrows reuse the same allocation at the same base.
        let p2 = buf.slice_mut(512).as_ptr() as usize;
        assert_eq!(p1, p2, "grow-only: no realloc for smaller requests");
        // Growing reallocates but stays aligned.
        let p3 = buf.slice_mut(1 << 16).as_ptr() as usize;
        assert_eq!(p3 % DIRECT_ALIGN as usize, 0);
    }

    #[test]
    fn aligned_span_widens_to_sector_boundaries() {
        assert_eq!(DirectFileBackend::aligned_span(0, 4096), (0, 4096));
        assert_eq!(DirectFileBackend::aligned_span(100, 200), (0, 4096));
        assert_eq!(DirectFileBackend::aligned_span(4095, 2), (0, 8192));
        assert_eq!(DirectFileBackend::aligned_span(8192, 4096), (8192, 4096));
        assert_eq!(DirectFileBackend::aligned_span(8191, 4098), (4096, 12288));
    }

    #[test]
    fn direct_backend_round_trips_with_or_without_o_direct() {
        let dir = std::env::temp_dir().join(format!("cbs-replay-direct-{}", std::process::id()));
        let mut b = DirectFileBackend::new(&dir)
            .unwrap()
            .with_preallocate(1 << 20);
        // Probe outcome must be internally consistent: either O_DIRECT
        // is on (no reason recorded) or off with the reason captured.
        assert_eq!(
            b.is_direct(),
            b.fallback_reason().is_none(),
            "{:?}",
            b.fallback_reason()
        );
        // Unaligned request: widened to the containing aligned span.
        b.write(VolumeId::new(9), 1000, 300).unwrap();
        b.read(VolumeId::new(9), 1000, 300).unwrap();
        // Aligned request at a hole.
        b.read(VolumeId::new(9), 1 << 19, 4096).unwrap();
        b.flush().unwrap();
        assert_eq!(b.file_count(), 1);
        let len = std::fs::metadata(dir.join("vol-9.dat")).unwrap().len();
        assert_eq!(len, 1 << 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
