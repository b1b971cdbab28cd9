//! Read-only memory-mapped files: [`Mmap`].
//!
//! The zero-copy CBT path ([`crate::codec::cbt::CbtSliceReader`]) wants
//! the whole trace visible as one `&[u8]` so block payloads can be
//! decoded in place, without a read + memcpy per block. On Unix this
//! module maps the file with `mmap(2)` (private, read-only) and lets
//! the page cache feed the decoder directly; elsewhere it falls back to
//! reading the file into an anonymous buffer, keeping the same API.
//!
//! No external crate is pulled in: the two syscalls are declared
//! directly against the C library that `std` already links. The unsafe
//! surface is confined to this module (the workspace denies
//! `unsafe_code`; one `#[expect]` lifts it here), and every unsafe
//! block carries a `SAFETY:` justification checked by clippy's
//! `undocumented_unsafe_blocks`.
//!
//! # Example
//!
//! ```no_run
//! # fn main() -> std::io::Result<()> {
//! let map = cbs_trace::Mmap::open("trace.cbt")?;
//! let bytes: &[u8] = &map;
//! println!("{} bytes mapped", bytes.len());
//! # Ok(())
//! # }
//! ```

use std::fs::File;
use std::io;
use std::ops::Deref;
use std::path::Path;

/// A read-only mapping of an entire file.
///
/// Dereferences to `&[u8]` covering the file's contents at open time.
/// The mapping is private (`MAP_PRIVATE`): later writes to the file by
/// other processes may or may not become visible, exactly as with any
/// `mmap(2)` of a file being appended to — callers that need a stable
/// snapshot should map files that are no longer being written.
#[derive(Debug)]
pub struct Mmap {
    inner: imp::Map,
}

impl Mmap {
    /// Maps `path` read-only in its entirety.
    ///
    /// Empty files yield an empty slice (no mapping is created, since
    /// `mmap(2)` rejects zero-length maps).
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Mmap> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        Ok(Mmap {
            inner: imp::Map::new(&file, len)?,
        })
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        self.inner.as_slice()
    }

    /// Length of the mapping in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` for an empty (zero-length) file.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl Deref for Mmap {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Mmap {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

// Unsafe code for this module only: mapping a file and handing
// out `&[u8]` is irreducibly unsafe, so the unsafe surface lives here
// behind a safe `Map` wrapper, with a SAFETY comment per call site.
// Miri has no mmap(2): under interpretation the buffered fallback
// below runs instead, keeping the Miri lane (`CHECK_SANITIZERS=1` in
// scripts/check.sh) able to drive the slice-reader end to end.
#[cfg(all(unix, not(miri)))]
#[expect(unsafe_code, reason = "mmap(2) and the slice over its pages")]
mod imp {
    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::ptr;

    // POSIX mmap(2)/munmap(2). `std` already links the platform C
    // library, so declaring the two symbols avoids an external crate.
    // Constants per POSIX (identical across Linux and the BSDs for
    // these three).
    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    // Signatures transcribed from mmap(2)/munmap(2); the 64-bit
    // `off_t` matches every Tier-1 Unix target (Linux with 64-bit
    // off_t, macOS, the BSDs).
    unsafe extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// Owned pointer + length of one live mapping (null for empty
    /// files, which are never actually mapped).
    #[derive(Debug)]
    pub(super) struct Map {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ-only and owned exclusively by
    // this struct; shared references to immutable bytes are Send+Sync.
    unsafe impl Send for Map {}
    // SAFETY: see above — no interior mutability, read-only pages.
    unsafe impl Sync for Map {}

    impl Map {
        pub(super) fn new(file: &File, len: usize) -> io::Result<Map> {
            if len == 0 {
                return Ok(Map {
                    ptr: ptr::null_mut(),
                    len: 0,
                });
            }
            // SAFETY: fd is a valid open file descriptor for the whole
            // call, len is non-zero and no larger than the file, and a
            // null addr lets the kernel pick the placement.
            let ptr = unsafe {
                mmap(
                    ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            Ok(Map { ptr, len })
        }

        #[inline]
        pub(super) fn as_slice(&self) -> &[u8] {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: ptr..ptr+len is a live PROT_READ mapping owned by
            // self; it stays valid for the lifetime of the borrow and
            // nothing in this process writes through it.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            if !self.ptr.is_null() {
                // SAFETY: exactly the region returned by mmap in `new`,
                // unmapped once (ptr is never cloned out of the struct).
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }
}

#[cfg(any(not(unix), miri))]
mod imp {
    use std::fs::File;
    use std::io::{self, Read};

    /// Portable fallback: the file is read into an owned buffer.
    /// Also the implementation under Miri, which interprets no
    /// foreign code.
    #[derive(Debug)]
    pub(super) struct Map {
        bytes: Vec<u8>,
    }

    impl Map {
        pub(super) fn new(file: &File, len: usize) -> io::Result<Map> {
            let mut bytes = Vec::with_capacity(len);
            let mut file = file;
            file.read_to_end(&mut bytes)?;
            Ok(Map { bytes })
        }

        #[inline]
        pub(super) fn as_slice(&self) -> &[u8] {
            &self.bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cbs-trace-mmap-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("contents");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path)
            .expect("create")
            .write_all(&payload)
            .expect("write");
        let map = Mmap::open(&path).expect("map");
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        assert_eq!(&map[..], &payload[..]);
        assert_eq!(map.as_ref(), &payload[..]);
        drop(map);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        std::fs::File::create(&path).expect("create");
        let map = Mmap::open(&path).expect("map");
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert_eq!(&map[..], &[] as &[u8]);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn missing_file_errors() {
        assert!(Mmap::open(temp_path("missing-never-created")).is_err());
    }
}
