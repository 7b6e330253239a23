//! Positional-read storage backends.
//!
//! [`ReadAt`] abstracts "a byte-addressable region that can be read at an
//! offset". Three implementations cover the layouts in the paper:
//! in-DRAM data ([`DramBackend`]), data on a file read through the
//! `pread`-style positional API ([`FileBackend`], the paper's `read(2)`
//! path), and memory-mapped files ([`MmapBackend`]).

use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use crate::error::{Error, Result};

/// One request of a batched read: fill `buf` from `offset`.
#[derive(Debug)]
pub struct BatchRead<'a> {
    /// Byte offset of the read.
    pub offset: u64,
    /// Destination buffer (its length is the request size).
    pub buf: &'a mut [u8],
}

/// A byte region supporting positional reads from many threads at once.
pub trait ReadAt: Send + Sync {
    /// Fill `buf` from bytes `[offset, offset + buf.len())`.
    ///
    /// Fails with [`Error::OutOfBounds`] when the range exceeds [`len`].
    ///
    /// [`len`]: ReadAt::len
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Total size of the region in bytes.
    fn len(&self) -> u64;

    /// True when the region is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serve several reads as one **asynchronous batch** (the `libaio`
    /// aggregation of §VI-D). The default implementation simply loops
    /// [`read_at`](ReadAt::read_at); metered stores override it so the
    /// whole batch pays the device access latency once instead of once
    /// per request.
    fn read_batch_at(&self, reqs: &mut [BatchRead<'_>]) -> Result<()> {
        for r in reqs.iter_mut() {
            self.read_at(r.offset, r.buf)?;
        }
        Ok(())
    }

    /// Whether [`prefetch`](ReadAt::prefetch) hints load anything on this
    /// region right now, so a caller can skip the work of computing them.
    fn prefetches(&self) -> bool {
        false
    }

    /// Hint that `[offset, offset + len)` will be read soon.
    ///
    /// Plain backends ignore it (the default is a no-op). On a caching
    /// store ([`ShardedCachedStore`](crate::ShardedCachedStore)) it is
    /// **asynchronous**: the span's missing pages are read, verified and
    /// submitted to the device without waiting, and published in flight,
    /// so the caller goes on computing while the device works; a later
    /// demand read of such a page waits only for what is left of its
    /// device time. The hint is best-effort and never fails: ranges past
    /// the end of the region are clipped, a page that cannot be loaded is
    /// left to the demand read, and under a fault plan with active read
    /// faults it does nothing, so demand reads keep their retrying path.
    fn prefetch(&self, _offset: u64, _len: u64) {}
}

/// Stores are handed out type-erased (`Arc<dyn ReadAt>`); this keeps the
/// structures that hold them `Debug`.
impl std::fmt::Debug for dyn ReadAt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadAt").field("len", &self.len()).finish()
    }
}

fn check_bounds(offset: u64, len: usize, size: u64) -> Result<()> {
    let end = offset.checked_add(len as u64).ok_or(Error::OutOfBounds {
        offset,
        len: len as u64,
        size,
    })?;
    if end > size {
        return Err(Error::OutOfBounds {
            offset,
            len: len as u64,
            size,
        });
    }
    Ok(())
}

/// An in-memory byte region (the "DRAM" side of every scenario).
#[derive(Debug, Clone)]
pub struct DramBackend {
    data: Arc<[u8]>,
}

impl DramBackend {
    /// Wrap an owned byte buffer.
    pub fn new(data: Vec<u8>) -> Self {
        Self { data: data.into() }
    }

    /// Borrow the full contents.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }
}

impl ReadAt for DramBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        check_bounds(offset, buf.len(), self.len())?;
        let start = offset as usize;
        buf.copy_from_slice(&self.data[start..start + buf.len()]);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.data.len() as u64
    }
}

/// A file read through positional I/O (`pread` on Unix) — the paper's
/// `read(2)` access path for the offloaded forward graph (§V-B1).
#[derive(Debug)]
pub struct FileBackend {
    file: File,
    size: u64,
}

impl FileBackend {
    /// Open `path` read-only.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = File::open(path)?;
        let size = file.metadata()?.len();
        Ok(Self { file, size })
    }

    /// Wrap an already-open file.
    pub fn from_file(file: File) -> Result<Self> {
        let size = file.metadata()?.len();
        Ok(Self { file, size })
    }
}

impl ReadAt for FileBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        check_bounds(offset, buf.len(), self.size)?;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)?;
        }
        #[cfg(not(unix))]
        {
            compile_error!("sembfs-semext requires a Unix platform for positional file reads");
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.size
    }
}

/// A memory-mapped file. The alternative access path for semi-external
/// data; used to compare against the paper's explicit `read(2)` path.
#[derive(Debug)]
pub struct MmapBackend {
    map: memmap2::Mmap,
}

impl MmapBackend {
    /// Map `path` read-only.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = File::open(path)?;
        // SAFETY: the mapping is read-only and we treat the file as
        // immutable for the lifetime of the map (all sembfs external files
        // are written once, then only read).
        let map = unsafe { memmap2::Mmap::map(&file)? };
        Ok(Self { map })
    }

    /// Borrow the mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.map
    }
}

impl ReadAt for MmapBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        check_bounds(offset, buf.len(), self.len())?;
        let start = offset as usize;
        buf.copy_from_slice(&self.map[start..start + buf.len()]);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.map.len() as u64
    }
}

impl<T: ReadAt + ?Sized> ReadAt for Arc<T> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        (**self).read_at(offset, buf)
    }

    fn len(&self) -> u64 {
        (**self).len()
    }

    fn read_batch_at(&self, reqs: &mut [BatchRead<'_>]) -> Result<()> {
        (**self).read_batch_at(reqs)
    }

    fn prefetches(&self) -> bool {
        (**self).prefetches()
    }

    fn prefetch(&self, offset: u64, len: u64) {
        (**self).prefetch(offset, len)
    }
}

impl<T: ReadAt + ?Sized> ReadAt for &T {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        (**self).read_at(offset, buf)
    }

    fn len(&self) -> u64 {
        (**self).len()
    }

    fn read_batch_at(&self, reqs: &mut [BatchRead<'_>]) -> Result<()> {
        (**self).read_batch_at(reqs)
    }

    fn prefetches(&self) -> bool {
        (**self).prefetches()
    }

    fn prefetch(&self, offset: u64, len: u64) {
        (**self).prefetch(offset, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn sample() -> Vec<u8> {
        (0..=255u8).cycle().take(10_000).collect()
    }

    #[test]
    fn dram_read_roundtrip() {
        let data = sample();
        let b = DramBackend::new(data.clone());
        let mut buf = vec![0u8; 100];
        b.read_at(500, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[500..600]);
    }

    #[test]
    fn dram_out_of_bounds_rejected() {
        let b = DramBackend::new(vec![0u8; 10]);
        let mut buf = vec![0u8; 5];
        assert!(matches!(
            b.read_at(8, &mut buf),
            Err(Error::OutOfBounds { .. })
        ));
        // Exactly at the end is fine.
        b.read_at(5, &mut buf).unwrap();
    }

    #[test]
    fn dram_offset_overflow_rejected() {
        let b = DramBackend::new(vec![0u8; 10]);
        let mut buf = vec![0u8; 5];
        assert!(b.read_at(u64::MAX - 1, &mut buf).is_err());
    }

    #[test]
    fn file_and_mmap_agree_with_dram() {
        let data = sample();
        let dir = TempDir::new("backend-test").unwrap();
        let path = dir.path().join("blob.bin");
        std::fs::write(&path, &data).unwrap();

        let dram = DramBackend::new(data);
        let file = FileBackend::open(&path).unwrap();
        let mmap = MmapBackend::open(&path).unwrap();

        assert_eq!(file.len(), dram.len());
        assert_eq!(mmap.len(), dram.len());

        for (off, n) in [(0u64, 1usize), (4095, 2), (9_990, 10), (1234, 4096)] {
            let mut a = vec![0u8; n];
            let mut b = vec![0u8; n];
            let mut c = vec![0u8; n];
            dram.read_at(off, &mut a).unwrap();
            file.read_at(off, &mut b).unwrap();
            mmap.read_at(off, &mut c).unwrap();
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
    }

    #[test]
    fn file_out_of_bounds_rejected() {
        let dir = TempDir::new("backend-oob").unwrap();
        let path = dir.path().join("small.bin");
        std::fs::write(&path, [1, 2, 3]).unwrap();
        let f = FileBackend::open(&path).unwrap();
        let mut buf = [0u8; 4];
        assert!(f.read_at(0, &mut buf).is_err());
    }

    #[test]
    fn empty_read_always_succeeds() {
        let b = DramBackend::new(vec![]);
        let mut buf = [0u8; 0];
        b.read_at(0, &mut buf).unwrap();
        assert!(b.is_empty());
    }

    #[test]
    fn arc_and_ref_forward() {
        let b = Arc::new(DramBackend::new(vec![7u8; 16]));
        let mut buf = [0u8; 4];
        b.read_at(2, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 4]);
        let r: &DramBackend = &b;
        r.read_at(0, &mut buf).unwrap();
        assert_eq!(r.len(), 16);
    }
}
