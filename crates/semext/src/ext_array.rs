//! Typed little-endian arrays on external storage.
//!
//! The offloaded graph structures are flat arrays of fixed-width integers
//! (CSR index entries are `u64`, vertex IDs are `u32`, edge tuples are
//! `u64` pairs). [`ExtArray`] gives typed access to such an array stored in
//! any [`ReadAt`] region, with an explicit little-endian encoding so files
//! are portable and no unsafe transmutes are needed.

use std::marker::PhantomData;
use std::path::Path;

use crate::backend::ReadAt;
use crate::error::{Error, Result};

/// Fixed-width little-endian encodable element types.
pub trait LeBytes: Copy + Send + Sync + 'static {
    /// Encoded size in bytes.
    const SIZE: usize;

    /// Decode from exactly [`Self::SIZE`] bytes.
    fn read_le(bytes: &[u8]) -> Self;

    /// Encode into exactly [`Self::SIZE`] bytes.
    fn write_le(self, out: &mut [u8]);
}

macro_rules! impl_le_bytes {
    ($($t:ty),*) => {$(
        impl LeBytes for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("exact-width slice"))
            }

            #[inline]
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

impl_le_bytes!(u8, u16, u32, u64, i32, i64);

/// A typed array of `T` stored in a [`ReadAt`] region.
#[derive(Debug)]
pub struct ExtArray<T, R> {
    store: R,
    len: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T: LeBytes, R: ReadAt> ExtArray<T, R> {
    /// Interpret `store` as an array of `T`.
    ///
    /// Fails with [`Error::Corrupt`] when the store size is not a multiple
    /// of `T::SIZE`.
    pub fn new(store: R) -> Result<Self> {
        let bytes = store.len();
        if !bytes.is_multiple_of(T::SIZE as u64) {
            return Err(Error::Corrupt(format!(
                "store of {bytes} bytes is not a whole number of {}-byte elements",
                T::SIZE
            )));
        }
        Ok(Self {
            store,
            len: bytes / T::SIZE as u64,
            _marker: PhantomData,
        })
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte offset of element `i`.
    #[inline]
    pub fn byte_offset(&self, i: u64) -> u64 {
        i * T::SIZE as u64
    }

    /// Read element `i` (one storage request).
    pub fn get(&self, i: u64) -> Result<T> {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        self.store.read_at(self.byte_offset(i), buf)?;
        Ok(T::read_le(buf))
    }

    /// Read elements `i` and `i+1` with a single storage request — the
    /// paper's index-array access pattern (`index[v]`, `index[v+1]` fetched
    /// together to bound a neighbor span).
    pub fn get_pair(&self, i: u64) -> Result<(T, T)> {
        let mut buf = [0u8; 32];
        let buf = &mut buf[..2 * T::SIZE];
        self.store.read_at(self.byte_offset(i), buf)?;
        Ok((T::read_le(&buf[..T::SIZE]), T::read_le(&buf[T::SIZE..])))
    }

    /// Read `out.len()` elements starting at `start` using a scratch byte
    /// buffer (one storage request).
    pub fn read_slice(&self, start: u64, out: &mut [T], scratch: &mut Vec<u8>) -> Result<()> {
        let bytes = out.len() * T::SIZE;
        scratch.clear();
        scratch.resize(bytes, 0);
        self.store.read_at(self.byte_offset(start), scratch)?;
        for (i, chunk) in scratch.chunks_exact(T::SIZE).enumerate() {
            out[i] = T::read_le(chunk);
        }
        Ok(())
    }

    /// Read the whole array into a `Vec` (for loading an index into DRAM).
    pub fn read_all(&self) -> Result<Vec<T>> {
        let mut out = vec![T::read_le(&vec![0u8; T::SIZE]); self.len as usize];
        let mut scratch = Vec::new();
        if !out.is_empty() {
            self.read_slice(0, &mut out, &mut scratch)?;
        }
        Ok(out)
    }

    /// Access the underlying store.
    pub fn store(&self) -> &R {
        &self.store
    }

    /// Scrub the whole array against sealed page checksums: every page is
    /// read back through the store and verified. Returns the first
    /// [`Error::ChecksumMismatch`] found. Reads are charged to the
    /// store's device like any other access — a scrub is real I/O.
    pub fn verify_integrity(&self, integrity: &crate::fault::PageIntegrity) -> Result<()> {
        use crate::PAGE_BYTES;
        let bytes = self.len * T::SIZE as u64;
        if bytes != integrity.len() {
            return Err(Error::Corrupt(format!(
                "integrity sealed over {} bytes but array holds {bytes}",
                integrity.len()
            )));
        }
        let mut buf = vec![0u8; PAGE_BYTES as usize];
        let mut off = 0u64;
        while off < bytes {
            let take = (bytes - off).min(PAGE_BYTES) as usize;
            self.store.read_at(off, &mut buf[..take])?;
            integrity.verify(off / PAGE_BYTES, &buf[..take])?;
            off += take as u64;
        }
        Ok(())
    }
}

/// Decode a byte buffer into elements of `T`, appending to `out`.
///
/// `bytes.len()` must be a multiple of `T::SIZE`.
pub fn decode_into<T: LeBytes>(bytes: &[u8], out: &mut Vec<T>) {
    debug_assert_eq!(bytes.len() % T::SIZE, 0);
    out.reserve(bytes.len() / T::SIZE);
    for chunk in bytes.chunks_exact(T::SIZE) {
        out.push(T::read_le(chunk));
    }
}

/// Write `items` to `path` as a little-endian array file. Returns the
/// number of bytes written. This is the "offload to NVM" write path.
pub fn write_array_file<T: LeBytes>(path: impl AsRef<Path>, items: &[T]) -> Result<u64> {
    use std::io::Write;
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
    let mut buf = [0u8; 16];
    for item in items {
        item.write_le(&mut buf[..T::SIZE]);
        w.write_all(&buf[..T::SIZE])?;
    }
    w.flush()?;
    Ok(items.len() as u64 * T::SIZE as u64)
}

/// Stream-write elements produced by `iter` to `path`. Returns the element
/// count. Used when the data is too large to materialize (external edge
/// lists).
pub fn write_array_stream<T: LeBytes>(
    path: impl AsRef<Path>,
    iter: impl Iterator<Item = T>,
) -> Result<u64> {
    use std::io::Write;
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
    let mut buf = [0u8; 16];
    let mut n = 0u64;
    for item in iter {
        item.write_le(&mut buf[..T::SIZE]);
        w.write_all(&buf[..T::SIZE])?;
        n += 1;
    }
    w.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DramBackend, FileBackend};
    use crate::tempdir::TempDir;

    fn dram_of<T: LeBytes>(items: &[T]) -> ExtArray<T, DramBackend> {
        let mut bytes = vec![0u8; items.len() * T::SIZE];
        for (i, item) in items.iter().enumerate() {
            item.write_le(&mut bytes[i * T::SIZE..(i + 1) * T::SIZE]);
        }
        ExtArray::new(DramBackend::new(bytes)).unwrap()
    }

    #[test]
    fn get_roundtrip_u64() {
        let items: Vec<u64> = (0..100).map(|i| i * 1_000_000_007).collect();
        let arr = dram_of(&items);
        assert_eq!(arr.len(), 100);
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(arr.get(i as u64).unwrap(), v);
        }
    }

    #[test]
    fn get_pair_matches_two_gets() {
        let items: Vec<u32> = (0..50).map(|i| i * 7 + 3).collect();
        let arr = dram_of(&items);
        for i in 0..49u64 {
            let (a, b) = arr.get_pair(i).unwrap();
            assert_eq!(a, arr.get(i).unwrap());
            assert_eq!(b, arr.get(i + 1).unwrap());
        }
    }

    #[test]
    fn read_slice_matches_items() {
        let items: Vec<u32> = (0..1000).map(|i| i ^ 0xABCD).collect();
        let arr = dram_of(&items);
        let mut out = vec![0u32; 100];
        let mut scratch = Vec::new();
        arr.read_slice(500, &mut out, &mut scratch).unwrap();
        assert_eq!(&out[..], &items[500..600]);
    }

    #[test]
    fn read_all_roundtrip() {
        let items: Vec<i64> = (-500..500).collect();
        let arr = dram_of(&items);
        assert_eq!(arr.read_all().unwrap(), items);
    }

    #[test]
    fn verify_integrity_scrubs_and_reports_torn_pages() {
        use crate::fault::PageIntegrity;
        let items: Vec<u64> = (0..2000).map(|i| i * 31 + 7).collect();
        let mut bytes = vec![0u8; items.len() * 8];
        for (i, item) in items.iter().enumerate() {
            item.write_le(&mut bytes[i * 8..(i + 1) * 8]);
        }
        let integrity = PageIntegrity::seal_bytes(&bytes);
        let arr = ExtArray::<u64, _>::new(DramBackend::new(bytes.clone())).unwrap();
        arr.verify_integrity(&integrity).unwrap();

        // Tear a byte on page 2: the scrub reports that page.
        bytes[2 * 4096 + 5] ^= 0x80;
        let torn = ExtArray::<u64, _>::new(DramBackend::new(bytes)).unwrap();
        match torn.verify_integrity(&integrity) {
            Err(Error::ChecksumMismatch { page, .. }) => assert_eq!(page, 2),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }

        // Length mismatch is a structural error, not a checksum one.
        let short = ExtArray::<u64, _>::new(DramBackend::new(vec![0u8; 8])).unwrap();
        assert!(matches!(
            short.verify_integrity(&integrity),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn misaligned_store_rejected() {
        let store = DramBackend::new(vec![0u8; 7]);
        assert!(matches!(
            ExtArray::<u32, _>::new(store),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn empty_array_ok() {
        let arr: ExtArray<u64, _> = ExtArray::new(DramBackend::new(vec![])).unwrap();
        assert!(arr.is_empty());
        assert_eq!(arr.read_all().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn out_of_bounds_get_fails() {
        let arr = dram_of(&[1u32, 2, 3]);
        assert!(arr.get(3).is_err());
        assert!(arr.get_pair(2).is_err());
    }

    #[test]
    fn file_write_read_roundtrip() {
        let dir = TempDir::new("ext-array").unwrap();
        let path = dir.path().join("arr.bin");
        let items: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let bytes = write_array_file(&path, &items).unwrap();
        assert_eq!(bytes, 80_000);
        let arr: ExtArray<u64, _> = ExtArray::new(FileBackend::open(&path).unwrap()).unwrap();
        assert_eq!(arr.read_all().unwrap(), items);
    }

    #[test]
    fn stream_write_matches_slice_write() {
        let dir = TempDir::new("ext-stream").unwrap();
        let a = dir.path().join("a.bin");
        let b = dir.path().join("b.bin");
        let items: Vec<u32> = (0..5000).map(|i| i * 3).collect();
        write_array_file(&a, &items).unwrap();
        let n = write_array_stream(&b, items.iter().copied()).unwrap();
        assert_eq!(n, 5000);
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    }

    #[test]
    fn decode_into_appends() {
        let mut bytes = vec![0u8; 8];
        42u32.write_le(&mut bytes[0..4]);
        7u32.write_le(&mut bytes[4..8]);
        let mut out = vec![1u32];
        decode_into::<u32>(&bytes, &mut out);
        assert_eq!(out, vec![1, 42, 7]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary u64 arrays survive an encode → ExtArray → decode trip.
            #[test]
            fn u64_roundtrip(items in proptest::collection::vec(any::<u64>(), 0..200)) {
                let arr = dram_of(&items);
                prop_assert_eq!(arr.read_all().unwrap(), items);
            }

            /// Any in-bounds slice read matches the source.
            #[test]
            fn slice_read_window(
                items in proptest::collection::vec(any::<u32>(), 1..500),
                start in 0usize..500,
                len in 0usize..500,
            ) {
                prop_assume!(start < items.len());
                let len = len.min(items.len() - start);
                let arr = dram_of(&items);
                let mut out = vec![0u32; len];
                let mut scratch = Vec::new();
                arr.read_slice(start as u64, &mut out, &mut scratch).unwrap();
                prop_assert_eq!(&out[..], &items[start..start + len]);
            }
        }
    }
}
