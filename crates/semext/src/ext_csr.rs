//! CSR graphs on external storage — the offloaded forward graph.
//!
//! §V-B1: the CSR index and value arrays are stored on NVM as two files
//! (the paper's *array file* and *value file*); a neighbor lookup reads
//! `index[v]` and `index[v+1]` from the index file, then reads the value
//! span in ≤4 KiB chunks. [`ExtCsr`] implements exactly that, over any
//! [`ReadAt`] store (a metered [`NvmStore`](crate::NvmStore) in the
//! scenarios, plain backends in tests).
//!
//! The index can optionally be pinned in DRAM
//! ([`ExtCsr::with_dram_index`]) — an optimization knob the ablation
//! benches explore; the paper's baseline reads the index from NVM too.

use std::path::Path;

use crate::backend::ReadAt;
use crate::chunked::ChunkedReader;
use crate::error::{Error, Result};
use crate::ext_array::{decode_into, write_array_file, ExtArray};

/// A CSR adjacency structure stored externally: a `u64` index array of
/// `n + 1` entries and a `u32` value (neighbor) array of `m` entries.
#[derive(Debug)]
pub struct ExtCsr<R> {
    index: ExtArray<u64, R>,
    values: ExtArray<u32, R>,
    /// Index array pinned in DRAM, when enabled.
    dram_index: Option<Vec<u64>>,
    num_vertices: u64,
}

impl<R: ReadAt> ExtCsr<R> {
    /// Bind an index store and a value store as one CSR graph.
    ///
    /// Validates that the index has at least one entry and that its final
    /// entry equals the number of values.
    pub fn new(index_store: R, value_store: R) -> Result<Self> {
        let index = ExtArray::<u64, R>::new(index_store)?;
        let values = ExtArray::<u32, R>::new(value_store)?;
        if index.is_empty() {
            return Err(Error::Corrupt("CSR index file has no entries".into()));
        }
        let num_vertices = index.len() - 1;
        let last = index.get(num_vertices)?;
        if last != values.len() {
            return Err(Error::Corrupt(format!(
                "CSR index final entry {last} does not match value count {}",
                values.len()
            )));
        }
        Ok(Self {
            index,
            values,
            dram_index: None,
            num_vertices,
        })
    }

    /// Load the index array into DRAM; subsequent degree/offset lookups
    /// cost no storage requests.
    pub fn with_dram_index(mut self) -> Result<Self> {
        self.dram_index = Some(self.index.read_all()?);
        Ok(self)
    }

    /// True when the index array is pinned in DRAM.
    pub fn has_dram_index(&self) -> bool {
        self.dram_index.is_some()
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of stored neighbor entries `m`.
    pub fn num_values(&self) -> u64 {
        self.values.len()
    }

    /// Size of the structure in bytes (index + values).
    pub fn byte_size(&self) -> u64 {
        (self.index.len()) * 8 + self.values.len() * 4
    }

    /// The `[start, end)` range of vertex `v`'s neighbors in the value
    /// array. One storage request (or zero with a DRAM index).
    pub fn neighbor_range(&self, v: u64) -> Result<(u64, u64)> {
        if v >= self.num_vertices {
            return Err(Error::OutOfBounds {
                offset: v,
                len: 1,
                size: self.num_vertices,
            });
        }
        if let Some(idx) = &self.dram_index {
            Ok((idx[v as usize], idx[v as usize + 1]))
        } else {
            self.index.get_pair(v)
        }
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: u64) -> Result<u64> {
        let (s, e) = self.neighbor_range(v)?;
        Ok(e - s)
    }

    /// Read vertex `v`'s neighbors into `out` (cleared first), fetching the
    /// value span through `reader` and decoding via `scratch`.
    pub fn read_neighbors(
        &self,
        v: u64,
        reader: &ChunkedReader,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u8>,
    ) -> Result<()> {
        let (start, end) = self.neighbor_range(v)?;
        out.clear();
        let bytes = (end - start) as usize * 4;
        if bytes == 0 {
            return Ok(());
        }
        scratch.clear();
        scratch.resize(bytes, 0);
        reader.read_span(self.values.store(), start * 4, scratch)?;
        decode_into::<u32>(scratch, out);
        Ok(())
    }

    /// Read an arbitrary `[start, end)` window of the value array into
    /// `out` (cleared first). Used by the backward-graph partial-offload
    /// path, which streams only the cold tail of a vertex's neighbors.
    pub fn read_value_window(
        &self,
        start: u64,
        end: u64,
        reader: &ChunkedReader,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u8>,
    ) -> Result<()> {
        out.clear();
        if end <= start {
            return Ok(());
        }
        let bytes = (end - start) as usize * 4;
        scratch.clear();
        scratch.resize(bytes, 0);
        reader.read_span(self.values.store(), start * 4, scratch)?;
        decode_into::<u32>(scratch, out);
        Ok(())
    }

    /// Read several vertices' neighbor lists with at most **two batched
    /// device submissions** — one for the index pairs, one for all value
    /// spans — the `libaio`-style aggregation §VI-D proposes. Results land
    /// in `batch.outs[i]` for `vs[i]`.
    ///
    /// Equivalent to calling [`read_neighbors`](Self::read_neighbors) per
    /// vertex, but the device access latency is paid per *batch* instead
    /// of per request (see [`crate::Device::read_batch`]).
    pub fn read_neighbors_batch(
        &self,
        vs: &[u64],
        reader: &ChunkedReader,
        batch: &mut NeighborBatch,
    ) -> Result<()> {
        use crate::backend::BatchRead;

        batch.outs.resize_with(vs.len(), Vec::new);
        for out in batch.outs.iter_mut() {
            out.clear();
        }
        if vs.is_empty() {
            return Ok(());
        }

        // Pass 1: neighbor ranges — batched index-pair reads when the
        // index lives on the device.
        batch.ranges.clear();
        if let Some(idx) = &self.dram_index {
            for &v in vs {
                if v >= self.num_vertices {
                    return Err(Error::OutOfBounds {
                        offset: v,
                        len: 1,
                        size: self.num_vertices,
                    });
                }
                batch.ranges.push((idx[v as usize], idx[v as usize + 1]));
            }
        } else {
            batch.bytes.clear();
            batch.bytes.resize(vs.len() * 16, 0);
            {
                let mut reqs = Vec::with_capacity(vs.len());
                let mut rest = batch.bytes.as_mut_slice();
                for &v in vs {
                    if v >= self.num_vertices {
                        return Err(Error::OutOfBounds {
                            offset: v,
                            len: 1,
                            size: self.num_vertices,
                        });
                    }
                    let (head, tail) = rest.split_at_mut(16);
                    reqs.push(BatchRead {
                        offset: self.index.byte_offset(v),
                        buf: head,
                    });
                    rest = tail;
                }
                self.index.store().read_batch_at(&mut reqs)?;
            }
            for chunk in batch.bytes.chunks_exact(16) {
                let s = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
                let e = u64::from_le_bytes(chunk[8..].try_into().expect("8 bytes"));
                batch.ranges.push((s, e));
            }
        }

        // Pass 2: all value spans in one submission, each span chunked to
        // the reader's merge limit.
        let total_bytes: usize = batch
            .ranges
            .iter()
            .map(|&(s, e)| (e - s) as usize * 4)
            .sum();
        batch.bytes.clear();
        batch.bytes.resize(total_bytes, 0);
        {
            let merge = reader.merge_limit();
            let mut reqs = Vec::new();
            let mut rest = batch.bytes.as_mut_slice();
            for &(s, e) in &batch.ranges {
                let mut offset = s * 4;
                let mut remaining = (e - s) as usize * 4;
                while remaining > 0 {
                    let take = remaining.min(merge);
                    let (head, tail) = rest.split_at_mut(take);
                    reqs.push(BatchRead { offset, buf: head });
                    rest = tail;
                    offset += take as u64;
                    remaining -= take;
                }
            }
            if !reqs.is_empty() {
                self.values.store().read_batch_at(&mut reqs)?;
            }
        }
        let mut pos = 0usize;
        for (i, &(s, e)) in batch.ranges.iter().enumerate() {
            let len = (e - s) as usize * 4;
            decode_into::<u32>(&batch.bytes[pos..pos + len], &mut batch.outs[i]);
            pos += len;
        }
        Ok(())
    }

    /// Visit the neighbor lists of `vs`, calling `f(v, neighbors)` once
    /// per vertex in slice order, with one index read and one value read
    /// per *window* instead of per vertex.
    ///
    /// A window is a run of consecutive, ascending members whose index
    /// entries lie less than 512 bytes apart, cut further wherever a
    /// nonempty value span starts 512 bytes or more past the previous
    /// nonempty one. The gap is smaller than a page, so a window's reads
    /// touch exactly the pages its members' own reads would; on a paged
    /// store each page is looked up once per window. A sorted slice of
    /// nearby vertices (a top-down unit) forms few windows; an unsorted
    /// one degrades to single vertices, read exactly as by
    /// [`read_neighbors`](Self::read_neighbors).
    pub fn for_each_neighbors(
        &self,
        vs: &[u32],
        reader: &ChunkedReader,
        scratch: &mut WindowScratch,
        f: &mut dyn FnMut(u32, &[u32]),
    ) -> Result<()> {
        let WindowScratch {
            ranges,
            bytes,
            values,
        } = scratch;
        for window in self.index_windows(vs) {
            self.window_ranges(window, ranges, bytes)?;
            for (members, start, end) in value_windows(ranges) {
                values.clear();
                if end > start {
                    bytes.clear();
                    bytes.resize((end - start) as usize * 4, 0);
                    reader.read_span(self.values.store(), start * 4, bytes)?;
                    decode_into::<u32>(bytes, values);
                }
                for (&v, &(s, e)) in window[members.clone()].iter().zip(&ranges[members]) {
                    let ns = if s < e {
                        &values[(s - start) as usize..(e - start) as usize]
                    } else {
                        &[]
                    };
                    f(v, ns);
                }
            }
        }
        Ok(())
    }

    /// Start loading the index entries of `vs` ahead of their demand
    /// reads ([`ReadAt::prefetch`]), one hint per window of
    /// [`for_each_neighbors`](Self::for_each_neighbors). A no-op with a
    /// DRAM index or on stores that do not prefetch.
    pub fn prefetch_index(&self, vs: &[u32]) {
        if self.dram_index.is_some() || !self.index.store().prefetches() {
            return;
        }
        for window in self.index_windows(vs) {
            let first = u64::from(window[0]);
            let last = u64::from(window[window.len() - 1]);
            self.index
                .store()
                .prefetch(self.index.byte_offset(first), (last - first + 2) * 8);
        }
    }

    /// Start loading the neighbor value spans of `vs` ahead of their
    /// demand reads ([`ReadAt::prefetch`]), one hint per window of
    /// [`for_each_neighbors`](Self::for_each_neighbors). The spans' bounds
    /// come from one index read per window, so this is best run once
    /// [`prefetch_index`](Self::prefetch_index) has brought those entries
    /// in. Best-effort: a window whose index entries cannot be read is
    /// skipped, and stores that do not prefetch cost no index reads at
    /// all.
    pub fn prefetch_values(&self, vs: &[u32], scratch: &mut WindowScratch) {
        if !self.values.store().prefetches() {
            return;
        }
        let WindowScratch { ranges, bytes, .. } = scratch;
        for window in self.index_windows(vs) {
            if self.window_ranges(window, ranges, bytes).is_err() {
                continue;
            }
            for (_, start, end) in value_windows(ranges) {
                if end > start {
                    self.values.store().prefetch(start * 4, (end - start) * 4);
                }
            }
        }
    }

    /// Split `vs` into index windows: maximal runs of ascending vertices
    /// whose index entries lie less than [`WINDOW_GAP_BYTES`] apart. With
    /// a DRAM index nothing is read, so the whole slice is one window.
    fn index_windows<'a>(&'a self, mut vs: &'a [u32]) -> impl Iterator<Item = &'a [u32]> + 'a {
        std::iter::from_fn(move || {
            if vs.is_empty() {
                return None;
            }
            let len = if self.dram_index.is_some() {
                vs.len()
            } else {
                // Entries of v and w span [8v, 8w + 16).
                let near = |p: &[u32]| {
                    p[1] > p[0]
                        && (u64::from(p[1] - p[0]) * 8).saturating_sub(16) < WINDOW_GAP_BYTES
                };
                1 + vs.windows(2).take_while(|p| near(p)).count()
            };
            let (window, rest) = vs.split_at(len);
            vs = rest;
            Some(window)
        })
    }

    /// Resolve the value ranges of one index window into `ranges`: one
    /// read of the window's index entries (staged in `bytes`), or DRAM
    /// lookups.
    fn window_ranges(
        &self,
        window: &[u32],
        ranges: &mut Vec<(u64, u64)>,
        bytes: &mut Vec<u8>,
    ) -> Result<()> {
        ranges.clear();
        if let Some(&v) = window.iter().find(|&&v| u64::from(v) >= self.num_vertices) {
            return Err(Error::OutOfBounds {
                offset: v.into(),
                len: 1,
                size: self.num_vertices,
            });
        }
        if let Some(idx) = &self.dram_index {
            ranges.extend(
                window
                    .iter()
                    .map(|&v| (idx[v as usize], idx[v as usize + 1])),
            );
            return Ok(());
        }
        let first = window[0];
        let last = window[window.len() - 1];
        bytes.clear();
        bytes.resize((last - first) as usize * 8 + 16, 0);
        self.index
            .store()
            .read_at(self.index.byte_offset(first.into()), bytes)?;
        let entry =
            |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        ranges.extend(window.iter().map(|&v| {
            let i = (v - first) as usize;
            (entry(i), entry(i + 1))
        }));
        Ok(())
    }

    /// The underlying index array.
    pub fn index(&self) -> &ExtArray<u64, R> {
        &self.index
    }

    /// The underlying value array.
    pub fn values(&self) -> &ExtArray<u32, R> {
        &self.values
    }
}

/// Reusable scratch state for [`ExtCsr::read_neighbors_batch`].
#[derive(Debug, Default)]
pub struct NeighborBatch {
    /// Decoded neighbor lists, one per requested vertex.
    pub outs: Vec<Vec<u32>>,
    /// Resolved `[start, end)` value ranges.
    ranges: Vec<(u64, u64)>,
    /// Raw byte staging area.
    bytes: Vec<u8>,
}

impl NeighborBatch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Largest byte gap between neighbouring members' index entries, or
/// between their nonempty value spans, that one windowed read spans. It
/// is below a page, so a window touches only pages its members touch, and
/// small, so the gap bytes a window copies for nothing stay few.
const WINDOW_GAP_BYTES: u64 = 512;

/// Reusable scratch for [`ExtCsr::for_each_neighbors`] and
/// [`ExtCsr::prefetch_values`], so windowed reads allocate nothing once
/// warm.
#[derive(Debug, Default)]
pub struct WindowScratch {
    /// `[start, end)` value ranges of the current index window.
    ranges: Vec<(u64, u64)>,
    /// Raw bytes of the current index or value window.
    bytes: Vec<u8>,
    /// Decoded values of the current value window.
    values: Vec<u32>,
}

/// Split one index window's value `ranges` into value windows, yielding
/// each window's member positions and its `[start, end)` value span
/// (empty when every member's list is). A member joins while its list is
/// empty (it touches no page) or starts less than [`WINDOW_GAP_BYTES`]
/// past the end of the window's last nonempty list.
fn value_windows(
    ranges: &[(u64, u64)],
) -> impl Iterator<Item = (std::ops::Range<usize>, u64, u64)> + '_ {
    let mut a = 0;
    std::iter::from_fn(move || {
        if a >= ranges.len() {
            return None;
        }
        let mut span: Option<(u64, u64)> = None;
        let mut b = a;
        for &(s, e) in &ranges[a..] {
            if s < e {
                match span {
                    None => span = Some((s, e)),
                    Some((start, end)) if s >= end && (s - end) * 4 < WINDOW_GAP_BYTES => {
                        span = Some((start, e))
                    }
                    Some(_) => break,
                }
            }
            b += 1;
        }
        let (start, end) = span.unwrap_or((0, 0));
        let members = a..b;
        a = b;
        Some((members, start, end))
    })
}

/// Write a CSR (index, values) pair to `index_path`/`value_path` as
/// little-endian array files — the "offload the forward graph to NVM"
/// step (§V-A Step 2). Returns total bytes written.
pub fn write_csr_files(
    index_path: impl AsRef<Path>,
    value_path: impl AsRef<Path>,
    index: &[u64],
    values: &[u32],
) -> Result<u64> {
    assert!(!index.is_empty(), "CSR index must have at least one entry");
    assert_eq!(
        *index.last().unwrap(),
        values.len() as u64,
        "CSR index final entry must equal value count"
    );
    let a = write_array_file(index_path, index)?;
    let b = write_array_file(value_path, values)?;
    Ok(a + b)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::backend::{DramBackend, FileBackend};
    use crate::device::{DelayMode, Device, DeviceProfile};
    use crate::shard_cache::{ShardedCachedStore, ShardedPageCache};
    use crate::tempdir::TempDir;
    use crate::PAGE_BYTES;

    /// A small fixed graph: 0→{1,2}, 1→{0,2,3}, 2→{}, 3→{1}.
    fn sample_csr() -> (Vec<u64>, Vec<u32>) {
        (vec![0, 2, 5, 5, 6], vec![1, 2, 0, 2, 3, 1])
    }

    /// Little-endian file images of a CSR's index and value arrays.
    fn csr_bytes(index: &[u64], values: &[u32]) -> (Vec<u8>, Vec<u8>) {
        (
            index.iter().flat_map(|v| v.to_le_bytes()).collect(),
            values.iter().flat_map(|v| v.to_le_bytes()).collect(),
        )
    }

    fn dram_csr() -> ExtCsr<DramBackend> {
        let (index, values) = sample_csr();
        let (ib, vb) = csr_bytes(&index, &values);
        ExtCsr::new(DramBackend::new(ib), DramBackend::new(vb)).unwrap()
    }

    /// A CSR whose files sit behind one shared page cache on `device`.
    fn cached_csr(
        index: &[u64],
        values: &[u32],
        device: &Arc<Device>,
        cache: &Arc<ShardedPageCache>,
    ) -> ExtCsr<ShardedCachedStore<DramBackend>> {
        let (ib, vb) = csr_bytes(index, values);
        let store =
            |bytes| ShardedCachedStore::new(DramBackend::new(bytes), device.clone(), cache.clone());
        ExtCsr::new(store(ib), store(vb)).unwrap()
    }

    /// `for_each_neighbors(vs)` (after the windowed hints) hands out
    /// exactly the per-vertex `read_neighbors` lists, in slice order.
    fn assert_windowed_matches<R: ReadAt>(csr: &ExtCsr<R>, vs: &[u32]) {
        let reader = ChunkedReader::unmerged();
        let mut window = WindowScratch::default();
        csr.prefetch_index(vs);
        csr.prefetch_values(vs, &mut window);
        let mut seen = Vec::new();
        csr.for_each_neighbors(vs, &reader, &mut window, &mut |v, ns| {
            seen.push((v, ns.to_vec()))
        })
        .unwrap();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        let expect: Vec<(u32, Vec<u32>)> = vs
            .iter()
            .map(|&v| {
                csr.read_neighbors(v.into(), &reader, &mut out, &mut scratch)
                    .unwrap();
                (v, out.clone())
            })
            .collect();
        assert_eq!(seen, expect, "vertices {vs:?}");
    }

    #[test]
    fn shape_is_read_back() {
        let csr = dram_csr();
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_values(), 6);
        assert_eq!(csr.byte_size(), 5 * 8 + 6 * 4);
    }

    #[test]
    fn degrees_and_ranges() {
        let csr = dram_csr();
        assert_eq!(csr.degree(0).unwrap(), 2);
        assert_eq!(csr.degree(1).unwrap(), 3);
        assert_eq!(csr.degree(2).unwrap(), 0);
        assert_eq!(csr.degree(3).unwrap(), 1);
        assert_eq!(csr.neighbor_range(1).unwrap(), (2, 5));
    }

    #[test]
    fn neighbors_read_back() {
        let csr = dram_csr();
        let reader = ChunkedReader::unmerged();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        csr.read_neighbors(1, &reader, &mut out, &mut scratch)
            .unwrap();
        assert_eq!(out, vec![0, 2, 3]);
        csr.read_neighbors(2, &reader, &mut out, &mut scratch)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn dram_index_gives_same_answers() {
        let csr = dram_csr().with_dram_index().unwrap();
        assert!(csr.has_dram_index());
        assert_eq!(csr.neighbor_range(3).unwrap(), (5, 6));
        assert_eq!(csr.degree(1).unwrap(), 3);
    }

    #[test]
    fn value_window_reads_tail() {
        let csr = dram_csr();
        let reader = ChunkedReader::unmerged();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        // Vertex 1's neighbors occupy [2, 5); read just the tail [3, 5).
        csr.read_value_window(3, 5, &reader, &mut out, &mut scratch)
            .unwrap();
        assert_eq!(out, vec![2, 3]);
        csr.read_value_window(5, 5, &reader, &mut out, &mut scratch)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn vertex_out_of_range_rejected() {
        let csr = dram_csr();
        assert!(csr.neighbor_range(4).is_err());
    }

    #[test]
    fn mismatched_index_value_rejected() {
        let ib: Vec<u8> = [0u64, 3].iter().flat_map(|v| v.to_le_bytes()).collect();
        let vb = vec![0u8; 4]; // 1 value, index claims 3
        assert!(matches!(
            ExtCsr::new(DramBackend::new(ib), DramBackend::new(vb)),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn empty_index_rejected() {
        assert!(matches!(
            ExtCsr::new(DramBackend::new(vec![]), DramBackend::new(vec![])),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = TempDir::new("ext-csr").unwrap();
        let (index, values) = sample_csr();
        let ip = dir.path().join("fg.index");
        let vp = dir.path().join("fg.values");
        let bytes = write_csr_files(&ip, &vp, &index, &values).unwrap();
        assert_eq!(bytes, 5 * 8 + 6 * 4);

        let csr = ExtCsr::new(
            FileBackend::open(&ip).unwrap(),
            FileBackend::open(&vp).unwrap(),
        )
        .unwrap();
        let reader = ChunkedReader::unmerged();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        csr.read_neighbors(0, &reader, &mut out, &mut scratch)
            .unwrap();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "final entry must equal")]
    fn write_validates_consistency() {
        let dir = TempDir::new("ext-csr-bad").unwrap();
        let _ = write_csr_files(
            dir.path().join("i"),
            dir.path().join("v"),
            &[0u64, 5],
            &[1u32, 2],
        );
    }

    #[test]
    fn batch_matches_individual_reads() {
        let csr = dram_csr();
        let reader = ChunkedReader::unmerged();
        let mut batch = NeighborBatch::new();
        csr.read_neighbors_batch(&[0, 1, 2, 3], &reader, &mut batch)
            .unwrap();
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for v in 0..4u64 {
            csr.read_neighbors(v, &reader, &mut out, &mut scratch)
                .unwrap();
            assert_eq!(batch.outs[v as usize], out, "vertex {v}");
        }
    }

    #[test]
    fn batch_with_dram_index_matches() {
        let csr = dram_csr().with_dram_index().unwrap();
        let reader = ChunkedReader::unmerged();
        let mut batch = NeighborBatch::new();
        csr.read_neighbors_batch(&[3, 0], &reader, &mut batch)
            .unwrap();
        assert_eq!(batch.outs[0], vec![1]);
        assert_eq!(batch.outs[1], vec![1, 2]);
    }

    #[test]
    fn batch_empty_and_out_of_range() {
        let csr = dram_csr();
        let reader = ChunkedReader::unmerged();
        let mut batch = NeighborBatch::new();
        csr.read_neighbors_batch(&[], &reader, &mut batch).unwrap();
        assert!(batch.outs.is_empty());
        assert!(csr.read_neighbors_batch(&[9], &reader, &mut batch).is_err());
    }

    #[test]
    fn windowed_visit_handles_empty_lists_and_rejects_bad_vertices() {
        let csr = dram_csr();
        // 2 has no neighbors; the 1s after 3 do not ascend, so each
        // opens a new window.
        assert_windowed_matches(&csr, &[0, 1, 2, 3, 1, 1]);
        assert_windowed_matches(&csr, &[2]);
        assert_windowed_matches(&csr, &[]);
        let mut window = WindowScratch::default();
        let visit = csr.for_each_neighbors(
            &[0, 4],
            &ChunkedReader::unmerged(),
            &mut window,
            &mut |_, _| {},
        );
        assert!(matches!(visit, Err(Error::OutOfBounds { offset: 4, .. })));
    }

    #[test]
    fn windowed_reads_load_the_pages_per_vertex_reads_load() {
        // Lists of 0..40 entries, so neighbouring vertices share pages.
        // Members skip one vertex in three (windows continue) and runs of
        // 61 vertices, whose ~5 KB of values can hold a page no member
        // touches (value windows must split there while index windows
        // continue).
        let mut index = vec![0u64];
        let mut values = Vec::new();
        for v in 0..4000u32 {
            values.extend((0..v * 37 % 41).map(|j| v ^ j));
            index.push(values.len() as u64);
        }
        let vs: Vec<u32> = (0..4000u32)
            .filter(|v| v % 3 != 1 && v % 211 < 150)
            .collect();
        let load = |windowed: bool| {
            let device = Device::new(DeviceProfile::iodrive2(), DelayMode::Accounting);
            // Larger than both files: no page is evicted or read twice.
            let cache = ShardedPageCache::new(1 << 20);
            let csr = cached_csr(&index, &values, &device, &cache);
            let reader = ChunkedReader::for_device(&device);
            let (mut window, mut out, mut scratch) =
                (WindowScratch::default(), Vec::new(), Vec::new());
            let before = cache.snapshot();
            let mut edges = 0;
            for unit in vs.chunks(64) {
                if windowed {
                    csr.for_each_neighbors(unit, &reader, &mut window, &mut |_, ns| {
                        edges += ns.len()
                    })
                    .unwrap();
                } else {
                    for &v in unit {
                        csr.read_neighbors(v.into(), &reader, &mut out, &mut scratch)
                            .unwrap();
                        edges += out.len();
                    }
                }
            }
            let after = cache.snapshot();
            let lookups = after.hits + after.misses - before.hits - before.misses;
            (device.snapshot(), cache.resident_pages(), lookups, edges)
        };
        let (per_vertex, per_vertex_pages, per_vertex_lookups, edges) = load(false);
        let (windowed, windowed_pages, windowed_lookups, windowed_edges) = load(true);
        assert_eq!(windowed_edges, edges);
        assert_eq!(windowed_pages, per_vertex_pages, "same distinct pages");
        assert_eq!(windowed.bytes, per_vertex.bytes, "same device bytes");
        assert!(windowed.requests <= per_vertex.requests);
        assert!(
            windowed_lookups * 4 < per_vertex_lookups,
            "{windowed_lookups} windowed vs {per_vertex_lookups} per-vertex page lookups"
        );
    }

    #[test]
    fn batch_device_requests_counted_once_per_submission() {
        use crate::device::NvmStore;
        let (index, values) = sample_csr();
        let dir = TempDir::new("batch-csr").unwrap();
        let ip = dir.path().join("i");
        let vp = dir.path().join("v");
        write_csr_files(&ip, &vp, &index, &values).unwrap();
        let dev = Device::new(DeviceProfile::iodrive2(), DelayMode::Accounting);
        let csr = ExtCsr::new(
            NvmStore::new(FileBackend::open(&ip).unwrap(), dev.clone()),
            NvmStore::new(FileBackend::open(&vp).unwrap(), dev.clone()),
        )
        .unwrap();
        let reader = ChunkedReader::unmerged();
        let mut batch = NeighborBatch::new();
        dev.reset_stats(); // drop the construction-time validation read
        csr.read_neighbors_batch(&[0, 1, 3], &reader, &mut batch)
            .unwrap();
        // 3 index pair reads + 3 nonempty value spans = 6 requests total.
        assert_eq!(dev.snapshot().requests, 6);
        assert_eq!(batch.outs[1], vec![0, 2, 3]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Build a random CSR from per-vertex adjacency lists, write it to
            /// DRAM stores, and verify every neighbor list reads back exactly.
            #[test]
            fn random_csr_roundtrip(
                adj in proptest::collection::vec(
                    proptest::collection::vec(any::<u32>(), 0..50), 1..40)
            ) {
                let mut index = vec![0u64];
                let mut values = Vec::new();
                for list in &adj {
                    values.extend_from_slice(list);
                    index.push(values.len() as u64);
                }
                let ib: Vec<u8> = index.iter().flat_map(|v| v.to_le_bytes()).collect();
                let vb: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
                let csr = ExtCsr::new(DramBackend::new(ib), DramBackend::new(vb)).unwrap();
                prop_assert_eq!(csr.num_vertices(), adj.len() as u64);

                let reader = ChunkedReader::unmerged();
                let (mut out, mut scratch) = (Vec::new(), Vec::new());
                for (v, list) in adj.iter().enumerate() {
                    csr.read_neighbors(v as u64, &reader, &mut out, &mut scratch).unwrap();
                    prop_assert_eq!(&out, list);
                }
            }

            /// Windowed visits equal per-vertex reads for ascending,
            /// unsorted, strided and singleton vertex lists, with the index
            /// on the store or in DRAM, on plain DRAM stores and behind a
            /// one-page cache. One vertex in four gets a list of up to 400
            /// entries, so member gaps fall on both sides of the 512-byte
            /// window gap and of page boundaries, in both files.
            #[test]
            fn windowed_visit_matches_per_vertex_reads(
                degrees in proptest::collection::vec((0u32..4, 0u32..400), 1..700),
                picks in proptest::collection::vec(any::<u32>(), 0..80),
                stride in 1u32..160,
            ) {
                let mut index = vec![0u64];
                let mut values = Vec::new();
                for (v, &(kind, len)) in degrees.iter().enumerate() {
                    let len = if kind == 0 { len } else { len % 8 };
                    values.extend((0..len).map(|j| (v as u32).wrapping_mul(7919) ^ j));
                    index.push(values.len() as u64);
                }
                let n = degrees.len() as u32;
                let unsorted: Vec<u32> = picks.iter().map(|&p| p % n).collect();
                let mut ascending = unsorted.clone();
                ascending.sort_unstable();
                ascending.dedup();
                let strided: Vec<u32> = (0..n).step_by(stride as usize).collect();

                let (ib, vb) = csr_bytes(&index, &values);
                let dram = || ExtCsr::new(DramBackend::new(ib.clone()), DramBackend::new(vb.clone())).unwrap();
                let cached = || {
                    let cache = ShardedPageCache::with_shards(PAGE_BYTES, 1);
                    cached_csr(&index, &values, &Device::unmetered(), &cache)
                };
                let check = |csr: &dyn Fn(&[u32])| {
                    for vs in [&unsorted, &ascending, &strided] {
                        csr(vs);
                    }
                    for &v in &ascending {
                        csr(&[v]);
                    }
                };
                let (a, b) = (dram(), dram().with_dram_index().unwrap());
                check(&|vs| assert_windowed_matches(&a, vs));
                check(&|vs| assert_windowed_matches(&b, vs));
                let (c, d) = (cached(), cached().with_dram_index().unwrap());
                check(&|vs| assert_windowed_matches(&c, vs));
                check(&|vs| assert_windowed_matches(&d, vs));
            }
        }
    }
}
