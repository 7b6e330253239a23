//! Concurrent bitmaps for BFS status data.
//!
//! NETAL's status data (§IV-A) includes "bitmaps for BFS status memories":
//! the visited set and the frontier/next sets used by the bottom-up phase.
//! [`AtomicBitmap`] packs one bit per vertex into `AtomicU64` words;
//! `test_and_set` is the claim operation that makes the top-down step's
//! `tree(w) = -1` check-and-mark atomic.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::VertexId;

/// A fixed-size concurrent bitmap, one bit per vertex.
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
    len: u64,
}

impl AtomicBitmap {
    /// An all-zero bitmap over `len` bits.
    pub fn new(len: u64) -> Self {
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self { words, len }
    }

    /// Number of bits.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: VertexId) -> bool {
        debug_assert!((i as u64) < self.len);
        let w = self.words[i as usize / 64].load(Ordering::Relaxed);
        w & (1u64 << (i % 64)) != 0
    }

    /// Set bit `i` (no return).
    #[inline]
    pub fn set(&self, i: VertexId) {
        debug_assert!((i as u64) < self.len);
        self.words[i as usize / 64].fetch_or(1u64 << (i % 64), Ordering::Relaxed);
    }

    /// Atomically set bit `i`, returning whether it was **already set**.
    /// Exactly one concurrent caller observes `false` — the claim winner.
    #[inline]
    pub fn test_and_set(&self, i: VertexId) -> bool {
        debug_assert!((i as u64) < self.len);
        let mask = 1u64 << (i % 64);
        let prev = self.words[i as usize / 64].fetch_or(mask, Ordering::Relaxed);
        prev & mask != 0
    }

    /// OR `mask` into word `wi`: publishes up to 64 bits with one atomic
    /// RMW (the bottom-up kernel's per-word discovery commit). Relaxed
    /// like [`set`](Self::set): concurrent readers need only the bits, and
    /// the step's thread join orders every other write.
    #[inline]
    pub fn or_word(&self, wi: usize, mask: u64) {
        self.words[wi].fetch_or(mask, Ordering::Relaxed);
    }

    /// Clear every bit.
    pub fn clear(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as u64)
            .sum()
    }

    /// The raw word at index `wi` (for fast scanning).
    #[inline]
    pub fn word(&self, wi: usize) -> u64 {
        self.words[wi].load(Ordering::Relaxed)
    }

    /// Number of 64-bit words.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Iterate the indices of set bits (ascending).
    pub fn iter_ones(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.words.len())
            .flat_map(move |wi| {
                let mut w = self.words[wi].load(Ordering::Relaxed);
                std::iter::from_fn(move || {
                    if w == 0 {
                        return None;
                    }
                    let bit = w.trailing_zeros();
                    w &= w - 1;
                    Some((wi * 64) as VertexId + bit as VertexId)
                })
            })
            .filter(move |&i| (i as u64) < self.len)
    }

    /// Heap size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.words.len() as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let b = AtomicBitmap::new(200);
        assert!(!b.get(63));
        b.set(63);
        b.set(64);
        b.set(199);
        assert!(b.get(63));
        assert!(b.get(64));
        assert!(b.get(199));
        assert!(!b.get(0));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn test_and_set_reports_prior_state() {
        let b = AtomicBitmap::new(10);
        assert!(!b.test_and_set(5));
        assert!(b.test_and_set(5));
        assert!(b.get(5));
    }

    #[test]
    fn clear_resets() {
        let b = AtomicBitmap::new(100);
        for i in 0..100 {
            b.set(i);
        }
        b.clear();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn iter_ones_ascending() {
        let b = AtomicBitmap::new(300);
        for i in [0u32, 1, 63, 64, 65, 128, 299] {
            b.set(i);
        }
        let ones: Vec<u32> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 1, 63, 64, 65, 128, 299]);
    }

    #[test]
    fn or_word_merges_with_existing_bits() {
        let b = AtomicBitmap::new(130);
        b.set(64);
        b.or_word(1, 0b110);
        assert_eq!(b.word(1), 0b111);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![64, 65, 66]);
    }

    #[test]
    fn iter_ones_empty() {
        let b = AtomicBitmap::new(100);
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn exactly_one_claim_winner() {
        let b = std::sync::Arc::new(AtomicBitmap::new(64));
        let winners = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = b.clone();
                let winners = winners.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        if !b.test_and_set(17) {
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn size_accounting() {
        let b = AtomicBitmap::new(129);
        assert_eq!(b.num_words(), 3);
        assert_eq!(b.byte_size(), 24);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// iter_ones returns exactly the set of inserted indices.
            #[test]
            fn iter_matches_inserts(
                len in 1u64..1000,
                bits in proptest::collection::btree_set(0u32..1000, 0..50),
            ) {
                let bits: Vec<u32> =
                    bits.into_iter().filter(|&b| (b as u64) < len).collect();
                let bm = AtomicBitmap::new(len);
                for &i in &bits {
                    bm.set(i);
                }
                let got: Vec<u32> = bm.iter_ones().collect();
                prop_assert_eq!(got, bits);
            }
        }
    }
}
