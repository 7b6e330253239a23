//! Frontier representations and conversions.
//!
//! The top-down step consumes the frontier as a **queue** of vertex IDs
//! (threads dequeue batches of 64, §V-C); the bottom-up step consumes it
//! as a **bitmap** (membership tests from every unvisited vertex). The
//! hybrid driver converts between the two at direction switches.

use crate::bitmap::AtomicBitmap;
use crate::workers::{run_workers, share, workers_for};
use crate::VertexId;

/// Least frontier entries (or bitmap words) a conversion hands a worker.
const MIN_PER_WORKER: usize = 1 << 14;

/// Fill `bitmap` with the members of `queue` (bitmap must be pre-cleared),
/// on up to `threads` workers.
pub fn queue_to_bitmap(queue: &[VertexId], bitmap: &AtomicBitmap, threads: usize) {
    let workers = workers_for(queue.len(), MIN_PER_WORKER, threads);
    run_workers(workers, |i| {
        for &v in &queue[share(i, workers, queue.len())] {
            bitmap.set(v);
        }
    });
}

/// Collect the set bits of `bitmap` into an ascending queue, on up to
/// `threads` workers that each take a contiguous run of words.
pub fn bitmap_to_queue(bitmap: &AtomicBitmap, threads: usize) -> Vec<VertexId> {
    let words = bitmap.num_words();
    let workers = workers_for(words, MIN_PER_WORKER, threads);
    let parts = run_workers(workers, |i| {
        let mut out = Vec::new();
        for wi in share(i, workers, words) {
            let mut w = bitmap.word(wi);
            while w != 0 {
                let bit = w.trailing_zeros();
                w &= w - 1;
                out.push((wi * 64) as VertexId + bit);
            }
        }
        out
    });
    // Appended to the first part: one worker's queue is returned as is.
    parts
        .into_iter()
        .reduce(|mut queue, part| {
            queue.extend(part);
            queue
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_queue_bitmap_queue() {
        let queue: Vec<u32> = vec![0, 5, 63, 64, 100, 9999];
        let bm = AtomicBitmap::new(10_000);
        queue_to_bitmap(&queue, &bm, 2);
        assert_eq!(bm.count_ones(), queue.len() as u64);
        assert_eq!(bitmap_to_queue(&bm, 2), queue);
    }

    #[test]
    fn empty_conversions() {
        let bm = AtomicBitmap::new(100);
        queue_to_bitmap(&[], &bm, 1);
        assert!(bitmap_to_queue(&bm, 1).is_empty());
    }

    #[test]
    fn large_dense_bitmap() {
        // The second size splits across workers: 2^21 vertices are 32768
        // words (two workers) and 299 594 queue entries (four).
        for (n, step, words_workers, queue_workers) in [(100_000u64, 3, 1, 2), (1 << 21, 7, 2, 4)] {
            let bm = AtomicBitmap::new(n);
            let queue: Vec<u32> = (0..n as u32).step_by(step).collect();
            assert_eq!(
                workers_for(bm.num_words(), MIN_PER_WORKER, 4),
                words_workers
            );
            assert_eq!(workers_for(queue.len(), MIN_PER_WORKER, 4), queue_workers);
            queue_to_bitmap(&queue, &bm, 4);
            assert_eq!(bm.count_ones(), queue.len() as u64);
            assert_eq!(bitmap_to_queue(&bm, 4), queue);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// queue → bitmap → queue is the sorted dedup of the input.
            #[test]
            fn conversion_roundtrip(
                raw in proptest::collection::vec(0u32..5000, 0..300),
                len in 5000u64..6000,
            ) {
                let bm = AtomicBitmap::new(len);
                queue_to_bitmap(&raw, &bm, 1);
                let mut expect = raw.clone();
                expect.sort_unstable();
                expect.dedup();
                prop_assert_eq!(bitmap_to_queue(&bm, 1), expect);
            }
        }
    }
}
