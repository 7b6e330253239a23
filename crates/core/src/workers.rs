//! The explicit workers of the step kernels and the sweeps between them.

/// Run `work(i)` for `i` in `0..workers`, each on its own scoped thread,
/// and return the results in worker order. A single worker runs on the
/// calling thread: a thread spawn and join measured about 80 µs on a
/// 2-core x86-64 host, which a one-worker search would pay at every level.
pub(crate) fn run_workers<T: Send>(workers: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 {
        return vec![work(0)];
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..workers).map(|i| scope.spawn(move || work(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("step worker panicked"))
            .collect()
    })
}

/// Workers for `len` items on at most `threads`: at least one, and each
/// with `min_per_worker` items or more, below which a thread spawn costs
/// more than the work it takes over.
pub(crate) fn workers_for(len: usize, min_per_worker: usize, threads: usize) -> usize {
    threads.min(len / min_per_worker.max(1)).max(1)
}

/// Worker `i` of `workers`'s share of `0..len`: contiguous ranges in
/// worker order that cover `0..len` exactly once.
pub(crate) fn share(i: usize, workers: usize, len: usize) -> std::ops::Range<usize> {
    let per = len.div_ceil(workers.max(1));
    (i * per).min(len)..((i + 1) * per).min(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        assert_eq!(
            run_workers(1, |i| (i, std::thread::current().id())),
            vec![(0, caller)]
        );
        let ids = run_workers(3, |i| (i, std::thread::current().id()));
        assert_eq!(ids.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(ids.iter().all(|&(_, id)| id != caller));
    }

    #[test]
    fn shares_cover_the_range_once() {
        for (workers, len) in [(1, 0), (1, 7), (2, 7), (3, 2), (4, 100)] {
            let all: Vec<usize> = (0..workers).flat_map(|i| share(i, workers, len)).collect();
            assert_eq!(
                all,
                (0..len).collect::<Vec<_>>(),
                "{workers} workers, {len}"
            );
        }
    }
}
