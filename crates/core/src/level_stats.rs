//! Per-level instrumentation.
//!
//! Every analysis figure in the paper is a projection of per-level data:
//! Fig. 10 sums scanned edges by direction, Fig. 11 relates per-level
//! top-down slowdown to the level's average degree, Figs. 12/13 are I/O
//! statistics windowed per run. [`LevelStats`] records everything the
//! figures need for each BFS level.

use std::time::Duration;

use sembfs_semext::{CacheSnapshot, IoSnapshot};

/// Search direction of one BFS level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Expand frontier vertices through the forward graph.
    TopDown,
    /// Probe the frontier from unvisited vertices through the backward
    /// graph.
    BottomUp,
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Direction::TopDown => write!(f, "top-down"),
            Direction::BottomUp => write!(f, "bottom-up"),
        }
    }
}

/// Measurements of a single BFS level.
#[derive(Debug, Clone)]
pub struct LevelStats {
    /// Level number (root is level 0; this records the step producing
    /// level `level`).
    pub level: u32,
    /// The direction the step ran in.
    pub direction: Direction,
    /// Size of the *input* frontier the step consumed.
    pub frontier_size: u64,
    /// Vertices discovered by the step (the output frontier size).
    pub discovered: u64,
    /// Edges examined by the step (top-down: all edges out of the
    /// frontier; bottom-up: probes until a parent is found).
    pub scanned_edges: u64,
    /// Of `scanned_edges`, how many were served from external memory
    /// (forward-graph reads in top-down, tail reads in split bottom-up).
    pub nvm_edges: u64,
    /// Wall time of the step alone (frontier conversion and the policy
    /// run between steps; [`crate::BfsRun::elapsed`] covers both).
    pub elapsed: Duration,
    /// I/O-statistics delta of the monitored NVM device over this step,
    /// when a device is being monitored.
    pub io: Option<IoSnapshot>,
    /// Page-cache counter delta over this step, when a cache is being
    /// monitored (hit-rate per level: the levels whose working set fits
    /// DRAM run at cache speed, the rest pay the device).
    pub cache: Option<CacheSnapshot>,
    /// Worker threads the step ran on.
    pub threads: usize,
}

impl LevelStats {
    /// Average degree of the expanded frontier — Fig. 11's x-axis
    /// ("the average number of edges to search for a vertex in a single
    /// level"). Zero for an empty frontier.
    pub fn avg_degree(&self) -> f64 {
        if self.frontier_size == 0 {
            0.0
        } else {
            self.scanned_edges as f64 / self.frontier_size as f64
        }
    }

    /// Edges scanned per second in this level.
    pub fn scan_rate(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.scanned_edges as f64 / s
        } else {
            0.0
        }
    }

    /// Overlapped-wait ratio of the level's device window, in `[0, 1)`:
    /// the fraction of summed per-request response time hidden by
    /// concurrent in-flight requests (`1 − wall/Σresponse`). Zero when the
    /// requests were fully serialized (wall ≥ Σresponse) and `None` when
    /// no device was monitored or the level did no I/O.
    pub fn overlap(&self) -> Option<f64> {
        let io = self.io.as_ref()?;
        if io.response_ns == 0 {
            return None;
        }
        Some((1.0 - io.wall_ns() as f64 / io.response_ns as f64).max(0.0))
    }
}

/// Sum the scanned edges of `levels` run in `dir` (Fig. 10's bars).
pub fn scanned_edges_by_direction(levels: &[LevelStats], dir: Direction) -> u64 {
    levels
        .iter()
        .filter(|l| l.direction == dir)
        .map(|l| l.scanned_edges)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(dir: Direction, frontier: u64, scanned: u64) -> LevelStats {
        LevelStats {
            level: 1,
            direction: dir,
            frontier_size: frontier,
            discovered: 0,
            scanned_edges: scanned,
            nvm_edges: 0,
            elapsed: Duration::from_millis(10),
            io: None,
            cache: None,
            threads: 1,
        }
    }

    #[test]
    fn avg_degree() {
        let l = mk(Direction::TopDown, 4, 100);
        assert!((l.avg_degree() - 25.0).abs() < 1e-12);
        assert_eq!(mk(Direction::TopDown, 0, 0).avg_degree(), 0.0);
    }

    #[test]
    fn by_direction_sums() {
        let levels = vec![
            mk(Direction::TopDown, 1, 10),
            mk(Direction::BottomUp, 5, 100),
            mk(Direction::TopDown, 2, 7),
        ];
        assert_eq!(scanned_edges_by_direction(&levels, Direction::TopDown), 17);
        assert_eq!(
            scanned_edges_by_direction(&levels, Direction::BottomUp),
            100
        );
    }

    #[test]
    fn scan_rate() {
        let l = mk(Direction::TopDown, 1, 1000);
        assert!((l.scan_rate() - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn overlap_ratio_from_io_window() {
        let mut l = mk(Direction::TopDown, 1, 10);
        assert_eq!(l.overlap(), None);
        // 4 requests, 100ns response each, over a 100ns wall window:
        // 4 in flight → 75% of the wait was hidden.
        l.io = Some(IoSnapshot {
            requests: 4,
            bytes: 4 * 4096,
            sectors: 32,
            response_ns: 400,
            service_ns: 100,
            first_arrival_ns: 0,
            last_completion_ns: 100,
            queued_at_arrival: 6,
        });
        assert!((l.overlap().unwrap() - 0.75).abs() < 1e-12);
        // Fully serialized: wall equals summed response → zero overlap.
        l.io = Some(IoSnapshot {
            requests: 2,
            bytes: 8192,
            sectors: 16,
            response_ns: 200,
            service_ns: 200,
            first_arrival_ns: 0,
            last_completion_ns: 200,
            queued_at_arrival: 0,
        });
        assert_eq!(l.overlap(), Some(0.0));
    }

    #[test]
    fn direction_display() {
        assert_eq!(Direction::TopDown.to_string(), "top-down");
        assert_eq!(Direction::BottomUp.to_string(), "bottom-up");
    }
}
