//! Rebuild per-run, per-level tables from a trace alone.
//!
//! This is the `sembfs report` back end: given the samples of a JSONL
//! trace, group levels and switch decisions under their BFS runs and
//! render the table the paper's evaluation is built around — direction,
//! frontier, scanned edges per second, NVM MiB, cache hit rate, and
//! `avgqu-sz` per level —
//! without any access to the in-process `LevelStats`.

use std::fmt::Write as _;

use crate::tracer::{Dir, FaultKind, Sample, TraceEvent};

/// One reconstructed BFS level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelRow {
    /// Level number.
    pub level: u32,
    /// Direction the level ran in.
    pub dir: Dir,
    /// Frontier size entering the level.
    pub frontier: u64,
    /// Vertices discovered.
    pub discovered: u64,
    /// Edges scanned.
    pub scanned_edges: u64,
    /// Scanned edges read from NVM.
    pub nvm_edges: u64,
    /// Level wall time (span duration), ns.
    pub elapsed_ns: u64,
    /// Device requests in the level's window.
    pub io_requests: u64,
    /// Physical device bytes in the window.
    pub io_bytes: u64,
    /// Σ per-request response time in the window, ns.
    pub io_response_ns: u64,
    /// Observed device wall time of the window, ns.
    pub io_wall_ns: u64,
    /// Page-cache demand hits in the window.
    pub cache_hits: u64,
    /// Page-cache demand misses in the window.
    pub cache_misses: u64,
    /// Pages loaded ahead of demand in the window.
    pub cache_readahead_pages: u64,
    /// Pages loaded ahead of demand, evicted unused in the window.
    pub cache_prefetch_unused: u64,
    /// Worker threads the level's step ran on (0 in pre-threading traces).
    pub threads: u64,
}

impl LevelRow {
    /// Millions of scanned edges per second of level wall time (not TEPS:
    /// a level scans edges whose far ends were already visited).
    pub fn medges_per_s(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.scanned_edges as f64 / (self.elapsed_ns as f64 / 1e9) / 1e6
    }

    /// Device MiB moved during the level.
    pub fn nvm_mib(&self) -> f64 {
        self.io_bytes as f64 / (1 << 20) as f64
    }

    /// Cache demand hit rate, when the level saw demand traffic.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// `avgqu-sz` over the level's device window (Little's law), when
    /// the device was active.
    pub fn avgqu_sz(&self) -> Option<f64> {
        (self.io_wall_ns > 0).then(|| self.io_response_ns as f64 / self.io_wall_ns as f64)
    }

    /// Overlapped-wait ratio in `[0, 1)`: the fraction of summed request
    /// response time hidden by concurrent in-flight reads
    /// (`1 − wall/Σresponse`), when the level did device I/O.
    pub fn overlap(&self) -> Option<f64> {
        (self.io_response_ns > 0)
            .then(|| (1.0 - self.io_wall_ns as f64 / self.io_response_ns as f64).max(0.0))
    }
}

/// One recorded direction decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchRow {
    /// Level the decision applies to.
    pub level: u32,
    /// Previous direction.
    pub from: Dir,
    /// Chosen direction.
    pub to: Dir,
    /// Current frontier size.
    pub frontier: u64,
    /// Previous frontier size.
    pub prev_frontier: u64,
    /// Total vertices.
    pub n_all: u64,
    /// Still-unvisited vertices.
    pub unvisited: u64,
    /// Policy α (0 when not applicable).
    pub alpha: f64,
    /// Policy β (0 when not applicable).
    pub beta: f64,
}

/// One reconstructed BFS run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Root vertex (`None` when the trace has levels but no run span).
    pub root: Option<u64>,
    /// Vertices reached.
    pub visited: u64,
    /// TEPS denominator edges.
    pub teps_edges: u64,
    /// Run span start, ns.
    pub start_ns: u64,
    /// Run span end, ns.
    pub end_ns: u64,
    /// Levels in execution order.
    pub levels: Vec<LevelRow>,
    /// Direction decisions in execution order (every level has one).
    pub switches: Vec<SwitchRow>,
    /// NVM read submissions attributed to this run.
    pub nvm_requests: u64,
    /// NVM bytes attributed to this run.
    pub nvm_bytes: u64,
    /// Injected transient `EIO` faults attributed to this run.
    pub faults_eio: u64,
    /// Injected page corruptions attributed to this run.
    pub faults_corrupt: u64,
    /// Injected latency stalls attributed to this run.
    pub faults_stall: u64,
    /// Backoff retries attributed to this run.
    pub retries: u64,
    /// Device-degraded notifications attributed to this run.
    pub degraded_events: u64,
}

impl RunReport {
    /// Total injected faults of every kind attributed to this run.
    pub fn total_faults(&self) -> u64 {
        self.faults_eio + self.faults_corrupt + self.faults_stall
    }

    /// Run MTEPS against the official TEPS edge count.
    pub fn mteps(&self) -> f64 {
        let ns = self.end_ns.saturating_sub(self.start_ns);
        if ns == 0 {
            return 0.0;
        }
        self.teps_edges as f64 / (ns as f64 / 1e9) / 1e6
    }
}

fn level_row(s: &Sample) -> Option<LevelRow> {
    match s.event {
        TraceEvent::Level {
            level,
            dir,
            frontier,
            discovered,
            scanned_edges,
            nvm_edges,
            io_requests,
            io_bytes,
            io_response_ns,
            io_wall_ns,
            cache_hits,
            cache_misses,
            cache_readahead_pages,
            cache_prefetch_unused,
            threads,
        } => Some(LevelRow {
            level,
            dir,
            frontier,
            discovered,
            scanned_edges,
            nvm_edges,
            elapsed_ns: s.duration_ns(),
            io_requests,
            io_bytes,
            io_response_ns,
            io_wall_ns,
            cache_hits,
            cache_misses,
            cache_readahead_pages,
            cache_prefetch_unused,
            threads,
        }),
        _ => None,
    }
}

fn switch_row(s: &Sample) -> Option<SwitchRow> {
    match s.event {
        TraceEvent::Switch {
            level,
            from,
            to,
            frontier,
            prev_frontier,
            n_all,
            unvisited,
            alpha,
            beta,
        } => Some(SwitchRow {
            level,
            from,
            to,
            frontier,
            prev_frontier,
            n_all,
            unvisited,
            alpha,
            beta,
        }),
        _ => None,
    }
}

/// Group a trace's samples into per-run reports.
///
/// Runs are the `Run` spans in start order; a level/switch/NVM sample
/// belongs to the run whose span contains its start time. When the trace
/// has no `Run` span at all (e.g. tracing was enabled mid-run), one
/// synthetic rootless report collects everything.
pub fn build_reports(samples: &[Sample]) -> Vec<RunReport> {
    let mut reports: Vec<RunReport> = samples
        .iter()
        .filter_map(|s| match s.event {
            TraceEvent::Run {
                root,
                visited,
                teps_edges,
                ..
            } => Some(RunReport {
                root: Some(root),
                visited,
                teps_edges,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                levels: Vec::new(),
                switches: Vec::new(),
                nvm_requests: 0,
                nvm_bytes: 0,
                faults_eio: 0,
                faults_corrupt: 0,
                faults_stall: 0,
                retries: 0,
                degraded_events: 0,
            }),
            _ => None,
        })
        .collect();
    reports.sort_by_key(|r| r.start_ns);
    let synthetic = reports.is_empty();
    if synthetic {
        reports.push(RunReport {
            root: None,
            visited: 0,
            teps_edges: 0,
            start_ns: 0,
            end_ns: u64::MAX,
            levels: Vec::new(),
            switches: Vec::new(),
            nvm_requests: 0,
            nvm_bytes: 0,
            faults_eio: 0,
            faults_corrupt: 0,
            faults_stall: 0,
            retries: 0,
            degraded_events: 0,
        });
    }

    for s in samples {
        let Some(report) = reports
            .iter_mut()
            .find(|r| s.start_ns >= r.start_ns && s.start_ns <= r.end_ns)
        else {
            continue;
        };
        if let Some(row) = level_row(s) {
            report.levels.push(row);
        } else if let Some(row) = switch_row(s) {
            report.switches.push(row);
        } else if let TraceEvent::NvmRead { bytes, requests } = s.event {
            report.nvm_requests += requests;
            report.nvm_bytes += bytes;
        } else if let TraceEvent::FaultInjected { kind } = s.event {
            match kind {
                FaultKind::TransientEio => report.faults_eio += 1,
                FaultKind::Corruption => report.faults_corrupt += 1,
                FaultKind::Stall => report.faults_stall += 1,
            }
        } else if let TraceEvent::Retry { .. } = s.event {
            report.retries += 1;
        } else if let TraceEvent::Degraded { .. } = s.event {
            report.degraded_events += 1;
        }
    }
    for r in &mut reports {
        r.levels.sort_by_key(|l| l.level);
        r.switches.sort_by_key(|sw| sw.level);
        if synthetic {
            r.end_ns = r.levels.iter().map(|l| l.elapsed_ns).sum();
        }
    }
    reports
}

fn opt(v: Option<f64>, precision: usize) -> String {
    match v {
        Some(v) => format!("{v:.precision$}"),
        None => "-".to_string(),
    }
}

/// Render reports as the human per-level table (the `sembfs report`
/// output). The run header gives MTEPS against the official TEPS edge
/// count; the level columns are direction, frontier, scanned edges per
/// second (`Medges/s`), NVM MiB, cache hit-rate, avgqu-sz.
pub fn render_reports(reports: &[RunReport]) -> String {
    let mut out = String::new();
    for (i, r) in reports.iter().enumerate() {
        let root = r.root.map_or_else(|| "?".to_string(), |v| v.to_string());
        let wall_ms = r.end_ns.saturating_sub(r.start_ns) as f64 / 1e6;
        let _ = writeln!(
            out,
            "run {} | root {root} | visited {} | {} levels | {:.1} ms | {:.2} MTEPS",
            i + 1,
            r.visited,
            r.levels.len(),
            wall_ms,
            r.mteps()
        );
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>10} {:>11} {:>13} {:>9} {:>9} {:>9} {:>9} {:>4} {:>8}",
            "level",
            "direction",
            "frontier",
            "discovered",
            "scanned-edges",
            "Medges/s",
            "NVM-MiB",
            "hit-rate",
            "avgqu-sz",
            "thr",
            "overlap"
        );
        for l in &r.levels {
            let _ = writeln!(
                out,
                "{:>6} {:>10} {:>10} {:>11} {:>13} {:>9.2} {:>9.2} {:>9} {:>9} {:>4} {:>8}",
                l.level,
                l.dir.as_str(),
                l.frontier,
                l.discovered,
                l.scanned_edges,
                l.medges_per_s(),
                l.nvm_mib(),
                opt(l.hit_rate(), 4),
                opt(l.avgqu_sz(), 2),
                l.threads,
                opt(l.overlap(), 2)
            );
        }
        for sw in &r.switches {
            if sw.from != sw.to {
                let _ = writeln!(
                    out,
                    "switch @ level {}: {} → {}  (frontier {} ← {}, n {}, α={:.0e}, β={:.0e})",
                    sw.level,
                    sw.from,
                    sw.to,
                    sw.frontier,
                    sw.prev_frontier,
                    sw.n_all,
                    sw.alpha,
                    sw.beta
                );
            }
        }
        let ahead: u64 = r.levels.iter().map(|l| l.cache_readahead_pages).sum();
        if ahead > 0 {
            let unused: u64 = r.levels.iter().map(|l| l.cache_prefetch_unused).sum();
            let _ = writeln!(
                out,
                "cache: {ahead} pages loaded ahead of demand, {unused} evicted unused ({:.2}%)",
                100.0 * unused as f64 / ahead as f64
            );
        }
        if r.nvm_requests > 0 {
            let _ = writeln!(
                out,
                "nvm: {} read submissions, {:.1} MiB",
                r.nvm_requests,
                r.nvm_bytes as f64 / (1 << 20) as f64
            );
        }
        if r.total_faults() > 0 || r.retries > 0 || r.degraded_events > 0 {
            let _ = writeln!(
                out,
                "faults: {} eio, {} corrupt, {} stall | {} retries | {} degraded",
                r.faults_eio, r.faults_corrupt, r.faults_stall, r.retries, r.degraded_events
            );
        }
        if i + 1 < reports.len() {
            out.push('\n');
        }
    }
    if reports.is_empty() {
        out.push_str("no BFS runs in trace\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level_sample(t0: u64, t1: u64, level: u32, dir: Dir) -> Sample {
        Sample {
            start_ns: t0,
            end_ns: t1,
            tid: 0,
            event: TraceEvent::Level {
                level,
                dir,
                frontier: 10,
                discovered: 20,
                scanned_edges: 1000,
                nvm_edges: 500,
                io_requests: 4,
                io_bytes: 2 << 20,
                io_response_ns: 600,
                io_wall_ns: 300,
                cache_hits: 3,
                cache_misses: 1,
                cache_readahead_pages: 8,
                cache_prefetch_unused: 2,
                threads: 4,
            },
        }
    }

    fn run_sample(t0: u64, t1: u64, root: u64) -> Sample {
        Sample {
            start_ns: t0,
            end_ns: t1,
            tid: 0,
            event: TraceEvent::Run {
                root,
                visited: 100,
                teps_edges: 5000,
                levels: 2,
            },
        }
    }

    #[test]
    fn levels_attach_to_their_runs() {
        let samples = vec![
            run_sample(0, 1000, 7),
            level_sample(10, 400, 1, Dir::TopDown),
            level_sample(450, 900, 2, Dir::BottomUp),
            run_sample(2000, 3000, 9),
            level_sample(2100, 2900, 1, Dir::TopDown),
        ];
        let reports = build_reports(&samples);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].root, Some(7));
        assert_eq!(reports[0].levels.len(), 2);
        assert_eq!(reports[0].levels[1].dir, Dir::BottomUp);
        assert_eq!(reports[1].root, Some(9));
        assert_eq!(reports[1].levels.len(), 1);
    }

    #[test]
    fn nvm_reads_accumulate_per_run() {
        let samples = vec![
            run_sample(0, 1000, 7),
            Sample {
                start_ns: 50,
                end_ns: 80,
                tid: 1,
                event: TraceEvent::NvmRead {
                    bytes: 4096,
                    requests: 1,
                },
            },
            Sample {
                start_ns: 90,
                end_ns: 130,
                tid: 2,
                event: TraceEvent::NvmRead {
                    bytes: 8192,
                    requests: 2,
                },
            },
        ];
        let reports = build_reports(&samples);
        assert_eq!(reports[0].nvm_requests, 3);
        assert_eq!(reports[0].nvm_bytes, 12288);
    }

    #[test]
    fn fault_events_accumulate_and_render_per_run() {
        let instant = |t: u64, event: TraceEvent| Sample {
            start_ns: t,
            end_ns: t,
            tid: 0,
            event,
        };
        let samples = vec![
            run_sample(0, 1000, 7),
            instant(
                10,
                TraceEvent::FaultInjected {
                    kind: FaultKind::TransientEio,
                },
            ),
            instant(
                20,
                TraceEvent::FaultInjected {
                    kind: FaultKind::TransientEio,
                },
            ),
            instant(
                30,
                TraceEvent::FaultInjected {
                    kind: FaultKind::Corruption,
                },
            ),
            instant(
                40,
                TraceEvent::FaultInjected {
                    kind: FaultKind::Stall,
                },
            ),
            instant(
                50,
                TraceEvent::Retry {
                    attempt: 1,
                    delay_ns: 100,
                },
            ),
            instant(
                60,
                TraceEvent::Degraded {
                    errors: 4,
                    requests: 10,
                },
            ),
            // Outside the run span: must not be attributed.
            instant(
                5000,
                TraceEvent::FaultInjected {
                    kind: FaultKind::Stall,
                },
            ),
        ];
        let reports = build_reports(&samples);
        assert_eq!(reports[0].faults_eio, 2);
        assert_eq!(reports[0].faults_corrupt, 1);
        assert_eq!(reports[0].faults_stall, 1);
        assert_eq!(reports[0].retries, 1);
        assert_eq!(reports[0].degraded_events, 1);
        assert_eq!(reports[0].total_faults(), 4);
        let text = render_reports(&reports);
        assert!(
            text.contains("faults: 2 eio, 1 corrupt, 1 stall | 1 retries | 1 degraded"),
            "{text}"
        );
    }

    #[test]
    fn prefetch_waste_renders_per_run() {
        let samples = vec![
            run_sample(0, 1000, 7),
            level_sample(10, 400, 1, Dir::TopDown),
            level_sample(450, 900, 2, Dir::TopDown),
        ];
        let text = render_reports(&build_reports(&samples));
        assert!(
            text.contains("cache: 16 pages loaded ahead of demand, 4 evicted unused (25.00%)"),
            "{text}"
        );
    }

    #[test]
    fn fault_free_runs_render_no_fault_line() {
        let reports = build_reports(&[run_sample(0, 1000, 7)]);
        assert!(!render_reports(&reports).contains("faults:"));
    }

    #[test]
    fn traces_without_run_span_get_synthetic_report() {
        let samples = vec![level_sample(10, 400, 1, Dir::TopDown)];
        let reports = build_reports(&samples);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].root, None);
        assert_eq!(reports[0].levels.len(), 1);
    }

    #[test]
    fn row_derived_metrics() {
        let row = level_row(&level_sample(0, 1_000_000, 1, Dir::TopDown)).unwrap();
        // 1000 edges in 1 ms = 1 Medges/s.
        assert!((row.medges_per_s() - 1.0).abs() < 1e-9);
        assert!((row.nvm_mib() - 2.0).abs() < 1e-9);
        assert_eq!(row.hit_rate(), Some(0.75));
        assert_eq!(row.avgqu_sz(), Some(2.0));
        assert_eq!(row.threads, 4);
        // wall 300 of Σresponse 600 → half the wait was overlapped.
        assert_eq!(row.overlap(), Some(0.5));
        // No device window → no avgqu-sz.
        let mut quiet = row;
        quiet.io_wall_ns = 0;
        assert_eq!(quiet.avgqu_sz(), None);
        quiet.io_response_ns = 0;
        assert_eq!(quiet.overlap(), None);
    }

    #[test]
    fn render_contains_table_header_and_switches() {
        let samples = vec![
            run_sample(0, 1000, 7),
            level_sample(10, 400, 1, Dir::TopDown),
            Sample {
                start_ns: 405,
                end_ns: 405,
                tid: 0,
                event: TraceEvent::Switch {
                    level: 2,
                    from: Dir::TopDown,
                    to: Dir::BottomUp,
                    frontier: 20,
                    prev_frontier: 10,
                    n_all: 256,
                    unvisited: 226,
                    alpha: 1e6,
                    beta: 1e6,
                },
            },
            level_sample(450, 900, 2, Dir::BottomUp),
        ];
        let text = render_reports(&build_reports(&samples));
        assert!(text.contains("avgqu-sz"), "{text}");
        assert!(text.contains("direction"), "{text}");
        // Levels report scanned edges per second; only the run line,
        // timed against the official TEPS edge count, says MTEPS.
        let (run_line, table) = text.split_once('\n').unwrap();
        assert!(run_line.contains("MTEPS"), "{text}");
        assert!(
            table.contains("Medges/s") && !table.contains("MTEPS"),
            "{text}"
        );
        assert!(text.contains("top-down"), "{text}");
        assert!(text.contains("switch @ level 2"), "{text}");
        assert!(text.contains("α=1e6"), "{text}");
    }
}
