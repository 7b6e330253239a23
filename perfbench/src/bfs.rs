//! The BFS workloads: whole passes over the Graph500 roots, each search
//! timed around the entire `ScenarioData::run` call, every tree checked
//! outside the timed window.

use std::collections::HashMap;
use std::time::Duration;

use sembfs_core::{
    reference_bfs, BfsConfig, Direction, LevelStats, ScenarioData, VertexId, INVALID_PARENT,
};
use sembfs_graph500::{select_roots, validate_bfs_tree, TepsStats};
use sembfs_obs::TraceEvent;
use sembfs_semext::CacheSnapshot;

use crate::metrics::{add_cache, report_cache, DeviceTotals, Metrics};
use crate::spans::Spans;
use crate::stats::{median, ms, quantile, ratio};
use crate::workload::{Layout, Load, Policy, Spec};

/// One timed search.
#[derive(Debug, Clone)]
pub struct Search {
    /// Wall time of the whole `ScenarioData::run` call: the Graph500 timer.
    pub wall: Duration,
    pub levels: Vec<LevelStats>,
    /// Input edges in the traversed component.
    pub teps_edges: u64,
    /// Run with the obs tracer and the benchmark's spans on.
    pub traced: bool,
}

impl Search {
    pub fn teps(&self) -> f64 {
        self.teps_edges as f64 / self.wall.as_secs_f64()
    }

    /// Σ level step time (what `BfsRun::elapsed` reports).
    pub fn level_time(&self) -> Duration {
        self.levels.iter().map(|l| l.elapsed).sum()
    }

    /// Wall time outside the level steps: allocation, frontier
    /// conversion, policy, and the TEPS edge sweep. The steps run inside
    /// the outer window, so `level_time() + between_levels() == wall`.
    pub fn between_levels(&self) -> Duration {
        self.wall - self.level_time()
    }
}

/// What a BFS measurement produced.
#[derive(Debug)]
pub struct BfsOutcome {
    pub searches: Vec<Search>,
    pub attempted: u64,
    pub failed: u64,
    /// Direction changes the obs tracer saw in the traced searches.
    pub switches: u64,
}

/// Run whole passes over the roots until `seconds` of search time is
/// measured, after one untimed pass. A traced run alternates
/// untraced and traced passes (at least one of each), so the tracing
/// overhead is measured under the same conditions.
pub fn measure(
    layout: &Layout,
    spec: &Spec,
    seed: u64,
    seconds: Duration,
    trace: bool,
    spans: &mut Spans,
) -> BfsOutcome {
    let Load::Bfs { roots, policy } = spec.load else {
        panic!("{} is not a BFS workload", spec.workload.name());
    };
    let roots = giant_component_roots(&layout.data, roots, seed);
    let mut searcher = Searcher {
        layout,
        policy,
        cfg: BfsConfig::paper().with_threads(spec.workers),
        trace,
        checked: HashMap::new(),
    };
    let tracer = sembfs_obs::global();
    tracer.reset();
    let mut out = BfsOutcome {
        searches: Vec::new(),
        attempted: roots.len() as u64,
        failed: 0,
        switches: 0,
    };
    // An untimed pass first checks every root's tree in full, so the timed
    // passes compare digests only and all run with the same caches.
    for &root in &roots {
        if searcher.search(root, false, spans).is_none() {
            out.failed += 1;
        }
    }
    let mut measured = Duration::ZERO;
    let mut pass = 0;
    while measured < seconds || (trace && pass < 2) {
        let traced = trace && pass % 2 == 1;
        let before = out.searches.len();
        for &root in &roots {
            out.attempted += 1;
            match searcher.search(root, traced, spans) {
                Some(search) => {
                    measured += search.wall;
                    out.searches.push(search);
                }
                None => out.failed += 1,
            }
        }
        if out.searches.len() == before {
            break; // every search of the pass failed
        }
        pass += 1;
    }
    out.switches = tracer
        .drain()
        .iter()
        .filter(|s| matches!(s.event, TraceEvent::Switch { from, to, .. } if from != to))
        .count() as u64;
    out
}

/// Graph500 roots (distinct, nonzero degree, drawn from `seed`) taken from
/// the giant component, the one holding the highest-degree vertex. Every
/// search then traverses the same component, so the work of a pass does
/// not hinge on how many roots land in small components.
fn giant_component_roots(data: &ScenarioData, count: usize, seed: u64) -> Vec<VertexId> {
    let csr = data.csr();
    let n = csr.num_vertices();
    let hub = (0..n as VertexId)
        .max_by_key(|&v| csr.degree(v))
        .expect("the graph has vertices");
    let reached = reference_bfs(csr, hub).parent;
    select_roots(n, count, seed, |v| {
        if reached[v as usize] == INVALID_PARENT {
            0
        } else {
            csr.degree(v)
        }
    })
}

/// Runs searches and checks their trees.
struct Searcher<'a> {
    layout: &'a Layout,
    policy: Policy,
    cfg: BfsConfig,
    trace: bool,
    /// Digest of the checked tree of every root searched so far.
    checked: HashMap<VertexId, u64>,
}

impl Searcher<'_> {
    /// One search from `root`, its tree checked outside the timed window.
    /// `None` when the search failed or its tree is wrong.
    fn search(&mut self, root: VertexId, traced: bool, spans: &mut Spans) -> Option<Search> {
        let tracer = sembfs_obs::global();
        tracer.set_enabled(traced);
        spans.set_enabled(traced);
        let (run, wall) = spans.time("core.ScenarioData::run", |_| {
            self.layout.data.run(root, self.policy.rule(), &self.cfg)
        });
        tracer.set_enabled(false);
        spans.set_enabled(self.trace);
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                eprintln!("search from root {root} failed: {e}");
                return None;
            }
        };
        if !self.check(root, &run.parent, spans) {
            return None;
        }
        Some(Search {
            wall,
            levels: run.levels,
            teps_edges: run.teps_edges,
            traced,
        })
    }

    /// The first tree from a root is compared bit for bit with
    /// `reference_bfs` and validated by `validate_bfs_tree`; every later
    /// tree from that root must have the same digest.
    fn check(&mut self, root: VertexId, parent: &[VertexId], spans: &mut Spans) -> bool {
        let digest = digest(parent);
        if let Some(&checked) = self.checked.get(&root) {
            if checked != digest {
                eprintln!("root {root}: tree differs from the checked tree of an earlier search");
            }
            return checked == digest;
        }
        let layout = self.layout;
        let (reference, _) = spans.time("core.reference_bfs", |_| {
            reference_bfs(layout.data.csr(), root)
        });
        if reference.parent != parent {
            eprintln!("root {root}: tree differs from reference_bfs");
            return false;
        }
        let (report, _) = spans.time("graph500.validate_bfs_tree", |_| {
            validate_bfs_tree(parent, root, &layout.edges)
        });
        match report {
            Ok(report) if report.visited == reference.visited => {
                self.checked.insert(root, digest);
                true
            }
            Ok(report) => {
                eprintln!(
                    "root {root}: validation visited {} vertices, reference_bfs {}",
                    report.visited, reference.visited
                );
                false
            }
            Err(e) => {
                eprintln!("root {root}: invalid BFS tree: {e}");
                false
            }
        }
    }
}

/// FNV-1a over the parent array's words.
fn digest(parent: &[VertexId]) -> u64 {
    parent.iter().fold(0xcbf2_9ce4_8422_2325, |h, &p| {
        (h ^ u64::from(p)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl BfsOutcome {
    /// End-to-end metrics from the untraced searches; with `trace`, the
    /// per-layer metrics from the traced ones.
    pub fn report(&self, m: &mut Metrics, trace: bool) {
        let (traced, untraced): (Vec<&Search>, Vec<&Search>) =
            self.searches.iter().partition(|s| s.traced);
        let wall_ms: Vec<f64> = untraced.iter().map(|s| ms(s.wall)).collect();
        m.set("ops_per_s", rate(&untraced));
        m.set("op_p50_ms", median(&wall_ms));
        m.set("op_p99_ms", quantile(&wall_ms, 0.99));
        if let Some(teps) = mteps(&untraced) {
            m.set("bfs_teps", teps.harmonic_mean);
            m.set("bfs_teps_median", teps.median);
        }
        if trace {
            self.report_layers(&traced, m);
            m.set("obs.trace_overhead", ratio(rate(&traced), rate(&untraced)));
        }
    }

    /// The `core` kernel and `semext` device and cache metrics, per search.
    fn report_layers(&self, traced: &[&Search], m: &mut Metrics) {
        let n = traced.len() as f64;
        // Index 0 is top-down, 1 bottom-up.
        let mut edges = [0u64; 2];
        let mut time = [Duration::ZERO; 2];
        let (mut levels, mut between) = (0usize, Duration::ZERO);
        let mut io = DeviceTotals::default();
        let mut cache = CacheSnapshot::default();
        for search in traced {
            levels += search.levels.len();
            between += search.between_levels();
            for level in &search.levels {
                let d = usize::from(level.direction == Direction::BottomUp);
                edges[d] += level.scanned_edges;
                time[d] += level.elapsed;
                if let Some(window) = &level.io {
                    io.add(window);
                }
                if let Some(window) = &level.cache {
                    add_cache(&mut cache, window);
                }
            }
        }
        if let Some(teps) = mteps(traced) {
            m.set("core.bfs_mteps", teps.harmonic_mean);
        }
        let names = [
            ("core.td_edges", "core.td_ms", "core.td_medges_s"),
            ("core.bu_edges", "core.bu_ms", "core.bu_medges_s"),
        ];
        for (d, (edges_name, ms_name, speed_name)) in names.into_iter().enumerate() {
            m.set(edges_name, ratio(edges[d] as f64, n));
            m.set(ms_name, ratio(ms(time[d]), n));
            m.set(
                speed_name,
                ratio(edges[d] as f64 / 1e6, time[d].as_secs_f64()),
            );
        }
        m.set("core.levels", ratio(levels as f64, n));
        m.set("core.switches", ratio(self.switches as f64, n));
        m.set("core.between_levels_ms", ratio(ms(between), n));
        io.report(n, time[0] + time[1], m);
        report_cache(&cache, n, m);
    }
}

/// The Graph500 summary of the searches' TEPS, in millions; `None` for
/// no searches.
fn mteps(searches: &[&Search]) -> Option<TepsStats> {
    let samples: Vec<f64> = searches.iter().map(|s| s.teps() / 1e6).collect();
    (!samples.is_empty()).then(|| TepsStats::from_samples(&samples))
}

/// Searches per second of search wall time.
fn rate(searches: &[&Search]) -> f64 {
    ratio(
        searches.len() as f64,
        searches.iter().map(|s| s.wall.as_secs_f64()).sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search(mteps: f64, traced: bool) -> Search {
        Search {
            wall: Duration::from_millis(10),
            levels: Vec::new(),
            teps_edges: (mteps * 1e4) as u64,
            traced,
        }
    }

    #[test]
    fn teps_is_the_harmonic_mean_of_the_untraced_searches() {
        let out = BfsOutcome {
            searches: vec![
                search(1.0, false),
                search(2.0, false),
                search(4.0, false),
                search(100.0, true),
            ],
            attempted: 4,
            failed: 0,
            switches: 0,
        };
        let mut m = Metrics::default();
        out.report(&mut m, true);
        // The slowest search dominates, unlike an arithmetic mean.
        assert!((m.get("bfs_teps") - 3.0 / 1.75).abs() < 1e-9);
        assert!((m.get("bfs_teps_median") - 2.0).abs() < 1e-9);
        assert!((m.get("core.bfs_mteps") - 100.0).abs() < 1e-9);
        assert!((m.get("obs.trace_overhead") - 1.0).abs() < 1e-9);
    }
}
