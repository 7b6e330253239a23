//! The serving workload: closed-loop clients submit Zipf-skewed point
//! queries to the resident engine and wait for each reply. Every answer
//! is checked against reference-BFS levels outside the timed window.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sembfs_core::{reference_bfs, ScenarioData, VertexId};
use sembfs_graph500::rng::Xoshiro256;
use sembfs_graph500::validate::{compute_levels, INVALID_LEVEL};
use sembfs_obs::{QueryKind, Sample, TraceEvent};
use sembfs_query::{Query, QueryEngine, QueryError, QueryMix, QueryResult, Response, ZipfSampler};
use sembfs_semext::{CacheSnapshot, IoSnapshot};

use crate::metrics::{add_cache, report_cache, DeviceTotals, Metrics};
use crate::spans::Spans;
use crate::stats::{median, ms, quantile, ratio};
use crate::workload::{Layout, Load, Spec};

/// Zipf exponent of endpoint popularity (web-like skew).
const ZIPF_THETA: f64 = 1.0;
/// Endpoints are drawn from this many highest-degree vertices.
const ZIPF_SUPPORT: usize = 4096;
/// Queries per shuffled block of a client's stream.
const BLOCK: usize = 10;
/// Sequential queries before the clients start, so the measured window
/// does not open on an empty result cache.
const WARMUP_QUERIES: usize = 64;
/// A traced run alternates untraced and traced slices of this length, so
/// both see the same cache state and host drift.
const TRACE_SLICE: Duration = Duration::from_millis(500);

/// When a query ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Untraced,
    Traced,
}

/// One query as its client saw it.
#[derive(Debug)]
pub struct Record {
    pub query: Query,
    pub phase: Phase,
    pub start: Instant,
    /// `QueryEngine::submit` returned.
    pub submitted: Instant,
    /// `QueryTicket::wait` returned.
    pub end: Instant,
    pub outcome: Result<Response, QueryError>,
}

impl Record {
    /// Client-side latency, submit to reply.
    pub fn round_trip(&self) -> Duration {
        self.end - self.start
    }
}

/// Time, device and cache activity of the untraced or the traced slices.
#[derive(Debug, Default)]
pub struct Window {
    pub time: Duration,
    pub io: DeviceTotals,
    pub cache: CacheSnapshot,
}

/// What a serving measurement produced.
#[derive(Debug)]
pub struct QueryOutcome {
    pub records: Vec<Record>,
    /// Queries that failed or answered wrongly.
    pub failed: u64,
    /// The untraced and the traced window.
    pub windows: [Window; 2],
    /// Spans the obs tracer recorded in the traced slices.
    pub samples: Vec<Sample>,
    /// Submissions the engine refused.
    pub rejected: u64,
}

/// Serve for `seconds` and check every answer.
pub fn measure(
    layout: &Layout,
    spec: &Spec,
    seed: u64,
    seconds: Duration,
    trace: bool,
    spans: &mut Spans,
) -> QueryOutcome {
    let tracer = sembfs_obs::global();
    tracer.reset();
    let ((records, windows), _) = spans.time("query.serve", |spans| {
        let parent = spans.current();
        let served = serve(layout, spec, seed, seconds, trace);
        for r in served.0.iter().filter(|r| r.phase == Phase::Traced) {
            spans.record("query.QueryEngine::submit", r.start, r.submitted, parent);
            spans.record("query.QueryTicket::wait", r.submitted, r.end, parent);
        }
        served
    });
    let samples = tracer.drain();
    let failed = check(&records, &layout.data, spans);
    let rejected = layout.engine.as_ref().map_or(0, |e| e.stats().rejected);
    QueryOutcome {
        records,
        failed,
        windows,
        samples,
        rejected,
    }
}

/// Warm up, then run the closed-loop clients until `seconds` have passed,
/// windowing the device and cache counters per slice.
fn serve(
    layout: &Layout,
    spec: &Spec,
    seed: u64,
    seconds: Duration,
    trace: bool,
) -> (Vec<Record>, [Window; 2]) {
    let Load::Serve { clients } = spec.load else {
        panic!("{} is not a serving workload", spec.workload.name());
    };
    let engine = layout
        .engine
        .as_ref()
        .expect("serving workloads start an engine");
    let data = &*layout.data;
    let sampler = ZipfSampler::from_degrees(data, ZIPF_THETA, ZIPF_SUPPORT);
    let mut warmup = Stream::new(seed, 0);
    let mut records: Vec<Record> = (0..WARMUP_QUERIES)
        .map(|_| ask(engine, warmup.next(&sampler), Phase::Warmup))
        .collect();

    let tracer = sembfs_obs::global();
    let mut windows = [Window::default(), Window::default()];
    let mut meter = Meter::start(data);
    let mut traced = false;
    let deadline = Instant::now() + seconds;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let sampler = &sampler;
                let mut stream = Stream::new(seed, c as u64 + 1);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let phase = if tracer.is_enabled() {
                            Phase::Traced
                        } else {
                            Phase::Untraced
                        };
                        out.push(ask(engine, stream.next(sampler), phase));
                    }
                    out
                })
            })
            .collect();
        if trace {
            // At least two slices of each kind, however short the window.
            let slice = TRACE_SLICE.min(seconds / 4);
            loop {
                let until = (Instant::now() + slice).min(deadline);
                std::thread::sleep(until.saturating_duration_since(Instant::now()));
                if Instant::now() >= deadline {
                    break;
                }
                meter.close(&mut windows[usize::from(traced)], data);
                traced = !traced;
                tracer.set_enabled(traced);
            }
        }
        for handle in handles {
            records.extend(handle.join().expect("query client panicked"));
        }
    });
    meter.close(&mut windows[usize::from(traced)], data);
    tracer.set_enabled(false);
    (records, windows)
}

/// One client's queries: the kinds of `QueryMix::point_queries` in its
/// proportions, dealt from shuffled blocks of `BLOCK`, with Zipf-drawn
/// endpoints. Uncached neighborhood queries take nearly all the serving
/// time, so kinds drawn one by one made a run's share of them, and with
/// it the query rate, swing by a fifth between seeds.
struct Stream {
    rng: Xoshiro256,
    /// One single-kind mix per query of a block.
    block: Vec<QueryMix>,
    next: usize,
}

impl Stream {
    fn new(seed: u64, stream: u64) -> Self {
        let mix = QueryMix::point_queries();
        let only = |path, distance, reachable, neighborhood| QueryMix {
            path,
            distance,
            reachable,
            neighborhood,
            ..mix.clone()
        };
        let kinds = [
            (mix.path, only(1.0, 0.0, 0.0, 0.0)),
            (mix.distance, only(0.0, 1.0, 0.0, 0.0)),
            (mix.reachable, only(0.0, 0.0, 1.0, 0.0)),
            (mix.neighborhood, only(0.0, 0.0, 0.0, 1.0)),
        ];
        let total: f64 = kinds.iter().map(|(weight, _)| weight).sum();
        let block: Vec<QueryMix> = kinds
            .into_iter()
            .flat_map(|(weight, only)| {
                let count = (weight / total * BLOCK as f64).round() as usize;
                std::iter::repeat_n(only, count)
            })
            .collect();
        assert_eq!(block.len(), BLOCK, "the mix splits into blocks of {BLOCK}");
        Self {
            rng: Xoshiro256::seed_from(seed, stream),
            block,
            next: BLOCK,
        }
    }

    fn next(&mut self, sampler: &ZipfSampler) -> Query {
        if self.next == BLOCK {
            for i in (1..BLOCK).rev() {
                let j = self.rng.next_below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1].sample(sampler, &mut self.rng)
    }
}

/// Submit one query and wait for its reply, timing both calls.
fn ask(engine: &QueryEngine, query: Query, phase: Phase) -> Record {
    let start = Instant::now();
    let ticket = engine.submit(query);
    let submitted = Instant::now();
    let outcome = ticket.and_then(|t| t.wait());
    Record {
        query,
        phase,
        start,
        submitted,
        end: Instant::now(),
        outcome,
    }
}

/// Windows the device and page-cache counters between slice boundaries.
struct Meter {
    since: Instant,
    io: IoSnapshot,
    cache: CacheSnapshot,
}

impl Meter {
    fn start(data: &ScenarioData) -> Self {
        Self {
            since: Instant::now(),
            io: data.device().map(|d| d.snapshot()).unwrap_or_default(),
            cache: data.page_cache().map(|c| c.snapshot()).unwrap_or_default(),
        }
    }

    /// Charge the activity since the last boundary to `window`.
    fn close(&mut self, window: &mut Window, data: &ScenarioData) {
        let next = Self::start(data);
        window.time += next.since - self.since;
        window.io.add(&next.io.delta(&self.io));
        add_cache(&mut window.cache, &next.cache.delta(&self.cache));
        *self = next;
    }
}

/// Check every answer against the reference BFS levels of its source (one
/// reference BFS per distinct source). Returns the queries that failed or
/// answered wrongly.
fn check(records: &[Record], data: &ScenarioData, spans: &mut Spans) -> u64 {
    let mut failed = 0;
    let mut by_source: BTreeMap<VertexId, Vec<(&Query, &QueryResult)>> = BTreeMap::new();
    for r in records {
        match &r.outcome {
            Ok(response) => by_source
                .entry(source(&r.query))
                .or_default()
                .push((&r.query, &response.result)),
            Err(e) => {
                eprintln!("query {:?} failed: {e}", r.query);
                failed += 1;
            }
        }
    }
    for (src, answers) in by_source {
        let (levels, _) = spans.time("core.reference_bfs", |_| {
            compute_levels(&reference_bfs(data.csr(), src).parent, src)
                .expect("the reference tree is well formed")
        });
        for (query, result) in answers {
            if !is_right(query, result, &levels, data) {
                eprintln!("wrong answer to {query:?}: {result:?}");
                failed += 1;
            }
        }
    }
    failed
}

/// The vertex a query's answer is measured from.
fn source(query: &Query) -> VertexId {
    match *query {
        Query::ShortestPath { src, .. }
        | Query::Distance { src, .. }
        | Query::Reachable { src, .. } => src,
        Query::Neighborhood { v, .. } => v,
    }
}

/// Whether `result` answers `query`, given the BFS levels from its source.
/// Paths must be shortest, start and end at the endpoints, and follow
/// graph edges.
fn is_right(query: &Query, result: &QueryResult, levels: &[u32], data: &ScenarioData) -> bool {
    let level = |v: VertexId| Some(levels[v as usize]).filter(|&l| l != INVALID_LEVEL);
    match (*query, result) {
        (Query::ShortestPath { src, dst }, QueryResult::Path { distance, vertices }) => {
            level(dst) == Some(*distance)
                && vertices.len() == *distance as usize + 1
                && vertices.first() == Some(&src)
                && vertices.last() == Some(&dst)
                && vertices
                    .windows(2)
                    .all(|e| data.csr().neighbors(e[0]).contains(&e[1]))
        }
        (Query::ShortestPath { dst, .. }, QueryResult::NoPath) => level(dst).is_none(),
        (Query::Distance { dst, .. }, QueryResult::Distance(d)) => level(dst) == *d,
        (Query::Reachable { dst, .. }, QueryResult::Reachable(r)) => level(dst).is_some() == *r,
        (Query::Neighborhood { depth, .. }, QueryResult::Neighborhood { counts }) => {
            let mut rings = vec![0u64; depth as usize + 1];
            for &l in levels {
                if l <= depth {
                    rings[l as usize] += 1;
                }
            }
            // The engine stops at the first empty ring.
            let reached = rings.iter().position(|&c| c == 0).unwrap_or(rings.len());
            counts[..] == rings[..reached]
        }
        _ => false,
    }
}

impl QueryOutcome {
    /// End-to-end metrics from the untraced slices; with `trace`, the
    /// per-layer metrics from the traced ones.
    pub fn report(&self, m: &mut Metrics, trace: bool) {
        let [untraced, traced] = &self.windows;
        let answered = |phase: Phase| {
            self.records
                .iter()
                .filter(move |r| r.phase == phase)
                .filter_map(|r| r.outcome.as_ref().ok().map(|response| (r, response)))
        };
        let round_trips: Vec<f64> = answered(Phase::Untraced)
            .map(|(r, _)| ms(r.round_trip()))
            .collect();
        let untraced_rate = ratio(round_trips.len() as f64, untraced.time.as_secs_f64());
        m.set("ops_per_s", untraced_rate);
        m.set("op_p50_ms", median(&round_trips));
        m.set("op_p99_ms", quantile(&round_trips, 0.99));
        if !trace {
            return;
        }
        let replies: Vec<(&Record, &Response)> = answered(Phase::Traced).collect();
        let n = replies.len() as f64;
        traced.io.report(n, traced.time, m);
        report_cache(&traced.cache, n, m);
        let cached = replies
            .iter()
            .filter(|(_, response)| response.cached)
            .count();
        m.set("query.qcache_hit_ratio", ratio(cached as f64, n));
        let handoff_us: Vec<f64> = replies
            .iter()
            .filter(|(_, response)| !response.cached)
            .map(|(r, response)| {
                r.round_trip()
                    .saturating_sub(response.latency)
                    .as_secs_f64()
                    * 1e6
            })
            .collect();
        m.set("query.q_handoff_us", median(&handoff_us));
        for (name, kind) in [
            ("query.q_path_p50_ms", QueryKind::ShortestPath),
            ("query.q_reach_p50_ms", QueryKind::Reachable),
            ("query.q_nbhd_p50_ms", QueryKind::Neighborhood),
        ] {
            let engine_ms: Vec<f64> = self
                .samples
                .iter()
                .filter(|s| {
                    matches!(s.event, TraceEvent::Query { kind: k, cached: false, ok: true } if k == kind)
                })
                .map(|s| s.duration_ns() as f64 / 1e6)
                .collect();
            m.set(name, median(&engine_ms));
        }
        m.set(
            "query.q_dev_kib_per_q",
            ratio(traced.io.bytes() as f64 / 1024.0, n),
        );
        m.set("query.q_rejected", self.rejected as f64);
        m.set(
            "obs.trace_overhead",
            ratio(ratio(n, traced.time.as_secs_f64()), untraced_rate),
        );
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn streams_deal_the_point_query_mix_in_blocks() {
        let sampler = ZipfSampler::new((0..100).collect(), ZIPF_THETA);
        let mut stream = Stream::new(3, 1);
        let queries: Vec<Query> = (0..1000).map(|_| stream.next(&sampler)).collect();
        for block in queries.chunks(BLOCK) {
            let count = |kind: fn(&Query) -> bool| block.iter().filter(|q| kind(q)).count();
            assert_eq!(count(|q| matches!(q, Query::ShortestPath { .. })), 5);
            assert_eq!(count(|q| matches!(q, Query::Reachable { .. })), 4);
            assert_eq!(
                count(|q| matches!(q, Query::Neighborhood { depth: 2, .. })),
                1
            );
        }
        // Blocks are shuffled, and the same seed deals the same stream.
        let positions: BTreeSet<usize> = queries
            .chunks(BLOCK)
            .map(|b| {
                b.iter()
                    .position(|q| matches!(q, Query::Neighborhood { .. }))
                    .unwrap()
            })
            .collect();
        assert!(positions.len() > 1);
        let mut again = Stream::new(3, 1);
        assert!(queries.iter().all(|q| *q == again.next(&sampler)));
    }
}
