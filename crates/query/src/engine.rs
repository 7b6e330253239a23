//! The resident query engine: a bounded submission queue, a worker pool
//! sharing one [`ScenarioData`], and aggregate metrics.
//!
//! Admission control is reject-when-full: [`QueryEngine::submit`] returns
//! [`QueryError::Overloaded`] instead of queueing without bound, so a
//! closed-loop client sees backpressure as an error it can retry, and
//! queue wait never grows past `queue_capacity / service_rate`. The
//! blocking primitives are `std::sync::{Mutex, Condvar}` — one condvar
//! wakes workers, one per-ticket condvar wakes the submitting client.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sembfs_core::{BfsConfig, ScenarioData};
use sembfs_semext::{CacheSnapshot, IoSnapshot};

use crate::bidir::{bidirectional_search, neighborhood, search_config};
use crate::metrics::{LatencyHistogram, QueryStats};
use crate::result_cache::ResultCache;
use crate::{Query, QueryResult};

/// Engine sizing knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Maximum queries waiting in the submission queue; a full queue
    /// rejects with [`QueryError::Overloaded`].
    pub queue_capacity: usize,
    /// Entries of the LRU result cache (0 disables it).
    pub result_cache_entries: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            result_cache_entries: 1024,
        }
    }
}

/// Typed failures of submission or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The submission queue is at capacity; retry after backoff.
    Overloaded {
        /// The configured queue bound that was hit.
        capacity: usize,
    },
    /// A query endpoint does not exist in the graph.
    OutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// The graph's vertex count.
        num_vertices: u64,
    },
    /// The underlying storage failed.
    Io(String),
    /// The engine shut down before the query ran.
    Closed,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Overloaded { capacity } => {
                write!(f, "submission queue full ({capacity} slots)")
            }
            QueryError::OutOfRange {
                vertex,
                num_vertices,
            } => write!(f, "vertex {vertex} out of range (n = {num_vertices})"),
            QueryError::Io(e) => write!(f, "storage error: {e}"),
            QueryError::Closed => write!(f, "engine closed"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A finished query: the result plus its submit-to-finish latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The answer.
    pub result: QueryResult,
    /// Submission-to-completion latency (queue wait + execution).
    pub latency: Duration,
    /// True when served from the result cache without touching the graph.
    pub cached: bool,
}

/// A handle to one in-flight query; [`wait`](QueryTicket::wait) blocks
/// until a worker fulfills it.
#[derive(Debug)]
pub struct QueryTicket {
    inner: Arc<TicketInner>,
}

#[derive(Debug)]
struct TicketInner {
    slot: Mutex<Option<Result<Response, QueryError>>>,
    done: Condvar,
}

impl TicketInner {
    fn fulfill(&self, outcome: Result<Response, QueryError>) {
        *self.slot.lock().unwrap() = Some(outcome);
        self.done.notify_all();
    }
}

impl QueryTicket {
    fn pending() -> (Self, Arc<TicketInner>) {
        let inner = Arc::new(TicketInner {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        (
            Self {
                inner: inner.clone(),
            },
            inner,
        )
    }

    fn ready(outcome: Result<Response, QueryError>) -> Self {
        let (ticket, inner) = Self::pending();
        *inner.slot.lock().unwrap() = Some(outcome);
        ticket
    }

    /// Block until the query finishes.
    pub fn wait(self) -> Result<Response, QueryError> {
        let mut slot = self.inner.slot.lock().unwrap();
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self.inner.done.wait(slot).unwrap();
        }
    }
}

struct PendingQuery {
    query: Query,
    ticket: Arc<TicketInner>,
    submitted: Instant,
}

#[derive(Default)]
struct QueueState {
    waiting: VecDeque<PendingQuery>,
    closed: bool,
}

struct Shared {
    data: Arc<ScenarioData>,
    /// The kernel config of every search ([`search_config`]).
    cfg: BfsConfig,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    histogram: Arc<LatencyHistogram>,
    result_cache: ResultCache,
    completed: AtomicU64,
    rejected: AtomicU64,
    result_cache_hits: AtomicU64,
}

fn kind_of(query: &Query) -> sembfs_obs::QueryKind {
    match query {
        Query::ShortestPath { .. } => sembfs_obs::QueryKind::ShortestPath,
        Query::Distance { .. } => sembfs_obs::QueryKind::Distance,
        Query::Reachable { .. } => sembfs_obs::QueryKind::Reachable,
        Query::Neighborhood { .. } => sembfs_obs::QueryKind::Neighborhood,
    }
}

impl Shared {
    fn execute(&self, query: Query) -> Result<QueryResult, QueryError> {
        let io = |e: sembfs_semext::Error| QueryError::Io(e.to_string());
        match query {
            Query::ShortestPath { src, dst } => {
                let out =
                    bidirectional_search(&self.data, src, dst, true, &self.cfg).map_err(io)?;
                Ok(match (out.distance, out.path) {
                    (Some(distance), Some(vertices)) => QueryResult::Path { distance, vertices },
                    _ => QueryResult::NoPath,
                })
            }
            Query::Distance { src, dst } => {
                let out =
                    bidirectional_search(&self.data, src, dst, false, &self.cfg).map_err(io)?;
                Ok(QueryResult::Distance(out.distance))
            }
            Query::Reachable { src, dst } => {
                let out =
                    bidirectional_search(&self.data, src, dst, false, &self.cfg).map_err(io)?;
                Ok(QueryResult::Reachable(out.distance.is_some()))
            }
            Query::Neighborhood { v, depth } => {
                let counts = neighborhood(&self.data, v, depth, &self.cfg).map_err(io)?;
                Ok(QueryResult::Neighborhood { counts })
            }
        }
    }

    fn worker_loop(&self) {
        loop {
            let pending = {
                let mut state = self.queue.lock().unwrap();
                loop {
                    if let Some(p) = state.waiting.pop_front() {
                        break p;
                    }
                    if state.closed {
                        return;
                    }
                    state = self.work_ready.wait(state).unwrap();
                }
            };
            let kind = kind_of(&pending.query);
            let outcome = self.execute(pending.query).map(|result| {
                self.result_cache.put(&pending.query, &result);
                let latency = pending.submitted.elapsed();
                self.histogram.record(latency);
                self.completed.fetch_add(1, Ordering::Relaxed);
                Response {
                    result,
                    latency,
                    cached: false,
                }
            });
            let tracer = sembfs_obs::global();
            if tracer.is_enabled() {
                tracer.span(
                    tracer.ns_of(pending.submitted),
                    tracer.now_ns(),
                    sembfs_obs::TraceEvent::Query {
                        kind,
                        cached: false,
                        ok: outcome.is_ok(),
                    },
                );
            }
            pending.ticket.fulfill(outcome);
        }
    }
}

/// A resident pool of query workers over one shared scenario.
pub struct QueryEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    queue_capacity: usize,
    started: Instant,
    cache_base: Option<CacheSnapshot>,
    io_base: Option<IoSnapshot>,
}

impl QueryEngine {
    /// Spawn `config.workers` threads over `data`.
    pub fn new(data: Arc<ScenarioData>, config: EngineConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let cache_base = data.page_cache().map(|c| c.snapshot());
        let io_base = data.device().map(|d| d.snapshot());
        let shared = Arc::new(Shared {
            data,
            cfg: search_config(),
            queue: Mutex::new(QueueState::default()),
            work_ready: Condvar::new(),
            histogram: Arc::new(LatencyHistogram::new()),
            result_cache: ResultCache::new(config.result_cache_entries),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            result_cache_hits: AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sembfs-query-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn query worker")
            })
            .collect();
        Self {
            shared,
            workers,
            queue_capacity: config.queue_capacity,
            started: Instant::now(),
            cache_base,
            io_base,
        }
    }

    /// The graph this engine serves.
    pub fn data(&self) -> &Arc<ScenarioData> {
        &self.shared.data
    }

    /// The admission bound currently in force. While the scenario's
    /// device reports degraded health (error/stall rate past the fault
    /// plan's `degrade` threshold), the engine sheds load: the queue
    /// shrinks to a quarter of its configured capacity so the backlog
    /// drains against a device that is serving slowly and erratically,
    /// and clients see `Overloaded` early instead of queueing behind
    /// retries.
    pub fn effective_queue_capacity(&self) -> usize {
        if self.shared.data.device().is_some_and(|d| d.is_degraded()) {
            (self.queue_capacity / 4).max(1)
        } else {
            self.queue_capacity
        }
    }

    /// Submit a query without blocking. Result-cache hits return an
    /// already-fulfilled ticket; a full queue rejects with
    /// [`QueryError::Overloaded`] (counted in [`QueryStats::rejected`]).
    pub fn submit(&self, query: Query) -> Result<QueryTicket, QueryError> {
        let n = self.shared.data.num_vertices();
        if (query.max_vertex() as u64) >= n {
            return Err(QueryError::OutOfRange {
                vertex: query.max_vertex(),
                num_vertices: n,
            });
        }
        if let Some(result) = self.shared.result_cache.get(&query) {
            self.shared
                .result_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            self.shared.completed.fetch_add(1, Ordering::Relaxed);
            self.shared.histogram.record(Duration::ZERO);
            sembfs_obs::global().instant(sembfs_obs::TraceEvent::Query {
                kind: kind_of(&query),
                cached: true,
                ok: true,
            });
            return Ok(QueryTicket::ready(Ok(Response {
                result,
                latency: Duration::ZERO,
                cached: true,
            })));
        }
        let (ticket, inner) = QueryTicket::pending();
        let capacity = self.effective_queue_capacity();
        {
            let mut state = self.shared.queue.lock().unwrap();
            if state.waiting.len() >= capacity {
                drop(state);
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(QueryError::Overloaded { capacity });
            }
            state.waiting.push_back(PendingQuery {
                query,
                ticket: inner,
                submitted: Instant::now(),
            });
        }
        self.shared.work_ready.notify_one();
        Ok(ticket)
    }

    /// Submit and block for the answer.
    pub fn run(&self, query: Query) -> Result<Response, QueryError> {
        self.submit(query)?.wait()
    }

    /// Register the engine's counters and latency histogram on a metrics
    /// registry (Prometheus exposition). The histogram is shared, so the
    /// registry always exposes live bucket counts.
    pub fn register_metrics(&self, registry: &sembfs_obs::MetricsRegistry) {
        use sembfs_obs::Metric;
        registry.register_histogram(
            "sembfs_query_latency_seconds",
            &[],
            Arc::clone(&self.shared.histogram),
        );
        let shared = Arc::clone(&self.shared);
        registry.register_source(Box::new(move || {
            let labels: &[(&str, &str)] = &[];
            vec![
                Metric::counter(
                    "sembfs_query_completed_total",
                    labels,
                    shared.completed.load(Ordering::Relaxed) as f64,
                ),
                Metric::counter(
                    "sembfs_query_rejected_total",
                    labels,
                    shared.rejected.load(Ordering::Relaxed) as f64,
                ),
                Metric::counter(
                    "sembfs_query_result_cache_hits_total",
                    labels,
                    shared.result_cache_hits.load(Ordering::Relaxed) as f64,
                ),
            ]
        }));
    }

    /// Aggregate metrics since the engine was created: throughput,
    /// latency distribution, and — via the scenario's shared page cache
    /// and device — the global cache hit-rate and NVM traffic this
    /// engine's window produced.
    pub fn stats(&self) -> QueryStats {
        let shared = &self.shared;
        let cache = shared
            .data
            .page_cache()
            .map(|c| c.snapshot())
            .zip(self.cache_base)
            .map(|(now, base)| now.delta(&base));
        let io = shared
            .data
            .device()
            .map(|d| d.snapshot())
            .zip(self.io_base)
            .map(|(now, base)| now.delta(&base));
        QueryStats {
            completed: shared.completed.load(Ordering::Relaxed),
            rejected: shared.rejected.load(Ordering::Relaxed),
            result_cache_hits: shared.result_cache_hits.load(Ordering::Relaxed),
            elapsed: self.started.elapsed(),
            mean_latency: shared.histogram.mean(),
            p50_latency: shared.histogram.quantile(0.5),
            p99_latency: shared.histogram.quantile(0.99),
            max_latency: shared.histogram.max(),
            cache,
            io,
        }
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        {
            let mut state = self.shared.queue.lock().unwrap();
            state.closed = true;
        }
        // Workers drain the remaining queue, then exit on `closed`.
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}
