//! The process-global span/event tracer.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled must be free.** Every instrumentation site is gated on
//!    [`Tracer::is_enabled`], a single relaxed `AtomicBool` load; no
//!    payload is computed and no clock is read unless tracing is on
//!    (demonstrated by the `obs_overhead` bench).
//! 2. **Enabled must not serialize emitters.** Each thread records into
//!    its own ring buffer behind its own lock; threads never contend with
//!    each other, only with the (rare) drain.
//! 3. **One timebase.** All timestamps are nanoseconds since the tracer
//!    epoch. [`Tracer::set_epoch`] aligns that epoch with a simulated
//!    [`Device`]'s epoch, making `LevelStats` wall-clock spans and
//!    `IoStats` arrival/completion nanoseconds directly comparable in one
//!    trace — the timebase-mismatch fix the evaluation needs.
//! 4. **Bounded memory.** Rings overwrite their oldest entry when full
//!    and count what they dropped. Rare structural events (runs, levels,
//!    switches, queries) live in a separate ring from high-rate detail
//!    events (NVM reads, cache fills/evictions, steps), so an I/O flood
//!    can never evict the level structure a report needs.
//!
//! Events are *complete spans* (start + end recorded together, Chrome
//! `ph:"X"` style) — there is no begin/end pairing to corrupt, and an
//! instant event is just a zero-length span.
//!
//! [`Device`]: Tracer::set_epoch

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Traversal direction tag, mirrored from `sembfs-core` (this crate is a
/// leaf and cannot import it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Frontier-driven expansion over the forward graph.
    TopDown,
    /// Unvisited-driven search over the backward graph.
    BottomUp,
}

impl Dir {
    /// The stable wire name (matches `Direction`'s `Display`).
    pub fn as_str(self) -> &'static str {
        match self {
            Dir::TopDown => "top-down",
            Dir::BottomUp => "bottom-up",
        }
    }

    /// Parse a wire name back.
    pub fn parse(s: &str) -> Option<Dir> {
        match s {
            "top-down" => Some(Dir::TopDown),
            "bottom-up" => Some(Dir::BottomUp),
            _ => None,
        }
    }
}

impl std::fmt::Display for Dir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Query flavor tag for [`TraceEvent::Query`] spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Point-to-point shortest path.
    ShortestPath,
    /// Whole-graph distance sweep, point lookup.
    Distance,
    /// Point-to-point reachability.
    Reachable,
    /// Bounded-depth neighborhood expansion.
    Neighborhood,
}

impl QueryKind {
    /// The stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryKind::ShortestPath => "shortest-path",
            QueryKind::Distance => "distance",
            QueryKind::Reachable => "reachable",
            QueryKind::Neighborhood => "neighborhood",
        }
    }

    /// Parse a wire name back.
    pub fn parse(s: &str) -> Option<QueryKind> {
        match s {
            "shortest-path" => Some(QueryKind::ShortestPath),
            "distance" => Some(QueryKind::Distance),
            "reachable" => Some(QueryKind::Reachable),
            "neighborhood" => Some(QueryKind::Neighborhood),
            _ => None,
        }
    }
}

/// Fault flavor tag for [`TraceEvent::FaultInjected`] events, mirrored
/// from `sembfs-semext::fault` (this crate is a leaf and cannot import it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient `EIO`-style read failure (retryable).
    TransientEio,
    /// Silent page corruption (a bit flip the checksum must catch).
    Corruption,
    /// A latency spike / multi-millisecond stall on one request.
    Stall,
}

impl FaultKind {
    /// The stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::TransientEio => "eio",
            FaultKind::Corruption => "corrupt",
            FaultKind::Stall => "stall",
        }
    }

    /// Parse a wire name back.
    pub fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "eio" => Some(FaultKind::TransientEio),
            "corrupt" => Some(FaultKind::Corruption),
            "stall" => Some(FaultKind::Stall),
            _ => None,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The payload of one trace sample. All variants are `Copy` with
/// fixed-size fields: emitting never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// One whole BFS execution (spans all its levels).
    Run {
        /// Root vertex.
        root: u64,
        /// Vertices reached (including the root).
        visited: u64,
        /// Undirected input edges of the traversed component (TEPS
        /// denominator).
        teps_edges: u64,
        /// Number of levels executed.
        levels: u64,
    },
    /// One BFS level, with its windowed I/O and cache deltas.
    Level {
        /// Level number (1 = first expansion from the root).
        level: u32,
        /// Direction the level ran in.
        dir: Dir,
        /// Frontier size entering the level.
        frontier: u64,
        /// Vertices discovered by the level.
        discovered: u64,
        /// Edges scanned (either direction).
        scanned_edges: u64,
        /// Scanned edges read from the NVM-resident graph.
        nvm_edges: u64,
        /// Device requests completed during the level (0 when no device
        /// is monitored).
        io_requests: u64,
        /// Physical bytes moved during the level.
        io_bytes: u64,
        /// Σ per-request response time during the level, ns.
        io_response_ns: u64,
        /// Observed device wall time of the level's window, ns.
        io_wall_ns: u64,
        /// Page-cache demand hits during the level.
        cache_hits: u64,
        /// Page-cache demand misses during the level.
        cache_misses: u64,
        /// Pages loaded into the page cache ahead of demand (readahead
        /// and prefetch) during the level.
        cache_readahead_pages: u64,
        /// Pages loaded ahead of demand that were evicted during the
        /// level before any demand read hit them.
        cache_prefetch_unused: u64,
        /// Worker threads the level's step ran on.
        threads: u64,
    },
    /// One direction-policy decision with the inputs that produced it
    /// (instant event, emitted before the level runs).
    Switch {
        /// Level the decision applies to.
        level: u32,
        /// Direction of the previous level.
        from: Dir,
        /// Direction chosen for this level.
        to: Dir,
        /// Current frontier size (`n_f(i)`).
        frontier: u64,
        /// Previous frontier size (`n_f(i-1)`).
        prev_frontier: u64,
        /// Total vertices (`n_all`).
        n_all: u64,
        /// Still-unvisited vertices.
        unvisited: u64,
        /// The policy's α threshold divisor (0 when the policy has no
        /// α/β form, e.g. `FixedPolicy`).
        alpha: f64,
        /// The policy's β threshold divisor (0 when not applicable).
        beta: f64,
    },
    /// One step-kernel invocation (detail event).
    Step {
        /// Direction of the kernel.
        dir: Dir,
        /// Edges it scanned.
        scanned_edges: u64,
    },
    /// One device read (single request or batch); the span runs from the
    /// request's arrival to its modeled completion on the device clock.
    NvmRead {
        /// Physical bytes moved.
        bytes: u64,
        /// Requests in the submission (1 for synchronous reads).
        requests: u64,
    },
    /// Pages copied into the page cache from the backing store.
    CacheFill {
        /// Pages filled.
        pages: u64,
    },
    /// Pages displaced by CLOCK replacement (instant event).
    CacheEvict {
        /// Pages evicted.
        pages: u64,
    },
    /// One query lifecycle, submission to completion.
    Query {
        /// Query flavor.
        kind: QueryKind,
        /// Served from the result cache without touching the graph.
        cached: bool,
        /// Completed without error.
        ok: bool,
    },
    /// One injected device fault (detail event, instant).
    FaultInjected {
        /// Which failure mode fired.
        kind: FaultKind,
    },
    /// One backoff retry of a faulted read; the span covers the backoff
    /// wait (detail event).
    Retry {
        /// Retry ordinal (1 = first retry after the initial attempt).
        attempt: u32,
        /// Backoff delay waited before this retry, ns.
        delay_ns: u64,
    },
    /// The device-health monitor crossed its degradation threshold
    /// (instant frame event — rare, structural).
    Degraded {
        /// Faulted requests observed in the health window.
        errors: u64,
        /// Total requests observed in the health window.
        requests: u64,
    },
}

impl TraceEvent {
    /// High-rate events live in the detail ring so they can never evict
    /// the run/level structure a report is built from.
    pub fn is_detail(&self) -> bool {
        matches!(
            self,
            TraceEvent::Step { .. }
                | TraceEvent::NvmRead { .. }
                | TraceEvent::CacheFill { .. }
                | TraceEvent::CacheEvict { .. }
                | TraceEvent::FaultInjected { .. }
                | TraceEvent::Retry { .. }
        )
    }

    /// The stable wire name of the variant.
    pub fn kind_str(&self) -> &'static str {
        match self {
            TraceEvent::Run { .. } => "run",
            TraceEvent::Level { .. } => "level",
            TraceEvent::Switch { .. } => "switch",
            TraceEvent::Step { .. } => "step",
            TraceEvent::NvmRead { .. } => "nvm_read",
            TraceEvent::CacheFill { .. } => "cache_fill",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::Query { .. } => "query",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::Degraded { .. } => "degraded",
        }
    }
}

/// One recorded span: `[start_ns, end_ns]` on the tracer epoch, the
/// emitting thread, and the typed payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Span start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// Span end (== start for instant events).
    pub end_ns: u64,
    /// Small dense id of the emitting thread (registration order).
    pub tid: u32,
    /// The payload.
    pub event: TraceEvent,
}

impl Sample {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread sample rings. Structural ("frame") events and high-rate
/// detail events are kept apart — see the module docs.
struct ThreadBuffer {
    tid: u32,
    frames: Mutex<VecDeque<Sample>>,
    details: Mutex<VecDeque<Sample>>,
}

/// Frame ring capacity per thread: runs + levels + switches + queries.
/// A SCALE-27 BFS has < 30 levels; 16 Ki frames holds hundreds of runs.
const FRAME_CAPACITY: usize = 16 * 1024;
/// Detail ring capacity per thread (NVM reads, cache traffic, steps).
const DETAIL_CAPACITY: usize = 64 * 1024;

impl ThreadBuffer {
    fn push(&self, sample: Sample) -> u64 {
        let (ring, cap) = if sample.event.is_detail() {
            (&self.details, DETAIL_CAPACITY)
        } else {
            (&self.frames, FRAME_CAPACITY)
        };
        let mut ring = ring.lock().unwrap();
        let mut dropped = 0;
        if ring.len() >= cap {
            ring.pop_front();
            dropped = 1;
        }
        ring.push_back(sample);
        dropped
    }

    fn take(&self) -> Vec<Sample> {
        let mut out: Vec<Sample> = self.frames.lock().unwrap().drain(..).collect();
        out.extend(self.details.lock().unwrap().drain(..));
        out
    }
}

thread_local! {
    static TLS_BUFFER: RefCell<Option<Arc<ThreadBuffer>>> = const { RefCell::new(None) };
}

/// The tracer. Use the process-global instance via [`global`]; separate
/// instances exist only for tests of the tracer itself.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Mutex<Instant>,
    threads: Mutex<Vec<Arc<ThreadBuffer>>>,
    next_tid: AtomicU32,
    dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh, disabled tracer with its epoch at "now".
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            epoch: Mutex::new(Instant::now()),
            threads: Mutex::new(Vec::new()),
            next_tid: AtomicU32::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether tracing is on. This relaxed load is the *entire* cost of
    /// an instrumentation site when tracing is disabled.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn tracing on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Re-anchor the timebase, typically to a [`Device`]'s epoch so trace
    /// timestamps and `IoStats` arrival/completion nanoseconds coincide.
    /// Call before emitting; samples recorded under a previous epoch keep
    /// their old base.
    ///
    /// [`Device`]: Tracer::set_epoch
    pub fn set_epoch(&self, epoch: Instant) {
        *self.epoch.lock().unwrap() = epoch;
    }

    /// The current epoch.
    pub fn epoch(&self) -> Instant {
        *self.epoch.lock().unwrap()
    }

    /// Nanoseconds from the epoch to now.
    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch()).as_nanos() as u64
    }

    /// Record a complete span. No-op while disabled.
    pub fn span(&self, start_ns: u64, end_ns: u64, event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        self.emit(Sample {
            start_ns,
            end_ns: end_ns.max(start_ns),
            tid: 0,
            event,
        });
    }

    /// Record an instant event stamped "now". No-op while disabled.
    pub fn instant(&self, event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        let now = self.now_ns();
        self.emit(Sample {
            start_ns: now,
            end_ns: now,
            tid: 0,
            event,
        });
    }

    fn emit(&self, mut sample: Sample) {
        TLS_BUFFER.with(|slot| {
            let mut slot = slot.borrow_mut();
            let buffer = match slot.as_ref() {
                // Fast path: this thread already registered with *this*
                // tracer. (A thread that emitted into a different tracer
                // instance re-registers; only tests mix instances.)
                Some(buf) if self.owns(buf) => buf.clone(),
                _ => {
                    let buf = Arc::new(ThreadBuffer {
                        tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
                        frames: Mutex::new(VecDeque::new()),
                        details: Mutex::new(VecDeque::new()),
                    });
                    self.threads.lock().unwrap().push(buf.clone());
                    *slot = Some(buf.clone());
                    buf
                }
            };
            sample.tid = buffer.tid;
            let dropped = buffer.push(sample);
            if dropped > 0 {
                self.dropped.fetch_add(dropped, Ordering::Relaxed);
            }
        });
    }

    fn owns(&self, buf: &Arc<ThreadBuffer>) -> bool {
        self.threads
            .lock()
            .unwrap()
            .iter()
            .any(|b| Arc::ptr_eq(b, buf))
    }

    /// Collect (and clear) every thread's samples, merged and sorted by
    /// start time. Buffers stay registered; emission continues normally.
    pub fn drain(&self) -> Vec<Sample> {
        let buffers: Vec<Arc<ThreadBuffer>> = self.threads.lock().unwrap().clone();
        let mut out: Vec<Sample> = buffers.iter().flat_map(|b| b.take()).collect();
        out.sort_by_key(|s| (s.start_ns, s.end_ns, s.tid));
        out
    }

    /// Discard all buffered samples and zero the dropped counter (the
    /// enabled flag and epoch are untouched).
    pub fn reset(&self) {
        let _ = self.drain();
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Samples lost to ring overflow since the last [`reset`](Self::reset).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

static GLOBAL: OnceLock<Tracer> = OnceLock::new();

/// The process-global tracer every instrumentation site uses.
pub fn global() -> &'static Tracer {
    GLOBAL.get_or_init(Tracer::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.span(0, 10, TraceEvent::CacheFill { pages: 1 });
        t.instant(TraceEvent::CacheEvict { pages: 1 });
        assert!(t.drain().is_empty());
    }

    #[test]
    fn spans_round_trip_and_sort() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.span(50, 60, TraceEvent::CacheFill { pages: 2 });
        t.span(
            10,
            20,
            TraceEvent::Step {
                dir: Dir::TopDown,
                scanned_edges: 7,
            },
        );
        let got = t.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].start_ns, 10);
        assert_eq!(got[1].event, TraceEvent::CacheFill { pages: 2 });
        // Drained: nothing left.
        assert!(t.drain().is_empty());
    }

    #[test]
    fn end_clamped_to_start() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.span(100, 40, TraceEvent::CacheFill { pages: 1 });
        let got = t.drain();
        assert_eq!(got[0].end_ns, 100);
        assert_eq!(got[0].duration_ns(), 0);
    }

    #[test]
    fn detail_flood_never_evicts_frames() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.span(
            0,
            1,
            TraceEvent::Run {
                root: 3,
                visited: 1,
                teps_edges: 0,
                levels: 1,
            },
        );
        for i in 0..(DETAIL_CAPACITY as u64 + 100) {
            t.span(
                i,
                i + 1,
                TraceEvent::NvmRead {
                    bytes: 4096,
                    requests: 1,
                },
            );
        }
        assert_eq!(t.dropped(), 100);
        let got = t.drain();
        assert!(got
            .iter()
            .any(|s| matches!(s.event, TraceEvent::Run { .. })));
        assert_eq!(got.len(), DETAIL_CAPACITY + 1);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let t = Arc::new(Tracer::new());
        t.set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    t.instant(TraceEvent::CacheEvict { pages: 1 });
                });
            }
        });
        let got = t.drain();
        assert_eq!(got.len(), 4);
        let mut tids: Vec<u32> = got.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn epoch_alignment_shifts_timestamps() {
        let t = Tracer::new();
        let early = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.set_epoch(early);
        // Now is at least 2 ms past the aligned epoch.
        assert!(t.now_ns() >= 2_000_000);
        // Instants before the epoch saturate to zero.
        t.set_epoch(Instant::now() + std::time::Duration::from_secs(3600));
        assert_eq!(t.ns_of(Instant::now()), 0);
    }

    #[test]
    fn dir_and_kind_wire_names_round_trip() {
        for d in [Dir::TopDown, Dir::BottomUp] {
            assert_eq!(Dir::parse(d.as_str()), Some(d));
        }
        for k in [
            QueryKind::ShortestPath,
            QueryKind::Distance,
            QueryKind::Reachable,
            QueryKind::Neighborhood,
        ] {
            assert_eq!(QueryKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(Dir::parse("sideways"), None);
    }

    #[test]
    fn fault_kind_wire_names_round_trip() {
        for k in [
            FaultKind::TransientEio,
            FaultKind::Corruption,
            FaultKind::Stall,
        ] {
            assert_eq!(FaultKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(FaultKind::parse("gremlin"), None);
    }

    #[test]
    fn fault_events_route_to_the_right_rings() {
        assert!(TraceEvent::FaultInjected {
            kind: FaultKind::Stall
        }
        .is_detail());
        assert!(TraceEvent::Retry {
            attempt: 1,
            delay_ns: 10
        }
        .is_detail());
        // Degradation is structural: an I/O flood must not evict it.
        assert!(!TraceEvent::Degraded {
            errors: 5,
            requests: 100
        }
        .is_detail());
    }
}
