//! Deterministic, seeded fault injection for the simulated NVM device,
//! and the machinery the read path uses to survive it.
//!
//! The device model (`device.rs`) answers every read correctly and on
//! time; real flash arrays do not. This module adds the failure modes a
//! semi-external engine must tolerate — transient `EIO` reads, silent
//! page corruption (bit flips), latency stalls, and progressive wear-out
//! — plus the defenses: per-page checksums ([`PageIntegrity`]), capped
//! jittered exponential backoff ([`Backoff`]), and a [`DeviceHealth`]
//! monitor that feeds graceful degradation upstream (the hybrid policy
//! biases to the DRAM-resident bottom-up direction, the query engine
//! sheds load).
//!
//! **Determinism.** Every fault decision is a pure function of
//! `(plan.seed, byte offset, k)`, where `k` counts the draws made at that
//! offset. Because the per-offset draw sequence does not depend on how
//! concurrent readers interleave, two runs that issue the same multiset
//! of reads per offset inject the *same* multiset of faults — the
//! property the fixed-seed CI smoke job asserts. A retry at the same
//! offset is a fresh draw (`k+1`), which is why transient faults heal
//! under retry whenever the configured rates are below one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::PAGE_BYTES;

pub use sembfs_obs::FaultKind;

/// SplitMix64 — the same finalizer the generator crate uses; good enough
/// to decorrelate (seed, offset, draw) triples.
#[inline]
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a hash to a uniform float in `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A serializable fault-injection plan: which failure modes fire, how
/// often, and how the read path may retry.
///
/// The wire grammar is a comma-separated `key=value` list, e.g.
/// `seed=7,eio=0.01,corrupt=0.001,stall=0.005,stall_us=2000,wear_gb=1`
/// (this is what `sembfs bfs --faults <spec>` parses). [`Display`]
/// renders the canonical form; `parse(display(p)) == p`.
///
/// [`Display`]: std::fmt::Display
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Per-read probability of a transient `EIO` failure.
    pub eio: f64,
    /// Per-read probability of a silent bit flip in the returned data.
    pub corrupt: f64,
    /// Per-read probability of a latency stall.
    pub stall: f64,
    /// Stall duration, microseconds of extra device occupancy.
    pub stall_us: u64,
    /// Wear-out horizon: the device's service time doubles for every
    /// `wear_gb` GiB served (capped at [`MAX_WEAR_FACTOR`]×). 0 disables.
    pub wear_gb: f64,
    /// Maximum retries after the initial attempt before a transient
    /// failure surfaces as [`Error::RetriesExhausted`].
    pub retries: u32,
    /// Fault rate (errors + stalls over requests) past which the
    /// [`DeviceHealth`] monitor reports the device degraded.
    pub degrade: f64,
}

/// Wear-out never slows the device past this service-time multiplier.
pub const MAX_WEAR_FACTOR: f64 = 4.0;

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 1,
            eio: 0.0,
            corrupt: 0.0,
            stall: 0.0,
            stall_us: 2000,
            wear_gb: 0.0,
            retries: 6,
            degrade: 0.05,
        }
    }
}

impl FaultPlan {
    /// Parse the `key=value,...` spec grammar. Unknown keys and malformed
    /// values are errors; omitted keys take their defaults.
    pub fn parse(spec: &str) -> std::result::Result<Self, String> {
        let mut plan = Self::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item '{part}' is not key=value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("fault spec '{key}': {e}");
            match key.trim() {
                "seed" => plan.seed = value.trim().parse().map_err(|e| bad(&e))?,
                "eio" => plan.eio = value.trim().parse().map_err(|e| bad(&e))?,
                "corrupt" => plan.corrupt = value.trim().parse().map_err(|e| bad(&e))?,
                "stall" => plan.stall = value.trim().parse().map_err(|e| bad(&e))?,
                "stall_us" => plan.stall_us = value.trim().parse().map_err(|e| bad(&e))?,
                "wear_gb" => plan.wear_gb = value.trim().parse().map_err(|e| bad(&e))?,
                "retries" => plan.retries = value.trim().parse().map_err(|e| bad(&e))?,
                "degrade" => plan.degrade = value.trim().parse().map_err(|e| bad(&e))?,
                other => return Err(format!("unknown fault spec key '{other}'")),
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    fn validate(&self) -> std::result::Result<(), String> {
        for (name, rate) in [
            ("eio", self.eio),
            ("corrupt", self.corrupt),
            ("stall", self.stall),
            ("degrade", self.degrade),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(format!("fault rate '{name}' must be within [0, 1]"));
            }
        }
        if self.eio + self.corrupt + self.stall > 1.0 {
            return Err("fault rates eio+corrupt+stall must not exceed 1".into());
        }
        if self.wear_gb < 0.0 || !self.wear_gb.is_finite() {
            return Err("wear_gb must be non-negative".into());
        }
        Ok(())
    }

    /// True when no failure mode can ever fire (rates and wear all zero).
    pub fn is_noop(&self) -> bool {
        !self.has_read_faults() && self.wear_gb == 0.0
    }

    /// True when any per-read fault (EIO, corruption, stall) can fire.
    /// Wear-out is excluded: it acts on service times inside the device,
    /// not on individual read outcomes.
    pub fn has_read_faults(&self) -> bool {
        self.eio > 0.0 || self.corrupt > 0.0 || self.stall > 0.0
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed={},eio={},corrupt={},stall={},stall_us={},wear_gb={},retries={},degrade={}",
            self.seed,
            self.eio,
            self.corrupt,
            self.stall,
            self.stall_us,
            self.wear_gb,
            self.retries,
            self.degrade
        )
    }
}

/// Running fault-injection counters, snapshotted for reports and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSnapshot {
    /// Transient `EIO` faults injected.
    pub eio: u64,
    /// Bit-flip corruptions injected.
    pub corrupt: u64,
    /// Latency stalls injected.
    pub stall: u64,
    /// Backoff retries the read path performed.
    pub retries: u64,
    /// Checksum verifications that failed (injected or torn pages).
    pub checksum_failures: u64,
}

impl FaultSnapshot {
    /// Total injected faults of every kind.
    pub fn total(&self) -> u64 {
        self.eio + self.corrupt + self.stall
    }
}

/// The device-health monitor: windowless error/stall rates over served
/// requests, with a minimum sample count so a single early fault cannot
/// flip a whole run into degraded mode.
#[derive(Debug)]
pub struct DeviceHealth {
    requests: AtomicU64,
    errors: AtomicU64,
    stalls: AtomicU64,
    degrade_ratio: f64,
}

/// Requests observed before [`DeviceHealth::is_degraded`] may fire.
pub const HEALTH_MIN_SAMPLES: u64 = 64;

impl DeviceHealth {
    /// A monitor that reports degraded past `degrade_ratio` faults/request.
    pub fn new(degrade_ratio: f64) -> Self {
        Self {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            degrade_ratio,
        }
    }

    /// Record one served read attempt.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one faulted read (transient error or checksum failure).
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one stalled read.
    pub fn record_stall(&self) {
        self.stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// `(faulted, total)` requests observed so far.
    pub fn counts(&self) -> (u64, u64) {
        let faulted = self.errors.load(Ordering::Relaxed) + self.stalls.load(Ordering::Relaxed);
        (faulted, self.requests.load(Ordering::Relaxed))
    }

    /// Whether the observed fault rate has crossed the degradation
    /// threshold (after [`HEALTH_MIN_SAMPLES`] requests).
    pub fn is_degraded(&self) -> bool {
        let (faulted, requests) = self.counts();
        requests >= HEALTH_MIN_SAMPLES && faulted as f64 >= self.degrade_ratio * requests as f64
    }
}

/// Stripes for the per-offset draw counters (power of two).
const DRAW_STRIPES: usize = 16;

/// The live fault-injection state attached to a [`Device`]: the plan, the
/// per-offset draw counters that make decisions deterministic, the
/// injection counters, and the health monitor.
///
/// [`Device`]: crate::Device
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    draws: Vec<Mutex<HashMap<u64, u32>>>,
    eio: AtomicU64,
    corrupt: AtomicU64,
    stall: AtomicU64,
    retries: AtomicU64,
    checksum_failures: AtomicU64,
    health: DeviceHealth,
}

impl FaultState {
    /// Fresh state for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let health = DeviceHealth::new(plan.degrade);
        Self {
            plan,
            draws: (0..DRAW_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            eio: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            stall: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            checksum_failures: AtomicU64::new(0),
            health,
        }
    }

    /// The plan this state executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The health monitor.
    pub fn health(&self) -> &DeviceHealth {
        &self.health
    }

    /// Snapshot the injection counters.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            eio: self.eio.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            stall: self.stall.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            checksum_failures: self.checksum_failures.load(Ordering::Relaxed),
        }
    }

    /// Stall duration from the plan.
    pub fn stall_duration(&self) -> Duration {
        Duration::from_micros(self.plan.stall_us)
    }

    /// Count a backoff retry.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a checksum verification failure.
    pub fn record_checksum_failure(&self) {
        self.checksum_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Draw the next fault decision for a read at `offset`. The decision
    /// is a pure function of `(seed, offset, k)` with `k` this offset's
    /// draw ordinal, so identical runs inject identical fault multisets
    /// regardless of thread interleaving.
    pub fn draw(&self, offset: u64) -> Draw {
        let k = {
            let stripe = (splitmix(offset) as usize) & (DRAW_STRIPES - 1);
            let mut map = self.draws[stripe].lock();
            let counter = map.entry(offset).or_insert(0);
            let k = *counter;
            *counter += 1;
            k
        };
        let h = splitmix(self.plan.seed ^ splitmix(offset) ^ splitmix(k as u64 + 1));
        let u = unit(h);
        let kind = if u < self.plan.eio {
            Some(FaultKind::TransientEio)
        } else if u < self.plan.eio + self.plan.corrupt {
            Some(FaultKind::Corruption)
        } else if u < self.plan.eio + self.plan.corrupt + self.plan.stall {
            Some(FaultKind::Stall)
        } else {
            None
        };
        if let Some(kind) = kind {
            let counter = match kind {
                FaultKind::TransientEio => &self.eio,
                FaultKind::Corruption => &self.corrupt,
                FaultKind::Stall => &self.stall,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            let tracer = sembfs_obs::global();
            if tracer.is_enabled() {
                tracer.instant(sembfs_obs::TraceEvent::FaultInjected { kind });
            }
        }
        Draw {
            k,
            kind,
            hash: splitmix(h),
        }
    }

    /// A retry policy derived from the plan (seeded jitter).
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: self.plan.retries,
            ..RetryPolicy::default()
        }
    }
}

/// One fault decision: the draw ordinal, the chosen failure mode (if
/// any), and a derived hash for picking e.g. which bit to flip.
#[derive(Debug, Clone, Copy)]
pub struct Draw {
    /// Draw ordinal at this offset (0 = first read).
    pub k: u32,
    /// The failure mode this draw injects, or `None`.
    pub kind: Option<FaultKind>,
    /// Decorrelated hash for secondary choices (bit index, jitter).
    pub hash: u64,
}

impl Draw {
    /// Flip one deterministic bit of `buf` (the silent-corruption model).
    pub fn corrupt_buffer(&self, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        let bit = (self.hash as usize) % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Capped exponential backoff with deterministic jitter and a deadline.
///
/// Delays follow `base · 2^attempt`, capped at `cap`, each scaled by a
/// jitter in `[0.5, 1.0]` derived from `(seed, attempt)` — deterministic
/// for a given seed, decorrelated across concurrent retriers. The
/// cumulative delay never exceeds `deadline`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt.
    pub max_retries: u32,
    /// First backoff delay.
    pub base: Duration,
    /// Per-delay cap.
    pub cap: Duration,
    /// Cumulative backoff budget.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 6,
            base: Duration::from_micros(50),
            cap: Duration::from_millis(5),
            deadline: Duration::from_millis(100),
        }
    }
}

/// The backoff iterator: hand out the next delay until retries or the
/// deadline run out.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: RetryPolicy,
    seed: u64,
    attempt: u32,
    spent: Duration,
}

impl Backoff {
    /// Start a backoff sequence under `policy`, jitter-seeded by `seed`.
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        Self {
            policy,
            seed,
            attempt: 0,
            spent: Duration::ZERO,
        }
    }

    /// Attempts made so far (initial try included once exhausted).
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The next backoff delay, or `None` when the retry budget (count or
    /// deadline) is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.policy.max_retries || self.spent >= self.policy.deadline {
            return None;
        }
        let exp = self
            .policy
            .base
            .saturating_mul(1u32 << self.attempt.min(20))
            .min(self.policy.cap);
        // Jitter in [0.5, 1.0]: never collapses to zero, keeps concurrent
        // retriers decorrelated.
        let jitter = 0.5 + 0.5 * unit(splitmix(self.seed ^ (self.attempt as u64 + 1)));
        let delay = exp.mul_f64(jitter);
        let delay = delay.min(self.policy.deadline.saturating_sub(self.spent));
        self.attempt += 1;
        self.spent += delay;
        Some(delay)
    }
}

/// Retry `op` under `policy`, sleeping the backoff delays on the OS
/// clock. `retryable` decides which errors are worth retrying; the last
/// error is returned when the budget runs out.
///
/// This is the wall-clock flavor for callers without a simulated device
/// (e.g. retrying `QueryError::Overloaded` submissions); the device read
/// path waits on the device clock instead.
pub fn retry_blocking<T, E>(
    policy: RetryPolicy,
    seed: u64,
    mut retryable: impl FnMut(&E) -> bool,
    mut op: impl FnMut() -> std::result::Result<T, E>,
) -> std::result::Result<T, E> {
    let mut backoff = Backoff::new(policy, seed);
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if retryable(&e) => match backoff.next_delay() {
                Some(delay) => {
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
    }
}

/// One read through the fault layer: draw a fault per attempt, charge the
/// device for every attempt (failed reads occupy the device too), verify
/// page checksums when `integrity` is sealed, and retry transient
/// failures under the plan's backoff budget.
///
/// Outcomes:
/// * success — `buf` holds verified (or, without integrity, possibly
///   silently corrupted) data;
/// * [`Error::ChecksumMismatch`] — the retry budget ran out and the last
///   attempt still failed verification (a torn page is never returned as
///   valid data);
/// * [`Error::RetriesExhausted`] — the retry budget ran out on transient
///   `EIO` failures.
///
/// Non-injected backend errors (out-of-bounds, real I/O) pass through
/// untouched — retrying cannot heal them.
pub fn faulted_read<B: crate::backend::ReadAt>(
    backend: &B,
    device: &crate::device::Device,
    integrity: Option<&PageIntegrity>,
    state: &FaultState,
    offset: u64,
    buf: &mut [u8],
) -> Result<()> {
    let len = buf.len() as u64;
    let mut backoff = Backoff::new(
        state.retry_policy(),
        state.plan().seed ^ splitmix(offset ^ 0xB0FF_B0FF),
    );
    // Assigned by every fallible arm below before the exhaustion check
    // reads it (the compiler proves this — no dummy initializer needed).
    let mut last_checksum: Option<(u64, u64, u64)>;
    loop {
        let draw = state.draw(offset);
        state.health().record_request();
        // Every attempt occupies the device, failed ones included.
        device.read_request(len);
        match draw.kind {
            Some(FaultKind::TransientEio) => {
                state.health().record_error();
                last_checksum = None;
            }
            other => {
                if other == Some(FaultKind::Stall) {
                    state.health().record_stall();
                    device.apply_stall(state.stall_duration());
                }
                let corrupt = other == Some(FaultKind::Corruption);
                match read_and_verify(backend, integrity, &draw, corrupt, offset, buf) {
                    Ok(()) => return Ok(()),
                    Err(Error::ChecksumMismatch {
                        page,
                        expected,
                        actual,
                    }) => {
                        state.record_checksum_failure();
                        state.health().record_error();
                        last_checksum = Some((page, expected, actual));
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        match backoff.next_delay() {
            Some(delay) => {
                state.record_retry();
                let tracer = sembfs_obs::global();
                if tracer.is_enabled() {
                    tracer.instant(sembfs_obs::TraceEvent::Retry {
                        attempt: backoff.attempts(),
                        delay_ns: delay.as_nanos() as u64,
                    });
                }
                device.wait_backoff(delay);
            }
            None => {
                return Err(match last_checksum {
                    Some((page, expected, actual)) => Error::ChecksumMismatch {
                        page,
                        expected,
                        actual,
                    },
                    None => Error::RetriesExhausted {
                        attempts: backoff.attempts() + 1,
                        last: std::io::ErrorKind::Interrupted,
                    },
                });
            }
        }
    }
}

/// One attempt's actual data movement. With sealed integrity the
/// enclosing page-aligned span is read into scratch, the injected bit
/// flip (if any) lands there, and every page is verified before the
/// requested window is copied out — so a corrupted read can never leak
/// into `buf`. Without integrity the read is direct and an injected flip
/// is silent (that is the failure mode checksums exist to catch).
/// A plain (non-faulted) read verified against sealed page checksums: the
/// enclosing page-aligned span is read into scratch and verified, and only
/// then is the requested window copied into `buf` — a torn page is
/// detected at fill and never served, even with no fault plan installed.
pub fn verified_read<B: crate::backend::ReadAt>(
    backend: &B,
    integrity: &PageIntegrity,
    offset: u64,
    buf: &mut [u8],
) -> Result<()> {
    let draw = Draw {
        k: 0,
        kind: None,
        hash: 0,
    };
    read_and_verify(backend, Some(integrity), &draw, false, offset, buf)
}

fn read_and_verify<B: crate::backend::ReadAt>(
    backend: &B,
    integrity: Option<&PageIntegrity>,
    draw: &Draw,
    corrupt: bool,
    offset: u64,
    buf: &mut [u8],
) -> Result<()> {
    let Some(integrity) = integrity else {
        backend.read_at(offset, buf)?;
        if corrupt {
            draw.corrupt_buffer(buf);
        }
        return Ok(());
    };
    let size = backend.len();
    let end = offset
        .checked_add(buf.len() as u64)
        .filter(|&e| e <= size)
        .ok_or(Error::OutOfBounds {
            offset,
            len: buf.len() as u64,
            size,
        })?;
    let first_page = offset / PAGE_BYTES;
    let span_start = first_page * PAGE_BYTES;
    let span_end = end
        .div_ceil(PAGE_BYTES)
        .saturating_mul(PAGE_BYTES)
        .min(size);
    if offset == span_start && end == span_end {
        // `buf` IS the page span: verify in place, no bounce buffer.
        // (Corrupted bytes may land in `buf`, but a detected mismatch
        // propagates as an error, so they are never *served*.)
        backend.read_at(offset, buf)?;
        if corrupt {
            draw.corrupt_buffer(buf);
        }
        return integrity.verify_span(first_page, buf);
    }
    thread_local! {
        static SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.resize((span_end - span_start) as usize, 0);
        backend.read_at(span_start, &mut scratch)?;
        if corrupt {
            draw.corrupt_buffer(&mut scratch);
        }
        integrity.verify_span(first_page, &scratch)?;
        let lo = (offset - span_start) as usize;
        buf.copy_from_slice(&scratch[lo..lo + buf.len()]);
        Ok(())
    })
}

/// Per-page FNV-1a-64 checksums over a store, sealed at build time from
/// known-good data and verified on every cache fill / faulted read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageIntegrity {
    sums: Vec<u64>,
    len: u64,
}

impl PageIntegrity {
    /// Checksum one page's bytes: FNV-1a 64 widened to a word at a time.
    /// Eight bytes per multiply keeps verification off the read path's
    /// critical path (the byte-serial variant costs ~1 ns/byte — more
    /// than a fast device's per-page service time).
    pub fn checksum(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            h ^= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        for &b in words.remainder() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Seal checksums over an in-memory image.
    pub fn seal_bytes(data: &[u8]) -> Self {
        let sums = data
            .chunks(PAGE_BYTES as usize)
            .map(Self::checksum)
            .collect();
        Self {
            sums,
            len: data.len() as u64,
        }
    }

    /// Seal checksums by reading `store` page by page (use an unmetered
    /// backend: sealing happens at build time, not on the device).
    pub fn seal_store<R: crate::backend::ReadAt>(store: &R) -> Result<Self> {
        let len = store.len();
        let mut sums = Vec::with_capacity(len.div_ceil(PAGE_BYTES).max(1) as usize);
        let mut buf = vec![0u8; PAGE_BYTES as usize];
        let mut off = 0u64;
        while off < len {
            let take = (len - off).min(PAGE_BYTES) as usize;
            store.read_at(off, &mut buf[..take])?;
            sums.push(Self::checksum(&buf[..take]));
            off += take as u64;
        }
        Ok(Self { sums, len })
    }

    /// Number of sealed pages.
    pub fn pages(&self) -> u64 {
        self.sums.len() as u64
    }

    /// Byte length of the sealed store.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the sealed store was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Verify one page's bytes against the sealed checksum. `bytes` must
    /// be the page's full (possibly short, for the last page) content.
    pub fn verify(&self, page: u64, bytes: &[u8]) -> Result<()> {
        let expected = *self.sums.get(page as usize).ok_or(Error::OutOfBounds {
            offset: page * PAGE_BYTES,
            len: bytes.len() as u64,
            size: self.len,
        })?;
        let actual = Self::checksum(bytes);
        if actual != expected {
            return Err(Error::ChecksumMismatch {
                page,
                expected,
                actual,
            });
        }
        Ok(())
    }

    /// Verify a page-aligned span (`buf` starting at byte offset
    /// `first_page * PAGE_BYTES`), page by page.
    pub fn verify_span(&self, first_page: u64, buf: &[u8]) -> Result<()> {
        for (i, chunk) in buf.chunks(PAGE_BYTES as usize).enumerate() {
            self.verify(first_page + i as u64, chunk)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_display_parse_round_trip() {
        let plan = FaultPlan {
            seed: 7,
            eio: 0.01,
            corrupt: 0.001,
            stall: 0.005,
            stall_us: 1500,
            wear_gb: 2.5,
            retries: 4,
            degrade: 0.1,
        };
        let text = plan.to_string();
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
    }

    #[test]
    fn plan_parse_partial_and_errors() {
        let p = FaultPlan::parse("seed=3,eio=0.2").unwrap();
        assert_eq!(p.seed, 3);
        assert_eq!(p.eio, 0.2);
        assert_eq!(p.retries, FaultPlan::default().retries);
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("eio").is_err());
        assert!(FaultPlan::parse("eio=1.5").is_err());
        assert!(FaultPlan::parse("eio=0.6,corrupt=0.6").is_err());
        assert!(FaultPlan::parse("").unwrap().is_noop());
    }

    #[test]
    fn draws_are_deterministic_and_offset_independent() {
        let plan = FaultPlan::parse("seed=11,eio=0.3,corrupt=0.1,stall=0.1").unwrap();
        let a = FaultState::new(plan.clone());
        let b = FaultState::new(plan);
        // Interleave offsets differently in the two states; per-offset
        // sequences must still agree.
        let offsets = [0u64, 4096, 8192, 4096, 0, 4096, 8192, 0];
        let mut seq_a: Vec<(u64, Option<FaultKind>)> = Vec::new();
        for &o in &offsets {
            seq_a.push((o, a.draw(o).kind));
        }
        let mut reordered = offsets;
        reordered.reverse();
        let mut seq_b: Vec<(u64, Option<FaultKind>)> = Vec::new();
        for &o in &reordered {
            seq_b.push((o, b.draw(o).kind));
        }
        // Compare per-offset sequences.
        for target in [0u64, 4096, 8192] {
            let sa: Vec<_> = seq_a.iter().filter(|(o, _)| *o == target).collect();
            let sb: Vec<_> = seq_b.iter().filter(|(o, _)| *o == target).collect();
            let kinds_a: Vec<_> = sa.iter().map(|(_, k)| k).collect();
            let mut kinds_b: Vec<_> = sb.iter().map(|(_, k)| k).collect();
            kinds_b.truncate(kinds_a.len());
            assert_eq!(kinds_a, kinds_b, "offset {target}");
        }
        assert!(a.snapshot().total() > 0);
    }

    #[test]
    fn zero_rates_never_inject() {
        let s = FaultState::new(FaultPlan::default());
        for o in 0..1000u64 {
            assert!(s.draw(o * 512).kind.is_none());
        }
        assert_eq!(s.snapshot(), FaultSnapshot::default());
    }

    #[test]
    fn rates_approximate_over_many_draws() {
        let plan = FaultPlan::parse("seed=5,eio=0.25").unwrap();
        let s = FaultState::new(plan);
        let n = 20_000u64;
        for o in 0..n {
            s.draw(o * 4096);
        }
        let eio = s.snapshot().eio as f64 / n as f64;
        assert!((eio - 0.25).abs() < 0.02, "observed eio rate {eio}");
    }

    #[test]
    fn corrupt_buffer_flips_exactly_one_bit() {
        let plan = FaultPlan::parse("seed=9,corrupt=1").unwrap();
        let s = FaultState::new(plan);
        let draw = s.draw(0);
        assert_eq!(draw.kind, Some(FaultKind::Corruption));
        let mut buf = vec![0u8; 4096];
        draw.corrupt_buffer(&mut buf);
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        // Same (seed, offset, k) would flip the same bit.
        let s2 = FaultState::new(FaultPlan::parse("seed=9,corrupt=1").unwrap());
        let mut buf2 = vec![0u8; 4096];
        s2.draw(0).corrupt_buffer(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn backoff_is_capped_jittered_and_bounded() {
        let policy = RetryPolicy {
            max_retries: 5,
            base: Duration::from_micros(100),
            cap: Duration::from_micros(800),
            deadline: Duration::from_millis(10),
        };
        let mut b = Backoff::new(policy, 42);
        let delays: Vec<Duration> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_eq!(delays.len(), 5);
        for (i, d) in delays.iter().enumerate() {
            let exp = policy.base.saturating_mul(1 << i).min(policy.cap);
            assert!(*d <= exp, "delay {i} over its exponential cap");
            assert!(*d >= exp.mul_f64(0.5), "delay {i} under the jitter floor");
        }
        let total: Duration = delays.iter().sum();
        assert!(total <= policy.deadline);
        // Deterministic for the same seed, different for another.
        let again: Vec<Duration> = std::iter::from_fn({
            let mut b = Backoff::new(policy, 42);
            move || b.next_delay()
        })
        .collect();
        assert_eq!(delays, again);
        let other: Vec<Duration> = std::iter::from_fn({
            let mut b = Backoff::new(policy, 43);
            move || b.next_delay()
        })
        .collect();
        assert_ne!(delays, other);
    }

    #[test]
    fn backoff_deadline_exhausts_early() {
        let policy = RetryPolicy {
            max_retries: 100,
            base: Duration::from_millis(4),
            cap: Duration::from_millis(4),
            deadline: Duration::from_millis(10),
        };
        let mut b = Backoff::new(policy, 1);
        let mut total = Duration::ZERO;
        let mut n = 0;
        while let Some(d) = b.next_delay() {
            total += d;
            n += 1;
        }
        assert!(total <= policy.deadline);
        assert!(n < 100, "deadline should cut the sequence short, got {n}");
    }

    #[test]
    fn retry_blocking_retries_then_succeeds() {
        let mut left = 3;
        let policy = RetryPolicy {
            base: Duration::from_micros(1),
            cap: Duration::from_micros(2),
            ..RetryPolicy::default()
        };
        let out: std::result::Result<u32, &str> = retry_blocking(
            policy,
            7,
            |_| true,
            || {
                if left > 0 {
                    left -= 1;
                    Err("busy")
                } else {
                    Ok(99)
                }
            },
        );
        assert_eq!(out, Ok(99));
    }

    #[test]
    fn retry_blocking_gives_up_and_skips_non_retryable() {
        let policy = RetryPolicy {
            max_retries: 2,
            base: Duration::from_micros(1),
            cap: Duration::from_micros(1),
            deadline: Duration::from_millis(1),
        };
        let out: std::result::Result<(), &str> = retry_blocking(policy, 7, |_| true, || Err("x"));
        assert_eq!(out, Err("x"));
        let mut calls = 0;
        let out: std::result::Result<(), &str> = retry_blocking(
            policy,
            7,
            |_| false,
            || {
                calls += 1;
                Err("fatal")
            },
        );
        assert_eq!(out, Err("fatal"));
        assert_eq!(calls, 1, "non-retryable errors must not be retried");
    }

    #[test]
    fn integrity_seals_and_verifies() {
        let mut data = vec![0u8; 3 * PAGE_BYTES as usize + 100];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 7 % 251) as u8;
        }
        let integrity = PageIntegrity::seal_bytes(&data);
        assert_eq!(integrity.pages(), 4);
        assert_eq!(integrity.len(), data.len() as u64);
        integrity.verify_span(0, &data).unwrap();
        // Last (short) page verifies on its own.
        integrity
            .verify(3, &data[3 * PAGE_BYTES as usize..])
            .unwrap();
        // One flipped bit anywhere is caught with the right page index.
        let mut torn = data.clone();
        torn[PAGE_BYTES as usize + 17] ^= 0x40;
        match integrity.verify_span(0, &torn) {
            Err(Error::ChecksumMismatch { page, .. }) => assert_eq!(page, 1),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn integrity_seal_store_matches_seal_bytes() {
        let data: Vec<u8> = (0..10_000).map(|i| (i % 256) as u8).collect();
        let from_bytes = PageIntegrity::seal_bytes(&data);
        let from_store =
            PageIntegrity::seal_store(&crate::backend::DramBackend::new(data)).unwrap();
        assert_eq!(from_bytes, from_store);
    }

    #[test]
    fn health_degrades_past_threshold_with_min_samples() {
        let h = DeviceHealth::new(0.1);
        for _ in 0..10 {
            h.record_request();
            h.record_error();
        }
        // 100% fault rate but under the sample floor: not degraded.
        assert!(!h.is_degraded());
        for _ in 0..HEALTH_MIN_SAMPLES {
            h.record_request();
        }
        // 10 faults / 74 requests ≈ 13.5% ≥ 10%: degraded.
        assert!(h.is_degraded());
        let healthy = DeviceHealth::new(0.5);
        for _ in 0..200 {
            healthy.record_request();
        }
        healthy.record_stall();
        assert!(!healthy.is_degraded());
    }
}
