//! The benchmark's own spans, one around each call it makes into a
//! layer's public API: generation, CSR build, layout, engine start,
//! search, reference BFS, validation, and query submit and wait.
//!
//! Spans stay in memory. A traced run reads its per-layer set-up and
//! check times off them and prints their totals and self times.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats::ms;

/// One timed call, as offsets from the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// The span that was innermost open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Count, total and self time of the spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: usize,
    pub total: Duration,
    /// `total` minus the time child spans cover.
    pub self_time: Duration,
}

/// A span recorder. Calls are timed whether or not it records, because
/// untraced runs need set-up and search times too.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Time `f` as a span named `name`, nested under the innermost open
    /// span. Returns `f`'s output and its wall time.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, Duration) {
        let start = Instant::now();
        let id = self.record(name, start, start, self.current());
        self.open.extend(id);
        let out = f(self);
        let elapsed = start.elapsed();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].end = self.spans[id].start + elapsed;
        }
        (out, elapsed)
    }

    /// Record an interval timed elsewhere, such as on a client thread.
    /// Returns its index, or `None` while disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Durations of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.total += span.duration();
            t.self_time += span.duration().saturating_sub(covered(kids));
        }
        totals
    }

    /// The totals as a table, one span name per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<36} {:>8} {:>12} {:>12}\n",
            "span", "count", "total ms", "self ms"
        );
        for (name, t) in self.totals() {
            out.push_str(&format!(
                "{name:<36} {:>8} {:>12.3} {:>12.3}\n",
                t.count,
                ms(t.total),
                ms(t.self_time)
            ));
        }
        out
    }
}

/// Length of the union of `intervals`: children that ran on several
/// threads may overlap, and overlapping time counts once.
fn covered(intervals: &mut [(Duration, Duration)]) -> Duration {
    intervals.sort_unstable();
    let mut total = Duration::ZERO;
    let mut run: Option<(Duration, Duration)> = None;
    for &(start, end) in intervals.iter() {
        run = match run {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + run.map_or(Duration::ZERO, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_counting_overlap_once() {
        let mut spans = Spans::new(true);
        let t0 = spans.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let parent = spans.record("parent", at(0), at(100), None);
        spans.record("child", at(10), at(40), parent);
        spans.record("child", at(30), at(60), parent);
        spans.record("child", at(80), at(90), parent);
        let totals = spans.totals();
        assert_eq!(totals["parent"].total, Duration::from_millis(100));
        assert_eq!(totals["parent"].self_time, Duration::from_millis(40));
        assert_eq!(totals["child"].count, 3);
        assert_eq!(totals["child"].total, Duration::from_millis(70));
    }

    #[test]
    fn nested_calls_record_their_parent_only_while_enabled() {
        let mut spans = Spans::new(true);
        let (inner, _) = spans.time("outer", |s| s.time("inner", |_| 7).0);
        assert_eq!(inner, 7);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert!(spans.durations("outer")[0] >= spans.durations("inner")[0]);
        spans.set_enabled(false);
        spans.time("off", |_| ());
        assert!(spans.durations("off").is_empty());
        assert!(spans.open.is_empty());
    }
}
