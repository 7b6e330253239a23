//! Trace sinks: JSONL export/import and the Chrome `trace_event` view.
//!
//! The JSONL format is one flat object per line:
//!
//! ```text
//! {"type":"level","t0":1200,"t1":531000,"tid":0,"level":1,"dir":"top-down",...}
//! ```
//!
//! `t0`/`t1` are span start/end in nanoseconds on the tracer epoch;
//! everything else is the [`TraceEvent`] payload. Unknown `type`s are
//! skipped on import (forward compatibility), malformed lines are errors.

use std::io::Write;
use std::path::Path;

use crate::json::{Json, JsonObj};
use crate::tracer::{Dir, FaultKind, QueryKind, Sample, TraceEvent};

/// Serialize one sample as a single JSONL line (no trailing newline).
pub fn sample_json(s: &Sample) -> String {
    let obj = JsonObj::new()
        .str("type", s.event.kind_str())
        .u64("t0", s.start_ns)
        .u64("t1", s.end_ns)
        .u64("tid", s.tid as u64);
    match s.event {
        TraceEvent::Run {
            root,
            visited,
            teps_edges,
            levels,
        } => obj
            .u64("root", root)
            .u64("visited", visited)
            .u64("teps_edges", teps_edges)
            .u64("levels", levels),
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
        } => obj
            .u64("level", level as u64)
            .str("dir", dir.as_str())
            .u64("frontier", frontier)
            .u64("discovered", discovered)
            .u64("scanned_edges", scanned_edges)
            .u64("nvm_edges", nvm_edges)
            .u64("io_requests", io_requests)
            .u64("io_bytes", io_bytes)
            .u64("io_response_ns", io_response_ns)
            .u64("io_wall_ns", io_wall_ns)
            .u64("cache_hits", cache_hits)
            .u64("cache_misses", cache_misses)
            .u64("cache_readahead_pages", cache_readahead_pages)
            .u64("cache_prefetch_unused", cache_prefetch_unused)
            .u64("threads", threads),
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
        } => obj
            .u64("level", level as u64)
            .str("from", from.as_str())
            .str("to", to.as_str())
            .u64("frontier", frontier)
            .u64("prev_frontier", prev_frontier)
            .u64("n_all", n_all)
            .u64("unvisited", unvisited)
            .f64("alpha", alpha)
            .f64("beta", beta),
        TraceEvent::Step { dir, scanned_edges } => obj
            .str("dir", dir.as_str())
            .u64("scanned_edges", scanned_edges),
        TraceEvent::NvmRead { bytes, requests } => {
            obj.u64("bytes", bytes).u64("requests", requests)
        }
        TraceEvent::CacheFill { pages } => obj.u64("pages", pages),
        TraceEvent::CacheEvict { pages } => obj.u64("pages", pages),
        TraceEvent::Query { kind, cached, ok } => obj
            .str("kind", kind.as_str())
            .bool("cached", cached)
            .bool("ok", ok),
        TraceEvent::FaultInjected { kind } => obj.str("kind", kind.as_str()),
        TraceEvent::Retry { attempt, delay_ns } => {
            obj.u64("attempt", attempt as u64).u64("delay_ns", delay_ns)
        }
        TraceEvent::Degraded { errors, requests } => {
            obj.u64("errors", errors).u64("requests", requests)
        }
    }
    .finish()
}

/// Write samples as JSONL to `path`.
pub fn write_jsonl(path: &Path, samples: &[Sample]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    for s in samples {
        writeln!(w, "{}", sample_json(s))?;
    }
    w.flush()
}

/// Parse JSONL text back into samples. Blank lines and unknown event
/// types are skipped; malformed lines fail with their line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        match parse_sample(&v) {
            Ok(Some(sample)) => out.push(sample),
            Ok(None) => {} // unknown type: forward compatibility
            Err(e) => return Err(format!("line {}: {e}", idx + 1)),
        }
    }
    Ok(out)
}

/// Read and parse a JSONL trace file.
pub fn read_jsonl(path: &Path) -> Result<Vec<Sample>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_jsonl(&text)
}

fn field_u64(v: &Json, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing numeric field '{name}'"))
}

fn field_f64(v: &Json, name: &str) -> Result<f64, String> {
    v.get(name)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field '{name}'"))
}

fn field_bool(v: &Json, name: &str) -> Result<bool, String> {
    v.get(name)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing boolean field '{name}'"))
}

fn field_dir(v: &Json, name: &str) -> Result<Dir, String> {
    v.get(name)
        .and_then(Json::as_str)
        .and_then(Dir::parse)
        .ok_or_else(|| format!("missing direction field '{name}'"))
}

fn parse_sample(v: &Json) -> Result<Option<Sample>, String> {
    let kind = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or("missing 'type'")?;
    let event = match kind {
        "run" => TraceEvent::Run {
            root: field_u64(v, "root")?,
            visited: field_u64(v, "visited")?,
            teps_edges: field_u64(v, "teps_edges")?,
            levels: field_u64(v, "levels")?,
        },
        "level" => TraceEvent::Level {
            level: field_u64(v, "level")? as u32,
            dir: field_dir(v, "dir")?,
            frontier: field_u64(v, "frontier")?,
            discovered: field_u64(v, "discovered")?,
            scanned_edges: field_u64(v, "scanned_edges")?,
            nvm_edges: field_u64(v, "nvm_edges")?,
            io_requests: field_u64(v, "io_requests")?,
            io_bytes: field_u64(v, "io_bytes")?,
            io_response_ns: field_u64(v, "io_response_ns")?,
            io_wall_ns: field_u64(v, "io_wall_ns")?,
            cache_hits: field_u64(v, "cache_hits")?,
            cache_misses: field_u64(v, "cache_misses")?,
            // Absent in traces written before prefetch accounting landed.
            cache_readahead_pages: field_u64(v, "cache_readahead_pages").unwrap_or(0),
            cache_prefetch_unused: field_u64(v, "cache_prefetch_unused").unwrap_or(0),
            // Absent in traces written before threading landed.
            threads: field_u64(v, "threads").unwrap_or(0),
        },
        "switch" => TraceEvent::Switch {
            level: field_u64(v, "level")? as u32,
            from: field_dir(v, "from")?,
            to: field_dir(v, "to")?,
            frontier: field_u64(v, "frontier")?,
            prev_frontier: field_u64(v, "prev_frontier")?,
            n_all: field_u64(v, "n_all")?,
            unvisited: field_u64(v, "unvisited")?,
            alpha: field_f64(v, "alpha")?,
            beta: field_f64(v, "beta")?,
        },
        "step" => TraceEvent::Step {
            dir: field_dir(v, "dir")?,
            scanned_edges: field_u64(v, "scanned_edges")?,
        },
        "nvm_read" => TraceEvent::NvmRead {
            bytes: field_u64(v, "bytes")?,
            requests: field_u64(v, "requests")?,
        },
        "cache_fill" => TraceEvent::CacheFill {
            pages: field_u64(v, "pages")?,
        },
        "cache_evict" => TraceEvent::CacheEvict {
            pages: field_u64(v, "pages")?,
        },
        "query" => TraceEvent::Query {
            kind: v
                .get("kind")
                .and_then(Json::as_str)
                .and_then(QueryKind::parse)
                .ok_or("missing query 'kind'")?,
            cached: field_bool(v, "cached")?,
            ok: field_bool(v, "ok")?,
        },
        "fault_injected" => TraceEvent::FaultInjected {
            kind: v
                .get("kind")
                .and_then(Json::as_str)
                .and_then(FaultKind::parse)
                .ok_or("missing fault 'kind'")?,
        },
        "retry" => TraceEvent::Retry {
            attempt: field_u64(v, "attempt")? as u32,
            delay_ns: field_u64(v, "delay_ns")?,
        },
        "degraded" => TraceEvent::Degraded {
            errors: field_u64(v, "errors")?,
            requests: field_u64(v, "requests")?,
        },
        _ => return Ok(None),
    };
    Ok(Some(Sample {
        start_ns: field_u64(v, "t0")?,
        end_ns: field_u64(v, "t1")?,
        tid: field_u64(v, "tid")? as u32,
        event,
    }))
}

/// Convert samples into one Chrome `trace_event` JSON document
/// (`chrome://tracing` / Perfetto "load legacy trace"). Spans become
/// complete (`ph:"X"`) events with microsecond timestamps; zero-length
/// samples become thread-scoped instants (`ph:"i"`).
pub fn chrome_trace(samples: &[Sample]) -> String {
    let mut events = Vec::with_capacity(samples.len());
    for s in samples {
        let name = chrome_name(&s.event);
        let ts = s.start_ns as f64 / 1000.0;
        let mut obj = JsonObj::new()
            .str("name", &name)
            .str("cat", "sembfs")
            .u64("pid", 1)
            .u64("tid", s.tid as u64)
            .f64("ts", ts);
        if s.end_ns > s.start_ns {
            obj = obj
                .str("ph", "X")
                .f64("dur", (s.end_ns - s.start_ns) as f64 / 1000.0);
        } else {
            obj = obj.str("ph", "i").str("s", "t");
        }
        // The payload rides along unmodified as `args`.
        events.push(obj.raw("args", &sample_json(s)).finish());
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

fn chrome_name(event: &TraceEvent) -> String {
    match event {
        TraceEvent::Run { root, .. } => format!("bfs run (root {root})"),
        TraceEvent::Level { level, dir, .. } => format!("level {level} {dir}"),
        TraceEvent::Switch { from, to, .. } => format!("switch {from}→{to}"),
        TraceEvent::Step { dir, .. } => format!("{dir} step"),
        TraceEvent::NvmRead { .. } => "nvm read".to_string(),
        TraceEvent::CacheFill { .. } => "cache fill".to_string(),
        TraceEvent::CacheEvict { .. } => "cache evict".to_string(),
        TraceEvent::Query { kind, .. } => format!("query {}", kind.as_str()),
        TraceEvent::FaultInjected { kind } => format!("fault {kind}"),
        TraceEvent::Retry { attempt, .. } => format!("retry #{attempt}"),
        TraceEvent::Degraded { .. } => "device degraded".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Sample> {
        vec![
            Sample {
                start_ns: 100,
                end_ns: 900,
                tid: 0,
                event: TraceEvent::Level {
                    level: 1,
                    dir: Dir::TopDown,
                    frontier: 1,
                    discovered: 11,
                    scanned_edges: 14,
                    nvm_edges: 14,
                    io_requests: 3,
                    io_bytes: 12288,
                    io_response_ns: 210_000,
                    io_wall_ns: 800,
                    cache_hits: 5,
                    cache_misses: 2,
                    cache_readahead_pages: 6,
                    cache_prefetch_unused: 1,
                    threads: 4,
                },
            },
            Sample {
                start_ns: 950,
                end_ns: 950,
                tid: 0,
                event: TraceEvent::Switch {
                    level: 2,
                    from: Dir::TopDown,
                    to: Dir::BottomUp,
                    frontier: 11,
                    prev_frontier: 1,
                    n_all: 256,
                    unvisited: 244,
                    alpha: 1e6,
                    beta: 1e6,
                },
            },
            Sample {
                start_ns: 120,
                end_ns: 300,
                tid: 2,
                event: TraceEvent::NvmRead {
                    bytes: 4096,
                    requests: 1,
                },
            },
            Sample {
                start_ns: 0,
                end_ns: 2000,
                tid: 0,
                event: TraceEvent::Run {
                    root: 42,
                    visited: 200,
                    teps_edges: 1234,
                    levels: 5,
                },
            },
            Sample {
                start_ns: 10,
                end_ns: 20,
                tid: 1,
                event: TraceEvent::Query {
                    kind: QueryKind::ShortestPath,
                    cached: false,
                    ok: true,
                },
            },
            Sample {
                start_ns: 130,
                end_ns: 130,
                tid: 2,
                event: TraceEvent::FaultInjected {
                    kind: FaultKind::TransientEio,
                },
            },
            Sample {
                start_ns: 131,
                end_ns: 231,
                tid: 2,
                event: TraceEvent::Retry {
                    attempt: 1,
                    delay_ns: 100,
                },
            },
            Sample {
                start_ns: 400,
                end_ns: 400,
                tid: 0,
                event: TraceEvent::Degraded {
                    errors: 9,
                    requests: 60,
                },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let original = samples();
        let text: String = original.iter().map(|s| sample_json(s) + "\n").collect();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn levels_without_prefetch_counters_decode_as_zero() {
        // A level line written before the readahead/prefetch counters
        // existed still parses, with both counters zero.
        let mut line = sample_json(&samples()[0]);
        for field in ["cache_readahead_pages", "cache_prefetch_unused"] {
            let start = line.find(&format!("\"{field}\"")).unwrap();
            let end = start + line[start..].find(',').unwrap() + 1;
            line.replace_range(start..end, "");
        }
        let parsed = parse_jsonl(&line).unwrap();
        match parsed[0].event {
            TraceEvent::Level {
                cache_readahead_pages,
                cache_prefetch_unused,
                cache_hits,
                ..
            } => {
                assert_eq!((cache_readahead_pages, cache_prefetch_unused), (0, 0));
                assert_eq!(cache_hits, 5);
            }
            other => panic!("expected a level, got {other:?}"),
        }
    }

    #[test]
    fn unknown_types_and_blank_lines_skipped() {
        let text = "\n{\"type\":\"future_thing\",\"t0\":1,\"t1\":2,\"tid\":0}\n\n";
        assert!(parse_jsonl(text).unwrap().is_empty());
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let err = parse_jsonl("{\"type\":\"run\",\"t0\":1}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("sembfs-obs-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let original = samples();
        write_jsonl(&path, &original).unwrap();
        let parsed = read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(parsed, original);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let doc = chrome_trace(&samples());
        let v = Json::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 8);
        // The level span: ph X, µs timestamps.
        let level = events
            .iter()
            .find(|e| {
                e.get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .starts_with("level")
            })
            .unwrap();
        assert_eq!(level.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(level.get("ts").unwrap().as_f64(), Some(0.1));
        assert_eq!(level.get("dur").unwrap().as_f64(), Some(0.8));
        // The switch instant: ph i.
        let sw = events
            .iter()
            .find(|e| {
                e.get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .starts_with("switch")
            })
            .unwrap();
        assert_eq!(sw.get("ph").unwrap().as_str(), Some("i"));
    }
}
