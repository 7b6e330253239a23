//! Engine-level tests: concurrent submission must produce the same
//! answers as sequential execution, admission control must reject under
//! a tiny queue bound, and the result cache must short-circuit repeats.

use std::sync::Arc;

use sembfs_core::{Scenario, ScenarioData, ScenarioOptions};
use sembfs_graph500::rng::Xoshiro256;
use sembfs_graph500::KroneckerParams;
use sembfs_numa::Topology;
use sembfs_query::{
    EngineConfig, Query, QueryEngine, QueryError, QueryMix, QueryResult, ZipfSampler,
};

fn build(scenario: Scenario) -> Arc<ScenarioData> {
    let el = KroneckerParams::graph500(9, 8).generate();
    let opts = ScenarioOptions {
        topology: Topology::new(2, 2),
        page_cache_bytes: scenario.device_profile().is_some().then_some(2u64 << 20),
        ..Default::default()
    };
    Arc::new(ScenarioData::build(&el, scenario, opts).unwrap())
}

/// The highest-degree vertex: a whole-graph neighborhood from it is a
/// full BFS of the giant component.
fn hub(data: &ScenarioData) -> u32 {
    (0..data.num_vertices() as u32)
        .max_by_key(|&v| data.degree(v))
        .unwrap()
}

fn mixed_queries(data: &ScenarioData, count: usize) -> Vec<Query> {
    let sampler = ZipfSampler::from_degrees(data, 1.0, 256);
    let mix = QueryMix {
        distance: 0.05,
        ..QueryMix::default()
    };
    let mut rng = Xoshiro256::seed_from(1234, 0);
    (0..count).map(|_| mix.sample(&sampler, &mut rng)).collect()
}

#[test]
fn concurrent_answers_match_sequential() {
    let data = build(Scenario::DramPcieFlash);
    let queries = mixed_queries(&data, 48);

    // Sequential ground truth: one worker, no result cache, one at a time.
    let sequential = QueryEngine::new(
        data.clone(),
        EngineConfig {
            workers: 1,
            queue_capacity: 1,
            result_cache_entries: 0,
        },
    );
    let expected: Vec<QueryResult> = queries
        .iter()
        .map(|&q| sequential.run(q).unwrap().result)
        .collect();
    drop(sequential);

    // Concurrent: 4 workers, 4 submitting threads, cache still off so
    // every answer is a fresh computation.
    let engine = Arc::new(QueryEngine::new(
        data,
        EngineConfig {
            workers: 4,
            queue_capacity: 256,
            result_cache_entries: 0,
        },
    ));
    let results: Vec<(usize, QueryResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let engine = engine.clone();
                let queries = &queries;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (i, &q) in queries.iter().enumerate().skip(t).step_by(4) {
                        out.push((i, engine.run(q).unwrap().result));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(results.len(), queries.len());
    for (i, result) in results {
        assert_eq!(result, expected[i], "query {i} ({:?}) diverged", queries[i]);
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, queries.len() as u64);
    assert_eq!(stats.result_cache_hits, 0);
    assert!(stats.qps() > 0.0);
    assert!(stats.p99_latency >= stats.p50_latency);
    // The semi-external scenario's shared page cache saw traffic.
    assert!(stats.cache.unwrap().accesses() > 0);
}

#[test]
fn tiny_queue_bound_triggers_overloaded() {
    let data = build(Scenario::DramOnly);
    let engine = QueryEngine::new(
        data.clone(),
        EngineConfig {
            workers: 1,
            queue_capacity: 1,
            result_cache_entries: 0,
        },
    );
    // Whole-graph neighborhoods from the hub keep the single worker busy
    // for a full BFS each while submissions arrive in microseconds: the
    // one-slot queue must reject quickly.
    let hub = hub(&data);
    let mut tickets = Vec::new();
    let mut rejections = 0u64;
    for _ in 0..1000u32 {
        match engine.submit(Query::Neighborhood {
            v: hub,
            depth: u32::MAX,
        }) {
            Ok(t) => tickets.push(t),
            Err(QueryError::Overloaded { capacity }) => {
                assert_eq!(capacity, 1);
                rejections += 1;
                if rejections > 10 {
                    break;
                }
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        rejections > 0,
        "1000 instant submissions never overflowed a 1-slot queue"
    );
    // Accepted work still completes correctly.
    for t in tickets {
        assert!(matches!(
            t.wait().unwrap().result,
            QueryResult::Neighborhood { .. }
        ));
    }
    assert_eq!(engine.stats().rejected, rejections);
}

#[test]
fn result_cache_short_circuits_repeats() {
    let data = build(Scenario::DramPcieFlash);
    let engine = QueryEngine::new(data, EngineConfig::default());
    let query = Query::ShortestPath { src: 1, dst: 5 };
    let first = engine.run(query).unwrap();
    assert!(!first.cached);
    let repeat = engine.run(query).unwrap();
    assert!(repeat.cached, "repeat must be served from the result cache");
    assert_eq!(repeat.result, first.result);
    // The mirrored orientation hits the same canonical entry, reversed.
    let mirrored = engine.run(Query::ShortestPath { src: 5, dst: 1 }).unwrap();
    assert!(mirrored.cached);
    if let (QueryResult::Path { vertices: a, .. }, QueryResult::Path { vertices: b, .. }) =
        (&first.result, &mirrored.result)
    {
        let mut reversed = b.clone();
        reversed.reverse();
        assert_eq!(&reversed, a);
    }
    assert_eq!(engine.stats().result_cache_hits, 2);
}

#[test]
fn out_of_range_is_rejected_up_front() {
    let data = build(Scenario::DramOnly);
    let n = data.num_vertices();
    let engine = QueryEngine::new(data, EngineConfig::default());
    let err = engine
        .submit(Query::Reachable {
            src: 0,
            dst: n as u32,
        })
        .unwrap_err();
    assert_eq!(
        err,
        QueryError::OutOfRange {
            vertex: n as u32,
            num_vertices: n
        }
    );
}

#[test]
fn degraded_device_sheds_load_with_a_shrunken_queue() {
    let el = KroneckerParams::graph500(9, 8).generate();
    let opts = ScenarioOptions {
        topology: Topology::new(2, 2),
        // A live fault plan so the device carries a health monitor; the
        // rates themselves are irrelevant here — health is forced below.
        fault_plan: Some(sembfs_semext::FaultPlan::parse("eio=0.01,retries=10").unwrap()),
        ..Default::default()
    };
    let data = Arc::new(ScenarioData::build(&el, Scenario::DramSsd, opts).unwrap());
    let engine = QueryEngine::new(
        data.clone(),
        EngineConfig {
            workers: 1,
            queue_capacity: 64,
            result_cache_entries: 0,
        },
    );
    assert_eq!(engine.effective_queue_capacity(), 64);

    // Drive the health monitor past the degrade threshold by hand.
    let health = data.device().unwrap().faults().unwrap().health();
    for _ in 0..100 {
        health.record_request();
        health.record_error();
    }
    assert!(data.device().unwrap().is_degraded());
    assert_eq!(
        engine.effective_queue_capacity(),
        16,
        "degraded health must shrink admission to a quarter"
    );

    // The shrunken bound is what rejections report.
    let hub = hub(&data);
    let mut saw_shed = false;
    for _ in 0..1000u32 {
        match engine.submit(Query::Neighborhood {
            v: hub,
            depth: u32::MAX,
        }) {
            Ok(_) => {}
            Err(QueryError::Overloaded { capacity }) => {
                assert_eq!(capacity, 16);
                saw_shed = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(saw_shed, "a degraded 16-slot queue never overflowed");
}

#[test]
fn queries_answer_on_all_three_scenarios() {
    for sc in Scenario::ALL {
        let data = build(sc);
        let engine = QueryEngine::new(data, EngineConfig::default());
        let resp = engine.run(Query::Neighborhood { v: 0, depth: 2 }).unwrap();
        let QueryResult::Neighborhood { counts } = resp.result else {
            panic!("wrong result type");
        };
        assert_eq!(counts[0], 1, "{}", sc.label());
        let resp = engine.run(Query::Reachable { src: 0, dst: 1 }).unwrap();
        assert!(
            matches!(resp.result, QueryResult::Reachable(_)),
            "{}",
            sc.label()
        );
    }
}
