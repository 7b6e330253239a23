//! Point-to-point path queries against one shared semi-external graph.
//!
//! Builds a SCALE-14 Kronecker graph in each of the paper's three
//! scenarios, stands up a [`QueryEngine`] over it, and serves a small
//! mixed batch — shortest paths (validated against the serial reference
//! BFS), reachability probes, and a neighborhood census — then prints the
//! engine's aggregate report.
//!
//! Run with: `cargo run --release --example path_queries`

use std::sync::Arc;

use sembfs::prelude::*;
use sembfs::semext::{retry_blocking, RetryPolicy};

/// Submit through the shared capped-backoff helper: a momentarily full
/// queue (`Overloaded`) is retried with jittered exponential backoff
/// instead of failing the example outright.
fn run_with_backoff(
    engine: &QueryEngine,
    query: Query,
    seed: u64,
) -> Result<sembfs::query::Response, QueryError> {
    retry_blocking(
        RetryPolicy::default(),
        seed,
        |e| matches!(e, QueryError::Overloaded { .. }),
        || engine.run(query),
    )
}

fn main() {
    let scale = 14;
    let params = KroneckerParams::graph500(scale, 7);
    let edges = params.generate();

    for scenario in Scenario::ALL {
        let opts = ScenarioOptions {
            delay_mode: DelayMode::Throttled,
            // NVM scenarios: an 8 MiB page cache shared by all workers.
            page_cache_bytes: scenario.device_profile().map(|_| 8u64 << 20),
            ..Default::default()
        };
        let data = Arc::new(ScenarioData::build(&edges, scenario, opts).expect("build"));
        let engine = QueryEngine::new(
            data.clone(),
            EngineConfig {
                workers: 4,
                ..Default::default()
            },
        );
        println!("=== {} ===", scenario.label());

        // Degree-picked endpoint pairs, like the Graph500 root selector.
        let picks = select_roots(params.num_vertices(), 6, 7, |v| data.degree(v));
        for pair in picks.chunks(2) {
            let (src, dst) = (pair[0], pair[1]);
            let resp = run_with_backoff(&engine, Query::ShortestPath { src, dst }, src as u64)
                .expect("path query");
            match resp.result {
                QueryResult::Path { distance, vertices } => {
                    // Validate against the serial reference BFS.
                    let reference = sembfs::core::reference_bfs(data.csr(), src);
                    let levels = sembfs::graph500::validate::compute_levels(&reference.parent, src)
                        .expect("valid tree");
                    assert_eq!(levels[dst as usize], distance, "distance mismatch");
                    println!(
                        "  path {src} → {dst}: {distance} hops {vertices:?} ({:?}, validated)",
                        resp.latency
                    );
                }
                QueryResult::NoPath => println!("  path {src} → {dst}: unreachable"),
                other => unreachable!("{other:?}"),
            }
            let resp =
                run_with_backoff(&engine, Query::Reachable { src: dst, dst: src }, dst as u64)
                    .expect("reachability query");
            println!("  reachable {dst} → {src}: {:?}", resp.result);
        }
        let resp = run_with_backoff(
            &engine,
            Query::Neighborhood {
                v: picks[0],
                depth: 3,
            },
            0,
        )
        .expect("neighborhood query");
        if let QueryResult::Neighborhood { counts } = resp.result {
            println!("  neighborhood of {}: ring sizes {counts:?}", picks[0]);
        }

        println!("{}\n", engine.stats().report());
    }
}
