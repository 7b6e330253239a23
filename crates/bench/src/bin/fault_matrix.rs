//! Robustness exhibit: the fault-rate × scenario matrix.
//!
//! Sweeps deterministic device-fault rates (transient EIO, checksummed
//! corruption, latency stalls) over both NVM scenarios and verifies the
//! central resilience claim: whenever the retry budget can absorb the
//! injected faults, the BFS parent tree is **bit-identical** to the
//! fault-free run — faults cost time, never answers. Runs that exhaust
//! the budget fail *typed* (`RetriesExhausted`/`ChecksumMismatch`) and
//! are reported, never silently wrong.
//!
//! The run is forced pure top-down so every expansion reads the device —
//! the worst case for fault exposure; the direction-optimizing policy
//! would hide most of the traffic in DRAM bottom-up.
//!
//! The bottom table measures the *price* of the resilient read path with
//! no faults firing: checksum sealing + per-fill verification + the fault
//! routing check, versus the bare store. Acceptance: ≤ 5% at zero rate.
//!
//! `fault_matrix --smoke` prints one deterministic counter line per
//! scenario (used by CI: two identical invocations must emit identical
//! lines).

use std::time::Instant;

use sembfs_bench::{mteps, BenchEnv, Table};
use sembfs_core::{BfsConfig, BfsRun, Direction, FixedPolicy, Scenario, ScenarioData};
use sembfs_graph500::VertexId;
use sembfs_semext::FaultPlan;

const SCENARIOS: [Scenario; 2] = [Scenario::DramPcieFlash, Scenario::DramSsd];

fn spec_for(rate: f64) -> String {
    format!(
        "seed=7,eio={rate},corrupt={},stall={},stall_us=100,retries=12",
        rate / 2.0,
        rate / 2.0
    )
}

/// Run every root top-down; `Ok` runs must match `clean` bit-exactly.
/// Returns (completed runs, exhausted count).
fn run_all(
    data: &ScenarioData,
    roots: &[VertexId],
    clean: Option<&[BfsRun]>,
) -> (Vec<BfsRun>, u64) {
    let policy = FixedPolicy(Direction::TopDown);
    let mut runs = Vec::new();
    let mut exhausted = 0u64;
    for (i, &root) in roots.iter().enumerate() {
        match data.run(root, &policy, &BfsConfig::paper()) {
            Ok(run) => {
                if let Some(clean) = clean {
                    assert_eq!(
                        run.parent, clean[i].parent,
                        "faulted run from root {root} diverged from the fault-free tree"
                    );
                }
                runs.push(run);
            }
            Err(sembfs_semext::Error::RetriesExhausted { .. })
            | Err(sembfs_semext::Error::ChecksumMismatch { .. }) => exhausted += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    (runs, exhausted)
}

fn median_teps(runs: &[BfsRun]) -> f64 {
    let mut teps: Vec<f64> = runs.iter().map(BfsRun::teps).collect();
    teps.sort_by(|a, b| a.partial_cmp(b).expect("finite TEPS"));
    if teps.is_empty() {
        0.0
    } else {
        teps[teps.len() / 2]
    }
}

fn smoke(env: &BenchEnv) {
    // Deterministic counters on the uncached pread path (no page cache):
    // the fault sequence is a pure function of (plan seed, offsets read).
    for scenario in SCENARIOS {
        let edges = env.generate();
        let mut opts = env.accounting_options();
        opts.fault_plan = Some(FaultPlan::parse(&spec_for(0.04)).expect("smoke plan"));
        let data = env.build(&edges, scenario, opts);
        let roots = env.roots(&data);
        let (runs, exhausted) = run_all(&data, &roots, None);
        let s = data
            .device()
            .expect("NVM scenario")
            .faults()
            .expect("plan")
            .snapshot();
        println!(
            "smoke {}: eio={} corrupt={} stall={} retries={} checksum={} completed={} exhausted={}",
            scenario.label(),
            s.eio,
            s.corrupt,
            s.stall,
            s.retries,
            s.checksum_failures,
            runs.len(),
            exhausted
        );
    }
}

fn main() {
    let env = BenchEnv::from_env();
    if std::env::args().any(|a| a == "--smoke") {
        smoke(&env);
        return;
    }
    env.print_header(
        "Robustness: fault-rate x scenario matrix (pure top-down)",
        "no paper counterpart - the device model learns to fail",
    );
    let edges = env.generate();

    let mut table = Table::new(&[
        "scenario",
        "rate",
        "median MTEPS",
        "vs clean %",
        "eio",
        "corrupt",
        "stall",
        "retries",
        "exhausted",
    ]);
    for scenario in SCENARIOS {
        let clean_data = env.build(&edges, scenario, env.measured_options());
        let roots = env.roots(&clean_data);
        let (clean, _) = run_all(&clean_data, &roots, None);
        let clean_teps = median_teps(&clean);
        drop(clean_data);

        for rate in [0.0, 0.001, 0.01, 0.05] {
            let mut opts = env.measured_options();
            opts.fault_plan = Some(FaultPlan::parse(&spec_for(rate)).expect("plan"));
            let data = env.build(&edges, scenario, opts);
            let (runs, exhausted) = run_all(&data, &roots, Some(&clean));
            let teps = median_teps(&runs);
            let snap = data
                .device()
                .expect("NVM scenario")
                .faults()
                .map(|f| f.snapshot())
                .unwrap_or_default();
            table.row(&[
                scenario.label().into(),
                format!("{rate}"),
                mteps(teps),
                format!("{:+.1}", (teps / clean_teps - 1.0) * 100.0),
                snap.eio.to_string(),
                snap.corrupt.to_string(),
                snap.stall.to_string(),
                snap.retries.to_string(),
                exhausted.to_string(),
            ]);
        }
    }
    table.print();
    println!(
        "\nevery completed faulted run above was asserted bit-identical to its \
         fault-free tree; 'exhausted' runs failed typed, never silently"
    );

    // The zero-fault price of resilience: bare store vs sealed checksums +
    // per-fill verification + fault routing, nothing firing.
    println!();
    let mut table = Table::new(&["scenario", "bare s", "resilient s", "overhead %"]);
    for scenario in SCENARIOS {
        let mut bare_opts = env.measured_options();
        bare_opts.verify_pages = false;
        let bare = env.build(&edges, scenario, bare_opts);
        let roots = env.roots(&bare);
        let t0 = Instant::now();
        let _ = run_all(&bare, &roots, None);
        let bare_s = t0.elapsed().as_secs_f64();
        drop(bare);

        let mut res_opts = env.measured_options();
        res_opts.fault_plan = Some(FaultPlan::parse("seed=7").expect("noop plan"));
        let resilient = env.build(&edges, scenario, res_opts);
        let t0 = Instant::now();
        let _ = run_all(&resilient, &roots, None);
        let res_s = t0.elapsed().as_secs_f64();

        table.row(&[
            scenario.label().into(),
            format!("{bare_s:.3}"),
            format!("{res_s:.3}"),
            format!("{:+.1}", (res_s / bare_s - 1.0) * 100.0),
        ]);
    }
    table.print();
    println!("\nacceptance: resilient overhead at zero fault rate stays within ~5%");
}
