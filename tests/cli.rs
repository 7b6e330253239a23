//! End-to-end tests of the `sembfs` command-line binary.

use std::process::Command;

fn sembfs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sembfs"))
}

#[test]
fn info_prints_table2_rows() {
    let out = sembfs().args(["info", "--scale", "10"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("SCALE 10: 1024 vertices, 16384 edges"),
        "{text}"
    );
    for key in ["forward graph", "backward graph", "status data", "total"] {
        assert!(text.contains(key), "missing {key} in:\n{text}");
    }
}

#[test]
fn bfs_reports_official_statistics() {
    let out = sembfs()
        .args([
            "bfs",
            "--scale",
            "10",
            "--scenario",
            "flash",
            "--roots",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("DRAM+PCIeFlash"), "{text}");
    assert!(text.contains("median_TEPS"), "{text}");
    assert!(text.contains("score (median):"), "{text}");
}

#[test]
fn generate_writes_a_loadable_edge_file() {
    let dir = sembfs_semext::TempDir::new("cli-gen").unwrap();
    let path = dir.path().join("edges.bin");
    let out = sembfs()
        .args(["generate", "--scale", "9", "--seed", "7", "--out"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    // 2^9 * 16 edges * 8 bytes.
    assert_eq!(std::fs::metadata(&path).unwrap().len(), 512 * 16 * 8);
    // And it matches in-memory generation.
    let ext = sembfs_graph500::ExtEdgeList::open(&path, 512).unwrap();
    let mem = sembfs_graph500::KroneckerParams::graph500(9, 7).generate();
    use sembfs_graph500::EdgeList;
    assert_eq!(ext.num_edges(), mem.num_edges());
}

#[test]
fn sweep_prints_the_grid() {
    let out = sembfs()
        .args(["sweep", "--scale", "9", "--roots", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("alpha"), "{text}");
    // Five α rows.
    assert!(text.matches("e2").count() + text.matches("1e2").count() > 0);
}

#[test]
fn query_validates_and_reports() {
    let out = sembfs()
        .args([
            "query",
            "--scale",
            "10",
            "--scenario",
            "flash",
            "--pairs",
            "2",
            "--workers",
            "2",
            "--cache-mb",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // Every pair is cross-checked against the reference BFS in-process.
    assert!(text.contains("validated"), "{text}");
    assert!(text.contains("completed"), "{text}");
    assert!(text.contains("p99"), "{text}");
}

#[test]
fn serve_sim_runs_the_closed_loop() {
    let out = sembfs()
        .args([
            "serve-sim",
            "--scale",
            "10",
            "--scenario",
            "ssd",
            "--clients",
            "3",
            "--workers",
            "2",
            "--requests",
            "10",
            "--cache-mb",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("DRAM+SSD"), "{text}");
    // 3 clients × 10 requests all complete.
    assert!(text.contains("completed 30 ("), "{text}");
}

#[test]
fn unknown_scenario_is_rejected() {
    for cmd in ["bfs", "serve-sim"] {
        let out = sembfs()
            .args([cmd, "--scale", "8", "--scenario", "flahs"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("dram|flash|ssd"), "{cmd}: {err}");
    }
}

#[test]
fn unknown_command_prints_usage() {
    let out = sembfs().arg("frobnicate").output().unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage: sembfs"), "{err}");
}
