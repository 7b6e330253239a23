//! Failure injection: corrupted BFS outputs must be rejected by the
//! Graph500 validator (Step 4 is adversarial — it assumes the kernel may
//! be wrong), and corrupted *storage* must be rejected by the read path's
//! page checksums — a torn page can fail the run, but it can never leak
//! into a wrong-but-valid BFS tree.

use sembfs::prelude::*;
use sembfs_graph500::validate::ValidationError;

/// A correct BFS tree on a real Kronecker instance to corrupt.
fn correct_run() -> (MemEdgeList, VertexId, Vec<VertexId>) {
    let edges = KroneckerParams::graph500(10, 31).generate();
    let data = ScenarioData::build(
        &edges,
        Scenario::DramOnly,
        ScenarioOptions {
            topology: Topology::new(2, 2),
            ..Default::default()
        },
    )
    .unwrap();
    let root = select_roots(data.csr().num_vertices(), 1, 13, |v| data.degree(v))[0];
    let run = data
        .run(root, &Scenario::DramOnly.best_policy(), &BfsConfig::paper())
        .unwrap();
    validate_bfs_tree(&run.parent, root, &edges).expect("uncorrupted tree is valid");
    (edges, root, run.parent)
}

#[test]
fn unmarking_root_parent_fails() {
    let (edges, root, mut parent) = correct_run();
    parent[root as usize] = INVALID_PARENT;
    assert!(matches!(
        validate_bfs_tree(&parent, root, &edges),
        Err(ValidationError::RootParentMismatch { .. })
    ));
}

#[test]
fn dropping_a_visited_vertex_fails() {
    let (edges, root, mut parent) = correct_run();
    // Remove some visited non-root vertex from the tree.
    let victim = (0..parent.len())
        .find(|&v| parent[v] != INVALID_PARENT && v as u32 != root)
        .unwrap();
    parent[victim] = INVALID_PARENT;
    let err = validate_bfs_tree(&parent, root, &edges).unwrap_err();
    assert!(
        matches!(
            err,
            ValidationError::EdgeCrossesFrontier { .. } | ValidationError::ParentUnvisited { .. }
        ),
        "got {err:?}"
    );
}

#[test]
fn rewiring_to_non_neighbor_fails() {
    let (edges, root, mut parent) = correct_run();
    // Point a visited vertex at a vertex that is (almost surely) not its
    // neighbor but is visited: search for such a pair.
    let adjacency: std::collections::HashSet<(u32, u32)> = edges
        .as_slice()
        .iter()
        .flat_map(|&(u, v)| [(u, v), (v, u)])
        .collect();
    let levels = sembfs_graph500::validate::compute_levels(&parent, root).unwrap();
    let mut injected = None;
    'outer: for v in 0..parent.len() as u32 {
        if v == root || parent[v as usize] == INVALID_PARENT {
            continue;
        }
        for cand in 0..parent.len() as u32 {
            if cand != v
                && parent[cand as usize] != INVALID_PARENT
                && levels[cand as usize] + 1 == levels[v as usize]
                && !adjacency.contains(&(cand, v))
            {
                parent[v as usize] = cand;
                injected = Some(v);
                break 'outer;
            }
        }
    }
    let v = injected.expect("found a rewiring candidate");
    assert_eq!(
        validate_bfs_tree(&parent, root, &edges),
        Err(ValidationError::PhantomTreeEdge { v })
    );
}

#[test]
fn creating_a_cycle_fails() {
    let (edges, root, mut parent) = correct_run();
    // Find a parent-child pair (p, v) with p != root and swap: p's parent
    // becomes v — a 2-cycle detached from the root.
    let (p, v) = (0..parent.len() as u32)
        .filter_map(|v| {
            let p = parent[v as usize];
            (p != INVALID_PARENT && v != root && p != root && p != v).then_some((p, v))
        })
        .next()
        .unwrap();
    parent[p as usize] = v;
    let err = validate_bfs_tree(&parent, root, &edges).unwrap_err();
    assert!(
        matches!(
            err,
            ValidationError::Cycle { .. } | ValidationError::LevelGap { .. }
        ),
        "got {err:?}"
    );
}

#[test]
fn level_skip_fails() {
    let (edges, root, mut parent) = correct_run();
    let levels = sembfs_graph500::validate::compute_levels(&parent, root).unwrap();
    // Reparent a level-2+ vertex onto a deeper vertex in its own subtree?
    // Simpler: attach a level-1 vertex under a level-2 vertex that is its
    // neighbor — then some graph edge (root, v) spans 2 levels.
    let adjacency: std::collections::HashSet<(u32, u32)> = edges
        .as_slice()
        .iter()
        .flat_map(|&(u, v)| [(u, v), (v, u)])
        .collect();
    let mut done = false;
    'outer: for v in 0..parent.len() as u32 {
        if levels[v as usize] != 1 {
            continue;
        }
        for w in 0..parent.len() as u32 {
            if levels[w as usize] == 2 && adjacency.contains(&(w, v)) {
                parent[v as usize] = w; // v now "level 3" via w
                done = true;
                break 'outer;
            }
        }
    }
    assert!(done, "graph has a level-1 vertex adjacent to level 2");
    assert!(validate_bfs_tree(&parent, root, &edges).is_err());
}

#[test]
fn torn_page_behind_the_store_is_a_checksum_error_never_a_wrong_tree() {
    // Build on an explicit data dir so the offloaded CSR files can be
    // corrupted *behind* the store, after checksum sealing — the model of
    // a torn write or silent media corruption at rest.
    let edges = KroneckerParams::graph500(10, 31).generate();
    let dir = sembfs::semext::TempDir::new("torn-page").unwrap();
    let build = || {
        ScenarioData::build(
            &edges,
            Scenario::DramPcieFlash,
            ScenarioOptions {
                topology: Topology::new(2, 2),
                data_dir: Some(dir.path().to_path_buf()),
                ..Default::default()
            },
        )
        .unwrap()
    };
    let data = build();
    let root = select_roots(data.csr().num_vertices(), 1, 13, |v| data.degree(v))[0];
    let policy = FixedPolicy(Direction::TopDown);
    let clean = data.run(root, &policy, &BfsConfig::paper()).unwrap();
    validate_bfs_tree(&clean.parent, root, &edges).unwrap();
    drop(data);

    // Rebuild (restoring + resealing the files), then tear one page of the
    // domain-0 adjacency values: flip a byte in the middle of page 2.
    let data = build();
    let victim = dir.path().join("fg-0.values");
    let mut bytes = std::fs::read(&victim).unwrap();
    assert!(bytes.len() > 3 * 4096, "values file spans several pages");
    let torn = 2 * 4096 + 123;
    bytes[torn] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    // A full adjacency scan must trip the per-page checksum — the torn
    // bytes are caught at fill, not served.
    let mut scan = Ok(());
    for v in 0..data.num_vertices() as u32 {
        if let Err(e) = data.run_rings(v, 1, &policy, &BfsConfig::paper()) {
            scan = Err(e);
            break;
        }
    }
    let err = scan.expect_err("the torn page must be detected by a full scan");
    assert!(
        matches!(err, sembfs::semext::Error::ChecksumMismatch { page: 2, .. }),
        "got {err:?}"
    );

    // BFS over the torn store: allowed to fail (typed), never allowed to
    // silently produce a different tree.
    match data.run(root, &policy, &BfsConfig::paper()) {
        Err(e) => assert!(
            matches!(e, sembfs::semext::Error::ChecksumMismatch { .. }),
            "got {e:?}"
        ),
        Ok(run) => {
            validate_bfs_tree(&run.parent, root, &edges).unwrap();
            assert_eq!(
                run.parent, clean.parent,
                "a run that avoided the torn page must match the clean tree"
            );
        }
    }
}

#[test]
fn swapping_two_subtree_parents_is_caught_or_valid() {
    // Swapping parents of two same-level vertices keeps levels intact and
    // both tree edges real only if the crossed edges exist; otherwise the
    // validator must complain. Either way it must not panic.
    let (edges, root, mut parent) = correct_run();
    let levels = sembfs_graph500::validate::compute_levels(&parent, root).unwrap();
    let same_level: Vec<u32> = (0..parent.len() as u32)
        .filter(|&v| levels[v as usize] == 2)
        .take(2)
        .collect();
    if same_level.len() == 2 {
        let [a, b] = [same_level[0], same_level[1]];
        parent.swap(a as usize, b as usize);
        let _ = validate_bfs_tree(&parent, root, &edges);
    }
}
