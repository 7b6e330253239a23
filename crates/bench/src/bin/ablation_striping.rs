//! Ablation (DESIGN.md §7.5): striping the forward graph across multiple
//! simulated devices.
//!
//! The paper's future work asks for "performance studies on various NVM
//! devices"; its own testbed already isolates the edge list from the CSR
//! files. Here the forward graph's value files are striped RAID-0 style
//! over 1, 2, or 4 ioDrive2 models and the same pure-top-down scan (the
//! device-bound phase) is timed.

use std::sync::Arc;

use sembfs_bench::{BenchEnv, Table};
use sembfs_core::tree::new_parent_array;
use sembfs_core::{par_top_down_step, AtomicBitmap};
use sembfs_csr::{
    build_csr, write_forward_files, BuildOptions, DramForwardGraph, ExtForwardGraph, NeighborCtx,
};
use sembfs_graph500::select_roots;
use sembfs_numa::RangePartition;
use sembfs_semext::ext_csr::ExtCsr;
use sembfs_semext::{
    ChunkedReader, DelayMode, Device, DeviceProfile, DramBackend, NvmStore, StripedStore, TempDir,
};

type Striped = StripedStore<NvmStore<DramBackend>>;

fn main() {
    let env = BenchEnv::from_env();
    env.print_header(
        "Ablation: forward graph striped over multiple devices",
        "extension of §VI-D's device isolation (not measured in the paper)",
    );
    let edges = env.generate();
    let csr = build_csr(&edges, BuildOptions::default()).expect("csr");
    let part = RangePartition::new(csr.num_vertices(), env.topology.domains());
    let fg_dram = DramForwardGraph::from_csr(&csr, &part);
    let dir = TempDir::new("striping").expect("tempdir");
    let paths = write_forward_files(&csr, &part, dir.path()).expect("offload");

    let root = select_roots(csr.num_vertices(), 1, env.seed, |v| csr.degree(v))[0];
    // One full frontier expansion from the hub level: dominated by device
    // reads, the phase striping accelerates.
    let frontier = {
        let parent = new_parent_array(csr.num_vertices(), root);
        let visited = AtomicBitmap::new(csr.num_vertices());
        visited.set(root);
        par_top_down_step(
            &fg_dram,
            &[root],
            &parent,
            &visited,
            64,
            1,
            &NeighborCtx::dram,
            None,
        )
        .expect("expand")
        .next
    };

    let mut table = Table::new(&["devices", "elapsed ms", "requests/device", "speedup x"]);
    let mut base_ms = None;
    for num_devices in [1usize, 2, 4] {
        let devices: Vec<Arc<Device>> = (0..num_devices)
            .map(|_| {
                Device::new(
                    DeviceProfile::iodrive2().scaled(env.device_scale),
                    DelayMode::Throttled,
                )
            })
            .collect();
        // Stripe each per-domain file image over the device set.
        let stripe = 4096u64;
        let mk_striped = |path: &std::path::Path| -> Striped {
            let bytes = std::fs::read(path).expect("read image");
            let images = sembfs_semext::striped::split_striped(&bytes, num_devices, 4096);
            StripedStore::new(
                images
                    .into_iter()
                    .zip(devices.iter().cycle())
                    .map(|(img, dev)| NvmStore::new(DramBackend::new(img), dev.clone()))
                    .collect(),
                stripe,
            )
        };
        let ext: ExtForwardGraph<Striped> = ExtForwardGraph::new(
            paths
                .iter()
                .map(|(ip, vp)| ExtCsr::new(mk_striped(ip), mk_striped(vp)).expect("csr"))
                .collect(),
            part.clone(),
        );

        let parent = new_parent_array(csr.num_vertices(), root);
        let visited = AtomicBitmap::new(csr.num_vertices());
        visited.set(root);
        for &v in &frontier {
            visited.set(v);
        }
        let reader = ChunkedReader::new(16 * 1024);
        let t0 = std::time::Instant::now();
        par_top_down_step(
            &ext,
            &frontier,
            &parent,
            &visited,
            64,
            1,
            &move || NeighborCtx::new(reader),
            None,
        )
        .expect("striped expand");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let base = *base_ms.get_or_insert(ms);
        let reqs: u64 = devices.iter().map(|d| d.snapshot().requests).sum();
        table.row(&[
            num_devices.to_string(),
            format!("{ms:.2}"),
            format!("{}", reqs / num_devices as u64),
            format!("{:.2}", base / ms),
        ]);
    }
    table.print();
    println!(
        "\nnote: on a single-core host request *service* is striped but the caller \
         still waits serially, so speedups reflect queueing relief only"
    );
}
