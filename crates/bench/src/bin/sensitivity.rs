//! §7.2 sensitivity study: how the benefit changes with interconnect
//! performance.
//!
//! The paper: "For systems that employ interconnects with low performance
//! and therefore have very long data communication time that cannot be
//! covered by the concurrent computation, the benefits of the proposed
//! technique will be reduced." This sweep scales the per-link bandwidth
//! from generous to starved and reports, for one GPT layer, the baseline
//! communication share, how many patterns the §5.5 gate still accepts,
//! and the resulting speedup.

use overlap_bench::{artifact_cache, or_exit, par_map, report_cache, write_json};
use overlap_core::{OverlapOptions, OverlapPipeline};
use overlap_json::json_record;
use overlap_mesh::Machine;
use overlap_models::find_model;
use overlap_sim::Simulation;

struct Row {
    bandwidth_gbps: f64,
    baseline_comm_fraction: f64,
    patterns_decomposed: usize,
    speedup: f64,
}

json_record!(encode Row { bandwidth_gbps, baseline_comm_fraction, patterns_decomposed, speedup });

fn main() {
    let cfg = or_exit(
        find_model("GPT_256B").ok_or("GPT_256B missing from the model zoo"),
        "find the sensitivity workload",
    );
    let module = cfg.layer_module();
    println!("Section 7.2: interconnect sensitivity ({} layer, {} chips)\n", cfg.name, cfg.chips);
    println!(
        "{:>10} {:>12} {:>12} {:>10}",
        "GB/s/link", "base comm%", "decomposed", "speedup"
    );
    let sweep = [180.0, 90.0, 45.0, 22.5, 11.25, 5.6];
    let rows = par_map(&sweep, |&gbps| {
        let machine = cfg.machine().with_link_bandwidth(gbps * 1e9);
        let baseline = or_exit(Simulation::new(&module, &machine).run(), "simulate the baseline");
        // Each bandwidth point is a distinct machine fingerprint (a cold
        // compile), but re-runs of the sweep hit the disk tier.
        let compiled = or_exit(
            OverlapPipeline::new(OverlapOptions::paper_default())
                .compile_cached(&module, &machine, artifact_cache()),
            "compile the sweep point",
        );
        let over = or_exit(compiled.simulation(&machine).run(), "simulate the overlapped schedule");
        Row {
            bandwidth_gbps: gbps,
            baseline_comm_fraction: baseline.comm_fraction(),
            patterns_decomposed: compiled.summaries.len(),
            speedup: baseline.makespan() / over.makespan(),
        }
    });
    for row in &rows {
        println!(
            "{:>10.1} {:>11.1}% {:>9}/12 {:>9.2}x",
            row.bandwidth_gbps,
            100.0 * row.baseline_comm_fraction,
            row.patterns_decomposed,
            row.speedup
        );
    }
    println!(
        "\nThe benefit peaks where communication is large but still hideable; on a\n\
         starved interconnect the ring can no longer be covered by the concurrent\n\
         computation and the speedup shrinks back toward 1.0 — the §7.2 prediction."
    );

    // §7.2 also claims the idea carries to NVLink-class GPU clusters.
    let gpu = Machine::gpu_cluster_like(cfg.chips);
    let baseline = or_exit(Simulation::new(&module, &gpu).run(), "simulate the GPU baseline");
    let compiled = or_exit(
        OverlapPipeline::new(OverlapOptions::paper_default())
            .compile_cached(&module, &gpu, artifact_cache()),
        "compile for the GPU cluster",
    );
    let over = or_exit(compiled.simulation(&gpu).run(), "simulate the GPU overlapped schedule");
    println!(
        "\nGPU-cluster preset ({} chips): baseline comm {:.1}%, speedup {:.2}x",
        cfg.chips,
        100.0 * baseline.comm_fraction(),
        baseline.makespan() / over.makespan()
    );
    write_json("sensitivity", &rows);
    report_cache(artifact_cache());
}
