//! Inspect what the compiler pipeline does to a module: instruction
//! statistics before/after decomposition, peak-memory profile of the
//! schedule, a GraphViz dump and a Chrome-tracing timeline.
//!
//! ```sh
//! cargo run --release --example inspect_module
//! # then open /tmp/overlap_module.dot with graphviz and
//! # /tmp/overlap_trace.json with https://ui.perfetto.dev
//! ```

use overlap::core::{OverlapOptions, OverlapPipeline};
use overlap::hlo::{module_stats, to_dot, Builder, DType, DotDims, ReplicaGroups, Shape};
use overlap::mesh::{DeviceMesh, Machine};
use overlap::sim::memory_profile;

fn main() {
    let n = 4;
    let mut b = Builder::new("inspect", n);
    let x = b.parameter(Shape::new(DType::BF16, vec![4096, 4096]), "x");
    let w = b.parameter(Shape::new(DType::BF16, vec![4096, 4096 / n]), "w_shard");
    let wg = b.all_gather(w, 1, ReplicaGroups::full(n), "w");
    let y = b.einsum(x, wg, DotDims::matmul(), "y");
    let module = b.build(vec![y]);

    let before = module_stats(&module);
    println!("before: {} live instructions, {:.1} GFLOP, {:.1} MB of collective operands",
        before.live,
        before.einsum_flops as f64 / 1e9,
        before.collective_bytes as f64 / 1e6);

    let machine = Machine::with_mesh(DeviceMesh::ring(n));
    let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("pipeline");

    let after = module_stats(&compiled.module);
    println!("after:  {} live instructions; op mix:", after.live);
    for (op, count) in &after.op_counts {
        println!("    {op:<26} {count}");
    }

    let baseline_mem = memory_profile(&module, &module.arena_order());
    let sched_mem = memory_profile(&compiled.module, &compiled.order);
    println!(
        "\npeak live bytes: baseline {:.1} MB -> scheduled {:.1} MB",
        baseline_mem.peak_bytes as f64 / 1e6,
        sched_mem.peak_bytes as f64 / 1e6
    );

    let report = compiled.simulation(&machine).run().expect("simulate");
    println!("\nsimulated timeline ({:.3} ms):", report.makespan() * 1e3);
    println!("{}", report.timeline().render(76));

    std::fs::write("/tmp/overlap_module.dot", to_dot(&compiled.module))
        .expect("write dot file");
    std::fs::write("/tmp/overlap_trace.json", report.timeline().to_chrome_trace())
        .expect("write trace file");
    println!("\nwrote /tmp/overlap_module.dot and /tmp/overlap_trace.json");
}
