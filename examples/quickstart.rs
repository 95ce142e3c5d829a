//! Quickstart: decompose one `AllGather → Einsum` pair and watch the
//! transfer disappear behind the computation.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use overlap::core::{OverlapOptions, OverlapPipeline};
use overlap::hlo::{Builder, DType, DotDims, ReplicaGroups, Shape};
use overlap::mesh::{DeviceMesh, Machine};
use overlap::sim::Simulation;

fn main() {
    // Four devices in a ring; an [8192, 4096] activation multiplies a
    // [4096, 4096] weight whose shards live one per device (Fig. 2's
    // weight-gather pattern).
    let n = 4;
    let mut b = Builder::new("quickstart", n);
    let x = b.parameter(Shape::new(DType::BF16, vec![8192, 4096]), "activation");
    let w = b.parameter(Shape::new(DType::BF16, vec![4096, 4096 / n]), "weight_shard");
    let w_full = b.all_gather(w, 1, ReplicaGroups::full(n), "weight");
    let y = b.einsum(x, w_full, DotDims::matmul(), "y");
    let module = b.build(vec![y]);

    let machine = Machine::with_mesh(DeviceMesh::ring(n));

    // Baseline: the AllGather blocks, the einsum waits.
    let baseline = Simulation::new(&module, &machine).run().expect("baseline simulation");
    println!("baseline   : {:>8.3} ms", baseline.makespan() * 1e3);
    println!("{}\n", baseline.timeline().render(76));

    // Overlapped: looped collective-einsum + async permutes + scheduling.
    let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("pipeline");
    let overlapped = compiled.simulation(&machine).run().expect("simulation");
    println!("overlapped : {:>8.3} ms", overlapped.makespan() * 1e3);
    println!("{}\n", overlapped.timeline().render(76));

    for s in &compiled.summaries {
        println!(
            "decomposed {}: ring of {} partitions, {} partial einsums, {} permutes{}",
            s.einsum,
            s.group_size,
            s.partial_einsums,
            s.permutes,
            if s.bidirectional { ", bidirectional" } else { "" },
        );
    }
    println!(
        "\nspeedup: {:.2}x  (communication hidden: {:.1}%)",
        baseline.makespan() / overlapped.makespan(),
        100.0 * overlapped.hidden_async_time()
            / (overlapped.hidden_async_time() + overlapped.exposed_async_time()).max(1e-12),
    );
}
