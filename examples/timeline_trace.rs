//! Recreates the illustrative timelines of Figs. 4 and 5: the 2-way
//! `AllGather → Einsum` and `Einsum → ReduceScatter` examples, original
//! vs. overlapped.
//!
//! ```sh
//! cargo run --release --example timeline_trace
//! ```

use overlap::core::{OverlapOptions, OverlapPipeline};
use overlap::hlo::{Builder, DType, DotDims, Module, ReplicaGroups, Shape};
use overlap::mesh::{DeviceMesh, Machine};
use overlap::sim::Simulation;

fn show(title: &str, module: &Module, machine: &Machine) {
    println!("==== {title} ====");
    let baseline = Simulation::new(module, machine).run().expect("baseline");
    println!("original   ({:.3} ms):", baseline.makespan() * 1e3);
    println!("{}", baseline.timeline().render(72));
    // Figs. 4/5 show the plain unidirectional loop.
    let compiled = OverlapPipeline::new(OverlapOptions::with_strategy(
        overlap::core::StrategySpec::paper_default()
            .with_ring(overlap::core::RingDirection::Unidirectional),
    ))
    .run(module, machine)
    .expect("pipeline");
    let overlapped = compiled.simulation(machine).run().expect("simulate");
    println!("overlapped ({:.3} ms):", overlapped.makespan() * 1e3);
    println!("{}", overlapped.timeline().render(72));
    println!(
        "speedup {:.2}x\n",
        baseline.makespan() / overlapped.makespan()
    );
}

fn main() {
    let n = 2;
    let machine = Machine::with_mesh(DeviceMesh::ring(n));

    // Fig. 4: AllGather(A) -> Einsum(A, B).
    let ag_einsum = {
        let mut b = Builder::new("fig4", n);
        let a_shard = b.parameter(Shape::new(DType::BF16, vec![2048, 4096]), "A_shard");
        let bb = b.parameter(Shape::new(DType::BF16, vec![4096, 4096]), "B");
        let a = b.all_gather(a_shard, 0, ReplicaGroups::full(n), "A");
        let c = b.einsum(a, bb, DotDims::matmul(), "C");
        b.build(vec![c])
    };
    show("Fig. 4: AllGather -> Einsum (2-way)", &ag_einsum, &machine);

    // Fig. 5: Einsum(A, B) -> ReduceScatter(C).
    let einsum_rs = {
        let mut b = Builder::new("fig5", n);
        let a = b.parameter(Shape::new(DType::BF16, vec![4096, 4096]), "A");
        let bb = b.parameter(Shape::new(DType::BF16, vec![4096, 4096]), "B");
        let c = b.einsum(a, bb, DotDims::matmul(), "C");
        let rs = b.reduce_scatter(c, 0, ReplicaGroups::full(n), "C_scattered");
        b.build(vec![rs])
    };
    show("Fig. 5: Einsum -> ReduceScatter (2-way)", &einsum_rs, &machine);
}
