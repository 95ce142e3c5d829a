//! §7.1 in miniature: a 2-way partitioned recommendation-style inference
//! tower, baseline vs. overlapped latency.
//!
//! ```sh
//! cargo run --release --example inference_latency
//! ```

use overlap::core::{OverlapOptions, OverlapPipeline};
use overlap::hlo::{Builder, DType, DotDims, ReplicaGroups, Shape};
use overlap::mesh::{DeviceMesh, Machine};
use overlap::sim::Simulation;

fn main() {
    let n = 2;
    let (batch, width, layers) = (1376, 8192, 6);
    let mut b = Builder::new("recommendation", n);
    let mut x = b.parameter(Shape::new(DType::BF16, vec![batch, width]), "requests");
    for l in 0..layers {
        let w = b.parameter(
            Shape::new(DType::BF16, vec![width, width / n]),
            &format!("w{l}"),
        );
        let wg = b.all_gather(w, 1, ReplicaGroups::full(n), &format!("w{l}_full"));
        x = b.einsum(x, wg, DotDims::matmul(), &format!("layer{l}"));
    }
    let module = b.build(vec![x]);

    let machine = Machine::with_mesh(DeviceMesh::ring(n));
    let baseline = Simulation::new(&module, &machine).run().expect("baseline");
    let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
        .expect("pipeline");
    let overlapped = compiled.simulation(&machine).run().expect("simulate");

    println!("request batch {batch}, width {width}, {layers} layers, {n}-way partitioned");
    println!("baseline latency:   {:>8.3} ms", baseline.makespan() * 1e3);
    println!("overlapped latency: {:>8.3} ms", overlapped.makespan() * 1e3);
    println!(
        "improvement:        {:>8.2}x",
        baseline.makespan() / overlapped.makespan()
    );
}
