//! §7.1: application to inference tasks.
//!
//! The paper reports an in-house recommendation inference model with
//! 2-way intra-layer model parallelism achieving a ~2x latency
//! improvement. The regime that makes large gains possible is a
//! latency-bound layer whose collective time is comparable to its einsum
//! time; the decomposition then runs them concurrently. See
//! EXPERIMENTS.md for why a 2-device ring caps the achievable gain in
//! this machine model.

use overlap_bench::{artifact_cache, or_exit, report_cache};
use overlap_core::{OverlapOptions, OverlapPipeline};
use overlap_hlo::{Builder, DType, DotDims, Module, ReplicaGroups, Shape};
use overlap_json::Json;
use overlap_mesh::{DeviceMesh, Machine};
use overlap_sim::Simulation;

/// A recommendation-style MLP tower: small batch (one request slice),
/// wide layers, weights 2-way sharded and gathered per layer.
fn recommendation_tower(n: usize, batch: usize, width: usize, layers: usize) -> Module {
    let mut b = Builder::new("recommendation_inference", n);
    let mut x = b.parameter(Shape::new(DType::BF16, vec![batch, width]), "requests");
    for l in 0..layers {
        let w = b.parameter(
            Shape::new(DType::BF16, vec![width, width / n]),
            &format!("w{l}"),
        );
        let wg = b.all_gather(w, 1, ReplicaGroups::full(n), &format!("w{l}_full"));
        x = b.einsum(x, wg, DotDims::matmul(), &format!("layer{l}"));
    }
    b.build(vec![x])
}

fn main() {
    println!("Section 7.1: 2-way partitioned recommendation inference latency\n");
    let n = 2;
    let machine = Machine::with_mesh(DeviceMesh::ring(n));
    let module = recommendation_tower(n, 1376, 8192, 8);

    let baseline = or_exit(Simulation::new(&module, &machine).run(), "simulate the baseline");
    let compiled = or_exit(
        OverlapPipeline::new(OverlapOptions::paper_default())
            .compile_cached(&module, &machine, artifact_cache()),
        "compile the inference tower",
    );
    let overlapped =
        or_exit(compiled.simulation(&machine).run(), "simulate the overlapped schedule");

    println!("layers decomposed:  {:>7} of 8", compiled.summaries.len());
    println!("baseline latency:   {:>10.3} ms", baseline.makespan() * 1e3);
    println!("overlapped latency: {:>10.3} ms", overlapped.makespan() * 1e3);
    println!(
        "latency improvement: {:>8.2}x   (paper: ~2x)",
        baseline.makespan() / overlapped.makespan()
    );
    overlap_bench::write_json(
        "inference",
        &Json::obj()
            .with("baseline_ms", baseline.makespan() * 1e3)
            .with("overlapped_ms", overlapped.makespan() * 1e3)
            .with("improvement", baseline.makespan() / overlapped.makespan()),
    );
    report_cache(artifact_cache());
}
