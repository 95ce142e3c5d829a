//! Capstone: compile a full training step the way the paper's stack does.
//!
//! 1. Write the model **densely** (as if on one device).
//! 2. Differentiate it with the reverse-mode autodiff — this is where the
//!    backward `Einsum → ReduceScatter` patterns come from.
//! 3. Partition the forward+backward graph over the mesh with the
//!    GSPMD-lite module partitioner (§2.2's collectives appear).
//! 4. Run the overlap pipeline (§5) and simulate baseline vs. overlapped.
//! 5. Cross-check numerically on the SPMD interpreter.
//!
//! ```sh
//! cargo run --release --example training_step
//! ```

use overlap::core::{OverlapOptions, OverlapPipeline};
use overlap::hlo::{gradients, Builder, DType, DotDims, Op, Shape};
use overlap::mesh::{Axis, DeviceMesh, Machine};
use overlap::numerics::{run_spmd, Literal};
use overlap::sharding::{partition_module, TensorSharding};
use overlap::sim::Simulation;

fn main() {
    // 1. Dense two-layer MLP (f32 keeps the numeric check exact; the
    //    figures use bf16 shapes for byte accounting only).
    let build = |tokens: usize, d: usize, f: usize| {
        let mut b = Builder::new("mlp", 1);
        let x = b.parameter(Shape::new(DType::F32, vec![tokens, d]), "x");
        let w1 = b.parameter(Shape::new(DType::F32, vec![d, f]), "w1");
        let w2 = b.parameter(Shape::new(DType::F32, vec![f, d]), "w2");
        let h = b.einsum(x, w1, DotDims::matmul(), "h");
        let y = b.einsum(h, w2, DotDims::matmul(), "y");
        (b.build(vec![y]), y, w1, w2)
    };
    let (dense, y, w1, w2) = build(16384, 2048, 8192);

    // 2. Autodiff: gradients of <seed, y> w.r.t. both weights.
    let grad = gradients(&dense, y, &[w1, w2]).expect("differentiable");
    println!(
        "autodiff: {} -> {} instructions ({} einsums)",
        dense.len(),
        grad.module.len(),
        grad.module.count_live(|i| matches!(i.op(), Op::Einsum(_))),
    );

    // 3. Partition over a ring of 8: batch-sharded activations,
    //    row-sharded weights (Fig. 2's strategy); the seed cotangent is
    //    batch-sharded like the output.
    let mesh = DeviceMesh::ring(8);
    let batch = TensorSharding::replicated(2).with_dim(0, Axis(0));
    let row = TensorSharding::replicated(2).with_dim(0, Axis(0));
    let shardings =
        vec![batch.clone(), row.clone(), row.clone(), batch.clone()];
    let spmd = partition_module(&grad.module, &mesh, &shardings).expect("partitions");
    println!(
        "partitioned: {} all-gathers, {} reduce-scatters",
        spmd.module.count_live(|i| matches!(i.op(), Op::AllGather { .. })),
        spmd.module.count_live(|i| matches!(i.op(), Op::ReduceScatter { .. })),
    );

    // 4. Overlap pipeline + simulation.
    let machine = Machine::with_mesh(mesh.clone());
    let baseline = Simulation::new(&spmd.module, &machine).run().expect("baseline");
    let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&spmd.module, &machine)
        .expect("pipeline");
    let overlapped = compiled.simulation(&machine).run().expect("simulate");
    println!(
        "step time: {:.3} ms -> {:.3} ms ({:.2}x), {} patterns decomposed",
        baseline.makespan() * 1e3,
        overlapped.makespan() * 1e3,
        baseline.makespan() / overlapped.makespan(),
        compiled.summaries.len(),
    );

    // 5. Numeric cross-check on an interpreter-sized copy of the same
    //    program (same structure, smaller dims): the compiled SPMD
    //    program computes the same gradients as the partitioned one.
    let (small_dense, sy, sw1, sw2) = build(64, 32, 64);
    let small_grad = gradients(&small_dense, sy, &[sw1, sw2]).expect("differentiable");
    let spmd = partition_module(&small_grad.module, &mesh, &shardings).expect("partitions");
    let compiled = OverlapPipeline::new(OverlapOptions {
        disable_cost_gate: true,
        ..OverlapOptions::paper_default()
    })
    .run(&spmd.module, &machine)
    .expect("pipeline");
    let n = mesh.num_devices();
    let inputs: Vec<Vec<Literal>> = (0..n)
        .map(|dev| {
            spmd.module
                .parameters()
                .iter()
                .enumerate()
                .map(|(p, &id)| {
                    Literal::from_fn(spmd.module.shape_of(id).clone(), move |i| {
                        ((i * 31 + dev * 17 + p * 7) % 13) as f64 / 6.0 - 1.0
                    })
                })
                .collect()
        })
        .collect();
    let want = run_spmd(&spmd.module, &inputs).expect("partitioned runs");
    let got = run_spmd(&compiled.module, &inputs).expect("compiled runs");
    let mut max_diff = 0.0f64;
    for (w, g) in want.iter().zip(&got) {
        for dev in 0..n {
            max_diff = max_diff.max(w[dev].max_abs_diff(&g[dev]));
        }
    }
    println!("max |partitioned - overlapped| across gradients: {max_diff:.2e}");
    assert!(max_diff < 1e-9);
    println!("training step compiled, overlapped and verified on {n} simulated devices");
}
