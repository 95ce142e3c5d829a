//! The AllReduce-splitting extension: Megatron-style layers (partial
//! einsum followed by `AllReduce`, §2.2's "instead of" strategy) become
//! decomposable after the §2.1 reassociation, stay numerically exact, and
//! get faster under the pipeline.

use overlap::core::{split_all_reduces, OverlapOptions, OverlapPipeline};
use overlap::hlo::{Builder, DType, DotDims, Module, Op, ReplicaGroups, Shape};
use overlap::mesh::{DeviceMesh, Machine};
use overlap::numerics::{run_spmd, Literal};
use overlap::sim::Simulation;

fn bf16(dims: &[usize]) -> Shape {
    Shape::new(DType::BF16, dims.to_vec())
}

/// Two Megatron layers: column-parallel then row-parallel matmul with an
/// AllReduce after the row-parallel one.
fn megatron_block(n: usize, tokens: usize, d: usize, f: usize) -> Module {
    let mut b = Builder::new("megatron_block", n);
    let x = b.parameter(bf16(&[tokens, d]), "x"); // replicated activations
    let w1 = b.parameter(bf16(&[d, f / n]), "w1"); // column-parallel
    let w2 = b.parameter(bf16(&[f / n, d]), "w2"); // row-parallel
    let h = b.einsum(x, w1, DotDims::matmul(), "h");
    let partial = b.einsum(h, w2, DotDims::matmul(), "partial");
    let out = b.all_reduce(partial, ReplicaGroups::full(n), "out");
    b.build(vec![out])
}

fn assert_equivalent(original: &Module, transformed: &Module) {
    let n = original.num_partitions();
    let inputs: Vec<Vec<Literal>> = (0..n)
        .map(|d| {
            original
                .parameters()
                .iter()
                .enumerate()
                .map(|(p, &id)| {
                    Literal::from_fn(original.shape_of(id).clone(), move |i| {
                        ((i * 11 + d * 5 + p * 3) % 17) as f64 / 8.0 - 1.0
                    })
                })
                .collect()
        })
        .collect();
    let expect = run_spmd(original, &inputs).expect("original");
    let got = run_spmd(transformed, &inputs).expect("transformed");
    for (e, g) in expect.iter().zip(&got) {
        for d in 0..n {
            assert!(
                e[d].allclose(&g[d], 1e-9),
                "device {d}: diff {}",
                e[d].max_abs_diff(&g[d])
            );
        }
    }
}

#[test]
fn split_is_numerically_exact() {
    let m = megatron_block(4, 8, 16, 32);
    let (split, _) = split_all_reduces(&m);
    split.verify().unwrap();
    assert_equivalent(&m, &split);
}

#[test]
fn split_plus_pipeline_is_numerically_exact() {
    let m = megatron_block(4, 8, 16, 32);
    let machine = Machine::with_mesh(DeviceMesh::ring(4));
    let compiled = OverlapPipeline::new(OverlapOptions {
        split_all_reduce: true,
        disable_cost_gate: true,
        ..OverlapOptions::paper_default()
    })
    .run(&m, &machine)
    .expect("pipeline");
    assert!(!compiled.summaries.is_empty(), "the split exposes a pattern");
    assert_equivalent(&m, &compiled.module);
}

#[test]
fn split_pipeline_beats_unsplit_on_megatron() {
    // Production-sized Megatron layer where the AllReduce is expensive.
    let n = 8;
    let m = megatron_block(n, 8192, 4096, 16384);
    let machine = Machine::with_mesh(DeviceMesh::ring(n));
    let baseline = Simulation::new(&m, &machine).run().expect("baseline");

    let unsplit = OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&m, &machine)
        .expect("pipeline");
    assert!(
        unsplit.summaries.is_empty(),
        "without the split there is nothing to decompose"
    );

    let split = OverlapPipeline::new(OverlapOptions {
        split_all_reduce: true,
        ..OverlapOptions::paper_default()
    })
    .run(&m, &machine)
    .expect("pipeline");
    assert!(!split.summaries.is_empty());
    assert_eq!(
        split.module.count_live(|i| matches!(i.op(), Op::AllReduce { .. })),
        0
    );
    let over = split.simulation(&machine).run().expect("simulate");
    assert!(
        over.makespan() < baseline.makespan(),
        "overlap {:.4e} vs baseline {:.4e}",
        over.makespan(),
        baseline.makespan()
    );
}
