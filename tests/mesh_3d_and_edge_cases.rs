//! Edge-case equivalence: 3-D torus subgroups, einsums with batch
//! dimensions feeding a ReduceScatter, and an einsum with both an
//! AllGather operand and a ReduceScatter user going through the full
//! pipeline.

use overlap::core::{
    decompose, find_patterns, LoopPlan, OverlapOptions, OverlapPipeline, PatternStrategy,
    RingDirection,
};
use overlap::hlo::{Builder, DType, DotDims, Module, ModuleAnalysis, ReplicaGroups, Shape};
use overlap::mesh::{Axis, DeviceMesh, Machine};
use overlap::numerics::{run_spmd, Literal};
use overlap::sim::Simulation;

fn f32s(dims: &[usize]) -> Shape {
    Shape::new(DType::F32, dims.to_vec())
}

/// Decomposes every pattern of `m` under `knobs` (the permutes come out
/// as async start/done pairs).
fn decompose_async(m: &Module, knobs: PatternStrategy) -> Module {
    let patterns = find_patterns(m, &ModuleAnalysis::of(m));
    let plans: Vec<_> = patterns.iter().map(|p| LoopPlan::new(m, p, &knobs, knobs.ring)).collect();
    decompose(m, &plans).0
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
                        ((i * 7 + d * 13 + p * 29) % 23) as f64 / 7.0 - 1.5
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

/// Rings along each axis of a 3-D torus (the TPU's physical topology):
/// the rank tables and permute pairs must work for all of them.
#[test]
fn three_d_torus_subgroup_rings() {
    let mesh = DeviceMesh::new(vec![2, 2, 3]);
    let n = mesh.num_devices();
    for axis in 0..3 {
        let groups = mesh.axis_groups(Axis(axis));
        let g = groups.group_size();
        let mut b = Builder::new(format!("axis{axis}"), n);
        let x = b.parameter(f32s(&[4, 6]), "x");
        let ws = b.parameter(f32s(&[6, 2]), "w_shard");
        let w = b.all_gather(ws, 1, groups, "w");
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        let m = b.build(vec![e]);
        assert_eq!(m.shape_of(e).dims(), &[4, 2 * g]);

        assert_eq!(find_patterns(&m, &ModuleAnalysis::of(&m)).len(), 1);
        for ring in [RingDirection::Unidirectional, RingDirection::Bidirectional] {
            let knobs = PatternStrategy { ring, ..Default::default() };
            assert_equivalent(&m, &decompose_async(&m, knobs));
        }
    }
}

/// An einsum with a batch dimension whose free output dim feeds a
/// ReduceScatter: the decomposition slices the free dim while the batch
/// dimension rides along.
#[test]
fn batched_einsum_reduce_scatter() {
    let n = 4;
    let mut b = Builder::new("batched_rs", n);
    let x = b.parameter(f32s(&[3, 2 * n, 5]), "x");
    let w = b.parameter(f32s(&[3, 5, 4]), "w");
    let e = b.einsum(x, w, DotDims::batch_matmul(), "e");
    // Scatter the LHS free dim (output dim 1).
    let rs = b.reduce_scatter(e, 1, ReplicaGroups::full(n), "rs");
    let m = b.build(vec![rs]);
    assert_eq!(find_patterns(&m, &ModuleAnalysis::of(&m)).len(), 1);
    for opts in [
        PatternStrategy {
            ring: RingDirection::Unidirectional,
            unroll: false,
            ..Default::default()
        },
        PatternStrategy { ring: RingDirection::Unidirectional, unroll: true, ..Default::default() },
        PatternStrategy::default(),
    ] {
        assert_equivalent(&m, &decompose_async(&m, opts));
    }
}

/// An einsum that is both an AllGather consumer and a ReduceScatter
/// producer: the cost model must pick exactly one pattern and the full
/// pipeline must stay equivalent and not slower.
#[test]
fn einsum_with_gather_and_scatter_through_pipeline() {
    let n = 4;
    let mut b = Builder::new("ag_and_rs", n);
    let x = b.parameter(f32s(&[64, 128]), "x");
    let ws = b.parameter(f32s(&[128, 64]), "w_shard");
    let w = b.all_gather(ws, 1, ReplicaGroups::full(n), "w");
    let e = b.einsum(x, w, DotDims::matmul(), "e");
    let rs = b.reduce_scatter(e, 0, ReplicaGroups::full(n), "rs");
    let m = b.build(vec![rs]);

    let patterns = find_patterns(&m, &ModuleAnalysis::of(&m));
    assert_eq!(patterns.len(), 2, "AG candidate and RS candidate");

    let machine = Machine::with_mesh(DeviceMesh::ring(n));
    let compiled = OverlapPipeline::new(OverlapOptions {
        disable_cost_gate: true,
        ..OverlapOptions::paper_default()
    })
    .run(&m, &machine)
    .expect("pipeline");
    assert_eq!(compiled.summaries.len(), 1, "one pattern per einsum");
    assert_equivalent(&m, &compiled.module);

    let base = Simulation::new(&m, &machine).run().expect("baseline");
    let over = compiled.simulation(&machine).run().expect("sim");
    // Ungated on a toy shape may or may not win, but must stay sane.
    assert!(over.makespan() <= base.makespan() * 2.0);
}

/// Decomposition composes with dead code: a second, unused consumer of a
/// module parameter must survive DCE-free rebuilds untouched.
#[test]
fn decompose_preserves_unrelated_instructions() {
    let n = 2;
    let mut b = Builder::new("unrelated", n);
    let x = b.parameter(f32s(&[4, 8]), "x");
    let ws = b.parameter(f32s(&[8, 4]), "w_shard");
    let w = b.all_gather(ws, 1, ReplicaGroups::full(n), "w");
    let e = b.einsum(x, w, DotDims::matmul(), "e");
    let side = b.neg(x, "side_output");
    let m = b.build(vec![e, side]);
    let out = decompose_async(&m, PatternStrategy::default());
    assert_equivalent(&m, &out);
    assert_eq!(out.outputs().len(), 2);
}
