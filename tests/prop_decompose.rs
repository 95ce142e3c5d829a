//! Property-based equivalence: for randomly drawn shapes, partition
//! counts and option combinations, the looped collective-einsum must
//! compute exactly what the original collective + einsum pair computed.

use overlap::core::{decompose, find_patterns, LoopPlan, PatternStrategy, RingDirection};
use overlap::hlo::{Builder, DType, DotDims, Module, ModuleAnalysis, ReplicaGroups, Shape};
use overlap::numerics::{run_spmd, Literal};
use proptest::prelude::*;

fn f32s(dims: &[usize]) -> Shape {
    Shape::new(DType::F32, dims.to_vec())
}

fn inputs_for(module: &Module, seed: u64) -> Vec<Vec<Literal>> {
    let params = module.parameters();
    (0..module.num_partitions())
        .map(|d| {
            params
                .iter()
                .enumerate()
                .map(|(p, &id)| {
                    Literal::from_fn(module.shape_of(id).clone(), move |i| {
                        let x = (i as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(seed + (d * 97 + p * 13) as u64);
                        ((x >> 40) % 512) as f64 / 128.0 - 2.0
                    })
                })
                .collect()
        })
        .collect()
}

fn check(module: &Module, knobs: &PatternStrategy, seed: u64) -> Result<(), TestCaseError> {
    let patterns = find_patterns(module, &ModuleAnalysis::of(module));
    prop_assert!(!patterns.is_empty());
    let plans: Vec<_> =
        patterns.iter().map(|p| LoopPlan::new(module, p, knobs, knobs.ring)).collect();
    let (out, _, _) = decompose(module, &plans);
    let inputs = inputs_for(module, seed);
    let expect = run_spmd(module, &inputs).expect("original");
    let got = run_spmd(&out, &inputs).expect("decomposed");
    for (e, g) in expect.iter().zip(&got) {
        for d in 0..module.num_partitions() {
            prop_assert!(
                e[d].allclose(&g[d], 1e-9),
                "device {d}: max diff {}",
                e[d].max_abs_diff(&g[d])
            );
        }
    }
    Ok(())
}

fn options() -> impl Strategy<Value = PatternStrategy> {
    // Chunk widths beyond the feasible range exercise the fall-back rule
    // (the decompose pass silently reverts to chunk 1 and records why).
    (any::<bool>(), any::<bool>(), any::<bool>(), 1usize..=4).prop_map(
        // Wire stays lossless here: this suite asserts *exact*
        // equivalence of the decomposition arithmetic. Quantized-wire
        // error bounds are covered by the numerics-crate tests.
        |(unroll, bidirectional, pad_max_concat, chunk)| PatternStrategy {
            unroll,
            ring: if bidirectional {
                RingDirection::Bidirectional
            } else {
                RingDirection::Unidirectional
            },
            pad_max_concat,
            chunk,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// AllGather case 1 (free dimension) with random sizes and options.
    #[test]
    fn ag_free(
        n in 2usize..6,
        shard in 1usize..4,
        k in 1usize..6,
        rows in 1usize..6,
        opts in options(),
        seed in 0u64..1_000_000,
    ) {
        let mut b = Builder::new("p", n);
        let x = b.parameter(f32s(&[rows, k]), "x");
        let ws = b.parameter(f32s(&[k, shard]), "w");
        let w = b.all_gather(ws, 1, ReplicaGroups::full(n), "wg");
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        let m = b.build(vec![e]);
        check(&m, &opts, seed)?;
    }

    /// AllGather case 2 (contracting dimension).
    #[test]
    fn ag_contracting(
        n in 2usize..6,
        shard in 1usize..4,
        rows in 1usize..6,
        cols in 1usize..6,
        opts in options(),
        seed in 0u64..1_000_000,
    ) {
        let mut b = Builder::new("p", n);
        let xs = b.parameter(f32s(&[rows, shard]), "x");
        let w = b.parameter(f32s(&[shard * n, cols]), "w");
        let x = b.all_gather(xs, 1, ReplicaGroups::full(n), "xg");
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        let m = b.build(vec![e]);
        check(&m, &opts, seed)?;
    }

    /// AllGather case 3 (batch dimension).
    #[test]
    fn ag_batch(
        n in 2usize..5,
        shard in 1usize..3,
        mdim in 1usize..4,
        kdim in 1usize..4,
        ndim in 1usize..4,
        opts in options(),
        seed in 0u64..1_000_000,
    ) {
        let mut b = Builder::new("p", n);
        let xs = b.parameter(f32s(&[shard, mdim, kdim]), "x");
        let w = b.parameter(f32s(&[shard * n, kdim, ndim]), "w");
        let x = b.all_gather(xs, 0, ReplicaGroups::full(n), "xg");
        let e = b.einsum(x, w, DotDims::batch_matmul(), "e");
        let m = b.build(vec![e]);
        check(&m, &opts, seed)?;
    }

    /// Einsum → ReduceScatter with random shard sizes and either output
    /// dimension.
    #[test]
    fn einsum_rs(
        n in 2usize..6,
        rows in 1usize..4,
        k in 1usize..6,
        cols in 1usize..4,
        scatter_dim0 in any::<bool>(),
        opts in options(),
        seed in 0u64..1_000_000,
    ) {
        let mut b = Builder::new("p", n);
        let x = b.parameter(f32s(&[rows * n, k]), "x");
        let w = b.parameter(f32s(&[k, cols * n]), "w");
        let e = b.einsum(x, w, DotDims::matmul(), "e");
        let rs = if scatter_dim0 {
            b.reduce_scatter(e, 0, ReplicaGroups::full(n), "rs")
        } else {
            b.reduce_scatter(e, 1, ReplicaGroups::full(n), "rs")
        };
        let m = b.build(vec![rs]);
        check(&m, &opts, seed)?;
    }
}
