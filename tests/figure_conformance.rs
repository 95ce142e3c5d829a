//! Conformance with the paper's illustrative figures: the exact
//! `{source, destination}` pairs of §5.1 and the shard-transfer schedules
//! of Figs. 6, 7, 9 and 10, read directly off the emitted modules.

use overlap::core::{
    decompose, find_patterns, DecomposeSummary, LoopPlan, PatternStrategy, RingDirection,
};
use overlap::hlo::{Builder, DType, DotDims, Module, ModuleAnalysis, Op, ReplicaGroups, Shape};

fn f32s(dims: &[usize]) -> Shape {
    Shape::new(DType::F32, dims.to_vec())
}

/// Decomposes every pattern of `m` under `knobs`.
fn decompose_all(m: &Module, knobs: &PatternStrategy) -> (Module, Vec<DecomposeSummary>) {
    let patterns = find_patterns(m, &ModuleAnalysis::of(m));
    let plans: Vec<_> = patterns.iter().map(|p| LoopPlan::new(m, p, knobs, knobs.ring)).collect();
    let (out, summaries, _) = decompose(m, &plans);
    (out, summaries)
}

fn ag_module(n: usize) -> Module {
    let mut b = Builder::new("ag", n);
    let x = b.parameter(f32s(&[8, 16]), "x");
    let w = b.parameter(f32s(&[16, 4]), "w");
    let g = b.all_gather(w, 1, ReplicaGroups::full(n), "g");
    let e = b.einsum(x, g, DotDims::matmul(), "e");
    b.build(vec![e])
}

fn rs_module(n: usize) -> Module {
    let mut b = Builder::new("rs", n);
    let x = b.parameter(f32s(&[8, 16]), "x");
    let w = b.parameter(f32s(&[16, 4 * n]), "w");
    let e = b.einsum(x, w, DotDims::matmul(), "e");
    let rs = b.reduce_scatter(e, 1, ReplicaGroups::full(n), "rs");
    b.build(vec![rs])
}

fn permute_pair_lists(m: &Module) -> Vec<Vec<(u32, u32)>> {
    m.iter()
        .filter_map(|(_, ins)| match ins.op() {
            Op::CollectivePermuteStart { pairs, .. } => Some(pairs.to_vec()),
            _ => None,
        })
        .collect()
}

/// §5.1: "The {source, destination} pairs of a CollectivePermute at each
/// iteration are constructed as {0, N−1}, {1, 0}, {2, 1}, … {N−1, N−2}."
#[test]
fn unidirectional_pairs_match_section_5_1() {
    let n = 4;
    let opts = PatternStrategy { ring: RingDirection::Unidirectional, ..Default::default() };
    let expected = vec![(0, 3), (1, 0), (2, 1), (3, 2)];

    let ag = ag_module(n);
    let (out, _) = decompose_all(&ag, &opts);
    let cps = permute_pair_lists(&out);
    assert_eq!(cps.len(), n - 1, "Fig. 6: N-1 transfers for the AllGather case");
    for pairs in &cps {
        assert_eq!(pairs, &expected);
    }

    let rs = rs_module(n);
    let opts = PatternStrategy { unroll: false, ..opts };
    let (out, _) = decompose_all(&rs, &opts);
    let cps = permute_pair_lists(&out);
    assert_eq!(cps.len(), n, "Fig. 7: N transfers for the ReduceScatter case");
    for pairs in &cps {
        assert_eq!(pairs, &expected);
    }
}

/// Fig. 9: bidirectional AllGather — a clockwise prologue shift, then
/// counterclockwise/clockwise pairs alternating in the loop.
#[test]
fn bidirectional_ag_matches_fig_9() {
    let n = 4;
    let ag = ag_module(n);
    let (out, summaries) = decompose_all(&ag, &PatternStrategy::default());
    assert!(summaries[0].bidirectional);
    let cps = permute_pair_lists(&out);
    let clockwise = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
    let counterclockwise = vec![(0u32, 3u32), (1, 0), (2, 1), (3, 2)];
    // Prologue: one clockwise shift.
    assert_eq!(cps[0], clockwise);
    // Loop (m-1 = 1 iteration of transfers): one each way.
    assert_eq!(cps.len(), 3);
    assert!(cps[1..].contains(&counterclockwise));
    assert!(cps[1..].contains(&clockwise));
}

/// Fig. 10: bidirectional ReduceScatter — accumulators travel both ways
/// and the epilogue shifts the clockwise one once more.
#[test]
fn bidirectional_rs_matches_fig_10() {
    let n = 4;
    let rs = rs_module(n);
    let (out, summaries) = decompose_all(&rs, &PatternStrategy::default());
    assert!(summaries[0].bidirectional);
    let cps = permute_pair_lists(&out);
    let clockwise = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
    // Loop transfers: (m-1) per direction; epilogue: one more clockwise.
    assert_eq!(cps.len(), 3);
    assert_eq!(cps.last().unwrap(), &clockwise, "epilogue aligns the clockwise chain");
}

/// Fig. 8: the unrolled (two-chain) ReduceScatter hops two ring positions
/// between contributions and ends with the one-hop alignment epilogue.
#[test]
fn unrolled_rs_matches_fig_8() {
    let n = 4;
    let rs = rs_module(n);
    let opts = PatternStrategy {
        ring: RingDirection::Unidirectional,
        unroll: true,
        ..Default::default()
    };
    let (out, _) = decompose_all(&rs, &opts);
    let cps = permute_pair_lists(&out);
    let two_left = vec![(0u32, 2u32), (1, 3), (2, 0), (3, 1)];
    let one_right = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
    // Two chains × (m-1)=1 two-hop transfer each, then the epilogue
    // "{0,1}, {1,2}, {2,3}, {3,0}" the §5.4.1 text spells out.
    assert_eq!(cps.len(), 3);
    assert_eq!(cps[0], two_left);
    assert_eq!(cps[1], two_left);
    assert_eq!(cps[2], one_right);
}

/// Fig. 4's accounting: the AllGather case needs one partial einsum and
/// one `DynamicUpdateSlice` per shard, with the final result shape equal
/// to the original einsum's.
#[test]
fn ag_case_accounting_matches_fig_4() {
    for n in [2usize, 4, 8] {
        let ag = ag_module(n);
        let opts = PatternStrategy { ring: RingDirection::Unidirectional, ..Default::default() };
        let (out, summaries) = decompose_all(&ag, &opts);
        assert_eq!(summaries[0].partial_einsums, n);
        assert_eq!(
            out.count_live(|i| matches!(i.op(), Op::DynamicUpdateSlice)),
            n,
            "one update per shard"
        );
        assert_eq!(out.shape_of(out.outputs()[0]).dims(), &[8, 4 * n]);
    }
}
