//! Property tests for the §5.5 cost model.
//!
//! The gate's estimate is what decides whether a pattern is decomposed at
//! all, so its internal consistency matters beyond any single
//! calibration: decomposition must never be predicted to *reduce*
//! compute, slower links must never make the predicted communication
//! cheaper, and the `beneficial` bit must agree with `net_benefit()`.

use overlap::core::{find_patterns, CostModel, StrategySpec};
use overlap::hlo::{Builder, DType, DotDims, Module, ModuleAnalysis, ReplicaGroups, Shape};
use overlap::mesh::Machine;
use overlap::sim::CostTable;
use proptest::prelude::*;

/// AllGather→Einsum module: `x[m,k] · gather(w[k,f/n]) -> [m,f]`.
fn ag_module(n: usize, m: usize, k: usize, f_shard: usize) -> Module {
    let mut b = Builder::new("prop_ag", n);
    let x = b.parameter(Shape::new(DType::BF16, vec![m, k]), "x");
    let w = b.parameter(Shape::new(DType::BF16, vec![k, f_shard]), "w_shard");
    let wf = b.all_gather(w, 1, ReplicaGroups::full(n), "w");
    let y = b.einsum(x, wf, DotDims::matmul(), "y");
    b.build(vec![y])
}

/// Einsum→ReduceScatter module: `rs(x[m,k] · w[k, f·n]) -> [m,f]`.
fn rs_module(n: usize, m: usize, k: usize, f_shard: usize) -> Module {
    let mut b = Builder::new("prop_rs", n);
    let x = b.parameter(Shape::new(DType::BF16, vec![m, k]), "x");
    let w = b.parameter(Shape::new(DType::BF16, vec![k, f_shard * n]), "w");
    let y = b.einsum(x, w, DotDims::matmul(), "y");
    let r = b.reduce_scatter(y, 1, ReplicaGroups::full(n), "y_rs");
    b.build(vec![r])
}

fn dims() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    (
        prop_oneof![Just(2usize), Just(4), Just(8)],
        64usize..512,
        64usize..512,
        16usize..256,
    )
}

fn check_decisions(
    module: &Module,
    machine: &Machine,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let cm = CostModel::new(machine, &StrategySpec::paper_default());
    let table = CostTable::new(module, machine).expect("cost table");
    let patterns = find_patterns(module, &ModuleAnalysis::of(module));
    prop_assert!(!patterns.is_empty());

    for p in &patterns {
        let (d, _) = cm.evaluate(&table, module, p);
        // All components are times; none may be negative.
        for (name, v) in [
            ("comp_t", d.comp_t),
            ("comm_t", d.comm_t),
            ("comm_t_ring", d.comm_t_ring),
            ("extra_t", d.extra_t),
            ("comp_d", d.comp_d),
        ] {
            prop_assert!(v >= 0.0 && v.is_finite(), "{name} = {v}");
        }
        // Decomposition never makes the compute side cheaper: partial
        // einsums lose tile fill and pay per-kernel launch overhead.
        prop_assert!(
            d.comp_d >= d.comp_t * (1.0 - 1e-9),
            "comp_d {:.3e} < comp_t {:.3e}",
            d.comp_d,
            d.comp_t
        );
        // The flag is exactly the sign of the net benefit.
        prop_assert_eq!(d.beneficial, d.net_benefit() >= 0.0);
        // The per-direction-mode laws (slower links never cheapen
        // communication; `evaluate` picks the better mode) need the
        // crate-private variant evaluator: see
        // `costgate::tests::variants_are_consistent_across_links_and_directions`.
    }

    // `select` keeps at most one decision per einsum, and with the gate
    // on, only beneficial ones.
    let gated = cm.select(&table, module, &patterns, true);
    let mut einsums: Vec<_> = gated.iter().map(|(d, _)| d.pattern.einsum).collect();
    einsums.sort_unstable();
    einsums.dedup();
    prop_assert_eq!(einsums.len(), gated.len(), "one decision per einsum");
    for (d, _) in &gated {
        prop_assert!(d.beneficial);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gate_is_consistent_on_allgather_patterns((n, m, k, f) in dims()) {
        let module = ag_module(n, m, k, f);
        let machine = Machine::tpu_v4_like(n);
        check_decisions(&module, &machine)?;
    }

    #[test]
    fn gate_is_consistent_on_reduce_scatter_patterns((n, m, k, f) in dims()) {
        let module = rs_module(n, m, k, f);
        let machine = Machine::tpu_v4_like(n);
        check_decisions(&module, &machine)?;
    }

    #[test]
    fn gate_is_consistent_on_gpu_preset((n, m, k, f) in dims()) {
        let module = ag_module(n, m, k, f);
        let machine = Machine::gpu_cluster_like(n);
        check_decisions(&module, &machine)?;
    }
}
