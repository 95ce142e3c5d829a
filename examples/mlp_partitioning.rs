//! The paper's running example: the two-layer MLP of Figs. 2 and 3.
//!
//! Builds both partitioning strategies, prints the HLO with the inserted
//! collectives, and verifies numerically (via the SPMD interpreter) that
//! the decomposed program computes exactly what the original does.
//!
//! ```sh
//! cargo run --release --example mlp_partitioning
//! ```

use overlap::core::{decompose, find_patterns, LoopPlan, PatternStrategy};
use overlap::hlo::{ModuleAnalysis, Op};
use overlap::mesh::DeviceMesh;
use overlap::numerics::{run_spmd, Literal};
use overlap::sharding::mlp::{fig2_forward, fig3_forward, MlpConfig};

fn main() {
    let cfg = MlpConfig { batch: 8, feature: 16, hidden: 32 };

    // ---- Fig. 2: 1-D partitioning over a ring of 4 ----
    let ring = DeviceMesh::ring(4);
    let fig2 = fig2_forward(&ring, cfg).expect("fig2 builds");
    println!("=== Fig. 2 (1-D, {ring}) ===");
    println!(
        "all-gathers: {}, reduce-scatters: {}, einsums: {}",
        fig2.count_live(|i| matches!(i.op(), Op::AllGather { .. })),
        fig2.count_live(|i| matches!(i.op(), Op::ReduceScatter { .. })),
        fig2.count_live(|i| matches!(i.op(), Op::Einsum(_))),
    );

    // ---- Fig. 3: 2-D partitioning over a [2, 4] mesh ----
    let mesh = DeviceMesh::new(vec![2, 4]);
    let fig3 = fig3_forward(&mesh, cfg).expect("fig3 builds");
    println!("\n=== Fig. 3 (2-D, {mesh}) ===");
    println!("{fig3}");

    // ---- Decompose and check numerical equivalence ----
    let mut patterns = find_patterns(&fig3, &ModuleAnalysis::of(&fig3));
    println!("\ndecomposable patterns found: {}", patterns.len());
    // An einsum can have two candidate collectives (both operands
    // gathered); decompose at most one per einsum, as the cost gate would.
    let mut seen = std::collections::HashSet::new();
    patterns.retain(|p| seen.insert(p.einsum));
    let knobs = PatternStrategy::default();
    let plans: Vec<_> =
        patterns.iter().map(|p| LoopPlan::new(&fig3, p, &knobs, knobs.ring)).collect();
    let (decomposed, summaries, _) = decompose(&fig3, &plans);
    for s in &summaries {
        println!(
            "  {}: {} partial einsums, {} permutes",
            s.einsum, s.partial_einsums, s.permutes
        );
    }

    let n = fig3.num_partitions();
    let inputs: Vec<Vec<Literal>> = (0..n)
        .map(|d| {
            fig3.parameters()
                .iter()
                .enumerate()
                .map(|(p, &id)| {
                    Literal::from_fn(fig3.shape_of(id).clone(), move |i| {
                        ((i + 3 * d + 7 * p) % 13) as f64 / 13.0 - 0.5
                    })
                })
                .collect()
        })
        .collect();
    let expect = run_spmd(&fig3, &inputs).expect("original runs");
    let got = run_spmd(&decomposed, &inputs).expect("decomposed runs");
    let mut max_diff = 0.0f64;
    for d in 0..n {
        max_diff = max_diff.max(expect[0][d].max_abs_diff(&got[0][d]));
    }
    println!("\nmax |original - decomposed| across all devices: {max_diff:.2e}");
    assert!(max_diff < 1e-9, "the transformation must be semantically equivalent");
    println!("semantic equivalence verified on {n} simulated devices");
}
