//! Figure 11: fusion decisions and overlap.
//!
//! Reconstructs the paper's illustrative graph — an `Add` accumulating
//! the results of two einsums, one of which consumes an asynchronous
//! `CollectivePermuteDone` — and simulates it under (a) the default
//! fusion heuristic, which fuses the `Add` with the *first* producer
//! (`Einsum_0`, the independent one), serializing
//! `done → Fusion_1 → Fusion_0`; and (b) the §5.4.3 overlap-aware
//! heuristic, which fuses the `Add` with the done-dependent einsum so the
//! independent one runs concurrently with the transfer.

use overlap_bench::{or_exit, write_json};
use overlap_core::{fuse, schedule_bottom_up, FusionOptions};
use overlap_hlo::{Builder, DType, DotDims, Module, ModuleAnalysis, Shape};
use overlap_mesh::{DeviceMesh, Machine};
use overlap_json::json_record;
use overlap_sim::{CostTable, Simulation};

/// The Fig. 11 graph at a given matmul width.
fn fig11_module(dim: usize) -> Module {
    let n = 2;
    let mut b = Builder::new("fig11", n);
    let a = b.parameter(Shape::new(DType::BF16, vec![dim, dim]), "a");
    let w0 = b.parameter(Shape::new(DType::BF16, vec![dim, dim]), "w0");
    let w1 = b.parameter(Shape::new(DType::BF16, vec![dim, dim]), "w1");
    let e0 = b.einsum(a, w0, DotDims::matmul(), "einsum0");
    let s = b.collective_permute_start(a, vec![(0, 1), (1, 0)], "cp_start");
    let d = b.collective_permute_done(s, "cp_done");
    let e1 = b.einsum(d, w1, DotDims::matmul(), "einsum1");
    let add = b.add(e0, e1, "accumulate");
    b.build(vec![add])
}

struct Row {
    dim: usize,
    default_fusion_ms: f64,
    overlap_aware_ms: f64,
    improvement: f64,
}

json_record!(encode Row { dim, default_fusion_ms, overlap_aware_ms, improvement });

fn main() {
    println!("Figure 11: default vs overlap-aware fusion on the Add-of-two-einsums graph");
    println!("(2-way partitioned; the transfer should hide behind the independent einsum)\n");
    println!("{:<8} {:>12} {:>15} {:>12}", "width", "default", "overlap-aware", "gain");
    let machine = Machine::with_mesh(DeviceMesh::ring(2));
    let mut rows = Vec::new();
    for dim in [2048usize, 4096, 8192] {
        let module = fig11_module(dim);
        let mut analysis = ModuleAnalysis::of(&module);
        or_exit(module.verify_incremental(&mut analysis), "verify the Fig. 11 graph");
        let time_with = |aware: bool| {
            let fused =
                fuse(module.clone(), &analysis, &FusionOptions { overlap_aware: aware });
            let table = or_exit(CostTable::new(&fused, &machine), "cost the fused graph");
            let order = schedule_bottom_up(&table, &analysis, &fused, &machine, None);
            let sim = Simulation::new(&fused, &machine).order(&order);
            or_exit(sim.run(), "simulate the fused graph").makespan()
        };
        let bad = time_with(false);
        let good = time_with(true);
        let row = Row {
            dim,
            default_fusion_ms: bad * 1e3,
            overlap_aware_ms: good * 1e3,
            improvement: bad / good,
        };
        println!(
            "{:<8} {:>9.3} ms {:>12.3} ms {:>11.2}x",
            row.dim, row.default_fusion_ms, row.overlap_aware_ms, row.improvement
        );
        rows.push(row);
    }
    write_json("fig11", &rows);
}
