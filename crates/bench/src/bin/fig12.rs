//! Figure 12: normalized FLOPS utilization of the six Table-1 models,
//! baseline vs. overlapped.

use overlap_bench::{artifact_cache, bar, report_cache, run_comparisons, write_json};
use overlap_models::table1_models;

fn main() {
    println!("Figure 12: performance of the evaluated applications");
    println!("(fraction of peak FLOPS; paper: avg 1.2x speedup, max 1.38x, peak 72%)\n");
    println!(
        "{:<14} {:>6} {:>10} {:>10} {:>8}  utilization",
        "model", "chips", "base", "overlap", "speedup"
    );
    let rows = run_comparisons(&table1_models(), artifact_cache());
    for c in &rows {
        println!(
            "{:<14} {:>6} {:>9.1}% {:>9.1}% {:>7.2}x  |{}|",
            c.baseline.model,
            c.baseline.chips,
            100.0 * c.baseline.flops_utilization,
            100.0 * c.overlapped.flops_utilization,
            c.speedup(),
            bar(c.overlapped.flops_utilization, 40),
        );
    }
    let avg: f64 = rows.iter().map(overlap_bench::Comparison::speedup).sum::<f64>()
        / rows.len() as f64;
    println!("\naverage speedup: {avg:.2}x");
    write_json("fig12", &rows);
    report_cache(artifact_cache());
}
