//! Figure 13: weak-scaling study — the GPT family of Table 2 (32B … 1T
//! parameters on 64 … 2048 chips), baseline vs. overlapped.

use overlap_bench::{artifact_cache, bar, report_cache, run_comparisons, write_json};
use overlap_models::table2_models;

fn main() {
    println!("Figure 13: performance of the weakly scaled GPT models");
    println!("(paper: 1.1 - 1.4x speedup consistently across all sizes)\n");
    println!(
        "{:<10} {:>6} {:>10} {:>10} {:>8}  utilization",
        "model", "chips", "base", "overlap", "speedup"
    );
    let rows = run_comparisons(&table2_models(), artifact_cache());
    for c in &rows {
        println!(
            "{:<10} {:>6} {:>9.1}% {:>9.1}% {:>7.2}x  |{}|",
            c.baseline.model,
            c.baseline.chips,
            100.0 * c.baseline.flops_utilization,
            100.0 * c.overlapped.flops_utilization,
            c.speedup(),
            bar(c.overlapped.flops_utilization, 40),
        );
    }
    let (lo, hi) = rows.iter().fold((f64::MAX, 0.0f64), |(lo, hi), c| {
        (lo.min(c.speedup()), hi.max(c.speedup()))
    });
    println!("\nspeedup range: {lo:.2}x - {hi:.2}x");
    write_json("fig13", &rows);
    report_cache(artifact_cache());
}
