//! Figure 16: comparison of the two §5.2 scheduling approaches on the
//! weakly scaled GPT family.
//!
//! Paper: the bottom-up approach is ~5% faster on average and is the one
//! used for the overall evaluation.

use overlap_bench::{run_overlapped, write_json};
use overlap_core::{ArtifactCache, OverlapOptions, SchedulerKind};
use overlap_json::json_record;
use overlap_models::table2_models;

struct Row {
    model: String,
    top_down: f64,
    bottom_up: f64,
    bottom_up_speedup: f64,
}

json_record!(encode Row { model, top_down, bottom_up, bottom_up_speedup });

fn main() {
    println!("Figure 16: performance comparison of the two scheduling approaches");
    println!("(per-step time in seconds; paper: bottom-up ~5% faster on average)\n");
    println!("{:<10} {:>12} {:>12} {:>10}", "model", "top-down", "bottom-up", "speedup");
    let mut rows = Vec::new();
    let cache = ArtifactCache::disabled();
    for cfg in table2_models() {
        let td = run_overlapped(
            &cfg,
            OverlapOptions {
                scheduler: SchedulerKind::TopDown,
                ..OverlapOptions::paper_default()
            },
            None,
            &cache,
        )
        .step_time;
        let bu = run_overlapped(&cfg, OverlapOptions::paper_default(), None, &cache).step_time;
        let row = Row {
            model: cfg.name.clone(),
            top_down: td,
            bottom_up: bu,
            bottom_up_speedup: td / bu,
        };
        println!(
            "{:<10} {:>11.3}s {:>11.3}s {:>9.2}x",
            row.model, row.top_down, row.bottom_up, row.bottom_up_speedup
        );
        rows.push(row);
    }
    let avg: f64 = rows.iter().map(|r| r.bottom_up_speedup).sum::<f64>() / rows.len() as f64;
    println!("\nbottom-up average advantage: {:.1}%", 100.0 * (avg - 1.0));
    write_json("fig16", &rows);
}
