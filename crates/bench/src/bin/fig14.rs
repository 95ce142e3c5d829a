//! Figure 14: performance improvements provided by loop unrolling
//! (§5.4.1), on the weakly scaled GPT family.
//!
//! Series: per-step execution time normalized to the baseline, with the
//! overlap pipeline running *without* and *with* loop unrolling.

use overlap_bench::{artifact_cache, report_cache, run_baseline, run_overlapped, write_json};
use overlap_core::{OverlapOptions, StrategySpec};
use overlap_json::json_record;
use overlap_models::table2_models;

struct Row {
    model: String,
    normalized_no_unroll: f64,
    normalized_unrolled: f64,
}

json_record!(encode Row { model, normalized_no_unroll, normalized_unrolled });

fn main() {
    println!("Figure 14: performance improvements provided by loop unrolling");
    println!("(normalized step time, baseline = 1.0; lower is better)\n");
    println!("{:<10} {:>12} {:>12} {:>12}", "model", "no-unroll", "unrolled", "gain");
    let mut rows = Vec::new();
    for cfg in table2_models() {
        let base = run_baseline(&cfg, None).step_time;
        let no_unroll = run_overlapped(
            &cfg,
            OverlapOptions::with_strategy(StrategySpec::paper_default().with_unroll(false)),
            None,
            artifact_cache(),
        )
        .step_time;
        let unrolled =
            run_overlapped(&cfg, OverlapOptions::paper_default(), None, artifact_cache())
                .step_time;
        let row = Row {
            model: cfg.name.clone(),
            normalized_no_unroll: no_unroll / base,
            normalized_unrolled: unrolled / base,
        };
        println!(
            "{:<10} {:>11.3} {:>12.3} {:>11.1}%",
            row.model,
            row.normalized_no_unroll,
            row.normalized_unrolled,
            100.0 * (row.normalized_no_unroll - row.normalized_unrolled)
                / row.normalized_no_unroll,
        );
        rows.push(row);
    }
    write_json("fig14", &rows);
    report_cache(artifact_cache());
}
