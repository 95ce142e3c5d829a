//! Figure 15: performance improvements provided by bidirectional data
//! transfer (§5.4.2), on the weakly scaled GPT family.
//!
//! Paper: GPT_32B and GPT_128B see <5% improvement (small partition
//! counts along the overlapped dimension already hide most of the
//! unidirectional transfer); larger models benefit more.

use overlap_bench::{run_baseline, run_overlapped, write_json};
use overlap_core::{ArtifactCache, OverlapOptions, RingDirection, StrategySpec};
use overlap_json::json_record;
use overlap_models::table2_models;

struct Row {
    model: String,
    normalized_unidirectional: f64,
    normalized_bidirectional: f64,
}

json_record!(encode Row { model, normalized_unidirectional, normalized_bidirectional });

fn main() {
    println!("Figure 15: performance improvements provided by bidirectional transfer");
    println!("(normalized step time, baseline = 1.0; lower is better)\n");
    println!("{:<10} {:>15} {:>15} {:>10}", "model", "unidirectional", "bidirectional", "gain");
    let mut rows = Vec::new();
    let cache = ArtifactCache::disabled();
    for cfg in table2_models() {
        let base = run_baseline(&cfg, None).step_time;
        let uni = run_overlapped(
            &cfg,
            OverlapOptions::with_strategy(
                StrategySpec::paper_default().with_ring(RingDirection::Unidirectional),
            ),
            None,
            &cache,
        )
        .step_time;
        let bidi = run_overlapped(&cfg, OverlapOptions::paper_default(), None, &cache).step_time;
        let row = Row {
            model: cfg.name.clone(),
            normalized_unidirectional: uni / base,
            normalized_bidirectional: bidi / base,
        };
        println!(
            "{:<10} {:>15.3} {:>15.3} {:>9.1}%",
            row.model,
            row.normalized_unidirectional,
            row.normalized_bidirectional,
            100.0 * (row.normalized_unidirectional - row.normalized_bidirectional)
                / row.normalized_unidirectional,
        );
        rows.push(row);
    }
    write_json("fig15", &rows);
}
