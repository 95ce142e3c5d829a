//! §6.4: energy-consumption reduction.
//!
//! Following the paper's methodology (constant system power — idle
//! computational units cannot sleep while waiting for synchronous
//! collectives), the energy reduction equals the end-to-end time
//! improvement: 1.14 - 1.38x in the paper.

use overlap_bench::{artifact_cache, report_cache, run_comparison, write_json};
use overlap_json::json_record;
use overlap_models::table1_models;

struct Row {
    model: String,
    energy_reduction: f64,
}

json_record!(encode Row { model, energy_reduction });

fn main() {
    println!("Section 6.4: energy consumption reduction");
    println!("(constant-power model: reduction factor = step-time speedup)\n");
    println!("{:<14} {:>18}", "model", "energy reduction");
    let mut rows = Vec::new();
    for cfg in table1_models() {
        let c = run_comparison(&cfg, artifact_cache());
        let row = Row { model: cfg.name.clone(), energy_reduction: c.speedup() };
        println!("{:<14} {:>17.2}x", row.model, row.energy_reduction);
        rows.push(row);
    }
    write_json("table_energy", &rows);
    report_cache(artifact_cache());
}
