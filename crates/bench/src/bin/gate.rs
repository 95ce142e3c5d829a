//! Diagnostic: print the §5.5 cost-gate decisions for one model's layer —
//! per-pattern `comp_t`, `comm_t`, `comm_t_ring`, `extra_t`, the
//! decomposed-compute estimate, the chosen transfer direction mode and
//! the verdict.
//!
//! ```sh
//! cargo run --release -p overlap-bench --bin gate [MODEL]
//! ```

use overlap_bench::or_exit;
use overlap_core::{find_patterns, CostModel, StrategySpec};
use overlap_hlo::ModuleAnalysis;
use overlap_models::{find_model, model_names};
use overlap_sim::CostTable;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "GPT_1T".into());
    let Some(cfg) = find_model(&which) else {
        eprintln!("unknown model {which}; known names: {}", model_names().join(", "));
        std::process::exit(1);
    };
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let cm = CostModel::new(&machine, &StrategySpec::paper_default());
    let patterns = find_patterns(&module, &ModuleAnalysis::of(&module));
    println!(
        "{}: {} candidate patterns on mesh {:?}\n",
        cfg.name,
        patterns.len(),
        machine.mesh().shape()
    );
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6} {:>9}",
        "einsum", "comp_t", "comm_t", "ring_t", "comp_d", "extra_t", "bidi", "verdict"
    );
    let table = or_exit(CostTable::new(&module, &machine), "cost the layer");
    let decisions = cm.select(&table, &module, &patterns, false);
    for (d, _) in &decisions {
        println!(
            "{:<22} {:>9.2}ms {:>9.2}ms {:>9.2}ms {:>9.2}ms {:>9.2}ms {:>6} {:>9}",
            module.instr(d.pattern.einsum).name(),
            d.comp_t * 1e3,
            d.comm_t * 1e3,
            d.comm_t_ring * 1e3,
            d.comp_d * 1e3,
            d.extra_t * 1e3,
            if d.bidirectional { "yes" } else { "no" },
            if d.beneficial { "overlap" } else { "keep" },
        );
    }
    let kept = decisions.iter().filter(|(d, _)| d.beneficial).count();
    println!("\n{kept} of {} einsums will be decomposed", decisions.len());
}
