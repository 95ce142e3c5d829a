//! Diagnostic: dump the first timeline spans of a model's overlapped
//! schedule.
//!
//! ```sh
//! cargo run --release -p overlap-bench --bin spans [MODEL] [COUNT]
//! ```

use overlap_core::{OverlapOptions, OverlapPipeline};
use overlap_models::{find_model, model_names};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "GPT_32B".into());
    let count: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let Some(cfg) = find_model(&which) else {
        eprintln!("unknown model {which}; known names: {}", model_names().join(", "));
        std::process::exit(1);
    };
    let module = cfg.layer_module();
    let machine = cfg.machine();
    let compiled = match OverlapPipeline::new(OverlapOptions::paper_default())
        .run(&module, &machine)
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot compile {}: {e}", cfg.name);
            std::process::exit(1);
        }
    };
    let r = match compiled.simulation(&machine).run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot simulate {}: {e}", cfg.name);
            std::process::exit(1);
        }
    };
    println!("{} — first {count} spans of {}:", cfg.name, r.timeline().spans.len());
    for s in r.timeline().spans.iter().take(count) {
        println!(
            "{:>10.4} ms {:>10.4} ms  {:?} {}",
            s.start * 1e3,
            s.end * 1e3,
            s.kind,
            s.name
        );
    }
}
