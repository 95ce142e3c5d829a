//! A laptop-scale weak-scaling sweep: a GPT-style layer grows with the
//! mesh and the overlap pipeline keeps the communication hidden
//! (the Fig. 13 experiment in miniature).
//!
//! ```sh
//! cargo run --release --example weak_scaling
//! ```

use overlap::core::{OverlapOptions, OverlapPipeline};
use overlap::models::{Arch, ModelConfig, PartitionStrategy};
use overlap::sim::Simulation;

fn config(chips: usize, model_dim: usize) -> ModelConfig {
    ModelConfig {
        name: format!("gpt_mini_{chips}"),
        params: 0.0,
        layers: 4,
        model_dim,
        ff_dim: 4 * model_dim,
        batch: chips * 8,
        seq_len: 64,
        chips,
        arch: Arch::Decoder,
        strategy: PartitionStrategy::TwoD,
    }
}

fn main() {
    println!("{:<14} {:>6} {:>12} {:>12} {:>9}", "config", "chips", "baseline", "overlap", "speedup");
    for (chips, dim) in [(4, 512), (8, 1024), (16, 1024), (32, 2048), (64, 2048)] {
        let cfg = config(chips, dim);
        let module = cfg.layer_module();
        let machine = cfg.machine();
        let base = Simulation::new(&module, &machine).run().expect("baseline");
        let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
            .run(&module, &machine)
            .expect("pipeline");
        let over = compiled.simulation(&machine).run().expect("simulate");
        println!(
            "{:<14} {:>6} {:>9.3} ms {:>9.3} ms {:>8.2}x",
            cfg.name,
            chips,
            base.makespan() * 1e3 * cfg.layers as f64,
            over.makespan() * 1e3 * cfg.layers as f64,
            base.makespan() / over.makespan(),
        );
    }
}
