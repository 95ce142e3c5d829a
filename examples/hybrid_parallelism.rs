//! §7.3 in practice: how the overlap technique shifts the optimal split
//! between pipeline and intra-layer (tensor) parallelism.
//!
//! For a fixed 64-chip budget we sweep pipeline depth × tensor width
//! (GPipe-style synchronous pipeline, flushed per batch) and measure each
//! stage with the real simulator — once with baseline synchronous
//! collectives and once with the overlap pipeline. Cheaper intra-layer
//! communication favours wider tensor groups (fewer stages, fewer pipeline
//! bubbles), which is exactly the trade-off shift §7.3 describes.
//!
//! ```sh
//! cargo run --release --example hybrid_parallelism
//! ```

use overlap::core::{OverlapOptions, OverlapPipeline};
use overlap::models::hybrid::sweep_hybrid;
use overlap::models::{Arch, ModelConfig, PartitionStrategy};
use overlap::sim::Simulation;

fn main() {
    let cfg = ModelConfig {
        name: "hybrid_demo".into(),
        params: 0.0,
        layers: 16,
        model_dim: 2048,
        ff_dim: 8192,
        batch: 512,
        seq_len: 64,
        chips: 64,
        arch: Arch::Decoder,
        strategy: PartitionStrategy::TwoD,
    };
    let microbatches = 8;

    let baseline = sweep_hybrid(&cfg, microbatches, |c, m| {
        Ok(Simulation::new(&c.layer_module(), m).run().expect("baseline sim").makespan())
    })
    .expect("baseline sweep");

    let overlapped = sweep_hybrid(&cfg, microbatches, |c, m| {
        let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
            .run(&c.layer_module(), m)?;
        Ok(compiled.simulation(m).run().expect("overlapped sim").makespan())
    })
    .expect("overlapped sweep");

    println!("{} on {} chips, {microbatches} microbatches/batch\n", cfg.name, cfg.chips);
    println!(
        "{:>7} {:>8} {:>8} | {:>12} {:>12}",
        "stages", "tensor", "bubble", "base step", "overlap step"
    );
    for (b, o) in baseline.points.iter().zip(&overlapped.points) {
        println!(
            "{:>7} {:>8} {:>7.0}% | {:>9.3} ms {:>9.3} ms",
            b.stages,
            b.tensor_chips,
            100.0 * b.bubble_fraction,
            b.step_time * 1e3,
            o.step_time * 1e3,
        );
    }
    println!(
        "\noptimal split: baseline {} stages x {} chips; overlapped {} stages x {} chips",
        baseline.best().stages,
        baseline.best().tensor_chips,
        overlapped.best().stages,
        overlapped.best().tensor_chips,
    );
    println!(
        "best step time: {:.3} ms -> {:.3} ms ({:.2}x)",
        baseline.best().step_time * 1e3,
        overlapped.best().step_time * 1e3,
        baseline.best().step_time / overlapped.best().step_time,
    );
}
