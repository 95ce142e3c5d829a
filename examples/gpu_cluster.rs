//! §7.2's portability claim: "the idea can also be applied to other
//! hardware ML systems, such as GPU clusters connected via high-bandwidth
//! and low-latency NVLink Network interconnects." Runs the Table 2 GPT
//! family on the NVLink-like machine preset.
//!
//! ```sh
//! cargo run --release --example gpu_cluster
//! ```

use overlap::core::{OverlapOptions, OverlapPipeline};
use overlap::mesh::Machine;
use overlap::models::table2_models;
use overlap::sim::Simulation;

fn main() {
    println!("GPT family on the GPU-cluster (NVLink-like) machine preset\n");
    println!("{:<10} {:>6} {:>12} {:>10} {:>8}", "model", "chips", "base comm%", "util", "speedup");
    for cfg in table2_models() {
        let module = cfg.layer_module();
        // square_ish(chips) matches the model's own 2-D mesh layout.
        let machine = Machine::gpu_cluster_like(cfg.chips);
        let baseline = Simulation::new(&module, &machine).run().expect("baseline");
        let compiled = OverlapPipeline::new(OverlapOptions::paper_default())
            .run(&module, &machine)
            .expect("pipeline");
        let over = compiled.simulation(&machine).run().expect("simulate");
        println!(
            "{:<10} {:>6} {:>11.1}% {:>9.1}% {:>7.2}x",
            cfg.name,
            cfg.chips,
            100.0 * baseline.comm_fraction(),
            100.0 * over.flops_utilization(machine.peak_flops()),
            baseline.makespan() / over.makespan(),
        );
    }
}
