//! Diagnostic: per-model breakdown for calibration.
use overlap_core::{OverlapOptions, OverlapPipeline};
use overlap_models::{find_model, model_names};
use overlap_sim::Simulation;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "GPT_32B".into());
    let Some(cfg) = find_model(&which) else {
        eprintln!("unknown model {which}; known names: {}", model_names().join(", "));
        std::process::exit(1);
    };
    let module = cfg.layer_module();
    let machine = cfg.machine();
    println!("mesh {:?} instrs {} tokens/replica {}", machine.mesh().shape(), module.len(), cfg.tokens_per_replica());
    let base = match Simulation::new(&module, &machine).run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot simulate the baseline of {}: {e}", cfg.name);
            std::process::exit(1);
        }
    };
    println!("BASE  makespan {:.4e} comp {:.4e} mem {:.4e} sync {:.4e} util {:.3}",
        base.makespan(), base.compute_time(), base.memory_time(), base.sync_comm_time(),
        base.flops_utilization(machine.peak_flops()));
    let compiled = match OverlapPipeline::new(OverlapOptions::paper_default()).run(&module, &machine) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot compile {}: {e}", cfg.name);
            std::process::exit(1);
        }
    };
    println!("decomposed patterns: {} / decisions: {}", compiled.summaries.len(), compiled.decisions.len());
    for d in &compiled.decisions {
        println!("  comp {:.3e} comm {:.3e} ring {:.3e} extra {:.3e} beneficial {}",
            d.comp_t, d.comm_t, d.comm_t_ring, d.extra_t, d.beneficial);
    }
    let r = match compiled.simulation(&machine).run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot simulate the overlapped schedule of {}: {e}", cfg.name);
            std::process::exit(1);
        }
    };
    println!("OVLP  makespan {:.4e} comp {:.4e} mem {:.4e} sync {:.4e} exposed {:.4e} hidden {:.4e} util {:.3}",
        r.makespan(), r.compute_time(), r.memory_time(), r.sync_comm_time(), r.exposed_async_time(), r.hidden_async_time(),
        r.flops_utilization(machine.peak_flops()));
    println!("{}", r.timeline().render(110));
    let stalls = r.timeline().stall_summary();
    if !stalls.is_empty() {
        println!("exposed communication by loop:");
        for (loop_name, t) in stalls {
            println!("  {loop_name:<24} {:.3} ms", t * 1e3);
        }
    }
}
