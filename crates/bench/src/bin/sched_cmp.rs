//! Compare scheduler quality breakdowns.
use overlap_bench::{artifact_cache, report_cache};
use overlap_core::{OverlapOptions, OverlapPipeline, SchedulerKind};
use overlap_models::{find_model, model_names};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "GPT_512B".into());
    let Some(cfg) = find_model(&which) else {
        eprintln!("unknown model {which}; known names: {}", model_names().join(", "));
        std::process::exit(1);
    };
    let module = cfg.layer_module();
    let machine = cfg.machine();
    for sched in [SchedulerKind::BottomUp, SchedulerKind::TopDown] {
        let mut o = OverlapOptions::paper_default();
        o.scheduler = sched;
        let c = match OverlapPipeline::new(o).compile_cached(&module, &machine, artifact_cache())
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot compile {} with {sched:?}: {e}", cfg.name);
                std::process::exit(1);
            }
        };
        let r = match c.simulation(&machine).run() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot simulate {} with {sched:?}: {e}", cfg.name);
                std::process::exit(1);
            }
        };
        println!("{sched:?}: makespan {:.4e} comp {:.4e} mem {:.4e} sync {:.4e} exposed {:.4e} hidden {:.4e}",
            r.makespan(), r.compute_time(), r.memory_time(), r.sync_comm_time(), r.exposed_async_time(), r.hidden_async_time());
        println!("{}", r.timeline().render(110));
        if std::env::args().nth(2).is_some() {
            for sp in r.timeline().spans.iter().take(48) {
                println!("{:>9.3} {:>9.3}  {:?} {}", sp.start*1e3, sp.end*1e3, sp.kind, sp.name);
            }
        }
    }
    report_cache(artifact_cache());
}
