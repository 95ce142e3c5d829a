//! Regenerates the paper's figures and tables from the registry
//! ([`overlap_bench::figures::REGISTRY`]): the named figure's sweep (or
//! every figure's, with `--all`) writes `results/<name>.json` and its
//! markdown table is printed between the `<!-- fig:NAME -->` markers
//! EXPERIMENTS.md carries.
//!
//! ```sh
//! cargo run --release -p overlap-bench --bin fig -- fig12
//! cargo run --release -p overlap-bench --bin fig -- --all
//! cargo run --release -p overlap-bench --bin fig -- --smoke fig_autotune
//! ```
//!
//! `--smoke` runs the seeded sweeps on the 16-chip smoke machine alone
//! ([`SweepConfig::smoke`]) and writes `results/<name>_smoke.json`,
//! which is not committed, instead of the figure's own record.
//!
//! Compiles go through the process-wide artifact cache
//! (`OVERLAP_CACHE_DIR` adds its disk tier); its counters print last.
//! A failed figure — the `gate_accuracy` error oracle and
//! `fig_autotune`'s winner check included — exits nonzero without
//! writing its JSON.

use overlap_bench::figures::{find, marked, Figure, SweepConfig, REGISTRY};
use overlap_bench::{artifact_cache, or_exit, report_cache, write_json};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.first().is_some_and(|a| a == "--smoke");
    if smoke {
        args.remove(0);
    }
    let figures: Vec<&Figure> = match args.as_slice() {
        [all] if all == "--all" => REGISTRY.iter().collect(),
        [name] => vec![find(name).unwrap_or_else(|| usage())],
        _ => usage(),
    };
    let sweep = SweepConfig { smoke, cache: artifact_cache() };
    for figure in figures {
        let json = or_exit((figure.run)(&sweep), &format!("regenerate {}", figure.name));
        if smoke {
            write_json(&format!("{}_smoke", figure.name), &json);
        } else {
            write_json(figure.name, &json);
        }
        print!("{}", marked(figure.name, &(figure.table)(&json)));
    }
    report_cache(artifact_cache());
}

fn usage() -> ! {
    let names: Vec<&str> = REGISTRY.iter().map(|f| f.name).collect();
    eprintln!("usage: fig [--smoke] <name> | fig [--smoke] --all\nfigures: {}", names.join(", "));
    std::process::exit(2);
}
