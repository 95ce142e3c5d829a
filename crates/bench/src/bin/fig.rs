//! Regenerates the paper's figures and tables from the registry
//! ([`overlap_bench::figures::REGISTRY`]): the named figure's sweep (or
//! every figure's, with `--all`) writes `results/<name>.json` and its
//! markdown table is printed between the `<!-- fig:NAME -->` markers
//! EXPERIMENTS.md carries.
//!
//! ```sh
//! cargo run --release -p overlap-bench --bin fig -- fig12
//! cargo run --release -p overlap-bench --bin fig -- --all
//! ```
//!
//! Compiles go through the process-wide artifact cache
//! (`OVERLAP_CACHE_DIR` adds its disk tier); its counters print last.
//! A failed figure — the `gate_accuracy` error oracle included — exits
//! nonzero without writing its JSON.

use overlap_bench::figures::{find, marked, Figure, SweepConfig, REGISTRY};
use overlap_bench::{artifact_cache, or_exit, report_cache, write_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figures: Vec<&Figure> = match args.as_slice() {
        [all] if all == "--all" => REGISTRY.iter().collect(),
        [name] => vec![find(name).unwrap_or_else(|| usage())],
        _ => usage(),
    };
    let sweep = SweepConfig { smoke: false, cache: artifact_cache() };
    for figure in figures {
        let json = or_exit((figure.run)(&sweep), &format!("regenerate {}", figure.name));
        write_json(figure.name, &json);
        print!("{}", marked(figure.name, &(figure.table)(&json)));
    }
    report_cache(artifact_cache());
}

fn usage() -> ! {
    let names: Vec<&str> = REGISTRY.iter().map(|f| f.name).collect();
    eprintln!("usage: fig <name> | fig --all\nfigures: {}", names.join(", "));
    std::process::exit(2);
}
