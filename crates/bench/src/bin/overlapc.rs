//! `overlapc` — a small compiler driver over serialized modules.
//!
//! ```sh
//! # Write a demo module to ./module.json:
//! cargo run --release -p overlap-bench --bin overlapc -- demo module.json
//!
//! # Compile it for an 8-chip ring and report:
//! cargo run --release -p overlap-bench --bin overlapc -- compile module.json
//!
//! # Same, serving repeated compiles from a persistent artifact cache:
//! cargo run --release -p overlap-bench --bin overlapc -- \
//!     compile module.json --cache-dir .overlap-cache
//! ```
//!
//! `compile` runs the full overlap pipeline on the module, prints the
//! §5.5 gate decisions, the before/after instruction statistics, the
//! simulated baseline vs. overlapped step times and an ASCII timeline,
//! and writes `<input>.trace.json` (Chrome tracing) plus `<input>.dot`
//! (GraphViz) next to the input. `--chrome-trace PATH` redirects the
//! tracing JSON to an explicit path for inspection in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. With `--cache-dir`
//! (or the `OVERLAP_CACHE_DIR` environment variable) the compile goes
//! through the on-disk artifact cache: a re-run of the same module on
//! the same machine skips the pipeline and serves the bit-identical
//! bundle. `--strategy STRATEGY.json` swaps the paper-default
//! decomposition strategy for one from a file — e.g. a
//! `winner_strategy` object copied out of `results/fig_autotune.json`.

use overlap_bench::report_cache;
use overlap_core::{ArtifactCache, CompileReport, OverlapOptions, OverlapPipeline, StrategySpec};
use overlap_hlo::{to_dot, Builder, DType, DotDims, Module, ReplicaGroups, Shape};
use overlap_json::{FromJson, Json, ToJson};
use overlap_mesh::{FaultSpec, Machine};
use overlap_sim::Simulation;

fn demo_module() -> Module {
    let n = 8;
    let mut b = Builder::new("demo", n);
    let x = b.parameter(Shape::new(DType::BF16, vec![16384, 2048]), "activation");
    let w1 = b.parameter(Shape::new(DType::BF16, vec![2048, 8192 / n]), "w1_shard");
    let w2 = b.parameter(Shape::new(DType::BF16, vec![8192 / n, 2048]), "w2_shard");
    let w1f = b.all_gather(w1, 1, ReplicaGroups::full(n), "w1");
    let h = b.einsum(x, w1f, DotDims::matmul(), "h");
    let w2f = b.all_gather(w2, 0, ReplicaGroups::full(n), "w2");
    let y = b.einsum(h, w2f, DotDims::matmul(), "y");
    b.build(vec![y])
}

fn usage() -> ! {
    eprintln!(
        "usage: overlapc demo <out.json> | overlapc compile <module.json> \
         [--cache-dir DIR] [--fault-spec FAULTS.json] [--strategy STRATEGY.json] \
         [--chrome-trace PATH]"
    );
    std::process::exit(2);
}

/// Exits with a user-facing error message (bench bins never panic on
/// bad inputs or I/O; see the workspace's `deny(clippy::unwrap_used)`
/// direction).
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// `--cache-dir DIR` wins over the environment; without either, the
/// cache is process-local (in-memory) and a single compile never hits.
fn cache_from_args(args: &[String]) -> ArtifactCache {
    match args.iter().position(|a| a == "--cache-dir") {
        Some(i) => match args.get(i + 1) {
            Some(dir) => ArtifactCache::with_disk_dir(dir),
            None => usage(),
        },
        None => ArtifactCache::from_env(),
    }
}

/// `--fault-spec FAULTS.json` compiles and simulates for the degraded
/// machine the file describes (see `FaultSpec`'s JSON layout). A parse
/// failure is a user error, reported and fatal.
fn fault_spec_from_args(args: &[String]) -> Option<FaultSpec> {
    let i = args.iter().position(|a| a == "--fault-spec")?;
    let Some(path) = args.get(i + 1) else { usage() };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read fault spec {path}: {e}")));
    let parsed = match Json::parse(&text) {
        Ok(v) => FaultSpec::from_json(&v),
        Err(e) => Err(e.to_string()),
    };
    match parsed {
        Ok(spec) => Some(spec),
        Err(e) => fail(format!("invalid fault spec {path}: {e}")),
    }
}

/// `--strategy STRATEGY.json` compiles with an explicit [`StrategySpec`]
/// instead of the paper default (see the JSON layout the autotuner's
/// leaderboard records under `winner_strategy`). The spec is validated
/// — a chunked window on a bidirectional ring is rejected here rather
/// than silently falling back — and echoed in the banner so the report
/// is self-describing.
fn strategy_from_args(args: &[String]) -> Option<StrategySpec> {
    let i = args.iter().position(|a| a == "--strategy")?;
    let Some(path) = args.get(i + 1) else { usage() };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read strategy {path}: {e}")));
    let parsed = match Json::parse(&text) {
        Ok(v) => StrategySpec::from_json(&v),
        Err(e) => Err(e.to_string()),
    };
    let spec = match parsed {
        Ok(spec) => spec,
        Err(e) => fail(format!("invalid strategy {path}: {e}")),
    };
    if let Err(e) = spec.validate() {
        fail(format!("infeasible strategy {path}: {e}"));
    }
    Some(spec)
}

/// The pre-compile banner: every note about how this compile deviates
/// from the fault-free paper-default path (a `--fault-spec` degraded
/// machine, a `--strategy` override) lands in ONE sorted section.
/// Historically each flag printed its own line at the point where it
/// was parsed, so the banner's shape depended on which knobs were set
/// and in what order the driver happened to check them; collecting the
/// notes here keeps the output deterministic and diffable.
fn banner_lines(faults: Option<&FaultSpec>, strategy: Option<&StrategySpec>) -> Vec<String> {
    let mut lines = Vec::new();
    if let Some(spec) = faults {
        lines.push(format!("compiling for a degraded machine (fault seed {})", spec.seed));
    }
    if let Some(spec) = strategy {
        lines.push(format!("compiling with strategy {}", spec.describe()));
    }
    lines.sort();
    lines
}

/// `--chrome-trace PATH` overrides where the Chrome-tracing JSON of the
/// overlapped schedule lands (default: `<input>.trace.json` next to the
/// input), so a schedule can be dropped straight into Perfetto /
/// `chrome://tracing` without touching the module's directory.
fn chrome_trace_from_args(args: &[String]) -> Option<String> {
    let i = args.iter().position(|a| a == "--chrome-trace")?;
    match args.get(i + 1) {
        Some(path) => Some(path.clone()),
        None => usage(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("demo") => {
            let path = args.get(2).map(String::as_str).unwrap_or("module.json");
            let m = demo_module();
            if let Err(e) = std::fs::write(path, m.to_json().to_pretty()) {
                fail(format!("cannot write {path}: {e}"));
            }
            println!("wrote {path} ({} instructions, {} partitions)", m.len(), m.num_partitions());
        }
        Some("compile") => {
            let Some(path) = args.get(2) else { usage() };
            let cache = cache_from_args(&args);
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read module {path}: {e}")));
            let module = Module::from_json_str(&text)
                .unwrap_or_else(|e| fail(format!("cannot parse module {path}: {e}")));
            // Deserialized modules are untrusted: verify before use.
            if let Err(e) = module.verify() {
                fail(format!("module failed verification: {e}"));
            }
            let machine = Machine::tpu_v4_like(module.num_partitions());
            let faults = fault_spec_from_args(&args);
            if let Some(spec) = &faults {
                if let Err(e) = spec.validate(machine.mesh()) {
                    let chips = machine.mesh().num_devices();
                    fail(format!("fault spec does not fit the {chips}-chip machine: {e}"));
                }
            }
            let strategy = strategy_from_args(&args);
            let banner = banner_lines(faults.as_ref(), strategy.as_ref());
            if !banner.is_empty() {
                for line in &banner {
                    println!("{line}");
                }
                println!();
            }
            let options = match strategy {
                Some(spec) => OverlapOptions::with_strategy(spec),
                None => OverlapOptions::paper_default(),
            };
            let mut pipeline = OverlapPipeline::new(options);
            if let Some(spec) = &faults {
                pipeline = pipeline.with_faults(spec.clone());
            }
            let compiled = pipeline
                .compile_cached(&module, &machine, &cache)
                .unwrap_or_else(|e| fail(format!("cannot compile {path}: {e}")));
            println!("{}", CompileReport::new(&module, &compiled, &machine));

            let run = |sim: Simulation<'_>, what: &str| {
                sim.faults(faults.as_ref())
                    .run()
                    .unwrap_or_else(|e| fail(format!("cannot simulate the {what}: {e}")))
            };
            let baseline = run(Simulation::new(&module, &machine), "baseline");
            let over = run(compiled.simulation(&machine), "overlapped schedule");
            println!(
                "\nbaseline {:.3} ms -> overlapped {:.3} ms ({:.2}x)",
                baseline.makespan() * 1e3,
                over.makespan() * 1e3,
                baseline.makespan() / over.makespan()
            );
            println!("{}", over.timeline().render(76));

            let trace =
                chrome_trace_from_args(&args).unwrap_or_else(|| format!("{path}.trace.json"));
            if let Err(e) = std::fs::write(&trace, over.timeline().to_chrome_trace()) {
                fail(format!("cannot write trace {trace}: {e}"));
            }
            let dot = format!("{path}.dot");
            if let Err(e) = std::fs::write(&dot, to_dot(&compiled.module)) {
                fail(format!("cannot write dot {dot}: {e}"));
            }
            println!("\nwrote {trace} and {dot}");
            report_cache(&cache);
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_merges_fault_and_strategy_notes_into_one_sorted_section() {
        assert!(banner_lines(None, None).is_empty());

        let faults = FaultSpec::seeded(7).with_jitter(5e-5);
        let strategy = StrategySpec::paper_default();

        let only_faults = banner_lines(Some(&faults), None);
        assert_eq!(only_faults, vec!["compiling for a degraded machine (fault seed 7)"]);

        let only_strategy = banner_lines(None, Some(&strategy));
        assert_eq!(only_strategy.len(), 1);
        assert!(only_strategy[0].starts_with("compiling with strategy "));

        // Both flags: one combined section, sorted, with each flag's
        // note rendered exactly as it renders alone.
        let both = banner_lines(Some(&faults), Some(&strategy));
        assert_eq!(both.len(), 2);
        let mut sorted = both.clone();
        sorted.sort();
        assert_eq!(both, sorted, "banner must be deterministically ordered");
        assert!(both.contains(&only_faults[0]));
        assert!(both.contains(&only_strategy[0]));
    }

    #[test]
    fn banner_echoes_the_precision_knob() {
        // A quantized `--strategy` file changes what bytes move on the
        // wire; the banner must say so, and a lossless strategy must
        // not invent a precision note.
        use overlap_hlo::WireFormat;
        let quantized = StrategySpec::paper_default().with_wire(WireFormat::int8());
        let lines = banner_lines(None, Some(&quantized));
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("int8x64"), "banner hides the wire format: {}", lines[0]);

        let lossless = banner_lines(None, Some(&StrategySpec::paper_default()));
        assert!(!lossless[0].contains("int8"), "lossless banner grew a precision note");
        assert!(!lossless[0].contains("bf16"), "lossless banner grew a precision note");
    }
}
