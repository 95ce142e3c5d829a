//! `ledger` — the repo's benchmark. Four workloads, eight end-to-end
//! metrics, a per-layer waterfall measured from outside. See README.md
//! beside this package for what each number means and why it exists.
//!
//! ```sh
//! ledger run --workload serve_hot --seed 1 --seconds 20 --trace 0   # one run, one JSON line
//! ledger all --seed 1                     # every workload, untraced then traced
//! ledger check --seed 1                   # two sets of runs, compared against the bounds
//! ```

mod check;
mod compile_cold;
mod gen;
mod layers;
mod metrics;
mod oracle;
mod run;
mod serve;
mod stats;
mod sys;
mod tail_draws;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use overlap_json::Json;

use metrics::{Def, END_TO_END, PER_LAYER};
use run::{RunArgs, RunResult};

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["compile_cold", "tail_draws", "serve_hot", "serve_churn"];

/// Seconds a run measures for when the command line does not say
/// (`BENCHMARK.json`'s `run_seconds`).
pub const DEFAULT_SECONDS: u64 = 20;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger run --workload NAME --seed N [--seconds N] [--trace 0|1] [--trace-file FILE] \
         [--overlapd PATH] [--full]\n       ledger all --seed N [--seconds N] [--trace FILE]\n       \
         ledger check --seed N [--seconds N]\nworkloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs after the subcommand.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--full" {
                pairs.push((flag.clone(), "1".to_string()));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument {flag:?}"));
            }
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    pub fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    pub fn number(&self, flag: &str) -> Result<Option<u64>, String> {
        self.get(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag} wants a whole number, got {v:?}")))
            .transpose()
    }
}

/// The result line: the four keys of the benchmark contract, plus — only
/// under `--full`, which `all` and `check` pass to their child runs —
/// everything else the run knows.
fn result_line(result: &RunResult, defs: &[Def], full: bool) -> Result<String, String> {
    let mut line = Json::obj()
        .with("correct", result.failed == 0)
        .with("attempted", result.attempted)
        .with("failed", result.failed)
        .with("metrics", result.metrics.to_json(defs)?);
    if full {
        let notes: Vec<Json> = result.notes.iter().map(|n| n.as_str().into()).collect();
        line.set("notes", notes.into());
        if let Some(path) = &result.trace_file {
            line.set("trace_file", path.display().to_string().into());
        }
        let mut self_ms = Json::obj();
        for (name, ms) in &result.self_ms {
            self_ms.set(name, (*ms).into());
        }
        line.set("self_ms", self_ms);
    }
    Ok(line.to_string())
}

fn run_command(flags: &Flags) -> Result<ExitCode, String> {
    let trace = match flags.get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    let args = RunArgs {
        workload: flags.get("--workload").ok_or("run needs --workload")?.to_string(),
        seed: flags.number("--seed")?.ok_or("run needs --seed")?,
        seconds: flags.number("--seconds")?.unwrap_or(DEFAULT_SECONDS),
        trace,
        trace_file: flags.get("--trace-file").map(PathBuf::from),
        overlapd: flags.get("--overlapd").map(str::to_string),
    };
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds wants 1 to 60, got {}", args.seconds));
    }
    let result = run::run(&args)?;
    for note in &result.notes {
        eprintln!("ledger: check failed: {note}");
    }
    let full = flags.get("--full").is_some();
    let defs: Vec<Def> = match (full, trace) {
        // Untraced runs still time the calibration kernel: `check` needs
        // it to tell a noisy run from a slow build.
        (true, false) => END_TO_END
            .iter()
            .chain(PER_LAYER.iter().filter(|d| d.name.starts_with("machine.")))
            .copied()
            .collect(),
        (true, true) => END_TO_END.iter().chain(PER_LAYER).copied().collect(),
        (false, false) => END_TO_END.to_vec(),
        (false, true) => PER_LAYER.to_vec(),
    };
    println!("{}", result_line(&result, &defs, full)?);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    sys::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else { return usage() };
    let outcome = Flags::parse(rest).and_then(|flags| match command.as_str() {
        "run" => run_command(&flags),
        "all" => check::all(&flags),
        "check" => check::check(&flags),
        _ => Ok(usage()),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
