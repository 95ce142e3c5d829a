//! `ledger all` and `ledger check`: whole sets of runs. Each run is a
//! child `ledger run` process, so that every workload starts from a
//! fresh address space (peak memory and set-up time mean what they say)
//! exactly as when the benchmark's driver starts it.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use overlap_json::Json;

use crate::metrics::{Better, Def, END_TO_END, PER_LAYER};
use crate::{sys, Flags, DEFAULT_SECONDS, WORKLOADS};

/// Calibration drift above which a run's timings are not compared.
const NOISY_DRIFT: f64 = 0.10;

/// One child run's result line, parsed.
struct Reading {
    line: Json,
}

impl Reading {
    fn metric(&self, name: &str) -> Option<f64> {
        self.line.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    fn count(&self, key: &str) -> u64 {
        self.line.get(key).and_then(Json::as_u64).unwrap_or(0)
    }

    fn noisy(&self) -> bool {
        self.metric("machine.calib_drift_share").is_none_or(|d| d > NOISY_DRIFT)
    }
}

fn child_run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace_file: Option<&Path>,
) -> Result<Reading, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--full", "--workload", workload])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace_file.is_some() { "1" } else { "0" }]);
    if let Some(path) = trace_file {
        cmd.arg("--trace-file").arg(path);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: child run failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last =
        stdout.lines().last().ok_or_else(|| format!("{workload}: child run printed nothing"))?;
    Ok(Reading { line: Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))? })
}

/// One workload's runs in one set: untraced for the end-to-end metrics,
/// traced for the per-layer ones.
struct Pair {
    workload: &'static str,
    untraced: Vec<Reading>,
    traced: Reading,
}

impl Pair {
    /// The set's reading of an end-to-end metric: the median over its
    /// untraced runs that were not noisy. `None` when fewer than two (or,
    /// of a single run, that one) were steady enough to count.
    fn reading(&self, name: &str) -> Option<f64> {
        let steady: Vec<f64> =
            self.untraced.iter().filter(|r| !r.noisy()).filter_map(|r| r.metric(name)).collect();
        (steady.len() >= self.untraced.len().min(2)).then(|| crate::stats::median(&steady))
    }

    fn failed(&self) -> u64 {
        self.untraced.iter().chain([&self.traced]).map(|r| r.count("failed")).sum()
    }
}

fn run_set(
    seed: u64,
    seconds: u64,
    trace_dir: &Path,
    untraced_runs: usize,
) -> Result<Vec<Pair>, String> {
    WORKLOADS
        .iter()
        .map(|&workload| {
            eprintln!("ledger: {workload} ({untraced_runs} untraced, then traced) ...");
            let untraced = (0..untraced_runs)
                .map(|_| child_run(workload, seed, seconds, None))
                .collect::<Result<Vec<_>, _>>()?;
            let trace = trace_dir.join(format!("{workload}.json"));
            let traced = child_run(workload, seed, seconds, Some(&trace))?;
            Ok(Pair { workload, untraced, traced })
        })
        .collect()
}

fn print_metrics(reading: &Reading, defs: &[Def]) {
    for d in defs {
        match reading.metric(d.name) {
            Some(v) => println!("  {:<34} {:>16.6} {}", d.name, v, d.unit),
            None => println!("  {:<34} {:>16} {}", d.name, "missing", d.unit),
        }
    }
}

/// Joins the per-workload Chrome traces into one file, one process row
/// per workload.
fn merge_traces(trace_dir: &Path, into: &Path) -> Result<(), String> {
    let mut events: Vec<Json> = Vec::new();
    for (n, workload) in WORKLOADS.iter().enumerate() {
        let pid = n as u64 + 1;
        let path = trace_dir.join(format!("{workload}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let trace = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        events.push(
            Json::obj()
                .with("name", "process_name")
                .with("ph", "M")
                .with("pid", pid)
                .with("args", Json::obj().with("name", *workload)),
        );
        for event in trace.get("traceEvents").and_then(Json::as_array).unwrap_or(&[]) {
            let mut event = event.clone();
            event.set("pid", pid.into());
            events.push(event);
        }
    }
    std::fs::write(into, Json::obj().with("traceEvents", events).to_string())
        .map_err(|e| format!("{}: {e}", into.display()))
}

fn common_flags(flags: &Flags) -> Result<(u64, u64), String> {
    let seed = flags.number("--seed")?.ok_or("--seed is required")?;
    let seconds = flags.number("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    Ok((seed, seconds))
}

/// `ledger all`: every workload untraced, then traced; every metric by
/// name with its unit; non-zero exit if any output check failed.
pub fn all(flags: &Flags) -> Result<ExitCode, String> {
    let (seed, seconds) = common_flags(flags)?;
    let scratch = sys::ScratchDir::new("traces")?;
    let set = run_set(seed, seconds, scratch.path(), 1)?;
    let trace_file = match flags.get("--trace") {
        Some(path) => PathBuf::from(path),
        None => sys::exe_dir()?.join(format!("ledger-trace-{seed}.json")),
    };
    merge_traces(scratch.path(), &trace_file)?;

    let mut failed = 0;
    for pair in &set {
        let untraced = &pair.untraced[0];
        println!(
            "== {} — end to end (untraced run: {} attempted, {} failed)",
            pair.workload,
            untraced.count("attempted"),
            untraced.count("failed")
        );
        print_metrics(untraced, END_TO_END);
        println!(
            "== {} — per layer (traced run: {} attempted, {} failed)",
            pair.workload,
            pair.traced.count("attempted"),
            pair.traced.count("failed")
        );
        print_metrics(&pair.traced, PER_LAYER);
        println!("== {} — self time by span (a span minus what its children cover)", pair.workload);
        if let Some(Json::Obj(spans)) = pair.traced.line.get("self_ms") {
            for (name, ms) in spans {
                println!("  {:<34} {:>16.3} ms", name, ms.as_f64().unwrap_or(0.0));
            }
        }
        failed += pair.failed();
    }
    println!("trace: {}", trace_file.display());
    println!("nproc: {}", sys::nproc());
    if failed > 0 {
        println!("FAILED: {failed} output checks failed (details on stderr)");
        return Ok(ExitCode::FAILURE);
    }
    println!("ok: every output check passed on every workload");
    Ok(ExitCode::SUCCESS)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_share(def: &Def, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Untraced runs behind each of `check`'s readings. One run can sit 15 %
/// off the next on a shared box (a whole process runs fast or slow), so
/// a reading is the median of three.
const RUNS_PER_READING: usize = 3;

/// `ledger check`: two full sets of runs of this build must agree within
/// the benchmark's own bounds.
pub fn check(flags: &Flags) -> Result<ExitCode, String> {
    let (seed, seconds) = common_flags(flags)?;
    let scratch = sys::ScratchDir::new("check")?;
    let first = run_set(seed, seconds, scratch.path(), RUNS_PER_READING)?;
    let second = run_set(seed, seconds, scratch.path(), RUNS_PER_READING)?;
    let (mut breaches, mut noisy) = (0, 0);
    for (a, b) in first.iter().zip(&second) {
        println!("== {}", a.workload);
        for (label, set) in [("first", a), ("second", b)] {
            let drifts: Vec<String> = set
                .untraced
                .iter()
                .map(|r| match r.metric("machine.calib_drift_share") {
                    Some(d) if r.noisy() => format!("{d:.3} (noisy, left out)"),
                    Some(d) => format!("{d:.3}"),
                    None => "missing".to_string(),
                })
                .collect();
            println!("  calibration drift, {label} set: {}", drifts.join(", "));
        }
        if a.failed() + b.failed() > 0 {
            println!("  BREACH: {} output checks failed", a.failed() + b.failed());
            breaches += 1;
        }
        println!(
            "  {:<28} {:>14} {:>14} {:>9} {:>9}",
            "metric", "first", "second", "worse by", "bound"
        );
        for d in END_TO_END {
            if d.exact {
                let bits: Vec<Option<u64>> = a
                    .untraced
                    .iter()
                    .chain(&b.untraced)
                    .map(|r| r.metric(d.name).map(f64::to_bits))
                    .collect();
                let same = bits[0].is_some() && bits.iter().all(|x| *x == bits[0]);
                breaches += u32::from(!same);
                let shown =
                    bits[0].map_or("missing".to_string(), |x| format!("{:.6}", f64::from_bits(x)));
                let verdict = if same { "ok" } else { "BREACH (must match to the bit)" };
                println!("  {:<28} {shown:>14} {:>14} {:>19}  {verdict}", d.name, "", "exact");
                continue;
            }
            let (Some(x), Some(y)) = (a.reading(d.name), b.reading(d.name)) else {
                println!("  {:<28} too few steady runs; not compared", d.name);
                noisy += 1;
                continue;
            };
            // Either order may be the worse one: both are the same build.
            let worse = worse_share(d, x, y).max(worse_share(d, y, x));
            let verdict = if worse <= d.bound { "ok" } else { "BREACH" };
            breaches += u32::from(worse > d.bound);
            println!(
                "  {:<28} {x:>14.6} {y:>14.6} {worse:>9.4} {:>9.4}  {verdict}",
                d.name, d.bound
            );
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let (x, y) = (a.traced.metric(d.name), b.traced.metric(d.name));
            let same = x.is_some() && x.map(f64::to_bits) == y.map(f64::to_bits);
            breaches += u32::from(!same);
            let shown = |v: Option<f64>| v.map_or("missing".to_string(), |v| format!("{v:.6}"));
            let verdict = if same { "ok" } else { "BREACH (must match to the bit)" };
            println!(
                "  {:<28} {:>14} {:>14} {:>19}  {verdict}",
                d.name,
                shown(x),
                shown(y),
                "exact"
            );
        }
    }
    println!("nproc: {}", sys::nproc());
    if breaches > 0 || noisy > 0 {
        println!("FAILED: {breaches} breaches, {noisy} readings too noisy to compare");
        return Ok(ExitCode::FAILURE);
    }
    println!("ok: two sets of runs of this build agree within the bounds");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_share_follows_the_metric_direction() {
        let lower = &END_TO_END[2]; // op_p50_ms
        let higher = &END_TO_END[1]; // ops_per_s
        assert_eq!((lower.name, higher.name), ("op_p50_ms", "ops_per_s"));
        assert!((worse_share(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(worse_share(lower, 10.0, 9.0) < 0.0);
        assert!((worse_share(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worse_share(higher, 100.0, 110.0) < 0.0);
    }
}
