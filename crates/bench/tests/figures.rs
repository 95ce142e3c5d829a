//! The committed figures are the repository's contract: every fast
//! registry figure must regenerate `results/<name>.json` byte for byte,
//! the seeded smoke sweeps must repeat byte for byte, and every table
//! EXPERIMENTS.md carries between `<!-- fig:NAME -->` markers must equal
//! its rendering of the committed JSON.

use overlap_bench::figures::{find, first_difference, Figure, SweepConfig, REGISTRY};
use overlap_core::ArtifactCache;
use overlap_json::Json;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn committed(name: &str) -> String {
    let path = format!("{ROOT}/results/{name}.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: cannot read {path}: {e}"))
}

/// Regenerates `figures` through one shared in-memory cache (as
/// `fig --all` does) and names every figure whose bytes drift, at its
/// first differing JSON path.
fn assert_regenerates(figures: &[&Figure]) {
    let cache = ArtifactCache::in_memory();
    let sweep = SweepConfig { smoke: false, cache: &cache };
    let drift: Vec<String> = figures
        .iter()
        .filter_map(|f| {
            let json = (f.run)(&sweep).unwrap_or_else(|e| panic!("{}: {e}", f.name));
            first_difference(&committed(f.name), &json).map(|d| format!("{}: {d}", f.name))
        })
        .collect();
    assert!(
        drift.is_empty(),
        "regenerated figures differ from the committed results/ (refresh them with \
         `cargo run --release -p overlap-bench --bin fig -- <name>` only for a deliberate \
         change):\n{}",
        drift.join("\n")
    );
}

/// The seeded sweeps run alone: each takes seconds in a debug build, so
/// the test harness can run them beside the paper figures.
const SEEDED: [&str; 3] = ["fig_faults", "fig_quant", "fig_tail"];

#[test]
fn paper_figures_regenerate_committed_bytes() {
    let paper: Vec<&Figure> = REGISTRY.iter().filter(|f| !SEEDED.contains(&f.name)).collect();
    assert!(paper.iter().all(|f| f.fast));
    assert_regenerates(&paper);
}

#[test]
fn fig_faults_regenerates_committed_bytes() {
    assert_regenerates(&[find("fig_faults").unwrap()]);
}

#[test]
fn fig_quant_regenerates_committed_bytes() {
    assert_regenerates(&[find("fig_quant").unwrap()]);
}

#[test]
fn only_fig_tail_is_too_slow_to_regenerate() {
    let slow: Vec<&str> = REGISTRY.iter().filter(|f| !f.fast).map(|f| f.name).collect();
    assert_eq!(slow, ["fig_tail"]);
}

/// Runs `name` twice on cold caches and returns the record after
/// requiring byte-identical output.
fn run_twice(name: &str, smoke: bool) -> Json {
    let figure = find(name).unwrap();
    let run = || {
        let cache = ArtifactCache::disabled();
        (figure.run)(&SweepConfig { smoke, cache: &cache })
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let (first, second) = (run(), run());
    assert_eq!(
        first_difference(&first.to_pretty(), &second),
        None,
        "{name}: two identically seeded runs differ"
    );
    if smoke {
        assert_eq!(first["smoke"].as_bool(), Some(true), "{name}: smoke run not recorded");
        assert_eq!(first["seed"].as_u64(), Some(overlap_bench::SEED), "{name}: seed");
    }
    first
}

/// Every record of `rows` carries `key` as a number.
fn all_carry(rows: &Json, key: &str) -> bool {
    rows.as_array().is_some_and(|r| !r.is_empty() && r.iter().all(|r| r[key].as_f64().is_some()))
}

#[test]
fn fault_smoke_sweep_is_deterministic_and_counts_fallbacks() {
    let j = run_twice("fig_faults", true);
    assert!(all_carry(&j["straggler_sweep"], "fallbacks"));
    assert!(all_carry(&j["link_sweep"], "fallbacks"));
}

#[test]
fn quant_smoke_sweep_is_deterministic_and_bounds_its_error() {
    let j = run_twice("fig_quant", true);
    assert!(all_carry(&j["rows"], "predicted_rel_error_bound"));
}

#[test]
fn tail_smoke_sweep_is_deterministic_and_reports_p99() {
    let j = run_twice("fig_tail", true);
    assert!(all_carry(&j["rows"], "p99"));
    assert!(all_carry(&j["rows"], "win_p99"));
}

#[test]
fn gate_accuracy_is_deterministic_and_records_its_model() {
    // The error oracle is inside the run: a measured error above its
    // documented bound fails it.
    let j = run_twice("gate_accuracy", false);
    assert_eq!(j["model"].as_str(), Some("GPT_256B"));
}

/// The `NAME` of a `PREFIX NAME -->` marker line.
fn marker<'l>(line: &'l str, prefix: &str) -> Option<&'l str> {
    line.strip_prefix(prefix).and_then(|l| l.strip_suffix(" -->"))
}

/// The blocks of `doc` between a `<!-- fig:NAME -->` line and its
/// `<!-- /fig:NAME -->` line, as `(name, body)` pairs.
fn marked_blocks(doc: &str) -> Vec<(&str, String)> {
    let mut blocks = Vec::new();
    let mut open: Option<(&str, String)> = None;
    for line in doc.lines() {
        if let Some(name) = marker(line, "<!-- fig:") {
            assert!(open.is_none(), "{name}: opened inside another marked table");
            open = Some((name, String::new()));
        } else if let Some(name) = marker(line, "<!-- /fig:") {
            let (opened, body) =
                open.take().unwrap_or_else(|| panic!("{name}: closed, never opened"));
            assert_eq!(opened, name, "marked table {opened} closed as {name}");
            blocks.push((name, body));
        } else if let Some((_, body)) = &mut open {
            body.push_str(line);
            body.push('\n');
        }
    }
    assert!(open.is_none(), "a marked table is never closed");
    blocks
}

#[test]
fn experiments_tables_render_the_committed_json() {
    let path = format!("{ROOT}/EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let blocks = marked_blocks(&doc);
    let mut problems = Vec::new();
    for f in &REGISTRY {
        let n = blocks.iter().filter(|(name, _)| *name == f.name).count();
        if n != 1 {
            problems.push(format!("{}: EXPERIMENTS.md has {n} marked tables, expected 1", f.name));
        }
    }
    for (name, body) in blocks {
        let Some(f) = find(name) else {
            problems.push(format!("{name}: marked in EXPERIMENTS.md but not a registry figure"));
            continue;
        };
        let json = Json::parse(&committed(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rendered = (f.table)(&json);
        if body != rendered {
            let (doc_lines, fresh): (Vec<_>, Vec<_>) =
                (body.lines().collect(), rendered.lines().collect());
            let line = (0..=doc_lines.len().max(fresh.len()))
                .find(|&i| doc_lines.get(i) != fresh.get(i))
                .unwrap_or(doc_lines.len());
            problems.push(format!(
                "{name}: the EXPERIMENTS.md table differs from its rendering of \
                 results/{name}.json at table line {}:\n  rendered: {:?}\n  document: {:?}",
                line + 1,
                fresh.get(line),
                doc_lines.get(line),
            ));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
