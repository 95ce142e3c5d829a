//! The figure registry: one entry per figure and table of the evaluation.
//!
//! Each [`Figure`] pairs a sweep (`run`, returning exactly the JSON that
//! is committed as `results/<name>.json`) with a markdown renderer of that
//! JSON (`table`). The `fig` binary runs a figure, writes its JSON and
//! prints the rendering between `<!-- fig:NAME -->` markers
//! ([`marked`]); EXPERIMENTS.md carries the same blocks. The
//! `crates/bench/tests/figures.rs` test holds all three to the committed
//! files: regenerated bytes, smoke-sweep determinism, and every marked
//! table.
//!
//! ```sh
//! cargo run --release -p overlap-bench --bin fig -- fig12
//! cargo run --release -p overlap-bench --bin fig -- --all
//! ```

mod autotune;
mod faults;
mod gate_accuracy;
mod paper;
mod quant;
mod tail;

use std::fmt::Write as _;

use overlap_core::ArtifactCache;
use overlap_json::Json;

/// What a figure's sweep runs against.
pub struct SweepConfig<'a> {
    /// Swap the seeded sweeps' (`fig_faults`, `fig_quant`, `fig_tail`,
    /// `fig_autotune`) Table-1 model list for [`crate::smoke_config`];
    /// the first three record the mode in their JSON as `"smoke"`. The
    /// other figures ignore it.
    pub smoke: bool,
    /// The cache every compile of the sweep goes through.
    pub cache: &'a ArtifactCache,
}

/// A sweep's JSON record, or why it could not be produced.
pub type FigureResult = Result<Json, String>;

/// One figure or table of the evaluation.
pub struct Figure {
    /// Registry name: the `fig` argument and the `results/<name>.json`
    /// stem.
    pub name: &'static str,
    /// Whether the full sweep is quick enough (seconds in a debug build)
    /// for the tier-1 test to regenerate it on every run.
    pub fast: bool,
    /// Runs the sweep and returns the committed JSON record.
    pub run: fn(&SweepConfig<'_>) -> FigureResult,
    /// Renders the record as the markdown EXPERIMENTS.md carries.
    pub table: fn(&Json) -> String,
}

/// Every figure, in the order `fig --all` runs them.
pub static REGISTRY: [Figure; 15] = [
    fast("fig1", paper::fig1, paper::fig1_table),
    fast("fig11", paper::fig11, paper::fig11_table),
    fast("fig12", paper::fig12, paper::fig12_table),
    fast("fig13", paper::fig13, paper::fig13_table),
    fast("fig14", paper::fig14, paper::fig14_table),
    fast("fig15", paper::fig15, paper::fig15_table),
    fast("fig16", paper::fig16, paper::fig16_table),
    fast("sensitivity", paper::sensitivity, paper::sensitivity_table),
    fast("table_energy", paper::table_energy, paper::table_energy_table),
    fast("inference", paper::inference, paper::inference_table),
    fast("gate_accuracy", gate_accuracy::run, gate_accuracy::table),
    fast("fig_faults", faults::run, faults::table),
    fast("fig_quant", quant::run, quant::table),
    fast("fig_autotune", autotune::run, autotune::table),
    // ≈2 min in a debug build; `scripts/ci.sh` regenerates it in release.
    Figure { name: "fig_tail", fast: false, run: tail::run, table: tail::table },
];

/// A registry entry the tier-1 test regenerates on every run.
const fn fast(
    name: &'static str,
    run: fn(&SweepConfig<'_>) -> FigureResult,
    table: fn(&Json) -> String,
) -> Figure {
    Figure { name, fast: true, run, table }
}

/// The registry entry called `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Figure> {
    REGISTRY.iter().find(|f| f.name == name)
}

/// `table` wrapped in the `<!-- fig:NAME -->` markers EXPERIMENTS.md
/// uses: what the `fig` binary prints for each figure.
#[must_use]
pub fn marked(name: &str, table: &str) -> String {
    format!("<!-- fig:{name} -->\n{table}<!-- /fig:{name} -->\n")
}

/// Where a committed `results/` file and a regenerated record first
/// differ, or `None` when the bytes are identical.
///
/// A differing tree is reported at its first differing JSON path
/// (`[3].overlapped.step_time`, `rows[0].wire`); a tree that parses equal
/// but prints differently is reported at its first differing byte.
#[must_use]
pub fn first_difference(committed: &str, regenerated: &Json) -> Option<String> {
    let fresh = regenerated.to_pretty();
    if committed == fresh {
        return None;
    }
    let old = match Json::parse(committed) {
        Ok(old) => old,
        Err(e) => return Some(format!("committed file does not parse: {e}")),
    };
    Some(tree_difference(&old, regenerated, "").unwrap_or_else(|| {
        let offset = committed.bytes().zip(fresh.bytes()).take_while(|(a, b)| a == b).count();
        format!("same JSON tree, bytes first differ at byte offset {offset}")
    }))
}

/// The first path at which `old` and `new` differ, depth-first in
/// `old`'s order.
fn tree_difference(old: &Json, new: &Json, path: &str) -> Option<String> {
    let at = if path.is_empty() { "(root)" } else { path };
    match (old, new) {
        (Json::Arr(a), Json::Arr(b)) => {
            if a.len() != b.len() {
                return Some(format!(
                    "{at}: {} elements committed, {} regenerated",
                    a.len(),
                    b.len()
                ));
            }
            a.iter()
                .zip(b)
                .enumerate()
                .find_map(|(i, (x, y))| tree_difference(x, y, &format!("{path}[{i}]")))
        }
        (Json::Obj(a), Json::Obj(b)) => {
            let child = |k: &str| {
                if path.is_empty() {
                    k.to_string()
                } else {
                    format!("{path}.{k}")
                }
            };
            for (k, x) in a {
                let Some(y) = new.get(k) else {
                    return Some(format!("{}: missing from the regenerated record", child(k)));
                };
                if let Some(d) = tree_difference(x, y, &child(k)) {
                    return Some(d);
                }
            }
            if let Some((k, _)) = b.iter().find(|(k, _)| old.get(k).is_none()) {
                return Some(format!("{}: missing from the committed file", child(k)));
            }
            (old != new).then(|| format!("{at}: key order differs"))
        }
        _ => (old != new).then(|| format!("{at}: committed {old}, regenerated {new}")),
    }
}

/// A markdown table in EXPERIMENTS.md's layout.
fn md_table<H: AsRef<str>>(header: &[H], rows: impl IntoIterator<Item = Vec<String>>) -> String {
    fn push_row<'c>(out: &mut String, cells: impl Iterator<Item = &'c str>) {
        for c in cells {
            let _ = write!(out, "| {c} ");
        }
        out.push_str("|\n");
    }
    let mut out = String::new();
    push_row(&mut out, header.iter().map(AsRef::as_ref));
    out.push_str(&"|---".repeat(header.len()));
    out.push_str("|\n");
    for row in rows {
        push_row(&mut out, row.iter().map(String::as_str));
    }
    out
}

/// `j[key]` as a number (NaN when absent, so a renamed field shows).
fn num(j: &Json, key: &str) -> f64 {
    j[key].as_f64().unwrap_or(f64::NAN)
}

/// `j[key]` as a string (`?` when absent).
fn text<'j>(j: &'j Json, key: &str) -> &'j str {
    j[key].as_str().unwrap_or("?")
}

/// The elements of the array `j` (none when it is not one).
fn items(j: &Json) -> &[Json] {
    j.as_array().unwrap_or(&[])
}

/// The distinct values of `key(row)` in first-appearance order.
fn distinct<T: PartialEq>(rows: &[Json], key: impl Fn(&Json) -> T) -> Vec<T> {
    let mut out = Vec::new();
    for r in rows {
        let v = key(r);
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// `rows` pivoted into a table: one table row per distinct `lead(row)`
/// (its cells head the row, under `lead_header`), one column per
/// distinct `column(row)` label, each cell `cell` of the matching record.
fn pivot(
    rows: &[Json],
    lead_header: &[&str],
    lead: impl Fn(&Json) -> Vec<String>,
    column: impl Fn(&Json) -> String,
    cell: impl Fn(&Json) -> String,
) -> String {
    let columns = distinct(rows, &column);
    let mut header: Vec<String> = lead_header.iter().map(|h| (*h).to_string()).collect();
    header.extend(columns.iter().cloned());
    let body = distinct(rows, &lead).into_iter().map(|mut cells| {
        for c in &columns {
            let r = rows.iter().find(|r| lead(r) == cells[..lead_header.len()] && column(r) == *c);
            cells.push(r.map_or_else(String::new, &cell));
        }
        cells
    });
    md_table(&header, body)
}

/// A fault-comparison record's speedup, with its fallback count when the
/// gate fell back.
fn speedup_cell(r: &Json) -> String {
    let speedup = format!("{:.2}×", num(r, "speedup"));
    let fallbacks = num(r, "fallbacks");
    if fallbacks > 0.0 {
        format!("{speedup} ({fallbacks} fb)")
    } else {
        speedup
    }
}

/// `context: error` for a fallible step inside a sweep.
fn ctx<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> Result<T, String> {
    result.map_err(|e| format!("cannot {what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Json {
        Json::Arr(
            (0..5)
                .map(|i| {
                    Json::obj().with("model", format!("m{i}")).with(
                        "overlapped",
                        Json::obj().with("step_time", 1.5 + f64::from(i)).with("chips", 8u64),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn equal_trees_have_no_difference() {
        let j = rows();
        assert_eq!(first_difference(&j.to_pretty(), &j), None);
    }

    #[test]
    fn changed_leaf_in_an_array_of_objects_names_its_path() {
        let committed = rows();
        let mut fresh = rows();
        fresh[3]["overlapped"]["step_time"] = Json::from(9.25);
        let d = first_difference(&committed.to_pretty(), &fresh).unwrap();
        assert_eq!(d, "[3].overlapped.step_time: committed 4.5, regenerated 9.25");
    }

    #[test]
    fn missing_key_is_named() {
        let committed = Json::obj().with("seed", 7u64).with("rows", rows());
        let fresh = Json::obj().with("rows", rows());
        let d = first_difference(&committed.to_pretty(), &fresh).unwrap();
        assert_eq!(d, "seed: missing from the regenerated record");
        let d = first_difference(&fresh.to_pretty(), &committed).unwrap();
        assert_eq!(d, "seed: missing from the committed file");
    }

    #[test]
    fn length_mismatch_is_named() {
        let committed = Json::obj().with("rows", rows());
        let mut fewer = rows();
        if let Json::Arr(items) = &mut fewer {
            items.pop();
        }
        let fresh = Json::obj().with("rows", fewer);
        let d = first_difference(&committed.to_pretty(), &fresh).unwrap();
        assert_eq!(d, "rows: 5 elements committed, 4 regenerated");
    }

    #[test]
    fn equal_trees_with_different_bytes_report_an_offset() {
        let j = Json::obj().with("group", 4.0);
        let fresh = j.to_pretty();
        assert_eq!(fresh, "{\n  \"group\": 4.0\n}");
        // Same tree, different spelling of the float and a trailing newline.
        let d = first_difference("{\n  \"group\": 4.00\n}", &j).unwrap();
        assert_eq!(d, "same JSON tree, bytes first differ at byte offset 16");
        let d = first_difference(&format!("{fresh}\n"), &j).unwrap();
        assert_eq!(d, format!("same JSON tree, bytes first differ at byte offset {}", fresh.len()));
    }

    #[test]
    fn integer_and_float_spellings_are_different_leaves() {
        let committed = Json::obj().with("group", 4u64);
        let d = first_difference(&committed.to_pretty(), &Json::obj().with("group", 4.0)).unwrap();
        assert_eq!(d, "group: committed 4, regenerated 4.0");
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        for f in &REGISTRY {
            assert!(std::ptr::eq(find(f.name).unwrap(), f), "{} is registered twice", f.name);
        }
        assert!(find("fig2").is_none());
    }

    #[test]
    fn md_table_matches_the_experiments_layout() {
        let t = md_table(&["model", "x"], [vec!["a".to_string(), "1.0".to_string()]]);
        assert_eq!(t, "| model | x |\n|---|---|\n| a | 1.0 |\n");
    }
}
