//! Assemble `BENCH_engine.json` from the engine benchmark results.
//!
//! Reads the per-bench JSON files the criterion harness drops under
//! `target/criterion-stub/desim/` (run `cargo bench -p vorx-bench --bench
//! engine` first) and writes a before/after report at the workspace root.
//!
//! Usage:
//!   engine_report                      # refresh "after", keep "before"
//!   engine_report --set-baseline       # record current results as "before"
//!   engine_report --baseline-dir DIR   # read "before" numbers from DIR
//!
//! The "before" section is preserved across runs so the perf trajectory of
//! the engine is tracked from PR to PR.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use vorx_bench::campaign::{workspace_root, Campaign, Fixed, Lines, Report};
use vorx_bench::obj;

#[derive(Debug, Clone, Copy)]
struct Stats {
    min_ns: f64,
    median_ns: f64,
    mean_ns: f64,
}

/// Extract a numeric field from a flat JSON object by key.
fn field_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let i = json.find(&pat)? + pat.len();
    let rest = json[i..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse_stats(json: &str) -> Option<Stats> {
    Some(Stats {
        min_ns: field_f64(json, "min_ns")?,
        median_ns: field_f64(json, "median_ns")?,
        mean_ns: field_f64(json, "mean_ns")?,
    })
}

/// Read every `<bench>.json` in `dir` into a name → stats map.
fn read_dir_stats(dir: &Path) -> BTreeMap<String, Stats> {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    entries
        .filter_map(|e| {
            let p = e.path();
            let name = p.file_stem()?.to_str()?.to_string();
            let stats = parse_stats(&std::fs::read_to_string(&p).ok()?)?;
            (p.extension()? == "json").then_some((name, stats))
        })
        .collect()
}

/// Pull the `"before"` section out of an existing report. The report is
/// machine-written with one `"bench": { ... }` entry per line, so the
/// section is the run of lines between its key and its closing brace.
fn read_existing_before(report: &Path) -> BTreeMap<String, Stats> {
    let text = std::fs::read_to_string(report).unwrap_or_default();
    let lines = text.lines().map(str::trim);
    lines
        .skip_while(|l| !l.starts_with("\"before\":"))
        .skip(1)
        .take_while(|l| !l.starts_with('}'))
        .filter_map(|l| {
            let name = l.strip_prefix('"')?.split('"').next()?;
            Some((name.to_string(), parse_stats(l)?))
        })
        .collect()
}

/// One section of the report: bench name -> its summary.
fn section(stats: &BTreeMap<String, Stats>) -> Lines {
    Lines::entries(
        4,
        stats.iter().map(|(bench, st)| {
            let obj = obj! {
                "min_ns": Fixed(st.min_ns, 1), "median_ns": Fixed(st.median_ns, 1),
                "mean_ns": Fixed(st.mean_ns, 1),
            };
            (bench, obj)
        }),
    )
}

fn main() {
    let campaign = Campaign::start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let set_baseline = args.iter().any(|a| a == "--set-baseline");
    let baseline_dir = args
        .iter()
        .position(|a| a == "--baseline-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);

    let root = workspace_root();
    let results_dir = root.join("target/criterion-stub/desim");
    let report_path = root.join("BENCH_engine.json");

    let after = read_dir_stats(&results_dir);
    if after.is_empty() {
        eprintln!(
            "no results under {}; run `cargo bench -p vorx-bench --bench engine` first",
            results_dir.display()
        );
        std::process::exit(1);
    }

    let before = if set_baseline {
        after.clone()
    } else if let Some(dir) = baseline_dir {
        read_dir_stats(&dir)
    } else {
        read_existing_before(&report_path)
    };

    let mut report = Report::new(
        "desim engine hot-path benches, ns of host wall time; \
         measured with the vendored criterion stand-in (vendor/README.md), so \
         only before/after ratios are comparable, not absolute numbers from \
         real criterion",
    )
    .field("before", section(&before))
    .field("after", section(&after));
    if !before.is_empty() {
        let speedups = after.iter().filter_map(|(k, a)| {
            let b = before.get(k)?;
            Some((k, Fixed(b.median_ns / a.median_ns, 2)))
        });
        report = report.field("speedup_median", Lines::entries(4, speedups));
    }
    let out = campaign.write("BENCH_engine.json", &report);
    print!("{out}");
}
