//! The benchmark's own gate, in the style of `dedup_gate`: run every
//! workload (`--all`), summarise sets of runs (`--baseline`), compare a
//! set against the recorded baseline with BENCHMARK.json's bounds
//! (`--check`), and check that what is printed is what BENCHMARK.json
//! declares (`--smoke`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use serde::Deserialize;

use crate::stats::{iqr_share, median};
use crate::workloads::{GATED, NAMES};

/// What the gate reads of BENCHMARK.json.
#[derive(Debug, Deserialize)]
pub struct BenchmarkFile {
    pub workloads: Vec<WorkloadDecl>,
    pub end_to_end: Vec<EndToEndDecl>,
    pub per_layer: Vec<LayerDecl>,
}

#[derive(Debug, Deserialize)]
pub struct WorkloadDecl {
    pub name: String,
}

#[derive(Debug, Deserialize)]
pub struct EndToEndDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Deserialize)]
pub struct LayerDecl {
    pub name: String,
    pub unit: String,
}

/// One run, as `--all` writes it: the stamp and the result line.
#[derive(Debug, Deserialize)]
struct Row {
    workload: String,
    trace: u8,
    correct: bool,
    metrics: BTreeMap<String, Value>,
}

#[derive(Debug, Deserialize)]
struct Value {
    value: f64,
}

/// One metric of one workload over a set of runs.
#[derive(Debug, Deserialize)]
struct Summary {
    workload: String,
    metric: String,
    runs: usize,
    median: f64,
    /// Interquartile range as a share of the median.
    spread: f64,
}

#[derive(Debug, Deserialize)]
struct Baseline {
    /// Two full sets of runs of the same commit; the first is the
    /// baseline, the second shows how far a rerun drifts.
    aa: Vec<Vec<Summary>>,
}

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn benchmark_file() -> Result<BenchmarkFile, String> {
    let path = package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_rows(file: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{}: {e}: {l}", file.display())))
        .collect()
}

/// Median and spread of every end-to-end metric of every workload in
/// `rows` (untraced, correct runs only).
fn summarize(rows: &[Row]) -> Vec<Summary> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in rows.iter().filter(|r| r.trace == 0 && r.correct) {
        for (name, v) in &r.metrics {
            values
                .entry((r.workload.clone(), name.clone()))
                .or_default()
                .push(v.value);
        }
    }
    values
        .into_iter()
        .map(|((workload, metric), v)| Summary {
            workload,
            metric,
            runs: v.len(),
            median: median(&v),
            spread: iqr_share(&v),
        })
        .collect()
}

fn summary_json(set: &[Summary]) -> String {
    let rows: Vec<String> = set
        .iter()
        .map(|s| {
            format!(
                "    {{\"workload\":\"{}\",\"metric\":\"{}\",\"runs\":{},\"median\":{:?},\"spread\":{:?}}}",
                s.workload, s.metric, s.runs, s.median, s.spread
            )
        })
        .collect();
    format!("  [\n{}\n  ]", rows.join(",\n"))
}

/// `--baseline a.jsonl b.jsonl`: prints BASELINE.json from two sets of
/// runs of one commit.
pub fn baseline(files: &[PathBuf]) -> Result<bool, String> {
    let sets = files
        .iter()
        .map(|f| Ok(summary_json(&summarize(&read_rows(f)?))))
        .collect::<Result<Vec<_>, String>>()?;
    println!("{{\"aa\": [\n{}\n]}}", sets.join(",\n"));
    Ok(true)
}

/// How one metric of one workload compares with the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both spreads are too.
    Unchanged,
    /// Better than the baseline by more than the bound.
    Improved,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// The run-to-run spread of either side exceeds the bound, so a
    /// difference within it cannot be told from noise.
    Unresolved,
}

/// Compares a median against the baseline's. `higher_is_better` gives
/// the direction; `bound` is the allowed worsening as a share of the
/// baseline median.
pub fn verdict(base: (f64, f64), new: (f64, f64), higher_is_better: bool, bound: f64) -> Verdict {
    let ((base_median, base_spread), (new_median, new_spread)) = (base, new);
    let change = if base_median == 0.0 {
        0.0
    } else if higher_is_better {
        (base_median - new_median) / base_median.abs()
    } else {
        (new_median - base_median) / base_median.abs()
    };
    // `change` > 0 is a worsening.
    if change > bound {
        Verdict::Regressed
    } else if base_spread > bound || new_spread > bound {
        Verdict::Unresolved
    } else if change < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `--check <rows>`: gates a set of runs against BASELINE.json. A
/// regression fails the gate; an unresolved metric is reported as such
/// and does not pass for unchanged.
pub fn check(file: &Path) -> Result<bool, String> {
    let decl = benchmark_file()?;
    let path = package_dir().join("BASELINE.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let base: Baseline =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let base = base.aa.first().ok_or("BASELINE.json has no set of runs")?;
    let rows = read_rows(file)?;
    if let Some(bad) = rows.iter().find(|r| !r.correct) {
        return Err(format!(
            "{}: a {} run failed its output check",
            file.display(),
            bad.workload
        ));
    }
    let new = summarize(&rows);
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "baseline", "this", "change", "spread", "bound"
    );
    for n in &new {
        let Some(d) = decl.end_to_end.iter().find(|d| d.name == n.metric) else {
            continue;
        };
        let Some(b) = base
            .iter()
            .find(|b| b.workload == n.workload && b.metric == n.metric)
        else {
            println!("{:<14} {:<16} not in the baseline", n.workload, n.metric);
            continue;
        };
        let v = verdict(
            (b.median, b.spread),
            (n.median, n.spread),
            d.better == "higher",
            d.bound,
        );
        ok &= v != Verdict::Regressed;
        println!(
            "{:<14} {:<16} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {v:?}",
            n.workload,
            n.metric,
            b.median,
            n.median,
            (n.median - b.median) / b.median * 100.0,
            n.spread.max(b.spread) * 100.0,
            d.bound * 100.0
        );
    }
    Ok(ok)
}

/// `--all`: every workload `runs` times, one process per run (so that
/// resident-set and CPU figures start clean), seeds `seed..seed+runs`.
/// Prints each run's report and appends one stamped row per run to
/// `out`.
pub fn run_all(
    seed: u64,
    runs: u64,
    seconds: f64,
    trace: bool,
    out: Option<&Path>,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut rows = String::new();
    let mut all_correct = true;
    for name in NAMES {
        for run in 0..runs {
            let output = std::process::Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &(seed + run).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            all_correct &= output.status.success();
            let stamp = stdout.lines().find_map(|l| l.strip_prefix("# {"));
            let result = stdout.lines().last().and_then(|l| l.strip_prefix('{'));
            let (Some(stamp), Some(result)) = (stamp, result) else {
                return Err(format!("{name}: the run printed no result"));
            };
            let stamp = stamp.trim_end_matches('}');
            let _ = writeln!(rows, "{{{stamp},{result}");
        }
    }
    if let Some(out) = out {
        if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(out, rows).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(all_correct)
}

/// `--smoke`: one second of every workload, untraced and traced, in
/// this process; every metric BENCHMARK.json declares must be printed
/// exactly once, by that name and unit, with a finite value, and
/// nothing else may be.
pub fn smoke() -> Result<bool, String> {
    let decl = benchmark_file()?;
    let declared: Vec<&str> = decl.workloads.iter().map(|w| w.name.as_str()).collect();
    if declared != GATED {
        return Err(format!(
            "BENCHMARK.json workloads {declared:?} are not {GATED:?}"
        ));
    }
    let end_to_end: Vec<(&str, &str)> = decl
        .end_to_end
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    let per_layer: Vec<(&str, &str)> = decl
        .per_layer
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    for name in NAMES {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let o = crate::run_workload(name, 1, 1.0, trace)?;
            let got: Vec<(&str, &str)> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
            if &got != want {
                return Err(format!(
                    "{name} --trace {}: printed {got:?}, BENCHMARK.json declares {want:?}",
                    u8::from(trace)
                ));
            }
            if let Some(m) = o.metrics.iter().find(|m| !m.value.is_finite()) {
                return Err(format!("{name}: {} is {}", m.name, m.value));
            }
            if !o.correct {
                return Err(format!("{name} --trace {}: {}", u8::from(trace), o.report));
            }
            println!(
                "smoke ok: {name} --trace {} ({} metrics)",
                u8::from(trace),
                got.len()
            );
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_separates_noise_from_change() {
        use Verdict::*;
        // Throughput (higher is better), bound 10 %.
        assert_eq!(verdict((100.0, 0.02), (95.0, 0.02), true, 0.1), Unchanged);
        assert_eq!(verdict((100.0, 0.02), (85.0, 0.02), true, 0.1), Regressed);
        assert_eq!(verdict((100.0, 0.02), (120.0, 0.02), true, 0.1), Improved);
        // A spread wider than the bound hides anything within it.
        assert_eq!(verdict((100.0, 0.15), (95.0, 0.02), true, 0.1), Unresolved);
        assert_eq!(verdict((100.0, 0.02), (120.0, 0.30), true, 0.1), Unresolved);
        // ... but not a worsening beyond the bound.
        assert_eq!(verdict((100.0, 0.15), (80.0, 0.02), true, 0.1), Regressed);
        // Latency (lower is better).
        assert_eq!(verdict((10.0, 0.0), (11.5, 0.0), false, 0.1), Regressed);
        assert_eq!(verdict((10.0, 0.0), (8.0, 0.0), false, 0.1), Improved);
    }

    #[test]
    fn rows_summarise_per_workload_and_metric() {
        let row = |w: &str, v: f64, trace: u8| -> Row {
            serde_json::from_str(&format!(
                "{{\"workload\":\"{w}\",\"seed\":1,\"seconds\":1.0,\"trace\":{trace},\"nproc\":2,\
                 \"commit\":\"x\",\"wire\":\"bin\",\"parallelism\":\"sequential\",\"correct\":true,\
                 \"attempted\":1,\"failed\":0,\"metrics\":{{\"ops_per_s\":{{\"value\":{v:?},\"unit\":\"1/s\"}}}}}}"
            ))
            .expect("row parses")
        };
        let rows = vec![
            row("a", 1.0, 0),
            row("a", 3.0, 0),
            row("a", 2.0, 0),
            row("a", 99.0, 1),
            row("b", 5.0, 0),
        ];
        let s = summarize(&rows);
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].workload.as_str(), s[0].runs, s[0].median),
            ("a", 3, 2.0)
        );
        assert_eq!(
            (s[1].workload.as_str(), s[1].runs, s[1].median),
            ("b", 1, 5.0)
        );
        let parsed: Vec<Summary> =
            serde_json::from_str(summary_json(&s).trim()).expect("summary round-trips");
        assert_eq!(parsed[0].median, 2.0);
    }

    /// The `--smoke` pass: every workload for a second, untraced and
    /// traced, checked against BENCHMARK.json. Slow in a debug build,
    /// where the layers run their differential oracles on every call:
    /// `cargo test --release`.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "minutes under the layers' debug oracles; run with --release"
    )]
    fn smoke_prints_every_declared_metric_exactly_once() {
        assert_eq!(smoke(), Ok(true));
    }
}
