//! `summarize`: compare sets of runs the way the driver will.
//!
//! A set is a directory of the metric files `run --out <dir>` writes. For
//! each workload x metric the summary prints n, median, quartiles, the
//! spread (quartile distance over median) and the bound, and flags an
//! end-to-end spread above its bound (except `setup_s`, whose spread the
//! driver does not gate either). Given two sets it also says
//! whether each end-to-end median of the second is within the bound of
//! the first, and whether every exact count repeated for the same seed.
//! Any flag makes the exit code non-zero.

use crate::spec::{self, Better};
use crate::stats;
use crate::tsv;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `(workload, metric)` -> values, one per run; and the exact counts by
/// `(workload, metric, seed)`.
#[derive(Default)]
struct Set {
    values: BTreeMap<(String, String), Vec<f64>>,
    counts: BTreeMap<(String, String, String), f64>,
}

fn header_field<'a>(header: &'a str, key: &str) -> Option<&'a str> {
    header.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

/// Parse one metric file into `set`.
fn load_file(text: &str, set: &mut Set) -> Result<(), String> {
    let header = text.lines().next().filter(|l| l.starts_with("# drbw-benchmark")).ok_or("no header line")?;
    let seed = header_field(header, "seed").ok_or("no seed in the header")?;
    for row in tsv::parse(text, 4).map_err(|e| e.to_string())? {
        let value: f64 = tsv::field(&row, 2)?;
        set.values.entry((row[0].to_string(), row[1].to_string())).or_default().push(value);
        if row[3] == "count" {
            set.counts.insert((row[0].to_string(), row[1].to_string(), seed.to_string()), value);
        }
    }
    Ok(())
}

fn load_dir(dir: &Path) -> Result<Set, String> {
    let mut set = Set::default();
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "tsv"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no .tsv metric files", dir.display()));
    }
    for file in files {
        let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        load_file(&text, &mut set).map_err(|e| format!("{}: {e}", file.display()))?;
    }
    Ok(set)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(first: f64, second: f64, better: Better) -> f64 {
    let change = (second - first) / first.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The table of one set; returns the number of flags raised.
fn print_set(name: &str, set: &Set, out: &mut String) -> usize {
    let mut flags = 0;
    out.push_str(&format!("== {name}\n"));
    out.push_str(&format!(
        "{:<15} {:<40} {:>3} {:>14} {:>14} {:>14} {:>7} {:>6}\n",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    ));
    for ((workload, metric), values) in &set.values {
        let sorted = stats::sorted(values);
        let median = stats::median(&sorted);
        let (q1, q3) = stats::quartiles(&sorted).unwrap_or((median, median));
        let spread = stats::spread(&sorted);
        let bound = spec::metric(metric).and_then(|m| m.bound);
        let mut note = "";
        if let (Some(spread), Some(bound)) = (spread, bound) {
            if spread > bound && metric == "setup_s" {
                // Set-up is timed once per run; the driver gates its
                // median and not its spread.
                note = "  spread above the bound (not gated for setup_s)";
            } else if spread > bound {
                note = "  SPREAD ABOVE BOUND";
                flags += 1;
            } else if spread > bound / 3.0 {
                note = "  spread above a third of the bound";
            }
        }
        let pct = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{:.2}%", x * 100.0));
        out.push_str(&format!(
            "{workload:<15} {metric:<40} {:>3} {median:>14.6} {q1:>14.6} {q3:>14.6} {:>7} {:>6}{note}\n",
            values.len(),
            pct(spread),
            pct(bound)
        ));
    }
    // Traced against untraced wall time, where the set has both.
    for workload in spec::WORKLOADS {
        let median_of = |metric: &str| {
            set.values.get(&(workload.to_string(), metric.to_string())).map(|v| stats::median(&stats::sorted(v)))
        };
        if let (Some(untraced), Some(traced)) = (median_of("wall_s"), median_of("trace.wall_s")) {
            out.push_str(&format!(
                "{workload:<15} traced wall_s {traced:.3} vs untraced {untraced:.3}: {:+.2}%\n",
                (traced / untraced - 1.0) * 100.0
            ));
        }
    }
    flags
}

/// Second set against the first; returns the number of flags raised.
fn print_comparison(first: &Set, second: &Set, out: &mut String) -> usize {
    let mut flags = 0;
    out.push_str("== second set against the first\n");
    for m in &spec::END_TO_END {
        for workload in spec::WORKLOADS {
            let key = (workload.to_string(), m.name.to_string());
            let (Some(a), Some(b)) = (first.values.get(&key), second.values.get(&key)) else { continue };
            let (a, b) = (stats::median(&stats::sorted(a)), stats::median(&stats::sorted(b)));
            let worse = worsening(a, b, m.better);
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let verdict = if worse > bound {
                flags += 1;
                "WORSE BY MORE THAN THE BOUND"
            } else {
                "agrees"
            };
            out.push_str(&format!(
                "{workload:<15} {:<26} {a:>14.6} -> {b:>14.6}  {:+.2}% worse (bound {:.0}%)  {verdict}\n",
                m.name,
                worse * 100.0,
                bound * 100.0
            ));
        }
    }
    let mut compared = 0;
    for (key, a) in &first.counts {
        if let Some(b) = second.counts.get(key) {
            compared += 1;
            if a != b {
                flags += 1;
                out.push_str(&format!(
                    "{} {} seed {}: count {a} became {b}  COUNT DID NOT REPEAT\n",
                    key.0, key.1, key.2
                ));
            }
        }
    }
    out.push_str(&format!("{compared} exact counts compared for the same workload and seed\n"));
    flags
}

pub fn summarize(dirs: &[PathBuf]) -> Result<bool, String> {
    let sets = dirs.iter().map(|d| load_dir(d)).collect::<Result<Vec<_>, _>>()?;
    let mut out = String::new();
    let mut flags = 0;
    for (dir, set) in dirs.iter().zip(&sets) {
        flags += print_set(&dir.display().to_string(), set, &mut out);
    }
    if let [first, second] = &sets[..] {
        flags += print_comparison(first, second, &mut out);
    }
    out.push_str(&format!("{flags} flag(s)\n"));
    print!("{out}");
    Ok(flags == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(seed: u64, wall: f64, ops: u64) -> String {
        format!(
            "# drbw-benchmark workload=tenants seed={seed} seconds=12 trace=0\n\
             tenants\twall_s\t{wall}\ts\ntenants\tthroughput_mitems_per_s\t{}\t1e6/s\ntenants\tharness.ops\t{ops}\tcount\n",
            100.0 / wall
        )
    }

    fn set(walls: &[f64], ops: u64) -> Set {
        let mut set = Set::default();
        for (seed, wall) in walls.iter().enumerate() {
            load_file(&file(seed as u64, *wall, ops), &mut set).unwrap();
        }
        set
    }

    #[test]
    fn a_spread_above_the_bound_is_flagged() {
        let steady = set(&[10.0, 10.1, 10.2, 10.3, 10.1, 10.2, 10.0, 10.3], 132);
        let mut out = String::new();
        assert_eq!(print_set("steady", &steady, &mut out), 0);
        assert!(out.contains("tenants") && out.contains("wall_s") && out.contains("25.00%"), "{out}");
        let noisy = set(&[10.0, 12.5, 9.0, 13.0, 10.0, 12.0, 9.5, 13.5], 132);
        assert_eq!(print_set("noisy", &noisy, &mut String::new()), 2, "wall_s and the throughput derived from it");
    }

    #[test]
    fn medians_are_compared_in_the_metrics_own_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        let first = set(&[10.0, 10.1, 10.2], 132);
        let mut out = String::new();
        assert_eq!(print_comparison(&first, &set(&[10.5, 10.6, 10.7], 132), &mut out), 0);
        assert!(out.contains("3 exact counts compared"), "{out}");
        // 39% slower: wall_s and throughput both leave their 25% bound.
        assert_eq!(print_comparison(&first, &set(&[14.0, 14.1, 14.2], 132), &mut String::new()), 2);
        // Faster is never a flag, but a count that moved is, per seed.
        let mut out = String::new();
        assert_eq!(print_comparison(&first, &set(&[8.0, 8.1, 8.2], 131), &mut out), 3);
        assert!(out.contains("COUNT DID NOT REPEAT"));
    }

    #[test]
    fn a_file_without_its_header_is_refused() {
        assert!(load_file("tenants\twall_s\t1\ts\n", &mut Set::default()).is_err());
        assert!(
            load_file("# drbw-benchmark workload=x seed=1\ntenants\twall_s\tfast\ts\n", &mut Set::default()).is_err()
        );
    }
}
