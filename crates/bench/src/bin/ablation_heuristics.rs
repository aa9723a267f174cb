//! Ablation: DR-BW's learned classifier vs the single-heuristic detectors
//! of §II (latency threshold, remote-access count, all-sockets-touch) on
//! the same 512 cases.
//!
//! The sweep records each detector's verdict alongside DR-BW's, so this
//! binary runs it (all run-cache hits after `table5_benchmarks`) and
//! aggregates. Expected: the count heuristic is wrecked by traffic volume
//! without contention (the bandit effect), the latency threshold by cached
//! codes with noisy straggler latencies, and all-sockets-touch by spread
//! shared readers; DR-BW dominates on overall correctness.

use drbw_bench::sweep::{self, CaseRecord};
use drbw_bench::tables;
use drbw_bench::util::BenchError;
use numasim::config::MachineConfig;

type RecordPredicate = fn(&CaseRecord) -> bool;

fn main() -> Result<(), BenchError> {
    let mcfg = MachineConfig::scaled();
    let records = sweep::run_sweep(&mcfg)?;

    let detectors: [(&str, RecordPredicate); 4] = [
        ("DR-BW (decision tree)", |r| r.drbw_rmc),
        ("latency-threshold", |r| r.lat_rmc),
        ("remote-count", |r| r.cnt_rmc),
        ("all-sockets-touch", |r| r.ast_rmc),
    ];

    println!("=== Ablation: learned classifier vs single heuristics ({} cases) ===", records.len());
    println!("{:<24} {:>11} {:>8} {:>8}", "detector", "correctness", "FPR", "FNR");
    for (name, det) in detectors {
        let cm = tables::table_vi(&records, det);
        println!(
            "{:<24} {:>10.1}% {:>7.1}% {:>7.1}%",
            name,
            cm.accuracy() * 100.0,
            cm.false_positive_rate(1) * 100.0,
            cm.false_negative_rate(1) * 100.0
        );
    }
    println!("\nPer-benchmark false verdicts (format: FP+FN):");
    println!("{:<16} {:>7} {:>8} {:>8} {:>8}", "benchmark", "DR-BW", "latency", "count", "sockets");
    let rows = tables::table_v_rows(&records);
    for row in rows {
        let b: Vec<&CaseRecord> = records.iter().filter(|r| r.benchmark == row.benchmark).collect();
        let wrong = |f: fn(&CaseRecord) -> bool| {
            let fp = b.iter().filter(|r| !r.actual_rmc && f(r)).count();
            let fn_ = b.iter().filter(|r| r.actual_rmc && !f(r)).count();
            format!("{fp}+{fn_}")
        };
        println!(
            "{:<16} {:>7} {:>8} {:>8} {:>8}",
            row.benchmark,
            wrong(|r| r.drbw_rmc),
            wrong(|r| r.lat_rmc),
            wrong(|r| r.cnt_rmc),
            wrong(|r| r.ast_rmc),
        );
    }
    Ok(())
}
