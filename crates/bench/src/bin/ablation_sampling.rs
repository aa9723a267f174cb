//! Ablation: sensitivity to the PEBS sampling period.
//!
//! The paper samples 1 in 2000 accesses per thread. This sweep varies the
//! period over 250…32000 and reports (a) detection quality on a reduced
//! benchmark set and (b) profiling overhead, showing the accuracy/overhead
//! trade-off that motivates the paper's choice.

use drbw_bench::sweep::{ground_truth, train_classifier};
use drbw_bench::util::{open_run_cache, report_run_cache, workload, BenchError};
use drbw_core::profiler::profile_memo;
use drbw_core::Mode;
use numasim::config::MachineConfig;
use pebs::sampler::SamplerConfig;
use workloads::config::{cases_for, RunConfig};

fn main() -> Result<(), BenchError> {
    let mcfg = MachineConfig::scaled();
    eprintln!("training classifier (default period)...");
    let clf = train_classifier(&mcfg)?;
    // Each period gets its own cache keys (the sampler config is hashed
    // into the key), so a warm rerun of the whole sweep is all hits.
    let cache = open_run_cache();
    // A reduced but contention-diverse set: one contended, one borderline,
    // one clean benchmark.
    let names = ["Streamcluster", "SP", "Blackscholes"];

    // Ground truth once per case (independent of sampling).
    let mut cases: Vec<(&str, RunConfig, bool)> = Vec::new();
    for name in names {
        let w = workload(name)?;
        for rcfg in cases_for(&w.inputs()) {
            let actual = ground_truth(cache.as_deref(), w, &mcfg, &rcfg).is_rmc;
            cases.push((name, rcfg, actual));
        }
    }
    eprintln!("{} cases prepared", cases.len());

    println!("=== Ablation: sampling period vs accuracy and overhead ===");
    println!("{:<8} {:>9} {:>9} {:>9} {:>12}", "period", "accuracy", "FPR", "FNR", "avg samples");
    for period in [250u64, 500, 1000, 2000, 4000, 8000, 16000, 32000] {
        let scfg = SamplerConfig { period, ..SamplerConfig::default() };
        let (mut tp, mut tn, mut fp, mut fn_) = (0u32, 0u32, 0u32, 0u32);
        let mut samples = 0usize;
        for (name, rcfg, actual) in &cases {
            let w = workload(name)?;
            let p = profile_memo(w, &mcfg, rcfg, scfg, cache.as_deref());
            samples += p.samples.len();
            let detected = clf.classify_case(&p, 4).mode() == Mode::Rmc;
            match (actual, detected) {
                (true, true) => tp += 1,
                (true, false) => fn_ += 1,
                (false, true) => fp += 1,
                (false, false) => tn += 1,
            }
        }
        let total = (tp + tn + fp + fn_) as f64;
        println!(
            "{:<8} {:>8.1}% {:>8.1}% {:>8.1}% {:>12.0}",
            period,
            (tp + tn) as f64 / total * 100.0,
            fp as f64 / (fp + tn).max(1) as f64 * 100.0,
            fn_ as f64 / (fn_ + tp).max(1) as f64 * 100.0,
            samples as f64 / cases.len() as f64,
        );
    }
    println!("\n(expected: accuracy stays high down to a few hundred samples per run, then the");
    println!(" per-channel batches starve and detection destabilises; finer sampling only adds");
    println!(" overhead — the paper's 1/2000 sits on the flat part of the curve)");
    report_run_cache(cache.as_deref());
    Ok(())
}
