//! Regenerates Figure 8: LULESH speedups with co-locate vs interleave
//! across execution configurations (one large input).
//!
//! Expected shape (paper §VIII.D): co-locate clearly above interleave;
//! T16-N4 shows no significant speedup (four threads per node cannot
//! saturate the links — DR-BW classifies that configuration good).

use drbw_bench::sweep::train_classifier;
use drbw_bench::util::{memo_run, open_run_cache, report_run_cache, BenchError};
use drbw_core::profiler::profile_memo;
use numasim::config::MachineConfig;
use pebs::sampler::SamplerConfig;
use workloads::config::{paper_shapes, Input, RunConfig, Variant};
use workloads::suite::Lulesh;

fn main() -> Result<(), BenchError> {
    let mcfg = MachineConfig::scaled();
    eprintln!("training classifier...");
    let clf = train_classifier(&mcfg)?;
    let cache = open_run_cache();
    let run = |rcfg: &RunConfig| memo_run(cache.as_deref(), &Lulesh, &mcfg, rcfg, None);
    println!("=== Figure 8: LULESH speedups (large input) ===");
    println!("{:<10} {:>10} {:>10}   {:>10}", "config", "interleave", "co-locate", "DR-BW says");
    for (t, n) in paper_shapes() {
        let rcfg = RunConfig::new(t, n, Input::Large);
        let base = run(&rcfg);
        let inter = run(&rcfg.with_variant(Variant::InterleaveAll));
        let colo = run(&rcfg.with_variant(Variant::CoLocate));
        let p = profile_memo(&Lulesh, &mcfg, &rcfg, SamplerConfig::default(), cache.as_deref());
        let verdict = clf.classify_case(&p, mcfg.topology.num_nodes()).mode();
        println!(
            "{:<10} {:>10.2} {:>10.2}   {:>10}",
            rcfg.shape_label(),
            inter.speedup_over(&base),
            colo.speedup_over(&base),
            verdict.name(),
        );
    }
    println!("\n(paper: co-locate >> interleave; no significant speedup at T16-N4, which the");
    println!(" classifier puts in the good category)");
    report_run_cache(cache.as_deref());
    Ok(())
}
