//! Regenerates the §VIII case-study scalars that are not figures:
//!
//! * NW: co-locating `reference` and `input_itemsets` gains ~32.6%, and
//!   the average memory access latency drops (~60% in the paper);
//! * SP: whole-program interleave reaches ~1.75× at high threads-per-node
//!   (its static arrays cannot be co-located by a malloc-level tool);
//! * Blackscholes (a good-class control): co-locating the top-CF `buffer`
//!   object gains <1%, confirming the classifier's negative verdict;
//! * AMG2006: the optimized code's remote accesses drop by ~88% and
//!   average latency by ~83% (paper's §VIII.A numbers), IRSmk by ~72.5% /
//!   ~88.9%, LULESH by ~50% / ~67%.

use drbw_bench::sweep::ground_truth;
use drbw_bench::util::{memo_run, open_run_cache, report_run_cache, workload, BenchError};
use numasim::config::MachineConfig;
use pebs::sampler::SamplerConfig;
use runcache::RunCache;
use workloads::config::{Input, RunConfig, Variant};

fn remote_and_latency(
    name: &str,
    rcfg: &RunConfig,
    mcfg: &MachineConfig,
    cache: Option<&RunCache>,
) -> Result<(u64, f64), BenchError> {
    let w = workload(name)?;
    let p = drbw_core::profiler::profile_memo(w, mcfg, rcfg, SamplerConfig::default(), cache);
    let remote = p.phases.iter().filter(|ph| !ph.warmup).map(|ph| ph.stats.counts.remote_dram).sum();
    let lat = if p.samples.is_empty() {
        0.0
    } else {
        p.samples.iter().map(|s| s.latency).sum::<f64>() / p.samples.len() as f64
    };
    Ok((remote, lat))
}

fn reduction_report(
    name: &str,
    rcfg: &RunConfig,
    variant: Variant,
    mcfg: &MachineConfig,
    cache: Option<&RunCache>,
) -> Result<(), BenchError> {
    let (r0, l0) = remote_and_latency(name, rcfg, mcfg, cache)?;
    let opt = rcfg.with_variant(variant);
    let (r1, l1) = remote_and_latency(name, &opt, mcfg, cache)?;
    let w = workload(name)?;
    let base = memo_run(cache, w, mcfg, rcfg, None);
    let best = memo_run(cache, w, mcfg, &opt, None);
    println!(
        "{:<14} {:?}: speedup {:.2}x, remote accesses {:+.1}%, avg sampled latency {:+.1}%",
        name,
        variant,
        best.speedup_over(&base),
        (r1 as f64 / r0.max(1) as f64 - 1.0) * 100.0,
        (l1 / l0.max(1e-9) - 1.0) * 100.0,
    );
    Ok(())
}

fn main() -> Result<(), BenchError> {
    let mcfg = MachineConfig::scaled();
    let cache = open_run_cache();
    let cache = cache.as_deref();
    println!("=== §VIII case-study scalars ===\n");

    println!("--- NW (§VIII.E): paper +32.6%, latency -60% ---");
    reduction_report("NW", &RunConfig::new(64, 4, Input::Large), Variant::CoLocate, &mcfg, cache)?;

    println!("\n--- SP (§VIII.F): paper up to 1.75x with interleave at >8 threads/node ---");
    for (t, n) in [(64usize, 4usize), (32, 2), (16, 4)] {
        let rcfg = RunConfig::new(t, n, Input::Large);
        let w = workload("SP")?;
        let gt = ground_truth(cache, w, &mcfg, &rcfg);
        println!("SP {:<8} interleave speedup {:.2}x", rcfg.shape_label(), gt.interleave_speedup);
    }

    println!("\n--- Blackscholes (§VIII.G): a good-class control, paper <1% ---");
    reduction_report("Blackscholes", &RunConfig::new(64, 4, Input::Native), Variant::CoLocate, &mcfg, cache)?;

    println!("\n--- Optimized-code reductions (paper: AMG -87.8%/-83%, IRSmk -72.5%/-88.9%, LULESH -50%/-67%) ---");
    reduction_report("AMG2006", &RunConfig::new(64, 4, Input::Medium), Variant::CoLocate, &mcfg, cache)?;
    reduction_report("IRSmk", &RunConfig::new(64, 4, Input::Large), Variant::CoLocate, &mcfg, cache)?;
    reduction_report("LULESH", &RunConfig::new(64, 4, Input::Large), Variant::CoLocate, &mcfg, cache)?;
    reduction_report("Streamcluster", &RunConfig::new(64, 4, Input::Native), Variant::Replicate, &mcfg, cache)?;
    report_run_cache(cache);
    Ok(())
}
