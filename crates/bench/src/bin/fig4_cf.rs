//! Regenerates Figure 4: the Contribution Fraction (CF) distribution
//! across data objects for the contended benchmarks — AMG2006 (a),
//! Streamcluster (b), LULESH (c), and NW (d).
//!
//! Expected shape (paper §VIII): AMG led by `RAP_diag_j` with `diag_j` /
//! `diag_data` growing with node count; Streamcluster's `block` + `point.p`
//! above 90% combined with `block` first; LULESH's domain arrays (alloc
//! sites at lines 2158–2238) summing above 50% plus a visible untracked
//! share from its static arrays; NW split across `reference` and
//! `input_itemsets`.

use drbw_bench::sweep::train_classifier;
use drbw_bench::util::{open_run_cache, report_run_cache, workload, BenchError};
use drbw_core::diagnoser::diagnose;
use drbw_core::profiler::profile_memo;
use numasim::config::MachineConfig;
use pebs::sampler::SamplerConfig;
use runcache::RunCache;
use workloads::config::{Input, RunConfig};

fn show(
    name: &str,
    rcfg: &RunConfig,
    mcfg: &MachineConfig,
    clf: &drbw_core::ContentionClassifier,
    cache: Option<&RunCache>,
) -> Result<(), BenchError> {
    let w = workload(name)?;
    let p = profile_memo(w, mcfg, rcfg, SamplerConfig::default(), cache);
    let det = clf.classify_case(&p, mcfg.topology.num_nodes());
    let diag = diagnose(&p, &det.contended_channels);
    println!("--- {} ({} {}, verdict {}) ---", name, rcfg.shape_label(), rcfg.input.name(), det.mode().name());
    if diag.overall.is_empty() {
        println!("  (no contended channels)");
        return Ok(());
    }
    for o in diag.overall.iter().take(12) {
        let bar = "#".repeat((o.cf * 50.0).round() as usize);
        println!("  {:<22} line {:>5}  CF {:>6.2}%  {}", o.label, o.line, o.cf * 100.0, bar);
    }
    let rest: f64 = diag.overall.iter().skip(12).map(|o| o.cf).sum();
    if rest > 0.0 {
        println!("  {:<22} {:>11}  CF {:>6.2}%", format!("({} more)", diag.overall.len() - 12), "", rest * 100.0);
    }
    Ok(())
}

fn main() -> Result<(), BenchError> {
    let mcfg = MachineConfig::scaled();
    eprintln!("training classifier...");
    let clf = train_classifier(&mcfg)?;
    let cache = open_run_cache();
    let cache = cache.as_deref();

    println!("=== Figure 4: CF distribution across data objects ===\n");
    println!("(a) AMG2006 — expect RAP_diag_j on top, diag_j/diag_data next");
    for (t, n) in [(32usize, 2usize), (32, 4), (64, 4)] {
        show("AMG2006", &RunConfig::new(t, n, Input::Medium), &mcfg, &clf, cache)?;
    }
    println!("\n(b) Streamcluster — expect block + point.p > 90%, block first");
    show("Streamcluster", &RunConfig::new(32, 4, Input::Native), &mcfg, &clf, cache)?;
    show("Streamcluster", &RunConfig::new(64, 4, Input::Native), &mcfg, &clf, cache)?;
    println!("\n(c) LULESH — expect the line-2158..2238 domain sites > 50% plus an (untracked) share");
    show("LULESH", &RunConfig::new(32, 4, Input::Large), &mcfg, &clf, cache)?;
    show("LULESH", &RunConfig::new(64, 4, Input::Large), &mcfg, &clf, cache)?;
    println!("\n(d) NW — expect reference and input_itemsets to split the CF");
    show("NW", &RunConfig::new(32, 4, Input::Large), &mcfg, &clf, cache)?;
    show("NW", &RunConfig::new(64, 4, Input::Large), &mcfg, &clf, cache)?;
    println!("\n(control) SP — contended but its static arrays are untracked: CF all in (untracked)");
    show("SP", &RunConfig::new(64, 4, Input::Large), &mcfg, &clf, cache)?;
    report_run_cache(cache);
    Ok(())
}
