//! Channel-level localization under interconnect asymmetry.
//!
//! §III(a) of the paper motivates *per-channel* detection with the
//! observation (after Lepers et al.) that interconnect bandwidths differ
//! between node pairs — even between the two directions of one link — so
//! contention must be attributed to specific channels. This study isolates
//! that capability, which none of the paper's whole-program tables can
//! show:
//!
//! 1. Degrade one directed channel (N1→N0) to a fraction of the others'
//!    bandwidth.
//! 2. Run a workload whose traffic into node 0 is *symmetric* across the
//!    three source nodes.
//! 3. Show DR-BW flags exactly the weak channel while the symmetric
//!    machine flags none (or all three at higher load) — and that a
//!    whole-program detector could only say "contended somewhere".

use drbw_bench::sweep::train_classifier;
use drbw_bench::util::{open_run_cache, report_run_cache, workload, BenchError};
use drbw_core::classifier::ContentionClassifier;
use drbw_core::profiler::{profile_memo, Profile};
use numasim::config::MachineConfig;
use numasim::topology::{ChannelId, NodeId};
use pebs::sampler::SamplerConfig;
use runcache::RunCache;
use workloads::config::{Input, RunConfig};

fn profile_on(mcfg: &MachineConfig, rcfg: &RunConfig, cache: Option<&RunCache>) -> Result<Profile, BenchError> {
    Ok(profile_memo(workload("Streamcluster")?, mcfg, rcfg, SamplerConfig::default(), cache))
}

fn verdicts(clf: &ContentionClassifier, p: &Profile) -> Vec<ChannelId> {
    clf.classify_case(p, 4).contended_channels
}

fn main() -> Result<(), BenchError> {
    let mut mcfg = MachineConfig::scaled();
    eprintln!("training classifier on the symmetric machine...");
    let clf = train_classifier(&mcfg)?;
    let cache = open_run_cache();

    // A light configuration: symmetric links handle it without contention.
    let rcfg = RunConfig::new(16, 4, Input::Large);

    println!("=== Channel-level localization under interconnect asymmetry ===\n");
    let p = profile_on(&mcfg, &rcfg, cache.as_deref())?;
    let base_verdicts = verdicts(&clf, &p);
    println!(
        "symmetric machine, Streamcluster {} (simLarge): contended channels = {:?}",
        rcfg.shape_label(),
        base_verdicts.iter().map(|c| c.to_string()).collect::<Vec<_>>()
    );

    // Degrade N1->N0 to 40% of nominal (a weak or shared link).
    let weak = numasim::topology::Topology::new(4, 8, 2)
        .channel_index(ChannelId { src: NodeId(1), dst: NodeId(0) })
        .ok_or_else(|| BenchError::new("channel N1->N0 missing from the 4-node topology"))?;
    mcfg.interconnect.overrides = vec![(weak, mcfg.interconnect.channel_bandwidth * 0.4)];
    let p = profile_on(&mcfg, &rcfg, cache.as_deref())?;
    let asym_verdicts = verdicts(&clf, &p);
    println!(
        "N1->N0 degraded to 40%:                                contended channels = {:?}",
        asym_verdicts.iter().map(|c| c.to_string()).collect::<Vec<_>>()
    );

    let hit = asym_verdicts.contains(&ChannelId { src: NodeId(1), dst: NodeId(0) });
    let clean = base_verdicts.is_empty();
    println!();
    if clean && hit && asym_verdicts.len() == 1 {
        println!("DR-BW localized the weak link exactly: only N1->N0 is flagged, though the");
        println!("workload's traffic into node 0 is symmetric across all three source nodes.");
        println!("A whole-program heuristic sees identical aggregate statistics in both runs.");
    } else {
        println!(
            "(observed: baseline {:?}, asymmetric {:?} — see analysis above)",
            base_verdicts.len(),
            asym_verdicts.len()
        );
    }
    report_run_cache(cache.as_deref());
    Ok(())
}
