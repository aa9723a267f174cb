//! End-to-end tests of the closed tuning loop: diagnose → plan → apply →
//! re-simulate → verify on real simulated workloads.

use drbw_core::classifier::ContentionClassifier;
use drbw_core::{training, DrBw, TrainingSet};
use drbw_tune::{CandidateKind, Tune, TuneConfig, TuneReport};
use mldt::tree::TrainConfig;
use numasim::config::MachineConfig;
use numasim::memmap::PlacementPolicy;
use numasim::topology::NodeId;
use workloads::config::{Input, RunConfig};
use workloads::plan::PlanAction;
use workloads::spec::{BuiltWorkload, Suite, Workload};
use workloads::suite::common::{partitioned_scan, Builder, ScanParams};

/// The contended micro of `engine.rs::contention_and_interleave_relief`:
/// a 32 MiB array master-allocated on node 0, scanned partitioned by the
/// run's threads — the canonical case interleaving relieves by > 1.5×.
struct ContendedMicro;

impl Workload for ContendedMicro {
    fn name(&self) -> &'static str {
        "ContendedMicro"
    }
    fn suite(&self) -> Suite {
        Suite::Micro
    }
    fn inputs(&self) -> Vec<Input> {
        vec![Input::Native]
    }
    fn build(&self, mcfg: &MachineConfig, run: &RunConfig) -> BuiltWorkload {
        let mut b = Builder::new(mcfg, run);
        let a = b.alloc("a", 7, 32 << 20, PlacementPolicy::Bind(NodeId(0)));
        let threads = partitioned_scan(&b, &[a], ScanParams::read(4, 1, 0.5));
        b.phase("scan", threads);
        b.finish()
    }
}

/// The same scan with the array already split evenly across the nodes —
/// nothing for the tuner to fix.
struct BalancedMicro;

impl Workload for BalancedMicro {
    fn name(&self) -> &'static str {
        "BalancedMicro"
    }
    fn suite(&self) -> Suite {
        Suite::Micro
    }
    fn inputs(&self) -> Vec<Input> {
        vec![Input::Native]
    }
    fn build(&self, mcfg: &MachineConfig, run: &RunConfig) -> BuiltWorkload {
        let mut b = Builder::new(mcfg, run);
        let size = 32u64 << 20;
        let policy = b.colocate_policy(size);
        let a = b.alloc("a", 7, size, policy);
        let threads = partitioned_scan(&b, &[a], ScanParams::read(4, 1, 0.5));
        b.phase("scan", threads);
        b.finish()
    }
}

fn tool() -> DrBw {
    let mcfg = MachineConfig::scaled();
    let data = training::quick_training_set(&mcfg);
    DrBw::new(ContentionClassifier::train(&data, TrainConfig::default()))
}

/// A tool whose runs use at most `threads` workers.
fn capped_tool(threads: usize) -> DrBw {
    DrBw::builder().training_set(TrainingSet::Quick).threads(threads).build().expect("the quick grid trains")
}

/// Tune one case under a 1-thread and a 2-thread tool; the reports must be
/// identical down to the bits of every cycle count and the trace order.
fn tune_both_ways(tools: &(DrBw, DrBw), workload: &dyn Workload, rcfg: &RunConfig, cfg: &TuneConfig) -> TuneReport {
    let (serial, parallel) = (tools.0.tune(workload, rcfg, cfg), tools.1.tune(workload, rcfg, cfg));
    let steps =
        |r: &TuneReport| r.trace.iter().map(|s| (s.description.clone(), s.cycles.to_bits())).collect::<Vec<_>>();
    assert_eq!(steps(&serial), steps(&parallel), "trace order and cycles\n{}", parallel.render());
    assert_eq!(serial.plan, parallel.plan);
    assert_eq!(serial.baseline_cycles.to_bits(), parallel.baseline_cycles.to_bits());
    assert_eq!(serial.tuned_cycles.to_bits(), parallel.tuned_cycles.to_bits());
    assert_eq!(serial.evaluations, parallel.evaluations);
    assert_eq!(parallel.evaluations, parallel.trace.len() + 1, "the baseline plus one run per step");
    parallel
}

#[test]
fn closed_loop_recovers_interleave_relief() {
    let tool = tool();
    let rcfg = RunConfig::new(32, 4, Input::Native);
    let report = tool.tune(&ContendedMicro, &rcfg, &TuneConfig::default());
    assert!(report.improved(), "the loop must fix the contended micro:\n{}", report.render());
    assert!(
        report.speedup() > 1.5,
        "interleave relief must be recovered, got x{:.3}\n{}",
        report.speedup(),
        report.render()
    );
    assert!(
        report.plan.entries().iter().any(|e| e.label == "a"),
        "the plan re-places the diagnosed array, got: {}",
        report.plan.describe()
    );
    assert_eq!(report.diagnosis.top_object().unwrap().label, "a", "CF ranking names the root cause");
    // Bookkeeping: one baseline + one evaluation per trace entry.
    assert_eq!(report.evaluations, report.trace.len() + 1);
    assert!(report.trace.iter().all(|s| s.cycles > 0.0 && s.speedup > 0.0));
}

#[test]
fn no_op_fallback_never_reports_a_slowdown() {
    let tool = tool();
    let rcfg = RunConfig::new(32, 4, Input::Native);
    let report = tool.tune(&BalancedMicro, &rcfg, &TuneConfig::default());
    assert!(report.speedup() >= 1.0, "the fallback bounds speedup at 1, got x{:.3}", report.speedup());
    assert!(report.tuned_cycles <= report.baseline_cycles);
    if !report.improved() {
        assert_eq!(report.tuned_cycles, report.baseline_cycles, "no-op verdict keeps the baseline cycles");
        assert!(report.plan.is_empty());
    }
}

#[test]
fn weighted_interleave_wins_on_an_asymmetric_machine() {
    // Channels *into node 3* run at 40% bandwidth (Lepers-style asymmetry):
    // dense index s*(n-1) + (d>s ? d-1 : d) for d=3 gives 2, 5, 8.
    let mut mcfg = MachineConfig::scaled();
    let weak = 0.4 * mcfg.interconnect.channel_bandwidth;
    mcfg.interconnect.overrides = vec![(2, weak), (5, weak), (8, weak)];
    let tool = DrBw::builder()
        .machine(mcfg)
        .training_set(TrainingSet::Quick)
        .build()
        .expect("train on the asymmetric machine");
    let rcfg = RunConfig::new(32, 4, Input::Native);
    let report = tool.tune(&ContendedMicro, &rcfg, &TuneConfig::default());
    assert!(report.improved(), "asymmetric contention must still be fixed:\n{}", report.render());

    // The weight search must have explored non-uniform ratios that shed
    // pages from the weak node...
    let weighted: Vec<_> = report
        .trace
        .iter()
        .filter_map(|s| {
            s.plan.entries().iter().find_map(|e| match &e.action {
                PlanAction::WeightedInterleave { nodes, weights } => Some((nodes.clone(), weights.clone())),
                _ => None,
            })
        })
        .collect();
    assert!(!weighted.is_empty(), "weight search ran:\n{}", report.render());
    let shed = weighted.iter().any(|(nodes, weights)| {
        let max = *weights.iter().max().unwrap();
        nodes.iter().zip(weights).any(|(n, &w)| n.0 == 3 && w < max)
    });
    assert!(shed, "some proposal under-weights the weak node: {weighted:?}\n{}", report.render());

    // ...and the best weighted candidate must beat uniform interleave.
    let best_weighted = report
        .trace
        .iter()
        .filter(|s| s.description.contains("weighted-interleave"))
        .map(|s| s.cycles)
        .fold(f64::INFINITY, f64::min);
    let uniform = report
        .trace
        .iter()
        .filter(|s| s.description.contains("\u{2192}interleave("))
        .map(|s| s.cycles)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_weighted < uniform,
        "weighted ({best_weighted:.0}) must beat uniform ({uniform:.0}) on the asymmetric machine:\n{}",
        report.render()
    );
}

#[test]
fn thread_cap_does_not_change_the_report() {
    let tools = (capped_tool(1), capped_tool(2));
    tune_both_ways(&tools, &ContendedMicro, &RunConfig::new(32, 4, Input::Native), &TuneConfig::default());

    // Two objects' weight chains advance in the same waves; the combined
    // plan still comes last and each chain stays in its object's block.
    let nw_shape = RunConfig::new(64, 4, Input::Medium);
    let nw = tune_both_ways(&tools, &workloads::suite::Nw, &nw_shape, &TuneConfig::default());
    let chains: Vec<&str> = nw
        .trace
        .iter()
        .filter(|s| s.description.contains("weighted-interleave") && !s.description.starts_with("combined"))
        .map(|s| s.description.split('\u{2192}').next().unwrap())
        .collect();
    assert!(chains.len() >= 4 && chains.first() != chains.last(), "two weight chains:\n{}", nw.render());
    assert!(chains.windows(2).filter(|w| w[0] != w[1]).count() == 1, "each chain contiguous:\n{}", nw.render());
    assert!(nw.trace.last().unwrap().description.starts_with("combined:"), "{}", nw.render());

    // The uniform seed is evaluated although it is not a configured
    // family: each object runs it after co-locate and before its first
    // iterate, and it never enters the combined plan (it is not noted).
    let cfg = TuneConfig::builder()
        .candidates([CandidateKind::Colocate, CandidateKind::WeightedInterleave])
        .build()
        .expect("two families are a valid configuration");
    let seeded = tune_both_ways(&tools, &workloads::suite::Nw, &nw_shape, &cfg);
    for label in ["input_itemsets", "reference"] {
        let actions: Vec<&str> =
            seeded.trace.iter().filter_map(|s| s.description.strip_prefix(&format!("{label}\u{2192}"))).collect();
        assert_eq!(actions[..2], ["co-locate(4 nodes)", "interleave(4 nodes)"], "{}", seeded.render());
        assert!(
            actions.len() > 2 && actions[2..].iter().all(|a| a.starts_with("weighted-interleave(")),
            "{}",
            seeded.render()
        );
    }
    let combined = seeded.trace.last().unwrap();
    assert!(combined.description.starts_with("combined:"), "{}", seeded.render());
    assert!(
        combined.plan.entries().iter().all(|e| !matches!(e.action, PlanAction::Interleave(_))),
        "{}",
        seeded.render()
    );
}

#[test]
fn run_cache_serves_repeat_tunes() {
    let dir = std::env::temp_dir().join(format!("drbw-tune-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut tool = tool();
    tool.attach_run_cache(std::sync::Arc::new(runcache::RunCache::open(&dir).expect("open cache")));
    let rcfg = RunConfig::new(32, 4, Input::Native);
    let cold = tool.tune(&ContendedMicro, &rcfg, &TuneConfig::default());
    let stored = tool.run_cache().unwrap().metrics().stores;
    assert!(stored > 0, "cold loop populates the cache");
    // One wave may run two same-key candidates (on this one-object program
    // the coarse plan is the object's interleave): both miss and both
    // store, so the cold pass's store count is not pinned.
    let cold_misses = tool.run_cache().unwrap().metrics().misses;
    let warm = tool.tune(&ContendedMicro, &rcfg, &TuneConfig::default());
    let m = tool.run_cache().unwrap().metrics();
    assert!(m.hits >= cold.evaluations as u64, "warm loop replays from disk: {m:?}");
    assert_eq!(m.misses, cold_misses, "the warm loop misses nothing: {m:?}");
    assert_eq!(warm.plan, cold.plan, "cached replay chooses the identical plan");
    assert_eq!(warm.tuned_cycles, cold.tuned_cycles, "cached cycles are bit-identical");
    assert_eq!(warm.baseline_cycles, cold.baseline_cycles);
    let _ = std::fs::remove_dir_all(&dir);
}
