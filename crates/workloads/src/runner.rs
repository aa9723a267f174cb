//! Executes workloads on the simulator, with or without PEBS sampling.

use crate::config::{RunConfig, Variant};
use crate::spec::Workload;
use numasim::config::MachineConfig;
use numasim::engine::{Engine, NullObserver, Observer};
use numasim::memmap::PlacementPolicy;
use numasim::stats::RunStats;
use pebs::alloc::AllocationTracker;
use pebs::sample::MemSample;
use pebs::sampler::{AddressSampler, SamplerConfig};
use std::time::{Duration, Instant};

/// Statistics of one executed phase.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// Phase name.
    pub name: &'static str,
    /// Engine statistics for the phase.
    pub stats: RunStats,
    /// Whether this was an unmeasured warmup phase.
    pub warmup: bool,
}

/// Everything a workload run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-phase results, in execution order.
    pub phases: Vec<PhaseOutcome>,
    /// Collected memory samples (empty when run unprofiled).
    pub samples: Vec<MemSample>,
    /// The allocation tracker (for attribution).
    pub tracker: AllocationTracker,
    /// Total simulated access events.
    pub observed_accesses: u64,
    /// Host wall-clock time of the simulation (for the overhead table).
    pub wall: Duration,
}

impl RunOutcome {
    /// Total simulated cycles over all **measured** phases (warmup phases
    /// populate the caches but do not count).
    pub fn cycles(&self) -> f64 {
        self.phases.iter().filter(|p| !p.warmup).map(|p| p.stats.cycles).sum()
    }

    /// Cycles of one named phase.
    ///
    /// # Panics
    /// Panics if no phase has that name.
    pub fn phase_cycles(&self, name: &str) -> f64 {
        self.phases.iter().find(|p| p.name == name).unwrap_or_else(|| panic!("no phase named {name:?}")).stats.cycles
    }

    /// Speedup of `self` over a baseline run of the same work.
    pub fn speedup_over(&self, baseline: &RunOutcome) -> f64 {
        baseline.cycles() / self.cycles()
    }

    /// Aggregate access counts over all measured phases.
    pub fn total_counts(&self) -> numasim::stats::AccessCounts {
        let mut total = numasim::stats::AccessCounts::default();
        for p in self.phases.iter().filter(|p| !p.warmup) {
            let c = p.stats.counts;
            total.l1 += c.l1;
            total.l2 += c.l2;
            total.l3 += c.l3;
            total.lfb += c.lfb;
            total.local_dram += c.local_dram;
            total.remote_dram += c.remote_dram;
        }
        total
    }
}

fn execute<O: Observer>(
    workload: &dyn Workload,
    mcfg: &MachineConfig,
    run: &RunConfig,
    observer: O,
) -> (Vec<PhaseOutcome>, AllocationTracker, O) {
    assert!(workload.supports(run.variant), "{} does not support {:?}", workload.name(), run.variant);
    let built = workload.build(mcfg, run);
    let mut mm = built.mm;
    if run.variant == Variant::InterleaveAll {
        // The paper's coarse optimization: every heap page of the program
        // interleaved across all nodes.
        let ids: Vec<_> = mm.objects().map(|(id, _)| id).collect();
        for id in ids {
            mm.set_policy(id, PlacementPolicy::interleave_all(mcfg.topology.num_nodes()));
        }
    }
    if let Some(plan) = &run.plan {
        // Guided optimization: the tuner's per-object re-placements, on top
        // of (and overriding) whatever the variant did.
        if let Err(e) = plan.apply(&mut mm) {
            panic!("placement plan invalid for {}: {e}", workload.name());
        }
    }
    let mut engine = Engine::new(mcfg, mm, observer);
    let mut phases = Vec::with_capacity(built.phases.len());
    for phase in built.phases {
        if phase.warmup {
            engine.observer_mut().set_enabled(false);
        }
        let stats = engine.run_phase(phase.threads);
        if phase.warmup {
            engine.observer_mut().set_enabled(true);
        }
        phases.push(PhaseOutcome { name: phase.name, stats, warmup: phase.warmup });
    }
    let (_, observer) = engine.into_parts();
    (phases, built.tracker, observer)
}

/// Run a workload under an arbitrary observer (e.g. the AMD-IBS or
/// IBM-MRK sampling backends). Returns the phase outcomes, the allocation
/// tracker, and the observer itself (holding whatever it collected).
/// Warmup phases disable the observer via [`Observer::set_enabled`].
pub fn run_observed<O: Observer>(
    workload: &dyn Workload,
    mcfg: &MachineConfig,
    run_cfg: &RunConfig,
    observer: O,
) -> (Vec<PhaseOutcome>, AllocationTracker, O) {
    execute(workload, mcfg, run_cfg, observer)
}

/// Run a workload. With `sampling: Some(cfg)` a PEBS sampler observes the
/// run and the outcome carries its samples; with `None` the run is
/// unprofiled (the baseline side of the overhead experiment).
pub fn run(
    workload: &dyn Workload,
    mcfg: &MachineConfig,
    run_cfg: &RunConfig,
    sampling: Option<SamplerConfig>,
) -> RunOutcome {
    let start = Instant::now();
    match sampling {
        Some(cfg) => {
            let (phases, tracker, sampler) = execute(workload, mcfg, run_cfg, AddressSampler::new(cfg));
            let wall = start.elapsed();
            let observed = sampler.observed_accesses();
            let mut sampler = sampler;
            RunOutcome { phases, samples: sampler.drain_samples(), tracker, observed_accesses: observed, wall }
        }
        None => {
            let (phases, tracker, _) = execute(workload, mcfg, run_cfg, NullObserver);
            let wall = start.elapsed();
            let observed = phases.iter().filter(|p| !p.warmup).map(|p| p.stats.counts.total()).sum();
            RunOutcome { phases, samples: Vec::new(), tracker, observed_accesses: observed, wall }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Input;
    use crate::micro::Sumv;

    #[test]
    fn profiling_perturbs_time_but_not_results() {
        let mcfg = MachineConfig::scaled();
        let rcfg = RunConfig::new(16, 4, Input::Medium);
        let plain = run(&Sumv, &mcfg, &rcfg, None);
        let profiled = run(&Sumv, &mcfg, &rcfg, Some(SamplerConfig::default()));
        // The same work is simulated either way...
        assert_eq!(plain.observed_accesses, profiled.observed_accesses);
        assert!(plain.samples.is_empty());
        assert!(!profiled.samples.is_empty());
        // ...but each recorded sample charges its per-sample cost to the
        // profiled program (the Table VII overhead), so the profiled run
        // is slightly slower in simulated time — and never faster.
        assert!(profiled.cycles() >= plain.cycles());
        assert!(profiled.cycles() < plain.cycles() * 1.30, "overhead should stay bounded on a short run");
        // With the perturbation disabled, sampling is pure observation.
        let pure = run(&Sumv, &mcfg, &rcfg, Some(SamplerConfig { per_sample_cost: 0.0, ..SamplerConfig::default() }));
        assert_eq!(pure.cycles(), plain.cycles());
    }

    #[test]
    fn interleave_all_changes_placement() {
        let mcfg = MachineConfig::scaled();
        let rcfg = RunConfig::new(32, 4, Input::Large);
        let base = run(&Sumv, &mcfg, &rcfg, None);
        let inter = run(&Sumv, &mcfg, &rcfg.with_variant(Variant::InterleaveAll), None);
        // Master-allocated sumv at large input contends; interleave helps.
        assert!(inter.speedup_over(&base) > 1.1, "speedup {}", inter.speedup_over(&base));
    }

    #[test]
    fn plan_application_matches_variant_treatment() {
        // A plan interleaving sumv's only tracked array must reproduce the
        // generic InterleaveAll variant exactly: same placement → identical
        // simulated outcome.
        let mcfg = MachineConfig::scaled();
        let rcfg = RunConfig::new(32, 4, Input::Large);
        let via_variant = run(&Sumv, &mcfg, &rcfg.with_variant(Variant::InterleaveAll), None);
        let plan = crate::plan::PlacementPlan::new()
            .with("v", crate::plan::PlanAction::Interleave((0..4).map(numasim::topology::NodeId).collect()));
        let via_plan = run(&Sumv, &mcfg, &rcfg.with_plan(plan), None);
        assert_eq!(via_plan.cycles(), via_variant.cycles());
        let base = run(&Sumv, &mcfg, &rcfg, None);
        assert!(via_plan.speedup_over(&base) > 1.1, "plan must deliver the interleave relief");
    }

    #[test]
    fn phase_lookup() {
        let mcfg = MachineConfig::scaled();
        let rcfg = RunConfig::new(16, 2, Input::Small);
        let out = run(&Sumv, &mcfg, &rcfg, None);
        assert!(out.phase_cycles("init") > 0.0);
        assert!(out.phase_cycles("compute") > 0.0);
        // Measured cycles exclude the warmup phase.
        let measured: f64 = out.phases.iter().filter(|p| !p.warmup).map(|p| p.stats.cycles).sum();
        let all: f64 = out.phases.iter().map(|p| p.stats.cycles).sum();
        assert_eq!(out.cycles(), measured);
        assert!(all > measured, "sumv has a warmup phase");
    }

    /// `run_observed` asks nothing of an observer beyond [`Observer`]: one
    /// that is neither `Clone` nor `Send` sees every access of every phase.
    #[test]
    fn run_observed_takes_a_thread_bound_observer() {
        use numasim::engine::AccessEvent;
        use std::cell::Cell;
        use std::rc::Rc;

        struct Count(Rc<Cell<u64>>);
        impl Observer for Count {
            fn on_access(&mut self, _ev: &AccessEvent) -> f64 {
                self.0.set(self.0.get() + 1);
                0.0
            }
        }
        let seen = Rc::new(Cell::new(0));
        let mcfg = MachineConfig::scaled();
        let rcfg = RunConfig::new(16, 2, Input::Small);
        let (phases, _, _) = run_observed(&Sumv, &mcfg, &rcfg, Count(Rc::clone(&seen)));
        // `Count` ignores `set_enabled`, so warmup phases count too.
        let total: u64 = phases.iter().map(|p| p.stats.counts.total()).sum();
        assert!(total > 0);
        assert_eq!(seen.get(), total);
    }

    #[test]
    #[should_panic(expected = "no phase named")]
    fn unknown_phase_panics() {
        let mcfg = MachineConfig::scaled();
        let out = run(&Sumv, &mcfg, &RunConfig::new(16, 2, Input::Small), None);
        out.phase_cycles("nope");
    }
}
