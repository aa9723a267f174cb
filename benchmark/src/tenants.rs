//! `tenants`: co-resident tenants through the discrete-event scheduler.
//!
//! Closed loop, one client. Each op builds one `victim_aggressor`
//! scenario, runs it under the sampler, keeps the victim's samples and
//! replays them into a fresh `StreamingDetector`. It is the same
//! `numasim` physics as `batch-cold` through the *other* round loop
//! (`sched`): a batched-loop gain that does not reach the scheduler moves
//! `batch-cold` and leaves this workload where it was.

use crate::golden::{Blessed, Golden};
use crate::harness::{ratio, rounds_for, Rng, RunSpec, Section, Setup};
use crate::spec::{
    AGGRESSOR_THREADS, ARRIVAL_STAGGER_PCT, TENANTS_ROUND_S, TENANT_SAMPLING_PERIOD, TENANT_WINDOWS, VICTIM_SOLO_CYCLES,
};
use drbw_core::Mode;
use drbw_stream::{replay_log, ReplayConfig, StreamConfig, StreamingDetector, WindowConfig};
use numasim::sched::TenantId;
use numasim::topology::NodeId;
use pebs::sampler::SamplerConfig;
use workloads::scenario::{victim_aggressor, VictimAggressorConfig, VICTIM_TENANT};

const GOLDEN_COLUMNS: &str =
    "home\taggressor_threads\tstagger_pct\taccesses\tsim_cycles\tsamples\tvictim_samples\twindows\tverdicts";

fn golden() -> Golden {
    Golden::parse(include_str!("../golden/tenants.tsv"), 3, 6)
}

/// One point of the scenario grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// The node both working sets are bound to; the victim's channel is
    /// `0 -> home`.
    pub home: u8,
    /// 0 is the idle control.
    pub aggressor_threads: usize,
    pub stagger_pct: u32,
}

impl Scenario {
    fn key(&self) -> String {
        format!("{}\t{}\t{}", self.home, self.aggressor_threads, self.stagger_pct)
    }

    fn config(&self) -> VictimAggressorConfig {
        let base = VictimAggressorConfig {
            aggressor_arrival_cycles: VICTIM_SOLO_CYCLES * self.stagger_pct as f64 / 100.0,
            remote_home: NodeId(self.home),
            ..VictimAggressorConfig::default()
        };
        if self.aggressor_threads == 0 {
            VictimAggressorConfig { aggressor_threads: 1, aggressor_bytes: 1 << 20, aggressor_passes: 1, ..base }
        } else {
            VictimAggressorConfig { aggressor_threads: self.aggressor_threads, ..base }
        }
    }
}

fn grid(home: u8) -> Vec<Scenario> {
    let mut out = Vec::new();
    for aggressor_threads in AGGRESSOR_THREADS {
        for stagger_pct in ARRIVAL_STAGGER_PCT {
            out.push(Scenario { home, aggressor_threads, stagger_pct });
        }
    }
    out
}

/// The scenarios a seed chooses: the whole grid, in a seeded order, on a
/// seeded home node; every round of the section runs this same list. The
/// topology is symmetric, so the home node changes which channel must be
/// flagged and not how much work a round is.
pub fn plan(spec: &RunSpec) -> Vec<Scenario> {
    let mut rng = Rng::new(spec.seed, 0);
    let mut scenarios = grid(1 + rng.below(3) as u8);
    rng.shuffle(&mut scenarios);
    scenarios
}

pub fn run_scenarios(
    scenarios: &[Scenario],
    rounds: usize,
    setup: &Setup,
    trace: bool,
    mut blessed: Option<&mut Blessed>,
) -> Section {
    let mcfg = setup.tool.machine();
    let sampler = SamplerConfig { period: TENANT_SAMPLING_PERIOD, ..SamplerConfig::default() };
    let golden = golden();
    let mut sched_accesses = 0u64;

    let mut sec = Section::start(trace);
    for _ in 0..rounds {
        for sc in scenarios {
            let op = sec.next_op();
            sec.begin_op();

            sec.tracer.begin("workloads.scenario.build", op);
            let scenario = victim_aggressor(mcfg, &sc.config());
            sec.tracer.end(1);

            sec.tracer.begin("numasim.sched", op);
            let outcome = scenario.run(Some(sampler));
            sec.tracer.end(outcome.observed_accesses);

            sec.tracer.begin("pebs.tenant.partition", op);
            let victim = outcome.tenants.samples_of(TenantId(VICTIM_TENANT), &outcome.samples);
            sec.tracer.end(outcome.samples.len() as u64);

            sec.tracer.begin("stream.replay", op);
            let span = victim.iter().map(|s| s.time).fold(0.0f64, f64::max);
            let window = WindowConfig::tumbling((span / TENANT_WINDOWS).max(1.0));
            let scfg = StreamConfig::new(mcfg.topology.num_nodes(), window);
            let mut detector = StreamingDetector::new(setup.tool.classifier().clone(), scfg);
            let replay = replay_log(&victim, &outcome.tracker, &mut detector, ReplayConfig::default());
            sec.tracer.end(victim.len() as u64);

            let flagged = |src: u8, dst: u8| {
                replay.events.iter().any(|e| e.mode == Mode::Rmc && e.channel.src.0 == src && e.channel.dst.0 == dst)
            };
            let any_rmc = replay.events.iter().any(|e| e.mode == Mode::Rmc);
            let key = sc.key();
            let counts = format!(
                "{}\t{}\t{}\t{}\t{}\t{}",
                outcome.observed_accesses,
                outcome.stats.run.cycles,
                outcome.samples.len(),
                victim.len(),
                replay.metrics.windows_classified,
                replay.events.len()
            );
            let checks = if replay.dropped != 0 {
                Err(format!("{key:?}: the replay ring dropped {} samples", replay.dropped))
            } else if sc.aggressor_threads == 0 && any_rmc {
                Err(format!("{key:?}: the idle control was flagged rmc"))
            } else if sc.aggressor_threads == 24 && sc.stagger_pct == 0 && !flagged(0, sc.home) {
                Err(format!("{key:?}: 24 aggressor threads from arrival 0 did not flag 0->{}", sc.home))
            } else {
                golden.check_or_collect(blessed.as_deref_mut(), key, counts)
            };
            sec.end_op(checks);

            sched_accesses += outcome.observed_accesses;
            sec.add("numasim.sched.sim_cycles", outcome.stats.run.cycles);
            sec.add("pebs.tenant.partition.samples", outcome.samples.len() as f64);
            sec.add("stream.replay.samples", replay.offered as f64);
            sec.add("stream.replay.windows", replay.metrics.windows_classified as f64);
            sec.add("stream.replay.verdicts", replay.events.len() as f64);
            sec.add("stream.replay.dropped", replay.dropped as f64);
        }
        sec.end_round();
    }
    sec.finish();
    sec.headline = sec.best_per_op();
    sec.items = sched_accesses;
    sec.set("numasim.sched.accesses", sched_accesses as f64);
    if trace {
        let busy = sec.tracer.layers().get("numasim.sched").map_or(0.0, |l| l.busy_s);
        sec.set("numasim.sched.ns_per_access", ratio(busy * 1e9, sched_accesses as f64));
    }
    sec
}

pub fn run(spec: &RunSpec, setup: &Setup) -> Section {
    run_scenarios(&plan(spec), rounds_for(spec.seconds, TENANTS_ROUND_S), setup, spec.trace, None)
}

pub fn bless(setup: &Setup) -> std::io::Result<()> {
    let mut rows = Blessed::new();
    let every: Vec<Scenario> = (1..=3).flat_map(grid).collect();
    let sec = run_scenarios(&every, 1, setup, false, Some(&mut rows));
    assert!(sec.failures.is_empty(), "bless: {:?}", sec.failures);
    crate::golden::write("tenants.tsv", GOLDEN_COLUMNS, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::load_shipped_model;

    #[test]
    fn every_seed_runs_the_whole_grid() {
        let spec = |seed| RunSpec { seed, seconds: 12.0, trace: false };
        let a = plan(&spec(5));
        assert_eq!(a, plan(&spec(5)));
        assert_ne!(a, plan(&spec(6)));
        assert!(a.iter().all(|s| s.home == a[0].home && (1..=3).contains(&s.home)));
        let mut points: Vec<_> = a.iter().map(|s| (s.aggressor_threads, s.stagger_pct)).collect();
        points.sort_unstable();
        let want: Vec<_> = grid(1).iter().map(|s| (s.aggressor_threads, s.stagger_pct)).collect();
        assert_eq!(points, want);
        assert_eq!(rounds_for(12.0, TENANTS_ROUND_S), 11);
    }

    #[test]
    fn smoke_passes_its_checks() {
        let setup = load_shipped_model();
        let scenarios = plan(&RunSpec { seed: 9, seconds: 1.0, trace: true });
        let sec = run_scenarios(&scenarios, 1, &setup, true, None);
        assert_eq!(sec.failures, Vec::<String>::new());
        assert_eq!(sec.op_ms.len(), 12);
        assert_eq!(sec.values["stream.replay.dropped"], 0.0);
        assert_eq!(sec.tracer.layers()["numasim.sched"].count, sec.items);
    }
}
