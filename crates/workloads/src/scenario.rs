//! Multi-tenant scenarios: tenant specs + arrival process over one machine.
//!
//! The single-workload [`run`](crate::runner::run) path drives one
//! workload's threads through the closed-loop engine. This module is its
//! multi-tenant counterpart: a [`Scenario`] owns the shared machine (memory
//! map + allocation tracker), hosts several [`TenantRun`]s, shapes their
//! arrival times with an [`ArrivalProcess`], and executes them through the
//! discrete-event scheduler (`numasim::sched`) with an optional PEBS-style
//! sampler attached. The outcome keeps a [`TenantMap`] so the mixed sample
//! log can be partitioned per tenant — the victim/aggressor experiment
//! replays only the victim's samples through the streaming detector.
//!
//! [`victim_aggressor`] builds the canonical cross-tenant contention
//! scenario: a quiet victim whose data lives on a remote node, and a
//! bandwidth-hog aggressor tenant hammering that same home node from other
//! sockets. The victim's own traffic is modest, but its remote latency
//! inflates with the aggressor-driven controller utilization — contention
//! the paper's single-tenant training set never exhibited.

use numasim::prelude::*;
use pebs::numa_api::{tracked_alloc_with, TrackedAlloc};
use pebs::sampler::{AddressSampler, SamplerConfig};
use pebs::tenant::TenantMap;
use pebs::{AllocationTracker, MemSample};
use std::time::{Duration, Instant};

use numasim::sched::{ScenarioStats, TenantRun};

/// A multi-tenant scenario under construction: machine config, shared
/// address space, and the tenants to co-schedule.
pub struct Scenario {
    mcfg: MachineConfig,
    mm: MemoryMap,
    tracker: AllocationTracker,
    tenants: Vec<TenantRun>,
}

/// Everything a finished scenario run produced.
pub struct ScenarioOutcome {
    /// Global and per-tenant statistics from the scheduler.
    pub stats: ScenarioStats,
    /// The mixed sample log (empty when run unprofiled).
    pub samples: Vec<MemSample>,
    /// Allocation-site tracker for sample attribution.
    pub tracker: AllocationTracker,
    /// Thread → tenant attribution for partitioning `samples`.
    pub tenants: TenantMap,
    /// Accesses the sampler observed (total simulated accesses).
    pub observed_accesses: u64,
    /// Host wall-clock time of the simulation.
    pub wall: Duration,
}

impl Scenario {
    /// An empty scenario on a validated machine config.
    pub fn new(mcfg: &MachineConfig) -> Self {
        mcfg.validate();
        Self { mcfg: mcfg.clone(), mm: MemoryMap::new(mcfg), tracker: AllocationTracker::new(), tenants: Vec::new() }
    }

    /// The machine this scenario runs on.
    pub fn config(&self) -> &MachineConfig {
        &self.mcfg
    }

    /// Allocate a tracked object in the shared address space.
    ///
    /// Registers the allocation site with the tracker (like the profiler's
    /// malloc interception) so samples attribute back to `label`.
    pub fn alloc(&mut self, label: &str, line: u32, size: u64, policy: PlacementPolicy) -> TrackedAlloc {
        tracked_alloc_with(&mut self.mm, &mut self.tracker, label, line, size, policy)
    }

    /// Add a tenant to the scenario.
    pub fn add_tenant(&mut self, tenant: TenantRun) -> &mut Self {
        self.tenants.push(tenant);
        self
    }

    /// Reshape all tenants' arrival times with `arrivals`.
    pub fn with_arrivals(&mut self, arrivals: &ArrivalProcess) -> &mut Self {
        let tenants = std::mem::take(&mut self.tenants);
        self.tenants = arrivals.apply(tenants);
        self
    }

    /// Number of tenants added so far.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Execute the scenario through the discrete-event scheduler.
    ///
    /// With `sampling: Some(cfg)` a PEBS-style sampler observes the run and
    /// the outcome carries the mixed sample log plus the tenant map to
    /// partition it; with `None` the run is unprofiled.
    pub fn run(self, sampling: Option<SamplerConfig>) -> ScenarioOutcome {
        let tenant_map = TenantMap::from_runs(&self.tenants);
        let start = Instant::now();
        match sampling {
            Some(cfg) => {
                let mut eng = Engine::new(&self.mcfg, self.mm, AddressSampler::new(cfg));
                let stats = eng.run(self.tenants);
                let wall = start.elapsed();
                let (_, mut sampler) = eng.into_parts();
                let observed = sampler.observed_accesses();
                ScenarioOutcome {
                    stats,
                    samples: sampler.drain_samples(),
                    tracker: self.tracker,
                    tenants: tenant_map,
                    observed_accesses: observed,
                    wall,
                }
            }
            None => {
                let mut eng = Engine::new(&self.mcfg, self.mm, NullObserver);
                let stats = eng.run(self.tenants);
                let wall = start.elapsed();
                let observed = stats.run.counts.total();
                ScenarioOutcome {
                    stats,
                    samples: Vec::new(),
                    tracker: self.tracker,
                    tenants: tenant_map,
                    observed_accesses: observed,
                    wall,
                }
            }
        }
    }
}

/// How tenant arrival times are assigned.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Everyone starts at time 0.
    Simultaneous,
    /// Tenant `i` arrives at `i * gap_cycles` (spec-list order).
    Staggered {
        /// Inter-arrival gap in simulated cycles.
        gap_cycles: f64,
    },
    /// Explicit per-tenant arrival times (spec-list order); tenants beyond
    /// the schedule keep their configured arrival.
    Schedule(Vec<f64>),
}

impl ArrivalProcess {
    /// Apply the process to a list of tenants, returning them with arrival
    /// times rewritten.
    pub fn apply(&self, tenants: Vec<TenantRun>) -> Vec<TenantRun> {
        tenants
            .into_iter()
            .enumerate()
            .map(|(i, t)| match self {
                ArrivalProcess::Simultaneous => t.arriving_at(0.0),
                ArrivalProcess::Staggered { gap_cycles } => t.arriving_at(i as f64 * gap_cycles),
                ArrivalProcess::Schedule(times) => match times.get(i) {
                    Some(&at) => t.arriving_at(at),
                    None => t,
                },
            })
            .collect()
    }
}

/// Shape of the canonical cross-tenant victim/aggressor scenario.
#[derive(Debug, Clone)]
pub struct VictimAggressorConfig {
    /// Victim thread count (cores on node 0).
    pub victim_threads: usize,
    /// Victim working-set bytes (homed on `remote_home`).
    pub victim_bytes: u64,
    /// Victim passes over its working set.
    pub victim_passes: u64,
    /// Per-access compute padding for the victim (keeps it "quiet").
    pub victim_compute: f64,
    /// Aggressor thread count, spread over the sockets past `remote_home`.
    pub aggressor_threads: usize,
    /// Aggressor working-set bytes (also homed on `remote_home`).
    pub aggressor_bytes: u64,
    /// Aggressor passes over its working set.
    pub aggressor_passes: u64,
    /// Simulated cycles after the victim at which the aggressor arrives.
    pub aggressor_arrival_cycles: f64,
    /// The contended home node both working sets are bound to.
    pub remote_home: NodeId,
}

impl Default for VictimAggressorConfig {
    fn default() -> Self {
        Self {
            victim_threads: 2,
            victim_bytes: 4 << 20,
            victim_passes: 2,
            victim_compute: 2.0,
            aggressor_threads: 24,
            aggressor_bytes: 48 << 20,
            aggressor_passes: 3,
            aggressor_arrival_cycles: 0.0,
            remote_home: NodeId(1),
        }
    }
}

/// Victim tenant id in [`victim_aggressor`] scenarios.
pub const VICTIM_TENANT: u32 = 0;
/// Aggressor tenant id in [`victim_aggressor`] scenarios.
pub const AGGRESSOR_TENANT: u32 = 1;

/// The victim tenant's threads: contiguous slices of `buf`, on node 0's
/// first cores. Public so a bench can run the same threads outside a
/// [`Scenario`].
pub fn victim_threads(buf: &ObjectHandle, cfg: &VictimAggressorConfig) -> Vec<ThreadSpec> {
    let share = buf.size / cfg.victim_threads as u64;
    (0..cfg.victim_threads)
        .map(|i| {
            let s = SeqStream::new(buf.base + i as u64 * share, share, cfg.victim_passes, AccessMix::read_only())
                .with_compute(cfg.victim_compute);
            ThreadSpec::new(i as u32, CoreId(i as u32), Box::new(s))
        })
        .collect()
}

/// Build the cross-tenant contention scenario.
///
/// The victim runs on node 0 with its data bound to `cfg.remote_home`, so
/// every DRAM access crosses the 0→home channel. The aggressor's threads
/// fill the home node's own cores first (local traffic is not capped by
/// any interconnect channel, so it can actually saturate the controller),
/// then spill onto the remaining sockets, all streaming over a large array
/// that is also bound to the home node. The victim's bandwidth stays
/// modest; only its observed remote latency gives the contention away.
///
/// # Panics
/// Panics if the topology has fewer than 3 nodes or the thread counts
/// exceed the available cores.
pub fn victim_aggressor(mcfg: &MachineConfig, cfg: &VictimAggressorConfig) -> Scenario {
    let nodes = mcfg.topology.num_nodes();
    let cpn = mcfg.topology.cores_per_node();
    assert!(nodes >= 3, "victim/aggressor needs >= 3 NUMA nodes");
    assert!((cfg.remote_home.0 as usize) < nodes && cfg.remote_home != NodeId(0), "home must be a non-victim node");
    assert!(cfg.victim_threads >= 1 && cfg.victim_threads <= cpn, "victim threads must fit node 0");

    let mut sc = Scenario::new(mcfg);
    let victim = sc.alloc("victim_buf", line!(), cfg.victim_bytes, PlacementPolicy::Bind(cfg.remote_home));
    let aggr = sc.alloc("aggressor_buf", line!(), cfg.aggressor_bytes, PlacementPolicy::Bind(cfg.remote_home));

    let vthreads = victim_threads(&victim.handle, cfg);

    // Aggressor: the home node's cores first (local, channel-uncapped),
    // then the sockets other than node 0; all traffic lands on the home
    // controller.
    let aggr_nodes: Vec<usize> = std::iter::once(cfg.remote_home.0 as usize)
        .chain((0..nodes).filter(|&n| n != 0 && n != cfg.remote_home.0 as usize))
        .collect();
    assert!(cfg.aggressor_threads <= aggr_nodes.len() * cpn, "aggressor threads exceed available cores");
    let athreads: Vec<ThreadSpec> = (0..cfg.aggressor_threads)
        .map(|i| {
            let share = aggr.handle.size / cfg.aggressor_threads as u64;
            let s = SeqStream::new(
                aggr.handle.base + i as u64 * share,
                share,
                cfg.aggressor_passes,
                AccessMix::read_only(),
            );
            let node = aggr_nodes[i / cpn];
            let core = CoreId((node * cpn + i % cpn) as u32);
            ThreadSpec::new(100 + i as u32, core, Box::new(s))
        })
        .collect();

    sc.add_tenant(TenantRun::new(VICTIM_TENANT, vthreads));
    sc.add_tenant(TenantRun::new(AGGRESSOR_TENANT, athreads).arriving_at(cfg.aggressor_arrival_cycles));
    sc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> SamplerConfig {
        SamplerConfig { period: 23, latency_threshold: 150.0, latency_jitter: 0.3, per_sample_cost: 40.0 }
    }

    #[test]
    fn arrival_processes_rewrite_times() {
        let mcfg = MachineConfig::scaled();
        let mut mm = MemoryMap::new(&mcfg);
        let a = mm.alloc("a", 1 << 20, PlacementPolicy::Bind(NodeId(0)));
        let mk = |t: u32| {
            let s = SeqStream::new(a.base, a.size, 1, AccessMix::read_only());
            TenantRun::new(t, vec![ThreadSpec::new(t, CoreId(t), Box::new(s))])
        };
        let staggered = ArrivalProcess::Staggered { gap_cycles: 10_000.0 }.apply(vec![mk(0), mk(1), mk(2)]);
        assert_eq!(staggered.iter().map(|t| t.arrival_cycles).collect::<Vec<_>>(), vec![0.0, 10_000.0, 20_000.0]);
        let sched = ArrivalProcess::Schedule(vec![5.0]).apply(staggered);
        assert_eq!(sched[0].arrival_cycles, 5.0);
        assert_eq!(sched[1].arrival_cycles, 10_000.0, "beyond the schedule keeps its arrival");
        let together = ArrivalProcess::Simultaneous.apply(sched);
        assert!(together.iter().all(|t| t.arrival_cycles == 0.0));
    }

    #[test]
    fn scenario_runs_and_partitions_samples() {
        let mcfg = MachineConfig::scaled();
        let sc = victim_aggressor(&mcfg, &VictimAggressorConfig::default());
        assert_eq!(sc.num_tenants(), 2);
        let out = sc.run(Some(sampler()));
        assert_eq!(out.stats.tenants.len(), 2);
        assert!(out.observed_accesses > 0);
        assert!(!out.samples.is_empty(), "profiled run must sample");
        let parts = out.tenants.partition(&out.samples);
        assert_eq!(parts.len(), 2);
        let victim_samples = &parts[0].1;
        assert!(!victim_samples.is_empty(), "victim must be sampled");
        // Victim data is remote-homed: its DRAM samples cross a channel.
        assert!(victim_samples.iter().any(|s| s.is_remote()), "victim traffic should be remote");
        // Attribution works against the scenario's shared tracker.
        let attributed = victim_samples.iter().filter(|s| out.tracker.attribute_site(s.addr).is_some()).count();
        assert!(attributed > 0, "samples must attribute to scenario allocations");
    }

    #[test]
    fn aggressor_inflates_victim_remote_latency() {
        let mcfg = MachineConfig::scaled();
        let quiet = {
            let mut cfg = VictimAggressorConfig { aggressor_threads: 1, aggressor_passes: 1, ..Default::default() };
            cfg.aggressor_bytes = 1 << 20;
            victim_aggressor(&mcfg, &cfg).run(Some(sampler()))
        };
        let loud = victim_aggressor(&mcfg, &VictimAggressorConfig::default()).run(Some(sampler()));
        let avg_remote = |out: &ScenarioOutcome| {
            let v: Vec<MemSample> = out.tenants.samples_of(numasim::sched::TenantId(VICTIM_TENANT), &out.samples);
            let remote: Vec<&MemSample> = v.iter().filter(|s| s.is_remote()).collect();
            remote.iter().map(|s| s.latency).sum::<f64>() / remote.len().max(1) as f64
        };
        let (q, l) = (avg_remote(&quiet), avg_remote(&loud));
        assert!(l > q * 1.15, "aggressor should inflate victim remote latency: quiet {q:.1} vs loud {l:.1}");
    }
}
