//! Shared by the differential suites (`differential.rs`, `scheduler.rs`):
//! the run-cap schedule wrapper, the sampler they attach, and everything
//! observable from one run.

use numasim::access::{AccessRun, AccessStream};
use numasim::config::MachineConfig;
use numasim::engine::{Engine, Observer, ThreadSpec};
use numasim::memmap::MemoryMap;
use numasim::sched::{ScenarioStats, TenantRun, TenantStats};
use numasim::stats::RunStats;
use pebs::sample::MemSample;
use pebs::sampler::{AddressSampler, SamplerConfig};

/// Wraps a stream and clips each pull to a cycling schedule of caps, so a
/// single phase exercises many run-boundary shapes (`u64::MAX` entries
/// leave the engine's own request standing).
pub struct ScheduledRuns {
    inner: Box<dyn AccessStream>,
    schedule: Vec<u64>,
    next: usize,
}

impl ScheduledRuns {
    /// `inner` itself, or clipped to `schedule` when there is one.
    pub fn wrap(inner: Box<dyn AccessStream>, schedule: Option<&[u64]>) -> Box<dyn AccessStream> {
        let Some(schedule) = schedule else { return inner };
        assert!(!schedule.is_empty() && schedule.iter().all(|&c| c >= 1));
        Box::new(Self { inner, schedule: schedule.to_vec(), next: 0 })
    }

    fn next_cap(&mut self) -> u64 {
        let cap = self.schedule[self.next];
        self.next = (self.next + 1) % self.schedule.len();
        cap
    }
}

impl AccessStream for ScheduledRuns {
    fn next_run(&mut self, max: u64) -> Option<AccessRun> {
        let cap = self.next_cap().min(max);
        self.inner.next_run(cap)
    }

    /// Interleaved pulls are clipped like runs are. (`seq_window` is not
    /// forwarded: a clipped `next_run` could not honour the peek.)
    fn next_zip(&mut self, line_step: u64, max_iters: u64, lanes: &mut Vec<AccessRun>) -> u64 {
        let cap = self.next_cap().min(max_iters);
        self.inner.next_zip(line_step, cap, lanes)
    }
}

/// A sampler aggressive enough to suppress some samples below the
/// (jittered) threshold and perturb thread clocks per sample. Period 23
/// takes many samples and chops every fused span short; 997 leaves the
/// observer's quiet budget room for whole-span commits.
pub fn sampler_config(period: u64) -> SamplerConfig {
    SamplerConfig { period, latency_threshold: 150.0, latency_jitter: 0.3, per_sample_cost: 40.0 }
}

/// An [`AddressSampler`] under [`sampler_config`].
pub fn sampler(period: u64) -> AddressSampler {
    AddressSampler::new(sampler_config(period))
}

/// Run a scenario through the shipped slice body, or through the
/// per-access oracle it is held to.
pub fn run_on<O: Observer>(eng: &mut Engine<O>, tenants: Vec<TenantRun>, oracle: bool) -> ScenarioStats {
    if oracle {
        numasim::oracle::run(eng, tenants)
    } else {
        eng.run(tenants)
    }
}

/// Everything observable from one run: engine stats plus sampler state.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    pub stats: RunStats,
    pub samples: Vec<MemSample>,
    pub observed: u64,
    pub suppressed: u64,
}

/// [`run_on`] a fresh engine with `obs` attached: the machine-wide outcome
/// and the per-tenant stats.
pub fn observe(
    cfg: &MachineConfig,
    mm: MemoryMap,
    obs: AddressSampler,
    tenants: Vec<TenantRun>,
    oracle: bool,
) -> (Outcome, Vec<TenantStats>) {
    let mut eng = Engine::new(cfg, mm, obs);
    let stats = run_on(&mut eng, tenants, oracle);
    let (_, s) = eng.into_parts();
    let outcome = Outcome {
        stats: stats.run,
        observed: s.observed_accesses(),
        suppressed: s.suppressed_samples(),
        samples: s.samples().to_vec(),
    };
    (outcome, stats.tenants)
}

/// [`observe`] one phase: a single plain tenant.
pub fn observe_phase(
    cfg: &MachineConfig,
    mm: MemoryMap,
    obs: AddressSampler,
    threads: Vec<ThreadSpec>,
    oracle: bool,
) -> Outcome {
    observe(cfg, mm, obs, vec![TenantRun::new(0, threads)], oracle).0
}
