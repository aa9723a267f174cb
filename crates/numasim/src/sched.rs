//! Discrete-event scheduler: the one round loop every simulation runs on.
//!
//! A run is a set of independent thread groups ("tenants") sharing one
//! simulated machine, with staggered arrival times, bursty on/off phases,
//! and mid-run core migration — the cross-tenant contention regime that
//! hyperscale memory-subsystem studies report and that DR-BW's
//! single-workload evaluation never sees. A single workload's phase
//! ([`crate::engine::Engine::run_phase`]) is the one-tenant special case:
//! arrival 0, no bursts, no migrations.
//!
//! ## Component model
//!
//! A [`Component`] exposes [`Component::next_tick`] — the simulated time
//! at which it next has work, or `None` once finished — and
//! [`Component::tick`], which performs that work against the shared
//! machine state carried in [`SchedCtx`]. The [`Scheduler`] repeatedly
//! scans for the minimum pending wake time, advances the global clock to
//! it, and fires every component whose wake time equals that minimum, in
//! registration order (the deterministic tie-break). Two component kinds
//! make up the round model:
//!
//! * [`IssueUnit`] — one per software thread, bound to a core. At each
//!   wake (a round boundary) it issues accesses until its private clock
//!   crosses the boundary.
//! * [`RoundBus`] — the memory-controller/channel aggregation. The
//!   per-channel and per-controller byte counters live in
//!   [`BandwidthModel`]; the bus fires at every round boundary *after*
//!   all issue units and closes the accounting round
//!   ([`BandwidthModel::end_round`]), deriving the congestion factors the
//!   next round's accesses will observe.
//!
//! ## Clock discipline
//!
//! All wake times live on one grid: the left fold `b += round_cycles`
//! starting from `round_cycles`. Every component derives its wake time by
//! stepping that same fold from a value already on the grid, so equal
//! boundaries are equal *bitwise* and the scheduler's `==` tie-match is
//! exact — no epsilon comparisons anywhere. An issue unit whose clock
//! overshot several rounds simply sleeps through the intervening
//! boundaries, and the bus alone keeps the round accounting advancing.
//!
//! ## One loop
//!
//! [`Scheduler::run`] is the only loop that advances rounds, and
//! [`RoundBus::tick`] the only caller of [`BandwidthModel::end_round`].
//! Inside a tick an issue unit runs its *slice body* — `engine`'s
//! `run_thread_slice`: fused span proofs, closed-form clock collapse,
//! observer `run_hint`/`on_run` — which takes a `limit` and tests
//! `clock < limit` before every line. A tick alternates its scenario gates
//! — burst idle windows, due migrations — with a slice bounded by
//!
//! ```text
//! limit = min(now, burst_off_at, next migration time)
//! ```
//!
//! so a slice stops at exactly the access after which a gate would fire
//! (`clock >= burst_off_at`, `at_cycles <= clock`) or the round ends
//! (`clock >= now`). For a plain tenant the last two terms are infinite
//! and the slice is the whole round. The body is an argument of the loop
//! (`SliceBody`) only so that [`crate::oracle`] can drive these same
//! rounds and gates one access at a time; nothing else passes another.

use std::cell::Cell;
use std::rc::Rc;

use crate::bandwidth::BandwidthModel;
use crate::config::MachineConfig;
use crate::engine::{collect_run_stats, Observer, ThreadCtx, ThreadSpec};
use crate::hierarchy::Hierarchy;
use crate::memmap::MemoryMap;
use crate::stats::{AccessCounts, RunStats};
use crate::topology::{CoreId, ThreadId};

/// Identifies a tenant — an independently arriving workload — within a
/// scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

/// On/off duty cycle for a bursty tenant, relative to its arrival time:
/// the tenant issues for `on_cycles`, idles for `off_cycles`, and repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstConfig {
    /// Length of each issuing window, in cycles (must be positive).
    pub on_cycles: f64,
    /// Length of each idle window between bursts, in cycles.
    pub off_cycles: f64,
}

/// A scheduled mid-run core migration: at simulated time `at_cycles`,
/// `thread` rebinds to core `to` (and to that core's NUMA node). Caches on
/// the new core are whatever earlier residents left — a migrated thread
/// starts cold, as on real hardware.
#[derive(Debug, Clone, Copy)]
pub struct Migration {
    /// Simulated time at which the rebind takes effect.
    pub at_cycles: f64,
    /// The thread to rebind.
    pub thread: ThreadId,
    /// Destination core.
    pub to: CoreId,
}

/// One tenant: a group of threads plus its arrival/burst/migration
/// schedule. Thread ids must be unique across the whole scenario.
pub struct TenantRun {
    /// Tenant identity, stamped on per-tenant statistics.
    pub tenant: TenantId,
    /// The tenant's threads (cores, streams).
    pub threads: Vec<ThreadSpec>,
    /// Simulated time at which the tenant starts issuing.
    pub arrival_cycles: f64,
    /// Optional on/off duty cycle (applies to all the tenant's threads).
    pub burst: Option<BurstConfig>,
    /// Scheduled core migrations for this tenant's threads.
    pub migrations: Vec<Migration>,
}

impl TenantRun {
    /// A tenant arriving at time 0 with no bursts or migrations.
    pub fn new(tenant: u32, threads: Vec<ThreadSpec>) -> Self {
        Self { tenant: TenantId(tenant), threads, arrival_cycles: 0.0, burst: None, migrations: Vec::new() }
    }

    /// Stagger the tenant's arrival to `cycles`.
    #[must_use]
    pub fn arriving_at(mut self, cycles: f64) -> Self {
        self.arrival_cycles = cycles;
        self
    }

    /// Give the tenant an on/off duty cycle.
    #[must_use]
    pub fn bursty(mut self, on_cycles: f64, off_cycles: f64) -> Self {
        self.burst = Some(BurstConfig { on_cycles, off_cycles });
        self
    }

    /// Schedule a core migration for one of the tenant's threads.
    #[must_use]
    pub fn migrate(mut self, at_cycles: f64, thread: u32, to: CoreId) -> Self {
        self.migrations.push(Migration { at_cycles, thread: ThreadId(thread), to });
        self
    }
}

/// The shared machine state a [`Component`] ticks against: split mutable
/// borrows of the configuration, cache hierarchy, bandwidth model, memory
/// map, and the phase observer.
pub struct SchedCtx<'a> {
    /// Machine configuration (read-only).
    pub cfg: &'a MachineConfig,
    /// Cache hierarchy (per-core L1/L2, per-node L3).
    pub hierarchy: &'a mut Hierarchy,
    /// Bandwidth accounting and congestion factors.
    pub bw: &'a mut BandwidthModel,
    /// Page placement / first-touch state.
    pub memmap: &'a mut MemoryMap,
    /// The phase observer (e.g. a PEBS sampler).
    pub observer: &'a mut dyn Observer,
}

/// What an [`IssueUnit`] runs between gates: advance the thread until its
/// clock reaches the `f64` limit or its stream ends, and say whether it
/// ended.
pub(crate) type SliceBody = fn(&mut SchedCtx<'_>, &mut AccessCounts, &mut ThreadCtx, f64) -> bool;

/// A discrete-event participant. See the [module docs](self) for the
/// clock discipline components must follow: every wake time returned from
/// [`Component::next_tick`] must lie on the round grid, computed by
/// stepping `w += round_cycles` from a value already on it.
pub trait Component {
    /// The simulated time of this component's next tick, or `None` once it
    /// has no further work.
    fn next_tick(&self) -> Option<f64>;

    /// Perform the work due at `now` (which equals the value `next_tick`
    /// returned). Must advance `next_tick` strictly past `now` or return
    /// `None` afterwards.
    fn tick(&mut self, now: f64, ctx: &mut SchedCtx<'_>);
}

/// The discrete-event scheduler: a global simulated clock plus a min-scan
/// over component wake times, firing ties in registration order.
#[derive(Debug, Default)]
pub struct Scheduler {
    now: f64,
    ticks: u64,
}

impl Scheduler {
    /// A scheduler with its clock at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The global simulated clock (the time of the last fired event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Total component ticks fired so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Run components to completion: repeatedly find the minimum pending
    /// wake time, advance the clock, and fire every component whose wake
    /// equals it, in slice order. Returns the number of ticks fired.
    ///
    /// Equality matching on `f64` wake times is deliberate and exact: all
    /// participants compute wake times on the same additive grid (see the
    /// [module docs](self)).
    pub fn run(&mut self, components: &mut [&mut dyn Component], ctx: &mut SchedCtx<'_>) -> u64 {
        let fired_before = self.ticks;
        loop {
            let mut t_min = f64::INFINITY;
            let mut pending = false;
            for c in components.iter() {
                if let Some(t) = c.next_tick() {
                    pending = true;
                    if t < t_min {
                        t_min = t;
                    }
                }
            }
            if !pending {
                return self.ticks - fired_before;
            }
            debug_assert!(t_min >= self.now, "scheduler time went backwards: {t_min} < {}", self.now);
            self.now = t_min;
            for c in components.iter_mut() {
                if c.next_tick() == Some(t_min) {
                    c.tick(t_min, ctx);
                    self.ticks += 1;
                }
            }
        }
    }
}

/// Per-thread issue unit: runs one thread's slices at each round boundary
/// it is awake for, with burst gating and scheduled migrations applied
/// between slices.
pub struct IssueUnit {
    tenant: TenantId,
    t: ThreadCtx,
    body: SliceBody,
    wake: Option<f64>,
    round: f64,
    burst: Option<BurstConfig>,
    /// End of the current "on" window (start of the next idle window);
    /// infinite for a tenant without a duty cycle.
    burst_off_at: f64,
    /// This thread's migrations, sorted by time, and the next to apply.
    migrations: Vec<Migration>,
    mig_next: usize,
    counts: AccessCounts,
    live: Rc<Cell<usize>>,
}

impl IssueUnit {
    /// A unit for thread `t`, whose clock stands at its tenant's arrival.
    fn new(
        tenant: TenantId,
        t: ThreadCtx,
        burst: Option<BurstConfig>,
        migrations: Vec<Migration>,
        body: SliceBody,
        round: f64,
        live: Rc<Cell<usize>>,
    ) -> Self {
        let arrival = t.clock;
        // First wake: the first grid boundary strictly past the arrival
        // clock, stepped on the same `+= round` fold the bus uses.
        let mut w = round;
        while w <= arrival {
            w += round;
        }
        let burst_off_at = arrival + burst.map_or(f64::INFINITY, |b| b.on_cycles);
        Self {
            tenant,
            t,
            body,
            wake: Some(w),
            round,
            burst,
            burst_off_at,
            migrations,
            mig_next: 0,
            counts: AccessCounts::default(),
            live,
        }
    }

    /// The tenant this unit belongs to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The unit's thread id.
    pub fn thread(&self) -> ThreadId {
        self.t.thread
    }

    /// The unit's private clock (final finish time once done).
    pub fn clock(&self) -> f64 {
        self.t.clock
    }

    /// Events this unit has issued, by data source.
    pub fn counts(&self) -> &AccessCounts {
        &self.counts
    }
}

impl Component for IssueUnit {
    fn next_tick(&self) -> Option<f64> {
        self.wake
    }

    fn tick(&mut self, now: f64, ctx: &mut SchedCtx<'_>) {
        let t = &mut self.t;
        loop {
            // Scenario gates; neither ever fires for a plain tenant.
            if let Some(b) = self.burst {
                while t.clock >= self.burst_off_at {
                    let idle_end = self.burst_off_at + b.off_cycles;
                    if t.clock < idle_end {
                        t.clock = idle_end;
                    }
                    self.burst_off_at += b.on_cycles + b.off_cycles;
                }
            }
            while let Some(m) = self.migrations.get(self.mig_next).filter(|m| m.at_cycles <= t.clock) {
                t.rebind(m.to, ctx.cfg.topology.node_of_core(m.to));
                self.mig_next += 1;
            }
            if t.clock >= now {
                break;
            }
            // Issue up to whichever comes first: the round boundary or the
            // next gate. Both gates have just been drained, so `limit` is
            // strictly past the clock and the slice makes progress.
            let next_migration = self.migrations.get(self.mig_next).map_or(f64::INFINITY, |m| m.at_cycles);
            let limit = now.min(self.burst_off_at).min(next_migration);
            if (self.body)(ctx, &mut self.counts, t, limit) {
                self.wake = None;
                self.live.set(self.live.get() - 1);
                return;
            }
        }
        // Next boundary strictly past the clock, stepped on the grid from
        // the boundary just processed.
        let mut w = now;
        while w <= t.clock {
            w += self.round;
        }
        self.wake = Some(w);
    }
}

/// The memory-controller/channel component: closes the bandwidth
/// accounting round at every boundary (after all issue units have run
/// their slices), and retires once no issue unit remains live — firing
/// one final time in the boundary where the last unit finished.
pub struct RoundBus {
    boundary: f64,
    round: f64,
    live: Rc<Cell<usize>>,
    done: bool,
}

impl RoundBus {
    fn new(round: f64, live: Rc<Cell<usize>>) -> Self {
        Self { boundary: round, round, live, done: false }
    }
}

impl Component for RoundBus {
    fn next_tick(&self) -> Option<f64> {
        if self.done {
            None
        } else {
            Some(self.boundary)
        }
    }

    fn tick(&mut self, now: f64, ctx: &mut SchedCtx<'_>) {
        debug_assert_eq!(now, self.boundary);
        ctx.bw.end_round();
        self.boundary = now + self.round;
        if self.live.get() == 0 {
            self.done = true;
        }
    }
}

/// Per-tenant slice of a scenario's statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Which tenant.
    pub tenant: TenantId,
    /// Events issued by this tenant's threads, by data source.
    pub counts: AccessCounts,
    /// When the tenant's last thread finished (includes its arrival
    /// offset and any idle burst windows).
    pub finish_cycles: f64,
    /// Final clock of each of the tenant's threads, in spec order.
    pub thread_cycles: Vec<f64>,
}

/// A completed scenario: machine-wide [`RunStats`] plus per-tenant slices.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStats {
    /// Machine-wide statistics over all tenants.
    pub run: RunStats,
    /// Per-tenant statistics, in scenario order.
    pub tenants: Vec<TenantStats>,
}

/// Why a scenario was rejected before it ran (see
/// [`crate::engine::Engine::try_run`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioError {
    /// The scenario has no tenants.
    NoTenants,
    /// A tenant has no threads.
    EmptyTenant(TenantId),
    /// A tenant's arrival time is negative or not finite.
    InvalidArrival(TenantId, f64),
    /// A burst `on_cycles` is not positive, `off_cycles` is negative, or
    /// either is not finite.
    InvalidBurst(TenantId, BurstConfig),
    /// A thread is bound to a core the topology does not have.
    InvalidCore(ThreadId, CoreId),
    /// Two threads of the scenario share an id.
    DuplicateThreadIds,
    /// A migration time is negative or not finite.
    InvalidMigrationTime(ThreadId, f64),
    /// A migration targets a core the topology does not have.
    InvalidMigrationCore(ThreadId, CoreId),
    /// A migration names a thread that is not in its tenant.
    ForeignMigration(ThreadId, TenantId),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoTenants => write!(f, "scenario needs at least one tenant"),
            Self::EmptyTenant(tenant) => write!(f, "tenant {tenant:?} has no threads"),
            Self::InvalidArrival(tenant, at) => write!(f, "tenant {tenant:?} has invalid arrival {at}"),
            Self::InvalidBurst(tenant, b) => write!(f, "tenant {tenant:?} has invalid burst config {b:?}"),
            Self::InvalidCore(thread, core) => write!(f, "thread {thread:?} bound to invalid {core:?}"),
            Self::DuplicateThreadIds => write!(f, "duplicate thread ids in scenario"),
            Self::InvalidMigrationTime(thread, at) => write!(f, "migration of {thread:?} at invalid time {at}"),
            Self::InvalidMigrationCore(thread, to) => write!(f, "migration of {thread:?} to invalid {to:?}"),
            Self::ForeignMigration(thread, tenant) => {
                write!(f, "migration names {thread:?}, not a thread of tenant {tenant:?}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// The one place thread specs and tenant schedules are checked.
fn validate(cfg: &MachineConfig, tenants: &[TenantRun]) -> Result<(), ScenarioError> {
    let topo = &cfg.topology;
    let time_ok = |t: f64| t.is_finite() && t >= 0.0;
    if tenants.is_empty() {
        return Err(ScenarioError::NoTenants);
    }
    let mut ids = Vec::new();
    for run in tenants {
        if run.threads.is_empty() {
            return Err(ScenarioError::EmptyTenant(run.tenant));
        }
        if !time_ok(run.arrival_cycles) {
            return Err(ScenarioError::InvalidArrival(run.tenant, run.arrival_cycles));
        }
        if let Some(b) = run.burst.filter(|b| !(time_ok(b.on_cycles) && b.on_cycles > 0.0 && time_ok(b.off_cycles))) {
            return Err(ScenarioError::InvalidBurst(run.tenant, b));
        }
        for m in &run.migrations {
            if !time_ok(m.at_cycles) {
                return Err(ScenarioError::InvalidMigrationTime(m.thread, m.at_cycles));
            }
            if !topo.core_in_range(m.to) {
                return Err(ScenarioError::InvalidMigrationCore(m.thread, m.to));
            }
            if !run.threads.iter().any(|s| s.thread == m.thread) {
                return Err(ScenarioError::ForeignMigration(m.thread, run.tenant));
            }
        }
        for spec in &run.threads {
            if !topo.core_in_range(spec.core) {
                return Err(ScenarioError::InvalidCore(spec.thread, spec.core));
            }
            ids.push(spec.thread.0);
        }
    }
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != n {
        return Err(ScenarioError::DuplicateThreadIds);
    }
    Ok(())
}

/// Run `tenants` to stream exhaustion over the machine state in `ctx`,
/// every thread through `body`: what [`crate::engine::Engine::try_run`]
/// does.
pub(crate) fn run_tenants(
    mut ctx: SchedCtx<'_>,
    tenants: Vec<TenantRun>,
    body: SliceBody,
) -> Result<ScenarioStats, ScenarioError> {
    let cfg = ctx.cfg;
    validate(cfg, &tenants)?;
    let topo = &cfg.topology;
    let round = cfg.engine.round_cycles;
    let n_units: usize = tenants.iter().map(|t| t.threads.len()).sum();
    let live = Rc::new(Cell::new(n_units));

    let mut units: Vec<IssueUnit> = Vec::with_capacity(n_units);
    // (tenant id, unit range) per tenant, for the per-tenant rollup.
    let mut tenant_ranges: Vec<(TenantId, usize, usize)> = Vec::with_capacity(tenants.len());
    for run in tenants {
        let start = units.len();
        for spec in run.threads {
            let node = topo.node_of_core(spec.core);
            let mut migrations: Vec<Migration> =
                run.migrations.iter().copied().filter(|m| m.thread == spec.thread).collect();
            migrations.sort_by(|a, b| a.at_cycles.total_cmp(&b.at_cycles));
            let t = ThreadCtx::new(spec, node, run.arrival_cycles);
            units.push(IssueUnit::new(run.tenant, t, run.burst, migrations, body, round, Rc::clone(&live)));
        }
        tenant_ranges.push((run.tenant, start, units.len()));
    }

    ctx.bw.reset();
    let mut bus = RoundBus::new(round, Rc::clone(&live));
    {
        let mut components: Vec<&mut dyn Component> = units.iter_mut().map(|u| u as &mut dyn Component).collect();
        components.push(&mut bus);
        Scheduler::new().run(&mut components, &mut ctx);
    }

    let mut total = AccessCounts::default();
    for u in &units {
        total.merge(&u.counts);
    }
    let run = collect_run_stats(ctx.bw, units.iter().map(|u| u.t.clock).collect(), total);
    let tenants = tenant_ranges
        .into_iter()
        .map(|(tenant, start, end)| {
            let slice = &units[start..end];
            let mut counts = AccessCounts::default();
            for u in slice {
                counts.merge(&u.counts);
            }
            TenantStats {
                tenant,
                counts,
                finish_cycles: slice.iter().map(|u| u.t.clock).fold(0.0, f64::max),
                thread_cycles: slice.iter().map(|u| u.t.clock).collect(),
            }
        })
        .collect();
    ctx.observer.on_phase_end(&run);
    Ok(ScenarioStats { run, tenants })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessMix, AccessStream, ChainStream, RandomStream, SeqStream};
    use crate::engine::{Engine, NullObserver};
    use crate::memmap::PlacementPolicy;
    use crate::topology::NodeId;

    fn scaled() -> MachineConfig {
        MachineConfig::scaled()
    }

    /// A moderately irregular multi-thread workload over one memory map:
    /// sequential writers chained with random readers, mixed reps/compute.
    fn build_threads(mm: &mut MemoryMap, cfg: &MachineConfig, base_thread: u32, n: usize) -> Vec<ThreadSpec> {
        let a = mm.alloc(if base_thread == 0 { "a" } else { "a2" }, 4 << 20, PlacementPolicy::FirstTouch);
        let b = mm.alloc(
            if base_thread == 0 { "b" } else { "b2" },
            1 << 20,
            PlacementPolicy::interleave_all(cfg.topology.num_nodes()),
        );
        let binding = cfg.topology.bind_threads(n, 4);
        binding
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let share = a.size / n as u64;
                let seq = SeqStream::new(a.base + i as u64 * share, share, 2, AccessMix::write_every(3))
                    .with_compute(0.5 + i as f64)
                    .with_reps(3);
                let rnd = RandomStream::new(b.base, b.size, 5_000, i as u64, AccessMix::read_only());
                let chain = ChainStream::new(vec![Box::new(seq), Box::new(rnd)]);
                ThreadSpec::new(base_thread + i as u32, *core, Box::new(chain))
            })
            .collect()
    }

    /// The tentpole acceptance property, stats half: one plain tenant
    /// through the scheduler reproduces the per-access oracle bit-for-bit
    /// (the sampled-events half lives in `tests/scheduler.rs`).
    #[test]
    fn single_tenant_matches_reference_bit_for_bit() {
        let cfg = scaled();
        let mut mm_ref = MemoryMap::new(&cfg);
        let threads_ref = build_threads(&mut mm_ref, &cfg, 0, 8);
        let mut eng = Engine::new(&cfg, mm_ref, NullObserver);
        let reference = crate::oracle::run(&mut eng, vec![TenantRun::new(0, threads_ref)]).run;

        let mut mm = MemoryMap::new(&cfg);
        let threads = build_threads(&mut mm, &cfg, 0, 8);
        let mut sceng = Engine::new(&cfg, mm, NullObserver);
        let scenario = sceng.run(vec![TenantRun::new(0, threads)]);

        assert_eq!(scenario.run, reference, "scheduler diverged from the reference engine");
        assert_eq!(scenario.tenants.len(), 1);
        assert_eq!(scenario.tenants[0].counts, reference.counts);
        assert_eq!(scenario.tenants[0].thread_cycles, reference.thread_cycles);
    }

    /// Two co-resident tenants: runs are deterministic, the global stats
    /// roll up exactly from the per-tenant slices, and round accounting
    /// stays consistent.
    #[test]
    fn two_tenants_are_deterministic_and_roll_up() {
        let cfg = scaled();
        let run = || {
            let mut mm = MemoryMap::new(&cfg);
            let t0 = build_threads(&mut mm, &cfg, 0, 4);
            let t1 = build_threads(&mut mm, &cfg, 100, 4);
            let mut eng = Engine::new(&cfg, mm, NullObserver);
            eng.run(vec![TenantRun::new(0, t0), TenantRun::new(1, t1).arriving_at(50_000.0)])
        };
        let s1 = run();
        let s2 = run();
        assert_eq!(s1, s2, "scenario runs are not deterministic");
        let mut rolled = AccessCounts::default();
        for t in &s1.tenants {
            rolled.merge(&t.counts);
        }
        assert_eq!(rolled, s1.run.counts);
        assert_eq!(s1.run.thread_cycles.len(), 8);
        assert!(s1.run.rounds > 0);
        // The late tenant cannot finish before it arrives.
        assert!(s1.tenants[1].finish_cycles >= 50_000.0);
    }

    /// A bursty tenant does the same work but takes longer wall-clock than
    /// the same tenant running unthrottled.
    #[test]
    fn bursty_tenant_finishes_later_with_equal_work() {
        let cfg = scaled();
        let run = |burst: Option<(f64, f64)>| {
            let mut mm = MemoryMap::new(&cfg);
            let threads = build_threads(&mut mm, &cfg, 0, 4);
            let mut tenant = TenantRun::new(0, threads);
            if let Some((on, off)) = burst {
                tenant = tenant.bursty(on, off);
            }
            let mut eng = Engine::new(&cfg, mm, NullObserver);
            eng.run(vec![tenant])
        };
        let steady = run(None);
        let bursty = run(Some((40_000.0, 40_000.0)));
        assert_eq!(steady.run.counts, bursty.run.counts, "burst gating changed the work done");
        assert!(
            bursty.run.cycles > steady.run.cycles * 1.3,
            "idle windows should stretch the run: bursty {} vs steady {}",
            bursty.run.cycles,
            steady.run.cycles
        );
    }

    /// A mid-run migration from a local to a remote core flips the
    /// locality of the tail of the scan.
    #[test]
    fn migration_moves_traffic_remote() {
        let cfg = scaled();
        let run = |migrate: bool| {
            let mut mm = MemoryMap::new(&cfg);
            let a = mm.alloc("a", 8 << 20, PlacementPolicy::Bind(NodeId(0)));
            let stream = SeqStream::new(a.base, a.size, 1, AccessMix::read_only());
            let mut tenant = TenantRun::new(0, vec![ThreadSpec::new(0, CoreId(0), Box::new(stream))]);
            if migrate {
                // Node 1's first core, partway through the scan.
                let remote_core = CoreId(cfg.topology.cores_per_node() as u32);
                tenant = tenant.migrate(100_000.0, 0, remote_core);
            }
            let mut eng = Engine::new(&cfg, mm, NullObserver);
            eng.run(vec![tenant])
        };
        let pinned = run(false);
        let migrated = run(true);
        assert_eq!(pinned.run.counts.remote_dram, 0);
        assert!(migrated.run.counts.remote_dram > 0, "post-migration accesses should be remote");
        assert!(migrated.run.counts.local_dram > 0, "pre-migration accesses stay local");
        assert!(migrated.run.cycles > pinned.run.cycles, "remote tail should cost cycles");
    }

    /// Run a scenario under the slice body and under the oracle and hold
    /// the one to the other, returning the (common) stats and the final
    /// memory map.
    fn both_bodies(build: impl Fn(&MachineConfig, &mut MemoryMap) -> Vec<TenantRun>) -> (ScenarioStats, MemoryMap) {
        let run = |oracle: bool| {
            let cfg = scaled();
            let mut mm = MemoryMap::new(&cfg);
            let tenants = build(&cfg, &mut mm);
            let mut eng = Engine::new(&cfg, mm, NullObserver);
            let stats = if oracle { crate::oracle::run(&mut eng, tenants) } else { eng.run(tenants) };
            (stats, eng.into_parts().0)
        };
        let (reference, _) = run(true);
        let (batched, mm) = run(false);
        assert_eq!(batched, reference, "slice body diverged from the oracle");
        (batched, mm)
    }

    /// First core of `node` on the scaled machine.
    fn core_on(cfg: &MachineConfig, node: usize) -> CoreId {
        CoreId((cfg.topology.cores_per_node() * node) as u32)
    }

    /// One thread scans an 8 MiB object placed by `policy` from node 0 and
    /// moves to node 1 partway through.
    fn scan_across_a_move(policy: PlacementPolicy) -> (ScenarioStats, MemoryMap) {
        both_bodies(|cfg, mm| {
            let a = mm.alloc("a", 8 << 20, policy.clone());
            let stream = SeqStream::new(a.base, a.size, 1, AccessMix::read_only());
            let tenant = TenantRun::new(0, vec![ThreadSpec::new(0, CoreId(0), Box::new(stream))]);
            vec![tenant.migrate(100_000.0, 0, core_on(cfg, 1))]
        })
    }

    /// Regression: a rebind must drop the home-span cache. A `Replicated`
    /// object is homed on whichever node reads it and its span is the whole
    /// object, so a span resolved before the move would keep sending the
    /// rest of the scan to the old node's replica — remote traffic the
    /// oracle never sees. (Fails with `ThreadCtx::rebind`'s span
    /// reset removed: `remote_dram` is the post-move half of the scan.)
    #[test]
    fn migration_re_resolves_a_replicated_span() {
        let (stats, _) = scan_across_a_move(PlacementPolicy::Replicated);
        assert_eq!(stats.run.counts.remote_dram, 0, "a replicated object is local from every node");
        assert_eq!(stats.run.counts.local_dram, (8 << 20) / 64);
    }

    /// Pages of an untouched first-touch object that the thread reaches
    /// after it moved are homed on its new node, by the slice body and the oracle alike.
    #[test]
    fn migration_first_touches_on_the_new_node() {
        let (stats, mm) = scan_across_a_move(PlacementPolicy::FirstTouch);
        let (_, a) = mm.objects().next().expect("one object");
        assert_eq!(mm.query_node(a.base), Some(NodeId(0)), "touched before the move");
        assert_eq!(mm.query_node(a.base + a.size - 1), Some(NodeId(1)), "touched after the move");
        // Only the rest of the page the move interrupted is remote.
        assert!(stats.run.counts.remote_dram < 4096 / 64, "remote lines: {}", stats.run.counts.remote_dram);
    }

    /// Regression: a rebind must drop the miss-proof memos. They are keyed
    /// to install epochs, and epochs of different cores are only counters:
    /// when the destination core has installed exactly as many lines as the
    /// source, a carried memo reads as current there and certifies lines
    /// absent that the destination holds. Thread 1 first parks
    /// `installs_at_move` lines of `o` — including the ones thread 0 reaches
    /// next — in the destination's caches; thread 0 then arrives, ends a
    /// cache-resident segment (so its first streaming proof overshoots the
    /// round and leaves a long memo) and moves there mid-stream. (Fails with
    /// `ThreadCtx::rebind`'s memo reset removed.)
    #[test]
    fn migration_drops_miss_proofs_keyed_to_the_old_core() {
        const ARRIVAL: f64 = 1_000_000.0;
        const MOVE_AT: f64 = ARRIVAL + 50_000.0;
        let mover = |mm: &mut MemoryMap, cfg: &MachineConfig| {
            let h = mm.alloc("h", 8 * 64, PlacementPolicy::Bind(NodeId(2)));
            let o = mm.alloc("o", 4096 * 64, PlacementPolicy::Bind(NodeId(2)));
            let warm = SeqStream::new(h.base, h.size, 50, AccessMix::read_only());
            let scan = SeqStream::new(o.base, o.size, 1, AccessMix::read_only());
            let chain = ChainStream::new(vec![Box::new(warm), Box::new(scan)]);
            let tenant = TenantRun::new(0, vec![ThreadSpec::new(0, CoreId(0), Box::new(chain))])
                .arriving_at(ARRIVAL)
                .migrate(MOVE_AT, 0, core_on(cfg, 1));
            (tenant, o)
        };
        // Lines thread 0 installs on core 0 before it moves: every DRAM
        // fill it takes there (the warm segment never leaves L1 again).
        struct FillsOnCore0(u64);
        impl Observer for FillsOnCore0 {
            fn on_access(&mut self, ev: &crate::engine::AccessEvent) -> f64 {
                self.0 += u64::from(ev.core == CoreId(0) && ev.source.is_dram());
                0.0
            }
        }
        let cfg = scaled();
        let mut mm = MemoryMap::new(&cfg);
        let (tenant, _) = mover(&mut mm, &cfg);
        let mut eng = Engine::new(&cfg, mm, FillsOnCore0(0));
        crate::oracle::run(&mut eng, vec![tenant]);
        let installs_at_move = eng.observer().0;
        assert!((100..4000).contains(&installs_at_move), "the move must land mid-scan, got {installs_at_move}");

        let (stats, _) = both_bodies(|cfg, mm| {
            let (tenant, o) = mover(mm, cfg);
            let park = SeqStream::new(o.base, installs_at_move * 64, 1, AccessMix::read_only());
            vec![tenant, TenantRun::new(1, vec![ThreadSpec::new(1, core_on(cfg, 1), Box::new(park))])]
        });
        // The first lines after the move are the last ones thread 1 parked.
        assert!(stats.tenants[0].counts.l1 > 8 * 49, "thread 0 must hit lines the destination core holds");
    }

    /// Cross-tenant contention: a victim sharing channels with a
    /// bandwidth-hog aggressor slows down relative to running alone.
    #[test]
    fn aggressor_tenant_slows_the_victim() {
        let cfg = scaled();
        let victim_tenant = |mm: &mut MemoryMap| {
            let v = mm.alloc("victim", 4 << 20, PlacementPolicy::Bind(NodeId(0)));
            let stream = SeqStream::new(v.base, v.size, 2, AccessMix::read_only()).with_compute(2.0);
            TenantRun::new(0, vec![ThreadSpec::new(0, CoreId(0), Box::new(stream))])
        };
        let alone = {
            let mut mm = MemoryMap::new(&cfg);
            let t = victim_tenant(&mut mm);
            let mut eng = Engine::new(&cfg, mm, NullObserver);
            eng.run(vec![t])
        };
        let contended = {
            let mut mm = MemoryMap::new(&cfg);
            let t = victim_tenant(&mut mm);
            let a = mm.alloc("aggressor", 48 << 20, PlacementPolicy::Bind(NodeId(0)));
            let nthreads = 24usize;
            let threads: Vec<ThreadSpec> = (0..nthreads)
                .map(|i| {
                    let share = a.size / nthreads as u64;
                    let s = SeqStream::new(a.base + i as u64 * share, share, 4, AccessMix::read_only());
                    // Aggressor cores on nodes 1..3: all their traffic is
                    // remote into the victim's node-0 memory controller.
                    let core = CoreId((cfg.topology.cores_per_node() * (1 + i / 8)) as u32 + (i % 8) as u32);
                    ThreadSpec::new(100 + i as u32, core, Box::new(s))
                })
                .collect();
            let mut eng = Engine::new(&cfg, mm, NullObserver);
            eng.run(vec![t, TenantRun::new(1, threads)])
        };
        let slowdown = contended.tenants[0].finish_cycles / alone.tenants[0].finish_cycles;
        assert_eq!(alone.tenants[0].counts, contended.tenants[0].counts, "victim's work changed");
        assert!(slowdown > 1.2, "aggressor should slow the victim, got {slowdown}x");
    }

    /// Every way a scenario can be malformed comes back from `try_run` as
    /// its own `ScenarioError`, not as a panic.
    #[test]
    fn malformed_scenarios_are_typed_errors() {
        let cfg = scaled();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 1 << 20, PlacementPolicy::Bind(NodeId(0)));
        let spec = |thread: u32, core: u32| {
            ThreadSpec::new(thread, CoreId(core), Box::new(SeqStream::new(a.base, a.size, 1, AccessMix::read_only())))
        };
        let one = |thread: u32, core: u32| TenantRun::new(0, vec![spec(thread, core)]);
        let (t0, tn0) = (ThreadId(0), TenantId(0));
        let burst = BurstConfig { on_cycles: 0.0, off_cycles: 1.0 };
        let cases: Vec<(Vec<TenantRun>, ScenarioError)> = vec![
            (vec![], ScenarioError::NoTenants),
            (vec![TenantRun::new(0, vec![])], ScenarioError::EmptyTenant(tn0)),
            (vec![one(0, 0).arriving_at(-1.0)], ScenarioError::InvalidArrival(tn0, -1.0)),
            (vec![one(0, 0).bursty(0.0, 1.0)], ScenarioError::InvalidBurst(tn0, burst)),
            (vec![one(0, 999)], ScenarioError::InvalidCore(t0, CoreId(999))),
            (vec![one(0, 0), TenantRun::new(1, vec![spec(0, 1)])], ScenarioError::DuplicateThreadIds),
            (
                vec![one(0, 0).migrate(f64::INFINITY, 0, CoreId(1))],
                ScenarioError::InvalidMigrationTime(t0, f64::INFINITY),
            ),
            (vec![one(0, 0).migrate(1.0, 0, CoreId(999))], ScenarioError::InvalidMigrationCore(t0, CoreId(999))),
            (vec![one(0, 0).migrate(1.0, 7, CoreId(1))], ScenarioError::ForeignMigration(ThreadId(7), tn0)),
        ];
        let mut eng = Engine::new(&cfg, mm, NullObserver);
        for (tenants, want) in cases {
            assert_eq!(eng.try_run(tenants), Err(want));
        }
        // A rejected scenario leaves the engine usable.
        assert!(eng.try_run(vec![one(0, 0)]).is_ok());
    }

    #[test]
    #[should_panic(expected = "duplicate thread ids")]
    fn duplicate_thread_ids_across_tenants_rejected() {
        let cfg = scaled();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 1 << 20, PlacementPolicy::Bind(NodeId(0)));
        let mk = || -> Box<dyn AccessStream> { Box::new(SeqStream::new(a.base, a.size, 1, AccessMix::read_only())) };
        let t0 = TenantRun::new(0, vec![ThreadSpec::new(0, CoreId(0), mk())]);
        let t1 = TenantRun::new(1, vec![ThreadSpec::new(0, CoreId(1), mk())]);
        let mut eng = Engine::new(&cfg, mm, NullObserver);
        eng.run(vec![t0, t1]);
    }

    #[test]
    #[should_panic(expected = "not a thread of tenant")]
    fn migration_of_foreign_thread_rejected() {
        let cfg = scaled();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 1 << 20, PlacementPolicy::Bind(NodeId(0)));
        let stream = SeqStream::new(a.base, a.size, 1, AccessMix::read_only());
        let tenant =
            TenantRun::new(0, vec![ThreadSpec::new(0, CoreId(0), Box::new(stream))]).migrate(1_000.0, 7, CoreId(1));
        let mut eng = Engine::new(&cfg, mm, NullObserver);
        eng.run(vec![tenant]);
    }
}
