//! The execution engine: advances simulated threads through their access
//! streams in deterministic rounds, modelling latency, bandwidth
//! contention, and cache behaviour, and reporting every access event to a
//! pluggable [`Observer`] (the PEBS sampler in `drbw-pebs`).
//!
//! ## Scheduling model
//!
//! Time advances in rounds of `round_cycles`. Within a round each thread
//! issues accesses until its private clock passes the round boundary; the
//! bandwidth model aggregates the round's DRAM traffic and derives latency
//! inflation factors for the *next* round (a closed-loop fluid
//! approximation — see [`crate::bandwidth`]). Threads are visited in a
//! fixed order, so runs are bit-for-bit deterministic regardless of host
//! parallelism.
//!
//! The round loop itself lives in [`crate::sched`]; this module holds what
//! one thread does *inside* a round — the slice body (`run_thread_slice`)
//! and the `ThreadCtx` it advances — plus [`Engine`], which runs a single
//! workload's phase as a one-tenant scenario on that loop. The per-access
//! body tests hold it to is [`crate::oracle`].
//!
//! ## Clock accounting
//!
//! Per access: `clock += compute + latency / mlp`. `mlp` is the stream's
//! memory-level parallelism (dependent pointer chases use 1). Extra loads
//! to the same line (`reps > 1`) that hit the line-fill buffer advance the
//! clock by their compute only — their latency is hidden under the in-flight
//! fill — but are still reported to the observer with the LFB latency, just
//! as PEBS reports load-to-use latency for overlapped loads.

use crate::access::{AccessRun, AccessStream};
use crate::bandwidth::BandwidthModel;
use crate::config::MachineConfig;
use crate::fp::{bulk_add, bulk_line_chain, LineStep};
use crate::hierarchy::{CoreCaches, DataSource, Hierarchy, MissProofMemo};
use crate::memmap::MemoryMap;
use crate::sched::{run_tenants, ScenarioError, ScenarioStats, SchedCtx, SliceBody, TenantRun};
use crate::stats::{AccessCounts, RunStats};
use crate::topology::{CoreId, NodeId, ThreadId};

/// One access event, as seen by an [`Observer`].
#[derive(Debug, Clone, Copy)]
pub struct AccessEvent {
    /// Simulated time (cycles) at which the access retires.
    pub time: f64,
    /// Issuing software thread.
    pub thread: ThreadId,
    /// Core the thread is bound to.
    pub core: CoreId,
    /// NUMA node of that core (the channel *source*).
    pub node: NodeId,
    /// Byte address.
    pub addr: u64,
    /// Store (true) or load (false).
    pub is_write: bool,
    /// Where the access was satisfied.
    pub source: DataSource,
    /// Home node of the page for DRAM and LFB events (the channel
    /// *target*); `None` for cache hits, where no off-core transfer
    /// happened.
    pub home: Option<NodeId>,
    /// Observed load-to-use latency in cycles (congestion included).
    pub latency: f64,
}

/// Receives every access event. Implementations must be cheap: the engine
/// calls this once per simulated access.
pub trait Observer {
    /// Called for each retired access event. The returned value is a
    /// *perturbation cost* in cycles charged to the issuing thread's
    /// clock — a profiler that records this access (PEBS buffer drain,
    /// interception bookkeeping) slows the program down by that much,
    /// which is how profiling overhead becomes measurable in simulated
    /// time. Pure observers return 0.
    fn on_access(&mut self, ev: &AccessEvent) -> f64;

    /// Called when a phase completes, with its final statistics.
    fn on_phase_end(&mut self, _stats: &RunStats) {}

    /// Pause/resume observation (warmup phases are not measured). The
    /// engine never calls this itself; drivers do, around phases they do
    /// not want observed. Default: ignored.
    fn set_enabled(&mut self, _enabled: bool) {}

    /// Bulk fast path: how many upcoming events of `thread` the engine may
    /// deliver via [`Observer::on_run`] instead of [`Observer::on_access`].
    ///
    /// The engine calls this right after each `on_access` and then skips up
    /// to that many of the thread's next events, counting them, before the
    /// next `on_access`. An observer may return `n > 0` only if (a) those
    /// `n` events would each return a perturbation cost of 0 and leave no
    /// externally visible record, and (b) a later `on_run(thread, k)` with
    /// `k ≤ n` restores exactly the state per-event delivery would have
    /// produced. The promise must stay valid until the thread's next
    /// `on_access`/`on_run` — nothing else may consume its budget. The
    /// default (0) delivers every event through `on_access`.
    fn run_hint(&mut self, _thread: ThreadId) -> u64 {
        0
    }

    /// Bulk-commit `n` events of `thread` that the engine skipped under a
    /// [`Observer::run_hint`] promise. Called before the thread's next
    /// `on_access` (and at the end of its scheduling slice), so observers
    /// that count events globally see the same interleaving per-event
    /// delivery would produce. Default: no-op.
    fn on_run(&mut self, _thread: ThreadId, _n: u64) {}
}

/// An observer that ignores everything (profiling disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline]
    fn on_access(&mut self, _ev: &AccessEvent) -> f64 {
        0.0
    }

    #[inline]
    fn run_hint(&mut self, _thread: ThreadId) -> u64 {
        u64::MAX // never needs to see an event
    }
}

/// A software thread bound to a core, with its access stream.
pub struct ThreadSpec {
    /// Thread id (dense, unique within a phase).
    pub thread: ThreadId,
    /// Core binding.
    pub core: CoreId,
    /// The access stream driving this thread.
    pub stream: Box<dyn AccessStream>,
}

impl ThreadSpec {
    /// Convenience constructor.
    pub fn new(thread: u32, core: CoreId, stream: Box<dyn AccessStream>) -> Self {
        Self { thread: ThreadId(thread), core, stream }
    }
}

/// Everything one simulated thread carries between scheduling slices:
/// binding, stream, private clock, and the slice body's cursors and
/// memos. Owned by the thread's [`crate::sched::IssueUnit`].
pub(crate) struct ThreadCtx {
    pub(crate) thread: ThreadId,
    pub(crate) core: CoreId,
    pub(crate) node: NodeId,
    pub(crate) stream: Box<dyn AccessStream>,
    pub(crate) clock: f64,
    /// Effective mlp for the current run (resolved against the default).
    mlp: f64,
    /// Current (possibly partially consumed) run and the cursor into it.
    run: AccessRun,
    run_pos: u64,
    /// Events the observer has promised not to need (see
    /// [`Observer::run_hint`]).
    quiet: u64,
    /// Home-node span cache: every address in `span_start..span_end` is
    /// homed on `span_home` for this thread.
    span_start: u64,
    span_end: u64,
    span_home: NodeId,
    /// Memo of the last `latency / mlp` quotient: streaming runs repeat
    /// the same division for every line of a span within a round, and the
    /// divide sits on the clock's dependency chain.
    lat_memo: f64,
    mlp_memo: f64,
    quot_memo: f64,
    /// Lines to process per-line before the next fused-span attempt; set
    /// after a failed all-miss proof so hit-heavy (cache-resident) phases
    /// do not pay for repeated proof scans.
    fuse_cooldown: u64,
    /// Current backoff window: doubles on consecutive failed attempts up
    /// to [`FUSE_BACKOFF_MAX`], resets on success.
    fuse_backoff: u64,
    /// In-flight interleaved span (see [`AccessStream::next_zip`]): one
    /// pre-pulled sequential run per lane, in issue order. Empty when no
    /// span is active. Draining these positions reproduces exactly the
    /// single-access runs the stream would have handed out one by one.
    zip_lanes: Vec<AccessRun>,
    /// Iterations in the active span / next iteration index / next lane
    /// index within that iteration.
    zip_iters: u64,
    zip_iter: u64,
    zip_lane: usize,
    /// Spans to drain per-line before the next interleaved proof attempt,
    /// and its doubling backoff (failed proofs mean the lanes are cache
    /// resident — hits are imminent for a while).
    zip_cooldown: u32,
    zip_backoff: u32,
    /// Cached absence frontiers of the sequential fused path (see
    /// [`MissProofMemo`]).
    fuse_proof: MissProofMemo,
    /// Cached per-lane absence frontiers of the interleaved fused path,
    /// one per lane in flight.
    zip_proof: Vec<MissProofMemo>,
}

impl ThreadCtx {
    /// A thread about to issue its first access at `clock`, bound to
    /// `spec.core` on `node`.
    pub(crate) fn new(spec: ThreadSpec, node: NodeId, clock: f64) -> Self {
        Self {
            thread: spec.thread,
            core: spec.core,
            node,
            stream: spec.stream,
            clock,
            mlp: 1.0,
            // Empty run: the first slice fetches one.
            run: AccessRun { len: 0, ..AccessRun::single(0, false, 1, 0.0, None) },
            run_pos: 0,
            quiet: 0,
            // Empty span: the first miss resolves one.
            span_start: 0,
            span_end: 0,
            span_home: NodeId(0),
            // NaN never compares equal: the first access computes.
            lat_memo: f64::NAN,
            mlp_memo: f64::NAN,
            quot_memo: 0.0,
            fuse_cooldown: 0,
            fuse_backoff: FUSE_BACKOFF_MIN,
            zip_lanes: Vec::new(),
            zip_iters: 0,
            zip_iter: 0,
            zip_lane: 0,
            zip_cooldown: 0,
            zip_backoff: ZIP_BACKOFF_MIN,
            fuse_proof: MissProofMemo::new(),
            zip_proof: Vec::new(),
        }
    }

    /// Move the thread to `core` on `node` (a scheduled migration). The
    /// home-span cache and the miss-proof memos describe the old binding —
    /// `Replicated` and untouched first-touch pages resolve to the
    /// accessor's node, and the memos are keyed to the old core's install
    /// epochs, which the new core's counters can equal by coincidence — so
    /// both start over. Run cursor, zip lanes and quiet budget are
    /// properties of the stream and the observer, and carry across.
    pub(crate) fn rebind(&mut self, core: CoreId, node: NodeId) {
        self.core = core;
        self.node = node;
        self.span_start = 0;
        self.span_end = 0;
        self.fuse_proof = MissProofMemo::new();
        self.zip_proof.clear();
    }
}

/// Lane cap for the interleaved fused path — it sizes the replay's
/// per-lane scratch arrays, and covers the widest modelled kernel (IRSmk:
/// 27 stencil arrays, `x` and `b`); wider interleavings drain per-line.
const MAX_LANES: usize = 32;

/// Minimum provable span length worth committing through the fused walk;
/// shorter proofs fall back to the per-line path (and trigger backoff).
const FUSE_MIN: u64 = 4;
/// Initial per-line backoff window after a failed fusion attempt.
const FUSE_BACKOFF_MIN: u64 = 32;
/// Backoff ceiling: caches whose spans keep hitting settle at one proof
/// scan per this many lines, amortising it to noise.
const FUSE_BACKOFF_MAX: u64 = 4096;
/// Minimum interleaved iterations worth a per-lane proof; shorter spans
/// drain through the per-line path.
const ZIP_MIN: u64 = 4;
/// Iteration cap per [`AccessStream::next_zip`] pull. Spans that outlive
/// a round or the observer's quiet budget simply resume fusing at the
/// next iteration boundary, so the cap only bounds buffered state.
const ZIP_PULL_MAX: u64 = 4096;
/// Span-granular backoff after a failed interleaved proof (spans are
/// thousands of accesses, so the window stays small).
const ZIP_BACKOFF_MIN: u32 = 1;
/// Ceiling for the interleaved-proof backoff.
const ZIP_BACKOFF_MAX: u32 = 8;

/// The simulator. Owns the machine state (caches, bandwidth accounting,
/// memory map) across phases and scenarios; see [`Engine::run_phase`] and
/// [`Engine::run`].
pub struct Engine<O: Observer> {
    cfg: MachineConfig,
    hierarchy: Hierarchy,
    bw: BandwidthModel,
    memmap: MemoryMap,
    observer: O,
}

impl<O: Observer> Engine<O> {
    /// Build an engine for `cfg` over an allocated `memmap`.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(cfg: &MachineConfig, memmap: MemoryMap, observer: O) -> Self {
        cfg.validate();
        Self { cfg: cfg.clone(), hierarchy: Hierarchy::new(cfg), bw: BandwidthModel::new(cfg), memmap, observer }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Read access to the memory map (e.g. for page queries).
    pub fn memmap(&self) -> &MemoryMap {
        &self.memmap
    }

    /// Mutable access to the memory map (e.g. to re-place objects between
    /// phases, as the co-locate optimization does).
    pub fn memmap_mut(&mut self) -> &mut MemoryMap {
        &mut self.memmap
    }

    /// The observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the observer (e.g. to drain collected samples).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Flush all caches (cold-start the next phase).
    pub fn flush_caches(&mut self) {
        self.hierarchy.flush();
    }

    /// Tear down, returning the memory map and observer.
    pub fn into_parts(self) -> (MemoryMap, O) {
        (self.memmap, self.observer)
    }

    /// Run one scenario to completion: every tenant's threads to stream
    /// exhaustion, on the discrete-event scheduler ([`crate::sched`]).
    /// Machine state (cache contents, first-touch placements) persists
    /// across scenarios; bandwidth aggregates are reset at the start of
    /// each.
    ///
    /// # Errors
    /// Returns a [`ScenarioError`], before touching any machine state, if
    /// the scenario is malformed: no tenants, a tenant with no threads,
    /// out-of-range cores, duplicate thread ids across the scenario,
    /// non-finite or negative arrivals, a non-positive burst `on_cycles`
    /// or negative `off_cycles`, or a migration naming a thread outside
    /// its tenant, an out-of-range core, or an invalid time.
    ///
    /// # Panics
    /// Panics if a stream accesses unallocated memory.
    pub fn try_run(&mut self, tenants: Vec<TenantRun>) -> Result<ScenarioStats, ScenarioError> {
        self.run_with(tenants, run_thread_slice)
    }

    /// [`Engine::try_run`] with the slice body as an argument — the door
    /// [`crate::oracle`] comes in through.
    pub(crate) fn run_with(
        &mut self,
        tenants: Vec<TenantRun>,
        body: SliceBody,
    ) -> Result<ScenarioStats, ScenarioError> {
        let ctx = SchedCtx {
            cfg: &self.cfg,
            hierarchy: &mut self.hierarchy,
            bw: &mut self.bw,
            memmap: &mut self.memmap,
            observer: &mut self.observer,
        };
        run_tenants(ctx, tenants, body)
    }

    /// [`Engine::try_run`] for callers that build their scenarios in code.
    ///
    /// # Panics
    /// Panics with the [`ScenarioError`] text if the scenario is malformed.
    pub fn run(&mut self, tenants: Vec<TenantRun>) -> ScenarioStats {
        self.try_run(tenants).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Execute one phase — a one-tenant scenario arriving at 0 with no
    /// bursts and no migrations — and return its machine-wide statistics.
    ///
    /// # Panics
    /// As [`Engine::run`]: out-of-range cores, duplicate thread ids, no
    /// threads.
    pub fn run_phase(&mut self, threads: Vec<ThreadSpec>) -> RunStats {
        self.run(vec![TenantRun::new(0, threads)]).run
    }
}

/// The slice body: advance thread `t` until its clock reaches `limit` or
/// its stream ends, through the fused span walk, the interleaved (zip)
/// path, and the per-line fallback. `limit` is whatever the scheduler must
/// act on next — the round boundary, the end of a burst window, a
/// migration time — and is tested before every line, exactly where the
/// per-access oracle tests it. Returns whether the thread finished (its
/// stream ran dry this slice).
pub(crate) fn run_thread_slice(
    ctx: &mut SchedCtx<'_>,
    counts: &mut AccessCounts,
    t: &mut ThreadCtx,
    limit: f64,
) -> bool {
    let cfg = ctx.cfg;
    let (hierarchy, bw, memmap, observer) = (&mut *ctx.hierarchy, &mut *ctx.bw, &mut *ctx.memmap, &mut *ctx.observer);
    let (lfb_latency, l1_latency, default_mlp) = (cfg.latency.lfb, cfg.latency.l1, cfg.engine.default_mlp);
    let (line_step, line_bytes) = (cfg.cache.line_size, cfg.cache.line_size as f64);
    let mut finished = false;
    // Disjoint field borrows: the cache handle pins the hierarchy for the
    // slice while the bandwidth model, memory map, and observer stay
    // independently borrowable.
    let mut caches = hierarchy.core_caches(t.core);
    // Events skipped under `quiet` in this slice, not yet committed to
    // the observer.
    let mut pending: u64 = 0;
    'slice: while t.clock < limit {
        if t.run_pos == t.run.len {
            if t.zip_iter < t.zip_iters {
                // An interleaved span is in flight. At an
                // iteration boundary a fused commit may absorb
                // whole iterations; whatever remains drains as
                // the exact single-access runs the stream
                // would have handed out.
                if t.zip_lane == 0 && t.zip_cooldown == 0 {
                    zip_fuse(cfg, bw, memmap, &mut caches, counts, t, limit, line_bytes, default_mlp, &mut pending);
                    if t.zip_iter == t.zip_iters {
                        t.zip_iters = 0;
                        t.zip_iter = 0;
                        t.zip_lanes.clear();
                        continue 'slice;
                    }
                }
                let run = t.zip_lanes[t.zip_lane].nth(t.zip_iter);
                t.zip_lane += 1;
                if t.zip_lane == t.zip_lanes.len() {
                    t.zip_lane = 0;
                    t.zip_iter += 1;
                    if t.zip_iter == t.zip_iters {
                        t.zip_iters = 0;
                        t.zip_iter = 0;
                        t.zip_lanes.clear();
                    }
                }
                t.mlp = run.mlp.unwrap_or(default_mlp).max(1.0);
                t.run = run;
                t.run_pos = 0;
            } else {
                let iters = t.stream.next_zip(line_step, ZIP_PULL_MAX, &mut t.zip_lanes);
                if iters > 0 {
                    t.zip_iters = iters;
                    t.zip_iter = 0;
                    t.zip_lane = 0;
                    t.zip_cooldown = t.zip_cooldown.saturating_sub(1);
                    continue 'slice;
                }
                let Some(run) = t.stream.next_run(u64::MAX) else {
                    finished = true;
                    break 'slice;
                };
                t.mlp = run.mlp.unwrap_or(default_mlp).max(1.0);
                t.run = run;
                t.run_pos = 0;
            }
        }
        let run = t.run;
        let compute = run.compute;
        while t.run_pos < run.len && t.clock < limit {
            // Fused span walk: when the run hands over
            // consecutive lines and a prefix provably misses
            // all three levels, commit it in closed form
            // (DESIGN §8). The proof comes first and is
            // read-only; home-node resolution — which mutates
            // first-touch placement — happens per home span,
            // only once at least one of its lines is certain
            // to commit this round, exactly when the per-line
            // path would have resolved it.
            if t.fuse_cooldown == 0 && run.stride == line_step {
                let reps_total = run.reps as u64;
                let mut k_cap = (run.len - t.run_pos).min(t.quiet / reps_total);
                if k_cap >= FUSE_MIN {
                    // Proving more lines than can commit before
                    // `limit` is wasted tag-scan work that
                    // next round's proof repeats. Estimate the
                    // fit from the memoized quotient; any cap
                    // is sound — the loop simply proves the
                    // next chunk afterwards.
                    let per_line = reps_total as f64 * compute + t.quot_memo;
                    if per_line > 0.0 {
                        let est = ((limit - t.clock) / per_line) as u64 + 2;
                        k_cap = k_cap.min(est.max(FUSE_MIN));
                    }
                }
                if k_cap >= FUSE_MIN {
                    let addr0 = run.base + t.run_pos * run.stride;
                    let line0 = caches.line_of(addr0);
                    // Memo-assisted proof: lines the cached
                    // absence frontier still covers skip their
                    // tag scans.
                    let k_miss = caches.span_miss_prefix_memo(line0, k_cap, &mut t.fuse_proof);
                    debug_assert_eq!(
                        k_miss,
                        caches.span_miss_prefix(line0, k_cap),
                        "cached miss proof diverged from a fresh scan"
                    );
                    if k_miss >= FUSE_MIN {
                        t.fuse_backoff = FUSE_BACKOFF_MIN;
                        let nreps = reps_total - 1;
                        // LFB reps hide their latency: the
                        // per-line path advances the clock by
                        // this same addend.
                        let rep_delta = compute + 0.0;
                        let mut done = 0u64;
                        while done < k_miss && t.clock < limit {
                            let addr = addr0 + done * run.stride;
                            let home = if addr >= t.span_start && addr < t.span_end {
                                t.span_home
                            } else {
                                let (h, end) = memmap.home_node_span(addr, t.node);
                                t.span_start = addr;
                                t.span_end = end;
                                t.span_home = h;
                                h
                            };
                            let span_lines = (t.span_end - addr).div_ceil(run.stride);
                            let k_seg = (k_miss - done).min(span_lines);
                            let (src, service) = if home == t.node {
                                (DataSource::LocalDram, cfg.latency.dram_local_service)
                            } else {
                                (DataSource::RemoteDram, cfg.latency.dram_remote_service)
                            };
                            // Congestion factors only change at
                            // round boundaries, so the latency —
                            // and the clock addend — is one
                            // value for the whole segment.
                            let f = bw.factor_for(t.node, home);
                            let latency = cfg.latency.dram_fixed + service * f;
                            let quot = if latency == t.lat_memo && t.mlp == t.mlp_memo {
                                t.quot_memo
                            } else {
                                let q = latency / t.mlp;
                                t.lat_memo = latency;
                                t.mlp_memo = t.mlp;
                                t.quot_memo = q;
                                q
                            };
                            let addend = compute + quot;
                            // Collapse the reference clock's
                            // per-line replay to one closed-form
                            // grid step per binade (bit-identical
                            // — see `fp::bulk_line_chain`).
                            let (k_fit, clock) = bulk_line_chain(t.clock, addend, rep_delta, nreps, k_seg, limit);
                            caches.install_span(line0 + done, k_fit);
                            counts.record_n(src, k_fit);
                            if nreps > 0 {
                                counts.record_n(DataSource::Lfb, k_fit * nreps);
                            }
                            bw.record_dram_n(t.node, home, line_bytes, k_fit);
                            t.clock = clock;
                            t.quiet -= k_fit * reps_total;
                            pending += k_fit * reps_total;
                            t.run_pos += k_fit;
                            done += k_fit;
                        }
                        // The commit's installs all sit below
                        // `line0 + done`, so the unconsumed tail
                        // of the proof survives the new epochs.
                        t.fuse_proof.retire(caches.install_epochs(), line0 + done, u64::MAX);
                        continue;
                    }
                    // Miss proof came up short: a hit is
                    // imminent. Before falling back per-line,
                    // try the hit-side closed form — a warm
                    // rescan resolves whole spans at one cache
                    // level, with no DRAM, bandwidth, or
                    // first-touch involvement at all.
                    if let Some((src, k_hit)) = caches.span_hit_prefix(line0, k_cap) {
                        if k_hit >= FUSE_MIN {
                            t.fuse_backoff = FUSE_BACKOFF_MIN;
                            let nreps = reps_total - 1;
                            let latency = cfg.base_latency(src);
                            let quot = if latency == t.lat_memo && t.mlp == t.mlp_memo {
                                t.quot_memo
                            } else {
                                let q = latency / t.mlp;
                                t.lat_memo = latency;
                                t.mlp_memo = t.mlp;
                                t.quot_memo = q;
                                q
                            };
                            let addend = compute + quot;
                            // Cache-hit reps hit L1 and are
                            // charged its latency — the same
                            // per-rep addend every line.
                            let rep_delta = compute + l1_latency / t.mlp;
                            let (k_fit, clock) = bulk_line_chain(t.clock, addend, rep_delta, nreps, k_hit, limit);
                            caches.commit_hit_span(src, line0, k_fit);
                            // The hit commit installs only the
                            // span itself into the levels above
                            // `src` — all below the frontier.
                            t.fuse_proof.retire(caches.install_epochs(), line0 + k_fit, u64::MAX);
                            counts.record_n(src, k_fit);
                            if nreps > 0 {
                                counts.record_n(DataSource::L1, k_fit * nreps);
                            }
                            t.clock = clock;
                            t.quiet -= k_fit * reps_total;
                            pending += k_fit * reps_total;
                            t.run_pos += k_fit;
                            continue;
                        }
                    }
                    // Both proofs short: walk per-line for a
                    // while before paying for another scan.
                    t.fuse_cooldown = t.fuse_backoff;
                    t.fuse_backoff = (t.fuse_backoff * 2).min(FUSE_BACKOFF_MAX);
                }
            }
            t.fuse_cooldown = t.fuse_cooldown.saturating_sub(1);
            let pos = t.run_pos;
            let addr = run.base + pos * run.stride;
            t.run_pos += 1;
            let (source, home, latency) = match caches.access(addr) {
                Some(src) => (src, None, cfg.base_latency(src)),
                None => {
                    let home = if addr >= t.span_start && addr < t.span_end {
                        t.span_home
                    } else {
                        let (h, end) = memmap.home_node_span(addr, t.node);
                        t.span_start = addr;
                        t.span_end = end;
                        t.span_home = h;
                        h
                    };
                    let (src, service) = if home == t.node {
                        (DataSource::LocalDram, cfg.latency.dram_local_service)
                    } else {
                        (DataSource::RemoteDram, cfg.latency.dram_remote_service)
                    };
                    let f = bw.factor_for(t.node, home);
                    bw.record_dram(t.node, home, line_bytes);
                    (src, Some(home), cfg.latency.dram_fixed + service * f)
                }
            };
            // `latency / mlp` is usually the same division as
            // on the previous line; reusing the quotient is
            // exact and takes the divide off the clock chain.
            let quot = if latency == t.lat_memo && t.mlp == t.mlp_memo {
                t.quot_memo
            } else {
                let q = latency / t.mlp;
                t.lat_memo = latency;
                t.mlp_memo = t.mlp;
                t.quot_memo = q;
                q
            };
            t.clock += compute + quot;
            counts.record(source);
            if t.quiet > 0 {
                t.quiet -= 1;
                pending += 1;
            } else {
                if pending > 0 {
                    observer.on_run(t.thread, pending);
                    pending = 0;
                }
                t.clock += observer.on_access(&AccessEvent {
                    time: t.clock,
                    thread: t.thread,
                    core: t.core,
                    node: t.node,
                    addr,
                    is_write: run.is_write_at(pos),
                    source,
                    home,
                    latency,
                });
                t.quiet = observer.run_hint(t.thread);
            }
            // Remaining element loads within the same line.
            let nreps = run.reps as u64 - 1;
            if nreps > 0 {
                let (rep_source, rep_latency, rep_home) = if source.is_dram() {
                    (DataSource::Lfb, lfb_latency, home)
                } else {
                    (DataSource::L1, l1_latency, None)
                };
                // Constant across the line's reps, so the
                // per-rep clock advance is one dependent add.
                let rep_delta = compute + if rep_source == DataSource::Lfb { 0.0 } else { rep_latency / t.mlp };
                if t.quiet >= nreps {
                    // Every rep is covered by the observer's
                    // promise: bulk-count them. Adding 0.0
                    // never changes a non-negative clock, so
                    // the chain itself is skippable then.
                    counts.record_n(rep_source, nreps);
                    t.quiet -= nreps;
                    pending += nreps;
                    if rep_delta != 0.0 {
                        t.clock = bulk_add(t.clock, rep_delta, nreps);
                    }
                } else {
                    for _ in 0..nreps {
                        t.clock += rep_delta;
                        counts.record(rep_source);
                        if t.quiet > 0 {
                            t.quiet -= 1;
                            pending += 1;
                        } else {
                            if pending > 0 {
                                observer.on_run(t.thread, pending);
                                pending = 0;
                            }
                            t.clock += observer.on_access(&AccessEvent {
                                time: t.clock,
                                thread: t.thread,
                                core: t.core,
                                node: t.node,
                                addr,
                                is_write: run.is_write_at(pos),
                                source: rep_source,
                                home: rep_home,
                                latency: rep_latency,
                            });
                            t.quiet = observer.run_hint(t.thread);
                        }
                    }
                }
            }
        }
    }
    // Commit the slice's skipped events before any other thread's events
    // reach the observer — this keeps global event ordering identical to
    // per-event delivery.
    if pending > 0 {
        observer.on_run(t.thread, pending);
    }
    finished
}

/// Assemble a run's [`RunStats`] from the final per-thread clocks, the
/// event counts, and the bandwidth model's aggregates.
pub(crate) fn collect_run_stats(bw: &BandwidthModel, thread_cycles: Vec<f64>, counts: AccessCounts) -> RunStats {
    let cycles = thread_cycles.iter().copied().fold(0.0, f64::max);
    RunStats {
        cycles,
        thread_cycles,
        counts,
        channel_bytes: bw.channel_bytes(),
        mc_bytes: bw.mc_bytes_total(),
        channel_max_rho: bw.channel_max_rho(),
        mc_max_rho: bw.mc_max_rho(),
        channel_avg_rho: bw.channel_avg_rho(),
        mc_avg_rho: bw.mc_avg_rho(),
        rounds: bw.rounds(),
    }
}

/// Fused commit of an interleaved span (see [`AccessStream::next_zip`]):
/// prove that each lane's upcoming lines miss every cache level, then
/// replay the per-line path's exact clock arithmetic, LRU installs, and
/// bandwidth records in arrival order — with no tag scans, which the
/// proofs have made redundant. Stops at the round boundary or the
/// observer's quiet budget; the caller drains whatever is left through
/// the per-line path. Advances `t.zip_iter`/`t.zip_lane` past the
/// committed prefix.
#[allow(clippy::too_many_arguments)] // the engine's split field borrows
fn zip_fuse(
    cfg: &MachineConfig,
    bw: &mut BandwidthModel,
    memmap: &mut MemoryMap,
    caches: &mut CoreCaches<'_>,
    counts: &mut AccessCounts,
    t: &mut ThreadCtx,
    limit: f64,
    line_bytes: f64,
    default_mlp: f64,
    pending: &mut u64,
) {
    let nl = t.zip_lanes.len();
    if nl > MAX_LANES {
        // Wider interleavings than any modelled kernel: drain per-line.
        t.zip_cooldown = u32::MAX;
        return;
    }
    let evts: u64 = t.zip_lanes.iter().map(|l| l.reps as u64).sum();
    let mut k_cap = (t.zip_iters - t.zip_iter).min(t.quiet / evts);
    if k_cap < ZIP_MIN {
        // Not a proof failure — the quiet budget refreshes at the next
        // per-line observer event, so don't back off.
        return;
    }
    // Round-fit estimate from the memoized quotient; any cap is sound —
    // the next iteration boundary proves the following chunk.
    let per_iter: f64 = t.zip_lanes.iter().map(|l| l.reps as f64 * l.compute).sum::<f64>() + nl as f64 * t.quot_memo;
    if per_iter > 0.0 {
        let est = ((limit - t.clock) / per_iter) as u64 + 2;
        k_cap = k_cap.min(est.max(ZIP_MIN));
    }
    let mut first = [0u64; MAX_LANES];
    for (i, l) in t.zip_lanes.iter().enumerate() {
        // `stride == line_step`, so lane lines advance one per iteration.
        first[i] = caches.line_of(l.base) + t.zip_iter;
    }
    // The per-lane all-miss proofs only stay valid under interleaved
    // replay if no lane can touch a line another lane installs: require
    // pairwise-disjoint line ranges over the commit window.
    let disjoint = (0..nl).all(|i| (0..i).all(|j| first[i] + k_cap <= first[j] || first[j] + k_cap <= first[i]));
    let mut k = k_cap;
    if disjoint {
        t.zip_proof.resize(nl, MissProofMemo::new());
        for (i, &f) in first.iter().enumerate().take(nl) {
            // Memo-assisted proof: lines the lane's cached absence
            // frontier still covers skip their tag scans.
            let ki = caches.span_miss_prefix_memo(f, k, &mut t.zip_proof[i]);
            debug_assert_eq!(ki, caches.span_miss_prefix(f, k), "cached miss proof diverged from a fresh scan");
            k = k.min(ki);
            if k < ZIP_MIN {
                break;
            }
        }
    }
    if !disjoint || k < ZIP_MIN {
        // A hit is imminent (or lanes alias): drain this span per-line
        // and back off span-granular proof attempts for a while.
        t.zip_cooldown = t.zip_backoff;
        t.zip_backoff = (t.zip_backoff * 2).min(ZIP_BACKOFF_MAX);
        return;
    }
    t.zip_backoff = ZIP_BACKOFF_MIN;
    // Per-lane, per-home-segment constants, resolved lazily so first-touch
    // placement mutates exactly when the per-line path would resolve it.
    // Counts and bandwidth are flushed per (lane, segment): grouping the
    // per-channel byte adds by lane keeps every accumulator's operation
    // sequence — and thus its rounding — identical to arrival order,
    // because the addend is constant (see `BandwidthModel::record_dram_n`).
    let mut home = [NodeId(0); MAX_LANES];
    let mut seg_rem = [0u64; MAX_LANES];
    let mut seg_done = [0u64; MAX_LANES];
    let mut addend = [0f64; MAX_LANES];
    let mut rep_delta = [0f64; MAX_LANES];
    let mut nreps = [0u64; MAX_LANES];
    let mut src = [DataSource::LocalDram; MAX_LANES];
    let mut committed = [0u64; MAX_LANES];
    // Per-lane memoized grid step: the lane costs are segment constants,
    // so the clock's per-line replay collapses to one integer add per
    // line in steady state (see `fp::LineStep`).
    let mut steps = [LineStep::new(); MAX_LANES];
    let mut clock = t.clock;
    let mut done = 0u64;
    // Lanes of the final (partial) iteration that committed before the
    // round ended; 0 when the replay stopped at an iteration boundary.
    let mut partial = 0usize;
    'replay: while done < k {
        let mut i = 0;
        while i < nl {
            // The reference path re-checks the round boundary before each
            // line (reps included), so the replay must stop mid-iteration
            // exactly where it would.
            if clock >= limit {
                partial = i;
                break 'replay;
            }
            if seg_rem[i] == 0 {
                let l = &t.zip_lanes[i];
                if seg_done[i] > 0 {
                    counts.record_n(src[i], seg_done[i]);
                    bw.record_dram_n(t.node, home[i], line_bytes, seg_done[i]);
                    committed[i] += seg_done[i];
                    seg_done[i] = 0;
                }
                let addr = l.base + (t.zip_iter + done) * l.stride;
                let (h, end) = memmap.home_node_span(addr, t.node);
                home[i] = h;
                seg_rem[i] = (end - addr).div_ceil(l.stride);
                let (s, service) = if h == t.node {
                    (DataSource::LocalDram, cfg.latency.dram_local_service)
                } else {
                    (DataSource::RemoteDram, cfg.latency.dram_remote_service)
                };
                src[i] = s;
                // Congestion factors only change at round boundaries, and
                // the replay never crosses one.
                let f = bw.factor_for(t.node, h);
                let latency = cfg.latency.dram_fixed + service * f;
                let mlp = l.mlp.unwrap_or(default_mlp).max(1.0);
                addend[i] = l.compute + latency / mlp;
                nreps[i] = l.reps as u64 - 1;
                // LFB reps: the fill latency is hidden, compute remains.
                rep_delta[i] = l.compute;
                // New segment, new costs: the grid memo must re-key.
                steps[i].invalidate();
            }
            clock = steps[i].advance_line(clock, addend[i], rep_delta[i], nreps[i]);
            caches.install_line_deferred(first[i] + done);
            seg_rem[i] -= 1;
            seg_done[i] += 1;
            i += 1;
        }
        done += 1;
    }
    let mut events = 0u64;
    let mut lines = 0u64;
    for i in 0..nl {
        committed[i] += seg_done[i];
        if seg_done[i] > 0 {
            counts.record_n(src[i], seg_done[i]);
            bw.record_dram_n(t.node, home[i], line_bytes, seg_done[i]);
        }
        if nreps[i] > 0 && committed[i] > 0 {
            counts.record_n(DataSource::Lfb, committed[i] * nreps[i]);
        }
        lines += committed[i];
        events += committed[i] * (nreps[i] + 1);
    }
    caches.charge_misses(lines);
    t.quiet -= events;
    *pending += events;
    t.clock = clock;
    t.zip_iter += done;
    t.zip_lane = partial;
    // Keep the unconsumed tails of the lane proofs: the replay's installs
    // are exactly the committed lines — below each lane's own frontier,
    // and outside every other lane's kept range by the disjointness check
    // over `k_cap`.
    let epochs = caches.install_epochs();
    for i in 0..nl {
        t.zip_proof[i].retire(epochs, first[i] + committed[i], first[i] + k_cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessMix, SeqStream};
    use crate::memmap::PlacementPolicy;

    fn scaled() -> MachineConfig {
        MachineConfig::scaled()
    }

    /// All-local streaming: one thread scanning an array bound to its node.
    #[test]
    fn local_stream_counts_and_time() {
        let cfg = scaled();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 1 << 20, PlacementPolicy::Bind(NodeId(0)));
        let stream = SeqStream::new(a.base, a.size, 1, AccessMix::read_only());
        let mut eng = Engine::new(&cfg, mm, NullObserver);
        let stats = eng.run_phase(vec![ThreadSpec::new(0, CoreId(0), Box::new(stream))]);
        let lines = (1u64 << 20) / 64;
        assert_eq!(stats.counts.total(), lines);
        // 1 MiB footprint vs 2 MiB L3: cold misses only, all local.
        assert_eq!(stats.counts.remote_dram, 0);
        assert!(stats.counts.local_dram > lines / 2);
        assert!(stats.cycles > 0.0);
    }

    /// Remote streaming takes longer than local streaming of the same work.
    #[test]
    fn remote_slower_than_local() {
        let cfg = scaled();
        let run = |bind: NodeId| {
            let mut mm = MemoryMap::new(&cfg);
            let a = mm.alloc("a", 4 << 20, PlacementPolicy::Bind(bind));
            let stream = SeqStream::new(a.base, a.size, 2, AccessMix::read_only());
            let mut eng = Engine::new(&cfg, mm, NullObserver);
            eng.run_phase(vec![ThreadSpec::new(0, CoreId(0), Box::new(stream))])
        };
        let local = run(NodeId(0));
        let remote = run(NodeId(1));
        assert_eq!(local.counts.remote_dram, 0);
        assert!(remote.counts.remote_dram > 0);
        assert!(remote.cycles > local.cycles * 1.2, "remote {} vs local {}", remote.cycles, local.cycles);
    }

    /// Many threads hammering one node's memory contend; the same threads
    /// on interleaved memory do not. This is the paper's core phenomenon.
    #[test]
    fn contention_and_interleave_relief() {
        let cfg = scaled();
        let run = |policy: PlacementPolicy| {
            let mut mm = MemoryMap::new(&cfg);
            let a = mm.alloc("a", 32 << 20, PlacementPolicy::FirstTouch);
            mm.set_policy(a.id, policy);
            let nthreads = 32u64;
            let binding = cfg.topology.bind_threads(nthreads as usize, 4);
            let threads: Vec<ThreadSpec> = binding
                .iter()
                .enumerate()
                .map(|(i, core)| {
                    let share = a.size / nthreads;
                    let stream =
                        SeqStream::new(a.base + i as u64 * share, share, 4, AccessMix::read_only()).with_compute(0.5);
                    ThreadSpec::new(i as u32, *core, Box::new(stream))
                })
                .collect();
            let mut eng = Engine::new(&cfg, mm, NullObserver);
            eng.run_phase(threads)
        };
        let master_alloc = run(PlacementPolicy::Bind(NodeId(0)));
        let interleaved = run(PlacementPolicy::interleave_all(4));
        // Master allocation: 3/4 of threads remote into node 0.
        assert!(master_alloc.counts.remote_dram > 0);
        let speedup = master_alloc.cycles / interleaved.cycles;
        assert!(speedup > 1.5, "interleave should relieve contention, speedup {speedup}");
        // Contended channels into node 0 ran hot.
        assert!(master_alloc.channel_max_rho.iter().cloned().fold(0.0, f64::max) > 0.8);
    }

    /// Cache-resident working set never touches DRAM after warmup.
    #[test]
    fn cache_resident_is_fast() {
        let cfg = scaled();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 16 << 10, PlacementPolicy::Bind(NodeId(0)));
        let stream = SeqStream::new(a.base, a.size, 50, AccessMix::read_only());
        let mut eng = Engine::new(&cfg, mm, NullObserver);
        let stats = eng.run_phase(vec![ThreadSpec::new(0, CoreId(0), Box::new(stream))]);
        let lines = (16u64 << 10) / 64;
        assert_eq!(stats.counts.dram(), lines, "only cold misses reach DRAM");
        assert!(stats.counts.l1 + stats.counts.l2 > lines * 40);
    }

    /// reps > 1 produces LFB events exactly when lines come from DRAM.
    #[test]
    fn reps_generate_lfb_on_dram_fills() {
        let cfg = scaled();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 4 << 20, PlacementPolicy::Bind(NodeId(0)));
        let stream = SeqStream::new(a.base, a.size, 1, AccessMix::read_only()).with_reps(8);
        let mut eng = Engine::new(&cfg, mm, NullObserver);
        let stats = eng.run_phase(vec![ThreadSpec::new(0, CoreId(0), Box::new(stream))]);
        let lines = (4u64 << 20) / 64;
        // Footprint (4 MiB) exceeds L3 (2 MiB): the scan is all cold misses,
        // so each line contributes 1 DRAM event + 7 LFB events.
        assert_eq!(stats.counts.dram(), lines);
        assert_eq!(stats.counts.lfb, lines * 7);
        assert_eq!(stats.counts.total(), lines * 8);
    }

    /// Events arrive at the observer in thread-local time order with
    /// plausible fields.
    #[test]
    fn observer_sees_coherent_events() {
        struct Check {
            last_time: f64,
            events: u64,
        }
        impl Observer for Check {
            fn on_access(&mut self, ev: &AccessEvent) -> f64 {
                assert!(ev.time >= self.last_time, "single thread: time must not go backwards");
                self.last_time = ev.time;
                assert!(ev.latency > 0.0);
                assert_eq!(ev.node, NodeId(0));
                if ev.source.is_dram() || ev.source == DataSource::Lfb {
                    assert!(ev.home.is_some());
                } else {
                    assert!(ev.home.is_none());
                }
                self.events += 1;
                0.0
            }
        }
        let cfg = scaled();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 1 << 20, PlacementPolicy::Bind(NodeId(1)));
        let stream = SeqStream::new(a.base, a.size, 1, AccessMix::read_only()).with_reps(2);
        let mut eng = Engine::new(&cfg, mm, Check { last_time: 0.0, events: 0 });
        let stats = eng.run_phase(vec![ThreadSpec::new(0, CoreId(0), Box::new(stream))]);
        assert_eq!(eng.observer().events, stats.counts.total());
    }

    /// Determinism: identical configs give identical stats.
    #[test]
    fn runs_are_deterministic() {
        let cfg = scaled();
        let run = || {
            let mut mm = MemoryMap::new(&cfg);
            let a = mm.alloc("a", 2 << 20, PlacementPolicy::interleave_all(4));
            let binding = cfg.topology.bind_threads(8, 2);
            let threads: Vec<ThreadSpec> = binding
                .iter()
                .enumerate()
                .map(|(i, core)| {
                    let s = crate::access::RandomStream::new(a.base, a.size, 20_000, i as u64, AccessMix::read_only());
                    ThreadSpec::new(i as u32, *core, Box::new(s))
                })
                .collect();
            let mut eng = Engine::new(&cfg, mm, NullObserver);
            eng.run_phase(threads)
        };
        let s1 = run();
        let s2 = run();
        assert_eq!(s1.cycles, s2.cycles);
        assert_eq!(s1.counts, s2.counts);
        assert_eq!(s1.channel_bytes, s2.channel_bytes);
    }

    /// Phases share first-touch state: a master-thread init phase pins
    /// pages to node 0, and the parallel phase then suffers remote traffic.
    #[test]
    fn first_touch_persists_across_phases() {
        let cfg = scaled();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 4 << 20, PlacementPolicy::FirstTouch);
        let mut eng = Engine::new(&cfg, mm, NullObserver);
        // Phase 1: master thread on node 0 writes the whole array.
        let init = SeqStream::new(a.base, a.size, 1, AccessMix::write_only());
        eng.run_phase(vec![ThreadSpec::new(0, CoreId(0), Box::new(init))]);
        eng.flush_caches();
        // Phase 2: a thread on node 2 scans it — every DRAM access remote.
        let scan = SeqStream::new(a.base, a.size, 1, AccessMix::read_only());
        let stats = eng.run_phase(vec![ThreadSpec::new(0, CoreId(16), Box::new(scan))]);
        assert_eq!(stats.counts.local_dram, 0);
        assert!(stats.counts.remote_dram > 0);
    }

    #[test]
    #[should_panic(expected = "duplicate thread ids")]
    fn duplicate_thread_ids_rejected() {
        let cfg = scaled();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 1 << 20, PlacementPolicy::Bind(NodeId(0)));
        let mk = || -> Box<dyn AccessStream> { Box::new(SeqStream::new(a.base, a.size, 1, AccessMix::read_only())) };
        let mut eng = Engine::new(&cfg, mm, NullObserver);
        eng.run_phase(vec![ThreadSpec::new(0, CoreId(0), mk()), ThreadSpec::new(0, CoreId(1), mk())]);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn out_of_range_core_rejected() {
        let cfg = scaled();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 1 << 20, PlacementPolicy::Bind(NodeId(0)));
        let stream = SeqStream::new(a.base, a.size, 1, AccessMix::read_only());
        let mut eng = Engine::new(&cfg, mm, NullObserver);
        eng.run_phase(vec![ThreadSpec::new(0, CoreId(999), Box::new(stream))]);
    }

    /// Regression (headline bugfix): the engine used to read each
    /// stream's compute and MLP once at phase start, so a chain whose
    /// second segment is expensive was charged the *first* segment's
    /// compute for every access. With per-run costs, the expensive
    /// segment's cycles must show up in the clock.
    #[test]
    fn chained_segments_are_charged_their_own_compute() {
        use crate::access::ChainStream;
        let cfg = scaled();
        let mut mm = MemoryMap::new(&cfg);
        // Cache-resident arrays so latency stays negligible next to compute.
        let a = mm.alloc("a", 16 << 10, PlacementPolicy::Bind(NodeId(0)));
        let b = mm.alloc("b", 16 << 10, PlacementPolicy::Bind(NodeId(0)));
        let cheap = SeqStream::new(a.base, a.size, 1, AccessMix::read_only()).with_compute(0.0);
        let costly = SeqStream::new(b.base, b.size, 2, AccessMix::read_only()).with_compute(500.0);
        let n_costly = 2 * (16u64 << 10) / 64;
        let chain = ChainStream::new(vec![Box::new(cheap), Box::new(costly)]);
        let mut eng = Engine::new(&cfg, mm, NullObserver);
        let stats = eng.run_phase(vec![ThreadSpec::new(0, CoreId(0), Box::new(chain))]);
        // The stale-cost engine charged compute 0.0 throughout and finished
        // in a few thousand cycles of pure latency.
        assert!(
            stats.cycles > n_costly as f64 * 500.0,
            "second segment's compute not charged: {} cycles for {} costly accesses",
            stats.cycles,
            n_costly
        );
    }

    /// Regression (headline bugfix, zip flavour): interleaving a costly
    /// and a cheap stream must charge each access its own stream's
    /// compute; the result cannot depend on which member happens to be
    /// first. The stale engine charged member 0's compute for everything,
    /// making the two orders differ by ~4×.
    #[test]
    fn zipped_members_are_charged_their_own_compute() {
        use crate::access::ZipStream;
        let cfg = scaled();
        let run = |computes: [f64; 2]| {
            let mut mm = MemoryMap::new(&cfg);
            let a = mm.alloc("a", 8 << 10, PlacementPolicy::Bind(NodeId(0)));
            let b = mm.alloc("b", 8 << 10, PlacementPolicy::Bind(NodeId(0)));
            let s1 = SeqStream::new(a.base, a.size, 25, AccessMix::read_only()).with_compute(computes[0]);
            let s2 = SeqStream::new(b.base, b.size, 25, AccessMix::read_only()).with_compute(computes[1]);
            let zip = ZipStream::new(vec![Box::new(s1), Box::new(s2)]);
            let mut eng = Engine::new(&cfg, mm, NullObserver);
            eng.run_phase(vec![ThreadSpec::new(0, CoreId(0), Box::new(zip))]).cycles
        };
        let ab = run([8.0, 2.0]);
        let ba = run([2.0, 8.0]);
        let rel = (ab - ba).abs() / ab;
        assert!(rel < 1e-9, "member order changed total cycles: {ab} vs {ba}");
    }

    /// The slice body is bit-identical to the per-access oracle (here with
    /// the NullObserver; the differential integration tests add samplers
    /// and run-cap schedules): on a store-mixed two-pass phase, and on a
    /// line-stride read-only one where nearly everything — streaming, LFB
    /// reps, first-touch and interleaved placement — commits through the
    /// fused span walk.
    #[test]
    fn batched_matches_reference_exactly() {
        use crate::access::{BlockCyclicStream, ChainStream};
        let inputs = [(AccessMix::write_every(3), 2, 1.0, 1.0), (AccessMix::read_only(), 1, 0.0, 0.5)];
        for (mix, passes, compute_base, compute_step) in inputs {
            let run = |oracle: bool| {
                let cfg = scaled();
                let mut mm = MemoryMap::new(&cfg);
                let a = mm.alloc("a", 8 << 20, PlacementPolicy::FirstTouch);
                let b = mm.alloc("b", 2 << 20, PlacementPolicy::interleave_all(4));
                let binding = cfg.topology.bind_threads(8, 4);
                let threads: Vec<ThreadSpec> = binding
                    .iter()
                    .enumerate()
                    .map(|(i, core)| {
                        let share = a.size / 8;
                        let seq = SeqStream::new(a.base + i as u64 * share, share, passes, mix)
                            .with_compute(compute_base + compute_step * i as f64)
                            .with_reps(4);
                        let blk = BlockCyclicStream::new(b.base, b.size, 4096, 8, i as u64, 1, AccessMix::read_only());
                        let chain = ChainStream::new(vec![Box::new(seq), Box::new(blk)]);
                        ThreadSpec::new(i as u32, *core, Box::new(chain))
                    })
                    .collect();
                let mut eng = Engine::new(&cfg, mm, NullObserver);
                let tenants = vec![TenantRun::new(0, threads)];
                if oracle {
                    crate::oracle::run(&mut eng, tenants)
                } else {
                    eng.run(tenants)
                }
            };
            assert_eq!(run(false), run(true), "slice body diverged from the oracle ({mix:?})");
        }
    }

    /// Pointer chasing (mlp 1) is slower per access than streaming (mlp 4)
    /// over the same uncached footprint.
    #[test]
    fn dependent_chain_exposes_latency() {
        let cfg = scaled();
        let mut mm = MemoryMap::new(&cfg);
        // 4096 lines spaced one L2-set apart => conflict misses everywhere.
        let span = 4096u64 * 64 * 64;
        let a = mm.alloc("a", span, PlacementPolicy::Bind(NodeId(0)));
        let n = 4096;
        let chase = crate::access::PointerChaseStream::new(a.base, n, 64 * 64, n as u64 * 4, 3);
        let mut eng = Engine::new(&cfg, mm, NullObserver);
        let chase_stats = eng.run_phase(vec![ThreadSpec::new(0, CoreId(0), Box::new(chase))]);

        let mut mm2 = MemoryMap::new(&cfg);
        let b = mm2.alloc("b", span, PlacementPolicy::Bind(NodeId(0)));
        let stream = SeqStream::new(b.base, b.size, 1, AccessMix::read_only());
        let mut eng2 = Engine::new(&cfg, mm2, NullObserver);
        let stream_stats = eng2.run_phase(vec![ThreadSpec::new(0, CoreId(0), Box::new(stream))]);

        let chase_per = chase_stats.cycles / chase_stats.counts.total() as f64;
        let stream_per = stream_stats.cycles / stream_stats.counts.total() as f64;
        assert!(chase_per > stream_per * 1.5, "chase {chase_per} vs stream {stream_per}");
    }
}
