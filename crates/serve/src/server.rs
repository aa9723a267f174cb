//! The sharded analysis server.
//!
//! Sessions are pinned to shards by a session-id hash; each shard is one
//! worker thread that exclusively owns its sessions' detectors, so every
//! session's samples are classified in exactly the FIFO order they were
//! accepted — deterministic per-session, parallel across shards. Workers
//! pool detectors across sessions ([`drbw_stream::StreamingDetector::reset`]
//! makes a recycled detector indistinguishable from a fresh one) and
//! watch the shared [`ModelRegistry`] through a per-worker
//! [`ModelReader`]: the steady-state classify path costs one atomic epoch
//! load, and a published model reaches each detector at its own window
//! boundary (in-flight windows finish on the model they started with).

use crate::error::ServeError;
use crate::metrics::{LatencyHistogram, ServeMetrics, ServerStats, ShardStats};
use crate::session::{SessionHandle, SessionId, SessionInner, SessionQueue, SessionReport};
use drbw_core::classifier::ContentionClassifier;
use drbw_core::registry::{ModelHandle, ModelReader, ModelRegistry};
use drbw_stream::{StreamConfig, StreamingDetector};
use pebs::ring::{BlockRing, OverflowPolicy, RingCounters};
use pebs::SampleBlock;
use runcache::RunCache;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Detector geometry every session runs under (machine shape, window,
    /// hysteresis, sketches). One geometry per server keeps the detector
    /// pool universal: any recycled detector fits any session.
    pub stream: StreamConfig,
    /// Worker threads; sessions are hash-pinned to one of them.
    pub shards: usize,
    /// Per-session sample ring capacity (the backpressure bound).
    pub ring_capacity: usize,
    /// What a session ring does when full.
    pub overflow: OverflowPolicy,
    /// Samples a worker moves out of one session queue per lock
    /// acquisition.
    pub drain_batch: usize,
    /// How long an idle worker parks before re-polling (it is woken early
    /// by any offer, session open/close, or model publish on its shard).
    pub idle_wait: Duration,
}

impl ServerConfig {
    /// A config with the given detector geometry and service defaults:
    /// one shard per available core (capped at 8), 1024-sample rings with
    /// reject-newest backpressure.
    pub fn new(stream: StreamConfig) -> Self {
        let shards = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8);
        Self {
            stream,
            shards,
            ring_capacity: 1024,
            overflow: OverflowPolicy::RejectNewest,
            drain_batch: 256,
            idle_wait: Duration::from_millis(2),
        }
    }
}

/// Wakeup signal for one shard worker: producers raise it on any offer,
/// open, close, or model publish; the worker consumes it (or times out)
/// when it has drained everything.
#[derive(Debug, Default)]
pub(crate) struct ShardNotify {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl ShardNotify {
    pub(crate) fn raise(&self) {
        let mut flag = self.flag.lock().unwrap_or_else(|e| e.into_inner());
        *flag = true;
        self.cv.notify_all();
    }

    fn wait(&self, timeout: Duration) {
        let flag = self.flag.lock().unwrap_or_else(|e| e.into_inner());
        let (mut flag, _) =
            self.cv.wait_timeout_while(flag, timeout, |raised| !*raised).unwrap_or_else(|e| e.into_inner());
        *flag = false;
    }
}

/// One shard's shared state (worker on one side, `open_session` and the
/// metrics snapshot on the other).
#[derive(Debug)]
struct ShardState {
    stats: Arc<ShardStats>,
    notify: Arc<ShardNotify>,
    /// Sessions opened but not yet adopted by the worker.
    inbox: Mutex<VecDeque<Arc<SessionInner>>>,
    /// Sessions the worker has adopted but not yet finalized — the panic
    /// sweep delivers a typed error to these so no `finish()` ever hangs
    /// on a dead worker.
    adopted: Mutex<Vec<Arc<SessionInner>>>,
}

#[derive(Debug)]
struct ServerInner {
    cfg: ServerConfig,
    registry: Arc<ModelRegistry>,
    stats: Arc<ServerStats>,
    latency: LatencyHistogram,
    shards: Vec<ShardState>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    cache: Mutex<Option<Arc<RunCache>>>,
}

/// The long-running analysis service: many concurrent profiling sessions
/// multiplexed over shard workers, one hot-swappable model registry, one
/// optional run cache whose warm-hit rate the metrics surface.
#[derive(Debug)]
pub struct AnalysisServer {
    inner: Arc<ServerInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl AnalysisServer {
    /// Start a server whose initial model is `classifier` (published as
    /// registry version 1).
    ///
    /// # Errors
    /// As [`AnalysisServer::start_with_registry`].
    pub fn start(classifier: ContentionClassifier, cfg: ServerConfig) -> Result<Self, ServeError> {
        Self::start_with_registry(Arc::new(ModelRegistry::new(classifier)), cfg)
    }

    /// Start a server over an existing (possibly shared) registry.
    ///
    /// # Errors
    /// [`ServeError::InvalidConfig`] if `cfg.shards`, `cfg.ring_capacity`
    /// or `cfg.drain_batch` is zero, before anything is started.
    /// [`ServeError::SpawnFailed`] when the OS refuses a worker thread;
    /// any shards spawned before the failure are shut down cleanly first.
    pub fn start_with_registry(registry: Arc<ModelRegistry>, cfg: ServerConfig) -> Result<Self, ServeError> {
        for (field, value) in
            [("shards", cfg.shards), ("ring_capacity", cfg.ring_capacity), ("drain_batch", cfg.drain_batch)]
        {
            if value == 0 {
                return Err(ServeError::InvalidConfig { field });
            }
        }
        let shards = (0..cfg.shards)
            .map(|_| ShardState {
                stats: Arc::new(ShardStats::default()),
                notify: Arc::new(ShardNotify::default()),
                inbox: Mutex::new(VecDeque::new()),
                adopted: Mutex::new(Vec::new()),
            })
            .collect();
        let inner = Arc::new(ServerInner {
            cfg,
            registry,
            stats: Arc::new(ServerStats::default()),
            latency: LatencyHistogram::new(),
            shards,
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            cache: Mutex::new(None),
        });
        let mut workers = Vec::with_capacity(cfg.shards);
        for idx in 0..cfg.shards {
            let worker = spawn_worker(&inner, idx);
            match worker {
                Ok(w) => workers.push(w),
                Err(source) => {
                    // Shut the already-spawned shards down cleanly before
                    // reporting the failure.
                    let mut partial = Self { inner, workers };
                    partial.stop_and_join();
                    partial.workers.clear();
                    return Err(ServeError::SpawnFailed { shard: idx, source });
                }
            }
        }
        Ok(Self { inner, workers })
    }

    /// The model registry (for sharing with other components).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.inner.registry
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.cfg
    }

    /// Attach a run cache so the metrics snapshot surfaces its warm-hit
    /// rate alongside the service counters.
    pub fn attach_run_cache(&self, cache: Arc<RunCache>) {
        *self.inner.cache.lock().unwrap_or_else(|e| e.into_inner()) = Some(cache);
    }

    /// Atomically publish a retrained model. Already-running sessions
    /// switch at their next window boundary; every verdict and window
    /// stays stamped with the version that actually classified it.
    pub fn publish_model(&self, classifier: ContentionClassifier) -> ModelHandle {
        let handle = self.inner.registry.publish(classifier);
        for shard in &self.inner.shards {
            shard.notify.raise();
        }
        handle
    }

    /// Open a new session, pinned to a shard by its id hash. The handle
    /// is the producer side; `finish()` returns the session's report.
    pub fn open_session(&self) -> SessionHandle {
        let id = SessionId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let shard_idx = (splitmix64(id.0) % self.inner.cfg.shards as u64) as usize;
        let shard = &self.inner.shards[shard_idx];
        let session = Arc::new(SessionInner {
            id,
            queue: Mutex::new(SessionQueue {
                ring: BlockRing::with_policy(self.inner.cfg.ring_capacity, self.inner.cfg.overflow),
                closed: false,
            }),
            report: Mutex::new(None),
            done: Condvar::new(),
            space: Condvar::new(),
        });
        shard.inbox.lock().unwrap_or_else(|e| e.into_inner()).push_back(Arc::clone(&session));
        self.inner.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        shard.notify.raise();
        SessionHandle {
            inner: session,
            notify: Arc::clone(&shard.notify),
            server_stats: Arc::clone(&self.inner.stats),
            shard_stats: Arc::clone(&shard.stats),
            shard: shard_idx,
        }
    }

    /// Snapshot the whole service.
    pub fn metrics(&self) -> ServeMetrics {
        let inner = &self.inner;
        let rel = Ordering::Relaxed;
        let opened = inner.stats.sessions_opened.load(rel);
        let closed = inner.stats.sessions_closed.load(rel);
        let cache_hit_rate =
            inner.cache.lock().unwrap_or_else(|e| e.into_inner()).as_ref().map(|c| c.metrics().hit_rate());
        ServeMetrics {
            sessions_opened: opened,
            sessions_closed: closed,
            sessions_open: opened - closed,
            samples_offered: inner.stats.offered.load(rel),
            samples_enqueued: inner.stats.enqueued.load(rel),
            samples_dropped: inner.stats.dropped.load(rel),
            samples_ingested: inner.shards.iter().map(|s| s.stats.ingested.load(rel)).sum(),
            verdicts: inner.shards.iter().map(|s| s.stats.verdicts.load(rel)).sum(),
            windows_classified: inner.shards.iter().map(|s| s.stats.windows.load(rel)).sum(),
            model_epoch: inner.registry.epoch(),
            model_swaps: inner.registry.swaps(),
            shard_depths: inner.shards.iter().map(|s| s.stats.depth.load(rel)).collect(),
            verdict_latency_count: inner.latency.count(),
            verdict_p50_us: inner.latency.quantile_nanos(0.5) / 1_000.0,
            verdict_p99_us: inner.latency.quantile_nanos(0.99) / 1_000.0,
            verdict_mean_us: inner.latency.mean_nanos() / 1_000.0,
            cache_hit_rate,
        }
    }

    /// Stop the service: workers drain whatever is queued, force-finalize
    /// every session (open or not) so no `finish()` ever hangs, and exit.
    /// Returns the final metrics snapshot. Dropping the server does the
    /// same.
    pub fn shutdown(mut self) -> ServeMetrics {
        self.stop_and_join();
        self.metrics()
    }

    fn stop_and_join(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        for shard in &self.inner.shards {
            shard.notify.raise();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Sessions that raced into an inbox after its worker exited still
        // get a (necessarily empty) report; sessions a panicked worker
        // left adopted get the typed error (first delivery wins, so this
        // never clobbers a real report).
        for (idx, shard) in self.inner.shards.iter().enumerate() {
            let stragglers: Vec<_> = shard.inbox.lock().unwrap_or_else(|e| e.into_inner()).drain(..).collect();
            for session in stragglers {
                let ring = ring_counters(&session);
                self.inner.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
                session.deliver(Ok(SessionReport {
                    id: session.id,
                    events: Vec::new(),
                    windows: Vec::new(),
                    stream: Default::default(),
                    ring,
                    model_versions: Vec::new(),
                }));
            }
            let abandoned: Vec<_> = shard.adopted.lock().unwrap_or_else(|e| e.into_inner()).drain(..).collect();
            for session in abandoned {
                self.inner.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
                session.deliver(Err(ServeError::WorkerPanicked { shard: idx }));
            }
        }
    }
}

impl Drop for AnalysisServer {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop_and_join();
        }
    }
}

/// Spawn one shard worker. The test fail-point simulates the OS refusing
/// the thread, which is otherwise unreachable in a test.
fn spawn_worker(inner: &Arc<ServerInner>, idx: usize) -> std::io::Result<std::thread::JoinHandle<()>> {
    #[cfg(test)]
    if idx == test_fail::spawn_fail_at() {
        return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "simulated spawn failure"));
    }
    let inner = Arc::clone(inner);
    std::thread::Builder::new().name(format!("drbw-shard-{idx}")).spawn(move || run_shard(inner, idx))
}

/// SplitMix64 finalizer: spreads sequential session ids uniformly over
/// shards.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn ring_counters(session: &SessionInner) -> RingCounters {
    session.lock_queue().ring.counters()
}

/// One session as the shard worker sees it.
struct ActiveSession {
    session: Arc<SessionInner>,
    detector: StreamingDetector,
    /// The last registry version requested on this detector (the swap may
    /// still be pending its window boundary).
    requested_version: u64,
    /// Distinct versions the detector has classified with, first-use
    /// order.
    versions: Vec<u64>,
    /// Verdict transitions already accounted to the shard counters.
    transitions: u64,
    /// Windows already accounted to the shard counters.
    windows: u64,
}

/// The shard worker: the real loop behind a panic barrier. A panic (e.g.
/// a malformed sample blowing up the detector) must not strand the
/// shard's sessions — every adopted or queued session gets a typed
/// [`ServeError::WorkerPanicked`], and the thread stays alive as a bare
/// drain so sessions opened on this shard later fail fast instead of
/// hanging in `finish()`.
fn run_shard(inner: Arc<ServerInner>, idx: usize) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_shard_inner(&inner, idx)));
    if result.is_err() {
        let rel = Ordering::Relaxed;
        let shard = &inner.shards[idx];
        let fail_all = || {
            let mut doomed: Vec<Arc<SessionInner>> =
                shard.adopted.lock().unwrap_or_else(|e| e.into_inner()).drain(..).collect();
            doomed.extend(shard.inbox.lock().unwrap_or_else(|e| e.into_inner()).drain(..));
            for session in doomed {
                inner.stats.sessions_closed.fetch_add(1, rel);
                session.deliver(Err(ServeError::WorkerPanicked { shard: idx }));
            }
        };
        fail_all();
        while !inner.shutdown.load(Ordering::Acquire) {
            shard.notify.wait(inner.cfg.idle_wait);
            fail_all();
        }
        fail_all();
    }
}

/// The shard worker loop.
fn run_shard_inner(inner: &ServerInner, idx: usize) {
    let rel = Ordering::Relaxed;
    let shard = &inner.shards[idx];
    let mut reader = ModelReader::new(Arc::clone(&inner.registry));
    let mut active: Vec<ActiveSession> = Vec::new();
    let mut pool: Vec<StreamingDetector> = Vec::new();
    let mut blocks: Vec<(SampleBlock, Instant)> = Vec::new();
    loop {
        let shutting = inner.shutdown.load(Ordering::Acquire);
        // Adopt newly opened sessions: recycle a pooled detector when one
        // is free (reset has made it indistinguishable from fresh).
        {
            let mut inbox = shard.inbox.lock().unwrap_or_else(|e| e.into_inner());
            while let Some(session) = inbox.pop_front() {
                let handle = reader.handle();
                let (version, model) = (handle.version(), Arc::clone(handle.model()));
                let detector = match pool.pop() {
                    Some(mut d) => {
                        d.swap_model(version, model); // idle detector: immediate
                        d
                    }
                    None => StreamingDetector::with_model(model, version, inner.cfg.stream),
                };
                shard.adopted.lock().unwrap_or_else(|e| e.into_inner()).push(Arc::clone(&session));
                active.push(ActiveSession {
                    session,
                    detector,
                    requested_version: version,
                    versions: vec![version],
                    transitions: 0,
                    windows: 0,
                });
            }
        }
        // Propagate a freshly published model: one epoch load when nothing
        // changed, a per-detector boundary-deferred swap when it did.
        {
            let handle = reader.handle();
            let version = handle.version();
            if active.iter().any(|a| a.requested_version != version) {
                let model = Arc::clone(handle.model());
                for a in active.iter_mut().filter(|a| a.requested_version != version) {
                    a.detector.swap_model(version, Arc::clone(&model));
                    a.requested_version = version;
                }
            }
        }
        let mut did_work = false;
        let mut i = 0;
        while i < active.len() {
            blocks.clear();
            let a = &mut active[i];
            let closed_and_drained = {
                let mut q = a.session.lock_queue();
                let mut taken = 0;
                // Whole blocks, up to the drain batch: one lock covers
                // hundreds of samples.
                while taken < inner.cfg.drain_batch {
                    let Some((block, at)) = q.ring.pop_block() else { break };
                    taken += block.len();
                    blocks.push((block, at));
                }
                q.closed && q.ring.is_empty()
            };
            if !blocks.is_empty() {
                // The lock is released: wake producers parked on the
                // freed space before the (long) ingest.
                a.session.space.notify_all();
                did_work = true;
                let total: u64 = blocks.iter().map(|(b, _)| b.len() as u64).sum();
                shard.stats.depth.fetch_sub(total, rel);
                for (block, at) in &blocks {
                    a.detector.ingest_block(block);
                    let used = a.detector.model_version();
                    if *a.versions.last().expect("seeded at adoption") != used {
                        a.versions.push(used);
                    }
                    let m = a.detector.metrics();
                    if m.verdict_transitions > a.transitions {
                        let newly = m.verdict_transitions - a.transitions;
                        a.transitions = m.verdict_transitions;
                        // Latency is measured from the block's enqueue
                        // stamp (its first sample's arrival) — the
                        // conservative end of the per-sample stamps it
                        // replaces.
                        let nanos = at.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                        for _ in 0..newly {
                            inner.latency.record(nanos);
                        }
                        shard.stats.verdicts.fetch_add(newly, rel);
                    }
                    if m.windows_classified > a.windows {
                        shard.stats.windows.fetch_add(m.windows_classified - a.windows, rel);
                        a.windows = m.windows_classified;
                    }
                }
                shard.stats.ingested.fetch_add(total, rel);
                // Hand the emptied shells back for the producer side to
                // refill — the steady state allocates nothing.
                let mut q = a.session.lock_queue();
                for (block, _) in blocks.drain(..) {
                    q.ring.recycle(block);
                }
            } else if closed_and_drained || shutting {
                // Finished (or force-finalized at shutdown): classify the
                // tail, deliver the report, recycle the detector.
                did_work = true;
                let mut a = active.swap_remove(i);
                finalize(inner, &shard.stats, &mut a);
                shard.adopted.lock().unwrap_or_else(|e| e.into_inner()).retain(|s| s.id != a.session.id);
                pool.push(a.detector);
                continue; // swap_remove: re-inspect index i
            }
            i += 1;
        }
        if !did_work {
            if shutting {
                let inbox_empty = shard.inbox.lock().unwrap_or_else(|e| e.into_inner()).is_empty();
                if active.is_empty() && inbox_empty {
                    break;
                }
            } else {
                shard.notify.wait(inner.cfg.idle_wait);
            }
        }
    }
}

/// Flush the tail window, account the last verdicts/windows, deliver the
/// report, and reset the detector for the pool.
fn finalize(inner: &ServerInner, stats: &ShardStats, a: &mut ActiveSession) {
    let rel = Ordering::Relaxed;
    a.detector.flush();
    let used = a.detector.model_version();
    if *a.versions.last().expect("seeded at adoption") != used {
        a.versions.push(used);
    }
    let m = a.detector.metrics();
    if m.verdict_transitions > a.transitions {
        // Flush-emitted verdicts have no single triggering enqueue; they
        // count, but stay out of the latency histogram.
        stats.verdicts.fetch_add(m.verdict_transitions - a.transitions, rel);
    }
    if m.windows_classified > a.windows {
        stats.windows.fetch_add(m.windows_classified - a.windows, rel);
    }
    let ring = ring_counters(&a.session);
    inner.stats.sessions_closed.fetch_add(1, rel);
    a.session.deliver(Ok(SessionReport {
        id: a.session.id,
        events: a.detector.drain_events(),
        windows: a.detector.drain_windows(),
        stream: m,
        ring,
        model_versions: std::mem::take(&mut a.versions),
    }));
    a.detector.reset();
}

#[cfg(test)]
pub(crate) mod test_fail {
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Worker index at which `spawn_worker` simulates an OS failure
    /// (`usize::MAX` = never).
    static SPAWN_FAIL_AT: AtomicUsize = AtomicUsize::new(usize::MAX);

    pub(crate) fn spawn_fail_at() -> usize {
        SPAWN_FAIL_AT.load(Ordering::Relaxed)
    }

    /// Arm the fail-point; disarms on drop so a panicking test cannot
    /// poison the others.
    pub(crate) struct FailSpawn;

    impl FailSpawn {
        pub(crate) fn at(idx: usize) -> Self {
            SPAWN_FAIL_AT.store(idx, Ordering::Relaxed);
            Self
        }
    }

    impl Drop for FailSpawn {
        fn drop(&mut self) {
            SPAWN_FAIL_AT.store(usize::MAX, Ordering::Relaxed);
        }
    }
}
