//! Sessions: the client half of the service.
//!
//! A [`SessionHandle`] is the producer side of one profiling session: the
//! client offers samples as whole columnar [`SampleBlock`]s into a bounded
//! [`pebs::ring::BlockRing`], a shard worker on the other side drains
//! them into a pooled
//! [`drbw_stream::StreamingDetector`], and `finish()` returns the
//! [`SessionReport`] once the tail of the stream has been classified.
//! Allocation-site attributions ride in the blocks' site lane and the
//! enqueue timestamp (for verdict-latency accounting) is stamped per
//! block, so the ring's loss accounting
//! (`offered == dropped + popped + len`) is authoritative for everything
//! a sample carries — there are no sidecar queues to keep in lockstep.

use crate::error::ServeError;
use crate::metrics::{ServerStats, ShardStats};
use crate::server::{poll, ShardNotify};
use drbw_stream::{StreamMetrics, VerdictEvent, WindowSummary};
use pebs::ring::{BlockOffer, BlockRing, RingCounters};
use pebs::SampleBlock;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Identifier of one profiling session (unique per server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The producer→worker queue: the columnar block ring (sites and enqueue
/// stamps travel inside the blocks).
#[derive(Debug)]
pub(crate) struct SessionQueue {
    pub ring: BlockRing,
    /// Set by `finish()`: no more offers; the worker finalizes once the
    /// ring drains.
    pub closed: bool,
    /// Blocking producers parked on `space` right now: the worker
    /// notifies `space` only when this is non-zero.
    pub parked_producers: usize,
}

/// Where the worker leaves the session's report for `finish()`.
#[derive(Debug, Default)]
pub(crate) struct ReportSlot {
    report: Option<Result<SessionReport, ServeError>>,
    /// Whether `finish()` is parked on `done`: delivery notifies only
    /// then.
    finisher_parked: bool,
}

/// Shared per-session state (handle on the client side, worker on the
/// shard side).
#[derive(Debug)]
pub(crate) struct SessionInner {
    pub id: SessionId,
    pub queue: Mutex<SessionQueue>,
    pub report: Mutex<ReportSlot>,
    /// Notified on delivery when `finish()` is parked.
    pub done: Condvar,
    /// Notified by the worker after a drain when a producer is parked:
    /// blocking producers park here for ring space once a short poll for
    /// it has failed.
    pub space: Condvar,
}

impl SessionInner {
    /// Poison-tolerant queue lock: every critical section leaves the
    /// queue consistent at each statement boundary.
    pub(crate) fn lock_queue(&self) -> MutexGuard<'_, SessionQueue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deliver the final report (or the typed reason there is none) and
    /// wake the waiting client. First delivery wins: a shutdown sweep
    /// never overwrites a real report a worker already produced.
    pub(crate) fn deliver(&self, report: Result<SessionReport, ServeError>) {
        let mut slot = self.lock_report();
        if slot.report.is_none() {
            slot.report = Some(report);
        }
        let parked = slot.finisher_parked;
        drop(slot);
        if parked {
            self.done.notify_all();
        }
    }

    fn lock_report(&self) -> MutexGuard<'_, ReportSlot> {
        self.report.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait until `fits` holds for the queue: poll for it with the lock
    /// released, then park on `space`, counting the producer as parked
    /// meanwhile (and each park in `parks`). A producer that parks the
    /// moment the ring is full costs the worker a wake-up syscall on every
    /// drain that follows.
    fn wait_for_space<'a>(
        &'a self,
        mut q: MutexGuard<'a, SessionQueue>,
        parks: &AtomicU64,
        fits: impl Fn(&SessionQueue) -> bool,
    ) -> MutexGuard<'a, SessionQueue> {
        if !fits(&q) {
            drop(q);
            poll(|| fits(&self.lock_queue()));
            q = self.lock_queue();
        }
        while !fits(&q) {
            q.parked_producers += 1;
            parks.fetch_add(1, Relaxed);
            q = self.space.wait(q).unwrap_or_else(|e| e.into_inner());
            q.parked_producers -= 1;
        }
        q
    }
}

/// Everything one finished session produced.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The session.
    pub id: SessionId,
    /// Stable-verdict transitions, in emission order. Each event carries
    /// the version of the model that classified its window.
    pub events: Vec<VerdictEvent>,
    /// Closed-window summaries (empty unless the server's
    /// [`drbw_stream::StreamConfig::record_windows`] is set).
    pub windows: Vec<WindowSummary>,
    /// The detector's final counters.
    pub stream: StreamMetrics,
    /// The session ring's final loss accounting.
    pub ring: RingCounters,
    /// Distinct model versions this session's detector classified with,
    /// in first-use order (length 1 when no swap landed mid-session).
    pub model_versions: Vec<u64>,
}

/// Client handle to one open session. Dropping the handle without calling
/// [`SessionHandle::finish`] abandons the session; the worker still
/// drains and finalizes it, the report is just never read.
#[derive(Debug)]
pub struct SessionHandle {
    pub(crate) inner: Arc<SessionInner>,
    pub(crate) notify: Arc<ShardNotify>,
    pub(crate) server_stats: Arc<ServerStats>,
    pub(crate) shard_stats: Arc<ShardStats>,
    pub(crate) shard: usize,
}

impl SessionHandle {
    /// The session's id.
    pub fn id(&self) -> SessionId {
        self.inner.id
    }

    /// The shard this session is pinned to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Hand over a whole columnar block — the only way samples enter a
    /// session — blocking until the ring has room for all of it: one
    /// lock acquisition and at most one condvar wait per block, and the
    /// samples move by pointer swap. When the ring is full the call polls
    /// briefly, then parks on the session's space condvar (woken by the
    /// worker's next drain), so a blocking producer never loses a sample.
    /// Returns an empty recycled shell (same capacity) for the producer
    /// to refill, completing the zero-copy loop.
    ///
    /// # Panics
    /// Panics if the block is larger than the session ring (it could
    /// never fit) or if called after [`SessionHandle::finish`] began.
    pub fn offer_block_blocking(&self, block: SampleBlock) -> SampleBlock {
        let n = block.len();
        if n == 0 {
            return block;
        }
        self.server_stats.offered.fetch_add(n as u64, Relaxed);
        let shell = {
            let q = self.inner.lock_queue();
            assert!(!q.closed, "offer on a finished session");
            assert!(n <= q.ring.capacity(), "block of {n} samples cannot fit the session ring");
            let mut q = self.inner.wait_for_space(q, &self.server_stats.producer_parks, |q| q.ring.space() >= n);
            let (outcome, shell) = q.ring.offer_block(block);
            debug_assert_eq!(outcome, BlockOffer::Accepted, "space was just confirmed under the lock");
            shell
        };
        self.server_stats.enqueued.fetch_add(n as u64, Relaxed);
        self.shard_stats.depth.fetch_add(n as u64, Relaxed);
        self.notify.raise();
        shell
    }

    /// Samples currently queued (the session's share of its shard's
    /// queue depth).
    pub fn queued(&self) -> usize {
        self.inner.lock_queue().ring.len()
    }

    /// Close the session and block until the shard worker has classified
    /// the stream's tail (flushing the final partial window), returning
    /// the session's report. The wait polls for the report for a short
    /// window, yielding the core to the worker, before it parks.
    ///
    /// # Errors
    /// [`ServeError::WorkerPanicked`] when the shard worker owning this
    /// session died before it could produce a report.
    pub fn finish(self) -> Result<SessionReport, ServeError> {
        {
            let mut q = self.inner.lock_queue();
            q.closed = true;
        }
        self.notify.raise();
        let mut polled = None;
        poll(|| {
            polled = self.inner.lock_report().report.take();
            polled.is_some()
        });
        if let Some(r) = polled {
            return r;
        }
        let mut slot = self.inner.lock_report();
        loop {
            // Re-checked under the lock before every park: a delivery
            // that landed after the last poll notified nobody.
            if let Some(r) = slot.report.take() {
                return r;
            }
            slot.finisher_parked = true;
            self.server_stats.finish_parks.fetch_add(1, Relaxed);
            slot = self.inner.done.wait(slot).unwrap_or_else(|e| e.into_inner());
            slot.finisher_parked = false;
        }
    }
}
