//! Service observability: lock-free counters, a log-linear verdict-latency
//! histogram, and the [`ServeMetrics`] snapshot with its one-line JSON
//! rendering (the `BENCH_*.json` dialect) shared by the load harness and
//! the CI smoke.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two decade: each decade `[2^e, 2^(e+1))` is
/// split into 16 equal-width buckets, bounding a bucket's relative width
/// at 1/16 (6.25%) of its value.
const SUB: usize = 16;

/// Total log-linear buckets (64 decades × 16, covering 1 ns .. ~584
/// years; values below 16 ns get exact single-nanosecond buckets).
const BUCKETS: usize = 64 * SUB;

/// A concurrent log-linear nanosecond histogram. Recording is one relaxed
/// `fetch_add`; quantiles are read from a snapshot and interpolated
/// within their bucket, so a reported quantile is accurate to ~6% of its
/// value — the plain power-of-two version this replaces could only say
/// "somewhere below the next power of two", which reported p50 = 33 ms
/// for sub-millisecond verdicts.
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

/// Bucket index of one observation: exact below 16 ns, else decade
/// `e = floor(log2 n)` sliced by the next four mantissa bits.
fn bucket(nanos: u64) -> usize {
    if nanos < SUB as u64 {
        return nanos as usize;
    }
    let e = 63 - nanos.leading_zeros() as usize;
    e * SUB + ((nanos >> (e - 4)) & 0xf) as usize
}

/// `[lo, hi)` nanosecond bounds of bucket `idx` (inverse of [`bucket`]).
fn bounds(idx: usize) -> (f64, f64) {
    if idx < SUB {
        return (idx as f64, idx as f64 + 1.0);
    }
    let (e, sub) = (idx / SUB, (idx % SUB) as f64);
    let width = 2f64.powi(e as i32 - 4);
    let lo = 2f64.powi(e as i32) + sub * width;
    (lo, lo + width)
}

impl LatencyHistogram {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Record one latency observation.
    pub(crate) fn record(&self, nanos: u64) {
        self.buckets[bucket(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile in nanoseconds, interpolated by rank within its
    /// bucket (an estimate within the bucket's 6.25% relative width,
    /// never above the bucket's upper bound); 0 when nothing was
    /// recorded.
    pub(crate) fn quantile_nanos(&self, q: f64) -> f64 {
        let snapshot: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &n) in snapshot.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = bounds(idx);
                // The rank-th of n evenly spread occupants.
                return lo + (hi - lo) * (rank - seen) as f64 / n as f64;
            }
            seen += n;
        }
        bounds(BUCKETS - 1).1
    }

    /// Mean latency in nanoseconds (exact, unlike the quantiles).
    pub(crate) fn mean_nanos(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_nanos.load(Ordering::Relaxed) as f64 / n as f64
        }
    }
}

/// Per-shard live counters, shared between the shard's worker (writes)
/// and the metrics snapshot (reads). All relaxed: each field is an
/// independent monotone counter or gauge.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    /// Samples currently queued across the shard's sessions (gauge).
    pub depth: AtomicU64,
    /// Samples the shard's detectors have consumed.
    pub ingested: AtomicU64,
    /// Stable-verdict transitions emitted by the shard's detectors.
    pub verdicts: AtomicU64,
    /// Windows classified by the shard's detectors.
    pub windows: AtomicU64,
}

/// Server-wide ingress counters (session lifecycle and the offer path).
#[derive(Debug, Default)]
pub(crate) struct ServerStats {
    pub sessions_opened: AtomicU64,
    pub sessions_closed: AtomicU64,
    /// Samples ever offered to any session.
    pub offered: AtomicU64,
    /// Samples accepted into a session queue.
    pub enqueued: AtomicU64,
    /// Samples lost to ring overflow (refused or evicted).
    pub dropped: AtomicU64,
    /// Times a shard worker parked for want of work.
    pub worker_parks: AtomicU64,
    /// Times a blocking offer parked for want of ring space.
    pub producer_parks: AtomicU64,
    /// Times `finish` parked for want of its report.
    pub finish_parks: AtomicU64,
}

/// Point-in-time snapshot of the whole service, renderable as one line of
/// JSON ([`ServeMetrics::to_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Sessions finished (report delivered, detector back in the pool).
    pub sessions_closed: u64,
    /// Sessions currently open (`opened - closed`).
    pub sessions_open: u64,
    /// Samples ever offered to any session.
    pub samples_offered: u64,
    /// Samples accepted into session queues.
    pub samples_enqueued: u64,
    /// Samples lost to ring overflow (the backpressure account).
    pub samples_dropped: u64,
    /// Samples consumed by detectors.
    pub samples_ingested: u64,
    /// Stable-verdict transitions emitted across all sessions.
    pub verdicts: u64,
    /// Windows classified across all sessions.
    pub windows_classified: u64,
    /// Current model publication version (registry epoch).
    pub model_epoch: u64,
    /// Models published after the initial one.
    pub model_swaps: u64,
    /// Samples currently queued, per shard (the queue-depth gauge).
    pub shard_depths: Vec<u64>,
    /// Verdict latencies recorded (enqueue of the window-closing sample →
    /// verdict emission).
    pub verdict_latency_count: u64,
    /// p50 verdict latency, microseconds (bucket ceiling).
    pub verdict_p50_us: f64,
    /// p99 verdict latency, microseconds (bucket ceiling).
    pub verdict_p99_us: f64,
    /// Mean verdict latency, microseconds (exact).
    pub verdict_mean_us: f64,
    /// p50 queue wait, microseconds: a block's enqueue stamp to its pop
    /// by the shard worker (the part of verdict latency spent queued). A
    /// block filled by per-sample offers is stamped at its first sample,
    /// so for that traffic the figure also holds the block's fill time.
    pub queue_wait_p50_us: f64,
    /// p99 queue wait, microseconds.
    pub queue_wait_p99_us: f64,
    /// Times a shard worker parked because every queue was empty (a
    /// worker that found work while polling does not count).
    pub worker_parks: u64,
    /// Times a blocking offer parked because its session ring was full.
    pub producer_parks: u64,
    /// Times `SessionHandle::finish` parked because its report was not
    /// ready within the poll window.
    pub finish_parks: u64,
}

impl ServeMetrics {
    /// Render the snapshot as one line of JSON — the shared serializer
    /// used verbatim by `BENCH_serve.json` and the CI smoke output.
    pub fn to_json(&self) -> String {
        let depths = self.shard_depths.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(",");
        format!(
            concat!(
                "{{\"sessions_opened\": {}, \"sessions_closed\": {}, \"sessions_open\": {}, ",
                "\"samples_offered\": {}, \"samples_enqueued\": {}, \"samples_dropped\": {}, ",
                "\"samples_ingested\": {}, \"verdicts\": {}, \"windows_classified\": {}, ",
                "\"model_epoch\": {}, \"model_swaps\": {}, \"shard_depths\": [{}], ",
                "\"verdict_latency_count\": {}, \"verdict_p50_us\": {:.1}, \"verdict_p99_us\": {:.1}, ",
                "\"verdict_mean_us\": {:.1}, \"queue_wait_p50_us\": {:.1}, \"queue_wait_p99_us\": {:.1}, ",
                "\"worker_parks\": {}, \"producer_parks\": {}, \"finish_parks\": {}}}"
            ),
            self.sessions_opened,
            self.sessions_closed,
            self.sessions_open,
            self.samples_offered,
            self.samples_enqueued,
            self.samples_dropped,
            self.samples_ingested,
            self.verdicts,
            self.windows_classified,
            self.model_epoch,
            self.model_swaps,
            depths,
            self.verdict_latency_count,
            self.verdict_p50_us,
            self.verdict_p99_us,
            self.verdict_mean_us,
            self.queue_wait_p50_us,
            self.queue_wait_p99_us,
            self.worker_parks,
            self.producer_parks,
            self.finish_parks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_their_bucket() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(1_000); // bucket [992, 1024): ±3.2% of the value
        }
        h.record(1_000_000);
        assert_eq!(h.count(), 100);
        for q in [0.5, 0.99] {
            let est = h.quantile_nanos(q);
            assert!((992.0..=1024.0).contains(&est), "q{q} estimate {est} outside its bucket");
        }
        let max = h.quantile_nanos(1.0);
        assert!((983_040.0..=1_015_808.0).contains(&max), "q1 estimate {max} outside its bucket");
        assert!((h.mean_nanos() - (99.0 * 1000.0 + 1e6) / 100.0).abs() < 1e-9);
    }

    /// The regression the log-linear layout fixes: sub-millisecond
    /// verdicts must report sub-millisecond quantiles, not the 33.5 ms
    /// power-of-two ceiling (2^25 ns) the old buckets produced for
    /// anything in [16.8, 33.5] ms — and, at the scale that actually
    /// bit, ~1 µs work must not report as ~1 ms.
    #[test]
    fn histogram_resolves_fine_quantiles() {
        let h = LatencyHistogram::new();
        // A realistic verdict-latency spread: 0.8 .. 1.6 µs.
        for i in 0..800u64 {
            h.record(800 + i);
        }
        let p50 = h.quantile_nanos(0.5);
        assert!((p50 - 1200.0).abs() < 1200.0 * 0.07, "p50 {p50} not within 7% of the true 1200");
        let p99 = h.quantile_nanos(0.99);
        assert!((p99 - 1592.0).abs() < 1592.0 * 0.07, "p99 {p99} not within 7% of the true 1592");
        // Exact single-nanosecond buckets below 16 ns.
        let tiny = LatencyHistogram::new();
        tiny.record(0);
        tiny.record(7);
        assert!(tiny.quantile_nanos(1.0) <= 8.0);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_nanos(0.99), 0.0);
        assert_eq!(h.mean_nanos(), 0.0);
    }

    #[test]
    fn json_is_one_line_and_carries_every_field() {
        let m = ServeMetrics {
            sessions_opened: 50,
            sessions_closed: 50,
            sessions_open: 0,
            samples_offered: 1000,
            samples_enqueued: 990,
            samples_dropped: 10,
            samples_ingested: 990,
            verdicts: 25,
            windows_classified: 400,
            model_epoch: 2,
            model_swaps: 1,
            shard_depths: vec![0, 3],
            verdict_latency_count: 25,
            verdict_p50_us: 128.0,
            verdict_p99_us: 512.0,
            verdict_mean_us: 97.3,
            queue_wait_p50_us: 3.5,
            queue_wait_p99_us: 41.0,
            worker_parks: 12,
            producer_parks: 3,
            finish_parks: 4,
        };
        let json = m.to_json();
        assert!(!json.contains('\n'), "snapshot must render on one line");
        for needle in [
            "\"sessions_opened\": 50",
            "\"samples_dropped\": 10",
            "\"shard_depths\": [0,3]",
            "\"verdict_p99_us\": 512.0",
            "\"queue_wait_p50_us\": 3.5",
            "\"queue_wait_p99_us\": 41.0",
            "\"model_swaps\": 1",
            "\"worker_parks\": 12",
            "\"producer_parks\": 3",
            "\"finish_parks\": 4",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
