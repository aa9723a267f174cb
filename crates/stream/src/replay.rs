//! Replay a recorded simulator run as a live stream.
//!
//! The batch pipeline retains the entire sample log, sorts it once, and
//! classifies at end of run. This harness replays the same log through
//! the streaming path — the producer hands bursts of 64 samples to a
//! 256-sample [`BlockRing`] as one [`SampleBlock`] each (a PEBS buffer
//! drain), the consumer drains them into the [`StreamingDetector`] —
//! measuring what an online deployment would see: detection latency from
//! contention onset, the ring's loss accounting, and the peak number of
//! samples retained at any instant (ring high-water mark), to compare
//! against the batch pipeline's full-log retention.

use crate::detector::{StreamingDetector, VerdictEvent, WindowSummary};
use crate::metrics::StreamMetrics;
use pebs::ring::BlockRing;
use pebs::{AllocationTracker, MemSample, SampleBlock};
use workloads::runner::RunOutcome;

/// Ring capacity between the replayed producer and the detector.
const RING_CAPACITY: usize = 256;

/// Samples the producer hands over per block before the consumer drains
/// (the PEBS buffer flush granularity; below [`RING_CAPACITY`], so the
/// ring never backs up).
const BURST: usize = 64;

/// Carries nothing: the replay geometry is fixed. It remains because the
/// repo benchmark (`benchmark/src/tenants.rs`) passes
/// `ReplayConfig::default()` to [`replay_log`]; it goes when that call
/// site does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayConfig;

/// Everything one replay produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Detector counters at end of replay.
    pub metrics: StreamMetrics,
    /// Verdict transitions, in emission order.
    pub events: Vec<VerdictEvent>,
    /// Closed windows (populated when the detector records them).
    pub windows: Vec<WindowSummary>,
    /// Samples the producer offered to the ring.
    pub offered: u64,
    /// Samples lost to ring overflow.
    pub dropped: u64,
    /// Ring high-water mark — the most samples the streaming pipeline ever
    /// held at once.
    pub peak_ring_len: usize,
    /// Bytes of detector state retained at end of replay.
    pub detector_bytes: usize,
    /// Samples the batch pipeline would have retained for the same run
    /// (the full log).
    pub batch_log_samples: usize,
}

impl ReplayOutcome {
    /// Peak samples retained by the streaming pipeline (its whole
    /// retention is the ring; the detector keeps only accumulators).
    pub fn peak_retained_samples(&self) -> usize {
        self.peak_ring_len
    }
}

/// Replay `outcome`'s sample log through `detector`.
///
/// Samples are replayed in time order (the log of a threaded run is not
/// globally sorted), attributed to allocation sites through the run's
/// tracker, handed to the ring in bursts, and drained into the detector.
/// At end of stream the detector is flushed so the trailing partial
/// window is classified too.
pub fn replay(outcome: &RunOutcome, detector: &mut StreamingDetector) -> ReplayOutcome {
    replay_log(&outcome.samples, &outcome.tracker, detector, ReplayConfig)
}

/// Replay a bare sample log through `detector`.
///
/// Same semantics as [`replay`], but takes the log and tracker directly —
/// the multi-tenant path uses this to replay one tenant's slice of a mixed
/// scenario log (see `pebs::tenant::TenantMap::samples_of`).
pub fn replay_log(
    samples: &[MemSample],
    tracker: &AllocationTracker,
    detector: &mut StreamingDetector,
    _: ReplayConfig,
) -> ReplayOutcome {
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by(|&a, &b| samples[a].time.total_cmp(&samples[b].time));
    let mut ring = BlockRing::new(RING_CAPACITY);
    let mut burst = SampleBlock::with_capacity(BURST);
    for chunk in order.chunks(BURST) {
        for &i in chunk {
            // Site attribution is a pure range lookup, so it moves ahead
            // of ring entry: the site rides the block's attribution lane
            // and the consumer never touches the tracker.
            burst.push(&samples[i], tracker.attribute_site(samples[i].addr));
        }
        burst = ring.offer_block(burst).1;
        while let Some((block, _)) = ring.pop_block() {
            detector.ingest_block(&block);
            ring.recycle(block);
        }
    }
    detector.flush();
    ReplayOutcome {
        metrics: detector.metrics(),
        events: detector.drain_events(),
        windows: detector.drain_windows(),
        offered: ring.offered(),
        dropped: ring.dropped(),
        peak_ring_len: ring.peak_len(),
        detector_bytes: detector.retained_bytes(),
        batch_log_samples: samples.len(),
    }
}
