//! # drbw-serve — the sharded, concurrent analysis service
//!
//! Everything below `drbw-serve` analyzes one run at a time. This crate
//! is the deployment shape the paper's tool would actually run as: a
//! long-lived service multiplexing **many concurrent profiling sessions**
//! over the streaming pipeline.
//!
//! * [`AnalysisServer`] — shard workers (sessions pinned by id hash, so
//!   each session's samples are classified in exactly their accepted FIFO
//!   order), each owning a pool of recycled
//!   [`drbw_stream::StreamingDetector`]s;
//! * [`SessionHandle`] — the producer side: a bounded columnar
//!   [`pebs::ring::BlockRing`] per session gives real backpressure with
//!   the ring's own drop accounting (`offered == dropped + popped + len`),
//!   and whole [`pebs::SampleBlock`]s move producer→worker by pointer
//!   swap ([`SessionHandle::offer_block_blocking`]) so a sample is copied
//!   once at block entry and never again;
//! * [`drbw_core::registry::ModelRegistry`] — atomic model hot-swap: one
//!   epoch load on the steady-state classify path, and every window and
//!   verdict stamped with the version of the exact model that classified
//!   it (in-flight windows finish on the model they started with);
//! * [`ServeMetrics`] — a one-line-JSON snapshot of the whole service
//!   (sessions, ingest/drop accounting, per-shard queue depth, verdict
//!   p50/p99 latency, model epoch, run-cache warm-hit rate).
//!
//! The load harness (`crates/bench/src/bin/serve_load.rs`) drives
//! thousands of simultaneous replayed sessions through one server and
//! records `BENCH_serve.json`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod error;
pub mod metrics;
pub mod server;
pub mod session;

pub use error::ServeError;
pub use metrics::ServeMetrics;
pub use server::{AnalysisServer, ServerConfig};
pub use session::{SessionHandle, SessionId, SessionReport};

#[cfg(test)]
mod tests {
    use super::*;
    use drbw_core::classifier::ContentionClassifier;
    use drbw_core::features::{NUM_SELECTED, REMOTE_COUNT};
    use drbw_core::Mode;
    use drbw_stream::{StreamConfig, StreamingDetector, WindowConfig};
    use mldt::dataset::Dataset;
    use mldt::tree::TrainConfig;
    use numasim::hierarchy::DataSource;
    use numasim::topology::{CoreId, NodeId, ThreadId};
    use pebs::ring::OverflowPolicy;
    use pebs::sample::MemSample;
    use std::sync::Arc;
    use std::time::Duration;

    /// The streaming-detector test classifier: splits on remote count /
    /// latency like the paper's tree.
    fn classifier() -> ContentionClassifier {
        let mut d = Dataset::binary(drbw_core::features::selected_names().iter().map(|s| s.to_string()).collect());
        for i in 0..30 {
            let mut good = [0.0; NUM_SELECTED];
            good[REMOTE_COUNT] = 2.0 + (i % 5) as f64;
            good[REMOTE_COUNT + 1] = 280.0 + i as f64;
            d.push(good.to_vec(), 0);
            let mut rmc = [0.0; NUM_SELECTED];
            rmc[REMOTE_COUNT] = 600.0 + i as f64;
            rmc[REMOTE_COUNT + 1] = 900.0 + 10.0 * i as f64;
            d.push(rmc.to_vec(), 1);
        }
        ContentionClassifier::train(&d, TrainConfig::default())
    }

    /// An opposite-bias classifier (anything remote is rmc), so a swap is
    /// observable in verdicts.
    fn eager_classifier() -> ContentionClassifier {
        let mut d = Dataset::binary(drbw_core::features::selected_names().iter().map(|s| s.to_string()).collect());
        for i in 0..30 {
            let mut good = [0.0; NUM_SELECTED];
            good[REMOTE_COUNT] = 0.5;
            good[REMOTE_COUNT + 1] = 100.0 + i as f64;
            d.push(good.to_vec(), 0);
            let mut rmc = [0.0; NUM_SELECTED];
            rmc[REMOTE_COUNT] = 30.0 + i as f64;
            rmc[REMOTE_COUNT + 1] = 200.0 + i as f64;
            d.push(rmc.to_vec(), 1);
        }
        ContentionClassifier::train(&d, TrainConfig::default())
    }

    fn sample(time: f64, node: u8, home: Option<u8>, source: DataSource, latency: f64) -> MemSample {
        MemSample {
            time,
            addr: 0x1000,
            cpu: CoreId(node as u32 * 8),
            thread: ThreadId(0),
            node: NodeId(node),
            source,
            home: home.map(NodeId),
            latency,
            is_write: false,
        }
    }

    /// `windows` windows of `n` contended remote samples each on channel
    /// 1→0 (1000-cycle tumbling grid).
    fn contended_stream(windows: usize, n: usize) -> Vec<MemSample> {
        let mut out = Vec::with_capacity(windows * n);
        for w in 0..windows {
            for i in 0..n {
                let t = w as f64 * 1000.0 + (i as f64 + 0.5) * 1000.0 / n as f64;
                out.push(sample(t, 1, Some(0), DataSource::RemoteDram, 950.0));
            }
        }
        out
    }

    fn quiet_stream(windows: usize, n: usize) -> Vec<MemSample> {
        let mut out = Vec::with_capacity(windows * n);
        for w in 0..windows {
            for i in 0..n {
                let t = w as f64 * 1000.0 + i as f64 * 1000.0 / n as f64;
                out.push(sample(t, 1, Some(1), DataSource::LocalDram, 180.0));
            }
        }
        out
    }

    fn test_config(shards: usize) -> ServerConfig {
        let stream = StreamConfig::new(4, WindowConfig::tumbling(1000.0));
        ServerConfig { shards, idle_wait: Duration::from_millis(1), ..ServerConfig::new(stream) }
    }

    #[test]
    fn contended_and_quiet_sessions_report_correctly() {
        let server = AnalysisServer::start(classifier(), test_config(2)).expect("start server");
        let hot = server.open_session();
        let cold = server.open_session();
        for s in contended_stream(4, 64) {
            hot.offer_blocking(&s, None);
        }
        for s in quiet_stream(4, 64) {
            cold.offer_blocking(&s, None);
        }
        let hot_report = hot.finish().expect("report");
        let cold_report = cold.finish().expect("report");
        assert!(
            hot_report.events.iter().any(|e| e.mode == Mode::Rmc),
            "contended session must raise rmc: {hot_report:?}"
        );
        assert!(cold_report.events.is_empty(), "quiet session must stay good");
        for r in [&hot_report, &cold_report] {
            assert_eq!(r.ring.offered, 256, "blocking offers lose nothing");
            assert_eq!(r.ring.dropped, 0);
            assert_eq!(r.ring.popped, 256);
            assert_eq!(r.stream.samples_ingested, 256);
            assert_eq!(r.model_versions, vec![1], "no swap happened");
        }
        let m = server.shutdown();
        assert_eq!((m.sessions_opened, m.sessions_closed, m.sessions_open), (2, 2, 0));
        assert_eq!(m.samples_offered, 512);
        assert_eq!(m.samples_ingested, 512);
        assert_eq!(m.samples_dropped, 0);
        assert!(m.verdicts >= 1);
        assert_eq!(m.verdict_latency_count, m.verdicts, "no flush-emitted verdicts here");
        assert!(m.shard_depths.iter().all(|&d| d == 0), "shutdown drains every queue: {m:?}");
        assert!(m.windows_classified >= 6);
        assert!(m.cache_hit_rate.is_none());
    }

    /// Hot swap: versions stamped on windows/events are monotone per
    /// session, never mixed within a window, and a session opened after
    /// the publish classifies entirely on the new version.
    #[test]
    fn hot_swap_stamps_every_window_with_exactly_one_version() {
        let cfg = ServerConfig {
            stream: StreamConfig { record_windows: true, ..StreamConfig::new(4, WindowConfig::tumbling(1000.0)) },
            ..test_config(1)
        };
        let server = AnalysisServer::start(classifier(), cfg).expect("start server");
        let mid = server.open_session();
        // Two windows on v1, then publish v2 mid-stream.
        for s in contended_stream(2, 48) {
            mid.offer_blocking(&s, None);
        }
        // Let the worker ingest the first two windows before publishing,
        // so the stream observably starts on v1 (a sample popped from the
        // ring is always ingested before the worker's next epoch check).
        while mid.queued() > 0 {
            std::thread::yield_now();
        }
        let v2 = server.publish_model(eager_classifier());
        assert_eq!(v2.version(), 2);
        // Give the worker a moment to observe the epoch, then stream more
        // windows (time offset continues the same grid).
        std::thread::sleep(Duration::from_millis(50));
        for s in contended_stream(6, 48) {
            let shifted = MemSample { time: s.time + 2000.0, ..s };
            mid.offer_blocking(&shifted, None);
        }
        let report = mid.finish().expect("report");
        let versions: Vec<u64> = report.windows.iter().map(|w| w.model_version).collect();
        assert!(!versions.is_empty());
        assert!(versions.windows(2).all(|p| p[0] <= p[1]), "window versions must be monotone: {versions:?}");
        assert!(versions.iter().all(|&v| v == 1 || v == 2), "only published versions appear: {versions:?}");
        assert_eq!(versions[0], 1, "the stream started before the publish");
        assert_eq!(*versions.last().unwrap(), 2, "the publish must land before the tail");
        for e in &report.events {
            assert_eq!(
                e.model_version, report.windows[e.window_index as usize].model_version,
                "an event's version must match its window's"
            );
        }
        assert_eq!(report.model_versions, vec![1, 2]);
        // A session opened after the publish runs on v2 from its first
        // window — propagation is guaranteed at adoption.
        let fresh = server.open_session();
        for s in contended_stream(3, 48) {
            fresh.offer_blocking(&s, None);
        }
        let fresh_report = fresh.finish().expect("report");
        assert!(fresh_report.windows.iter().all(|w| w.model_version == 2));
        assert_eq!(fresh_report.model_versions, vec![2]);
        let m = server.shutdown();
        assert_eq!((m.model_epoch, m.model_swaps), (2, 1));
    }

    /// A pooled (recycled) detector must serve a later session exactly
    /// like a fresh detector would: same events, same metrics.
    #[test]
    fn recycled_detectors_match_a_fresh_detector() {
        let cfg = test_config(1); // one shard → the second session reuses the pool
        let server = AnalysisServer::start(classifier(), cfg).expect("start server");
        // Dirty a detector with a contended session.
        let first = server.open_session();
        for s in contended_stream(5, 40) {
            first.offer_blocking(&s, None);
        }
        let _ = first.finish().expect("report");
        // The second session gets the recycled detector.
        let second = server.open_session();
        let stream = contended_stream(4, 64);
        for s in &stream {
            second.offer_blocking(s, None);
        }
        let report = second.finish().expect("report");
        drop(server);
        // Reference: a fresh detector over the same stream.
        let mut fresh = StreamingDetector::with_model(Arc::new(classifier()), 1, cfg.stream);
        for s in &stream {
            fresh.ingest(s, None);
        }
        fresh.flush();
        assert_eq!(report.events, fresh.drain_events(), "recycled detector diverged from fresh");
        assert_eq!(report.stream, fresh.metrics());
    }

    /// Overflow accounting is exact end to end: every offered sample is
    /// either ingested or counted dropped, under both ring policies.
    #[test]
    fn overflow_accounting_is_exact() {
        for policy in [OverflowPolicy::RejectNewest, OverflowPolicy::DropOldest] {
            let cfg = ServerConfig { ring_capacity: 4, overflow: policy, ..test_config(1) };
            let server = AnalysisServer::start(classifier(), cfg).expect("start server");
            let session = server.open_session();
            // Non-blocking offers into a 4-slot ring, much faster than the
            // worker needs to keep up: drops are expected and must balance.
            for s in contended_stream(6, 200) {
                session.offer(&s, None);
            }
            let report = session.finish().expect("report");
            assert_eq!(report.ring.offered, 1200);
            assert_eq!(report.ring.len, 0, "finish drains the ring");
            assert_eq!(
                report.ring.offered,
                report.ring.dropped + report.ring.popped,
                "every sample accounted: {:?}",
                report.ring
            );
            assert_eq!(report.stream.samples_ingested, report.ring.popped, "detector saw exactly the accepted samples");
            assert!(report.ring.peak <= 4);
            let m = server.shutdown();
            assert_eq!(m.samples_offered, 1200);
            assert_eq!(m.samples_dropped, report.ring.dropped);
            assert_eq!(m.samples_ingested, report.ring.popped);
        }
    }

    /// Satellite of the columnar pipeline: a blocking block producer
    /// saturating a tiny ring loses nothing (zero drops), retains at most
    /// the ring's capacity at any instant, and gets its emptied shells
    /// recycled back (zero steady-state allocation).
    #[test]
    fn blocking_block_offers_saturate_without_drops_or_growth() {
        let cfg = ServerConfig { ring_capacity: 32, ..test_config(1) };
        let server = AnalysisServer::start(classifier(), cfg).expect("start server");
        let session = server.open_session();
        let stream = contended_stream(40, 500); // 20_000 samples through a 32-slot ring
        let mut block = pebs::SampleBlock::with_capacity(16);
        for s in &stream {
            if block.is_full() {
                block = session.offer_block_blocking(block);
                assert!(block.is_empty(), "the recycled shell must come back empty");
                assert_eq!(block.capacity(), 16, "the recycled shell keeps its capacity");
            }
            assert!(block.push(s, None));
        }
        let tail = session.offer_block_blocking(block);
        assert!(tail.is_empty());
        let report = session.finish().expect("report");
        assert_eq!(report.ring.offered, 20_000);
        assert_eq!(report.ring.dropped, 0, "blocking block offers lose nothing under saturation");
        assert_eq!(report.ring.popped, 20_000);
        assert_eq!(report.stream.samples_ingested, 20_000);
        assert!(report.ring.peak <= 32, "retention bounded by the ring: {:?}", report.ring);
        assert!(report.events.iter().any(|e| e.mode == Mode::Rmc));
        let m = server.shutdown();
        assert_eq!(m.samples_dropped, 0);
        assert_eq!(m.samples_ingested, 20_000);
        assert!(m.shard_depths.iter().all(|&d| d == 0));
    }

    /// Many sessions, several shards, producers on multiple threads: all
    /// reports arrive, nothing is lost under blocking offers, and every
    /// contended session raises a verdict.
    #[test]
    fn concurrent_sessions_across_shards_all_report() {
        let server = Arc::new(AnalysisServer::start(classifier(), test_config(4)).expect("start server"));
        let sessions_per_thread = 12;
        let threads: Vec<_> = (0..3)
            .map(|tid| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    // Interleave feeding across this thread's sessions so
                    // they are all concurrently active.
                    let handles: Vec<_> = (0..sessions_per_thread).map(|_| server.open_session()).collect();
                    let streams: Vec<Vec<MemSample>> = (0..sessions_per_thread)
                        .map(|i| if (tid + i) % 3 == 0 { quiet_stream(4, 32) } else { contended_stream(4, 32) })
                        .collect();
                    for chunk in 0..4 {
                        for (h, stream) in handles.iter().zip(&streams) {
                            for s in &stream[chunk * 32..(chunk + 1) * 32] {
                                h.offer_blocking(s, None);
                            }
                        }
                    }
                    handles
                        .into_iter()
                        .enumerate()
                        .map(|(i, h)| ((tid + i) % 3 == 0, h.finish().expect("report")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut total_sessions = 0;
        for t in threads {
            for (is_quiet, report) in t.join().expect("producer thread panicked") {
                total_sessions += 1;
                assert_eq!(report.ring.dropped, 0, "blocking offers must not drop");
                assert_eq!(report.ring.offered, 128);
                assert_eq!(report.stream.samples_ingested, 128);
                let raised = report.events.iter().any(|e| e.mode == Mode::Rmc);
                assert_eq!(!is_quiet, raised, "verdict mismatch for {:?}", report.id);
            }
        }
        assert_eq!(total_sessions, 36);
        let server = Arc::into_inner(server).expect("all clones dropped");
        let m = server.shutdown();
        assert_eq!(m.sessions_closed, 36);
        assert_eq!(m.samples_ingested, 36 * 128);
        assert_eq!(m.samples_dropped, 0);
        assert_eq!(m.shard_depths.len(), 4);
    }

    /// Shutdown force-finalizes sessions that were never finished, so a
    /// straggling `finish()` still returns.
    #[test]
    fn shutdown_delivers_reports_for_open_sessions() {
        let server = AnalysisServer::start(classifier(), test_config(2)).expect("start server");
        let session = server.open_session();
        for s in contended_stream(4, 64) {
            session.offer_blocking(&s, None);
        }
        let m = server.shutdown();
        assert_eq!(m.sessions_closed, 1);
        let report = session.finish().expect("report"); // already delivered; returns at once
        assert_eq!(report.stream.samples_ingested, 256, "shutdown drained the queue first");
        assert!(report.events.iter().any(|e| e.mode == Mode::Rmc));
    }

    /// Regression (spawn failure): pre-fix, a failed worker spawn panicked
    /// out of `start` via `.expect("spawn shard worker")`, leaking the
    /// shards already running. Now it is a typed error and the
    /// already-spawned shards are joined cleanly first.
    #[test]
    fn spawn_failure_is_a_typed_error_with_clean_shutdown() {
        let _arm = crate::server::test_fail::FailSpawn::at(2);
        let before = thread_count();
        let err = AnalysisServer::start(classifier(), test_config(4)).expect_err("third spawn must fail");
        match err {
            ServeError::SpawnFailed { shard, ref source } => {
                assert_eq!(shard, 2);
                assert_eq!(source.kind(), std::io::ErrorKind::WouldBlock);
            }
            other => panic!("wrong error: {other}"),
        }
        assert!(!err.to_string().is_empty());
        // The two workers spawned before the failure were joined.
        assert_no_thread_leak(before, "spawned shards must be shut down on start failure");
    }

    /// A zero `shards`, `ring_capacity` or `drain_batch` is a typed error
    /// naming the field, returned before any worker exists.
    #[test]
    fn zero_config_fields_are_typed_errors_before_any_spawn() {
        let good = test_config(2);
        for (bad, want) in [
            (ServerConfig { shards: 0, ..good }, "shards"),
            (ServerConfig { ring_capacity: 0, ..good }, "ring_capacity"),
            (ServerConfig { drain_batch: 0, ..good }, "drain_batch"),
        ] {
            let before = thread_count();
            let err = AnalysisServer::start(classifier(), bad).expect_err("zero field must be rejected");
            match err {
                ServeError::InvalidConfig { field } => assert_eq!(field, want),
                other => panic!("wrong error for zero {want}: {other}"),
            }
            assert!(err.to_string().contains(want));
            assert_no_thread_leak(before, "a rejected config must not leave a worker behind");
        }
    }

    /// Live threads of this process (Linux procfs; falls back to 0 so the
    /// leak assertion trivially passes on exotic platforms).
    fn thread_count() -> usize {
        std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0)
    }

    /// Asserts the process is back to at most `before` threads, giving
    /// the OS (and tests running beside this one) a moment to reap.
    fn assert_no_thread_leak(before: usize, why: &str) {
        for _ in 0..100 {
            if thread_count() <= before {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("{why}: {} threads, {before} before", thread_count());
    }

    /// A sample whose node is far outside the configured topology: the
    /// detector indexes per-channel state with it and panics.
    fn malformed_sample() -> MemSample {
        sample(10.0, 200, Some(0), DataSource::RemoteDram, 950.0)
    }

    /// Regression (worker panic): pre-fix, a panicking shard worker left
    /// its sessions' reports undelivered, so `finish()` hung forever (and
    /// shutdown saw the panic at `join`). Now every session owned by the
    /// dead shard — and any opened on it afterwards — gets a typed
    /// `WorkerPanicked` error, and the rest of the server keeps serving.
    #[test]
    fn worker_panic_fails_sessions_with_typed_error() {
        let server = AnalysisServer::start(classifier(), test_config(1)).expect("start server");
        let session = server.open_session();
        session.offer_blocking(&malformed_sample(), None);
        let err = session.finish().expect_err("worker died; no report is possible");
        assert!(matches!(err, ServeError::WorkerPanicked { shard: 0 }), "wrong error: {err}");
        // A session opened after the panic fails fast instead of hanging.
        let late = server.open_session();
        let err = late.finish().expect_err("dead shard must fail new sessions too");
        assert!(matches!(err, ServeError::WorkerPanicked { shard: 0 }));
        // Shutdown completes without surfacing the worker's panic.
        let m = server.shutdown();
        assert_eq!(m.sessions_opened, 2);
        assert_eq!(m.sessions_closed, 2, "panicked-shard sessions still count as closed");
    }
}
