//! Property and integration tests for the streaming subsystem: windowed
//! streaming extraction must reproduce batch extraction bit for bit, and a
//! replayed contended run must raise an `rmc` verdict before the run ends
//! while retaining far fewer samples than the batch pipeline.

use drbw_core::channels::ChannelBatches;
use drbw_core::classifier::ContentionClassifier;
use drbw_core::features::{selected_features, FeatureCtx, NUM_SELECTED, REMOTE_COUNT};
use drbw_core::training::quick_training_set;
use drbw_core::Mode;
use drbw_stream::{replay, ReplayConfig, StreamConfig, StreamingDetector, WindowConfig};
use mldt::dataset::Dataset;
use mldt::tree::TrainConfig;
use numasim::config::MachineConfig;
use numasim::hierarchy::DataSource;
use numasim::topology::{CoreId, NodeId, ThreadId};
use pebs::sample::MemSample;
use pebs::sampler::SamplerConfig;
use proptest::prelude::*;
use workloads::config::{Input, RunConfig};
use workloads::micro::Sumv;
use workloads::runner::run;

/// A tiny two-feature classifier (remote share / remote latency), enough
/// for the detector to run its real prediction path in property tests.
fn synthetic_classifier() -> ContentionClassifier {
    let mut d = Dataset::binary(drbw_core::features::selected_names().iter().map(|s| s.to_string()).collect());
    for i in 0..20 {
        let mut good = [0.0; NUM_SELECTED];
        good[REMOTE_COUNT] = 10.0 + i as f64;
        good[REMOTE_COUNT + 1] = 300.0;
        d.push(good.to_vec(), 0);
        let mut rmc = [0.0; NUM_SELECTED];
        rmc[REMOTE_COUNT] = 700.0;
        rmc[REMOTE_COUNT + 1] = 900.0 + i as f64;
        d.push(rmc.to_vec(), 1);
    }
    ContentionClassifier::train(&d, TrainConfig::default())
}

fn arb_source() -> impl Strategy<Value = DataSource> {
    prop_oneof![
        Just(DataSource::L1),
        Just(DataSource::L2),
        Just(DataSource::L3),
        Just(DataSource::Lfb),
        Just(DataSource::LocalDram),
        Just(DataSource::RemoteDram),
    ]
}

/// A sample on a 4-node machine with a time on a 0.5-cycle grid (so pane
/// boundaries are exact in f64 and the batch filter below is unambiguous).
fn arb_timed_sample() -> impl Strategy<Value = MemSample> {
    let nodes = 4u8;
    (0u32..16_000, 0..nodes, proptest::option::of(0..nodes), arb_source(), 1.0..2000.0f64, any::<bool>()).prop_map(
        move |(half_cycles, node, home, source, latency, is_write)| {
            let home = match source {
                DataSource::LocalDram => Some(NodeId(node)),
                DataSource::RemoteDram => Some(NodeId(home.unwrap_or((node + 1) % nodes))),
                DataSource::Lfb => home.map(NodeId),
                _ => None,
            };
            MemSample {
                time: half_cycles as f64 * 0.5,
                addr: 0x1000 + half_cycles as u64 * 64,
                cpu: CoreId(node as u32 * 8),
                thread: ThreadId(0),
                node: NodeId(node),
                source,
                home,
                latency,
                is_write,
            }
        },
    )
}

/// Window geometries whose pane boundaries are exactly representable.
fn arb_window() -> impl Strategy<Value = WindowConfig> {
    prop_oneof![
        Just(WindowConfig::tumbling(400.0)),
        Just(WindowConfig::tumbling(1000.0)),
        Just(WindowConfig::sliding(400.0, 2)),
        Just(WindowConfig::sliding(300.0, 4)),
        Just(WindowConfig::sliding(1000.0, 4)),
        Just(WindowConfig::sliding(250.0, 5)),
    ]
}

proptest! {
    /// For any random sample sequence and any window geometry, every
    /// window the detector closes carries, per channel, the bit-identical
    /// feature vector that batch extraction produces over the same time
    /// span — the tentpole equivalence guarantee.
    #[test]
    fn streamed_windows_equal_batch_extraction(
        samples in proptest::collection::vec(arb_timed_sample(), 1..250),
        window in arb_window(),
    ) {
        let nodes = 4usize;
        let mut samples = samples;
        samples.sort_by(|a, b| a.time.total_cmp(&b.time));
        let cfg = StreamConfig { record_windows: true, ..StreamConfig::new(nodes, window) };
        let mut det = StreamingDetector::new(synthetic_classifier(), cfg);
        for s in &samples {
            det.ingest(s, None);
        }
        det.flush();
        let windows = det.drain_windows();
        prop_assert!(!windows.is_empty(), "flush closes at least the trailing window");
        for w in &windows {
            let in_window: Vec<MemSample> =
                samples.iter().filter(|s| s.time >= w.start_cycles && s.time < w.end_cycles).copied().collect();
            let batches = ChannelBatches::split(&in_window, nodes);
            let ctx = FeatureCtx { duration_cycles: w.end_cycles - w.start_cycles };
            prop_assert_eq!(w.channels.len(), nodes * (nodes - 1));
            for cw in &w.channels {
                let expected = selected_features(batches.batch(cw.channel), &ctx);
                prop_assert_eq!(
                    cw.features, expected,
                    "channel {:?} of window [{}, {}) must match batch exactly",
                    cw.channel, w.start_cycles, w.end_cycles
                );
                let traversed = batches.remote_samples(cw.channel).count();
                prop_assert_eq!(cw.traversed, traversed);
            }
        }
    }
}

/// The acceptance run: replay a contended (`rmc`-by-construction) Sumv
/// profile through the streaming pipeline with a classifier trained the
/// real way, and check the three acceptance properties — per-window batch
/// equality, an `rmc` verdict before run end, and a retention ceiling
/// strictly below the batch pipeline's full log.
#[test]
fn replayed_contended_run_detects_before_end_with_batch_identical_windows() {
    let mcfg = MachineConfig::scaled();
    let classifier = ContentionClassifier::train(&quick_training_set(&mcfg), TrainConfig::default());

    // Master-allocated sumv at Large input, 32 threads over 4 nodes: every
    // remote node streams into node 0's memory — contended by
    // construction (an rmc_shapes() training shape).
    let outcome = run(&Sumv, &mcfg, &RunConfig::new(32, 4, Input::Large), Some(SamplerConfig::default()));
    assert!(outcome.samples.len() > 1000, "need a real sample log, got {}", outcome.samples.len());
    let run_end = outcome.samples.iter().map(|s| s.time).fold(0.0f64, f64::max);

    let window = WindowConfig::tumbling(run_end / 12.0);
    let cfg = StreamConfig { record_windows: true, ..StreamConfig::new(4, window) };
    let mut det = StreamingDetector::new(classifier, cfg);
    let rep = replay(&outcome, &mut det, ReplayConfig::default());

    // The default replay config never saturates its ring (burst < capacity),
    // so the streamed sample set is the batch log exactly.
    assert_eq!(rep.dropped, 0);
    assert_eq!(rep.offered as usize, outcome.samples.len());
    assert_eq!(rep.metrics.samples_ingested as usize, outcome.samples.len());

    // (1) Every closed window's features are bit-identical to batch
    // extraction over the same time span, on every channel.
    assert!(rep.windows.len() >= 10, "expected ~12 windows, got {}", rep.windows.len());
    for w in &rep.windows {
        let in_window: Vec<MemSample> =
            outcome.samples.iter().filter(|s| s.time >= w.start_cycles && s.time < w.end_cycles).copied().collect();
        let batches = ChannelBatches::split(&in_window, 4);
        let ctx = FeatureCtx { duration_cycles: w.end_cycles - w.start_cycles };
        for cw in &w.channels {
            assert_eq!(
                cw.features,
                selected_features(batches.batch(cw.channel), &ctx),
                "window [{}, {}) channel {:?}",
                w.start_cycles,
                w.end_cycles,
                cw.channel
            );
        }
    }

    // (2) The detector raises rmc while the run is still going.
    let first_rmc = rep.metrics.first_rmc_verdict_cycles.expect("a contended run must raise an rmc verdict");
    assert!(first_rmc < run_end, "verdict at {first_rmc} cycles must precede run end at {run_end}");
    assert!(
        rep.events.iter().any(|e| e.mode == Mode::Rmc && e.channel.dst == NodeId(0)),
        "contention is on traffic into the master node, events: {:?}",
        rep.events
    );
    assert!(rep.metrics.detection_latency_from(0.0).is_some());

    // (3) Streaming retention stays strictly below batch full-log
    // retention — the memory-ceiling claim.
    assert!(
        rep.peak_retained_samples() < rep.batch_log_samples,
        "streaming peak {} must undercut the batch log {}",
        rep.peak_retained_samples(),
        rep.batch_log_samples
    );
}
