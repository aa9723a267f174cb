//! Replay harness: drives recorded simulator runs through the streaming
//! detection subsystem (`drbw-stream`) and reports what an online
//! deployment would see — detection latency from contention onset, ring
//! loss accounting, and the streaming pipeline's memory ceiling versus the
//! batch pipeline's full-log retention. Also audits the equivalence
//! guarantee: every closed window's features must be bit-identical to
//! batch extraction over the same time span.
//!
//! Output goes to stdout (`results/stream_replay.txt` is a copy of it).

use drbw_bench::sweep::train_tool;
use drbw_bench::util::{memo_run, open_run_cache, report_run_cache, BenchError};
use drbw_core::channels::ChannelBatches;
use drbw_core::features::{selected_features, FeatureCtx};
use drbw_stream::{replay, StreamConfig, StreamingDetector, WindowConfig};
use numasim::config::MachineConfig;
use pebs::sample::MemSample;
use pebs::sampler::SamplerConfig;
use runcache::RunCache;
use std::fmt::Write as _;
use workloads::config::{Input, RunConfig};
use workloads::runner::RunOutcome;
use workloads::spec::Workload;

/// Contention onset in the sample timeline: the timestamp of the first
/// remote-DRAM sample. Phase clocks restart at zero (sample times are
/// phase-local), so phase boundaries are not visible in the timeline —
/// the first remote access is the earliest moment the sampler could have
/// seen contention building.
fn onset_cycles(outcome: &RunOutcome) -> f64 {
    let first = outcome
        .samples
        .iter()
        .filter(|s| s.home.is_some_and(|h| h != s.node))
        .map(|s| s.time)
        .fold(f64::INFINITY, f64::min);
    if first.is_finite() {
        first
    } else {
        0.0
    }
}

/// Check the equivalence guarantee over every closed window; returns the
/// number of audited (window, channel) feature vectors.
fn audit_windows(outcome: &RunOutcome, windows: &[drbw_stream::WindowSummary], nodes: usize) -> usize {
    let mut audited = 0;
    for w in windows {
        let in_window: Vec<MemSample> =
            outcome.samples.iter().filter(|s| s.time >= w.start_cycles && s.time < w.end_cycles).copied().collect();
        let batches = ChannelBatches::split(&in_window, nodes);
        let ctx = FeatureCtx { duration_cycles: w.end_cycles - w.start_cycles };
        for cw in &w.channels {
            assert_eq!(
                cw.features,
                selected_features(batches.batch(cw.channel), &ctx),
                "window [{}, {}) channel {:?}: stream diverged from batch",
                w.start_cycles,
                w.end_cycles,
                cw.channel
            );
            audited += 1;
        }
    }
    audited
}

fn report(
    label: &str,
    w: &dyn Workload,
    rcfg: &RunConfig,
    mcfg: &MachineConfig,
    detector: &mut StreamingDetector,
    cache: Option<&RunCache>,
) {
    let outcome = memo_run(cache, w, mcfg, rcfg, Some(SamplerConfig::default()));
    let run_end = outcome.samples.iter().map(|s| s.time).fold(0.0f64, f64::max);
    let rep = replay(&outcome, detector);
    let audited = audit_windows(&outcome, &rep.windows, mcfg.topology.num_nodes());
    let onset = onset_cycles(&outcome);

    let sample_bytes = std::mem::size_of::<MemSample>();
    let stream_bytes = rep.peak_retained_samples() * sample_bytes + rep.detector_bytes;
    let batch_bytes = rep.batch_log_samples * sample_bytes;

    let mut lines = String::new();
    let _ = writeln!(lines, "--- {label} ---");
    let _ = writeln!(
        lines,
        "run: {} {}T-{}N {:?}, {} samples over {:.1} Mcyc",
        w.name(),
        rcfg.threads,
        rcfg.nodes,
        rcfg.input,
        rep.batch_log_samples,
        run_end / 1e6
    );
    let _ = writeln!(lines, "ring: offered {} dropped {} peak {}", rep.offered, rep.dropped, rep.peak_ring_len);
    let _ = writeln!(
        lines,
        "windows: {} closed, {} window-channel vectors bit-identical to batch",
        rep.windows.len(),
        audited
    );
    match rep.metrics.first_rmc_verdict_cycles {
        Some(t) => {
            // Onset can postdate the verdict only in degenerate replays;
            // report a zero latency rather than dying mid-report.
            let latency = rep.metrics.detection_latency_from(onset).unwrap_or(0.0);
            let _ = writeln!(lines, "verdict: rmc at {:.2} Mcyc ({:.0}% into the run)", t / 1e6, 100.0 * t / run_end);
            let _ = writeln!(
                lines,
                "detection latency: {:.2} Mcyc after first remote traffic at {:.2} Mcyc",
                latency / 1e6,
                onset / 1e6
            );
        }
        None => {
            let _ = writeln!(lines, "verdict: good for the whole run (no rmc window streak)");
        }
    }
    for e in &rep.events {
        let _ = writeln!(
            lines,
            "  event: {} on {}->{} (window {}, {:.2} Mcyc)",
            e.mode.name(),
            e.channel.src.0,
            e.channel.dst.0,
            e.window_index,
            e.at_cycles / 1e6
        );
    }
    let _ = writeln!(
        lines,
        "memory ceiling: stream {:.1} KiB (ring peak {} samples + {} B detector state)",
        stream_bytes as f64 / 1024.0,
        rep.peak_retained_samples(),
        rep.detector_bytes
    );
    let _ = writeln!(
        lines,
        "                batch  {:.1} KiB (full log, {} samples) — {:.1}x the stream ceiling",
        batch_bytes as f64 / 1024.0,
        rep.batch_log_samples,
        batch_bytes as f64 / stream_bytes as f64
    );
    println!("{lines}");
}

fn main() -> Result<(), BenchError> {
    let mcfg = MachineConfig::scaled();
    eprintln!("training the DR-BW model...");
    let tool = train_tool(&mcfg)?;
    let cache = open_run_cache();
    println!("=== Streaming replay: online detection vs the batch pipeline ===\n");

    // A contended case (an rmc training shape: every node streams into the
    // master's memory) and an uncontended control.
    let cases: [(&str, RunConfig); 2] = [
        ("sumv 32T-4N large (contended)", RunConfig::new(32, 4, Input::Large)),
        ("sumv 16T-4N medium (good)", RunConfig::new(16, 4, Input::Medium)),
    ];
    let sumv = workloads::micro::Sumv;
    for (label, rcfg) in cases {
        // ~12 tumbling windows per run keeps per-window traffic above the
        // classifier's minimum-sample guard while leaving the hysteresis
        // room to raise mid-run.
        let probe = memo_run(cache.as_deref(), &sumv, &mcfg, &rcfg, None);
        let window = WindowConfig::tumbling((probe.cycles() / 10.0).max(1.0));
        let cfg = StreamConfig { record_windows: true, ..StreamConfig::new(mcfg.topology.num_nodes(), window) };
        let mut detector = StreamingDetector::new(tool.classifier().clone(), cfg);
        report(label, &sumv, &rcfg, &mcfg, &mut detector, cache.as_deref());
        let expect_rmc = label.contains("contended");
        let detected = detector.metrics().first_rmc_verdict_cycles.is_some();
        assert_eq!(detected, expect_rmc, "unexpected verdict for {label}");
    }

    report_run_cache(cache.as_deref());
    Ok(())
}
