//! Load harness for `drbw-serve`: one in-process [`AnalysisServer`]
//! multiplexing hundreds to thousands of **simultaneously open** replayed
//! sessions, fed from concurrent producer threads with blocking
//! (backpressure-honouring) offers — whole columnar [`SampleBlock`]s by
//! default, the legacy per-sample path under `--per-sample`. Half the
//! sessions replay a contended recorded run, half a quiet control; a
//! model republish lands mid-run so every verdict's version stamp
//! exercises the hot-swap path.
//!
//! Asserts: zero dropped samples under the default ring sizing, an `rmc`
//! verdict on every contended session, no verdict on any quiet session,
//! every window version ∈ {1, 2}, and block-vs-per-sample **bit
//! identity** (same events, metrics, and window features from both
//! ingestion styles). Writes `BENCH_serve.json` (sessions, throughput,
//! verdict p50/p99, the embedded [`drbw_serve::ServeMetrics::to_json`]
//! snapshot, and an `ingest` section: warmup + median-of-7 single-core
//! block vs per-sample arms, compared by within-run ratio per the
//! BENCH_engine.json machine note).
//!
//! ```text
//! cargo run --release -p drbw-bench --bin serve_load [--smoke] \
//!     [--sessions N] [--per-sample] [--out BENCH_serve.json]
//! ```
//!
//! `--smoke` is the CI shape: 50 sessions, 3 measured ingest runs,
//! seconds end to end even with a cold run cache.

use drbw_bench::sweep::train_tool;
use drbw_bench::util::{memo_run, open_run_cache, write_text, BenchError};
use drbw_core::{DrBw, Mode};
use drbw_serve::{AnalysisServer, ServerConfig, SessionHandle};
use drbw_stream::{StreamConfig, StreamingDetector, WindowConfig};
use numasim::config::MachineConfig;
use pebs::sample::MemSample;
use pebs::sampler::SamplerConfig;
use pebs::SampleBlock;
use std::sync::Arc;
use std::time::Instant;
use workloads::config::{Input, RunConfig};

/// Samples each session replays (a stride-subsampled slice of the
/// recorded run, preserving its time span and so its window grid).
const SAMPLES_PER_SESSION: usize = 1000;

/// Samples a producer feeds one session before moving to the next, so all
/// of a producer's sessions advance together (they stay concurrently
/// mid-stream, not sequentially replayed). Also the block capacity on the
/// block offer path.
const CHUNK: usize = 100;

/// The single-core ingest throughput the per-sample pipeline recorded
/// before the columnar rework (BENCH_serve.json @ PR 7) — the absolute
/// reference the `ingest` section's ratios are reported against.
const RECORDED_BASELINE: f64 = 2_313_075.0;

struct Args {
    smoke: bool,
    sessions: usize,
    producers: usize,
    per_sample: bool,
    out: String,
}

fn parse_args() -> Result<Args, BenchError> {
    let mut args =
        Args { smoke: false, sessions: 1000, producers: 4, per_sample: false, out: "BENCH_serve.json".into() };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {
                args.smoke = true;
                args.sessions = 50;
                args.producers = 2;
            }
            "--sessions" => {
                let v = it.next().ok_or_else(|| BenchError::new("--sessions needs a value"))?;
                args.sessions = v.parse().map_err(|e| BenchError::new(format!("bad --sessions {v}: {e}")))?;
            }
            "--per-sample" => args.per_sample = true,
            "--out" => args.out = it.next().ok_or_else(|| BenchError::new("--out needs a value"))?,
            other => return Err(BenchError::new(format!("unknown argument {other}"))),
        }
    }
    if args.sessions < 2 {
        return Err(BenchError::new("need at least 2 sessions (one contended, one quiet)"));
    }
    Ok(args)
}

/// Subsample `samples` to at most `limit` with an even stride, keeping
/// the original (already time-sorted) timestamps.
fn subsample(samples: &[MemSample], limit: usize) -> Vec<MemSample> {
    let stride = samples.len().div_ceil(limit).max(1);
    samples.iter().step_by(stride).copied().collect()
}

/// Feed one session's next chunk as a columnar block, reusing `shell`
/// (the zero-copy producer loop: fill, pointer-swap in, get an empty
/// shell back).
fn offer_chunk_block(handle: &SessionHandle, chunk: &[MemSample], mut shell: SampleBlock) -> SampleBlock {
    for s in chunk {
        if shell.is_full() {
            shell = handle.offer_block_blocking(shell);
        }
        assert!(shell.push(s, None), "emptied shell must have room");
    }
    handle.offer_block_blocking(shell)
}

/// One timed single-core ingest run: a 1-shard server, one session, one
/// producer (this thread), `stream` fed end to end, wall-clocked from
/// first offer to delivered report. Returns samples/second.
fn ingest_run(tool: &DrBw, stream_cfg: StreamConfig, stream: &[MemSample], block_path: bool) -> f64 {
    let cfg = ServerConfig { shards: 1, ..ServerConfig::new(stream_cfg) };
    let server = AnalysisServer::start(tool.classifier().clone(), cfg).expect("start ingest server");
    let session = server.open_session();
    let start = Instant::now();
    if block_path {
        let mut shell = SampleBlock::with_capacity(CHUNK);
        for chunk in stream.chunks(CHUNK) {
            shell = offer_chunk_block(&session, chunk, shell);
        }
    } else {
        for s in stream {
            session.offer_blocking(s, None);
        }
    }
    let report = session.finish().expect("ingest session report");
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(report.ring.dropped, 0, "blocking ingest must not drop");
    assert_eq!(report.stream.samples_ingested as usize, stream.len());
    server.shutdown();
    stream.len() as f64 / wall
}

/// Warmup + `measured` timed runs, median (the BENCH discipline: absolute
/// seconds drift 15-25% on this host, medians of within-run arms do not).
fn ingest_median(
    tool: &DrBw,
    stream_cfg: StreamConfig,
    stream: &[MemSample],
    block_path: bool,
    measured: usize,
) -> f64 {
    let _warmup = ingest_run(tool, stream_cfg, stream, block_path);
    let mut runs: Vec<f64> = (0..measured).map(|_| ingest_run(tool, stream_cfg, stream, block_path)).collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// The ingest measurement stream: the contended replay repeated with a
/// time shift per repeat, so the window grid keeps advancing and the
/// detector does steady-state (not warm-up) work throughout.
fn ingest_stream(hot: &[MemSample], hot_cycles: f64, repeats: usize) -> Vec<MemSample> {
    let span = hot_cycles + 1000.0;
    let mut out = Vec::with_capacity(hot.len() * repeats);
    for r in 0..repeats {
        for s in hot {
            out.push(MemSample { time: s.time + r as f64 * span, ..*s });
        }
    }
    out
}

/// Block-vs-per-sample bit identity on the exact detector geometry the
/// service runs: same events, same metrics, same recorded window features
/// from both ingestion styles. Panics on any divergence.
fn assert_bit_identity(tool: &DrBw, stream_cfg: StreamConfig, stream: &[MemSample]) {
    let model = Arc::new(tool.classifier().clone());
    let mut per_sample = StreamingDetector::with_model(Arc::clone(&model), 1, stream_cfg);
    for s in stream {
        per_sample.ingest(s, None);
    }
    per_sample.flush();
    let mut blocked = StreamingDetector::with_model(model, 1, stream_cfg);
    for chunk in stream.chunks(CHUNK) {
        blocked.ingest_block(&SampleBlock::from_samples(chunk));
    }
    blocked.flush();
    assert_eq!(blocked.metrics(), per_sample.metrics(), "block path diverged on metrics");
    assert_eq!(blocked.drain_events(), per_sample.drain_events(), "block path diverged on events");
    assert_eq!(blocked.drain_windows(), per_sample.drain_windows(), "block path diverged on window features");
}

fn main() -> Result<(), BenchError> {
    let args = parse_args()?;
    let mcfg = MachineConfig::scaled();
    eprintln!("training (or loading) the DR-BW model...");
    let tool = train_tool(&mcfg);
    let cache = open_run_cache();

    // Recorded source runs, the same pair stream_replay studies: the
    // contended rmc shape (every node streaming into node 0) and a quiet
    // control that stays below the remote-traffic guards.
    let hot_rcfg = RunConfig::new(32, 4, Input::Large);
    let cold_rcfg = RunConfig::new(16, 4, Input::Medium);
    let sumv = workloads::micro::Sumv;
    eprintln!("recording source runs (memoized)...");
    let hot_run = memo_run(cache.as_deref(), &sumv, &mcfg, &hot_rcfg, Some(SamplerConfig::default()));
    let cold_run = memo_run(cache.as_deref(), &sumv, &mcfg, &cold_rcfg, Some(SamplerConfig::default()));
    let hot_cycles = hot_run.cycles();
    let hot = Arc::new(subsample(&hot_run.samples, SAMPLES_PER_SESSION));
    let cold = Arc::new(subsample(&cold_run.samples, SAMPLES_PER_SESSION));
    drop((hot_run, cold_run));

    // ~10 tumbling windows across the contended replay (the quiet replay
    // just sees however many fit its span).
    let window = WindowConfig::tumbling((hot_cycles / 10.0).max(1.0));
    let stream_cfg = StreamConfig { record_windows: true, ..StreamConfig::new(mcfg.topology.num_nodes(), window) };

    let server = Arc::new(
        AnalysisServer::start(tool.classifier().clone(), ServerConfig::new(stream_cfg)).expect("start server"),
    );
    if let Some(cache) = &cache {
        server.attach_run_cache(Arc::clone(cache));
    }

    let offer_path = if args.per_sample { "per_sample" } else { "block" };
    eprintln!(
        "driving {} concurrent sessions ({} producers, {} samples/session, ring {}, {} offers)...",
        args.sessions,
        args.producers,
        hot.len().max(cold.len()),
        server.config().ring_capacity,
        offer_path,
    );
    let start = Instant::now();
    // Every session opens before any feeding starts: the whole population
    // is concurrently open for the duration of the run. Even ids replay
    // the contended run, odd ids the quiet one.
    let all: Vec<(bool, SessionHandle)> = (0..args.sessions).map(|i| (i % 2 == 0, server.open_session())).collect();
    let mut per_producer: Vec<Vec<(bool, SessionHandle)>> = (0..args.producers).map(|_| Vec::new()).collect();
    for (i, s) in all.into_iter().enumerate() {
        per_producer[i % args.producers].push(s);
    }

    // Republish the (identical) model mid-run: verdicts before the swap
    // stamp v1, after it v2 — the hot-swap proof without perturbing any
    // expected verdict.
    let swap_at = SAMPLES_PER_SESSION / 2;
    let per_sample_path = args.per_sample;
    let producers: Vec<_> = per_producer
        .into_iter()
        .enumerate()
        .map(|(tid, sessions)| {
            let (hot, cold, server) = (Arc::clone(&hot), Arc::clone(&cold), Arc::clone(&server));
            std::thread::spawn(move || {
                let mut cursor = 0usize;
                let longest = hot.len().max(cold.len());
                let mut swapped = tid != 0;
                // One block shell per producer, recycled across every
                // session and chunk: the steady state allocates nothing.
                let mut shell = SampleBlock::with_capacity(CHUNK);
                while cursor < longest {
                    if !swapped && cursor >= swap_at {
                        server.publish_model(server.registry().current().model().as_ref().clone());
                        swapped = true;
                    }
                    for (contended, handle) in &sessions {
                        let stream = if *contended { &hot } else { &cold };
                        let chunk = &stream[cursor.min(stream.len())..(cursor + CHUNK).min(stream.len())];
                        if per_sample_path {
                            for s in chunk {
                                handle.offer_blocking(s, None);
                            }
                        } else {
                            shell = offer_chunk_block(handle, chunk, shell);
                        }
                    }
                    cursor += CHUNK;
                }
                sessions.into_iter().map(|(c, h)| (c, h.finish().expect("session report"))).collect::<Vec<_>>()
            })
        })
        .collect();

    let mut reports = Vec::with_capacity(args.sessions);
    for p in producers {
        reports.extend(p.join().expect("producer thread panicked"));
    }
    let wall = start.elapsed();
    let metrics = server.metrics();

    // Hard assertions — the harness doubles as the CI smoke.
    let mut contended_with_verdict = 0usize;
    let mut quiet_sessions = 0usize;
    let mut v1_events = 0u64;
    let mut v2_events = 0u64;
    let mut migrated_sessions = 0usize;
    for (contended, r) in &reports {
        assert_eq!(r.ring.dropped, 0, "blocking offers must never drop ({}): {:?}", r.id, r.ring);
        assert_eq!(r.ring.popped, r.ring.offered, "every sample must be consumed ({})", r.id);
        for e in &r.events {
            match e.model_version {
                1 => v1_events += 1,
                2 => v2_events += 1,
                v => panic!("event stamped with unpublished model version {v}"),
            }
        }
        assert!(
            r.model_versions.iter().all(|&v| v == 1 || v == 2),
            "session {} classified with unpublished versions {:?}",
            r.id,
            r.model_versions
        );
        if r.model_versions.contains(&1) && r.model_versions.contains(&2) {
            migrated_sessions += 1;
        }
        if *contended {
            let raised = r.events.iter().any(|e| e.mode == Mode::Rmc);
            assert!(raised, "contended session {} raised no rmc verdict", r.id);
            contended_with_verdict += 1;
        } else {
            quiet_sessions += 1;
            assert!(r.events.is_empty(), "quiet session {} flipped: {:?}", r.id, r.events);
        }
    }
    assert_eq!(metrics.samples_dropped, 0, "service-level drop accounting must agree");
    assert_eq!(metrics.sessions_closed, args.sessions as u64);
    assert_eq!((metrics.model_epoch, metrics.model_swaps), (2, 1), "exactly one mid-run republish");
    assert!(
        migrated_sessions > 0,
        "no open session observed the mid-run swap (all {} stayed on one version)",
        args.sessions
    );

    // The ingest section: single-core block vs per-sample arms measured
    // back to back in this run (within-run ratios, per the
    // BENCH_engine.json machine note), plus bit identity.
    let ingest_repeats = if args.smoke { 20 } else { 100 };
    let ingest_measured = if args.smoke { 3 } else { 7 };
    eprintln!("measuring single-core ingest arms (warmup + median of {ingest_measured})...");
    let ing_stream = ingest_stream(&hot, hot_cycles, ingest_repeats);
    assert_bit_identity(&tool, stream_cfg, &ing_stream);
    let per_sample_tp = ingest_median(&tool, stream_cfg, &ing_stream, false, ingest_measured);
    let block_tp = ingest_median(&tool, stream_cfg, &ing_stream, true, ingest_measured);
    let block_vs_per_sample = block_tp / per_sample_tp;
    if !args.smoke {
        assert!(
            block_vs_per_sample >= 3.0,
            "block ingest must be >= 3x the per-sample path within-run: {block_tp:.0} vs {per_sample_tp:.0} \
             ({block_vs_per_sample:.2}x)"
        );
    }

    let throughput = metrics.samples_ingested as f64 / wall.as_secs_f64();
    let json = format!(
        r#"{{
  "bench": "serve_load",
  "mode": "{}",
  "offer_path": "{}",
  "sessions": {},
  "contended_sessions": {},
  "quiet_sessions": {},
  "producers": {},
  "samples_per_session": {},
  "wall_s": {:.3},
  "throughput_samples_per_s": {:.0},
  "verdict_p50_us": {:.1},
  "verdict_p99_us": {:.1},
  "events_on_v1": {},
  "events_on_v2": {},
  "sessions_migrated_v1_to_v2": {},
  "ingest": {{
    "protocol": "single-core (1 shard, 1 producer, 1 session), 1 warmup + median of {} runs per arm, {} samples/run; arms measured back to back, compare by within-run ratio (machine_note: absolute seconds drift 15-25%)",
    "samples_per_run": {},
    "bit_identity": true,
    "per_sample_samples_per_s": {:.0},
    "block_samples_per_s": {:.0},
    "block_vs_per_sample": {:.2},
    "recorded_baseline_samples_per_s": {:.0},
    "block_vs_recorded_baseline": {:.2}
  }},
  "serve": {}
}}
"#,
        if args.smoke { "smoke" } else { "full" },
        offer_path,
        args.sessions,
        contended_with_verdict,
        quiet_sessions,
        args.producers,
        hot.len().max(cold.len()),
        wall.as_secs_f64(),
        throughput,
        metrics.verdict_p50_us,
        metrics.verdict_p99_us,
        v1_events,
        v2_events,
        migrated_sessions,
        ingest_measured,
        ing_stream.len(),
        ing_stream.len(),
        per_sample_tp,
        block_tp,
        block_vs_per_sample,
        RECORDED_BASELINE,
        block_tp / RECORDED_BASELINE,
        metrics.to_json(),
    );
    write_text(&args.out, &json)?;
    print!("{json}");
    eprintln!(
        "{} sessions, {:.2}s, {:.0} samples/s; ingest block {:.0}/s vs per-sample {:.0}/s ({:.2}x) — wrote {}",
        args.sessions,
        wall.as_secs_f64(),
        throughput,
        block_tp,
        per_sample_tp,
        block_vs_per_sample,
        args.out
    );
    let server = Arc::into_inner(server).expect("all producer clones joined");
    server.shutdown();
    Ok(())
}
