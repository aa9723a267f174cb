//! `serve-saturate` and `serve-paced`: the online pipeline, one session
//! per op, `pebs` -> `stream` -> `serve` and no simulation at all.
//!
//! Both replay two logs recorded in set-up — a contended run and a quiet
//! control — through one `AnalysisServer` with one shard, in 256-sample
//! blocks. `serve-saturate` is a closed loop: one generator thread keeps
//! waves of 32 sessions open and offers as fast as the server accepts, so
//! it measures what the server sustains. `serve-paced` is an open loop at
//! a fixed fraction of that rate: every block has a due time, and a
//! session's latency runs from the due time of its last block to its
//! report, so it measures what a caller waits. Batching or wake-up
//! changes that raise the first can lengthen the second; the pair makes
//! that trade visible.

use crate::golden::{Blessed, Golden};
use crate::harness::{ratio, rounds_for, Headline, Rng, RunSpec, Section, Setup};
use crate::spec::{
    BLOCK_SAMPLES, PACED_BLOCK_GAP_NS, PACED_LATE_P50_LIMIT_US, PACED_ROUND_NS, PACED_SAMPLES_PER_S, SATURATE_ROUND_S,
    SERVE_WINDOWS, WAVES_PER_ROUND, WAVE_SESSIONS,
};
use crate::stats;
use crate::trace::{TimerId, Tracer, OP};
use drbw_core::{ContentionClassifier, Mode};
use drbw_serve::{AnalysisServer, ServeError, ServeMetrics, ServerConfig, SessionHandle, SessionReport};
use drbw_stream::{StreamConfig, StreamingDetector, WindowConfig};
use numasim::config::MachineConfig;
use pebs::ring::{BlockRing, OverflowPolicy};
use pebs::sampler::SamplerConfig;
use pebs::{MemSample, SampleBlock, SiteId};
use std::sync::{mpsc, Arc};
use std::time::Instant;
use workloads::config::{Input, RunConfig};

const GOLDEN_COLUMNS: &str = "session\tsamples\twindows\tverdicts";

fn golden() -> Golden {
    Golden::parse(include_str!("../golden/serve.tsv"), 1, 3)
}

/// One recorded sample log, time-sorted, with each sample's allocation
/// site resolved ahead of ring entry as `stream::replay_log` does.
pub struct Log {
    name: &'static str,
    samples: Vec<MemSample>,
    sites: Vec<Option<SiteId>>,
}

impl Log {
    fn blocks(&self) -> usize {
        self.samples.len().div_ceil(BLOCK_SAMPLES)
    }

    /// Fill `shell` with block `b` of the log: the one copy a sample gets.
    fn fill(&self, b: usize, shell: &mut SampleBlock) -> usize {
        let end = ((b + 1) * BLOCK_SAMPLES).min(self.samples.len());
        for i in b * BLOCK_SAMPLES..end {
            let pushed = shell.push(&self.samples[i], self.sites[i]);
            debug_assert!(pushed, "an emptied shell holds a whole block");
        }
        end - b * BLOCK_SAMPLES
    }
}

/// The two logs and the detector geometry every session runs under.
pub struct Recording {
    /// `[quiet control, contended]`, indexed by `contended as usize`.
    logs: [Log; 2],
    stream: StreamConfig,
}

/// Record the pair `serve_load` and `stream_replay` study: sumv streaming
/// into node 0 from every node (rmc), and a quiet control that stays
/// under the remote-traffic guards.
pub fn record(mcfg: &MachineConfig) -> Recording {
    let mut cycles = [0.0; 2];
    let shapes = [("quiet", RunConfig::new(16, 4, Input::Medium)), ("contended", RunConfig::new(32, 4, Input::Large))];
    let logs = [0, 1].map(|i| {
        let (name, rcfg) = &shapes[i];
        let run = workloads::runner::run(&workloads::micro::Sumv, mcfg, rcfg, Some(SamplerConfig::default()));
        cycles[i] = run.cycles();
        let mut samples = run.samples;
        samples.sort_by(|a, b| a.time.total_cmp(&b.time));
        let sites = samples.iter().map(|s| run.tracker.attribute_site(s.addr)).collect();
        Log { name, samples, sites }
    });
    let window = WindowConfig::tumbling((cycles[1] / SERVE_WINDOWS).max(1.0));
    Recording { logs, stream: StreamConfig::new(mcfg.topology.num_nodes(), window) }
}

/// Start the server the way the benchmark always runs it: shipped
/// defaults, except one shard — pinned, so generator + worker fill the
/// reference host's two cores and a bigger host does not change the
/// experiment.
fn start_server(classifier: &ContentionClassifier, stream: StreamConfig) -> AnalysisServer {
    let cfg = ServerConfig { shards: 1, ..ServerConfig::new(stream) };
    AnalysisServer::start(classifier.clone(), cfg).expect("start the analysis server")
}

/// What a session's report must say. `blessed` collects the counts
/// instead of comparing them.
fn check_report(
    log: &Log,
    contended: bool,
    report: &Result<SessionReport, ServeError>,
    golden: &Golden,
    blessed: Option<&mut Blessed>,
) -> Result<(), String> {
    let name = log.name;
    let r = report.as_ref().map_err(|e| format!("{name} session: {e}"))?;
    let raised = r.events.iter().any(|e| e.mode == Mode::Rmc);
    if contended && !raised {
        return Err(format!("{name} session {} raised no rmc verdict", r.id));
    }
    if !contended && !r.events.is_empty() {
        return Err(format!("{name} session {} raised {} verdicts", r.id, r.events.len()));
    }
    if r.ring.dropped != 0 || r.ring.offered != r.stream.samples_ingested {
        return Err(format!(
            "{name} session {}: offered {} dropped {} ingested {}",
            r.id, r.ring.offered, r.ring.dropped, r.stream.samples_ingested
        ));
    }
    let counts = format!("{}\t{}\t{}", r.stream.samples_ingested, r.stream.windows_classified, r.events.len());
    golden.check_or_collect(blessed, name.to_string(), counts)
}

/// The generator's call sites and what it counted at them.
struct Generator {
    open: TimerId,
    build: TimerId,
    offer: TimerId,
    finish: TimerId,
    /// `SessionHandle::queued()` at each offer (traced runs only: it takes
    /// the session lock).
    depths: Vec<u32>,
    built_samples: u64,
}

impl Generator {
    fn new(tracer: &mut Tracer) -> Self {
        Generator {
            open: tracer.timer("serve.open"),
            build: tracer.timer("pebs.block.build"),
            offer: tracer.timer("serve.offer"),
            finish: tracer.timer("serve.finish"),
            depths: Vec::new(),
            built_samples: 0,
        }
    }

    /// Build block `b` of `log` in `shell` and offer it, blocking on ring
    /// space; returns the empty shell the ring hands back.
    fn send(
        &mut self,
        tracer: &mut Tracer,
        handle: &SessionHandle,
        log: &Log,
        b: usize,
        mut shell: SampleBlock,
    ) -> SampleBlock {
        self.built_samples += tracer.time(self.build, || log.fill(b, &mut shell)) as u64;
        if tracer.is_on() {
            self.depths.push(handle.queued() as u32);
        }
        tracer.time(self.offer, || handle.offer_block_blocking(shell))
    }
}

/// After the section: the service's own counters, the percentiles of the
/// timed calls, and — traced only — the bare pipeline by substitution.
fn finish_section(
    sec: &mut Section,
    metrics: &ServeMetrics,
    gen: &Generator,
    rec: &Recording,
    classifier: &ContentionClassifier,
) {
    sec.items = metrics.samples_ingested;
    sec.set("pebs.block.build.samples", gen.built_samples as f64);
    if metrics.samples_dropped != 0 || metrics.samples_offered != metrics.samples_ingested {
        sec.failures.push(format!(
            "service counters: offered {} ingested {} dropped {}",
            metrics.samples_offered, metrics.samples_ingested, metrics.samples_dropped
        ));
    }
    sec.set("serve.samples_offered", metrics.samples_offered as f64);
    sec.set("serve.samples_ingested", metrics.samples_ingested as f64);
    sec.set("serve.samples_dropped", metrics.samples_dropped as f64);
    sec.set("serve.verdicts", metrics.verdicts as f64);
    sec.set("serve.windows_classified", metrics.windows_classified as f64);
    sec.set("serve.verdict_latency_p50_us", metrics.verdict_p50_us);
    sec.set("serve.verdict_latency_p99_us", metrics.verdict_p99_us);
    if !sec.tracer.is_on() {
        return;
    }
    for (site, p50, p99) in [
        ("serve.offer", "serve.offer.p50_us", "serve.offer.p99_us"),
        ("serve.finish", "serve.finish.p50_us", "serve.finish.p99_us"),
    ] {
        let timer = sec.tracer.timer_named(site).expect("registered by Generator::new");
        let us = stats::sorted(&timer.durations_ns.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>());
        if !us.is_empty() {
            sec.set(p50, stats::percentile(&us, 50.0));
            sec.set(p99, stats::percentile(&us, 99.0));
        }
    }
    if !gen.depths.is_empty() {
        let d = stats::sorted(&gen.depths.iter().map(|&d| d as f64).collect::<Vec<_>>());
        sec.set("serve.queue_depth_p90", stats::percentile(&d, 90.0));
    }

    // The same blocks on one thread through the bare ring and the bare
    // detector: what the pipeline costs with no service around it.
    let blocks: [Vec<SampleBlock>; 2] = [0, 1].map(|k| {
        let log = &rec.logs[k];
        (0..log.blocks())
            .map(|b| {
                let mut block = SampleBlock::with_capacity(BLOCK_SAMPLES);
                log.fill(b, &mut block);
                block
            })
            .collect()
    });
    let mut ring = BlockRing::with_policy(ServerConfig::new(rec.stream).ring_capacity, OverflowPolicy::RejectNewest);
    let mut block = blocks[1][0].clone();
    const HANDOFFS: u32 = 200_000;
    let start = Instant::now();
    for _ in 0..HANDOFFS {
        let (_, shell) = ring.offer_block(block);
        block = ring.pop_block().expect("the block just offered").0;
        ring.recycle(shell);
    }
    let handoff_ns = start.elapsed().as_nanos() as f64 / HANDOFFS as f64;
    std::hint::black_box(&block);

    let mut detector = StreamingDetector::with_model(Arc::new(classifier.clone()), 1, rec.stream);
    const SESSIONS: usize = 2_000;
    let mut ingested = 0usize;
    let start = Instant::now();
    for i in 0..SESSIONS {
        for block in &blocks[i % 2] {
            detector.ingest_block(block);
            ingested += block.len();
        }
        detector.flush();
        std::hint::black_box(detector.drain_events());
        detector.reset();
    }
    let ingest_ns = start.elapsed().as_nanos() as f64 / ingested as f64;

    let layers = sec.tracer.layers();
    let build_s = layers["pebs.block.build"].busy_s;
    let offers = layers["serve.offer"].calls as f64;
    let bare_s = build_s + (handoff_ns * offers + ingest_ns * metrics.samples_ingested as f64) / 1e9;
    sec.set("pebs.ring.handoff_ns_per_block", handoff_ns);
    sec.set("stream.ingest_block.ns_per_sample", ingest_ns);
    sec.set("serve.overhead_share", 1.0 - ratio(bare_s, sec.wall_s));
}

// ---- serve-saturate ----------------------------------------------------

/// Run `rounds` rounds of `waves` waves of concurrently open sessions,
/// closed loop.
fn saturate(spec: &RunSpec, setup: &Setup, rounds: usize, waves: usize, mut blessed: Option<&mut Blessed>) -> Section {
    let start = Instant::now();
    let rec = record(setup.tool.machine());
    let record_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let server = start_server(setup.tool.classifier(), rec.stream);
    let start_s = start.elapsed().as_secs_f64();
    let golden = golden();
    let mut rng = Rng::new(spec.seed, 0);
    let mut kinds: Vec<bool> = (0..WAVE_SESSIONS).map(|i| i % 2 == 0).collect();
    let most_blocks = rec.logs.iter().map(Log::blocks).max().expect("two logs");
    let mut shell = SampleBlock::with_capacity(BLOCK_SAMPLES);

    let mut sec = Section::start(spec.trace);
    let mut gen = Generator::new(&mut sec.tracer);
    let epoch = sec.tracer.epoch();
    for wave in 0..rounds * waves {
        rng.shuffle(&mut kinds);
        let open: Vec<(u64, SessionHandle)> = kinds
            .iter()
            .map(|_| (epoch.elapsed().as_nanos() as u64, sec.tracer.time(gen.open, || server.open_session())))
            .collect();
        // Round-robin over the wave, one block per session per turn, so
        // all 32 stay mid-stream together.
        for b in 0..most_blocks {
            for (&contended, (_, handle)) in kinds.iter().zip(&open) {
                let log = &rec.logs[contended as usize];
                if b < log.blocks() {
                    shell = gen.send(&mut sec.tracer, handle, log, b, shell);
                }
            }
        }
        for (&contended, (opened_ns, handle)) in kinds.iter().zip(open) {
            let report = sec.tracer.time(gen.finish, || handle.finish());
            let done_ns = epoch.elapsed().as_nanos() as u64;
            let op = sec.next_op();
            sec.tracer.add(OP, op, opened_ns, done_ns, 1);
            let checks =
                check_report(&rec.logs[contended as usize], contended, &report, &golden, blessed.as_deref_mut());
            sec.record_op((done_ns - opened_ns) as f64 / 1e6, checks);
        }
        if (wave + 1) % waves == 0 {
            sec.end_round();
        }
    }
    sec.finish();
    sec.headline = sec.best_round();
    let metrics = server.shutdown();
    sec.set("setup.record_s", record_s);
    sec.set("serve.start_s", start_s);
    finish_section(&mut sec, &metrics, &gen, &rec, setup.tool.classifier());
    sec
}

pub fn run_saturate(spec: &RunSpec, setup: &Setup) -> Section {
    saturate(spec, setup, rounds_for(spec.seconds, SATURATE_ROUND_S), WAVES_PER_ROUND, None)
}

pub fn bless(setup: &Setup) -> std::io::Result<()> {
    let mut rows = Blessed::new();
    let sec = saturate(&RunSpec { seed: 0, seconds: 0.0, trace: false }, setup, 1, 1, Some(&mut rows));
    assert!(sec.failures.is_empty(), "bless: {:?}", sec.failures);
    crate::golden::write("serve.tsv", GOLDEN_COLUMNS, &rows)
}

// ---- serve-paced ---------------------------------------------------------

/// One block's place on the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub due_ns: u64,
    pub session: u32,
    pub block: u32,
    /// The session's last block: its latency is timed from `due_ns`.
    pub last: bool,
}

/// The whole schedule, fixed before the section starts.
pub struct Schedule {
    pub events: Vec<Event>,
    /// Whether each session replays the contended log.
    pub contended: Vec<bool>,
}

/// Sessions arrive on a seeded exponential schedule whose mean keeps the
/// offered load at `PACED_SAMPLES_PER_S`; contended and quiet sessions
/// alternate, so the load is the same under every seed. A session's
/// blocks are due `PACED_BLOCK_GAP_NS` apart from its arrival.
pub fn schedule(spec: &RunSpec, blocks: [usize; 2], samples: [usize; 2]) -> Schedule {
    let mut rng = Rng::new(spec.seed, 0);
    let mean_gap_ns = (samples[0] + samples[1]) as f64 / 2.0 / PACED_SAMPLES_PER_S * 1e9;
    let phase = rng.below(2);
    let horizon_ns = spec.seconds * 1e9;
    let (mut events, mut contended) = (Vec::new(), Vec::new());
    let mut arrival_ns = 0.0;
    loop {
        arrival_ns += rng.exponential(mean_gap_ns);
        if arrival_ns >= horizon_ns && !contended.is_empty() {
            break;
        }
        let session = contended.len() as u32;
        let kind = (session as usize + phase) % 2;
        contended.push(kind == 1);
        for block in 0..blocks[kind] as u32 {
            let due_ns = arrival_ns as u64 + block as u64 * PACED_BLOCK_GAP_NS;
            events.push(Event { due_ns, session, block, last: block as usize + 1 == blocks[kind] });
        }
    }
    events.sort_by_key(|e| (e.due_ns, e.session, e.block));
    Schedule { events, contended }
}

/// The generator's view of time.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Return once `now_ns() >= due_ns` (at once when already past).
    fn wait_until(&self, due_ns: u64);
}

/// The host clock; waiting spins, because a sleeping generator wakes
/// tens of microseconds late and the schedule is finer than that.
struct HostClock(Instant);

impl Clock for HostClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, due_ns: u64) {
        while self.now_ns() < due_ns {
            std::hint::spin_loop();
        }
    }
}

/// Walk the schedule: wait for each event's due time, then hand it to
/// `send` with how late that is. The schedule never moves: when `send`
/// stalls, the events behind it go out late, and since latency is timed
/// from `due_ns` the stall shows in *their* latency too.
pub fn drive(clock: &impl Clock, events: &[Event], mut send: impl FnMut(&Event, u64)) {
    for event in events {
        clock.wait_until(event.due_ns);
        let late_ns = clock.now_ns().saturating_sub(event.due_ns);
        send(event, late_ns);
    }
}

/// A session handed to the closer thread.
struct Closing {
    session: u32,
    last_due_ns: u64,
    handle: SessionHandle,
}

/// What the closer thread saw.
struct Closed {
    session: u32,
    last_due_ns: u64,
    finish_ns: u64,
    done_ns: u64,
    report: Result<SessionReport, ServeError>,
}

pub fn run_paced(spec: &RunSpec, setup: &Setup) -> Section {
    let start = Instant::now();
    let rec = record(setup.tool.machine());
    let plan = schedule(
        spec,
        [rec.logs[0].blocks(), rec.logs[1].blocks()],
        [rec.logs[0].samples.len(), rec.logs[1].samples.len()],
    );
    let record_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let server = start_server(setup.tool.classifier(), rec.stream);
    let start_s = start.elapsed().as_secs_f64();
    let golden = golden();
    let mut late_ns = Vec::with_capacity(plan.events.len());
    let mut open: Vec<Option<SessionHandle>> = plan.contended.iter().map(|_| None).collect();
    let mut shell = Some(SampleBlock::with_capacity(BLOCK_SAMPLES));
    let half_ns = (spec.seconds * 1e9 / 2.0) as u64;
    let backlog = |server: &AnalysisServer| {
        let m = server.metrics();
        m.samples_offered.saturating_sub(m.samples_ingested) as f64
    };
    let mut backlog_mid = None;

    let mut sec = Section::start(spec.trace);
    let mut gen = Generator::new(&mut sec.tracer);
    let clock = HostClock(sec.tracer.epoch());
    let (to_closer, closing) = mpsc::channel::<Closing>();
    let closed: Vec<Closed> = std::thread::scope(|scope| {
        // The closer only parks in `finish()`: the generator never waits
        // for a report, so a slow report cannot slow the schedule.
        let epoch = clock.0;
        let closer = scope.spawn(move || {
            let clock = HostClock(epoch);
            closing
                .iter()
                .map(|c| {
                    let finish_ns = clock.now_ns();
                    let report = c.handle.finish();
                    Closed {
                        session: c.session,
                        last_due_ns: c.last_due_ns,
                        finish_ns,
                        done_ns: clock.now_ns(),
                        report,
                    }
                })
                .collect()
        });
        drive(&clock, &plan.events, |event, late| {
            late_ns.push(late);
            if backlog_mid.is_none() && event.due_ns >= half_ns {
                backlog_mid = Some(backlog(&server));
            }
            let slot = &mut open[event.session as usize];
            if event.block == 0 {
                *slot = Some(sec.tracer.time(gen.open, || server.open_session()));
            }
            let handle = slot.as_ref().expect("a session's blocks are due in order");
            let log = &rec.logs[plan.contended[event.session as usize] as usize];
            let empty = shell.take().expect("every offer returns a shell");
            shell = Some(gen.send(&mut sec.tracer, handle, log, event.block as usize, empty));
            if event.last {
                let handle = slot.take().expect("checked above");
                let closing = Closing { session: event.session, last_due_ns: event.due_ns, handle };
                to_closer.send(closing).expect("the closer outlives the schedule");
            }
        });
        let backlog_end = backlog(&server);
        sec.set("loadgen.backlog_mid", backlog_mid.unwrap_or(backlog_end));
        sec.set("loadgen.backlog_end", backlog_end);
        drop(to_closer);
        closer.join().expect("the closer thread panicked")
    });
    sec.finish();
    let metrics = server.shutdown();

    // A round is a slice of the schedule; a session belongs to the slice
    // its last block was due in.
    let mut closed = closed;
    closed.sort_by_key(|c| c.last_due_ns);
    let mut round = 0;
    for c in &closed {
        while c.last_due_ns / PACED_ROUND_NS > round {
            sec.end_round_lasting(PACED_ROUND_NS as f64 / 1e9);
            round += 1;
        }
        let contended = plan.contended[c.session as usize];
        let checks = check_report(&rec.logs[contended as usize], contended, &c.report, &golden, None);
        sec.tracer.add(OP, c.session, c.last_due_ns, c.done_ns, 1);
        sec.tracer.record(gen.finish, c.done_ns - c.finish_ns);
        sec.record_op((c.done_ns - c.last_due_ns) as f64 / 1e6, checks);
    }
    sec.end_round_lasting(PACED_ROUND_NS as f64 / 1e9);
    // The schedule fixes how long the section takes; only the latencies
    // have a calmest round.
    sec.headline = Headline { wall_s: sec.wall_s, ..sec.best_round() };
    if closed.len() != plan.contended.len() {
        sec.failures.push(format!("{} of {} sessions reported", closed.len(), plan.contended.len()));
    }

    let late_us = stats::sorted(&late_ns.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>());
    let late_p50_us = stats::percentile(&late_us, 50.0);
    sec.set("loadgen.late_p50_us", late_p50_us);
    sec.set("loadgen.late_max_ms", late_us[late_us.len() - 1] / 1e3);
    // An open loop only measures the system while the generator keeps its
    // schedule and the server keeps up; otherwise the run says nothing.
    if late_p50_us > PACED_LATE_P50_LIMIT_US {
        sec.failures.push(format!("invalid run: generator lateness p50 {late_p50_us:.1} us"));
    }
    let (mid, end) = (sec.values["loadgen.backlog_mid"], sec.values["loadgen.backlog_end"]);
    if end > mid + BACKLOG_SLACK_SAMPLES {
        sec.failures.push(format!("invalid run: backlog grew from {mid} samples at half time to {end}"));
    }
    sec.set("setup.record_s", record_s);
    sec.set("serve.start_s", start_s);
    finish_section(&mut sec, &metrics, &gen, &rec, setup.tool.classifier());
    sec
}

/// Samples in flight between an offer and its ingestion are not a
/// backlog: allow a few rings' worth (about 3 ms of offered load) before
/// calling the end-of-schedule backlog a growing one.
const BACKLOG_SLACK_SAMPLES: f64 = 8192.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::load_shipped_model;
    use std::cell::Cell;

    /// Time that only moves when told to.
    struct VirtualClock(Cell<u64>);

    impl Clock for VirtualClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, due_ns: u64) {
            self.0.set(self.0.get().max(due_ns));
        }
    }

    /// One-block sessions due every 100 us; sending costs 10 us, except
    /// that the consumer stalls the third send for 450 us.
    #[test]
    fn a_stall_lengthens_later_latencies_and_leaves_the_schedule_alone() {
        let events: Vec<Event> =
            (0..8).map(|i| Event { due_ns: i * 100_000, session: i as u32, block: 0, last: true }).collect();
        let clock = VirtualClock(Cell::new(0));
        let (mut sent_at, mut latency, mut late) = (Vec::new(), Vec::new(), Vec::new());
        drive(&clock, &events, |event, late_ns| {
            sent_at.push(clock.now_ns());
            late.push(late_ns);
            let cost = if event.session == 2 { 450_000 } else { 10_000 };
            clock.0.set(clock.now_ns() + cost);
            latency.push(clock.now_ns() - event.due_ns);
        });
        // Sessions 3..=6 were due during the stall: they go out late, in
        // order, and their latency counts the wait from their due time.
        assert_eq!(late, vec![0, 0, 0, 350_000, 260_000, 170_000, 80_000, 0]);
        assert_eq!(latency, vec![10_000, 10_000, 450_000, 360_000, 270_000, 180_000, 90_000, 10_000]);
        // Timed from when they were sent — the closed-loop habit — the
        // same ops would all read 10 us and hide the stall.
        let from_send: Vec<u64> =
            sent_at.iter().zip(&latency).zip(&events).map(|((s, l), e)| e.due_ns + l - s).collect();
        assert_eq!(from_send[3..7], [10_000; 4]);
        // The schedule itself did not move: the generator caught up and
        // the last session went out on time.
        assert_eq!(sent_at[7], events[7].due_ns);
    }

    #[test]
    fn the_schedule_offers_the_fixed_rate_under_every_seed() {
        let (blocks, samples) = ([3, 9], [525, 2098]);
        for seed in [1, 2, 3] {
            let spec = RunSpec { seed, seconds: 2.0, trace: false };
            let plan = schedule(&spec, blocks, samples);
            let offered: usize = plan.contended.iter().map(|&c| samples[c as usize]).sum();
            let rate = offered as f64 / 2.0;
            assert!((rate / PACED_SAMPLES_PER_S - 1.0).abs() < 0.05, "seed {seed}: {rate} samples/s");
            assert!(plan.events.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
            assert_eq!(plan.events.iter().filter(|e| e.last).count(), plan.contended.len());
            assert_eq!(plan.events, schedule(&spec, blocks, samples).events);
        }
    }

    #[test]
    fn smoke_passes_its_checks_on_both_workloads() {
        let setup = load_shipped_model();
        let spec = RunSpec { seed: 11, seconds: 0.5, trace: true };
        let sat = run_saturate(&spec, &setup);
        assert_eq!(sat.failures, Vec::<String>::new());
        assert_eq!(sat.op_ms.len() % WAVE_SESSIONS, 0);
        assert_eq!(sat.values["serve.samples_dropped"], 0.0);
        assert_eq!(sat.values["serve.samples_offered"], sat.values["pebs.block.build.samples"]);
        assert!(sat.values["stream.ingest_block.ns_per_sample"] > 0.0);

        let paced = run_paced(&spec, &setup);
        // Lateness depends on the host the tests share; everything else
        // must hold.
        let real: Vec<&String> = paced.failures.iter().filter(|f| !f.starts_with("invalid run")).collect();
        assert_eq!(real, Vec::<&String>::new());
        assert_eq!(paced.values["serve.samples_offered"], paced.values["serve.samples_ingested"]);
        assert!(paced.op_ms.iter().all(|&ms| ms > 0.0));
    }
}
