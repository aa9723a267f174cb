//! Differential tests for the engine's slice body: it must reproduce the
//! per-access oracle (`numasim::oracle::run`) *bit-for-bit* — `RunStats`
//! (including per-channel bytes), the PEBS sample log, and every sampler
//! counter — for any interleaving of `next_run` / `next_zip` sizes. No
//! float tolerances anywhere in this file.

mod common;

use common::{observe_phase, run_on, sampler, sampler_config, Outcome, ScheduledRuns};
use numasim::access::{
    AccessMix, AccessRun, AccessStream, BlockCyclicStream, ChainStream, RandomStream, SeqStream, WithMlp, ZipStream,
};
use numasim::cache::{Cache, CacheStats};
use numasim::config::MachineConfig;
use numasim::engine::{Engine, ThreadSpec};
use numasim::hierarchy::Hierarchy;
use numasim::memmap::{MemoryMap, PlacementPolicy};
use numasim::sched::TenantRun;
use numasim::topology::CoreId;
use pebs::ring::BlockRing;
use pebs::sampler::{AddressSampler, SamplerConfig};
use pebs::stream::StreamingSampler;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A contended multi-thread phase mixing everything the batcher has to get
/// right: write mixes, reps (LFB events), per-segment compute (the
/// headline bug), an MLP override, first-touch and interleaved placement.
fn make_threads(cfg: &MachineConfig, mm: &mut MemoryMap, schedule: Option<&[u64]>) -> Vec<ThreadSpec> {
    let a = mm.alloc("a", 8 << 20, PlacementPolicy::FirstTouch);
    let b = mm.alloc("b", 2 << 20, PlacementPolicy::interleave_all(cfg.topology.num_nodes()));
    let nthreads = 8u64;
    let binding = cfg.topology.bind_threads(nthreads as usize, cfg.topology.num_nodes());
    binding
        .iter()
        .enumerate()
        .map(|(i, core)| {
            let share = a.size / nthreads;
            let seq = SeqStream::new(a.base + i as u64 * share, share, 1, AccessMix::write_every(3))
                .with_compute(0.5 * i as f64)
                .with_reps(4);
            let blk = BlockCyclicStream::new(b.base, b.size, 4096, 8, i as u64, 1, AccessMix::read_only());
            let chain = ChainStream::new(vec![Box::new(seq), Box::new(WithMlp::new(blk, 2.0))]);
            ThreadSpec::new(i as u32, *core, ScheduledRuns::wrap(Box::new(chain), schedule))
        })
        .collect()
}

fn run_sampled(oracle: bool, schedule: Option<&[u64]>) -> Outcome {
    let cfg = MachineConfig::scaled();
    let mut mm = MemoryMap::new(&cfg);
    let threads = make_threads(&cfg, &mut mm, schedule);
    observe_phase(&cfg, mm, sampler(23), threads, oracle)
}

/// The tentpole guarantee: slice body == oracle, bit for bit, with a live
/// PEBS sampler attached — `RunStats` (hence channel bytes), the full
/// sample log, the observed-access counter (which salts latency jitter),
/// and the suppression counter — under every run-cap schedule.
#[test]
fn batched_reproduces_reference_bit_for_bit() {
    let reference = run_sampled(true, None);
    assert!(!reference.samples.is_empty(), "phase must actually sample");
    assert!(reference.suppressed > 0, "threshold must actually suppress");
    let schedules: [Option<&[u64]>; 5] = [None, Some(&[1]), Some(&[7]), Some(&[64]), Some(&[1, 7, 64, u64::MAX])];
    for schedule in schedules {
        assert_eq!(run_sampled(false, schedule), reference, "batched run (schedule {schedule:?}) diverged");
    }
}

/// Same guarantee through the streaming adapter: the ring's drained
/// contents and overflow accounting match per-event delivery exactly.
#[test]
fn streaming_sampler_ring_is_identical_across_modes() {
    let run = |oracle: bool| {
        let cfg = MachineConfig::scaled();
        let mut mm = MemoryMap::new(&cfg);
        let threads = make_threads(&cfg, &mut mm, None);
        let obs = StreamingSampler::new(sampler_config(23), BlockRing::new(1 << 16));
        let mut eng = Engine::new(&cfg, mm, obs);
        let stats = run_on(&mut eng, vec![TenantRun::new(0, threads)], oracle).run;
        let (_, s) = eng.into_parts();
        let observed = s.observed_accesses();
        let mut ring = s.into_ring();
        let mut drained = Vec::new();
        while let Some((block, _)) = ring.pop_block() {
            drained.extend(block.iter());
        }
        (stats, observed, ring.dropped(), drained)
    };
    let reference = run(true);
    let batched = run(false);
    assert!(!reference.3.is_empty(), "ring must carry samples");
    assert_eq!(batched, reference);
}

/// Property: *any* interleaving of run sizes — including ones that chop
/// runs mid-line-group or span segment boundaries — reproduces the
/// oracle access-for-access. Smaller machine so 64 cases stay cheap.
fn run_tiny(oracle: bool, schedule: Option<&[u64]>) -> Outcome {
    let cfg = MachineConfig::tiny();
    let mut mm = MemoryMap::new(&cfg);
    let a = mm.alloc("a", 256 << 10, PlacementPolicy::FirstTouch);
    let b = mm.alloc("b", 128 << 10, PlacementPolicy::interleave_all(2));
    let threads = (0..4u64)
        .map(|i| {
            let share = a.size / 4;
            let seq = SeqStream::new(a.base + i * share, share, 1, AccessMix::write_every(3))
                .with_compute(0.5 * i as f64)
                .with_reps(4);
            let blk = BlockCyclicStream::new(b.base, b.size, 4096, 4, i, 1, AccessMix::read_only());
            let chain = ChainStream::new(vec![Box::new(seq), Box::new(WithMlp::new(blk, 2.0))]);
            ThreadSpec::new(i as u32, CoreId((i % 4) as u32), ScheduledRuns::wrap(Box::new(chain), schedule))
        })
        .collect();
    observe_phase(&cfg, mm, sampler(23), threads, oracle)
}

fn tiny_reference() -> &'static Outcome {
    static REF: std::sync::OnceLock<Outcome> = std::sync::OnceLock::new();
    REF.get_or_init(|| run_tiny(true, None))
}

fn arb_cap() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(7), Just(64), Just(u64::MAX), 1u64..97]
}

proptest! {
    #[test]
    fn arbitrary_run_schedules_match_reference(schedule in proptest::collection::vec(arb_cap(), 1..6)) {
        prop_assert_eq!(&run_tiny(false, Some(&schedule)), tiny_reference(), "schedule {:?} diverged", schedule);
    }
}

/// A fused-walk-heavy phase: line-stride read-only streams (maximal span
/// fusion, LFB reps inside spans) over first-touch and interleaved
/// placement, with the live sampler chopping spans at every sample point.
/// The slice body and the oracle must agree on everything observable.
#[test]
fn fused_streaming_phase_matches_reference_under_sampling() {
    let run = |oracle: bool| {
        let cfg = MachineConfig::scaled();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 8 << 20, PlacementPolicy::FirstTouch);
        let b = mm.alloc("b", 2 << 20, PlacementPolicy::interleave_all(cfg.topology.num_nodes()));
        let binding = cfg.topology.bind_threads(8, cfg.topology.num_nodes());
        let threads: Vec<ThreadSpec> = binding
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let share = a.size / 8;
                let seq = SeqStream::new(a.base + i as u64 * share, share, 1, AccessMix::read_only())
                    .with_compute(0.5 * i as f64)
                    .with_reps(4);
                let blk = BlockCyclicStream::new(b.base, b.size, 4096, 8, i as u64, 1, AccessMix::read_only());
                let chain = ChainStream::new(vec![Box::new(seq), Box::new(WithMlp::new(blk, 2.0))]);
                ThreadSpec::new(i as u32, *core, Box::new(chain))
            })
            .collect();
        observe_phase(&cfg, mm, sampler(23), threads, oracle)
    };
    let reference = run(true);
    assert!(!reference.samples.is_empty(), "phase must actually sample");
    assert_eq!(run(false), reference, "fused batched run diverged");
}

/// Zip-heavy phases (dotv-shaped): multi-lane `ZipStream`s whose `next_run`
/// degrades to length-1 runs, so batched throughput rides on `next_zip` +
/// the interleaved replay. Interleaved placement makes home segments end
/// mid-span (segment-flush accounting), a shorter write lane drains early
/// (live-set shrink mid-phase), and the sampler chops spans at every
/// sample point. The bare zip runs under a period long enough that the
/// observer's quiet budget lets interleaved spans commit (and cross the
/// 4 KiB interleave boundary mid-span). The AMG-shaped one — the whole zip
/// under an MLP override, its third lane block-cyclic — must keep every
/// lane's override through `next_zip`: under period 23 (short commits),
/// period 1 (every lane line drained singly) and period 997.
#[test]
fn zipped_streams_match_reference_under_sampling() {
    let run = |oracle: bool, wrapped: bool, period: u64| {
        let cfg = MachineConfig::scaled();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 4 << 20, PlacementPolicy::FirstTouch);
        let b = mm.alloc("b", 4 << 20, PlacementPolicy::interleave_all(cfg.topology.num_nodes()));
        let c = mm.alloc("c", 1 << 20, PlacementPolicy::interleave_all(2));
        let binding = cfg.topology.bind_threads(8, cfg.topology.num_nodes());
        let threads: Vec<ThreadSpec> = binding
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let (sa, sb, sc) = (a.size / 8, b.size / 8, c.size / 8);
                let third: Box<dyn AccessStream> = if wrapped {
                    Box::new(BlockCyclicStream::new(c.base, c.size, 4096, 8, i as u64, 2, AccessMix::write_every(1)))
                } else {
                    Box::new(SeqStream::new(c.base + i as u64 * sc, sc, 2, AccessMix::write_every(1)).with_reps(2))
                };
                let zip = ZipStream::new(vec![
                    Box::new(
                        SeqStream::new(a.base + i as u64 * sa, sa, 2, AccessMix::read_only())
                            .with_compute(0.25 * i as f64)
                            .with_reps(4),
                    ),
                    Box::new(SeqStream::new(b.base + i as u64 * sb, sb, 2, AccessMix::read_only()).with_reps(4)),
                    third,
                ]);
                let stream: Box<dyn AccessStream> =
                    if wrapped { Box::new(WithMlp::new(zip, 2.0)) } else { Box::new(zip) };
                ThreadSpec::new(i as u32, *core, stream)
            })
            .collect();
        observe_phase(&cfg, mm, sampler(period), threads, oracle)
    };
    for (wrapped, period) in [(false, 997), (true, 23), (true, 1), (true, 997)] {
        let reference = run(true, wrapped, period);
        assert!(!reference.samples.is_empty(), "phase must actually sample");
        assert_eq!(run(false, wrapped, period), reference, "zip run (wrapped {wrapped}, period {period}) diverged");
    }
}

/// The store pattern rides the run: runs now span stores, so the engine
/// evaluates `is_write` per delivered event from the run's period and
/// phase. Every stream shape that hands out such runs — sequential (with a
/// wrap), block-cyclic, and two- and 29-lane zips that mix both — must
/// report the direction the per-access oracle reports, for every event
/// (the period-1 sampler records them all, so nothing fuses and every
/// position of every long run is evaluated) and at the events that follow
/// fused commits (period 997), for any `next_run`/`next_zip` cap schedule.
#[test]
fn store_pattern_matches_reference_for_every_event() {
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Seq,
        BlockCyclic,
        Zip2,
        Zip29,
    }
    let run = |oracle: bool, shape: Shape, we: u32, reps: u16, period: u64, schedule: Option<&[u64]>| {
        let cfg = MachineConfig::tiny();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 256 << 10, PlacementPolicy::FirstTouch);
        let b = mm.alloc("b", 128 << 10, PlacementPolicy::interleave_all(2));
        let mix = if we == 0 { AccessMix::read_only() } else { AccessMix::write_every(we) };
        let threads = (0..4u64)
            .map(|i| {
                let share = a.size / 4;
                let seq = || -> Box<dyn AccessStream> {
                    let s = SeqStream::new(a.base + i * share, share, 2, mix).with_start(64 * 100 * (i + 1));
                    Box::new(s.with_reps(reps))
                };
                let blk = || -> Box<dyn AccessStream> {
                    Box::new(BlockCyclicStream::new(b.base, b.size, 4096, 4, i, 2, mix).with_reps(reps))
                };
                let stream: Box<dyn AccessStream> = match shape {
                    Shape::Seq => seq(),
                    Shape::BlockCyclic => blk(),
                    Shape::Zip2 => Box::new(ZipStream::new(vec![seq(), blk()])),
                    Shape::Zip29 => {
                        // 29 slices of the share, of staggered lengths so
                        // lanes drain one by one and counters desynchronise.
                        let slice = share / 29 / 64 * 64;
                        let lanes = (0..29u64).map(|j| -> Box<dyn AccessStream> {
                            let base = a.base + i * share + j * slice;
                            Box::new(SeqStream::new(base, slice - 64 * (j % 5), 2, mix).with_reps(reps))
                        });
                        Box::new(ZipStream::new(lanes.collect()))
                    }
                };
                ThreadSpec::new(i as u32, CoreId(i as u32), ScheduledRuns::wrap(stream, schedule))
            })
            .collect();
        let obs = AddressSampler::new(SamplerConfig { latency_threshold: 0.0, ..sampler_config(period) });
        observe_phase(&cfg, mm, obs, threads, oracle)
    };
    let schedules: [Option<&[u64]>; 5] = [None, Some(&[1]), Some(&[7]), Some(&[64]), Some(&[1, 7, 64, u64::MAX])];
    for shape in [Shape::Seq, Shape::BlockCyclic, Shape::Zip2, Shape::Zip29] {
        for we in [0u32, 1, 2, 3, 5, 6, 29] {
            for reps in [1u16, 4] {
                for period in [1u64, 997] {
                    let reference = run(true, shape, we, reps, period, None);
                    if period == 1 {
                        assert_eq!(reference.samples.len() as u64, reference.observed, "period 1 records every event");
                        let stores = reference.samples.iter().filter(|s| s.is_write).count();
                        let want = if we == 0 { 0 } else { reference.samples.len() / we as usize };
                        assert!(stores.abs_diff(want) <= 4 * 29 * reps as usize, "{shape:?} we {we}: {stores} stores");
                    }
                    for schedule in schedules {
                        let batched = run(false, shape, we, reps, period, schedule);
                        assert_eq!(
                            batched, reference,
                            "{shape:?} write_every {we} reps {reps} period {period} schedule {schedule:?} diverged"
                        );
                    }
                }
            }
        }
    }
}

/// The run-cap schedules every differential case below is held to.
const SCHEDULES: [Option<&[u64]>; 5] = [None, Some(&[1]), Some(&[7]), Some(&[64]), Some(&[1, 7, 64, u64::MAX])];

/// Off-grid compute costs: countv's 0.8 and IRSmk's 1.2 are not dyadic, so
/// no clock binade's grid holds them and every cost chain takes its
/// literal branch — the fused sequential walk (`fp::bulk_line_chain`), the
/// zip replay (`fp::LineStep`) and the per-line rep tail (`fp::bulk_add`)
/// — with a rep tail (IRSmk's reps 4) and without one. The slice body must
/// reproduce the oracle under every run-cap schedule, with long quiet
/// budgets (period 997) and short ones (period 23).
#[test]
fn off_grid_costs_match_reference() {
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Seq,
        Zip,
        Random,
    }
    let run = |oracle: bool, shape: Shape, reps: u16, period: u64, schedule: Option<&[u64]>| {
        let cfg = MachineConfig::tiny();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 256 << 10, PlacementPolicy::FirstTouch);
        let b = mm.alloc("b", 128 << 10, PlacementPolicy::interleave_all(2));
        let (sa, sb) = (a.size / 4, b.size / 4);
        let threads = (0..4u64)
            .map(|i| {
                let seq = |base: u64, len: u64, compute: f64| {
                    SeqStream::new(base + i * len, len, 2, AccessMix::write_every(3))
                        .with_reps(reps)
                        .with_compute(compute)
                };
                let stream: Box<dyn AccessStream> = match shape {
                    Shape::Seq => Box::new(seq(a.base, sa, 0.8)),
                    Shape::Zip => {
                        Box::new(ZipStream::new(vec![Box::new(seq(a.base, sa, 0.8)), Box::new(seq(b.base, sb, 1.2))]))
                    }
                    Shape::Random => Box::new(
                        RandomStream::new(a.base, a.size, 6000, 11 + i, AccessMix::write_every(5))
                            .with_reps(reps)
                            .with_compute(1.2),
                    ),
                };
                ThreadSpec::new(i as u32, CoreId(i as u32), ScheduledRuns::wrap(stream, schedule))
            })
            .collect();
        observe_phase(&cfg, mm, sampler(period), threads, oracle)
    };
    for shape in [Shape::Seq, Shape::Zip, Shape::Random] {
        for reps in [1u16, 4] {
            for period in [23u64, 997] {
                let reference = run(true, shape, reps, period, None);
                assert!(!reference.samples.is_empty(), "phase must actually sample");
                for schedule in SCHEDULES {
                    assert_eq!(
                        run(false, shape, reps, period, schedule),
                        reference,
                        "{shape:?} reps {reps} period {period} schedule {schedule:?} diverged"
                    );
                }
            }
        }
    }
}

/// Bounded multi-page home spans: mid-phase, threads on both nodes
/// first-touch alternate two-page blocks of one first-touch object's first
/// half, then sweep all of it, while threads on both nodes sweep it from
/// the start. The sweeps meet runs of pages touched with one home, pages
/// homed on the other node, and untouched pages they establish
/// themselves; the slice body must match the oracle under every schedule.
#[test]
fn first_touch_spans_over_interleaved_pages_match_reference() {
    let run = |oracle: bool, schedule: Option<&[u64]>| {
        let cfg = MachineConfig::tiny();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 512 << 10, PlacementPolicy::FirstTouch);
        let page = cfg.mem.page_size;
        // Cores 0 and 1 sit on node 0, cores 2 and 3 on node 1.
        let threads = (0..4u64)
            .map(|i| {
                let sweep = SeqStream::new(a.base, a.size, 1, AccessMix::read_only())
                    .with_reps(2)
                    .with_compute(1.5)
                    .with_start(i * 5 * page + 64 * i);
                let stream: Box<dyn AccessStream> = if i % 2 == 0 {
                    let touch =
                        BlockCyclicStream::new(a.base, a.size / 2, 2 * page, 2, i / 2, 1, AccessMix::write_only());
                    Box::new(ChainStream::new(vec![Box::new(touch), Box::new(sweep)]))
                } else {
                    Box::new(sweep)
                };
                ThreadSpec::new(i as u32, CoreId(i as u32), ScheduledRuns::wrap(stream, schedule))
            })
            .collect();
        observe_phase(&cfg, mm, sampler(997), threads, oracle)
    };
    let reference = run(true, None);
    assert!(!reference.samples.is_empty(), "phase must actually sample");
    for schedule in SCHEDULES {
        assert_eq!(run(false, schedule), reference, "schedule {schedule:?} diverged");
    }
}

/// Counts what the engine's interleaved pulls return: refused pulls, and
/// iterations handed out as interleaved spans.
struct CountZips {
    inner: Box<dyn AccessStream>,
    refused: Arc<AtomicU64>,
    zipped: Arc<AtomicU64>,
}

impl AccessStream for CountZips {
    fn next_run(&mut self, max: u64) -> Option<AccessRun> {
        self.inner.next_run(max)
    }

    fn seq_window(&self) -> Option<AccessRun> {
        self.inner.seq_window()
    }

    fn next_zip(&mut self, line_step: u64, max_iters: u64, lanes: &mut Vec<AccessRun>) -> u64 {
        let iters = self.inner.next_zip(line_step, max_iters, lanes);
        let counter = if iters == 0 { &self.refused } else { &self.zipped };
        counter.fetch_add(iters.max(1), Ordering::Relaxed);
        iters
    }
}

/// Zip-pull backoff: each thread chains a zip of a random lane with a
/// sequential one (no interleaved span exists, so every pull is refused
/// and the engine backs off) into a zip of two sequential lanes. Skipping
/// a pull consumes nothing, so the run must match the oracle under every
/// run-cap schedule; the backoff must skip most refused pulls; and a
/// thread still backed off when the second segment starts must go on to
/// pull it as interleaved spans (every schedule but `[1]`, whose cap is
/// below the shortest span, lets it).
#[test]
fn zip_pull_backoff_matches_reference_and_still_fuses_the_next_segment() {
    const LINES: u64 = 2048;
    let run = |oracle: bool, schedule: Option<&[u64]>| {
        let cfg = MachineConfig::tiny();
        let mut mm = MemoryMap::new(&cfg);
        let a = mm.alloc("a", 4 * LINES * 64, PlacementPolicy::FirstTouch);
        let b = mm.alloc("b", 8 * LINES * 64, PlacementPolicy::interleave_all(2));
        let (refused, zipped) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let threads = (0..4u64)
            .map(|i| {
                let len = LINES * 64;
                let seq = |base: u64, compute: f64| {
                    Box::new(SeqStream::new(base, len, 1, AccessMix::read_only()).with_reps(2).with_compute(compute))
                };
                let random = RandomStream::new(b.base, b.size, LINES, 3 + i, AccessMix::write_every(4));
                let first = ZipStream::new(vec![Box::new(random), seq(a.base + i * len, 2.0)]);
                let second = ZipStream::new(vec![seq(b.base + 2 * i * len, 1.0), seq(b.base + (2 * i + 1) * len, 0.5)]);
                let chain = ChainStream::new(vec![Box::new(first), Box::new(second)]);
                let counted = CountZips {
                    inner: ScheduledRuns::wrap(Box::new(chain), schedule),
                    refused: refused.clone(),
                    zipped: zipped.clone(),
                };
                ThreadSpec::new(i as u32, CoreId(i as u32), Box::new(counted))
            })
            .collect();
        let outcome = observe_phase(&cfg, mm, sampler(997), threads, oracle);
        (outcome, refused.load(Ordering::Relaxed), zipped.load(Ordering::Relaxed))
    };
    let (reference, _, _) = run(true, None);
    assert!(!reference.samples.is_empty(), "phase must actually sample");
    for schedule in SCHEDULES {
        let (outcome, refused, zipped) = run(false, schedule);
        assert_eq!(outcome, reference, "schedule {schedule:?} diverged");
        // The first segments hold 4 × 2 × LINES accesses, one pull each
        // without the backoff.
        assert!(refused < 8 * LINES / 8, "schedule {schedule:?}: {refused} refused pulls");
        if schedule != Some(&[1]) {
            assert!(zipped > LINES, "schedule {schedule:?}: second segments zipped {zipped} iterations");
        }
    }
}

/// Cache-layer differential oracle: `access_span` must equal per-line
/// `access` — identical hit/miss deltas *and* identical tag/head state —
/// over streaming, cyclic-rescan, random-single, and arbitrary mixed span
/// patterns, on geometries from degenerate (one set) to L3-like.
fn arb_span_pattern() -> impl Strategy<Value = Vec<(u64, u64)>> {
    let span = prop_oneof![
        (0u64..64, 1u64..260),      // arbitrary span, often over-capacity
        (0u64..512, Just(1u64)),    // single random lines
        Just((0u64, 96u64)),        // cyclic rescan of one fixed range
        (1000u64..1004, 32u64..70), // disjoint streaming region
    ];
    proptest::collection::vec(span, 1..12)
}

proptest! {
    #[test]
    fn cache_span_walk_matches_per_line_oracle(
        geometry in prop_oneof![Just((1, 4)), Just((4, 2)), Just((8, 4)), Just((16, 8)), Just((64, 8))],
        spans in arb_span_pattern(),
    ) {
        let (sets, assoc) = geometry;
        let mut oracle = Cache::new(sets, assoc);
        let mut subject = oracle.clone();
        for &(first, n) in &spans {
            let mut want = CacheStats::default();
            for line in first..first + n {
                if oracle.access(line) {
                    want.hits += 1;
                } else {
                    want.misses += 1;
                }
            }
            let got = subject.access_span(first, n);
            prop_assert_eq!(got, want, "span ({}, {}) stats diverged", first, n);
            prop_assert_eq!(&oracle, &subject, "span ({}, {}) left different cache state", first, n);
        }
    }

    /// Same oracle one layer up: the three-level span walk driven the way
    /// the engine drives it (prove, install, fall back per line), with
    /// spans interleaved across cores sharing an L3.
    #[test]
    fn hierarchy_span_walk_matches_per_line_oracle(
        ops in proptest::collection::vec((0u32..4, 0u64..800, 1u64..200), 1..10),
    ) {
        let cfg = MachineConfig::tiny();
        let mut oracle = Hierarchy::new(&cfg);
        let mut subject = Hierarchy::new(&cfg);
        for &(core, first, n) in &ops {
            for line in first..first + n {
                oracle.cache_access(CoreId(core), line * 64);
            }
            let mut cc = subject.core_caches(CoreId(core));
            let mut cur = first;
            let mut rem = n;
            while rem > 0 {
                let k = cc.span_miss_prefix(cur, rem);
                if k > 0 {
                    cc.install_span(cur, k);
                    cur += k;
                    rem -= k;
                } else {
                    cc.access(cur * 64);
                    cur += 1;
                    rem -= 1;
                }
            }
            // Tag/head state and per-level counters both sit behind
            // `Hierarchy`'s equality, so any classification difference —
            // not just a residency difference — fails here.
            prop_assert_eq!(&oracle, &subject, "op ({}, {}, {}) diverged", core, first, n);
        }
    }
}
