//! Differential tests for the discrete-event scheduler: a scenario whose
//! tenants jointly hold the threads of a single-workload phase — in the
//! same global order, all arriving at time 0, with no bursts or
//! migrations — must reproduce the per-access oracle
//! (`numasim::oracle::run`) *bit-for-bit*: `RunStats` (including
//! per-channel bytes), the PEBS sample log, and every sampler counter. No
//! float tolerances anywhere in this file.
//!
//! Only *contiguous, order-preserving* tenant splits are bit-identical:
//! the sampler's latency jitter is salted on the global observed-access
//! counter, so any reordering of threads reorders observation and changes
//! which samples are suppressed. The proptest therefore ranges over
//! arbitrary split masks, not arbitrary permutations.

mod common;

use common::{observe, observe_phase, sampler, Outcome, ScheduledRuns};
use numasim::access::{AccessMix, AccessStream, BlockCyclicStream, ChainStream, SeqStream, WithMlp, ZipStream};
use numasim::config::MachineConfig;
use numasim::engine::{Engine, ThreadSpec};
use numasim::memmap::{MemoryMap, PlacementPolicy};
use numasim::sched::{TenantRun, TenantStats};
use numasim::topology::CoreId;
use proptest::prelude::*;

/// The differential phase of `tests/differential.rs`: write mixes, reps
/// (LFB events), per-segment compute, an MLP override, first-touch and
/// interleaved placement, across all four sockets.
fn make_threads(cfg: &MachineConfig, mm: &mut MemoryMap) -> Vec<ThreadSpec> {
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
            let chain: Box<dyn AccessStream> =
                Box::new(ChainStream::new(vec![Box::new(seq), Box::new(WithMlp::new(blk, 2.0))]));
            ThreadSpec::new(i as u32, *core, chain)
        })
        .collect()
}

fn run_reference() -> Outcome {
    let cfg = MachineConfig::scaled();
    let mut mm = MemoryMap::new(&cfg);
    let threads = make_threads(&cfg, &mut mm);
    observe_phase(&cfg, mm, sampler(23), threads, true)
}

/// Partition `threads` into contiguous tenant groups of the given sizes
/// (order preserved) and run them through the scheduler.
fn run_scheduled(cfg: &MachineConfig, mm: MemoryMap, threads: Vec<ThreadSpec>, split: &[usize]) -> Outcome {
    assert_eq!(split.iter().sum::<usize>(), threads.len(), "split must cover every thread");
    let mut tenants = Vec::new();
    let mut iter = threads.into_iter();
    for (tid, &n) in split.iter().enumerate() {
        tenants.push(TenantRun::new(tid as u32, iter.by_ref().take(n).collect()));
    }
    observe(cfg, mm, sampler(23), tenants, false).0
}

/// The tentpole guarantee at the facade level: a single-tenant scenario —
/// and any fixed contiguous multi-tenant split — reproduces the oracle's
/// one-tenant run exactly, with a live PEBS sampler attached.
#[test]
fn scheduler_reproduces_reference_bit_for_bit() {
    let reference = run_reference();
    assert!(!reference.samples.is_empty(), "phase must actually sample");
    assert!(reference.suppressed > 0, "threshold must actually suppress");
    let splits: [&[usize]; 5] = [&[8], &[4, 4], &[1, 7], &[2, 3, 3], &[1, 1, 1, 1, 1, 1, 1, 1]];
    for split in splits {
        let cfg = MachineConfig::scaled();
        let mut mm = MemoryMap::new(&cfg);
        let threads = make_threads(&cfg, &mut mm);
        let scheduled = run_scheduled(&cfg, mm, threads, split);
        assert_eq!(scheduled, reference, "scheduled run (split {split:?}) diverged");
    }
}

/// Per-tenant rollups must partition the global counts: no access is lost
/// or double-counted across tenant boundaries.
#[test]
fn tenant_rollups_partition_the_global_counts() {
    let cfg = MachineConfig::scaled();
    let mut mm = MemoryMap::new(&cfg);
    let threads = make_threads(&cfg, &mut mm);
    let mut tenants = Vec::new();
    let mut iter = threads.into_iter();
    for (tid, n) in [(0u32, 3usize), (1, 5)] {
        tenants.push(TenantRun::new(tid, iter.by_ref().take(n).collect()));
    }
    let mut eng = Engine::new(&cfg, mm, numasim::engine::NullObserver);
    let stats = eng.run(tenants);
    let mut rollup = numasim::stats::AccessCounts::default();
    for t in &stats.tenants {
        rollup.merge(&t.counts);
    }
    assert_eq!(rollup, stats.run.counts);
    let max_finish = stats.tenants.iter().map(|t| t.finish_cycles).fold(0.0f64, f64::max);
    assert_eq!(max_finish, stats.run.cycles);
}

/// Smaller machine for the property test so 64 cases stay cheap.
fn make_tiny_threads(mm: &mut MemoryMap) -> Vec<ThreadSpec> {
    let a = mm.alloc("a", 256 << 10, PlacementPolicy::FirstTouch);
    let b = mm.alloc("b", 128 << 10, PlacementPolicy::interleave_all(2));
    (0..4u64)
        .map(|i| {
            let share = a.size / 4;
            let seq = SeqStream::new(a.base + i * share, share, 1, AccessMix::write_every(3))
                .with_compute(0.5 * i as f64)
                .with_reps(4);
            let blk = BlockCyclicStream::new(b.base, b.size, 4096, 4, i, 1, AccessMix::read_only());
            let chain: Box<dyn AccessStream> =
                Box::new(ChainStream::new(vec![Box::new(seq), Box::new(WithMlp::new(blk, 2.0))]));
            ThreadSpec::new(i as u32, CoreId((i % 4) as u32), chain)
        })
        .collect()
}

fn tiny_reference() -> &'static Outcome {
    static REF: std::sync::OnceLock<Outcome> = std::sync::OnceLock::new();
    REF.get_or_init(|| {
        let cfg = MachineConfig::tiny();
        let mut mm = MemoryMap::new(&cfg);
        let threads = make_tiny_threads(&mut mm);
        observe_phase(&cfg, mm, sampler(23), threads, true)
    })
}

/// A split mask over 4 threads: bit `i` set means "start a new tenant
/// before thread `i+1`", covering every contiguous partition from one
/// 4-thread tenant to four singletons.
fn split_from_mask(mask: u8) -> Vec<usize> {
    let mut split = vec![1usize];
    for i in 0..3 {
        if mask & (1 << i) != 0 {
            split.push(1);
        } else {
            *split.last_mut().unwrap() += 1;
        }
    }
    split
}

proptest! {
    #[test]
    fn arbitrary_tenant_splits_match_reference(mask in 0u8..8) {
        let split = split_from_mask(mask);
        let cfg = MachineConfig::tiny();
        let mut mm = MemoryMap::new(&cfg);
        let threads = make_tiny_threads(&mut mm);
        let scheduled = run_scheduled(&cfg, mm, threads, &split);
        prop_assert_eq!(&scheduled, tiny_reference(), "split {:?} diverged", split);
    }
}

// ---- scenarios proper ---------------------------------------------------
//
// Staggered arrivals, burst gating and migrations are the scheduler's, so
// the oracle for them is the scheduler itself driving the per-access slice
// body: `Engine::run` must equal `oracle::run` on the full `ScenarioStats`
// and on everything the sampler recorded.

/// Two tenants' worth of threads on the tiny machine: the chained
/// sequential/block-cyclic mix above, a scan of a `Replicated` object (its
/// home is the reader's node, so a migration must re-home it mid-span),
/// and an interleaved (zip) segment — a migration can land in every fast
/// path. Every stream's pulls are clipped to `schedule`.
fn make_dynamic_threads(mm: &mut MemoryMap, schedule: &[u64]) -> Vec<ThreadSpec> {
    let a = mm.alloc("a", 256 << 10, PlacementPolicy::FirstTouch);
    let b = mm.alloc("b", 128 << 10, PlacementPolicy::interleave_all(2));
    let r = mm.alloc("r", 64 << 10, PlacementPolicy::Replicated);
    (0..4u64)
        .map(|i| {
            let (sa, sb) = (a.size / 4, b.size / 4);
            let seq = SeqStream::new(a.base + i * sa, sa, 1, AccessMix::write_every(3))
                .with_compute(0.5 * i as f64)
                .with_reps(4);
            let blk = BlockCyclicStream::new(b.base, b.size, 4096, 4, i, 1, AccessMix::read_only());
            let lanes: Vec<Box<dyn AccessStream>> = vec![
                Box::new(SeqStream::new(r.base, r.size, 2, AccessMix::read_only()).with_reps(2)),
                Box::new(SeqStream::new(b.base + i * sb, sb, 4, AccessMix::read_only())),
            ];
            let rep = SeqStream::new(r.base, r.size, 1, AccessMix::read_only()).with_reps(2);
            let chain = ChainStream::new(vec![
                Box::new(seq),
                Box::new(rep),
                Box::new(WithMlp::new(blk, 2.0)),
                Box::new(ZipStream::new(lanes)),
            ]);
            ThreadSpec::new(i as u32, CoreId(i as u32), ScheduledRuns::wrap(Box::new(chain), Some(schedule)))
        })
        .collect()
}

/// One tenant's schedule: arrival, optional duty cycle, and migrations as
/// (which of its two threads, when, destination core).
#[derive(Debug, Clone)]
struct Dynamics {
    arrival: f64,
    burst: Option<(f64, f64)>,
    migrations: Vec<(u32, f64, u32)>,
}

fn arb_dynamics() -> impl Strategy<Value = Dynamics> {
    (
        prop_oneof![Just(0.0), 0.0f64..150_000.0],
        proptest::option::of((2_000.0f64..60_000.0, 0.0f64..60_000.0)),
        proptest::collection::vec((0u32..2, 0.0f64..400_000.0, 0u32..4), 0..3),
    )
        .prop_map(|(arrival, burst, migrations)| Dynamics { arrival, burst, migrations })
}

/// Machine-wide outcome plus per-tenant stats of one dynamic scenario.
fn run_dynamic(oracle: bool, dynamics: &[Dynamics; 2], period: u64, schedule: &[u64]) -> (Outcome, Vec<TenantStats>) {
    let cfg = MachineConfig::tiny();
    let mut mm = MemoryMap::new(&cfg);
    let mut threads = make_dynamic_threads(&mut mm, schedule).into_iter();
    let tenants = dynamics
        .iter()
        .enumerate()
        .map(|(tid, d)| {
            let first = 2 * tid as u32;
            let mut tenant = TenantRun::new(tid as u32, threads.by_ref().take(2).collect()).arriving_at(d.arrival);
            if let Some((on, off)) = d.burst {
                tenant = tenant.bursty(on, off);
            }
            for &(which, at, to) in &d.migrations {
                tenant = tenant.migrate(at, first + which, CoreId(to));
            }
            tenant
        })
        .collect();
    observe(&cfg, mm, sampler(period), tenants, oracle)
}

proptest! {
    #[test]
    fn batched_scenarios_match_reference_scenarios(
        d0 in arb_dynamics(),
        d1 in arb_dynamics(),
        period in prop_oneof![Just(23u64), Just(997)],
        schedule in proptest::collection::vec(prop_oneof![Just(1u64), Just(7), Just(u64::MAX), 1u64..97], 1..4),
    ) {
        let dynamics = [d0, d1];
        let reference = run_dynamic(true, &dynamics, period, &schedule);
        prop_assert!(!reference.0.samples.is_empty(), "scenario must actually sample");
        let batched = run_dynamic(false, &dynamics, period, &schedule);
        prop_assert_eq!(&batched, &reference, "{:?} period {} schedule {:?} diverged", dynamics, period, schedule);
    }
}
