//! # runcache — content-addressed memoization of simulator runs
//!
//! The simulator is deterministic: a run's entire outcome — per-phase
//! [`numasim::stats::RunStats`], the PEBS sample log, the observed access
//! count — is a pure function of the machine configuration, the workload
//! identity, the run configuration (seed included), and the sampler
//! configuration. The training grid, cross-validation, the sweep driver,
//! and the table/figure binaries re-simulate the same runs many times
//! over; this crate makes the second and every later request a disk read.
//!
//! * [`key::RunKey`] — a stable 128-bit structural hash over everything
//!   that determines the outcome (see the module docs for why workload
//!   name + `RunConfig` stands in for the unhashable phase `ThreadSpec`s);
//! * [`codec`] — a compact columnar (struct-of-arrays) binary codec for
//!   sample logs and run statistics, bit-exact on round-trip;
//! * [`store::RunCache`] — one file per key, hash-verified reads that
//!   degrade to a recompute on *any* corruption or schema version
//!   mismatch, and writes that go to a unique temp file and are `rename`d
//!   into place, so threads and processes can share one directory; with
//!   hit/miss/bytes counters;
//! * [`run_memo`] — the drop-in memoized form of
//!   [`workloads::runner::run`].
//!
//! The cache is **transparent by construction**: every served artifact is
//! byte-identical to a fresh simulation (differential tests in
//! `tests/runcache.rs` at the workspace root prove it for both sampling
//! backends), so enabling it can change wall-clock time only.

pub mod codec;
pub mod key;
pub mod store;

pub use key::{RunKey, SCHEMA_VERSION};
pub use store::{CacheMetrics, CachedRun, RunCache};

use std::time::Instant;
use workloads::config::RunConfig;
use workloads::runner::{self, PhaseOutcome, RunOutcome};
use workloads::spec::Workload;

use numasim::config::MachineConfig;
use pebs::sampler::SamplerConfig;

/// Memoized [`workloads::runner::run`]: serve the outcome from `cache`
/// when a verified entry exists, otherwise simulate and store.
///
/// On a warm hit the workload is still **built** (cheap and deterministic
/// — allocations and phase lists only, no simulation) to recover the
/// allocation tracker and the `&'static` phase names; the cached per-phase
/// statistics are then zipped back onto the phase list. If the built phase
/// count disagrees with the entry (a workload definition changed without a
/// schema bump), the entry is treated as stale and the run recomputed.
///
/// `RunOutcome::wall` is the wall-clock time of whichever path executed;
/// overhead experiments that *measure* simulation must simply not pass a
/// cache.
pub fn run_memo(
    cache: &RunCache,
    workload: &dyn Workload,
    mcfg: &MachineConfig,
    rcfg: &RunConfig,
    sampling: Option<SamplerConfig>,
) -> RunOutcome {
    let key = RunKey::for_run(mcfg, workload.name(), rcfg, sampling.as_ref());
    if let Some(cached) = cache.lookup(&key) {
        let start = Instant::now();
        let built = workload.build(mcfg, rcfg);
        if built.phases.len() == cached.phase_stats.len() {
            let phases: Vec<PhaseOutcome> = built
                .phases
                .iter()
                .zip(cached.phase_stats)
                .map(|(p, stats)| PhaseOutcome { name: p.name, stats, warmup: p.warmup })
                .collect();
            return RunOutcome {
                phases,
                samples: cached.samples,
                tracker: built.tracker,
                observed_accesses: cached.observed_accesses,
                wall: start.elapsed(),
            };
        }
        // Phase-shape drift: fall through to a fresh run, which overwrites
        // the stale entry below.
    }
    let outcome = runner::run(workload, mcfg, rcfg, sampling);
    let entry = CachedRun {
        phase_stats: outcome.phases.iter().map(|p| p.stats.clone()).collect(),
        samples: outcome.samples.clone(),
        observed_accesses: outcome.observed_accesses,
    };
    // A failed store (read-only cache dir, disk full) only costs future
    // warmth; the computed outcome is still returned.
    let _ = cache.store(&key, &entry);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::config::Input;
    use workloads::micro::Sumv;

    fn tmp_cache(tag: &str) -> RunCache {
        let dir = std::env::temp_dir().join(format!("drbw-runmemo-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunCache::open(dir).unwrap()
    }

    #[test]
    fn warm_hit_matches_fresh_run_exactly() {
        let cache = tmp_cache("warm");
        let mcfg = MachineConfig::tiny();
        let rcfg = RunConfig::new(4, 2, Input::Small);
        let fresh = runner::run(&Sumv, &mcfg, &rcfg, Some(SamplerConfig::default()));
        let cold = run_memo(&cache, &Sumv, &mcfg, &rcfg, Some(SamplerConfig::default()));
        let warm = run_memo(&cache, &Sumv, &mcfg, &rcfg, Some(SamplerConfig::default()));
        for out in [&cold, &warm] {
            assert_eq!(out.samples, fresh.samples);
            assert_eq!(out.observed_accesses, fresh.observed_accesses);
            assert_eq!(out.phases.len(), fresh.phases.len());
            for (a, b) in out.phases.iter().zip(&fresh.phases) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.warmup, b.warmup);
                assert_eq!(a.stats, b.stats);
            }
        }
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses, m.stores), (1, 1, 1));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupted_entry_recomputes_transparently() {
        let cache = tmp_cache("corrupt");
        let mcfg = MachineConfig::tiny();
        let rcfg = RunConfig::new(4, 2, Input::Small);
        let cold = run_memo(&cache, &Sumv, &mcfg, &rcfg, None);
        let key = RunKey::for_run(&mcfg, Sumv.name(), &rcfg, None);
        let path = cache.entry_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let recomputed = run_memo(&cache, &Sumv, &mcfg, &rcfg, None);
        assert_eq!(recomputed.observed_accesses, cold.observed_accesses);
        assert_eq!(recomputed.phases.len(), cold.phases.len());
        for (a, b) in recomputed.phases.iter().zip(&cold.phases) {
            assert_eq!(a.stats, b.stats);
        }
        let m = cache.metrics();
        assert_eq!(m.corrupt, 1, "the flipped entry must be detected");
        assert_eq!(m.stores, 2, "the recompute overwrites the bad entry");
        // The overwrite repaired the entry: the next lookup hits.
        let warm = run_memo(&cache, &Sumv, &mcfg, &rcfg, None);
        assert_eq!(warm.observed_accesses, cold.observed_accesses);
        assert_eq!(cache.metrics().hits, 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn unprofiled_and_profiled_runs_use_distinct_entries() {
        let cache = tmp_cache("split");
        let mcfg = MachineConfig::tiny();
        let rcfg = RunConfig::new(4, 2, Input::Small);
        let plain = run_memo(&cache, &Sumv, &mcfg, &rcfg, None);
        let profiled = run_memo(&cache, &Sumv, &mcfg, &rcfg, Some(SamplerConfig::default()));
        assert!(plain.samples.is_empty());
        assert!(!profiled.samples.is_empty());
        assert_eq!(cache.metrics().stores, 2);
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
