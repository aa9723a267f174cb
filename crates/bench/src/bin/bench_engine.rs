//! What the repo benchmark (`benchmark/`) does not cover yet, measured on
//! the quick training grid: `analyze_batch` single-threaded and across the
//! tool's pool, the run cache cold vs warm, and the slice body against the
//! per-access oracle (`numasim::oracle`) on one phase. Verifies
//! bit-identity of everything it compares, then writes the numbers as JSON
//! (default `BENCH_engine.json`).
//!
//! Every section is timed as one warmup run followed by seven measured
//! runs; the report carries the median and the raw runs so jitter is
//! visible instead of silently folded into a best-of statistic.
//!
//! ```text
//! cargo run --release -p drbw-bench --bin bench_engine [out.json]
//! ```

use drbw_bench::util::{write_text, BenchError};
use drbw_core::training;
use drbw_core::{Analysis, Case, DrBw, TrainingSet};
use numasim::config::MachineConfig;
use numasim::engine::Engine;
use numasim::memmap::{MemoryMap, PlacementPolicy};
use numasim::sched::TenantRun;
use pebs::sampler::{AddressSampler, SamplerConfig};
use std::sync::Arc;
use std::time::Instant;
use workloads::scenario::{victim_threads, VictimAggressorConfig};

/// One warmup run (discarded) followed by seven measured runs. Returns the
/// last run's value, the median wall time, and all seven raw times. The
/// median is robust against one-sided shared-machine slowdowns without
/// optimistically picking the single luckiest run the way best-of-N does.
fn measure<T>(mut f: impl FnMut() -> T) -> (T, f64, Vec<f64>) {
    let mut value = f();
    let mut runs = Vec::with_capacity(7);
    for _ in 0..7 {
        let t0 = Instant::now();
        value = f();
        runs.push(t0.elapsed().as_secs_f64());
    }
    let mut sorted = runs.clone();
    sorted.sort_by(f64::total_cmp);
    (value, sorted[3], runs)
}

/// `{ "median_s": m, "runs_s": [...] }` for one timed section.
fn section(median: f64, runs: &[f64]) -> String {
    let rs: Vec<String> = runs.iter().map(|r| format!("{r:.3}")).collect();
    format!("{{ \"median_s\": {median:.3}, \"runs_s\": [{}] }}", rs.join(", "))
}

/// The quick-grid tool on a pool of `threads`.
fn quick_grid_tool(threads: usize) -> DrBw {
    DrBw::builder()
        .machine(MachineConfig::scaled())
        .training_set(TrainingSet::Quick)
        .threads(threads)
        .build()
        .expect("quick grid trains")
}

fn timed_analyze(threads: usize, cases: &[Case]) -> (Vec<Analysis>, f64, Vec<f64>) {
    let tool = quick_grid_tool(threads);
    measure(move || tool.analyze_batch(cases))
}

fn main() -> Result<(), BenchError> {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_engine.json".into());
    let specs = training::quick_training_specs();
    let cases: Vec<Case> = specs.iter().map(|s| Case::new(s.program.workload(), &s.rcfg)).collect();

    // 1. analyze_batch of the quick grid's cases, single-threaded so the
    //    number is the engine's, not the pool's.
    let (analyses, analyze_s, analyze_runs) = timed_analyze(1, &cases);
    eprintln!("analyze_batch ({} cases, 1 thread): {analyze_s:.2}s", analyses.len());

    // 2. Run-cache cold vs warm over the same analyze_batch grid. The
    //    tool is trained WITHOUT the run cache: quick-grid training uses
    //    the same (workload, rcfg, default sampler) keys as the analyze
    //    cases, so training through the cache would pre-warm every key
    //    and there would be no cold measurement left. The cache is
    //    attached afterwards — cold iterations each get a fresh empty
    //    directory (simulate + encode + store), warm iterations share one
    //    directory populated by the warmup pass (decode + verify only).
    let mut tool = quick_grid_tool(1);
    let cache_root = std::env::temp_dir().join(format!("drbw_bench_runcache_{}", std::process::id()));
    let open_cache = |dir: &std::path::Path| {
        runcache::RunCache::open(dir)
            .map(Arc::new)
            .map_err(|e| BenchError::new(format!("cannot open bench run cache at {}: {e}", dir.display())))
    };
    let mut cold_iter = 0u32;
    let mut cold_caches = Vec::new();
    for _ in 0..8 {
        cold_caches.push(open_cache(&cache_root.join(format!("cold{}", cold_caches.len())))?);
    }
    let (cold_analyses, cache_cold_s, cache_cold_runs) = measure(|| {
        tool.attach_run_cache(cold_caches[cold_iter as usize].clone());
        cold_iter += 1;
        tool.analyze_batch(&cases)
    });
    let warm_cache = open_cache(&cache_root.join("warm"))?;
    tool.attach_run_cache(warm_cache.clone());
    let (warm_analyses, cache_warm_s, cache_warm_runs) = measure(|| tool.analyze_batch(&cases));
    let cache_speedup = cache_cold_s / cache_warm_s;
    // Bit-identity of every cache-served artifact against the fresh
    // simulation timed in section 1 (same machine, same cases).
    assert_eq!(warm_analyses.len(), analyses.len());
    for (i, (w, f)) in warm_analyses.iter().zip(&analyses).enumerate() {
        assert_eq!(w.profile.samples, f.profile.samples, "case {i}: cached sample log diverged");
        assert_eq!(w.profile.observed_accesses, f.profile.observed_accesses, "case {i}: observed diverged");
        assert_eq!(w.profile.phases.len(), f.profile.phases.len(), "case {i}: phase count diverged");
        for (pw, pf) in w.profile.phases.iter().zip(&f.profile.phases) {
            assert_eq!(pw.name, pf.name, "case {i}: phase names diverged");
            assert_eq!(pw.stats, pf.stats, "case {i}: cached RunStats diverged");
        }
        assert_eq!(w.detection.mode(), f.detection.mode(), "case {i}: cached verdict diverged");
    }
    for (i, (c, f)) in cold_analyses.iter().zip(&analyses).enumerate() {
        assert_eq!(c.profile.samples, f.profile.samples, "case {i}: cold-path sample log diverged");
    }
    let wm = warm_cache.metrics();
    assert!(wm.hits > 0, "warm analyze_batch must be served from the cache");
    assert_eq!(wm.corrupt, 0, "warm cache reported corrupt entries");
    assert!(
        cache_speedup >= 5.0,
        "warm run cache must be >= 5x faster than cold (got {cache_speedup:.2}x: cold {cache_cold_s:.3}s, warm {cache_warm_s:.3}s)"
    );
    eprintln!(
        "run cache ({} cases): cold {cache_cold_s:.2}s, warm {cache_warm_s:.2}s ({cache_speedup:.2}x), \
         warm hits {} over {} measured iterations",
        cases.len(),
        wm.hits,
        cache_warm_runs.len()
    );
    let run_cache_json = format!(
        "{{\n    \"cold\": {},\n    \"warm\": {},\n    \"speedup\": {cache_speedup:.2},\n    \
         \"warm_hits\": {},\n    \"warm_read_bytes\": {}\n  }}",
        section(cache_cold_s, &cache_cold_runs),
        section(cache_warm_s, &cache_warm_runs),
        wm.hits,
        wm.bytes_read,
    );
    std::fs::remove_dir_all(&cache_root).ok();

    // 3. Thread-count sweep over the tool's analysis pool: how section 1
    //    scales with the across-run pool, the only host parallelism there
    //    is — compare against `host_parallelism`.
    let host_par = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sweep_sections = vec![format!("\"threads_1\": {}", section(analyze_s, &analyze_runs))];
    for threads in [2usize, 4] {
        let (pooled, s, runs) = timed_analyze(threads, &cases);
        assert_eq!(pooled.len(), analyses.len());
        for (i, (a, f)) in pooled.iter().zip(&analyses).enumerate() {
            assert_eq!(a.profile.samples, f.profile.samples, "case {i} (threads={threads}): sample log diverged");
        }
        eprintln!("thread sweep: {threads} pool thread(s) {s:.2}s");
        sweep_sections.push(format!("\"threads_{threads}\": {}", section(s, &runs)));
    }
    let sweep_json = format!("{{\n    {}\n  }}", sweep_sections.join(",\n    "));

    // 4. The slice body against the per-access oracle: the victim of the
    //    victim/aggressor scenario alone (64 passes, so one run is tens of
    //    milliseconds), sampled, through `Engine::run_phase` and through
    //    `numasim::oracle::run`. ROADMAP's bar for keeping the batched
    //    body and its differential suite is 1.3x.
    let sampler = SamplerConfig { period: 101, ..SamplerConfig::default() };
    let solo = VictimAggressorConfig { victim_passes: 64, ..VictimAggressorConfig::default() };
    let solo_engine = || {
        let cfg = MachineConfig::scaled();
        let mut mm = MemoryMap::new(&cfg);
        let buf = mm.alloc("victim_buf", solo.victim_bytes, PlacementPolicy::Bind(solo.remote_home));
        let threads = victim_threads(&buf, &solo);
        (Engine::new(&cfg, mm, AddressSampler::new(sampler)), threads)
    };
    let (batched, batched_s, batched_runs) = measure(|| {
        let (mut eng, threads) = solo_engine();
        let stats = eng.run_phase(threads);
        (stats, eng.into_parts().1.drain_samples())
    });
    let (oracle, oracle_s, oracle_runs) = measure(|| {
        let (mut eng, threads) = solo_engine();
        let stats = numasim::oracle::run(&mut eng, vec![TenantRun::new(0, threads)]).run;
        (stats, eng.into_parts().1.drain_samples())
    });
    assert_eq!(batched, oracle, "slice body diverged from the per-access oracle");
    let body_ratio = oracle_s / batched_s;
    assert!(body_ratio >= 1.3, "the slice body must run >= 1.3x the per-access oracle (got {body_ratio:.2}x)");
    eprintln!(
        "slice body (victim alone, {} accesses): oracle {oracle_s:.3}s, batched {batched_s:.3}s ({body_ratio:.2}x)",
        batched.0.counts.total()
    );

    let json = format!(
        r#"{{
  "bench": "quick-grid analyze_batch, run cache, and the slice body vs the per-access oracle",
  "machine": "MachineConfig::scaled",
  "host_parallelism": {host_par},
  "machine_note": "shared host; absolute seconds drift 15-25% between sessions, so cross-session comparisons should use within-run ratios, which are stable",
  "grid_runs": {grid_runs},
  "protocol": "1 warmup + 7 measured runs per section, median reported",
  "bit_identical": true,
  "analyze_batch_1thread": {analyze},
  "analyze_thread_sweep": {sweep_json},
  "slice_body": {{
    "accesses": {accesses},
    "oracle": {oracle_json},
    "batched": {batched_json},
    "batched_vs_oracle": {body_ratio:.2}
  }},
  "run_cache": {run_cache_json}
}}
"#,
        grid_runs = analyses.len(),
        analyze = section(analyze_s, &analyze_runs),
        accesses = batched.0.counts.total(),
        oracle_json = section(oracle_s, &oracle_runs),
        batched_json = section(batched_s, &batched_runs),
    );
    write_text(&out, &json)?;
    print!("{json}");
    eprintln!("wrote {out}");
    Ok(())
}
