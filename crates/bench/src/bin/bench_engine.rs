//! Batched-vs-reference engine speedup, measured where it matters: the
//! quick training grid (serial collection) and `analyze_batch` over the
//! same grid, plus the ablation matrix — the span-fusion walk
//! (`EngineConfig::span_fusion` on vs. off), a pool thread-count sweep,
//! and the scheduler's two slice bodies on a multi-tenant scenario.
//! Verifies bit-identity of everything it times, then writes the numbers
//! as JSON (default `BENCH_engine.json`).
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
use drbw_core::{Case, DrBw, TrainingSet};
use numasim::config::{ExecMode, MachineConfig};
use numasim::engine::Engine;
use numasim::memmap::{MemoryMap, PlacementPolicy};
use numasim::sched::TenantRun;
use pebs::sampler::{AddressSampler, SamplerConfig};
use std::sync::Arc;
use std::time::Instant;
use workloads::scenario::{victim_aggressor, victim_threads, VictimAggressorConfig};

fn mcfg(exec: ExecMode, span_fusion: bool) -> MachineConfig {
    let mut m = MachineConfig::scaled();
    m.engine.exec = exec;
    m.engine.span_fusion = span_fusion;
    m
}

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

/// Builds the quick-grid tool and times `analyze_batch` exactly like the
/// fused arm of section 2, on a pool of `threads`.
fn timed_fused_analyze(threads: usize) -> (Vec<drbw_core::Analysis>, f64, Vec<f64>) {
    let specs = training::quick_training_specs();
    let tool = DrBw::builder()
        .machine(mcfg(ExecMode::Batched, true))
        .training_set(TrainingSet::Quick)
        .threads(threads)
        .build()
        .expect("quick grid trains");
    let cases: Vec<Case> = specs.iter().map(|s| Case::new(s.program.workload(), &s.rcfg)).collect();
    measure(move || tool.analyze_batch(&cases))
}

fn main() -> Result<(), BenchError> {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_engine.json".into());
    let specs = training::quick_training_specs();

    // 1. Serial collection of the quick training grid under each mode.
    let (ref_set, grid_ref_s, grid_ref_runs) =
        measure(|| training::collect_training_set_serial(&mcfg(ExecMode::Reference, true), &specs));
    let (bat_set, grid_bat_s, grid_bat_runs) =
        measure(|| training::collect_training_set_serial(&mcfg(ExecMode::Batched, true), &specs));
    assert_eq!(ref_set.len(), bat_set.len());
    for i in 0..ref_set.len() {
        assert_eq!(ref_set.label(i), bat_set.label(i), "label of instance {i}");
        assert_eq!(ref_set.row(i), bat_set.row(i), "features of instance {i} diverged");
    }
    let grid_speedup = grid_ref_s / grid_bat_s;
    eprintln!(
        "quick grid ({} runs, serial): reference {grid_ref_s:.2}s, batched {grid_bat_s:.2}s ({grid_speedup:.2}x)",
        specs.len()
    );

    // 2. analyze_batch of the same grid's cases, single-threaded so the
    //    ratio measures the inner loop, not the pool. The batched engine is
    //    run twice — with the span-fused cache walk and with it disabled —
    //    which isolates how much of the batched runtime the per-line tag
    //    walk was costing (the unfused run is PR 3's batched engine).
    let run_batch = |exec: ExecMode, span_fusion: bool| {
        let tool = DrBw::builder()
            .machine(mcfg(exec, span_fusion))
            .training_set(TrainingSet::Quick)
            .threads(1)
            .build()
            .expect("quick grid trains");
        let cases: Vec<Case> = specs.iter().map(|s| Case::new(s.program.workload(), &s.rcfg)).collect();
        measure(move || tool.analyze_batch(&cases))
    };
    let (ref_analyses, analyze_ref_s, analyze_ref_runs) = run_batch(ExecMode::Reference, true);
    let (fus_analyses, analyze_fus_s, analyze_fus_runs) = run_batch(ExecMode::Batched, true);
    let (unf_analyses, analyze_unf_s, analyze_unf_runs) = run_batch(ExecMode::Batched, false);
    assert_eq!(ref_analyses.len(), fus_analyses.len());
    assert_eq!(ref_analyses.len(), unf_analyses.len());
    for (i, r) in ref_analyses.iter().enumerate() {
        for (kind, b) in [("fused", &fus_analyses[i]), ("unfused", &unf_analyses[i])] {
            assert_eq!(r.profile.samples, b.profile.samples, "case {i} ({kind}): sample logs diverged");
            assert_eq!(r.detection.mode(), b.detection.mode(), "case {i} ({kind}): mode diverged");
            assert_eq!(
                r.detection.contended_channels, b.detection.contended_channels,
                "case {i} ({kind}): channels diverged"
            );
        }
    }
    let analyze_speedup = analyze_ref_s / analyze_fus_s;
    let walk_speedup = analyze_unf_s / analyze_fus_s;
    // Fraction of the unfused batched runtime that the span-fused walk
    // removes: the share of the engine spent walking tags line by line.
    let walk_share = 1.0 - analyze_fus_s / analyze_unf_s;
    eprintln!(
        "analyze_batch ({} cases, 1 thread): reference {analyze_ref_s:.2}s, fused {analyze_fus_s:.2}s \
         ({analyze_speedup:.2}x), unfused {analyze_unf_s:.2}s",
        specs.len()
    );
    eprintln!("walk ablation: fused vs unfused {walk_speedup:.2}x, walk share {:.1}%", walk_share * 100.0);

    // 3. Run-cache cold vs warm over the same analyze_batch grid. The
    //    tool is trained WITHOUT the run cache: quick-grid training uses
    //    the same (workload, rcfg, default sampler) keys as the analyze
    //    cases, so training through the cache would pre-warm every key
    //    and there would be no cold measurement left. The cache is
    //    attached afterwards — cold iterations each get a fresh empty
    //    directory (simulate + encode + store), warm iterations share one
    //    directory populated by the warmup pass (decode + verify only).
    let mut tool = DrBw::builder()
        .machine(mcfg(ExecMode::Batched, true))
        .training_set(TrainingSet::Quick)
        .threads(1)
        .build()
        .expect("quick grid trains");
    let cases: Vec<Case> = specs.iter().map(|s| Case::new(s.program.workload(), &s.rcfg)).collect();
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
    // batched simulation timed in section 2 (same machine, same cases).
    assert_eq!(warm_analyses.len(), fus_analyses.len());
    for (i, (w, f)) in warm_analyses.iter().zip(&fus_analyses).enumerate() {
        assert_eq!(w.profile.samples, f.profile.samples, "case {i}: cached sample log diverged");
        assert_eq!(w.profile.observed_accesses, f.profile.observed_accesses, "case {i}: observed diverged");
        assert_eq!(w.profile.phases.len(), f.profile.phases.len(), "case {i}: phase count diverged");
        for (pw, pf) in w.profile.phases.iter().zip(&f.profile.phases) {
            assert_eq!(pw.name, pf.name, "case {i}: phase names diverged");
            assert_eq!(pw.stats, pf.stats, "case {i}: cached RunStats diverged");
        }
        assert_eq!(w.detection.mode(), f.detection.mode(), "case {i}: cached verdict diverged");
    }
    for (i, (c, f)) in cold_analyses.iter().zip(&fus_analyses).enumerate() {
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

    // 4. Thread-count sweep over the tool's analysis pool (fused
    //    batched): how the headline section scales with the across-run
    //    pool, the only host parallelism there is — compare against
    //    `host_parallelism`.
    let host_par = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sweep_sections = Vec::new();
    for threads in [1usize, 2, 4] {
        let (analyses, s, runs) = timed_fused_analyze(threads);
        assert_eq!(analyses.len(), fus_analyses.len());
        for (i, (a, f)) in analyses.iter().zip(&fus_analyses).enumerate() {
            assert_eq!(a.profile.samples, f.profile.samples, "case {i} (threads={threads}): sample log diverged");
        }
        eprintln!("thread sweep: {threads} pool thread(s) {s:.2}s");
        sweep_sections.push(format!("\"threads_{threads}\": {}", section(s, &runs)));
    }
    let sweep_json = format!("{{\n    {}\n  }}", sweep_sections.join(",\n    "));

    // 5. The scheduler. (a) The default victim/aggressor scenario (26
    //    threads, two tenants) through `Engine::run` under each slice
    //    body — what ROADMAP item 2 gates at >= 2x. (b) The victim alone,
    //    once as a one-tenant scenario and once through
    //    `Engine::run_phase`: the same loop, so the ratio is the cost of
    //    the scenario front door, i.e. ~1.00. The victim scans longer
    //    here than in (a) so one run is tens of milliseconds.
    let sampler = SamplerConfig { period: 101, ..SamplerConfig::default() };
    let run_scenario = |exec: ExecMode| {
        measure(|| victim_aggressor(&mcfg(exec, true), &VictimAggressorConfig::default()).run(Some(sampler)))
    };
    let (sc_ref, sc_ref_s, sc_ref_runs) = run_scenario(ExecMode::Reference);
    let (sc_bat, sc_bat_s, sc_bat_runs) = run_scenario(ExecMode::Batched);
    assert_eq!(sc_bat.stats, sc_ref.stats, "scenario: batched ScenarioStats diverged from reference");
    assert_eq!(sc_bat.samples, sc_ref.samples, "scenario: batched sample log diverged from reference");
    let scenario_speedup = sc_ref_s / sc_bat_s;
    assert!(
        scenario_speedup >= 2.0,
        "the batched slice body must run victim_aggressor >= 2x the reference body (got {scenario_speedup:.2}x)"
    );
    let solo = VictimAggressorConfig { victim_passes: 64, ..VictimAggressorConfig::default() };
    let solo_setup = || {
        let cfg = mcfg(ExecMode::Batched, true);
        let mut mm = MemoryMap::new(&cfg);
        let buf = mm.alloc("victim_buf", solo.victim_bytes, PlacementPolicy::Bind(solo.remote_home));
        let threads = victim_threads(&buf, &solo);
        (cfg, mm, threads)
    };
    let (via_engine, solo_eng_s, solo_eng_runs) = measure(|| {
        let (cfg, mm, threads) = solo_setup();
        let mut eng = Engine::new(&cfg, mm, AddressSampler::new(sampler));
        let stats = eng.run_phase(threads);
        (stats, eng.into_parts().1.drain_samples())
    });
    let (via_scenario, solo_sc_s, solo_sc_runs) = measure(|| {
        let (cfg, mm, threads) = solo_setup();
        let mut eng = Engine::new(&cfg, mm, AddressSampler::new(sampler));
        let stats = eng.run(vec![TenantRun::new(0, threads)]);
        (stats.run, eng.into_parts().1.drain_samples())
    });
    assert_eq!(via_scenario, via_engine, "one-tenant scenario diverged from Engine::run_phase");
    let solo_ratio = solo_eng_s / solo_sc_s;
    eprintln!(
        "scenario (victim_aggressor, {} accesses): reference {sc_ref_s:.3}s, batched {sc_bat_s:.3}s \
         ({scenario_speedup:.2}x); victim alone: run_phase {solo_eng_s:.3}s, one-tenant scenario {solo_sc_s:.3}s \
         ({solo_ratio:.2}x)",
        sc_bat.observed_accesses
    );
    let scenario_json = format!(
        "{{\n    \"victim_aggressor\": {{\n      \"accesses\": {},\n      \"reference\": {},\n      \
         \"batched\": {},\n      \"batched_vs_reference\": {scenario_speedup:.2}\n    }},\n    \
         \"victim_alone\": {{\n      \"engine_run_phase\": {},\n      \"one_tenant_scenario\": {},\n      \
         \"scenario_vs_engine\": {solo_ratio:.2}\n    }}\n  }}",
        sc_bat.observed_accesses,
        section(sc_ref_s, &sc_ref_runs),
        section(sc_bat_s, &sc_bat_runs),
        section(solo_eng_s, &solo_eng_runs),
        section(solo_sc_s, &solo_sc_runs),
    );

    let json = format!(
        r#"{{
  "bench": "engine batched vs reference (ExecMode) + span-fusion walk ablation",
  "machine": "MachineConfig::scaled",
  "host_parallelism": {host_par},
  "machine_note": "shared host; absolute seconds drift 15-25% between sessions, so cross-session comparisons should use within-run ratios (reference / batched_fused), which are stable",
  "grid_runs": {runs},
  "protocol": "1 warmup + 7 measured runs per section, median reported",
  "bit_identical": true,
  "quick_grid_serial": {{
    "reference": {grid_ref},
    "batched": {grid_bat},
    "speedup": {grid_speedup:.2}
  }},
  "analyze_batch_1thread": {{
    "reference": {analyze_ref},
    "batched_fused": {analyze_fus},
    "batched_unfused": {analyze_unf},
    "speedup": {analyze_speedup:.2}
  }},
  "walk_ablation": {{
    "fused_s": {analyze_fus_s:.3},
    "unfused_s": {analyze_unf_s:.3},
    "fused_vs_unfused": {walk_speedup:.2},
    "walk_share": {walk_share:.3}
  }},
  "analyze_thread_sweep": {sweep_json},
  "scenario": {scenario_json},
  "run_cache": {run_cache_json}
}}
"#,
        runs = specs.len(),
        grid_ref = section(grid_ref_s, &grid_ref_runs),
        grid_bat = section(grid_bat_s, &grid_bat_runs),
        analyze_ref = section(analyze_ref_s, &analyze_ref_runs),
        analyze_fus = section(analyze_fus_s, &analyze_fus_runs),
        analyze_unf = section(analyze_unf_s, &analyze_unf_runs),
    );
    write_text(&out, &json)?;
    print!("{json}");
    eprintln!("wrote {out}");
    Ok(())
}
