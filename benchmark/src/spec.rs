//! The benchmark's fixed numbers: workload shapes, metric tables, bounds.
//!
//! Every constant here was fixed once on the 2-core reference host and is
//! never calibrated at run time, so the same `--seed` and `--seconds`
//! always mean the same inputs. `BENCHMARK.json` repeats the metric
//! tables; a unit test keeps the two in step.

/// The five workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 5] = ["batch-cold", "tenants", "tune-loop", "serve-saturate", "serve-paced"];

/// `--seconds` when the caller gives none, and `run_seconds` in
/// `BENCHMARK.json`. Every workload below is sized so its measured
/// section takes about this long on the reference host.
pub const RUN_SECONDS: u64 = 12;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric of the benchmark's contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics, which never gate.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

/// What a user of the system sees, measured with tracing off. Every
/// workload reports every one of these.
///
/// The time bounds are the widest the contract allows because the
/// reference host's speed moves by that much between minutes (see
/// README.md, "Why the bounds are what they are"); p90 spread wider
/// still and is a per-layer metric (`harness.op_p90_ms`).
pub const END_TO_END: [MetricSpec; 5] = [
    // Process start to the first measured op: cold full training set
    // (192 runs) + tree fit, plus log recording and server start on the
    // serve workloads. No model cache, no run cache.
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    // Simulated accesses per host second on batch-cold, tenants and
    // tune-loop; samples reported ingested per second on serve-*.
    e2e("throughput_mitems_per_s", "1e6/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

use Better::{Higher, Lower};

/// Single-layer metrics of the traced run. A layer a workload does not
/// exercise reads 0 there. The unit `count` is kept for counts that must
/// repeat exactly for the same workload and seed (`summarize` checks).
pub const PER_LAYER: [MetricSpec; 73] = [
    // Set-up, all workloads -> setup_s.
    layer("core.training.collect_s", "s", Lower),
    layer("mldt.fit_s", "s", Lower),
    layer("setup.record_s", "s", Lower),
    layer("serve.start_s", "s", Lower),
    // batch-cold.
    layer("workloads.build.busy_s", "s", Lower),
    layer("workloads.build.calls", "count", Lower),
    layer("numasim.engine.busy_s", "s", Lower),
    layer("numasim.engine.ns_per_access", "ns", Lower),
    layer("numasim.engine.accesses", "count", Higher),
    layer("numasim.engine.sim_cycles", "count", Lower),
    layer("pebs.sampler.delta_s", "s", Lower),
    layer("pebs.sampler.samples", "count", Higher),
    layer("core.classify_case.busy_s", "s", Lower),
    layer("core.classify_case.channels", "count", Higher),
    layer("core.diagnose.busy_s", "s", Lower),
    layer("core.diagnose.objects", "count", Higher),
    layer("core.detect.agree_ground_truth_share", "ratio", Higher),
    // tenants.
    layer("workloads.scenario.build.busy_s", "s", Lower),
    layer("numasim.sched.busy_s", "s", Lower),
    layer("numasim.sched.ns_per_access", "ns", Lower),
    layer("numasim.sched.accesses", "count", Higher),
    layer("numasim.sched.sim_cycles", "count", Lower),
    layer("pebs.tenant.partition.busy_s", "s", Lower),
    layer("pebs.tenant.partition.samples", "count", Higher),
    layer("stream.replay.busy_s", "s", Lower),
    layer("stream.replay.samples", "count", Higher),
    layer("stream.replay.windows", "count", Higher),
    layer("stream.replay.verdicts", "count", Higher),
    layer("stream.replay.dropped", "count", Lower),
    // tune-loop.
    layer("tune.tune.busy_s", "s", Lower),
    layer("tune.evaluations", "count", Lower),
    layer("tune.s_per_evaluation", "s", Lower),
    layer("tune.improving_share", "ratio", Higher),
    layer("tune.speedup_geomean", "ratio", Higher),
    layer("tune.floor_violations", "count", Lower),
    layer("numasim.engine.unobserved_ns_per_access", "ns", Lower),
    // serve-saturate and serve-paced.
    layer("pebs.block.build.busy_s", "s", Lower),
    layer("pebs.block.build.samples", "count", Higher),
    layer("serve.open.busy_s", "s", Lower),
    layer("serve.open.calls", "count", Higher),
    layer("serve.offer.busy_s", "s", Lower),
    layer("serve.offer.calls", "count", Higher),
    layer("serve.offer.p50_us", "us", Lower),
    layer("serve.offer.p99_us", "us", Lower),
    layer("serve.finish.busy_s", "s", Lower),
    layer("serve.finish.p50_us", "us", Lower),
    layer("serve.finish.p99_us", "us", Lower),
    layer("serve.queue_depth_p90", "samples", Lower),
    layer("serve.samples_offered", "count", Higher),
    layer("serve.samples_ingested", "count", Higher),
    layer("serve.samples_dropped", "count", Lower),
    layer("serve.verdicts", "count", Higher),
    layer("serve.windows_classified", "count", Higher),
    layer("serve.verdict_latency_p50_us", "us", Lower),
    layer("serve.verdict_latency_p99_us", "us", Lower),
    layer("pebs.ring.handoff_ns_per_block", "ns", Lower),
    layer("stream.ingest_block.ns_per_sample", "ns", Lower),
    layer("serve.overhead_share", "ratio", Lower),
    // The load generator of serve-paced.
    layer("loadgen.late_p50_us", "us", Lower),
    layer("loadgen.late_max_ms", "ms", Lower),
    layer("loadgen.backlog_mid", "samples", Lower),
    layer("loadgen.backlog_end", "samples", Lower),
    // Every workload.
    layer("harness.ops", "count", Higher),
    layer("harness.failed_ops", "count", Lower),
    layer("harness.other_s", "s", Lower),
    layer("harness.op_p90_ms", "ms", Lower),
    layer("harness.op_tail_ms", "ms", Lower),
    layer("harness.op_tail_pct", "%", Higher),
    layer("trace.spans", "count", Lower),
    layer("trace.wall_s", "s", Lower),
    layer("trace.raw_wall_s", "s", Lower),
    layer("trace.coverage_share", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Look a metric up in either table.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

// ---- batch-cold -------------------------------------------------------

/// The thread counts of the paper's eight `Tt-Nn` shapes. A round of
/// batch-cold is one case for each of the 64 (benchmark, input) pairs of
/// Table V, pair `g` at thread count `THREAD_CLASSES[g % 4]`. Simulated
/// work depends on the benchmark, the input and the thread count but
/// hardly on the node count, so the seed (which picks the node count and
/// the order) leaves the work of a round the same.
pub const THREAD_CLASSES: [usize; 4] = [16, 24, 32, 64];
/// Host seconds one batch-cold round takes on the reference host (all 512
/// cases take 23.2 s, a round is an eighth of them).
pub const BATCH_COLD_ROUND_S: f64 = 2.9;
/// Every this-many-th op is re-run under `NullObserver` after the traced
/// section, for `pebs.sampler.delta_s`.
pub const SAMPLER_ABLATION_STRIDE: usize = 4;

// ---- tenants ----------------------------------------------------------

/// Aggressor thread counts; 0 is the idle control (one thread, 1 MiB,
/// one pass — the shape `scenario_tenants` uses as its control).
pub const AGGRESSOR_THREADS: [usize; 4] = [0, 8, 16, 24];
/// Aggressor arrival, as a share of the victim's solo run.
pub const ARRIVAL_STAGGER_PCT: [u32; 3] = [0, 25, 50];
/// Simulated cycles the victim's working set takes with no neighbour
/// (`VictimAggressorConfig::default()` victim, measured once).
pub const VICTIM_SOLO_CYCLES: f64 = 4_718_592.0;
/// One address sample per this many accesses per thread: dense enough
/// that the victim's modest traffic clears the classifier's per-window
/// minimum-remote-sample guard (the `scenario_tenants` setting).
pub const TENANT_SAMPLING_PERIOD: u64 = 101;
/// Tumbling windows over the victim's lifetime.
pub const TENANT_WINDOWS: f64 = 8.0;
/// Host seconds one tenants round (the 12 scenarios of the grid on one
/// seeded home node) takes on the reference host.
pub const TENANTS_ROUND_S: f64 = 1.07;

// ---- tune-loop --------------------------------------------------------

/// One program of the tune-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct TuneProgram {
    pub name: &'static str,
    pub input: &'static str,
    pub threads: usize,
    pub nodes: usize,
    /// Host milliseconds one `Tune::tune` takes on the reference host.
    pub nominal_ms: f64,
}

const fn tp(name: &'static str, input: &'static str, threads: usize, nodes: usize, nominal_ms: f64) -> TuneProgram {
    TuneProgram { name, input, threads, nodes, nominal_ms }
}

/// Thirteen Table V programs at the shapes `BENCH_tune.json` records
/// (each program's most contended configuration), cheapest first: 3.5 s
/// a round. A run shorter than a round takes the prefix that fits
/// `--seconds`, so the seed orders the programs and never chooses them.
pub const TUNE_PROGRAMS: [TuneProgram; 13] = [
    tp("Swaptions", "small", 24, 3, 8.0),
    tp("Freqmine", "small", 16, 4, 22.0),
    tp("LU", "small", 32, 2, 29.0),
    tp("X264", "medium", 24, 3, 56.0),
    tp("Blackscholes", "large", 64, 4, 74.0),
    tp("Fluidanimate", "medium", 32, 2, 83.0),
    tp("IS", "small", 32, 2, 166.0),
    tp("Bodytrack", "large", 16, 4, 218.0),
    tp("FT", "small", 64, 4, 297.0),
    tp("SP", "large", 64, 4, 319.0),
    tp("Ferret", "small", 64, 4, 465.0),
    tp("CG", "small", 64, 4, 473.0),
    tp("NW", "medium", 64, 4, 1261.0),
];

// ---- serve-saturate and serve-paced -----------------------------------

/// Samples per block offered to a session.
pub const BLOCK_SAMPLES: usize = 256;
/// Concurrently open sessions per wave of serve-saturate, half of them
/// contended.
pub const WAVE_SESSIONS: usize = 32;
/// Waves in one round of serve-saturate, and the seconds they take on the
/// reference host. Rounds are short so that some of them fall between
/// the host's bursts: both threads have to be left alone at once.
pub const WAVES_PER_ROUND: usize = 64;
pub const SATURATE_ROUND_S: f64 = 0.25;
/// Tumbling windows across the contended recording (the `serve_load`
/// geometry).
pub const SERVE_WINDOWS: f64 = 10.0;
/// The fixed offered rate of serve-paced, samples per second: a sixth of
/// what serve-saturate sustains on a quiet host and a third of the least
/// it sustained on a disturbed one (3 M/s once fell behind its schedule).
pub const PACED_SAMPLES_PER_S: f64 = 2.0e6;
/// A round of serve-paced: this slice of the schedule (about 380
/// sessions).
pub const PACED_ROUND_NS: u64 = 250_000_000;
/// Gap between the due times of one paced session's blocks.
pub const PACED_BLOCK_GAP_NS: u64 = 100_000;
/// serve-paced is invalid when the generator's median lateness exceeds
/// this.
pub const PACED_LATE_P50_LIMIT_US: f64 = 50.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&MetricSpec> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{}", m.name);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{}", m.unit);
            assert!(all[..i].iter().all(|o| o.name != m.name), "duplicate {}", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must name the same metrics, units, directions
    /// and bounds.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let json: String = include_str!("../../BENCHMARK.json").chars().filter(|c| !c.is_whitespace()).collect();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let better = if m.better == Lower { "lower" } else { "higher" };
            let mut entry = format!("{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"", m.name, m.unit, better);
            if let Some(b) = m.bound {
                entry.push_str(&format!(",\"bound\":{b}"));
            }
            entry.push('}');
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("{\"name\":").count(), WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\":\"{w}\",\"why\":")), "BENCHMARK.json lacks workload {w}");
        }
        assert!(json.contains(&format!("\"run_seconds\":{RUN_SECONDS},")));
    }
}
