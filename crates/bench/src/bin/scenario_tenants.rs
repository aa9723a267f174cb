//! Cross-tenant contention: can the paper's 2-feature tree detect an
//! aggressor it was never trained on?
//!
//! DR-BW's training set is single-tenant — one workload's threads contend
//! with themselves. This experiment co-schedules two *independent* tenants
//! through the discrete-event scheduler (`numasim::sched`): a quiet victim
//! on node 0 whose data lives on node 1, and a bandwidth-hog aggressor
//! tenant hammering the same node-1 controller from the other sockets.
//! Only the victim's samples are replayed through the streaming detector
//! (a real deployment profiles its own process, not the neighbours), so a
//! verdict has to come from the contention signature alone: modest remote
//! traffic whose latency is inflated by someone else's bandwidth.
//!
//! Output goes to stdout (`results/scenario_tenants.txt` is a copy of it).

use drbw_bench::sweep::train_tool;
use drbw_bench::util::BenchError;
use drbw_core::DrBw;
use drbw_stream::{replay_log, ReplayConfig, StreamConfig, StreamingDetector, WindowConfig};
use numasim::config::MachineConfig;
use numasim::sched::TenantId;
use pebs::sampler::SamplerConfig;
use pebs::MemSample;
use std::fmt::Write as _;
use workloads::scenario::{victim_aggressor, ScenarioOutcome, VictimAggressorConfig, VICTIM_TENANT};

/// Dense enough that the victim's modest traffic still clears the
/// classifier's per-window minimum-remote-sample guard.
fn sampler() -> SamplerConfig {
    SamplerConfig { period: 101, ..SamplerConfig::default() }
}

/// A barely-there aggressor: the same scenario shape with the contention
/// removed, as the control.
fn quiet_config() -> VictimAggressorConfig {
    VictimAggressorConfig { aggressor_threads: 1, aggressor_bytes: 1 << 20, aggressor_passes: 1, ..Default::default() }
}

struct CaseResult {
    victim_finish_cycles: f64,
    victim_avg_remote_latency: f64,
    detected_rmc: bool,
    verdict_lines: String,
}

fn run_case(label: &str, cfg: &VictimAggressorConfig, mcfg: &MachineConfig, tool: &DrBw) -> CaseResult {
    let scenario = victim_aggressor(mcfg, cfg);
    let outcome: ScenarioOutcome = scenario.run(Some(sampler()));

    let victim = TenantId(VICTIM_TENANT);
    let victim_samples: Vec<MemSample> = outcome.tenants.samples_of(victim, &outcome.samples);
    let span = victim_samples.iter().map(|s| s.time).fold(0.0f64, f64::max);
    let remote: Vec<&MemSample> = victim_samples.iter().filter(|s| s.is_remote()).collect();
    let avg_remote = remote.iter().map(|s| s.latency).sum::<f64>() / remote.len().max(1) as f64;

    // ~8 tumbling windows over the victim's lifetime keeps per-window
    // remote traffic above the classifier's minimum-sample guard.
    let window = WindowConfig::tumbling((span / 8.0).max(1.0));
    let scfg = StreamConfig { record_windows: true, ..StreamConfig::new(mcfg.topology.num_nodes(), window) };
    let mut detector = StreamingDetector::new(tool.classifier().clone(), scfg);
    let rep = replay_log(&victim_samples, &outcome.tracker, &mut detector, ReplayConfig);

    let mut lines = String::new();
    let _ = writeln!(lines, "--- {label} ---");
    for t in &outcome.stats.tenants {
        let _ = writeln!(
            lines,
            "tenant {}: {} accesses ({} remote DRAM), finished at {:.2} Mcyc",
            t.tenant.0,
            t.counts.total(),
            t.counts.remote_dram,
            t.finish_cycles / 1e6
        );
    }
    let _ = writeln!(
        lines,
        "victim stream: {} samples ({} remote), avg remote latency {:.1} cyc",
        victim_samples.len(),
        remote.len(),
        avg_remote
    );
    let mut verdicts = String::new();
    for e in &rep.events {
        let _ = writeln!(
            verdicts,
            "  verdict: {} on {}->{} (window {}, {:.2} Mcyc)",
            e.mode.name(),
            e.channel.src.0,
            e.channel.dst.0,
            e.window_index,
            e.at_cycles / 1e6
        );
    }
    let detected = rep.metrics.first_rmc_verdict_cycles.is_some();
    match rep.metrics.first_rmc_verdict_cycles {
        Some(t) => {
            let _ = writeln!(
                lines,
                "detector: rmc at {:.2} Mcyc ({:.0}% into the victim's run)",
                t / 1e6,
                100.0 * t / span
            );
        }
        None => {
            let _ = writeln!(lines, "detector: good for the whole run (no rmc window streak)");
        }
    }
    lines.push_str(&verdicts);
    println!("{lines}");
    CaseResult {
        victim_finish_cycles: outcome.stats.tenants[0].finish_cycles,
        victim_avg_remote_latency: avg_remote,
        detected_rmc: detected,
        verdict_lines: verdicts,
    }
}

fn main() -> Result<(), BenchError> {
    let mcfg = MachineConfig::scaled();
    eprintln!("training the DR-BW model...");
    let tool = train_tool(&mcfg)?;
    println!("=== Cross-tenant detection: victim + aggressor through the scheduler ===\n");

    let quiet = run_case("victim + idle neighbour (control)", &quiet_config(), &mcfg, &tool);
    let loud = run_case("victim + bandwidth-hog aggressor", &VictimAggressorConfig::default(), &mcfg, &tool);

    let slowdown = loud.victim_finish_cycles / quiet.victim_finish_cycles;
    let inflation = loud.victim_avg_remote_latency / quiet.victim_avg_remote_latency;
    let mut summary = String::new();
    let _ = writeln!(summary, "--- summary ---");
    let _ = writeln!(
        summary,
        "victim slowdown from the aggressor: {slowdown:.2}x; remote latency inflation: {inflation:.2}x"
    );
    let _ = writeln!(
        summary,
        "control verdict: {}; contended verdict: {}",
        if quiet.detected_rmc { "rmc (false alarm)" } else { "good" },
        if loud.detected_rmc { "rmc (detected)" } else { "good (missed)" }
    );
    print!("{summary}");

    // The experiment's claims, enforced: the tree trained on single-tenant
    // runs flags the cross-tenant victim, and not the control.
    assert!(!quiet.detected_rmc, "control run must stay good");
    assert!(loud.detected_rmc, "contended victim must be flagged rmc");
    assert!(
        loud.verdict_lines.contains("rmc on 0->1"),
        "the rmc verdict must land on the victim's 0->1 channel:\n{}",
        loud.verdict_lines
    );
    Ok(())
}
