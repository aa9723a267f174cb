//! The §VII benchmark sweep: detection vs ground truth over all 512 cases.

use crate::util::{BenchError, Result};
use drbw_core::classifier::ContentionClassifier;
use drbw_core::heuristics::{AllSocketsTouch, Detector, LatencyThreshold, RemoteCount};
use drbw_core::{Case, DrBw, Mode};
use numasim::config::MachineConfig;
use rayon::prelude::*;
use runcache::RunCache;
use workloads::config::{cases_for, RunConfig};
use workloads::ground_truth::{actual_contention_by, GroundTruth};
use workloads::spec::Workload;

/// Everything measured for one case of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseRecord {
    /// Benchmark name.
    pub benchmark: String,
    /// Input-class name.
    pub input: String,
    /// Threads.
    pub threads: usize,
    /// Nodes.
    pub nodes: usize,
    /// Interleave-probe speedup over baseline (the ground-truth signal).
    pub interleave_speedup: f64,
    /// Ground truth: speedup above the 10% threshold.
    pub actual_rmc: bool,
    /// DR-BW's verdict.
    pub drbw_rmc: bool,
    /// Number of channels DR-BW flagged.
    pub contended_channels: usize,
    /// Latency-threshold heuristic verdict (ablation).
    pub lat_rmc: bool,
    /// Remote-count heuristic verdict (ablation).
    pub cnt_rmc: bool,
    /// All-sockets-touch heuristic verdict (ablation).
    pub ast_rmc: bool,
}

impl CaseRecord {
    fn to_tsv(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:.6}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.benchmark,
            self.input,
            self.threads,
            self.nodes,
            self.interleave_speedup,
            self.actual_rmc as u8,
            self.drbw_rmc as u8,
            self.contended_channels,
            self.lat_rmc as u8,
            self.cnt_rmc as u8,
            self.ast_rmc as u8,
        )
    }
}

/// Build the DR-BW tool every binary runs on: the full Table II grid,
/// trained in parallel. The run cache selected by the environment (see
/// [`crate::util::run_cache_dir`]) memoizes the training simulations and
/// every run [`evaluate_benchmark`] performs.
///
/// # Errors
/// When the run-cache directory cannot be opened.
pub fn train_tool(mcfg: &MachineConfig) -> Result<DrBw> {
    DrBw::builder()
        .machine(mcfg.clone())
        .run_cache(crate::util::run_cache_dir())
        .build()
        .map_err(|e| BenchError::new(format!("cannot train DR-BW on the full Table II grid: {e}")))
}

/// Train DR-BW's classifier on the full Table II grid (kept for the
/// figure/ablation binaries; [`train_tool`] returns the whole engine).
pub fn train_classifier(mcfg: &MachineConfig) -> Result<ContentionClassifier> {
    Ok(train_tool(mcfg)?.classifier().clone())
}

/// The §VII.B ground truth for one case, through the run cache: the
/// unprofiled baseline and fully interleaved runs, contended when the
/// interleave speedup exceeds [`workloads::ground_truth::GT_SPEEDUP_THRESHOLD`].
/// Unprofiled runs memoize under their own cache keys (sampling tagged
/// absent), so a warm rerun simulates neither.
pub fn ground_truth(cache: Option<&RunCache>, w: &dyn Workload, mcfg: &MachineConfig, rcfg: &RunConfig) -> GroundTruth {
    actual_contention_by(rcfg, |r| crate::util::memo_run(cache, w, mcfg, r, None))
}

/// Evaluate every case of one benchmark: profiled baseline (detection +
/// heuristics) plus the interleave ground-truth probe. Detection runs
/// through the engine's parallel [`DrBw::analyze_batch`]; the unprofiled
/// ground-truth probes are parallelized alongside. Both halves are
/// deterministic per case, so the records match a serial evaluation.
pub fn evaluate_benchmark(tool: &DrBw, w: &dyn Workload) -> Vec<CaseRecord> {
    let mcfg = tool.machine();
    let nodes_total = mcfg.topology.num_nodes();
    let lat = LatencyThreshold::default();
    let cnt = RemoteCount::default();
    let ast = AllSocketsTouch::default();
    let rcfgs: Vec<RunConfig> = cases_for(&w.inputs());
    let cases: Vec<Case<'_>> = rcfgs.iter().map(|rcfg| Case::new(w, rcfg)).collect();
    let analyses = tool.analyze_batch(&cases);
    // Ground truth compares *unprofiled* executions (profiling perturbs
    // the baseline by its per-sample cost).
    let cache = tool.run_cache().map(|c| c.as_ref());
    let truths: Vec<GroundTruth> = rcfgs.par_iter().map(|rcfg| ground_truth(cache, w, mcfg, rcfg)).collect();
    rcfgs
        .iter()
        .zip(analyses.iter().zip(&truths))
        .map(|(rcfg, (analysis, gt))| CaseRecord {
            benchmark: w.name().to_string(),
            input: rcfg.input.name().to_string(),
            threads: rcfg.threads,
            nodes: rcfg.nodes,
            interleave_speedup: gt.interleave_speedup,
            actual_rmc: gt.is_rmc,
            drbw_rmc: analysis.detection.mode() == Mode::Rmc,
            contended_channels: analysis.detection.contended_channels.len(),
            lat_rmc: lat.detect(&analysis.profile, nodes_total),
            cnt_rmc: cnt.detect(&analysis.profile, nodes_total),
            ast_rmc: ast.detect(&analysis.profile, nodes_total),
        })
        .collect()
}

/// Run the full Table V sweep (512 cases), reporting progress on stderr.
pub fn run_sweep(mcfg: &MachineConfig) -> Result<Vec<CaseRecord>> {
    let tool = train_tool(mcfg)?;
    let mut out = Vec::new();
    for w in workloads::suite::table_v_benchmarks() {
        let t0 = std::time::Instant::now();
        let records = evaluate_benchmark(&tool, w);
        eprintln!(
            "{:<14} {:>3} cases in {:>6.1}s  (actual rmc {}, detected rmc {})",
            w.name(),
            records.len(),
            t0.elapsed().as_secs_f64(),
            records.iter().filter(|r| r.actual_rmc).count(),
            records.iter().filter(|r| r.drbw_rmc).count(),
        );
        out.extend(records);
    }
    crate::util::report_run_cache(tool.run_cache().map(|c| c.as_ref()));
    Ok(out)
}

/// Records as TSV, one 11-column line per case (the format the repo
/// benchmark reads back as its golden).
pub fn to_tsv(records: &[CaseRecord]) -> String {
    records.iter().map(|r| r.to_tsv() + "\n").collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_line_has_the_eleven_golden_columns() {
        let r = CaseRecord {
            benchmark: "IRSmk".into(),
            input: "large".into(),
            threads: 64,
            nodes: 4,
            interleave_speedup: 3.21,
            actual_rmc: true,
            drbw_rmc: true,
            contended_channels: 3,
            lat_rmc: true,
            cnt_rmc: false,
            ast_rmc: true,
        };
        let line = "IRSmk\tlarge\t64\t4\t3.210000\t1\t1\t3\t1\t0\t1\n";
        assert_eq!(to_tsv(&[r.clone(), r]), line.repeat(2));
    }
}
