//! Tuned-speedup table: the closed guided-optimization loop over the 21
//! Table V programs, plus the asymmetric-machine scenario where weighted
//! interleave beats uniform. Prints the table and writes
//! `BENCH_tune.json` (or `argv[1]`).
//!
//! ```text
//! cargo run --release -p drbw-bench --bin table_tune [out.json]
//! ```
//!
//! Every program is tuned at its *contended configuration*: the Table V
//! case with the largest §VII.B interleave speedup, under OS-default
//! master-first-touch placement — the `numactl --membind=0` pathology of
//! §II, with every allocation landing on node 0.
//! DR-BW diagnoses that baseline, the tuner proposes co-locate /
//! interleave / weighted-interleave / replicate candidates per ranked
//! object (plus the coarse all-objects interleave), re-simulates each, and
//! keeps the best verified plan — or the no-op plan, so no program is ever
//! made slower. The run cache selected by the environment (see
//! `util::run_cache_dir`) memoizes all of it.

use drbw_bench::sweep::{ground_truth, train_tool};
use drbw_bench::util::{write_text, BenchError};
use drbw_core::{DrBw, TrainingSet};
use drbw_tune::{CandidateKind, Tune, TuneConfig, TuneReport};
use numasim::config::MachineConfig;
use numasim::memmap::PlacementPolicy;
use numasim::topology::NodeId;
use rayon::prelude::*;
use workloads::config::{cases_for, Input, RunConfig, Variant};
use workloads::plan::{PlacementPlan, PlanAction};
use workloads::spec::{BuiltWorkload, Suite, Workload};
use workloads::suite::common::{partitioned_scan, Builder, ScanParams};

/// `numactl --membind=0` analogue: the wrapped program with every
/// allocation forced onto node 0 — the OS-default / master-first-touch
/// pathology the paper's guided optimizations exist to undo (§II). This is
/// each program's *contended configuration*; the suite builders' natural
/// placements model the already-tuned applications.
struct Membind0 {
    inner: &'static dyn Workload,
    name: &'static str,
}

impl Membind0 {
    fn new(inner: &'static dyn Workload) -> Self {
        // The run-cache key is the workload *name* + run configuration, so
        // the contended variant must not alias the natural one. One small
        // leaked string per program over the binary's lifetime.
        let name = Box::leak(format!("{}@membind0", inner.name()).into_boxed_str());
        Membind0 { inner, name }
    }
}

impl Workload for Membind0 {
    fn name(&self) -> &'static str {
        self.name
    }
    fn suite(&self) -> Suite {
        self.inner.suite()
    }
    fn inputs(&self) -> Vec<Input> {
        self.inner.inputs()
    }
    fn supports(&self, v: Variant) -> bool {
        self.inner.supports(v)
    }
    fn build(&self, mcfg: &MachineConfig, run: &RunConfig) -> BuiltWorkload {
        let mut built = self.inner.build(mcfg, run);
        let mut bind = PlacementPlan::new();
        let mut seen: Vec<String> = Vec::new();
        for (_, o) in built.mm.objects() {
            if !seen.iter().any(|l| l == &o.label) {
                seen.push(o.label.clone());
            }
        }
        for label in seen {
            bind.push(label, PlanAction::Bind(NodeId(0)));
        }
        bind.apply(&mut built.mm).expect("binding every object to node 0 always resolves");
        built
    }
}

/// The asymmetric-load scenario: a master-allocated array scanned by all
/// nodes on a machine whose channels into node 3 run at 40% bandwidth —
/// uniform interleave overloads the weak node's inbound links; the weight
/// search sheds pages from it.
struct AsymMicro;

impl Workload for AsymMicro {
    fn name(&self) -> &'static str {
        "AsymMicro"
    }
    fn suite(&self) -> Suite {
        Suite::Micro
    }
    fn inputs(&self) -> Vec<Input> {
        vec![Input::Native]
    }
    fn build(&self, mcfg: &MachineConfig, run: &RunConfig) -> BuiltWorkload {
        let mut b = Builder::new(mcfg, run);
        let a = b.alloc("a", 7, 32 << 20, PlacementPolicy::Bind(NodeId(0)));
        let threads = partitioned_scan(&b, &[a], ScanParams::read(4, 1, 0.5));
        b.phase("scan", threads);
        b.finish()
    }
}

/// A program's most contended configuration: its Table V case with the
/// largest ground-truth interleave speedup (the first, on a tie).
fn most_contended(tool: &DrBw, w: &dyn Workload) -> RunConfig {
    let cache = tool.run_cache().map(|c| c.as_ref());
    let cases = cases_for(&w.inputs());
    let speedups: Vec<f64> =
        cases.par_iter().map(|rcfg| ground_truth(cache, w, tool.machine(), rcfg).interleave_speedup).collect();
    let best = (0..cases.len()).fold(0, |best, i| if speedups[i] > speedups[best] { i } else { best });
    cases[best].clone()
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for x in xs {
        sum += x.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

fn program_json(r: &TuneReport, input: Input) -> String {
    format!(
        "    {{ \"name\": \"{}\", \"input\": \"{}\", \"shape\": \"{}\", \"detected\": \"{}\", \
         \"baseline_cycles\": {:.0}, \"tuned_cycles\": {:.0}, \"speedup\": {:.4}, \
         \"improved\": {}, \"plan\": \"{}\", \"evaluations\": {} }}",
        r.workload,
        input.name(),
        r.shape,
        r.detected.name(),
        r.baseline_cycles,
        r.tuned_cycles,
        r.speedup(),
        r.improved(),
        r.plan.describe(),
        r.evaluations,
    )
}

fn main() -> Result<(), BenchError> {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_tune.json".into());
    let mcfg = MachineConfig::scaled();
    eprintln!("training the DR-BW model...");
    let tool = train_tool(&mcfg)?;
    let cfg = TuneConfig::default();

    // --- The 21-program tuned-speedup table: every program's contended
    // configuration is its most contended shape under OS-default
    // master-first-touch placement (`numactl --membind=0` analogue). ---
    let mut rows: Vec<(TuneReport, Input)> = Vec::new();
    for w in workloads::suite::table_v_benchmarks() {
        let rcfg = most_contended(&tool, w);
        let input = rcfg.input;
        let contended = Membind0::new(w);
        let mut r = tool.tune(&contended, &rcfg, &cfg);
        r.workload = w.name().to_string();
        eprintln!(
            "  {:<14} {:<8} {:<7} {:<5} x{:<6.3} {}",
            r.workload,
            r.shape,
            input.name(),
            r.detected.name(),
            r.speedup(),
            r.plan.describe()
        );
        rows.push((r, input));
    }
    let improved = rows.iter().filter(|(r, _)| r.improved()).count();
    let floor = rows.iter().map(|(r, _)| r.speedup()).fold(f64::INFINITY, f64::min);
    let g_all = geomean(rows.iter().map(|(r, _)| r.speedup()));
    let contended: Vec<&TuneReport> =
        rows.iter().map(|(r, _)| r).filter(|r| r.detected == drbw_core::Mode::Rmc).collect();
    let g_rmc = geomean(contended.iter().map(|r| r.speedup()));

    // --- Asymmetric scenario: weighted must beat uniform. ---
    eprintln!("asymmetric scenario: channels into node 3 at 40% bandwidth...");
    let mut asym = MachineConfig::scaled();
    // Dense channel index s*(n-1) + (d>s ? d-1 : d): inbound to d=3 from
    // s=0,1,2 is 2, 5, 8.
    let weak_bw = 0.4 * asym.interconnect.channel_bandwidth;
    asym.interconnect.overrides = vec![(2, weak_bw), (5, weak_bw), (8, weak_bw)];
    let asym_builder = DrBw::builder().machine(asym).training_set(TrainingSet::Quick);
    let asym_tool = match drbw_bench::util::run_cache_dir() {
        Some(dir) => asym_builder.run_cache(dir),
        None => asym_builder,
    }
    .build()
    .map_err(|e| BenchError::new(format!("cannot train on the asymmetric machine: {e}")))?;
    let asym_cfg = TuneConfig::builder()
        .candidates([CandidateKind::Interleave, CandidateKind::WeightedInterleave])
        .build()
        .expect("two candidate families are a valid configuration");
    let asym_report = asym_tool.tune(&AsymMicro, &RunConfig::new(32, 4, Input::Native), &asym_cfg);
    let uniform_cycles = asym_report
        .trace
        .iter()
        .filter(|s| s.description.contains("\u{2192}interleave("))
        .map(|s| s.cycles)
        .fold(f64::INFINITY, f64::min);
    let weighted_cycles = asym_report
        .trace
        .iter()
        .filter(|s| s.description.contains("weighted-interleave"))
        .map(|s| s.cycles)
        .fold(f64::INFINITY, f64::min);
    let weighted_selected = asym_report.plan.entries().iter().any(|e| {
        matches!(&e.action,
            PlanAction::WeightedInterleave { weights, .. } if weights.iter().any(|&w| w != weights[0]))
    });
    eprintln!(
        "  uniform {:.0} vs weighted {:.0} cycles; chosen: {}",
        uniform_cycles,
        weighted_cycles,
        asym_report.plan.describe()
    );

    // --- Text table. ---
    let mut table = String::new();
    table.push_str(
        "Tuned speedup per program (closed guided-optimization loop; contended configuration = \
         most contended shape under OS-default membind-0 placement)\n",
    );
    table.push_str(&format!(
        "{:<14} {:<8} {:<8} {:<6} {:>14} {:>14} {:>8}  plan\n",
        "program", "shape", "input", "mode", "baseline", "tuned", "speedup"
    ));
    for (r, input) in &rows {
        table.push_str(&format!(
            "{:<14} {:<8} {:<8} {:<6} {:>14.0} {:>14.0} {:>7.3}x  {}\n",
            r.workload,
            r.shape,
            input.name(),
            r.detected.name(),
            r.baseline_cycles,
            r.tuned_cycles,
            r.speedup(),
            r.plan.describe()
        ));
    }
    table.push_str(&format!(
        "\nimproved {improved}/{} programs; speedup floor {floor:.3}x; geomean {g_all:.3}x (contended-only {g_rmc:.3}x over {})\n",
        rows.len(),
        contended.len()
    ));
    table.push_str(&format!(
        "asymmetric scenario: uniform {uniform_cycles:.0} vs weighted {weighted_cycles:.0} cycles ({:.3}x), weighted selected: {weighted_selected}\n",
        uniform_cycles / weighted_cycles
    ));
    print!("{table}");

    // --- JSON. ---
    let programs: Vec<String> = rows.iter().map(|(r, i)| program_json(r, *i)).collect();
    let json = format!(
        "{{\n  \"bench\": \"closed-loop guided-optimization autotuner (drbw-tune) over the Table V suite\",\n  \
         \"machine\": \"MachineConfig::scaled\",\n  \
         \"shape\": \"per-program most contended (largest ground-truth interleave speedup over its Table V cases)\",\n  \
         \"baseline_placement\": \"OS-default master first-touch (numactl --membind=0 analogue)\",\n  \
         \"config\": {{ \"candidates\": [\"colocate\", \"interleave\", \"weighted-interleave\", \"replicate\"], \
         \"max_objects\": {}, \"min_cf\": {}, \"min_speedup\": {}, \"weight_grid\": {}, \"opportunistic\": {} }},\n  \
         \"programs\": [\n{}\n  ],\n  \
         \"summary\": {{ \"programs\": {}, \"improved\": {improved}, \"speedup_floor\": {floor:.4}, \
         \"geomean\": {g_all:.4}, \"contended_programs\": {}, \"geomean_contended\": {g_rmc:.4} }},\n  \
         \"asymmetric_scenario\": {{ \"description\": \"channels into node 3 at 40% bandwidth; master-allocated 32 MiB partitioned scan\", \
         \"shape\": \"T32-N4\", \"uniform_cycles\": {uniform_cycles:.0}, \"weighted_cycles\": {weighted_cycles:.0}, \
         \"weighted_over_uniform\": {:.4}, \"plan\": \"{}\", \"weighted_selected\": {weighted_selected}, \
         \"speedup\": {:.4} }}\n}}\n",
        cfg.max_objects,
        cfg.min_cf,
        cfg.min_speedup,
        cfg.weight_grid,
        cfg.opportunistic,
        programs.join(",\n"),
        rows.len(),
        contended.len(),
        uniform_cycles / weighted_cycles,
        asym_report.plan.describe(),
        asym_report.speedup(),
    );
    write_text(&out, &json)?;
    eprintln!("wrote {out}");
    Ok(())
}
