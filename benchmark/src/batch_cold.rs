//! `batch-cold`: the batch pipeline, one Table V case per op, no cache.
//!
//! Closed loop, one client. Each op is `DrBw::analyze` +
//! `Analysis::diagnosis()` on one case; `numasim`'s batched engine does
//! ~99% of the work, so this is where span-walk, SIMD and clock-collapse
//! changes must show. The traced run makes the same public calls
//! `analyze` makes (`runner::run` -> `classify_case` -> `diagnose`), one
//! span each, and the golden counts hold both paths to the same samples
//! and verdict.

use crate::golden::{Blessed, Golden};
use crate::harness::{ratio, rounds_for, Rng, RunSpec, Section, Setup};
use crate::spec::{BATCH_COLD_ROUND_S, SAMPLER_ABLATION_STRIDE, THREAD_CLASSES};
use crate::tsv;
use drbw_core::{diagnose, DrBw, Mode, Profile};
use std::collections::HashMap;
use std::time::Instant;
use workloads::config::{paper_shapes, RunConfig};
use workloads::runner;
use workloads::spec::Workload;
use workloads::suite::table_v_benchmarks;

const GOLDEN_COLUMNS: &str = "benchmark\tinput\tthreads\tnodes\taccesses\tsim_cycles\tsamples";

fn golden() -> Golden {
    Golden::parse(include_str!("../golden/batch-cold.tsv"), 4, 3)
}

/// One case of the Table V sweep.
pub struct Case {
    pub workload: &'static dyn Workload,
    pub rcfg: RunConfig,
}

impl Case {
    fn key(&self) -> String {
        format!("{}\t{}\t{}\t{}", self.workload.name(), self.rcfg.input.name(), self.rcfg.threads, self.rcfg.nodes)
    }
}

/// The repository's reference for each case, from `results/sweep.tsv`:
/// `(actual_rmc, drbw_rmc)` by case key.
fn reference() -> HashMap<String, (bool, bool)> {
    tsv::parse(include_str!("../../results/sweep.tsv"), 11)
        .expect("results/sweep.tsv has 11 columns")
        .into_iter()
        .map(|r| (r[..4].join("\t"), (r[5] == "1", r[6] == "1")))
        .collect()
}

/// The cases a seed chooses, one per (benchmark, input) pair of Table V:
/// pair `g` always runs at thread count `THREAD_CLASSES[g % 4]`, the seed
/// picks the node count among the paper's shapes with that thread count,
/// and the order. Every round of the section runs this same list.
pub fn plan(spec: &RunSpec) -> Vec<Case> {
    let mut rng = Rng::new(spec.seed, 0);
    let mut cases = Vec::new();
    for workload in table_v_benchmarks() {
        for input in workload.inputs() {
            let threads = THREAD_CLASSES[cases.len() % THREAD_CLASSES.len()];
            let shapes: Vec<(usize, usize)> = paper_shapes().into_iter().filter(|s| s.0 == threads).collect();
            let (t, n) = shapes[rng.below(shapes.len())];
            cases.push(Case { workload, rcfg: RunConfig::new(t, n, input) });
        }
    }
    rng.shuffle(&mut cases);
    // A run shorter than a round takes a share of the list.
    let share = (spec.seconds / BATCH_COLD_ROUND_S).min(1.0);
    cases.truncate(((cases.len() as f64 * share).ceil() as usize).max(1));
    cases
}

/// All 512 cases, for `bless`.
pub fn every_case() -> Vec<Case> {
    let mut cases = Vec::new();
    for workload in table_v_benchmarks() {
        for rcfg in workloads::config::cases_for(&workload.inputs()) {
            cases.push(Case { workload, rcfg });
        }
    }
    cases
}

/// What one op produced, for the checks and the counters.
struct Outcome {
    accesses: u64,
    sim_cycles: f64,
    samples: usize,
    rmc: bool,
    channels: usize,
    objects: usize,
}

fn analyze(tool: &DrBw, case: &Case) -> Outcome {
    let a = tool.analyze(case.workload, &case.rcfg);
    let objects = a.diagnosis().overall.len();
    Outcome {
        accesses: a.profile.observed_accesses,
        sim_cycles: a.profile.duration_cycles(),
        samples: a.profile.samples.len(),
        rmc: a.detection.mode() == Mode::Rmc,
        channels: a.detection.channel_modes.len(),
        objects,
    }
}

/// `analyze`, as the public calls it makes, one span each. Returns the
/// outcome and the host seconds the run span took.
///
/// The simulation goes through `workloads::runner::run`, the very
/// function `analyze` reaches, and not through `Engine::new` +
/// `run_phase_auto` spelled out here: the engine is generic over its
/// observer, a copy instantiated in this package is optimised apart from
/// the one the library ships, and it measured 11% slower. `run` builds
/// the workload itself, so the `workloads.build` span times one extra
/// build (0.3% of an op) and `numasim.engine.busy_s` is the run span
/// less that.
fn analyze_traced(tool: &DrBw, case: &Case, sec: &mut Section) -> (Outcome, f64) {
    let op = sec.next_op();
    let mcfg = tool.machine();
    sec.tracer.begin("workloads.build", op);
    std::hint::black_box(case.workload.build(mcfg, &case.rcfg));
    sec.tracer.end(1);

    sec.tracer.begin("numasim.engine", op);
    let start = Instant::now();
    let run = runner::run(case.workload, mcfg, &case.rcfg, Some(*tool.sampler()));
    let run_s = start.elapsed().as_secs_f64();
    sec.tracer.end(run.observed_accesses);
    let profile = Profile {
        samples: run.samples,
        tracker: run.tracker,
        phases: run.phases,
        observed_accesses: run.observed_accesses,
        wall: run.wall,
    };

    sec.tracer.begin("core.classify_case", op);
    let detection = tool.classifier().classify_case(&profile, mcfg.topology.num_nodes());
    sec.tracer.end(detection.channel_modes.len() as u64);

    sec.tracer.begin("core.diagnose", op);
    let objects = diagnose(&profile, &detection.contended_channels).overall.len();
    sec.tracer.end(objects as u64);

    let outcome = Outcome {
        accesses: profile.observed_accesses,
        sim_cycles: profile.duration_cycles(),
        samples: profile.samples.len(),
        rmc: detection.mode() == Mode::Rmc,
        channels: detection.channel_modes.len(),
        objects,
    };
    (outcome, run_s)
}

/// Run `rounds` rounds of `cases` as the measured section. With `blessed`
/// the counts are collected instead of checked.
pub fn run_cases(
    cases: &[Case],
    rounds: usize,
    setup: &Setup,
    trace: bool,
    mut blessed: Option<&mut Blessed>,
) -> Section {
    let tool = &setup.tool;
    let reference = reference();
    let golden = golden();
    let mut agree = 0u64;
    let mut run_s = Vec::with_capacity(cases.len() * rounds);

    let mut sec = Section::start(trace);
    for _ in 0..rounds {
        for case in cases {
            sec.begin_op();
            let out = if trace {
                let (out, s) = analyze_traced(tool, case, &mut sec);
                run_s.push(s);
                out
            } else {
                analyze(tool, case)
            };
            let key = case.key();
            let counts = format!("{}\t{}\t{}", out.accesses, out.sim_cycles, out.samples);
            let (actual_rmc, drbw_rmc) = reference[&key];
            let checks = if out.rmc != drbw_rmc {
                Err(format!("{key:?}: verdict rmc={} but results/sweep.tsv records {drbw_rmc}", out.rmc))
            } else {
                golden.check_or_collect(blessed.as_deref_mut(), key, counts)
            };
            sec.end_op(checks);
            agree += (out.rmc == actual_rmc) as u64;
            sec.items += out.accesses;
            sec.add("numasim.engine.accesses", out.accesses as f64);
            sec.add("numasim.engine.sim_cycles", out.sim_cycles);
            sec.add("pebs.sampler.samples", out.samples as f64);
            sec.add("core.classify_case.channels", out.channels as f64);
            sec.add("core.diagnose.objects", out.objects as f64);
        }
        sec.end_round();
    }
    sec.finish();
    sec.headline = sec.best_per_op();
    let ops = (cases.len() * rounds) as f64;
    sec.set("workloads.build.calls", ops);
    sec.set("core.detect.agree_ground_truth_share", ratio(agree as f64, ops));

    if trace {
        // Ablation by substitution, after the section so it perturbs
        // nothing: every few ops of the first round again with no
        // observer attached. What the sampler costs is the run time that
        // goes away.
        let (mut with, mut without) = (0.0, 0.0);
        for (case, with_s) in cases.iter().zip(&run_s).step_by(SAMPLER_ABLATION_STRIDE) {
            let start = Instant::now();
            std::hint::black_box(runner::run(case.workload, tool.machine(), &case.rcfg, None));
            without += start.elapsed().as_secs_f64();
            with += with_s;
        }
        let layers = sec.tracer.layers();
        let engine_busy = layers["numasim.engine"].busy_s - layers["workloads.build"].busy_s;
        sec.set("numasim.engine.busy_s", engine_busy);
        sec.set("numasim.engine.ns_per_access", ratio(engine_busy * 1e9, sec.items as f64));
        sec.set("pebs.sampler.delta_s", ratio(with - without, with) * run_s.iter().sum::<f64>());
    }
    sec
}

pub fn run(spec: &RunSpec, setup: &Setup) -> Section {
    run_cases(&plan(spec), rounds_for(spec.seconds, BATCH_COLD_ROUND_S), setup, spec.trace, None)
}

pub fn bless(setup: &Setup) -> std::io::Result<()> {
    let mut rows = Blessed::new();
    let sec = run_cases(&every_case(), 1, setup, false, Some(&mut rows));
    assert!(sec.failures.is_empty(), "bless: {:?}", sec.failures);
    crate::golden::write("batch-cold.tsv", GOLDEN_COLUMNS, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::load_shipped_model;

    fn spec(seed: u64, seconds: f64) -> RunSpec {
        RunSpec { seed, seconds, trace: false }
    }

    #[test]
    fn the_seed_chooses_node_counts_and_never_the_work() {
        let keys = |seed| plan(&spec(seed, 12.0)).iter().map(Case::key).collect::<Vec<_>>();
        let (a, b) = (keys(1), keys(2));
        assert_eq!(a, keys(1), "same seed, same inputs");
        assert_ne!(a, b, "another seed, other inputs");
        assert_eq!(a.len(), 64, "one case per (benchmark, input) pair");
        // Whatever the seed, every pair runs at the same thread count.
        let strip_nodes = |keys: &[String]| {
            let mut v: Vec<String> = keys.iter().map(|k| k.rsplit_once('\t').unwrap().0.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(strip_nodes(&a), strip_nodes(&b));
        for threads in THREAD_CLASSES {
            assert_eq!(a.iter().filter(|k| k.split('\t').nth(2) == Some(&threads.to_string())).count(), 16);
        }
    }

    /// The smoke shape, untraced and traced: every reference check runs,
    /// and the decomposed path reproduces `analyze` count for count.
    #[test]
    fn smoke_passes_its_checks_on_both_paths() {
        let setup = load_shipped_model();
        let cases = plan(&RunSpec { seed: 3, seconds: 1.0, trace: false });
        for trace in [false, true] {
            let sec = run_cases(&cases, 2, &setup, trace, None);
            assert_eq!(sec.failures, Vec::<String>::new());
            assert_eq!(cases.len(), 23, "ceil(64 / 2.9): the share of a round that fits a second");
            assert_eq!(sec.op_ms.len(), 46, "two rounds");
            assert_eq!(sec.headline.op_ms.len(), 23);
            assert!(sec.headline.wall_s > 0.0 && sec.headline.wall_s <= sec.wall_s);
            assert!(sec.items > 0 && sec.values["pebs.sampler.samples"] > 0.0);
            assert_eq!(sec.tracer.is_on(), trace);
            if trace {
                let layers = sec.tracer.layers();
                assert_eq!(layers["numasim.engine"].calls, 46);
                assert_eq!(layers["numasim.engine"].count, sec.items);
            }
        }
    }

    #[test]
    fn a_wrong_count_fails_the_op() {
        let g = golden();
        let key = "SP\tlarge\t64\t4";
        let want = g.counts(key).expect("SP large T64-N4 is blessed").join("\t");
        assert_eq!(g.check(key, &want), Ok(()));
        assert!(g.check(key, &want.replacen('6', "7", 1)).is_err());
    }
}
