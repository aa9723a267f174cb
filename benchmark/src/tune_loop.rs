//! `tune-loop`: the closed diagnose -> plan -> re-simulate -> verify loop.
//!
//! Closed loop, one client. Each op is one `Tune::tune` on a Table V
//! program at its most contended shape, default `TuneConfig`, no run
//! cache: one profiled run plus a handful of unprofiled re-simulations.
//! The re-simulations run without an observer, so an observer fast-path
//! change moves `batch-cold` and not this; a plan-pruning change in
//! `tune` moves only this.
//!
//! The three costliest Table V programs (Streamcluster, IRSmk, UA: 8 of
//! the 12 seconds all sixteen take) are left out so that the list can
//! run three times in a section; a single pass spread 13–16 % between
//! identical runs.

use crate::golden::{Blessed, Golden};
use crate::harness::{ratio, rounds_for, Rng, RunSpec, Section, Setup};
use crate::spec::{TuneProgram, TUNE_PROGRAMS};
use drbw_tune::{Tune, TuneConfig};
use workloads::config::{Input, RunConfig};
use workloads::spec::Workload;

const GOLDEN_COLUMNS: &str = "program\taccesses_per_run\tevaluations\tbaseline_cycles\ttuned_cycles";

fn golden() -> Golden {
    Golden::parse(include_str!("../golden/tune-loop.tsv"), 1, 4)
}

fn case(p: &TuneProgram) -> (&'static dyn Workload, RunConfig) {
    let workload = workloads::suite::by_name(p.name).expect("tune programs are Table V benchmarks");
    let input = *Input::ALL.iter().find(|i| i.name() == p.input).expect("tune inputs are input-class names");
    (workload, RunConfig::new(p.threads, p.nodes, input))
}

/// The programs a round tunes, in a seeded order: the whole list, or the
/// prefix of it (cheapest first) that fits a `--seconds` shorter than one
/// round. The seed orders the programs and never chooses them: their
/// costs differ hundred-fold, so a seeded subset would make runs
/// incomparable.
pub fn plan(spec: &RunSpec) -> Vec<TuneProgram> {
    let budget_ms = spec.seconds * 1e3;
    let mut spent = 0.0;
    let mut programs = Vec::new();
    for p in TUNE_PROGRAMS {
        spent += p.nominal_ms;
        if spent > budget_ms && !programs.is_empty() {
            break;
        }
        programs.push(p);
    }
    Rng::new(spec.seed, 0).shuffle(&mut programs);
    programs
}

/// Host seconds one round of the whole list takes on the reference host.
fn round_s() -> f64 {
    TUNE_PROGRAMS.iter().map(|p| p.nominal_ms).sum::<f64>() / 1e3
}

/// Geometric mean; 1 for no values.
fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len().max(1) as f64).exp()
}

pub fn run_programs(
    programs: &[TuneProgram],
    rounds: usize,
    setup: &Setup,
    trace: bool,
    mut blessed: Option<&mut Blessed>,
) -> Section {
    let tool = &setup.tool;
    let golden = golden();
    let cfg = TuneConfig::default();
    let (mut evaluations, mut improving) = (0u64, 0u64);
    let mut speedups = Vec::with_capacity(programs.len());

    let mut sec = Section::start(trace);
    for _ in 0..rounds {
        for p in programs {
            let (workload, rcfg) = case(p);
            let op = sec.next_op();
            sec.begin_op();
            sec.tracer.begin("tune.tune", op);
            let report = tool.tune(workload, &rcfg, &cfg);
            sec.tracer.end(report.evaluations as u64);

            // Simulated accesses per run of the program, to turn evaluations
            // into simulated work: from the golden file, or measured when
            // that file is being written.
            let per_run: u64 = if blessed.is_some() {
                workloads::runner::run(workload, tool.machine(), &rcfg, None).observed_accesses
            } else {
                golden.counts(p.name).and_then(|c| c[0].parse().ok()).unwrap_or(0)
            };
            let counts =
                format!("{per_run}\t{}\t{}\t{}", report.evaluations, report.baseline_cycles, report.tuned_cycles);
            let checks = if report.tuned_cycles > report.baseline_cycles {
                sec.add("tune.floor_violations", 1.0);
                Err(format!("{}: tuned {} cycles > baseline {}", p.name, report.tuned_cycles, report.baseline_cycles))
            } else {
                golden.check_or_collect(blessed.as_deref_mut(), p.name.to_string(), counts)
            };
            sec.end_op(checks);

            evaluations += report.evaluations as u64;
            improving += report.trace.iter().filter(|s| s.cycles < report.baseline_cycles).count() as u64;
            speedups.push(report.speedup());
            // One profiled run, then `evaluations` unprofiled ones.
            sec.items += (1 + report.evaluations as u64) * per_run;
        }
        sec.end_round();
    }
    sec.finish();
    sec.headline = sec.best_per_op();
    sec.set("tune.evaluations", evaluations as f64);
    sec.set("tune.improving_share", ratio(improving as f64, evaluations as f64));
    sec.set("tune.speedup_geomean", geomean(&speedups));
    sec.add("tune.floor_violations", 0.0);

    if trace {
        let busy = sec.tracer.layers().get("tune.tune").map_or(0.0, |l| l.busy_s);
        sec.set("tune.s_per_evaluation", ratio(busy, evaluations as f64));
        // By substitution: what one access costs the engine with no
        // observer attached, one timed run per program.
        let (mut wall_s, mut accesses) = (0.0, 0u64);
        for p in programs {
            let (workload, rcfg) = case(p);
            let out = workloads::runner::run(workload, tool.machine(), &rcfg, None);
            wall_s += out.wall.as_secs_f64();
            accesses += out.observed_accesses;
        }
        sec.set("numasim.engine.unobserved_ns_per_access", ratio(wall_s * 1e9, accesses as f64));
    }
    sec
}

pub fn run(spec: &RunSpec, setup: &Setup) -> Section {
    run_programs(&plan(spec), rounds_for(spec.seconds, round_s()), setup, spec.trace, None)
}

pub fn bless(setup: &Setup) -> std::io::Result<()> {
    let mut rows = Blessed::new();
    let sec = run_programs(&TUNE_PROGRAMS, 1, setup, false, Some(&mut rows));
    assert!(sec.failures.is_empty(), "bless: {:?}", sec.failures);
    crate::golden::write("tune-loop.tsv", GOLDEN_COLUMNS, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::load_shipped_model;

    fn names(seed: u64, seconds: f64) -> Vec<&'static str> {
        plan(&RunSpec { seed, seconds, trace: false }).iter().map(|p| p.name).collect()
    }

    #[test]
    fn the_seed_orders_the_programs_and_never_chooses_them() {
        let (a, b) = (names(1, 12.0), names(2, 12.0));
        assert_eq!(a.len(), TUNE_PROGRAMS.len());
        assert_ne!(a, b);
        let sorted = |mut v: Vec<&'static str>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(a), sorted(b));
        assert_eq!(rounds_for(12.0, round_s()), 3);
        assert_eq!(sorted(names(1, 1.0)), sorted(TUNE_PROGRAMS[..9].iter().map(|p| p.name).collect()));
        assert_eq!(names(1, 0.001), vec!["Swaptions"], "never an empty run");
        for p in TUNE_PROGRAMS {
            let (w, rcfg) = case(&p);
            assert!(w.inputs().contains(&rcfg.input), "{} has no {} input", p.name, p.input);
        }
    }

    #[test]
    fn smoke_passes_its_checks() {
        let setup = load_shipped_model();
        let programs = plan(&RunSpec { seed: 4, seconds: 1.0, trace: true });
        let sec = run_programs(&programs, 1, &setup, true, None);
        assert_eq!(sec.failures, Vec::<String>::new());
        assert_eq!(sec.values["tune.floor_violations"], 0.0);
        assert!(sec.values["tune.speedup_geomean"] >= 1.0);
        assert_eq!(sec.tracer.layers()["tune.tune"].count as f64, sec.values["tune.evaluations"]);
    }
}
