//! The closed guided-optimization loop: diagnose → plan → apply →
//! re-simulate → verify.
//!
//! The [`Tune`] extension trait adds `tune()` to [`DrBw`]. One call runs
//! the full loop for a case:
//!
//! 1. **Diagnose** — profile the baseline, detect per-channel contention,
//!    and rank root-cause objects by Contribution Fraction (§VI). When
//!    detection is clean and [`TuneConfig::opportunistic`] is on, the
//!    ranking instead targets the channels that carried remote samples —
//!    the verify step makes that safe.
//! 2. **Plan** — for each ranked object, enumerate candidate placements:
//!    co-locate, uniform interleave, weighted interleave, and (for
//!    read-mostly objects) replicate.
//! 3. **Apply + re-simulate** — each candidate becomes a
//!    [`PlacementPlan`] carried by the [`RunConfig`]; the runner rewrites
//!    the freshly built memory map and the engine re-simulates
//!    ([`DrBw::run_each`], served from the tool's run cache when one is
//!    attached).
//! 4. **Verify** — the measured cycles decide. Weighted-interleave weights
//!    are refined from the *measured* per-node pressure of the previous
//!    iterate (§"weight search"); the final plan is kept only if it beats
//!    [`TuneConfig::min_speedup`], else the report carries the no-op plan,
//!    so a tuned program is never slower than the original.
//!
//! The re-simulations run in dependency **waves**, each one parallel batch
//! under the tool's thread cap: after the profiled run, one wave holds the
//! baseline, the coarse remedy and every target's first-pass families;
//! then one wave per weight-search iterate holds the next proposal of every
//! target whose search is still live; the combined plan runs last. The
//! trace is assembled in the order a one-at-a-time loop evaluates — coarse,
//! then per target its families and its weight iterates, then combined —
//! so the report does not depend on the thread count.

use std::collections::HashMap;
use std::iter;

use drbw_core::diagnoser::{diagnose, OwnedDiagnosis, UNTRACKED};
use drbw_core::{DrBw, Profile};
use numasim::topology::{ChannelId, NodeId};
use workloads::config::RunConfig;
use workloads::plan::{PlacementPlan, PlanAction};
use workloads::runner::RunOutcome;
use workloads::spec::Workload;

use crate::config::{CandidateKind, TuneConfig};
use crate::report::{TuneReport, TuneStep};

/// Extension trait implementing the guided-optimization loop on the
/// assembled [`DrBw`] tool.
pub trait Tune {
    /// Run the closed diagnose → plan → re-simulate → verify loop for one
    /// case and return the chosen plan with its measured speedup.
    fn tune(&self, workload: &dyn Workload, rcfg: &RunConfig, cfg: &TuneConfig) -> TuneReport;
}

impl Tune for DrBw {
    fn tune(&self, workload: &dyn Workload, rcfg: &RunConfig, cfg: &TuneConfig) -> TuneReport {
        // 1. Diagnose: one profiled run under this tool's sampler, alone —
        // its diagnosis names the targets.
        let analysis = self.analyze(workload, rcfg);
        let detected = analysis.detection.mode();
        let channels = if !analysis.detection.contended_channels.is_empty() {
            analysis.detection.contended_channels.clone()
        } else if cfg.opportunistic {
            busy_remote_channels(&analysis.profile)
        } else {
            Vec::new()
        };
        let diagnosis = diagnose(&analysis.profile, &channels).into_owned();
        let writes = write_fractions(&analysis.profile);
        drop(analysis); // the owned diagnosis outlives the profile

        let mut lp = Loop {
            tool: self,
            workload,
            rcfg,
            nodes: (0..rcfg.nodes).map(|i| NodeId(i as u8)).collect(),
            evaluations: 0,
        };

        // Coarse remedy: interleave every memory-map object. This is the
        // only candidate that reaches *untracked* allocations (static data
        // the profiler cannot attribute to a site, §VIII.F) — when those
        // dominate the CF ranking, no per-object plan can name them.
        let mut coarse = None;
        if cfg.coarse_interleave && lp.nodes.len() >= 2 {
            let built = workload.build(self.machine(), rcfg);
            let mut labels: Vec<String> = Vec::new();
            for (_, o) in built.mm.objects() {
                if !labels.iter().any(|l| l == &o.label) {
                    labels.push(o.label.clone());
                }
            }
            let mut plan = PlacementPlan::new();
            for label in labels {
                plan.push(label, PlanAction::Interleave(lp.nodes.clone()));
            }
            if !plan.is_empty() {
                let desc = format!("all-objects\u{2192}interleave({} nodes)", lp.nodes.len());
                coarse = Some(Step::new(plan, desc, false));
            }
        }

        // 2. Plan every ranked object's first-pass families.
        let mut objects: Vec<Object> = targets(&diagnosis, cfg)
            .into_iter()
            .map(|label| {
                let write_frac = writes.get(label.as_str()).copied().unwrap_or(1.0);
                Object::first_pass(label, write_frac, cfg, &lp.nodes)
            })
            .collect();

        // 3. Wave one: the baseline, the coarse remedy and every first-pass
        // candidate — none depends on another.
        let mut wave: Vec<&mut Step> = coarse.iter_mut().chain(objects.iter_mut().flat_map(|o| &mut o.steps)).collect();
        let mut measured = lp.run(iter::once(None).chain(wave.iter().map(|s| Some(&s.plan)))).into_iter();
        let baseline = measured.next().expect("the baseline was run").cycles;
        for (step, m) in wave.iter_mut().zip(measured) {
            step.measured = m;
        }

        // One wave per weight-search iterate: every live search proposes
        // from the measured pressure of its current iterate, and the
        // targets' chains advance side by side.
        loop {
            let live: Vec<usize> = (0..objects.len()).filter(|&i| objects[i].propose(cfg, &lp.nodes)).collect();
            if live.is_empty() {
                break;
            }
            let measured = lp.run(live.iter().map(|&i| Some(&objects[i].steps.last().expect("just proposed").plan)));
            for (&i, m) in live.iter().zip(measured) {
                objects[i].record_iterate(m, cfg);
            }
        }

        // Combined plan: merge each object's best action. Only worth an
        // evaluation when two or more objects improved alone.
        let mut combined_plan = PlacementPlan::new();
        for best in objects.iter().filter_map(Object::best).filter(|s| s.measured.cycles < baseline) {
            for e in best.plan.entries() {
                combined_plan.push(e.label.clone(), e.action.clone());
            }
        }
        let mut combined = None;
        if combined_plan.len() >= 2 {
            let desc = format!("combined: {}", combined_plan.describe());
            let mut step = Step::new(combined_plan, desc, false);
            step.measured = lp.run(iter::once(Some(&step.plan))).pop().expect("one run, one result");
            combined = Some(step);
        }

        // 4. Verify: keep the best measured candidate (the first minimum in
        // trace order) only if it clears the acceptance threshold;
        // otherwise fall back to the no-op plan.
        let trace: Vec<TuneStep> = coarse
            .into_iter()
            .chain(objects.into_iter().flat_map(|o| o.steps))
            .chain(combined)
            .map(|s| {
                let cycles = s.measured.cycles;
                TuneStep { plan: s.plan, description: s.description, cycles, speedup: baseline / cycles }
            })
            .collect();
        let best = trace.iter().min_by(|a, b| a.cycles.total_cmp(&b.cycles));
        let (plan, tuned_cycles) = match best {
            Some(s) if baseline / s.cycles >= cfg.min_speedup => (s.plan.clone(), s.cycles),
            _ => (PlacementPlan::new(), baseline),
        };
        TuneReport {
            workload: workload.name().to_string(),
            shape: rcfg.shape_label(),
            detected,
            diagnosis,
            baseline_cycles: baseline,
            plan,
            tuned_cycles,
            trace,
            evaluations: lp.evaluations,
        }
    }
}

/// The tracked objects to plan: the top-CF labels above the CF floor, or,
/// when none clears it, the top tracked labels anyway — the verify step
/// discards useless plans, and a low-CF read-mostly object can still win
/// big via replicate.
fn targets(diagnosis: &OwnedDiagnosis, cfg: &TuneConfig) -> Vec<String> {
    let tracked = || diagnosis.overall.iter().filter(|o| o.label != UNTRACKED);
    let mut labels: Vec<String> =
        tracked().filter(|o| o.cf >= cfg.min_cf).take(cfg.max_objects).map(|o| o.label.clone()).collect();
    if labels.is_empty() {
        labels = tracked().filter(|o| o.cf > 0.0).take(cfg.max_objects).map(|o| o.label.clone()).collect();
    }
    labels
}

/// What a re-simulation leaves behind once its outcome is reduced on the
/// worker: the cycles, and the per-node pressure a weight search reads.
#[derive(Default)]
struct Measured {
    cycles: f64,
    pressure: Vec<f64>,
}

/// One candidate: its plan, and its measurement once its wave has run.
struct Step {
    plan: PlacementPlan,
    description: String,
    /// Whether the step competes for its object's best action. The uniform
    /// interleave evaluated only to seed the weight search does not.
    noted: bool,
    measured: Measured,
}

impl Step {
    fn new(plan: PlacementPlan, description: String, noted: bool) -> Self {
        Self { plan, description, noted, measured: Measured::default() }
    }

    /// A single-object candidate.
    fn action(label: &str, action: PlanAction, noted: bool) -> Self {
        let description = format!("{label}\u{2192}{}", action.describe());
        Self::new(PlacementPlan::new().with(label, action), description, noted)
    }
}

/// One ranked object: its candidates in serial evaluation order, and its
/// weight search while that is live.
struct Object {
    label: String,
    steps: Vec<Step>,
    search: Option<Search>,
}

/// A live weight search: the current weights, the step whose measurement
/// drives the next proposal, and the proposals it may still make.
struct Search {
    weights: Vec<u32>,
    from: usize,
    left: usize,
}

impl Object {
    /// Plan every configured first-pass family in order and, when the
    /// weight search is on, its seed: the measured uniform interleave
    /// (evaluated unnoted if that family was not configured).
    fn first_pass(label: String, write_frac: f64, cfg: &TuneConfig, nodes: &[NodeId]) -> Self {
        let mut steps = Vec::new();
        let mut seed = None;
        for kind in &cfg.candidates {
            let action = match kind {
                CandidateKind::Colocate => PlanAction::ColocateEven { nodes: nodes.len() },
                CandidateKind::Interleave => {
                    seed = Some(steps.len());
                    PlanAction::Interleave(nodes.to_vec())
                }
                CandidateKind::Replicate if write_frac <= cfg.replicate_write_fraction => PlanAction::Replicate,
                // Replicate only read-mostly objects; the weight search
                // starts once its seed has been measured.
                CandidateKind::Replicate | CandidateKind::WeightedInterleave => continue,
            };
            steps.push(Step::action(&label, action, true));
        }
        let mut search = None;
        if cfg.candidates.contains(&CandidateKind::WeightedInterleave) && nodes.len() >= 2 {
            let from = seed.unwrap_or_else(|| {
                steps.push(Step::action(&label, PlanAction::Interleave(nodes.to_vec()), false));
                steps.len() - 1
            });
            search = Some(Search { weights: vec![1; nodes.len()], from, left: cfg.max_iterations });
        }
        Self { label, steps, search }
    }

    /// Append the next weight-search proposal and return true, or end the
    /// search: out of iterations, or converged (the measured pressure asks
    /// for no shift — nodes above the mean shed pages, nodes with residual
    /// headroom take them).
    fn propose(&mut self, cfg: &TuneConfig, nodes: &[NodeId]) -> bool {
        let Some(mut search) = self.search.take() else { return false };
        if search.left == 0 {
            return false;
        }
        let next = propose_weights(&search.weights, &self.steps[search.from].measured.pressure, cfg.weight_grid);
        if next == search.weights {
            return false;
        }
        search.left -= 1;
        search.weights = next.clone();
        let action = PlanAction::WeightedInterleave { nodes: nodes.to_vec(), weights: next };
        self.steps.push(Step::action(&self.label, action, true));
        self.search = Some(search);
        true
    }

    /// Record the measured proposal; the search goes on only while an
    /// iterate gains at least `min_improvement` over the one it refined.
    fn record_iterate(&mut self, m: Measured, cfg: &TuneConfig) {
        let search = self.search.as_mut().expect("a live search proposed this step");
        let prev = self.steps[search.from].measured.cycles;
        let improvement = (prev - m.cycles) / prev;
        search.from = self.steps.len() - 1;
        self.steps[search.from].measured = m;
        if improvement < cfg.min_improvement {
            self.search = None; // verified gain too small to keep iterating
        }
    }

    /// The object's best noted candidate: the first minimum by measured
    /// cycles.
    fn best(&self) -> Option<&Step> {
        self.steps.iter().filter(|s| s.noted).reduce(|b, s| if s.measured.cycles < b.measured.cycles { s } else { b })
    }
}

/// The tuning case, and the count of re-simulations run for it.
struct Loop<'a> {
    tool: &'a DrBw,
    workload: &'a dyn Workload,
    rcfg: &'a RunConfig,
    nodes: Vec<NodeId>,
    evaluations: usize,
}

impl Loop<'_> {
    /// One wave: re-simulate every plan (`None` = the program as written)
    /// as one parallel batch, reducing each outcome on its worker.
    fn run<'p>(&mut self, plans: impl Iterator<Item = Option<&'p PlacementPlan>>) -> Vec<Measured> {
        let rcfgs: Vec<RunConfig> = plans
            .map(|p| match p {
                Some(p) => self.rcfg.with_plan(p.clone()),
                None => self.rcfg.clone(),
            })
            .collect();
        self.evaluations += rcfgs.len();
        let nodes = &self.nodes;
        self.tool.run_each(self.workload, &rcfgs, |out| Measured {
            cycles: out.cycles(),
            pressure: node_pressure_on(&out, nodes),
        })
    }
}

/// Per-label write fraction over the profile's attributed samples, for the
/// replicate-only-read-mostly gate.
fn write_fractions(profile: &Profile) -> HashMap<String, f64> {
    let mut counts: HashMap<&str, (u64, u64)> = HashMap::new();
    for s in &profile.samples {
        let Some(site) = profile.tracker.attribute_site(s.addr) else { continue };
        let entry = counts.entry(profile.tracker.site(site).label.as_str()).or_insert((0, 0));
        entry.1 += 1;
        if s.is_write {
            entry.0 += 1;
        }
    }
    counts.into_iter().map(|(label, (w, t))| (label.to_string(), w as f64 / t.max(1) as f64)).collect()
}

/// The channels that carried remote samples, busiest first (≥ 1% of remote
/// traffic each) — the opportunistic-mode substitute for the detector's
/// contended set.
fn busy_remote_channels(profile: &Profile) -> Vec<ChannelId> {
    let mut counts: HashMap<ChannelId, u64> = HashMap::new();
    for s in &profile.samples {
        let Some(home) = s.home else { continue };
        if home != s.node {
            *counts.entry(ChannelId { src: s.node, dst: home }).or_insert(0) += 1;
        }
    }
    let total: u64 = counts.values().sum();
    let floor = (total / 100).max(1);
    let mut busy: Vec<(ChannelId, u64)> = counts.into_iter().filter(|&(_, c)| c >= floor).collect();
    busy.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| (a.0.src.0, a.0.dst.0).cmp(&(b.0.src.0, b.0.dst.0))));
    busy.into_iter().map(|(ch, _)| ch).collect()
}

/// Measured pressure per run node: fold the dominant measured phase's
/// memory-controller and inbound-channel utilizations down to one
/// saturation figure per node (see `RunStats::node_pressure`).
fn node_pressure_on(outcome: &RunOutcome, nodes: &[NodeId]) -> Vec<f64> {
    let dominant = outcome.phases.iter().filter(|p| !p.warmup).max_by(|a, b| a.stats.cycles.total_cmp(&b.stats.cycles));
    let Some(phase) = dominant else { return vec![1.0; nodes.len()] };
    let pressure = phase.stats.node_pressure();
    nodes.iter().map(|n| pressure.get(n.0 as usize).copied().unwrap_or(0.0)).collect()
}

/// One multiplicative weight update: scale each node's weight by
/// `mean(pressure) / pressure`, clamped to one octave per iteration, then
/// round onto the integer grid (largest weight = `grid`) and divide out
/// the gcd. Equal pressures return the input unchanged — the fixed point.
fn propose_weights(current: &[u32], pressure: &[f64], grid: u32) -> Vec<u32> {
    let n = current.len();
    let mean = pressure.iter().sum::<f64>() / n as f64;
    if mean.is_nan() || mean <= 1e-12 {
        return current.to_vec(); // idle machine: nothing to rebalance
    }
    let mults: Vec<f64> = pressure.iter().map(|&p| (mean / p.max(1e-3 * mean)).clamp(0.5, 2.0)).collect();
    if mults.iter().all(|m| (m - 1.0).abs() < 0.02) {
        return current.to_vec(); // balanced already: exact fixed point
    }
    let scaled: Vec<f64> = current.iter().zip(&mults).map(|(&w, &m)| w as f64 * m).collect();
    let max = scaled.iter().fold(0.0f64, |a, &b| a.max(b));
    if max.is_nan() || max <= 0.0 {
        return current.to_vec();
    }
    let mut next: Vec<u32> = scaled.iter().map(|&f| ((f * grid as f64 / max).round() as u32).clamp(1, grid)).collect();
    let g = next.iter().copied().fold(0, gcd);
    if g > 1 {
        for w in &mut next {
            *w /= g;
        }
    }
    next
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_pressure_is_the_fixed_point() {
        let w = propose_weights(&[1, 1, 1, 1], &[0.8, 0.8, 0.8, 0.8], 8);
        assert_eq!(w, vec![1, 1, 1, 1], "balanced pressure proposes no shift");
        let w = propose_weights(&[2, 3], &[0.5, 0.5], 8);
        assert_eq!(w, vec![2, 3], "current ratio kept verbatim under equal pressure");
    }

    #[test]
    fn pressured_node_sheds_pages() {
        // Node 0 saturated, node 1 idle: weight mass moves to node 1.
        let w = propose_weights(&[1, 1], &[1.0, 0.25], 8);
        assert!(w[1] > w[0], "headroom node takes more pages: {w:?}");
        // The shift is clamped to one octave per iteration.
        assert!(w[1] as f64 / w[0] as f64 <= 4.0 + 1e-9, "per-iteration clamp holds: {w:?}");
    }

    #[test]
    fn weights_stay_on_grid_and_coprime() {
        let w = propose_weights(&[1, 1, 1, 1], &[1.0, 1.0, 0.5, 0.5], 8);
        assert_eq!(w.len(), 4);
        assert!(*w.iter().max().unwrap() <= 8);
        assert!(w.iter().all(|&x| x >= 1));
        let g = w.iter().copied().fold(0, gcd);
        assert_eq!(g, 1, "gcd divided out: {w:?}");
    }

    #[test]
    fn idle_measurement_changes_nothing() {
        assert_eq!(propose_weights(&[3, 1], &[0.0, 0.0], 8), vec![3, 1]);
    }
}
