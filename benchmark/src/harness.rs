//! What every workload shares: the seeded generator, set-up (training),
//! and the record of one measured section.

use crate::stats;
use crate::trace::{Tracer, OP};
use drbw_core::{training, ContentionClassifier, DrBw};
use mldt::tree::TrainConfig;
use numasim::config::MachineConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// means the same inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of one
    /// seed (one per workload unit).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What one `run` was asked to do.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub seed: u64,
    /// Host seconds the measured section is sized for.
    pub seconds: f64,
    pub trace: bool,
}

/// The trained tool and what training cost.
pub struct Setup {
    pub tool: DrBw,
    pub collect_s: f64,
    pub fit_s: f64,
}

/// Train DR-BW as a first-time user would: the full Table II grid (192
/// simulations), no model cache, no run cache, then the tree fit. The
/// grid runs on one thread — pinned, not inherited from the host's core
/// count — so `setup_s` means the same work everywhere.
pub fn train() -> Setup {
    let mcfg = MachineConfig::scaled();
    let start = Instant::now();
    let data = training::collect_training_set_serial(&mcfg, &training::training_specs());
    let collect_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let classifier =
        ContentionClassifier::try_train(&data, TrainConfig::default()).expect("the full Table II grid always trains");
    let fit_s = start.elapsed().as_secs_f64();
    Setup { tool: DrBw::new(classifier), collect_s, fit_s }
}

/// Set-up of the smoke shape (`run --smoke`, and the unit tests): the
/// model the repository ships instead of seven seconds of training.
pub fn load_shipped_model() -> Setup {
    let classifier = ContentionClassifier::from_model_string(include_str!("../../results/drbw.model"))
        .expect("results/drbw.model is a valid classifier");
    Setup { tool: DrBw::new(classifier), collect_s: 0.0, fit_s: 0.0 }
}

/// The record of one measured section: `rounds` repetitions of the same
/// ops.
pub struct Section {
    pub tracer: Tracer,
    started: Instant,
    op_started: Instant,
    round_started: Instant,
    /// Latency of every op of every round, in execution order,
    /// milliseconds.
    pub op_ms: Vec<f64>,
    /// For each finished round, where it ends in `op_ms` and how long it
    /// took.
    rounds: Vec<(usize, f64)>,
    /// Why each failed op failed.
    pub failures: Vec<String>,
    /// Simulated accesses, or samples reported ingested, over all rounds.
    pub items: u64,
    /// The whole section as the clock saw it, noise included.
    pub wall_s: f64,
    /// What the end-to-end metrics are computed from; the workload picks
    /// the reduction that fits its loop.
    pub headline: Headline,
    /// Per-layer values the workload computed itself (counts, ratios);
    /// busy times come from the tracer.
    pub values: BTreeMap<&'static str, f64>,
}

/// A section reduced to its least-disturbed repetitions.
///
/// Interference on the reference host only ever adds time, in bursts of
/// about a second that double an op's latency and in regimes of minutes;
/// the sum over a 12-second section spread 13–40 % between identical
/// runs. The fastest repetition of an op is the one least disturbed, and
/// it repeats: so every section runs its ops several times, and the
/// end-to-end metrics describe the section at the pace of its best
/// repetitions (`trace.wall_s` keeps the raw time).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Headline {
    /// Seconds the whole section takes at that pace.
    pub wall_s: f64,
    /// The op latencies at that pace, ascending, milliseconds.
    pub op_ms: Vec<f64>,
}

impl Section {
    /// Start the measured section. Everything before this call is set-up.
    pub fn start(trace: bool) -> Self {
        let now = Instant::now();
        Self {
            tracer: Tracer::new(trace),
            started: now,
            op_started: now,
            round_started: now,
            op_ms: Vec::new(),
            rounds: Vec::new(),
            failures: Vec::new(),
            items: 0,
            wall_s: 0.0,
            headline: Headline::default(),
            values: BTreeMap::new(),
        }
    }

    pub fn started(&self) -> Instant {
        self.started
    }

    /// Index the next op will get.
    pub fn next_op(&self) -> u32 {
        self.op_ms.len() as u32
    }

    pub fn begin_op(&mut self) {
        self.tracer.begin(OP, self.next_op());
        self.op_started = Instant::now();
    }

    /// Close the op begun last, with the outcome of its checks.
    pub fn end_op(&mut self, checks: Result<(), String>) {
        let ms = self.op_started.elapsed().as_secs_f64() * 1e3;
        self.tracer.end(1);
        self.record_op(ms, checks);
    }

    /// Record an op timed elsewhere (the serve workloads' sessions overlap,
    /// so they cannot use the begin/end pair).
    pub fn record_op(&mut self, ms: f64, checks: Result<(), String>) {
        if let Err(why) = checks {
            self.failures.push(format!("op {}: {why}", self.op_ms.len()));
        }
        self.op_ms.push(ms);
    }

    /// Close the current round: the ops recorded since the last call.
    pub fn end_round(&mut self) {
        let now = Instant::now();
        self.end_round_lasting(now.duration_since(self.round_started).as_secs_f64());
        self.round_started = now;
    }

    /// Close the current round, whose length was fixed elsewhere (a
    /// slice of an open-loop schedule).
    pub fn end_round_lasting(&mut self, seconds: f64) {
        self.rounds.push((self.op_ms.len(), seconds));
    }

    /// End the measured section.
    pub fn finish(&mut self) {
        self.wall_s = self.started.elapsed().as_secs_f64();
    }

    /// Each round's ops and length.
    fn round_slices(&self) -> impl Iterator<Item = (&[f64], f64)> {
        let starts = std::iter::once(0).chain(self.rounds.iter().map(|r| r.0));
        starts.zip(&self.rounds).map(|(start, &(end, seconds))| (&self.op_ms[start..end], seconds))
    }

    /// For a closed loop whose every round runs the same ops one after
    /// another: each op at its fastest repetition, and the section as
    /// `rounds` times their sum.
    ///
    /// # Panics
    /// Panics unless every round recorded the same number of ops.
    pub fn best_per_op(&self) -> Headline {
        let n = self.rounds.first().map_or(0, |r| r.0);
        assert!(n > 0 && self.op_ms.len() == n * self.rounds.len(), "rounds of a closed loop repeat the same ops");
        let best: Vec<f64> =
            (0..n).map(|i| self.op_ms.iter().skip(i).step_by(n).copied().fold(f64::INFINITY, f64::min)).collect();
        Headline { wall_s: best.iter().sum::<f64>() / 1e3 * self.rounds.len() as f64, op_ms: stats::sorted(&best) }
    }

    /// For rounds whose ops overlap in time (sessions): the round with
    /// the lowest median op latency, and the section as `rounds` times
    /// its length.
    ///
    /// # Panics
    /// Panics when no round recorded an op.
    pub fn best_round(&self) -> Headline {
        self.round_slices()
            .filter(|(ops, _)| !ops.is_empty())
            .map(|(ops, seconds)| Headline { wall_s: seconds * self.rounds.len() as f64, op_ms: stats::sorted(ops) })
            .min_by(|a, b| stats::median(&a.op_ms).total_cmp(&stats::median(&b.op_ms)))
            .expect("a section records at least one op")
    }

    pub fn add(&mut self, name: &'static str, delta: f64) {
        *self.values.entry(name).or_insert(0.0) += delta;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// Rounds of `unit_s` nominal seconds that fit `seconds`; never none.
pub fn rounds_for(seconds: f64, unit_s: f64) -> usize {
    (seconds / unit_s).round().max(1.0) as usize
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(rounds: &[(&[f64], f64)]) -> Section {
        let mut sec = Section::start(false);
        for (ops, seconds) in rounds {
            for &ms in *ops {
                sec.record_op(ms, Ok(()));
            }
            sec.end_round_lasting(*seconds);
        }
        sec
    }

    #[test]
    fn a_closed_loop_is_judged_by_each_ops_fastest_repetition() {
        // Three rounds of the same three ops; a burst doubles round two
        // and hits one op of round three.
        let sec = section(&[
            (&[10.0, 20.0, 30.5][..], 0.061),
            (&[20.0, 40.0, 60.0][..], 0.12),
            (&[10.5, 45.0, 30.0][..], 0.086),
        ]);
        let best = sec.best_per_op();
        assert_eq!(best.op_ms, vec![10.0, 20.0, 30.0]);
        assert!((best.wall_s - 3.0 * 0.060).abs() < 1e-12, "{}", best.wall_s);
    }

    #[test]
    fn overlapping_ops_are_judged_by_the_calmest_round() {
        let sec = section(&[
            (&[3.0, 5.0, 4.0][..], 1.3),
            (&[2.0, 9.0, 2.5][..], 1.1),
            (&[][..], 1.0),
            (&[4.0, 4.0][..], 0.9),
        ]);
        let best = sec.best_round();
        assert_eq!(best.op_ms, vec![2.0, 2.5, 9.0], "lowest median, whatever its tail");
        assert!((best.wall_s - 4.0 * 1.1).abs() < 1e-12);
        assert_eq!(rounds_for(12.0, 2.9), 4);
        assert_eq!(rounds_for(0.5, 2.9), 1);
    }

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
    }

    #[test]
    fn below_and_shuffle_stay_in_range() {
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| r.below(3) < 3));
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut back = v.clone();
        back.sort_unstable();
        assert_eq!(back, (0..50).collect::<Vec<_>>());
        assert_ne!(v, back, "50 items do not shuffle to the identity");
        let mean = (0..20_000).map(|_| r.exponential(2.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 2.0).abs() < 0.1, "exponential mean {mean}");
    }
}
