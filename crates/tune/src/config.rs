//! Tuning-loop configuration, built in the same builder style as
//! `DrBw::builder()`.

/// A family of candidate placements the tuner may propose for a diagnosed
/// object (§VI.B's guided optimizations, plus BWAP's weighted interleave).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateKind {
    /// Split the object into contiguous per-node segments (the paper's
    /// *co-locate*).
    Colocate,
    /// Uniform page interleave over the run's nodes (the paper's
    /// *interleave*).
    Interleave,
    /// Weighted interleave with measured-headroom weight search (BWAP).
    WeightedInterleave,
    /// Replicate read-mostly data on every node (the paper's *replicate*);
    /// only proposed when the object's observed write fraction is below
    /// [`TuneConfig::replicate_write_fraction`].
    Replicate,
}

impl CandidateKind {
    /// Every family, in proposal order.
    pub const ALL: [CandidateKind; 4] = [
        CandidateKind::Colocate,
        CandidateKind::Interleave,
        CandidateKind::WeightedInterleave,
        CandidateKind::Replicate,
    ];
}

/// Why a [`TuneConfigBuilder`] rejected its inputs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TuneConfigError {
    /// No candidate families left to propose.
    NoCandidates,
    /// `max_objects` must be at least 1.
    NoObjects,
    /// The acceptance threshold must be at least 1.0 (a "tuned" plan slower
    /// than the baseline is never acceptable).
    SpeedupBelowOne(f64),
    /// The weight grid must allow at least a 2:1 ratio.
    GridTooCoarse(u32),
    /// A fractional threshold (`min_speedup`, `min_cf`, `min_improvement`
    /// or `replicate_write_fraction`) is NaN or infinite. Comparisons
    /// against NaN are all false, so it would silently disable its check.
    NonFinite {
        /// The builder method that received the value.
        knob: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for TuneConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneConfigError::NoCandidates => write!(f, "empty candidate set"),
            TuneConfigError::NoObjects => write!(f, "max_objects must be at least 1"),
            TuneConfigError::SpeedupBelowOne(s) => write!(f, "min_speedup {s} is below 1.0"),
            TuneConfigError::GridTooCoarse(g) => write!(f, "weight grid {g} cannot express a 2:1 ratio"),
            TuneConfigError::NonFinite { knob, value } => write!(f, "{knob} must be finite, got {value}"),
        }
    }
}

impl std::error::Error for TuneConfigError {}

/// Configuration of the guided-optimization loop. Construct with
/// [`TuneConfig::builder`]; [`TuneConfig::default`] is the paper-faithful
/// setup (all four candidate families, top-3 objects, 15% CF floor).
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Candidate families to propose, in order.
    pub candidates: Vec<CandidateKind>,
    /// How many top-CF diagnosed objects to consider.
    pub max_objects: usize,
    /// Ignore diagnosed objects below this Contribution Fraction.
    pub min_cf: f64,
    /// Weight-search refinement iterations per object.
    pub max_iterations: usize,
    /// Acceptance threshold: the best plan must beat the baseline by at
    /// least this factor, else the report carries the no-op plan.
    pub min_speedup: f64,
    /// Weight-search convergence: stop refining when an iteration improves
    /// cycles by less than this fraction.
    pub min_improvement: f64,
    /// Weight granularity: proposed ratios are scaled so the largest
    /// weight is this many pages per striping cycle.
    pub weight_grid: u32,
    /// When detection is clean, still diagnose against the channels that
    /// carried remote samples and try interleave-style candidates — the
    /// loop verifies against measured cycles either way, so a clean case
    /// can only gain (the no-op fallback bounds the speedup at ≥ 1).
    pub opportunistic: bool,
    /// Also evaluate the paper's coarse remedy — every memory-map object
    /// interleaved over the run's nodes — as one candidate. This is the
    /// only candidate that can reach *untracked* allocations (static
    /// data the profiler cannot attribute, §VIII.F), which per-object
    /// plans keyed on diagnosed labels never name.
    pub coarse_interleave: bool,
    /// Propose [`CandidateKind::Replicate`] only for objects whose sampled
    /// write fraction is at most this.
    pub replicate_write_fraction: f64,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self {
            candidates: CandidateKind::ALL.to_vec(),
            max_objects: 3,
            min_cf: 0.15,
            max_iterations: 4,
            min_speedup: 1.01,
            min_improvement: 0.01,
            weight_grid: 8,
            opportunistic: true,
            coarse_interleave: true,
            replicate_write_fraction: 0.05,
        }
    }
}

impl TuneConfig {
    /// Start configuring a tuning loop.
    pub fn builder() -> TuneConfigBuilder {
        TuneConfigBuilder::default()
    }
}

/// Configures and validates a [`TuneConfig`], mirroring the
/// `DrBw::builder()` idiom.
///
/// ```
/// use drbw_tune::{CandidateKind, TuneConfig};
///
/// let cfg = TuneConfig::builder()
///     .candidates([CandidateKind::Interleave, CandidateKind::WeightedInterleave])
///     .max_iterations(6)
///     .min_speedup(1.05)
///     .build()
///     .expect("valid tuning configuration");
/// assert_eq!(cfg.candidates.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TuneConfigBuilder {
    cfg: TuneConfig,
}

impl TuneConfigBuilder {
    /// Candidate families to propose (default: all four).
    pub fn candidates(mut self, kinds: impl IntoIterator<Item = CandidateKind>) -> Self {
        self.cfg.candidates = kinds.into_iter().collect();
        self
    }

    /// How many top-CF diagnosed objects to consider (default 3).
    pub fn max_objects(mut self, n: usize) -> Self {
        self.cfg.max_objects = n;
        self
    }

    /// CF floor below which diagnosed objects are ignored (default 0.15).
    pub fn min_cf(mut self, cf: f64) -> Self {
        self.cfg.min_cf = cf;
        self
    }

    /// Weight-search refinement iterations per object (default 4; 0
    /// disables refinement, keeping only the headroom-seeded proposal).
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.cfg.max_iterations = n;
        self
    }

    /// Acceptance threshold on measured speedup (default 1.01).
    pub fn min_speedup(mut self, s: f64) -> Self {
        self.cfg.min_speedup = s;
        self
    }

    /// Weight-search convergence threshold (default 0.01 = 1% of cycles).
    pub fn min_improvement(mut self, frac: f64) -> Self {
        self.cfg.min_improvement = frac;
        self
    }

    /// Weight granularity of the search grid (default 8).
    pub fn weight_grid(mut self, g: u32) -> Self {
        self.cfg.weight_grid = g;
        self
    }

    /// Whether to tune clean-detected cases against their busiest remote
    /// channels anyway (default true; the measured-speedup verify step
    /// keeps this safe).
    pub fn opportunistic(mut self, on: bool) -> Self {
        self.cfg.opportunistic = on;
        self
    }

    /// Whether to also evaluate the coarse everything-interleaved remedy,
    /// the only candidate reaching untracked static data (default true).
    pub fn coarse_interleave(mut self, on: bool) -> Self {
        self.cfg.coarse_interleave = on;
        self
    }

    /// Maximum sampled write fraction for replicate candidates
    /// (default 0.05).
    pub fn replicate_write_fraction(mut self, frac: f64) -> Self {
        self.cfg.replicate_write_fraction = frac;
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    /// A [`TuneConfigError`] naming the first invalid knob.
    pub fn build(self) -> Result<TuneConfig, TuneConfigError> {
        let c = self.cfg;
        if c.candidates.is_empty() {
            return Err(TuneConfigError::NoCandidates);
        }
        if c.max_objects == 0 {
            return Err(TuneConfigError::NoObjects);
        }
        for (knob, value) in [
            ("min_speedup", c.min_speedup),
            ("min_cf", c.min_cf),
            ("min_improvement", c.min_improvement),
            ("replicate_write_fraction", c.replicate_write_fraction),
        ] {
            if !value.is_finite() {
                return Err(TuneConfigError::NonFinite { knob, value });
            }
        }
        if c.min_speedup < 1.0 {
            return Err(TuneConfigError::SpeedupBelowOne(c.min_speedup));
        }
        if c.weight_grid < 2 {
            return Err(TuneConfigError::GridTooCoarse(c.weight_grid));
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let cfg = TuneConfig::builder().build().expect("default must build");
        assert_eq!(cfg.candidates, CandidateKind::ALL.to_vec());
        assert_eq!(cfg.max_objects, 3);
        assert!(cfg.opportunistic);
    }

    #[test]
    fn builder_rejects_degenerate_knobs() {
        assert_eq!(TuneConfig::builder().candidates([]).build().unwrap_err(), TuneConfigError::NoCandidates);
        assert_eq!(TuneConfig::builder().max_objects(0).build().unwrap_err(), TuneConfigError::NoObjects);
        assert_eq!(TuneConfig::builder().min_speedup(0.9).build().unwrap_err(), TuneConfigError::SpeedupBelowOne(0.9));
        assert_eq!(TuneConfig::builder().weight_grid(1).build().unwrap_err(), TuneConfigError::GridTooCoarse(1));
    }

    #[test]
    fn builder_rejects_non_finite_thresholds() {
        // `NaN < 1.0` is false, so a NaN `min_speedup` once slipped past
        // the floor check and made every plan fail `speedup >= NaN`.
        let nan = |e: TuneConfigError| matches!(e, TuneConfigError::NonFinite { value, .. } if value.is_nan());
        assert!(nan(TuneConfig::builder().min_speedup(f64::NAN).build().unwrap_err()));
        assert!(nan(TuneConfig::builder().min_cf(f64::NAN).build().unwrap_err()));
        assert!(nan(TuneConfig::builder().min_improvement(f64::NAN).build().unwrap_err()));
        assert!(nan(TuneConfig::builder().replicate_write_fraction(f64::NAN).build().unwrap_err()));
        assert_eq!(
            TuneConfig::builder().min_speedup(f64::INFINITY).build().unwrap_err(),
            TuneConfigError::NonFinite { knob: "min_speedup", value: f64::INFINITY }
        );
        assert_eq!(
            TuneConfig::builder().min_cf(f64::NEG_INFINITY).build().unwrap_err(),
            TuneConfigError::NonFinite { knob: "min_cf", value: f64::NEG_INFINITY }
        );
        let err = TuneConfig::builder().min_improvement(f64::INFINITY).build().unwrap_err();
        assert_eq!(err.to_string(), "min_improvement must be finite, got inf");
    }

    #[test]
    fn builder_chains() {
        let cfg = TuneConfig::builder()
            .candidates([CandidateKind::Replicate])
            .max_objects(1)
            .min_cf(0.4)
            .max_iterations(0)
            .min_speedup(1.5)
            .min_improvement(0.05)
            .weight_grid(4)
            .opportunistic(false)
            .coarse_interleave(false)
            .replicate_write_fraction(0.0)
            .build()
            .unwrap();
        assert!(!cfg.coarse_interleave);
        assert_eq!(cfg.candidates, vec![CandidateKind::Replicate]);
        assert_eq!(cfg.max_objects, 1);
        assert!(!cfg.opportunistic);
        assert_eq!(cfg.weight_grid, 4);
    }
}
