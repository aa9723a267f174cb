//! # drbw-core — the DR-BW profiler, classifier, and diagnoser
//!
//! This crate is the paper's contribution: a lightweight profiler that
//! **identifies remote-memory bandwidth contention in NUMA architectures
//! with supervised learning** and pinpoints the data objects responsible.
//!
//! The pipeline mirrors Figure 2 of the paper:
//!
//! 1. **Profiler** ([`profiler`]) — runs a program under PEBS-style address
//!    sampling, collecting memory samples and the allocation intercept
//!    table.
//! 2. **Channel association** ([`channels`]) — each sample is associated
//!    with the directed interconnect channel from its *accessing node*
//!    (the CPU's node) to its *locating node* (the sampled address's home,
//!    via the libnuma facade). Detection is per channel, not per program.
//! 3. **Feature extraction** ([`features`]) — per-channel sample batches
//!    are reduced to the statistics of Table I (latency-ratio features,
//!    remote/local DRAM sample rates and latencies, line-fill-buffer
//!    statistics).
//! 4. **Classifier** ([`classifier`], [`training`]) — a CART decision tree
//!    trained on the §V.A mini-programs (sumv/dotv/countv in good and
//!    contended modes, plus the bandit) labels each channel `good` or
//!    `rmc`; a case is `rmc` if any channel is (§VII.A rule 1), a program
//!    if any case is (rule 2).
//! 5. **Diagnoser** ([`diagnoser`]) — for contended channels, samples are
//!    attributed to heap data objects and ranked by Contribution Fraction
//!    `CF_c(A) = Samples(c, A) / Samples(c, ALL)` (§VI); the top objects
//!    are the root causes, and co-locating/interleaving/replicating them
//!    is the optimization guidance.
//!
//! [`heuristics`] implements the single-heuristic baselines DR-BW is
//! compared against in §II (latency thresholds, remote-access counts,
//! all-sockets-touch, bandit interference probing) for the ablation
//! experiments, and [`report`] renders human-readable analyses.
//!
//! The top-level [`DrBw`] type wires the whole pipeline together.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache_contention;
pub mod channels;
pub mod classifier;
pub mod diagnoser;
pub mod error;
pub mod features;
pub mod heuristics;
pub mod profiler;
pub mod registry;
pub mod report;
pub mod training;

pub use classifier::{CaseResult, ContentionClassifier, Mode};
pub use diagnoser::{diagnose, Diagnosis, OwnedDiagnosis};
pub use error::DrbwError;
pub use profiler::{profile, profile_memo, profile_with, Profile};
pub use registry::{ModelHandle, ModelReader, ModelRegistry};

use mldt::tree::TrainConfig;
use numasim::config::MachineConfig;
use pebs::sampler::SamplerConfig;
use rayon::prelude::*;
use std::path::Path;
use training::TrainingSpec;
use workloads::config::RunConfig;
use workloads::spec::Workload;

/// The assembled DR-BW tool: a trained classifier plus the machine and
/// sampler configuration under which the profile → detect → diagnose
/// pipeline runs. Construct one with [`DrBw::builder`] (or [`DrBw::new`] /
/// [`DrBw::load`] when a classifier already exists).
pub struct DrBw {
    classifier: ContentionClassifier,
    machine: MachineConfig,
    sampler: SamplerConfig,
    pool: Option<rayon::ThreadPool>,
    run_cache: Option<std::sync::Arc<runcache::RunCache>>,
}

/// Result of analysing one case end to end.
pub struct Analysis {
    /// The raw profile (samples, attribution, timing).
    pub profile: Profile,
    /// Per-channel detection and the case verdict.
    pub detection: CaseResult,
}

impl Analysis {
    /// Root-cause diagnosis for the contended channels (empty when none
    /// is). Computed on demand — batch sweeps that only read detections
    /// never pay for the ranking — and the result borrows object labels
    /// from this profile's allocation tracker instead of cloning them.
    pub fn diagnosis(&self) -> Diagnosis<'_> {
        diagnose(&self.profile, &self.detection.contended_channels)
    }
}

/// One unit of batch work: a workload plus the run shape to profile it
/// under (see [`DrBw::analyze_batch`]).
#[derive(Clone, Copy)]
pub struct Case<'a> {
    /// The program to profile.
    pub workload: &'a dyn Workload,
    /// Thread/node/input shape (and seed) of the run.
    pub rcfg: &'a RunConfig,
}

impl<'a> Case<'a> {
    /// Bundle a workload with a run configuration.
    pub fn new(workload: &'a dyn Workload, rcfg: &'a RunConfig) -> Self {
        Self { workload, rcfg }
    }
}

/// Which training grid [`DrBwBuilder::build`] runs when it has to train.
#[derive(Debug, Clone)]
pub enum TrainingSet {
    /// The full §V Table II grid: 192 simulations (see
    /// [`training::training_specs`]).
    Full,
    /// The stride-8 subset (24 simulations) — fast, for tests and smoke
    /// runs (see [`training::quick_training_specs`]).
    Quick,
    /// Caller-provided specs.
    Custom(Vec<TrainingSpec>),
}

impl TrainingSet {
    fn specs(&self) -> Vec<TrainingSpec> {
        match self {
            TrainingSet::Full => training::training_specs(),
            TrainingSet::Quick => training::quick_training_specs(),
            TrainingSet::Custom(specs) => specs.clone(),
        }
    }
}

/// Configures and constructs a [`DrBw`] instance.
///
/// ```no_run
/// use drbw_core::{DrBw, TrainingSet};
///
/// let tool = DrBw::builder()
///     .training_set(TrainingSet::Full)
///     .threads(8)
///     .build()
///     .expect("train DR-BW");
/// ```
#[derive(Debug, Clone)]
pub struct DrBwBuilder {
    machine: MachineConfig,
    training_set: TrainingSet,
    train_cfg: TrainConfig,
    sampler: SamplerConfig,
    threads: Option<usize>,
    run_cache: Option<std::path::PathBuf>,
}

impl Default for DrBwBuilder {
    fn default() -> Self {
        Self {
            machine: MachineConfig::scaled(),
            training_set: TrainingSet::Full,
            train_cfg: TrainConfig::default(),
            sampler: SamplerConfig::default(),
            threads: None,
            run_cache: None,
        }
    }
}

impl DrBwBuilder {
    /// The simulated machine to train on and analyze under (default:
    /// [`MachineConfig::scaled`], the paper's 4-socket box).
    pub fn machine(mut self, mcfg: MachineConfig) -> Self {
        self.machine = mcfg;
        self
    }

    /// Which training grid to run (default: [`TrainingSet::Full`]).
    pub fn training_set(mut self, set: TrainingSet) -> Self {
        self.training_set = set;
        self
    }

    /// Decision-tree training hyperparameters (default:
    /// [`TrainConfig::default`]).
    pub fn train_config(mut self, cfg: TrainConfig) -> Self {
        self.train_cfg = cfg;
        self
    }

    /// Full sampler configuration for every profiled run (default: the
    /// paper's 1-in-2000 PEBS setup).
    pub fn sampler(mut self, scfg: SamplerConfig) -> Self {
        self.sampler = scfg;
        self
    }

    /// Sampling period only — one address sample per `period` accesses per
    /// thread. Convenience over [`DrBwBuilder::sampler`] for the common
    /// overhead-versus-precision knob (§VIII.D ablation).
    pub fn sampling_period(mut self, period: u64) -> Self {
        self.sampler.period = period;
        self
    }

    /// Cap the worker threads used for training-set generation and
    /// [`DrBw::analyze_batch`]. Defaults to rayon's global choice
    /// (`RAYON_NUM_THREADS` or all cores). The dataset and analyses do not
    /// depend on this — see the determinism note on
    /// [`training::collect_training_set`].
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Memoize simulated runs in a content-addressed on-disk cache rooted
    /// at `dir` (created if needed). Training-grid runs and every
    /// [`DrBw::analyze`] / [`DrBw::analyze_batch`] profile are then served
    /// from disk when a verified entry exists — bit-identical to
    /// re-simulating (see [`runcache`]) — and stored when not. Off by
    /// default so timing experiments measure real simulation.
    pub fn run_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.run_cache = Some(dir.into());
        self
    }

    /// Produce the configured tool: run the training grid (in parallel)
    /// and train the classifier on it. To reuse a trained model, save it
    /// with [`DrBw::save`] and load it with [`DrBw::load`].
    ///
    /// # Errors
    /// [`DrbwError::Io`] when the thread pool or the run cache cannot be
    /// set up, and [`DrbwError::EmptyTrainingSet`] when a custom spec list
    /// covers only one class.
    pub fn build(self) -> Result<DrBw, DrbwError> {
        let pool = match self.threads {
            Some(n) => Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .map_err(|e| DrbwError::Io(std::io::Error::other(format!("cannot build thread pool: {e}"))))?,
            ),
            None => None,
        };
        let run_cache = match &self.run_cache {
            Some(dir) => Some(std::sync::Arc::new(runcache::RunCache::open(dir)?)),
            None => None,
        };
        let specs = self.training_set.specs();
        let collect = || training::collect_training_set_cached(&self.machine, &specs, run_cache.as_deref());
        let data = match &pool {
            Some(p) => p.install(collect),
            None => collect(),
        };
        let classifier = ContentionClassifier::try_train(&data, self.train_cfg)?;
        Ok(DrBw { classifier, machine: self.machine, sampler: self.sampler, pool, run_cache })
    }
}

impl DrBw {
    /// Start configuring a DR-BW instance.
    pub fn builder() -> DrBwBuilder {
        DrBwBuilder::default()
    }

    /// Wrap an already-trained classifier, with the default machine and
    /// sampler configuration.
    pub fn new(classifier: ContentionClassifier) -> Self {
        Self {
            classifier,
            machine: MachineConfig::scaled(),
            sampler: SamplerConfig::default(),
            pool: None,
            run_cache: None,
        }
    }

    /// Train DR-BW on the full §V mini-program training set (192 runs,
    /// simulated in parallel). Shorthand for
    /// `DrBw::builder().machine(mcfg.clone()).build()`.
    ///
    /// # Panics
    /// Panics when training produces a degenerate dataset; use
    /// [`DrBw::builder`] for a fallible construction.
    pub fn train(mcfg: &MachineConfig) -> Self {
        Self::builder().machine(mcfg.clone()).build().expect("the full Table II grid always trains")
    }

    /// Load a tool whose classifier was saved with [`DrBw::save`] (the
    /// portable `drbw-classifier v1` text format). Machine and sampler
    /// configuration take their defaults.
    ///
    /// # Errors
    /// [`DrbwError::Io`] when the file cannot be read, or a model-format
    /// error when its contents are not a valid classifier.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DrbwError> {
        let text = std::fs::read_to_string(path)?;
        Ok(Self::new(ContentionClassifier::from_model_string(&text)?))
    }

    /// Save the trained classifier to `path` in the portable text model
    /// format, creating parent directories as needed.
    ///
    /// # Errors
    /// [`DrbwError::Io`] when the directories or file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DrbwError> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.classifier.to_model_string())?;
        Ok(())
    }

    /// The trained classifier.
    pub fn classifier(&self) -> &ContentionClassifier {
        &self.classifier
    }

    /// The machine configuration analyses run under.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The sampler configuration analyses run under.
    pub fn sampler(&self) -> &SamplerConfig {
        &self.sampler
    }

    /// The content-addressed run cache, when one was configured with
    /// [`DrBwBuilder::run_cache`] or [`DrBw::attach_run_cache`].
    pub fn run_cache(&self) -> Option<&std::sync::Arc<runcache::RunCache>> {
        self.run_cache.as_ref()
    }

    /// Attach (or share) a run cache after construction. Useful to give
    /// several tools — or a tool plus direct [`runcache::run_memo`]
    /// callers — one cache with combined hit/miss accounting.
    pub fn attach_run_cache(&mut self, cache: std::sync::Arc<runcache::RunCache>) {
        self.run_cache = Some(cache);
    }

    /// Profile one case and run detection on it, under this tool's machine
    /// and sampler configuration (diagnosis is computed lazily by
    /// [`Analysis::diagnosis`]).
    pub fn analyze(&self, workload: &dyn Workload, rcfg: &RunConfig) -> Analysis {
        let profile = profiler::profile_memo(workload, &self.machine, rcfg, self.sampler, self.run_cache.as_deref());
        let detection = self.classifier.classify_case(&profile, self.machine.topology.num_nodes());
        Analysis { profile, detection }
    }

    /// Analyze a batch of cases in parallel, respecting the builder's
    /// thread cap. Results come back in input order, and each equals what
    /// [`DrBw::analyze`] returns for the same case (runs are seeded by
    /// their `RunConfig`, so scheduling cannot perturb them).
    pub fn analyze_batch(&self, cases: &[Case<'_>]) -> Vec<Analysis> {
        let run = || cases.par_iter().map(|c| self.analyze(c.workload, c.rcfg)).collect();
        match &self.pool {
            Some(p) => p.install(run),
            None => run(),
        }
    }
}
