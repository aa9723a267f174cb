//! # drbw — DR-BW: Identifying Bandwidth Contention in NUMA Architectures
//! with Supervised Learning
//!
//! A full Rust reproduction of the IPDPS 2017 paper by Xu, Wen, Gimenez,
//! Gamblin, and Liu. This facade crate re-exports the workspace:
//!
//! * [`numasim`] — the simulated 4-socket NUMA machine (topology, caches,
//!   page placement, bandwidth contention, execution engine);
//! * [`pebs`] — PEBS-style address sampling and malloc interception;
//! * [`mldt`] — decision trees, cross-validation, confusion matrices;
//! * [`core`] — DR-BW itself: profiler, channel association, Table I
//!   features, the contention classifier, and the CF diagnoser;
//! * [`workloads`] — the training mini-programs and analogs of the 23
//!   evaluated benchmarks, with the co-locate / interleave / replicate
//!   optimizations;
//! * [`stream`] — the online counterpart of the batch pipeline: windowed
//!   streaming ingestion, incremental feature extraction, live contention
//!   verdicts with hysteresis, and top-K Contribution-Fraction sketches;
//! * [`runcache`] — content-addressed on-disk memoization of simulated
//!   runs (columnar sample-log codec, hash-verified reads), so repeated
//!   grids and regeneration loops read results instead of re-simulating;
//! * [`tune`] — the guided-optimization autotuner: the closed diagnose →
//!   plan → apply-placement → re-simulate → verify loop, with
//!   weighted-interleave weight search over measured per-node pressure;
//! * [`serve`] — the deployment shape: a sharded, concurrent analysis
//!   service multiplexing many profiling sessions over the streaming
//!   pipeline, with atomic model hot-swap and a concurrent run cache.
//!
//! ## Quickstart
//!
//! ```no_run
//! use drbw::prelude::*;
//!
//! // Train on the §V mini-program grid (192 parallel simulations) and
//! // save the model, so later runs can `DrBw::load` it instead.
//! let tool = DrBw::builder().build().expect("train the DR-BW model");
//! tool.save("drbw.model").expect("write the model");
//! // Analyze a benchmark case end to end.
//! let workload = drbw::workloads::suite::by_name("Streamcluster").unwrap();
//! let analysis = tool.analyze(workload, &RunConfig::new(32, 4, Input::Native));
//! println!("{}", drbw::core::report::render("streamcluster", &analysis.profile,
//!     &analysis.detection, &analysis.diagnosis()));
//! // Or sweep many cases at once on all cores:
//! let shapes = [RunConfig::new(16, 2, Input::Large), RunConfig::new(64, 4, Input::Native)];
//! let cases: Vec<Case> = shapes.iter().map(|r| Case::new(workload, r)).collect();
//! for a in tool.analyze_batch(&cases) {
//!     println!("{}", a.detection.mode().name());
//! }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the binaries regenerating every table and figure of the paper.

pub use drbw_core as core;
pub use drbw_serve as serve;
pub use drbw_stream as stream;
pub use drbw_tune as tune;
pub use mldt;
pub use numasim;
pub use pebs;
pub use runcache;
pub use workloads;

pub mod prelude {
    //! The most common imports for using DR-BW end to end.
    //!
    //! One `use drbw::prelude::*;` brings in:
    //!
    //! * the engine — [`DrBw`], [`DrBwBuilder`], [`TrainingSet`], batch
    //!   analysis via [`Case`] / [`DrBw::analyze_batch`], and the [`Analysis`]
    //!   bundle it returns;
    //! * the pipeline pieces for à-la-carte use — [`profile`],
    //!   [`ContentionClassifier`], [`diagnose`], with their [`Profile`],
    //!   [`CaseResult`], [`Mode`], and [`Diagnosis`] types;
    //! * every error the public surface reports, as [`DrbwError`];
    //! * the configuration types those entry points take —
    //!   [`MachineConfig`], [`RunConfig`] ([`Input`], [`Variant`]),
    //!   [`SamplerConfig`], [`TrainConfig`] — and the [`Workload`] trait
    //!   implemented by every profiled program;
    //! * the streaming detector — [`StreamingDetector`], its
    //!   [`StreamConfig`] / [`WindowConfig`], and the [`VerdictEvent`]s it
    //!   emits;
    //! * the autotuner — the [`Tune`] extension trait (adding
    //!   [`Tune::tune`] to [`DrBw`]), its [`TuneConfig`], the
    //!   [`TuneReport`] it returns, and the [`PlacementPlan`] /
    //!   [`PlanAction`] placement vocabulary plans are written in;
    //! * the analysis service — [`AnalysisServer`] with its
    //!   [`ServerConfig`], the per-session [`SessionHandle`] /
    //!   [`SessionReport`], the [`ServeMetrics`] snapshot, and the
    //!   [`ModelRegistry`] / [`ModelReader`] hot-swap pair.
    //!
    //! Anything rarer (feature indices, report rendering, heuristic
    //! baselines, the training grid) stays behind the full module paths,
    //! e.g. [`crate::core::training`].
    pub use drbw_core::registry::{ModelHandle, ModelReader, ModelRegistry};
    pub use drbw_core::{
        diagnose, profile, Analysis, Case, CaseResult, ContentionClassifier, Diagnosis, DrBw, DrBwBuilder, DrbwError,
        Mode, Profile, TrainingSet,
    };
    pub use drbw_serve::{AnalysisServer, ServeError, ServeMetrics, ServerConfig, SessionHandle, SessionReport};
    pub use drbw_stream::{StreamConfig, StreamingDetector, VerdictEvent, WindowConfig};
    pub use drbw_tune::{Tune, TuneConfig, TuneReport};
    pub use mldt::tree::TrainConfig;
    pub use numasim::config::MachineConfig;
    pub use pebs::sampler::SamplerConfig;
    pub use workloads::config::{Input, RunConfig, Variant};
    pub use workloads::plan::{PlacementPlan, PlanAction};
    pub use workloads::spec::Workload;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_line_up() {
        let cfg = crate::prelude::MachineConfig::scaled();
        assert_eq!(cfg.topology.num_nodes(), 4);
        assert!(crate::workloads::suite::by_name("IRSmk").is_some());
        assert_eq!(crate::core::features::NUM_SELECTED, 13);
        assert_eq!(crate::prelude::WindowConfig::tumbling(1000.0).panes(), 1);
    }
}
