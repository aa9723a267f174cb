//! # drbw-tune — the DR-BW guided-optimization autotuner
//!
//! The paper stops at guidance: DR-BW names the objects causing
//! remote-memory bandwidth contention and suggests co-locating,
//! interleaving, or replicating them (§VI.B). This crate closes the loop
//! by *doing* it — and verifying the result under the same simulator that
//! produced the diagnosis:
//!
//! ```text
//! diagnose ──▶ plan candidates ──▶ apply placement ──▶ re-simulate ──▶ verify
//!     ▲                                                                 │
//!     └────────────── weighted-interleave weight refinement ◀───────────┘
//! ```
//!
//! The [`Tune`] extension trait adds [`Tune::tune`] to
//! [`DrBw`](drbw_core::DrBw). Each candidate placement is a
//! [`PlacementPlan`](workloads::plan::PlacementPlan) carried by the run
//! configuration; the runner rewrites the workload's memory map and the
//! engine re-simulates, served from the tool's content-addressed run cache
//! when one is attached. Weighted-interleave candidates (BWAP-style) are
//! refined from the *measured* per-node pressure of the previous iterate
//! until the improvement stalls. The verdict is a [`TuneReport`]: the
//! chosen plan, the verified speedup (≥ 1 by the no-op fallback), and the
//! full convergence trace.
//!
//! The re-simulations run in dependency waves through
//! [`DrBw::run_each`](drbw_core::DrBw::run_each), each wave one parallel
//! batch under the tool's thread cap: the profiled run alone; then the
//! baseline, the coarse remedy and every object's first-pass families;
//! then one wave per weight-search iterate, every live object's chain
//! advancing side by side; the combined plan last. Runs are seeded by
//! their run configuration and the trace is assembled in one-at-a-time
//! order, so the report does not depend on the thread count.
//!
//! ```no_run
//! use drbw_core::{DrBw, TrainingSet};
//! use drbw_tune::{Tune, TuneConfig};
//! use workloads::config::{Input, RunConfig};
//! use workloads::suite;
//!
//! let tool = DrBw::builder().training_set(TrainingSet::Quick).build().unwrap();
//! let program = suite::Streamcluster;
//! let rcfg = RunConfig::new(32, 4, Input::Native);
//! let report = tool.tune(&program, &rcfg, &TuneConfig::default());
//! println!("{}", report.render());
//! assert!(report.speedup() >= 1.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod config;
mod report;
mod tuner;

pub use config::{CandidateKind, TuneConfig, TuneConfigBuilder, TuneConfigError};
pub use report::{TuneReport, TuneStep};
pub use tuner::Tune;
