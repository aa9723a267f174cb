//! Online streaming contention detection.
//!
//! The batch pipeline (`drbw-core`) retains a run's whole sample log and
//! classifies after the fact. This crate is the online counterpart: a
//! [`StreamingDetector`] ingests whole columnar [`pebs::SampleBlock`]s
//! (the one way samples enter it), maintains per-channel incremental
//! feature accumulators over tumbling or sliding [windows](WindowConfig),
//! runs the same trained decision tree at every window boundary, and
//! debounces verdicts with per-channel [hysteresis](HysteresisConfig) so
//! a monitor can raise an alarm *while the run is still going* — in
//! `O(channels)` memory instead of `O(samples)`.
//!
//! The load-bearing property is **batch/stream equivalence**: a closed
//! window's 13-feature vector equals batch extraction
//! (`drbw_core::features::selected_features`) over the same samples
//! bit for bit, because both paths are the same mergeable accumulator
//! (`drbw_core::features::FeatureAccumulator`) with order-independent
//! fixed-point sums. The tree therefore sees exactly the distributions it
//! was trained on — streaming changes *when* it looks, never *what* it
//! sees.
//!
//! Live diagnosis uses a per-channel [space-saving sketch](SpaceSaving) to
//! estimate Contribution Fractions of allocation sites without a log, and
//! [`replay()`] drives recorded simulator runs through the whole path (ring
//! → detector) to measure detection latency and retention against batch.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod detector;
pub mod hysteresis;
pub mod metrics;
pub mod replay;
pub mod topk;
pub mod window;

pub use detector::{ChannelWindow, SketchKey, StreamConfig, StreamingDetector, VerdictEvent, WindowSummary};
pub use hysteresis::{Hysteresis, HysteresisConfig};
pub use metrics::StreamMetrics;
pub use replay::{replay, replay_log, ReplayConfig, ReplayOutcome};
pub use topk::{SpaceSaving, TopEntry};
pub use window::WindowConfig;
