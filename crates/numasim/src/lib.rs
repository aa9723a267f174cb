//! # numasim — a discrete-time NUMA machine simulator
//!
//! This crate is the hardware substrate for the DR-BW reproduction. The
//! original paper ran on a 32-core, 4-socket Intel Xeon E5-4650 and relied
//! on PEBS address sampling; neither is available here, so we simulate the
//! parts of the machine that the DR-BW profiler actually observes:
//!
//! * a **topology** of fully connected NUMA nodes, each with its own cores,
//!   shared last-level cache, and memory controller ([`topology`]);
//! * a **cache hierarchy** (per-core L1/L2, per-node L3, line-fill buffers)
//!   that classifies every access into a [`DataSource`] ([`cache`],
//!   [`hierarchy`]);
//! * a **memory map** with page-granularity placement policies — first
//!   touch, bind, interleave, co-locate, replicate — exactly the
//!   vocabulary libnuma gives the paper's optimizations ([`memmap`]);
//! * a **bandwidth model** that accounts bytes per interconnect channel and
//!   per memory controller each round and inflates DRAM latency with an
//!   M/D/1-style queueing factor as utilization approaches saturation
//!   ([`bandwidth`]) — this is what produces *bandwidth contention*;
//! * an **execution engine** that advances simulated threads, bound to
//!   cores, through their memory [`access`] streams in deterministic
//!   round-robin rounds ([`engine`]; the per-access reference its tests
//!   compare against is [`oracle`]);
//! * a **discrete-event scheduler** over the same machine state that
//!   co-schedules several independent tenants with staggered arrivals,
//!   bursty phases, and mid-run core migration ([`sched`]).
//!
//! Addresses are synthetic: the simulator models *where* data lives and
//! *how long* accesses take, not data values. Workloads are therefore
//! access-pattern generators (see the `drbw-workloads` crate).
//!
//! ## Example
//!
//! ```
//! use numasim::prelude::*;
//!
//! let cfg = MachineConfig::scaled();
//! let mut mm = MemoryMap::new(&cfg);
//! // One 1 MiB array, all pages bound to node 0 (like a master-thread
//! // first-touch allocation).
//! let obj = mm.alloc("a", 1 << 20, PlacementPolicy::Bind(NodeId(0)));
//!
//! // Eight threads on node 1 stream over the array remotely.
//! let mut threads = Vec::new();
//! for t in 0..8u32 {
//!     let stream = SeqStream::new(obj.base, obj.size, 2, AccessMix::read_only())
//!         .with_compute(4.0);
//!     threads.push(ThreadSpec::new(t, CoreId(8 + t), Box::new(stream)));
//! }
//! let mut engine = Engine::new(&cfg, mm, NullObserver);
//! let stats = engine.run_phase(threads);
//! assert!(stats.counts.remote_dram > 0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod access;
pub mod bandwidth;
pub mod cache;
pub mod config;
pub mod engine;
pub mod fp;
pub mod hierarchy;
pub mod memmap;
pub mod oracle;
pub mod sched;
// The one crate module allowed to use `unsafe`: the two calls into the
// AVX2 compilations of the cache scans, each behind runtime detection.
#[allow(unsafe_code)]
mod simd;
pub mod stats;
pub mod topology;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::access::{
        AccessMix, AccessRun, AccessStream, BlockCyclicStream, ChainStream, PointerChaseStream, RandomStream,
        SeqStream, WithMlp, ZipStream,
    };
    pub use crate::bandwidth::{BandwidthModel, Resource};
    pub use crate::cache::CacheStats;
    pub use crate::config::{CacheConfig, EngineConfig, InterconnectConfig, LatencyConfig, MachineConfig, MemConfig};
    pub use crate::engine::{AccessEvent, Engine, NullObserver, Observer, ThreadSpec};
    pub use crate::hierarchy::DataSource;
    pub use crate::memmap::{MemoryMap, ObjectHandle, ObjectId, PlacementPolicy};
    pub use crate::sched::{BurstConfig, Migration, ScenarioStats, TenantId, TenantRun, TenantStats};
    pub use crate::stats::{AccessCounts, RunStats};
    pub use crate::topology::{ChannelId, CoreId, NodeId, ThreadId, Topology};
}

pub use prelude::*;
