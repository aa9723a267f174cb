//! # pebs — address sampling and allocation tracking
//!
//! The measurement substrate of the DR-BW reproduction. On the paper's
//! testbed this role is played by Intel's Precise Event-Based Sampling
//! (PEBS) with latency extensions, sampling the event
//! `MEM_TRANS_RETIRED:LATENCY_ABOVE_THRESHOLD` once every 2000 memory
//! accesses independently in each thread, plus `LD_PRELOAD` interception of
//! the malloc family and libnuma page queries. Here:
//!
//! * [`sampler::AddressSampler`] implements [`numasim::Observer`], watching
//!   every simulated access and recording one in `period` per thread as a
//!   [`sample::MemSample`] — address, CPU, thread, data source, latency —
//!   the exact record schema of a PEBS memory sample;
//! * [`alloc::AllocationTracker`] mirrors the profiler's malloc-family
//!   interception: every heap allocation is recorded with its allocation
//!   site (label + source line) and address range, and samples are later
//!   attributed to data objects by range lookup;
//! * [`numa_api`] is the libnuma facade (`numa_node_of_addr`,
//!   `alloc_onnode`, interleaving) used both by the profiler (to find a
//!   sample's locating node) and by the optimizations;
//! * [`block::SampleBlock`] and [`ring::BlockRing`] are the online path:
//!   a bounded ring with explicit backpressure/drop accounting that
//!   samples enter only as whole fixed-capacity structure-of-arrays
//!   blocks, handed off by pointer swap so each sample is copied once,
//!   into its block, and never again;
//! * [`stream::StreamingSampler`] is the observer adapter that feeds the
//!   ring, so a live consumer (the `drbw-stream` detector) can watch a run
//!   without retaining its full sample log;
//! * [`tenant::TenantMap`] attributes samples from a multi-tenant scenario
//!   (see `numasim::sched`) back to the tenant that issued them, so a mixed
//!   sample log can be partitioned per tenant for replay.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alloc;
pub mod block;
pub mod ibs;
pub mod mrk;
pub mod numa_api;
pub mod ring;
pub mod sample;
pub mod sampler;
pub mod stream;
pub mod tenant;

pub use alloc::{AllocId, AllocationTracker, SiteId};
pub use block::SampleBlock;
pub use ibs::{IbsConfig, IbsSampler};
pub use mrk::{MrkConfig, MrkSampler};
pub use ring::{BlockOffer, BlockRing, OverflowPolicy, RingCounters};
pub use sample::MemSample;
pub use sampler::{AddressSampler, SamplerConfig};
pub use stream::StreamingSampler;
pub use tenant::TenantMap;
