//! Streaming adapter: an [`Observer`] that feeds PEBS samples into a
//! bounded [`BlockRing`] instead of an unbounded log.
//!
//! The batch pipeline's [`AddressSampler`] appends every record to a
//! `Vec` that lives as long as the run — fine for offline analysis,
//! unacceptable for an always-on monitor. [`StreamingSampler`] keeps the
//! sampling discipline (per-thread period, latency threshold, jitter,
//! per-sample cost) by delegating to an inner [`AddressSampler`] and moves
//! each record into a columnar block, the way PEBS fills its hardware
//! buffer. A full block is offered to the fixed-capacity ring, where a
//! consumer (e.g. `drbw-stream`'s detector) drains it concurrently with
//! the run; the partial tail is offered at every phase end and when the
//! ring is taken out. Overflow is the ring's policy; nothing here grows
//! with run length.

use crate::block::SampleBlock;
use crate::ring::{BlockRing, BLOCK_CAPACITY};
use crate::sampler::{AddressSampler, SamplerConfig};
use numasim::engine::{AccessEvent, Observer};
use numasim::stats::RunStats;
use numasim::topology::ThreadId;

/// An [`AddressSampler`] whose records land in a bounded [`BlockRing`].
#[derive(Debug, Clone)]
pub struct StreamingSampler {
    inner: AddressSampler,
    ring: BlockRing,
    /// The block being filled (always `Some` between calls).
    block: Option<SampleBlock>,
}

impl StreamingSampler {
    /// A streaming sampler with the given sampling config over the given
    /// ring. Records are offered in blocks of up to 256 samples (or the
    /// ring's capacity, if smaller).
    ///
    /// # Panics
    /// Panics if `cfg.period == 0` (see [`AddressSampler::new`]).
    pub fn new(cfg: SamplerConfig, ring: BlockRing) -> Self {
        let block = SampleBlock::with_capacity(BLOCK_CAPACITY.min(ring.capacity()));
        Self { inner: AddressSampler::new(cfg), ring, block: Some(block) }
    }

    /// The ring, for draining.
    pub fn ring(&self) -> &BlockRing {
        &self.ring
    }

    /// Mutable ring access (the consumer side).
    pub fn ring_mut(&mut self) -> &mut BlockRing {
        &mut self.ring
    }

    /// Total accesses observed (sampled or not).
    pub fn observed_accesses(&self) -> u64 {
        self.inner.observed_accesses()
    }

    /// Hand the partial tail block to the ring and take the ring out of
    /// the adapter (e.g. after the run ends).
    pub fn into_ring(mut self) -> BlockRing {
        self.offer_block();
        self.ring
    }

    /// Hand the block being filled to the ring (a no-op when it is
    /// empty) and keep the shell the ring hands back.
    fn offer_block(&mut self) {
        let block = self.block.take().expect("a block is always being filled");
        self.block = Some(self.ring.offer_block(block).1);
    }
}

impl Observer for StreamingSampler {
    #[inline]
    fn on_access(&mut self, ev: &AccessEvent) -> f64 {
        let cost = self.inner.on_access(ev);
        // The inner sampler records at most one sample per access; move it
        // into the block so the inner log never grows.
        if !self.inner.samples().is_empty() {
            for s in self.inner.drain_samples() {
                let block = self.block.as_mut().expect("a block is always being filled");
                block.push(&s, None);
                if block.is_full() {
                    self.offer_block();
                }
            }
        }
        cost
    }

    fn on_phase_end(&mut self, stats: &RunStats) {
        self.inner.on_phase_end(stats);
        self.offer_block();
    }

    fn set_enabled(&mut self, enabled: bool) {
        self.inner.set_enabled(enabled);
    }

    /// Forward the bulk fast path: the inner sampler's promise is valid
    /// here too, since skipped events produce no ring traffic.
    #[inline]
    fn run_hint(&mut self, thread: ThreadId) -> u64 {
        self.inner.run_hint(thread)
    }

    #[inline]
    fn on_run(&mut self, thread: ThreadId, n: u64) {
        self.inner.on_run(thread, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numasim::hierarchy::DataSource;
    use numasim::topology::{CoreId, NodeId, ThreadId};

    fn event(i: u64) -> AccessEvent {
        AccessEvent {
            time: i as f64,
            thread: ThreadId(0),
            core: CoreId(0),
            node: NodeId(0),
            addr: 0x1000 + i * 64,
            is_write: false,
            source: DataSource::LocalDram,
            home: Some(NodeId(0)),
            latency: 120.0,
        }
    }

    fn cfg(period: u64) -> SamplerConfig {
        SamplerConfig { period, latency_threshold: 0.0, latency_jitter: 0.0, per_sample_cost: 0.0 }
    }

    #[test]
    fn records_flow_into_the_ring() {
        let mut s = StreamingSampler::new(cfg(10), BlockRing::new(64));
        for i in 0..200 {
            s.on_access(&event(i));
        }
        assert_eq!(s.observed_accesses(), 200);
        assert!(s.ring().is_empty(), "records wait in the block until it fills");
        let ring = s.into_ring();
        assert_eq!(ring.len(), 20, "taking the ring out offers the partial block");
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn overflow_is_accounted_not_silent() {
        let mut s = StreamingSampler::new(cfg(10), BlockRing::new(5));
        for i in 0..200 {
            s.on_access(&event(i));
        }
        // 20 records offered into a 5-slot ring nobody drains.
        assert_eq!(s.ring().offered(), 20);
        assert_eq!(s.ring().len(), 5);
        assert_eq!(s.ring().dropped(), 15);
    }

    #[test]
    fn consumer_can_drain_mid_run() {
        let mut s = StreamingSampler::new(cfg(10), BlockRing::new(5));
        let mut drained = 0u64;
        for i in 0..200 {
            s.on_access(&event(i));
            while let Some((b, _)) = s.ring_mut().pop_block() {
                drained += b.len() as u64;
                s.ring_mut().recycle(b);
            }
        }
        assert_eq!(drained, 20, "a keeping-up consumer loses nothing");
        assert_eq!(s.ring().dropped(), 0);
        assert!(s.into_ring().is_empty());
    }

    #[test]
    fn disabled_phases_record_nothing() {
        let mut s = StreamingSampler::new(cfg(10), BlockRing::new(64));
        s.set_enabled(false);
        for i in 0..100 {
            s.on_access(&event(i));
        }
        s.set_enabled(true);
        for i in 0..100 {
            s.on_access(&event(i));
        }
        assert_eq!(s.into_ring().len(), 10, "only the enabled phase recorded");
    }
}
