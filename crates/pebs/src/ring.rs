//! A bounded sample ring buffer with explicit backpressure and drop
//! accounting.
//!
//! Online monitors cannot retain the full sample log: between the sampler
//! (producer) and the streaming detector (consumer) sits a fixed-capacity
//! ring. When the consumer falls behind, the ring either **rejects the
//! newest** sample (backpressure: the producer sees the refusal and the
//! sample is accounted as dropped) or **evicts the oldest** (the PEBS
//! hardware buffer's own overwrite discipline). Either way, every sample
//! ever offered is accounted for: `offered() == accepted() + dropped()`,
//! and `accepted() == len() + popped()`.
//!
//! [`BlockRing`] keeps bounded-FIFO semantics and loss accounting in
//! *samples*, but the queue is a chain of columnar [`SampleBlock`]s. A
//! producer either pushes samples one at a time — each lands in the tail
//! ("open") block, copied exactly once — or hands over a whole
//! pre-filled block by pointer swap
//! ([`BlockRing::offer_block`]). The consumer takes whole blocks
//! ([`BlockRing::pop_block`]) and gives the emptied shells back
//! ([`BlockRing::recycle`]), so a steady-state pipeline allocates
//! nothing. Each block carries the [`Instant`] its first sample was
//! queued, amortising the per-sample clock read the latency metrics used
//! to pay.
//!
//! Under [`OverflowPolicy::DropOldest`] a full `BlockRing` evicts the
//! *oldest whole block* (dropping up to a block of samples at once)
//! rather than a single sample — the coarse-grained analogue of the PEBS
//! hardware buffer overwrite. The accounting invariants are unchanged:
//! `offered == dropped + popped + len` at every instant.

use crate::alloc::SiteId;
use crate::block::SampleBlock;
use crate::sample::MemSample;
use std::collections::VecDeque;
use std::time::Instant;

/// What the ring does when a sample is offered while full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Refuse the newest sample (explicit backpressure to the producer).
    #[default]
    RejectNewest,
    /// Evict the oldest queued block to make room (hardware-buffer
    /// overwrite semantics).
    DropOldest,
}

/// Outcome of one [`BlockRing::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The sample was queued.
    Accepted,
    /// The ring was full and the offered sample was refused
    /// ([`OverflowPolicy::RejectNewest`]).
    RejectedNewest,
    /// The ring was full; the oldest queued block was evicted and the
    /// offered sample queued ([`OverflowPolicy::DropOldest`]).
    EvictedOldest,
}

/// Point-in-time snapshot of a ring's loss accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingCounters {
    /// Samples ever offered.
    pub offered: u64,
    /// Samples lost to overflow (refused or evicted).
    pub dropped: u64,
    /// Samples the consumer has dequeued.
    pub popped: u64,
    /// Samples currently queued.
    pub len: usize,
    /// High-water mark of queued samples.
    pub peak: usize,
}

impl RingCounters {
    /// Samples accepted into the ring (`offered - dropped`).
    pub fn accepted(&self) -> u64 {
        self.offered - self.dropped
    }
}

/// Default samples per block when the caller does not pick one.
const DEFAULT_BLOCK_CAPACITY: usize = 256;

/// Outcome of one [`BlockRing::offer_block`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOffer {
    /// The whole block was queued without loss.
    Accepted,
    /// There was no room and the entire offered block was refused and
    /// dropped ([`OverflowPolicy::RejectNewest`]).
    Rejected,
    /// Room was made by evicting this many of the oldest queued samples
    /// (whole blocks at a time); the offered block was then queued
    /// ([`OverflowPolicy::DropOldest`]).
    Evicted(u64),
}

/// A bounded FIFO of columnar [`SampleBlock`]s with per-sample loss
/// accounting.
///
/// The queue is `sealed` (full or handed-over blocks, oldest first)
/// followed by one `open` tail block that per-sample offers append to.
/// `capacity` bounds the **total queued samples** across all blocks.
/// Consumed block shells return
/// through [`BlockRing::recycle`] into a bounded free pool, making the
/// steady state allocation-free. See the module docs for the handoff
/// protocol and the `DropOldest` whole-block eviction semantics.
#[derive(Debug, Clone)]
pub struct BlockRing {
    open: SampleBlock,
    open_stamp: Option<Instant>,
    sealed: VecDeque<(SampleBlock, Instant)>,
    free: Vec<SampleBlock>,
    capacity: usize,
    block_capacity: usize,
    policy: OverflowPolicy,
    queued: usize,
    offered: u64,
    dropped: u64,
    popped: u64,
    peak: usize,
}

impl BlockRing {
    /// A ring holding at most `capacity` samples, rejecting the newest on
    /// overflow.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, OverflowPolicy::RejectNewest)
    }

    /// A ring with an explicit overflow policy and a default block
    /// granularity of `min(256, capacity)` samples.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_policy(capacity: usize, policy: OverflowPolicy) -> Self {
        Self::with_block_capacity(capacity, DEFAULT_BLOCK_CAPACITY.min(capacity), policy)
    }

    /// A ring with an explicit block granularity (samples per open
    /// block).
    ///
    /// # Panics
    /// Panics unless `0 < block_capacity <= capacity`.
    pub fn with_block_capacity(capacity: usize, block_capacity: usize, policy: OverflowPolicy) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        assert!(block_capacity > 0 && block_capacity <= capacity, "block capacity must be in 1..=capacity");
        Self {
            open: SampleBlock::with_capacity(block_capacity),
            open_stamp: None,
            sealed: VecDeque::new(),
            free: Vec::new(),
            capacity,
            block_capacity,
            policy,
            queued: 0,
            offered: 0,
            dropped: 0,
            popped: 0,
            peak: 0,
        }
    }

    /// Offer one sample into the open tail block (the sample's single
    /// copy). A full ring refuses the sample under `RejectNewest`;
    /// `DropOldest` evicts the oldest whole *block*, so the returned
    /// [`Offer::EvictedOldest`] may then stand for several dropped
    /// samples — exact counts are always available as [`BlockRing::dropped`]
    /// deltas.
    pub fn offer(&mut self, s: MemSample, site: Option<SiteId>) -> Offer {
        self.offered += 1;
        if self.queued == self.capacity {
            match self.policy {
                OverflowPolicy::RejectNewest => {
                    self.dropped += 1;
                    return Offer::RejectedNewest;
                }
                OverflowPolicy::DropOldest => {
                    self.dropped += self.evict_oldest_block() as u64;
                    self.push_open(s, site);
                    self.queued += 1;
                    return Offer::EvictedOldest;
                }
            }
        }
        self.push_open(s, site);
        self.queued += 1;
        self.peak = self.peak.max(self.queued);
        Offer::Accepted
    }

    /// Hand over a whole pre-filled block by pointer swap; the returned
    /// block is an empty shell (recycled when available) for the producer
    /// to refill, so the handoff copies no samples in either direction.
    ///
    /// On [`BlockOffer::Rejected`] the offered samples are dropped (and
    /// accounted); the emptied shell is still returned. An empty offered
    /// block is a no-op.
    ///
    /// # Panics
    /// Panics if `block.len() > capacity` — such a block could never fit
    /// and `DropOldest` would otherwise evict the entire queue for
    /// nothing.
    pub fn offer_block(&mut self, mut block: SampleBlock) -> (BlockOffer, SampleBlock) {
        let n = block.len();
        if n == 0 {
            return (BlockOffer::Accepted, block);
        }
        assert!(n <= self.capacity, "offered block exceeds ring capacity");
        self.offered += n as u64;
        let mut evicted = 0u64;
        if self.capacity - self.queued < n {
            match self.policy {
                OverflowPolicy::RejectNewest => {
                    self.dropped += n as u64;
                    block.clear();
                    return (BlockOffer::Rejected, block);
                }
                OverflowPolicy::DropOldest => {
                    while self.capacity - self.queued < n {
                        evicted += self.evict_oldest_block() as u64;
                    }
                    self.dropped += evicted;
                }
            }
        }
        // Seal the open tail first so FIFO order across offer styles is
        // preserved: previously offered samples stay ahead of this block.
        self.seal_open();
        let shell = self.take_shell(block.capacity());
        self.sealed.push_back((block, Instant::now()));
        self.queued += n;
        self.peak = self.peak.max(self.queued);
        if evicted > 0 {
            (BlockOffer::Evicted(evicted), shell)
        } else {
            (BlockOffer::Accepted, shell)
        }
    }

    /// Dequeue the oldest block together with the instant its first
    /// sample was queued (for latency attribution). Takes the partially
    /// filled open block when no sealed block is ready, so a consumer
    /// that loops `pop_block` always drains the ring completely.
    pub fn pop_block(&mut self) -> Option<(SampleBlock, Instant)> {
        if let Some((b, at)) = self.sealed.pop_front() {
            self.popped += b.len() as u64;
            self.queued -= b.len();
            return Some((b, at));
        }
        if self.open.is_empty() {
            return None;
        }
        let shell = self.take_shell(self.block_capacity);
        let stamp = self.open_stamp.take().unwrap_or_else(Instant::now);
        let b = std::mem::replace(&mut self.open, shell);
        self.popped += b.len() as u64;
        self.queued -= b.len();
        Some((b, stamp))
    }

    /// Return a consumed block's shell to the free pool (cleared; the
    /// pool is bounded, excess shells are simply freed).
    pub fn recycle(&mut self, mut block: SampleBlock) {
        block.clear();
        self.put_free(block);
    }

    /// Samples currently queued (across all blocks).
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Whether the next per-sample offer will overflow.
    pub fn is_full(&self) -> bool {
        self.queued == self.capacity
    }

    /// Samples of room left (`capacity - len`).
    pub fn space(&self) -> usize {
        self.capacity - self.queued
    }

    /// Maximum number of queued samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples per producer-side open block.
    pub fn block_capacity(&self) -> usize {
        self.block_capacity
    }

    /// The overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Samples ever offered.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Samples lost to overflow (refused or evicted).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Samples the consumer has dequeued.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Samples accepted into the ring (`offered - dropped`).
    pub fn accepted(&self) -> u64 {
        self.offered - self.dropped
    }

    /// High-water mark of queued samples.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Consistent snapshot of the loss accounting.
    pub fn counters(&self) -> RingCounters {
        RingCounters {
            offered: self.offered,
            dropped: self.dropped,
            popped: self.popped,
            len: self.queued,
            peak: self.peak,
        }
    }

    /// Append into the open block, stamping it on first use and sealing
    /// it when full.
    fn push_open(&mut self, s: MemSample, site: Option<SiteId>) {
        if self.open.is_empty() {
            self.open_stamp = Some(Instant::now());
        }
        let pushed = self.open.push(&s, site);
        debug_assert!(pushed, "open block is sealed before it fills");
        if self.open.is_full() {
            self.seal_open();
        }
    }

    /// Move a non-empty open block onto the sealed queue.
    fn seal_open(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let shell = self.take_shell(self.block_capacity);
        let stamp = self.open_stamp.take().unwrap_or_else(Instant::now);
        let full = std::mem::replace(&mut self.open, shell);
        self.sealed.push_back((full, stamp));
    }

    /// Drop the oldest queued block, returning how many samples it held.
    fn evict_oldest_block(&mut self) -> usize {
        if let Some((b, _)) = self.sealed.pop_front() {
            let n = b.len();
            self.queued -= n;
            self.recycle(b);
            n
        } else {
            let n = self.open.len();
            self.open.clear();
            self.open_stamp = None;
            self.queued -= n;
            n
        }
    }

    /// An empty shell of at least `capacity` samples, recycled when the
    /// pool has one big enough.
    fn take_shell(&mut self, capacity: usize) -> SampleBlock {
        match self.free.pop() {
            Some(b) if b.capacity() >= capacity => b,
            Some(small) => {
                self.put_free(small);
                SampleBlock::with_capacity(capacity)
            }
            None => SampleBlock::with_capacity(capacity),
        }
    }

    fn put_free(&mut self, block: SampleBlock) {
        // Enough shells to cover a full queue plus in-flight swaps; any
        // more would be unreclaimed growth.
        let bound = self.capacity.div_ceil(self.block_capacity) + 2;
        if self.free.len() < bound {
            self.free.push(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numasim::hierarchy::DataSource;
    use numasim::topology::{CoreId, NodeId, ThreadId};

    fn sample(addr: u64) -> MemSample {
        MemSample {
            time: addr as f64,
            addr,
            cpu: CoreId(0),
            thread: ThreadId(0),
            node: NodeId(0),
            source: DataSource::LocalDram,
            home: Some(NodeId(0)),
            latency: 100.0,
            is_write: false,
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        BlockRing::new(0);
    }

    #[test]
    fn block_ring_preserves_fifo_across_offer_styles() {
        let mut r = BlockRing::with_block_capacity(64, 4, OverflowPolicy::RejectNewest);
        // Three per-sample offers land in the open block...
        for a in 0..3 {
            assert_eq!(r.offer(sample(a), None), Offer::Accepted);
        }
        // ...then a whole handed-over block must queue *behind* them.
        let mut b = SampleBlock::with_capacity(4);
        for a in 3..7 {
            b.push(&sample(a), None);
        }
        let (outcome, shell) = r.offer_block(b);
        assert_eq!(outcome, BlockOffer::Accepted);
        assert!(shell.is_empty());
        assert_eq!(r.len(), 7);
        let mut got = Vec::new();
        while let Some((block, _at)) = r.pop_block() {
            got.extend(block.iter().map(|s| s.addr));
            r.recycle(block);
        }
        assert_eq!(got, (0..7).collect::<Vec<_>>());
        let c = r.counters();
        assert_eq!((c.offered, c.dropped, c.popped, c.len), (7, 0, 7, 0));
        assert_eq!(c.peak, 7);
    }

    #[test]
    fn block_ring_seals_full_open_blocks() {
        let mut r = BlockRing::with_block_capacity(16, 4, OverflowPolicy::RejectNewest);
        for a in 0..9 {
            r.offer(sample(a), Some(crate::alloc::SiteId(a as u32)));
        }
        // 9 samples at block granularity 4: two sealed blocks + one open.
        let (b0, _) = r.pop_block().unwrap();
        assert_eq!(b0.len(), 4);
        assert_eq!(b0.site(2), Some(crate::alloc::SiteId(2)));
        let (b1, _) = r.pop_block().unwrap();
        assert_eq!(b1.len(), 4);
        let (b2, _) = r.pop_block().unwrap();
        assert_eq!(b2.len(), 1, "pop_block drains the partial open block");
        assert!(r.pop_block().is_none());
        assert_eq!(r.popped(), 9);
    }

    #[test]
    fn block_ring_reject_newest_accounts_every_drop() {
        let mut r = BlockRing::with_block_capacity(2, 2, OverflowPolicy::RejectNewest);
        assert_eq!(r.offer(sample(0), None), Offer::Accepted);
        assert_eq!(r.offer(sample(1), None), Offer::Accepted);
        assert!(r.is_full());
        for a in 2..7 {
            assert_eq!(r.offer(sample(a), None), Offer::RejectedNewest);
        }
        let mut late = SampleBlock::with_capacity(2);
        late.push(&sample(7), None);
        late.push(&sample(8), None);
        let (outcome, shell) = r.offer_block(late);
        assert_eq!(outcome, BlockOffer::Rejected, "no room for the whole block");
        assert!(shell.is_empty(), "the rejected block comes back as an empty shell");
        assert_eq!((r.offered(), r.dropped(), r.accepted()), (9, 7, 2));
        // The survivors are the oldest two.
        let (b, _) = r.pop_block().unwrap();
        assert_eq!(b.iter().map(|s| s.addr).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn block_ring_drop_oldest_evicts_whole_blocks() {
        let mut r = BlockRing::with_block_capacity(4, 2, OverflowPolicy::DropOldest);
        for a in 0..4 {
            r.offer(sample(a), None);
        }
        assert!(r.is_full());
        // One more sample evicts the oldest *block* (samples 0 and 1).
        assert_eq!(r.offer(sample(4), None), Offer::EvictedOldest);
        assert_eq!(r.dropped(), 2, "whole-block eviction drops both samples");
        assert_eq!(r.len(), 3);
        assert_eq!(r.offered(), r.dropped() + r.popped() + r.len() as u64);
        let mut got = Vec::new();
        while let Some((block, _)) = r.pop_block() {
            got.extend(block.iter().map(|s| s.addr));
            r.recycle(block);
        }
        assert_eq!(got, vec![2, 3, 4], "the newest samples survive");
        assert_eq!(r.offered(), r.dropped() + r.popped());
    }

    #[test]
    fn block_ring_recycles_shells_without_allocation_growth() {
        let mut r = BlockRing::with_block_capacity(8, 4, OverflowPolicy::RejectNewest);
        let mut producer_shell = SampleBlock::with_capacity(4);
        for round in 0..50u64 {
            for a in 0..4 {
                producer_shell.push(&sample(round * 4 + a), None);
            }
            let (outcome, shell) = r.offer_block(producer_shell);
            assert_eq!(outcome, BlockOffer::Accepted);
            producer_shell = shell;
            let (block, _) = r.pop_block().unwrap();
            assert_eq!(block.len(), 4);
            r.recycle(block);
        }
        assert_eq!(r.popped(), 200);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds ring capacity")]
    fn oversized_block_offer_rejected_loudly() {
        let mut r = BlockRing::with_block_capacity(2, 2, OverflowPolicy::DropOldest);
        let b = SampleBlock::from_samples(&[sample(0), sample(1), sample(2)]);
        r.offer_block(b);
    }

    /// Differential against the per-sample bounded FIFO the ring stands
    /// for: under `RejectNewest`, the same offer/pop schedule must yield
    /// the same accepted stream and the same counters whether samples
    /// queue one by one in a `VecDeque` or as blocks.
    #[test]
    fn block_ring_matches_sample_ring_under_reject_newest() {
        use proptest::prelude::*;
        proptest::run_proptest("block_ring_matches_sample_ring_under_reject_newest", |rng| {
            let capacity = (1usize..48).sample(rng);
            let block_capacity = (1usize..capacity + 1).sample(rng);
            let ops = (1usize..300).sample(rng);
            let mut scalar: VecDeque<MemSample> = VecDeque::new();
            let (mut scalar_offered, mut scalar_dropped, mut scalar_popped) = (0u64, 0u64, 0u64);
            let mut blocks = BlockRing::with_block_capacity(capacity, block_capacity, OverflowPolicy::RejectNewest);
            let mut scalar_seen = Vec::new();
            let mut block_seen = Vec::new();
            for a in 0..ops as u64 {
                if (0usize..4).sample(rng) < 3 {
                    let s = sample(a);
                    scalar_offered += 1;
                    let scalar_outcome = if scalar.len() < capacity {
                        scalar.push_back(s);
                        Offer::Accepted
                    } else {
                        scalar_dropped += 1;
                        Offer::RejectedNewest
                    };
                    let block_outcome = blocks.offer(s, None);
                    prop_assert_eq!(scalar_outcome, block_outcome);
                } else {
                    // Drain both completely: block pops arrive in whole
                    // blocks, struct pops one at a time.
                    scalar_popped += scalar.len() as u64;
                    scalar_seen.extend(scalar.drain(..).map(|s| s.addr));
                    while let Some((b, _)) = blocks.pop_block() {
                        block_seen.extend(b.iter().map(|s| s.addr));
                        blocks.recycle(b);
                    }
                    prop_assert_eq!(&scalar_seen, &block_seen);
                }
            }
            scalar_popped += scalar.len() as u64;
            scalar_seen.extend(scalar.drain(..).map(|s| s.addr));
            while let Some((b, _)) = blocks.pop_block() {
                block_seen.extend(b.iter().map(|s| s.addr));
                blocks.recycle(b);
            }
            prop_assert_eq!(scalar_seen, block_seen);
            prop_assert_eq!(scalar_offered, blocks.offered());
            prop_assert_eq!(scalar_dropped, blocks.dropped());
            prop_assert_eq!(scalar_popped, blocks.popped());
        });
    }

    /// Saturation across threads (ported from the retired shared-ring
    /// suite): producers that never retry against a slow consumer, block
    /// and per-sample offers mixed. Every sample is accounted exactly
    /// once under both overflow policies, for arbitrary capacities and
    /// load shapes, and the queue never exceeds capacity.
    #[test]
    fn cross_thread_saturation_accounting_proptest() {
        use proptest::prelude::*;
        use std::sync::{Arc, Mutex};
        proptest::run_proptest("cross_thread_saturation_accounting_proptest", |rng| {
            let capacity = (1usize..64).sample(rng);
            let block_capacity = (1usize..capacity + 1).sample(rng);
            let per_producer = (1usize..400).sample(rng);
            let producers = (1usize..4).sample(rng);
            let policy =
                if (0usize..2).sample(rng) == 0 { OverflowPolicy::RejectNewest } else { OverflowPolicy::DropOldest };
            let consume_every = (1usize..16).sample(rng);
            let chunk = (1usize..block_capacity + 1).sample(rng);

            let ring = Arc::new(Mutex::new(BlockRing::with_block_capacity(capacity, block_capacity, policy)));
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let ring = ring.clone();
                    std::thread::spawn(move || {
                        // Even producers hand over whole blocks, odd ones
                        // offer per sample — the two styles share one ring.
                        if p % 2 == 0 {
                            let mut shell = SampleBlock::with_capacity(chunk);
                            for i in 0..per_producer {
                                shell.push(&sample((p * per_producer + i) as u64), None);
                                if shell.is_full() || i + 1 == per_producer {
                                    let (_, empty) = ring.lock().unwrap_or_else(|e| e.into_inner()).offer_block(shell);
                                    shell = empty;
                                }
                            }
                        } else {
                            for i in 0..per_producer {
                                ring.lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .offer(sample((p * per_producer + i) as u64), None);
                            }
                        }
                    })
                })
                .collect();
            let consumer = {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    let mut polls = 0usize;
                    loop {
                        polls += 1;
                        // A deliberately slow consumer: drain only every
                        // `consume_every`-th poll so the ring saturates.
                        if polls.is_multiple_of(consume_every) {
                            loop {
                                let mut r = ring.lock().unwrap_or_else(|e| e.into_inner());
                                let Some((b, _)) = r.pop_block() else { break };
                                seen += b.len() as u64;
                                r.recycle(b);
                            }
                        }
                        let c = ring.lock().unwrap_or_else(|e| e.into_inner()).counters();
                        if c.offered == (producers * per_producer) as u64 && c.len == 0 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    seen
                })
            };
            for h in handles {
                h.join().expect("producer panicked");
            }
            let seen = consumer.join().expect("consumer panicked");
            let c = ring.lock().unwrap_or_else(|e| e.into_inner()).counters();
            let total = (producers * per_producer) as u64;
            prop_assert_eq!(c.offered, total, "every offer must be counted");
            prop_assert_eq!(c.accepted(), c.popped, "drained to empty: accepted == popped");
            prop_assert_eq!(c.popped, seen, "consumer saw every accepted sample exactly once");
            prop_assert_eq!(c.offered, c.dropped + c.popped, "no sample vanishes unaccounted");
            prop_assert!(c.peak <= capacity, "queue never exceeds capacity");
        });
    }
}
