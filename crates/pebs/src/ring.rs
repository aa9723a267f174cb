//! A bounded ring of columnar sample blocks with explicit backpressure
//! and drop accounting.
//!
//! Online monitors cannot retain the full sample log: between the
//! producer (a sampler draining its PEBS buffer, a service client) and
//! the consumer (the streaming detector) sits a fixed-capacity ring.
//! Samples enter it only as whole columnar [`SampleBlock`]s, the way a
//! PEBS monitor drains its hardware buffer in bursts: the producer hands
//! a filled block over by pointer swap ([`BlockRing::offer_block`]) and
//! gets an empty shell back to refill. A block that does not fit is
//! refused whole and its samples are accounted as dropped (backpressure:
//! the producer sees the refusal). The consumer takes whole blocks
//! ([`BlockRing::pop_block`]) and gives the emptied shells back
//! ([`BlockRing::recycle`]), so a steady-state pipeline allocates
//! nothing. Each block carries the [`Instant`] it was queued, for latency
//! attribution.
//!
//! The accounting is in samples, and every sample ever offered is
//! accounted for: `offered == dropped + popped + len` at every instant.

use crate::block::SampleBlock;
use std::collections::VecDeque;
use std::time::Instant;

/// What the ring does when an offered block does not fit.
///
/// Refusing the newest block is the only policy. The enum and
/// [`BlockRing::with_policy`] remain because the repo benchmark
/// (`benchmark/src/serve.rs`) names them; they go when its call site
/// moves to [`BlockRing::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Refuse the newest block (explicit backpressure to the producer).
    #[default]
    RejectNewest,
}

/// Point-in-time snapshot of a ring's loss accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingCounters {
    /// Samples ever offered.
    pub offered: u64,
    /// Samples refused for want of room.
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

/// Samples per block a producer fills before offering it (capped at the
/// ring's capacity); the free pool is sized for blocks of this many.
pub(crate) const BLOCK_CAPACITY: usize = 256;

/// Outcome of one [`BlockRing::offer_block`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOffer {
    /// The whole block was queued without loss.
    Accepted,
    /// There was no room and the entire offered block was refused and
    /// dropped.
    Rejected,
}

/// A bounded FIFO of sealed columnar [`SampleBlock`]s with per-sample
/// loss accounting.
///
/// `capacity` bounds the **total queued samples** across all blocks.
/// Consumed block shells return through [`BlockRing::recycle`] into a
/// bounded free pool, making the steady state allocation-free. See the
/// module docs for the handoff protocol.
#[derive(Debug, Clone)]
pub struct BlockRing {
    sealed: VecDeque<(SampleBlock, Instant)>,
    free: Vec<SampleBlock>,
    capacity: usize,
    queued: usize,
    offered: u64,
    dropped: u64,
    popped: u64,
    peak: usize,
}

impl BlockRing {
    /// A ring holding at most `capacity` samples, refusing blocks that do
    /// not fit.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            sealed: VecDeque::new(),
            free: Vec::new(),
            capacity,
            queued: 0,
            offered: 0,
            dropped: 0,
            popped: 0,
            peak: 0,
        }
    }

    /// [`BlockRing::new`] under the one [`OverflowPolicy`].
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_policy(capacity: usize, policy: OverflowPolicy) -> Self {
        let OverflowPolicy::RejectNewest = policy;
        Self::new(capacity)
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
    /// Panics if `block.len() > capacity`: such a block could never fit.
    pub fn offer_block(&mut self, mut block: SampleBlock) -> (BlockOffer, SampleBlock) {
        let n = block.len();
        if n == 0 {
            return (BlockOffer::Accepted, block);
        }
        assert!(n <= self.capacity, "offered block exceeds ring capacity");
        self.offered += n as u64;
        if self.capacity - self.queued < n {
            self.dropped += n as u64;
            block.clear();
            return (BlockOffer::Rejected, block);
        }
        let shell = take_shell(&mut self.free, block.capacity());
        self.sealed.push_back((block, Instant::now()));
        self.queued += n;
        self.peak = self.peak.max(self.queued);
        (BlockOffer::Accepted, shell)
    }

    /// Dequeue the oldest block together with the instant it was queued
    /// (for latency attribution).
    pub fn pop_block(&mut self) -> Option<(SampleBlock, Instant)> {
        let (b, at) = self.sealed.pop_front()?;
        self.popped += b.len() as u64;
        self.queued -= b.len();
        Some((b, at))
    }

    /// Return a consumed block's shell to the free pool (cleared; the
    /// pool is bounded, excess shells are simply freed).
    pub fn recycle(&mut self, mut block: SampleBlock) {
        block.clear();
        // Enough shells to cover a full queue of default-sized blocks plus
        // in-flight swaps; any more would be unreclaimed growth.
        let bound = self.capacity.div_ceil(BLOCK_CAPACITY.min(self.capacity)) + 2;
        if self.free.len() < bound {
            self.free.push(block);
        }
    }

    /// Samples currently queued (across all blocks).
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Samples of room left (`capacity - len`).
    pub fn space(&self) -> usize {
        self.capacity - self.queued
    }

    /// Maximum number of queued samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples ever offered.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Samples refused for want of room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Samples the consumer has dequeued.
    pub fn popped(&self) -> u64 {
        self.popped
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
}

/// An empty shell of at least `capacity` samples, recycled when the pool
/// has one big enough (a smaller one goes straight back).
fn take_shell(free: &mut Vec<SampleBlock>, capacity: usize) -> SampleBlock {
    match free.pop() {
        Some(b) if b.capacity() >= capacity => b,
        Some(small) => {
            free.push(small);
            SampleBlock::with_capacity(capacity)
        }
        None => SampleBlock::with_capacity(capacity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::MemSample;
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

    fn block(addrs: std::ops::Range<u64>) -> SampleBlock {
        SampleBlock::from_samples(&addrs.map(sample).collect::<Vec<_>>())
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        BlockRing::new(0);
    }

    #[test]
    fn block_ring_reject_newest_accounts_every_drop() {
        let mut r = BlockRing::new(2);
        assert_eq!(r.offer_block(block(0..2)).0, BlockOffer::Accepted);
        assert_eq!(r.space(), 0);
        for a in 2..7 {
            assert_eq!(r.offer_block(block(a..a + 1)).0, BlockOffer::Rejected);
        }
        let (outcome, shell) = r.offer_block(block(7..9));
        assert_eq!(outcome, BlockOffer::Rejected, "no room for the whole block");
        assert!(shell.is_empty(), "the rejected block comes back as an empty shell");
        let c = r.counters();
        assert_eq!((c.offered, c.dropped, c.accepted()), (9, 7, 2));
        // The survivors are the oldest two.
        let (b, _) = r.pop_block().unwrap();
        assert_eq!(b.iter().map(|s| s.addr).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn block_ring_recycles_shells_without_allocation_growth() {
        let mut r = BlockRing::new(8);
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
        BlockRing::new(2).offer_block(block(0..3));
    }

    /// Differential against the per-sample bounded FIFO the ring stands
    /// for: the same schedule of random-length block offers and drains
    /// must yield the same outcomes, the same accepted stream and the same
    /// counters whether samples queue one by one in a `VecDeque` (a block
    /// that does not fit whole is refused whole) or as blocks.
    #[test]
    fn block_ring_matches_sample_ring_under_reject_newest() {
        use proptest::prelude::*;
        proptest::run_proptest("block_ring_matches_sample_ring_under_reject_newest", |rng| {
            let capacity = (1usize..48).sample(rng);
            let ops = (1usize..300).sample(rng);
            let mut scalar: VecDeque<MemSample> = VecDeque::new();
            let (mut scalar_offered, mut scalar_dropped, mut scalar_popped) = (0u64, 0u64, 0u64);
            let mut blocks = BlockRing::new(capacity);
            let mut scalar_seen = Vec::new();
            let mut block_seen = Vec::new();
            let mut next = 0u64;
            for _ in 0..ops {
                if (0usize..4).sample(rng) < 3 {
                    let n = (1usize..capacity + 1).sample(rng);
                    let offered = block(next..next + n as u64);
                    next += n as u64;
                    scalar_offered += n as u64;
                    let scalar_outcome = if scalar.len() + n <= capacity {
                        scalar.extend(offered.iter());
                        BlockOffer::Accepted
                    } else {
                        scalar_dropped += n as u64;
                        BlockOffer::Rejected
                    };
                    prop_assert_eq!(scalar_outcome, blocks.offer_block(offered).0);
                } else {
                    // Drain both completely: block pops arrive in whole
                    // blocks, scalar pops one at a time.
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

    /// Saturation across threads: block producers that never retry
    /// against a slow consumer. Every sample is accounted exactly once,
    /// for arbitrary capacities, block sizes and load shapes, and the
    /// queue never exceeds capacity.
    #[test]
    fn cross_thread_saturation_accounting_proptest() {
        use proptest::prelude::*;
        use std::sync::{Arc, Mutex};
        proptest::run_proptest("cross_thread_saturation_accounting_proptest", |rng| {
            let capacity = (1usize..64).sample(rng);
            let per_producer = (1usize..400).sample(rng);
            let producers = (1usize..4).sample(rng);
            let consume_every = (1usize..16).sample(rng);
            let chunks: Vec<usize> = (0..producers).map(|_| (1usize..capacity + 1).sample(rng)).collect();

            let ring = Arc::new(Mutex::new(BlockRing::new(capacity)));
            let handles: Vec<_> = chunks
                .into_iter()
                .enumerate()
                .map(|(p, chunk)| {
                    let ring = ring.clone();
                    std::thread::spawn(move || {
                        let mut shell = SampleBlock::with_capacity(chunk);
                        for i in 0..per_producer {
                            shell.push(&sample((p * per_producer + i) as u64), None);
                            if shell.is_full() || i + 1 == per_producer {
                                let (_, empty) = ring.lock().unwrap_or_else(|e| e.into_inner()).offer_block(shell);
                                shell = empty;
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
