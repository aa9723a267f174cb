//! Columnar (structure-of-arrays) sample batches.
//!
//! A block is the only form in which samples enter the online pipeline.
//! Moving one 72-byte [`MemSample`] struct at a time through ring →
//! accumulator would pay a call, a branch and a lock per sample, which at
//! millions of samples per second dominates the actual feature
//! arithmetic. A [`SampleBlock`] instead stores up to a fixed capacity of
//! samples as parallel lanes — one boxed slice per field — so a whole
//! batch moves through the pipeline by pointer swap (moving the lanes,
//! never re-copying elements) and the consumers can run lane kernels:
//! latency-bucket counts, lane-split exact sums, and binary-search pane
//! splitting over the time lane.
//!
//! A sample is copied **once**, at [`SampleBlock::push`], and never
//! again: `pebs::ring::BlockRing` hands sealed blocks to the consumer by
//! value, the consumer reads the lanes in place, and the emptied block is
//! recycled back to the producer side.
//!
//! The lanes are allocated once, at full capacity, and share one length:
//! `push` is one capacity test and ten stores at the same index, `clear`
//! resets the length, and a lane accessor returns the live prefix. A
//! recycled block therefore never re-grows a lane, and nothing past the
//! live prefix is ever visible (`==`, `iter`, `get` and every lane slice
//! stop at `len`).
//!
//! Blocks track whether their time lane is monotone non-decreasing
//! ([`SampleBlock::is_sorted`], maintained on push). Sorted blocks let
//! the streaming detector assign samples to window panes with a
//! block-splitting binary search; unsorted blocks fall back to a
//! sample-at-a-time loop inside the detector, so sortedness is a
//! fast-path hint, never a correctness requirement.

use crate::alloc::SiteId;
use crate::sample::MemSample;
use numasim::hierarchy::DataSource;
use numasim::topology::{CoreId, NodeId, ThreadId};

/// A fixed-capacity columnar batch of [`MemSample`]s plus an optional
/// per-sample allocation-site attribution lane.
///
/// Lane `i` of every array describes the same sample; every lane is
/// `capacity` long and the first `len` entries are live. See the
/// [module docs](self) for why this layout exists.
#[derive(Debug, Clone)]
pub struct SampleBlock {
    len: usize,
    sorted: bool,
    time: Box<[f64]>,
    addr: Box<[u64]>,
    cpu: Box<[CoreId]>,
    thread: Box<[ThreadId]>,
    node: Box<[NodeId]>,
    source: Box<[DataSource]>,
    home: Box<[Option<NodeId>]>,
    latency: Box<[f64]>,
    is_write: Box<[bool]>,
    site: Box<[Option<SiteId>]>,
}

/// A lane of `capacity` slots holding `blank` until their first push
/// (never observable: every read stops at `len`).
fn lane<T: Copy>(capacity: usize, blank: T) -> Box<[T]> {
    vec![blank; capacity].into_boxed_slice()
}

impl SampleBlock {
    /// An empty block that holds at most `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "block capacity must be positive");
        Self {
            len: 0,
            sorted: true,
            time: lane(capacity, 0.0),
            addr: lane(capacity, 0),
            cpu: lane(capacity, CoreId(0)),
            thread: lane(capacity, ThreadId(0)),
            node: lane(capacity, NodeId(0)),
            source: lane(capacity, DataSource::L1),
            home: lane(capacity, None),
            latency: lane(capacity, 0.0),
            is_write: lane(capacity, false),
            site: lane(capacity, None),
        }
    }

    /// A full block over an existing sample slice (sites all `None`) —
    /// the bridge from batch logs into the block pipeline.
    pub fn from_samples(samples: &[MemSample]) -> Self {
        let mut block = Self::with_capacity(samples.len().max(1));
        for s in samples {
            let pushed = block.push(s, None);
            debug_assert!(pushed, "capacity covers the whole slice");
        }
        block
    }

    /// Append one sample (the single copy of its life). Returns `false`
    /// — and stores nothing — if the block is full.
    #[inline]
    pub fn push(&mut self, s: &MemSample, site: Option<SiteId>) -> bool {
        let i = self.len;
        if i == self.time.len() {
            return false;
        }
        if i > 0 {
            // One compare maintains the sorted hint the pane-splitting
            // binary search relies on.
            self.sorted &= s.time >= self.time[i - 1];
        }
        self.time[i] = s.time;
        self.addr[i] = s.addr;
        self.cpu[i] = s.cpu;
        self.thread[i] = s.thread;
        self.node[i] = s.node;
        self.source[i] = s.source;
        self.home[i] = s.home;
        self.latency[i] = s.latency;
        self.is_write[i] = s.is_write;
        self.site[i] = site;
        self.len = i + 1;
        true
    }

    /// Samples currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the next [`SampleBlock::push`] would be refused.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity()
    }

    /// Maximum number of samples the block holds.
    pub fn capacity(&self) -> usize {
        self.time.len()
    }

    /// Whether the time lane is monotone non-decreasing (maintained on
    /// push; trivially true for an empty block).
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Drop all samples, keeping the lane allocations for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
        self.sorted = true;
    }

    /// Reassemble sample `i` as a struct (the detector's unsorted-block
    /// fallback).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> MemSample {
        assert!(i < self.len, "sample {i} of a block holding {}", self.len);
        MemSample {
            time: self.time[i],
            addr: self.addr[i],
            cpu: self.cpu[i],
            thread: self.thread[i],
            node: self.node[i],
            source: self.source[i],
            home: self.home[i],
            latency: self.latency[i],
            is_write: self.is_write[i],
        }
    }

    /// Allocation-site attribution of sample `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn site(&self, i: usize) -> Option<SiteId> {
        self.sites()[i]
    }

    /// The time lane (simulated cycles, one entry per sample).
    pub fn times(&self) -> &[f64] {
        &self.time[..self.len]
    }

    /// The address lane.
    pub fn addrs(&self) -> &[u64] {
        &self.addr[..self.len]
    }

    /// The issuing-core lane.
    pub fn cpus(&self) -> &[CoreId] {
        &self.cpu[..self.len]
    }

    /// The issuing-thread lane.
    pub fn threads(&self) -> &[ThreadId] {
        &self.thread[..self.len]
    }

    /// The issuing-node lane.
    pub fn nodes(&self) -> &[NodeId] {
        &self.node[..self.len]
    }

    /// The data-source lane.
    pub fn sources(&self) -> &[DataSource] {
        &self.source[..self.len]
    }

    /// The home-node lane (`None` when the page's home is unknown).
    pub fn homes(&self) -> &[Option<NodeId>] {
        &self.home[..self.len]
    }

    /// The latency lane (cycles).
    pub fn latencies(&self) -> &[f64] {
        &self.latency[..self.len]
    }

    /// The write-flag lane.
    pub fn writes(&self) -> &[bool] {
        &self.is_write[..self.len]
    }

    /// The allocation-site lane.
    pub fn sites(&self) -> &[Option<SiteId>] {
        &self.site[..self.len]
    }

    /// Iterate the block's samples as reassembled structs (tests and
    /// fallback paths; the hot paths read lanes directly).
    pub fn iter(&self) -> impl Iterator<Item = MemSample> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Heap bytes retained by the lane allocations (capacity, not len).
    pub fn retained_bytes(&self) -> usize {
        self.capacity()
            * (2 * std::mem::size_of::<f64>()
                + std::mem::size_of::<u64>()
                + std::mem::size_of::<CoreId>()
                + std::mem::size_of::<ThreadId>()
                + std::mem::size_of::<NodeId>()
                + std::mem::size_of::<DataSource>()
                + std::mem::size_of::<Option<NodeId>>()
                + std::mem::size_of::<bool>()
                + std::mem::size_of::<Option<SiteId>>())
    }
}

/// Two blocks are equal when they have the same capacity, the same sorted
/// hint and the same live samples; whatever a cleared block's lanes still
/// hold past `len` is not part of its value.
impl PartialEq for SampleBlock {
    fn eq(&self, other: &Self) -> bool {
        self.capacity() == other.capacity()
            && self.sorted == other.sorted
            && self.times() == other.times()
            && self.addrs() == other.addrs()
            && self.cpus() == other.cpus()
            && self.threads() == other.threads()
            && self.nodes() == other.nodes()
            && self.sources() == other.sources()
            && self.homes() == other.homes()
            && self.latencies() == other.latencies()
            && self.writes() == other.writes()
            && self.sites() == other.sites()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(time: f64, addr: u64) -> MemSample {
        MemSample {
            time,
            addr,
            cpu: CoreId(1),
            thread: ThreadId(2),
            node: NodeId(0),
            source: DataSource::RemoteDram,
            home: Some(NodeId(1)),
            latency: 321.5,
            is_write: addr.is_multiple_of(2),
        }
    }

    #[test]
    fn push_get_roundtrips_every_field() {
        let mut b = SampleBlock::with_capacity(4);
        let s0 = sample(1.0, 10);
        let s1 = sample(2.0, 11);
        assert!(b.push(&s0, Some(SiteId(7))));
        assert!(b.push(&s1, None));
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0), s0);
        assert_eq!(b.get(1), s1);
        assert_eq!(b.site(0), Some(SiteId(7)));
        assert_eq!(b.site(1), None);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![s0, s1]);
    }

    #[test]
    fn capacity_bounds_push() {
        let mut b = SampleBlock::with_capacity(2);
        assert!(b.push(&sample(1.0, 0), None));
        assert!(b.push(&sample(2.0, 1), None));
        assert!(b.is_full());
        assert!(!b.push(&sample(3.0, 2), None), "a full block refuses");
        assert_eq!(b.len(), 2, "the refused sample was not stored");
    }

    #[test]
    fn sorted_hint_tracks_time_lane() {
        let mut b = SampleBlock::with_capacity(8);
        assert!(b.is_sorted(), "empty block is sorted");
        b.push(&sample(5.0, 0), None);
        b.push(&sample(5.0, 1), None); // ties keep sortedness
        b.push(&sample(9.0, 2), None);
        assert!(b.is_sorted());
        b.push(&sample(3.0, 3), None); // regression breaks it
        assert!(!b.is_sorted());
        b.clear();
        assert!(b.is_sorted(), "clear resets the hint");
        assert!(b.is_empty());
    }

    #[test]
    fn clear_keeps_lane_allocations() {
        let mut b = SampleBlock::with_capacity(16);
        for i in 0..16 {
            b.push(&sample(i as f64, i), None);
        }
        let retained = b.retained_bytes();
        assert_eq!(retained, SampleBlock::with_capacity(16).retained_bytes(), "lanes are allocated up front");
        b.clear();
        assert_eq!(b.retained_bytes(), retained, "recycling must not shed capacity");
        assert_eq!(b.capacity(), 16);
    }

    /// A recycled block is its live samples and nothing else: refilled
    /// with fewer samples than it held, it equals a fresh block of the
    /// same capacity, and no lane or iterator shows the old tail.
    #[test]
    fn refilled_block_shows_no_stale_tail() {
        let mut recycled = SampleBlock::with_capacity(8);
        for i in 0..8 {
            recycled.push(&sample(100.0 - i as f64, 1000 + i), Some(SiteId(9)));
        }
        assert!(!recycled.is_sorted());
        recycled.clear();
        let mut fresh = SampleBlock::with_capacity(8);
        for i in 0..3 {
            recycled.push(&sample(i as f64, i), None);
            fresh.push(&sample(i as f64, i), None);
        }
        assert_eq!(recycled, fresh);
        assert_eq!(recycled.addrs(), &[0, 1, 2]);
        assert_eq!(recycled.sites(), &[None; 3]);
        assert_eq!(recycled.times().len(), 3);
        assert_eq!(recycled.writes().len(), 3);
        assert_eq!(recycled.iter().map(|s| s.addr).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(recycled.is_sorted());
        // Capacity is part of the value; a stale tail is not.
        assert_ne!(recycled, SampleBlock::from_samples(&fresh.iter().collect::<Vec<_>>()));
    }

    #[test]
    #[should_panic(expected = "sample 2 of a block holding 2")]
    fn get_past_len_panics_even_within_capacity() {
        let mut b = SampleBlock::with_capacity(4);
        b.push(&sample(1.0, 0), None);
        b.push(&sample(2.0, 1), None);
        b.get(b.len());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        SampleBlock::with_capacity(0);
    }

    #[test]
    fn from_samples_preserves_order() {
        let samples: Vec<_> = (0..5).map(|i| sample(i as f64, i)).collect();
        let b = SampleBlock::from_samples(&samples);
        assert_eq!(b.len(), 5);
        assert!(b.is_sorted());
        assert_eq!(b.iter().collect::<Vec<_>>(), samples);
    }
}
