//! Tenant attribution for sampled memory events.
//!
//! The discrete-event scheduler (`numasim::sched`) co-schedules several
//! independent tenants on one machine, but the PEBS-style sampler observes a
//! single interleaved event stream: a [`MemSample`] carries a [`ThreadId`],
//! not a tenant. [`TenantMap`] records which tenant owns each thread so a
//! mixed sample log can be partitioned after the fact — e.g. to replay only
//! the victim tenant's samples through the streaming detector and ask
//! whether cross-tenant contention shows up on *its* channels.

use numasim::sched::{TenantId, TenantRun};
use numasim::ThreadId;

use crate::block::SampleBlock;
use crate::sample::MemSample;

/// Maps thread ids to the tenant that owns them.
///
/// Thread ids are globally unique across a scenario (the scheduler rejects
/// duplicates), so the map is a sorted association list keyed by the raw
/// thread id.
#[derive(Debug, Clone, Default)]
pub struct TenantMap {
    /// Sorted by thread id.
    by_thread: Vec<(u32, TenantId)>,
}

impl TenantMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the map from the tenant specs of a scenario.
    ///
    /// Call this *before* handing the `TenantRun`s to
    /// `Engine::run`, which consumes them.
    pub fn from_runs(runs: &[TenantRun]) -> Self {
        let mut map = Self::new();
        for run in runs {
            for spec in &run.threads {
                map.assign(spec.thread, run.tenant);
            }
        }
        map
    }

    /// Record that `thread` belongs to `tenant`.
    ///
    /// # Panics
    /// Panics if the thread is already assigned (thread ids are unique
    /// across tenants).
    pub fn assign(&mut self, thread: ThreadId, tenant: TenantId) {
        match self.by_thread.binary_search_by_key(&thread.0, |&(t, _)| t) {
            Ok(_) => panic!("thread {} assigned to two tenants", thread.0),
            Err(pos) => self.by_thread.insert(pos, (thread.0, tenant)),
        }
    }

    /// The tenant owning `thread`, if any.
    pub fn tenant_of(&self, thread: ThreadId) -> Option<TenantId> {
        self.by_thread.binary_search_by_key(&thread.0, |&(t, _)| t).ok().map(|i| self.by_thread[i].1)
    }

    /// Number of mapped threads.
    pub fn len(&self) -> usize {
        self.by_thread.len()
    }

    /// True when no threads are mapped.
    pub fn is_empty(&self) -> bool {
        self.by_thread.is_empty()
    }

    /// The distinct tenants present, in ascending id order.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self.by_thread.iter().map(|&(_, t)| t).collect();
        ids.sort_by_key(|t| t.0);
        ids.dedup();
        ids
    }

    /// Clone out the samples belonging to `tenant`, preserving order.
    ///
    /// Samples from unmapped threads are dropped (they belong to no tenant).
    pub fn samples_of(&self, tenant: TenantId, samples: &[MemSample]) -> Vec<MemSample> {
        samples.iter().filter(|s| self.tenant_of(s.thread) == Some(tenant)).cloned().collect()
    }

    /// Partition a mixed sample log by tenant, preserving per-tenant order.
    ///
    /// Returns one `(tenant, samples)` entry per distinct tenant in
    /// ascending id order. Samples from unmapped threads are dropped.
    pub fn partition(&self, samples: &[MemSample]) -> Vec<(TenantId, Vec<MemSample>)> {
        let mut out: Vec<(TenantId, Vec<MemSample>)> = self.tenants().into_iter().map(|t| (t, Vec::new())).collect();
        for s in samples {
            if let Some(t) = self.tenant_of(s.thread) {
                if let Some(entry) = out.iter_mut().find(|(id, _)| *id == t) {
                    entry.1.push(*s);
                }
            }
        }
        out
    }

    /// Partition a mixed columnar block stream by tenant, preserving
    /// per-tenant order — the block pipeline's [`TenantMap::partition`].
    ///
    /// Each sample is routed **once** from the input blocks into the
    /// growing tail block of its tenant (the single copy the block
    /// pipeline allows per hop); per-tenant output blocks are sized
    /// `block_capacity` and a partial tail block is kept per tenant.
    /// Samples from unmapped threads are dropped, sites travel with
    /// their samples, and flattening a tenant's blocks yields exactly
    /// what [`TenantMap::partition`] yields for the flattened input.
    ///
    /// # Panics
    /// Panics if `block_capacity == 0`.
    pub fn partition_blocks(&self, blocks: &[SampleBlock], block_capacity: usize) -> Vec<(TenantId, Vec<SampleBlock>)> {
        assert!(block_capacity > 0, "block capacity must be positive");
        let mut out: Vec<(TenantId, Vec<SampleBlock>)> = self.tenants().into_iter().map(|t| (t, Vec::new())).collect();
        for block in blocks {
            for i in 0..block.len() {
                let Some(t) = self.tenant_of(block.threads()[i]) else { continue };
                let entry = out.iter_mut().find(|(id, _)| *id == t).expect("tenants() covers every mapped tenant");
                let needs_new = entry.1.last().is_none_or(|b| b.is_full());
                if needs_new {
                    entry.1.push(SampleBlock::with_capacity(block_capacity));
                }
                let tail = entry.1.last_mut().expect("tail block just ensured");
                let pushed = tail.push(&block.get(i), block.site(i));
                debug_assert!(pushed, "tail block has room by construction");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numasim::prelude::*;
    use numasim::sched::TenantRun;

    fn sample(thread: u32, time: f64) -> MemSample {
        MemSample {
            time,
            addr: 0x1000 + thread as u64 * 64,
            cpu: CoreId(0),
            thread: ThreadId(thread),
            node: NodeId(0),
            source: DataSource::LocalDram,
            home: Some(NodeId(0)),
            latency: 120.0,
            is_write: false,
        }
    }

    fn spec(thread: u32) -> ThreadSpec {
        let stream = SeqStream::new(0, 1 << 12, 1, AccessMix::read_only());
        ThreadSpec::new(thread, CoreId(0), Box::new(stream))
    }

    #[test]
    fn from_runs_maps_every_thread() {
        let runs = vec![TenantRun::new(0, vec![spec(0), spec(1)]), TenantRun::new(1, vec![spec(2)])];
        let map = TenantMap::from_runs(&runs);
        assert_eq!(map.len(), 3);
        assert_eq!(map.tenant_of(ThreadId(0)), Some(TenantId(0)));
        assert_eq!(map.tenant_of(ThreadId(1)), Some(TenantId(0)));
        assert_eq!(map.tenant_of(ThreadId(2)), Some(TenantId(1)));
        assert_eq!(map.tenant_of(ThreadId(3)), None);
        assert_eq!(map.tenants(), vec![TenantId(0), TenantId(1)]);
    }

    #[test]
    fn partition_splits_and_preserves_order() {
        let mut map = TenantMap::new();
        map.assign(ThreadId(0), TenantId(0));
        map.assign(ThreadId(1), TenantId(1));
        let log = vec![sample(0, 1.0), sample(1, 2.0), sample(0, 3.0), sample(7, 4.0)];
        let parts = map.partition(&log);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, TenantId(0));
        assert_eq!(parts[0].1.iter().map(|s| s.time).collect::<Vec<_>>(), vec![1.0, 3.0]);
        assert_eq!(parts[1].1.len(), 1);
        // The unmapped thread 7 is dropped.
        let victim = map.samples_of(TenantId(1), &log);
        assert_eq!(victim.len(), 1);
        assert_eq!(victim[0].time, 2.0);
    }

    /// Block partitioning must agree exactly with the per-sample
    /// partition for every chunking of the input and output.
    #[test]
    fn partition_blocks_matches_per_sample_partition() {
        let mut map = TenantMap::new();
        map.assign(ThreadId(0), TenantId(0));
        map.assign(ThreadId(1), TenantId(1));
        map.assign(ThreadId(2), TenantId(0));
        let log: Vec<MemSample> = (0..37).map(|i| sample(i % 4, i as f64)).collect(); // thread 3 unmapped
        let want = map.partition(&log);
        for (in_chunk, out_cap) in [(1usize, 1usize), (3, 2), (5, 7), (37, 4), (8, 64)] {
            let blocks: Vec<SampleBlock> = log.chunks(in_chunk).map(SampleBlock::from_samples).collect();
            let got = map.partition_blocks(&blocks, out_cap);
            assert_eq!(got.len(), want.len());
            for ((t_got, tenant_blocks), (t_want, tenant_samples)) in got.iter().zip(&want) {
                assert_eq!(t_got, t_want);
                let flat: Vec<MemSample> = tenant_blocks.iter().flat_map(|b| b.iter()).collect();
                assert_eq!(&flat, tenant_samples, "in_chunk {in_chunk}, out_cap {out_cap}");
                assert!(tenant_blocks.iter().all(|b| b.capacity() == out_cap));
            }
        }
    }

    #[test]
    #[should_panic(expected = "assigned to two tenants")]
    fn duplicate_assignment_panics() {
        let mut map = TenantMap::new();
        map.assign(ThreadId(0), TenantId(0));
        map.assign(ThreadId(0), TenantId(1));
    }
}
