//! Property-based tests (proptest) on the core data structures and
//! invariants, spanning crates.

use drbw::core::channels::ChannelBatches;
use drbw::core::features::{selected_features, FeatureAccumulator, FeatureCtx, NUM_SELECTED};
use mldt::dataset::Dataset;
use mldt::tree::{DecisionTree, TrainConfig};
use numasim::cache::Cache;
use numasim::config::MachineConfig;
use numasim::hierarchy::DataSource;
use numasim::memmap::{MemoryMap, PlacementPolicy};
use numasim::sched::TenantId;
use numasim::topology::{CoreId, NodeId, ThreadId, Topology};
use pebs::alloc::{AllocationTracker, SiteId};
use pebs::ring::{BlockOffer, BlockRing};
use pebs::sample::MemSample;
use pebs::tenant::TenantMap;
use pebs::SampleBlock;
use proptest::prelude::*;

fn arb_source() -> impl Strategy<Value = DataSource> {
    prop_oneof![
        Just(DataSource::L1),
        Just(DataSource::L2),
        Just(DataSource::L3),
        Just(DataSource::Lfb),
        Just(DataSource::LocalDram),
        Just(DataSource::RemoteDram),
    ]
}

fn arb_sample(nodes: u8) -> impl Strategy<Value = MemSample> {
    (0..nodes, proptest::option::of(0..nodes), arb_source(), 1.0..2000.0f64, any::<u32>(), any::<bool>()).prop_map(
        move |(node, home, source, latency, addr, is_write)| {
            // DRAM/LFB samples carry a home; cache hits do not.
            let home = match source {
                DataSource::LocalDram => Some(NodeId(node)),
                DataSource::RemoteDram => Some(NodeId(home.unwrap_or((node + 1) % nodes))),
                DataSource::Lfb => home.map(NodeId),
                _ => None,
            };
            MemSample {
                time: 0.0,
                addr: addr as u64 * 64,
                cpu: CoreId(node as u32 * 8),
                thread: ThreadId(0),
                node: NodeId(node),
                source,
                home,
                latency,
                is_write,
            }
        },
    )
}

prop_compose! {
    fn arb_node(nodes: u8)(n in 0..nodes) -> NodeId { NodeId(n) }
}

/// Pack `stream` into blocks whose capacities cycle through `caps` — the
/// adversarial chunking the block pipeline must be invisible under.
fn blocks_with_caps(stream: &[(MemSample, Option<SiteId>)], caps: &[usize]) -> Vec<SampleBlock> {
    let mut blocks = Vec::new();
    let mut i = 0;
    let mut pick = 0;
    while i < stream.len() {
        let cap = caps[pick % caps.len()];
        pick += 1;
        let mut b = SampleBlock::with_capacity(cap);
        for (s, site) in &stream[i..(i + cap).min(stream.len())] {
            assert!(b.push(s, *site), "block has room by construction");
        }
        i += cap;
        blocks.push(b);
    }
    blocks
}

proptest! {
    /// LRU cache: after any access sequence, the most recent access is
    /// always resident, and stats add up.
    #[test]
    fn cache_most_recent_always_resident(lines in proptest::collection::vec(0u64..10_000, 1..400)) {
        let mut c = Cache::new(16, 4);
        for &l in &lines {
            c.access(l);
            prop_assert!(c.probe(l), "line {l} must be resident immediately after access");
        }
        prop_assert_eq!(c.stats().accesses(), lines.len() as u64);
    }

    /// Cache capacity: no more than `sets * assoc` distinct lines resident.
    #[test]
    fn cache_respects_capacity(lines in proptest::collection::vec(0u64..100_000, 1..600)) {
        let (sets, assoc) = (8usize, 2usize);
        let mut c = Cache::new(sets, assoc);
        let mut touched: Vec<u64> = Vec::new();
        for &l in &lines {
            c.access(l);
            if !touched.contains(&l) {
                touched.push(l);
            }
        }
        let resident = touched.iter().filter(|&&l| c.probe(l)).count();
        prop_assert!(resident <= sets * assoc);
    }

    /// Placement policies partition pages deterministically: the home node
    /// reported twice is identical, and within [0, nodes).
    #[test]
    fn placement_is_deterministic_and_in_range(
        size in 4096u64..(1 << 22),
        offsets in proptest::collection::vec(0.0f64..1.0, 1..50),
        policy_pick in 0..4usize,
    ) {
        let cfg = MachineConfig::scaled();
        let mut mm = MemoryMap::new(&cfg);
        let policy = match policy_pick {
            0 => PlacementPolicy::Bind(NodeId(2)),
            1 => PlacementPolicy::interleave_all(4),
            2 => PlacementPolicy::colocate_even(size, 4),
            _ => PlacementPolicy::FirstTouch,
        };
        let h = mm.alloc("x", size, policy);
        for f in offsets {
            let addr = h.base + ((f * (size - 1) as f64) as u64);
            let n1 = mm.home_node(addr, NodeId(1));
            let n2 = mm.home_node(addr, NodeId(3)); // second accessor
            prop_assert_eq!(n1, n2, "home must not move after first touch");
            prop_assert!((n1.0 as usize) < 4);
        }
    }

    /// Channel association: remote samples land on exactly one channel;
    /// non-remote samples appear once per outgoing channel of their node;
    /// nothing is lost.
    #[test]
    fn channel_batches_conserve_samples(samples in proptest::collection::vec(arb_sample(4), 0..200)) {
        let nodes = 4usize;
        let b = ChannelBatches::split(&samples, nodes);
        let total_batched: usize = b.iter().map(|(_, batch)| batch.len()).sum();
        let expected: usize = samples
            .iter()
            .map(|s| if s.is_remote() { 1 } else { nodes - 1 })
            .sum();
        prop_assert_eq!(total_batched, expected);
        let remote_total: usize = b
            .iter()
            .map(|(ch, _)| b.remote_samples(ch).count())
            .sum();
        prop_assert_eq!(remote_total, samples.iter().filter(|s| s.is_remote()).count());
    }

    /// Feature extraction invariants: ratios in [0,1] and nested, counts
    /// non-negative, per-mille features bounded by 1000.
    #[test]
    fn features_are_well_formed(samples in proptest::collection::vec(arb_sample(4), 0..300)) {
        let ctx = FeatureCtx { duration_cycles: 1e6 };
        let f = selected_features(&samples, &ctx);
        prop_assert_eq!(f.len(), NUM_SELECTED);
        for v in f {
            prop_assert!(v.is_finite() && v >= 0.0);
        }
        for w in 0..4 {
            prop_assert!(f[w] <= f[w + 1] + 1e-12, "latency ratios must nest");
            prop_assert!(f[w] <= 1.0);
        }
        prop_assert!(f[5] <= 1000.0 && f[7] <= 1000.0 && f[11] <= 1000.0);
    }

    /// Allocation tracker: any address attributes to at most one live
    /// allocation, and that allocation contains it.
    #[test]
    fn attribution_is_consistent(
        sizes in proptest::collection::vec(64u64..4096, 1..30),
        probes in proptest::collection::vec(any::<u64>(), 0..50),
    ) {
        let mut t = AllocationTracker::new();
        let site = t.intern_site("x", 1);
        let mut base = 0x1000u64;
        let mut ranges = Vec::new();
        for s in sizes {
            t.record_alloc(site, base, s);
            ranges.push((base, s));
            base += s + 64; // gap between allocations
        }
        for p in probes {
            let addr = 0x1000 + p % (base - 0x1000);
            match t.attribute(addr) {
                Some(id) => {
                    let a = t.allocation(id);
                    prop_assert!(addr >= a.base && addr < a.base + a.size);
                }
                None => {
                    prop_assert!(
                        !ranges.iter().any(|&(b, s)| addr >= b && addr < b + s),
                        "address {addr:#x} inside an allocation must attribute"
                    );
                }
            }
        }
    }

    /// Decision trees never predict a class absent from training, and
    /// training is invariant to... at minimum, predictions are total.
    #[test]
    fn tree_predictions_are_valid_classes(
        rows in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0..2usize), 8..100),
        probes in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..20),
    ) {
        let mut d = Dataset::binary(vec!["a".into(), "b".into()]);
        for (x, y, l) in rows {
            d.push(vec![x, y], l);
        }
        let t = DecisionTree::train(&d, TrainConfig::default());
        for (x, y) in probes {
            prop_assert!(t.predict(&[x, y]) < 2);
        }
    }

    /// Topology thread binding: every thread gets a valid core on the
    /// correct node; threads are spread evenly across nodes.
    #[test]
    fn binding_is_even_and_valid(n in 1usize..5, per in 1usize..17) {
        let topo = Topology::new(4, 8, 2);
        let t = n * per;
        if per <= 16 {
            let binding = topo.bind_threads(t, n);
            prop_assert_eq!(binding.len(), t);
            for (tid, core) in binding.iter().enumerate() {
                prop_assert!(topo.core_in_range(*core));
                let expected_node = tid / per;
                prop_assert_eq!(topo.node_of_core(*core), NodeId(expected_node as u8));
            }
        }
    }

    /// Lane-batched feature accumulation is bit-identical to per-sample
    /// pushes under any chunking: the i128 exact sums and the threshold
    /// and per-source counts land on the same bits regardless of how the
    /// latency/source lanes are split.
    #[test]
    fn accumulator_lane_split_is_invisible(
        samples in proptest::collection::vec(arb_sample(4), 0..300),
        caps in proptest::collection::vec(1usize..64, 1..6),
    ) {
        let mut per_sample = FeatureAccumulator::new();
        for s in &samples {
            per_sample.push(s);
        }
        let lats: Vec<f64> = samples.iter().map(|s| s.latency).collect();
        let srcs: Vec<DataSource> = samples.iter().map(|s| s.source).collect();
        let mut lanes = FeatureAccumulator::new();
        let mut i = 0;
        let mut pick = 0;
        while i < samples.len() {
            let hi = (i + caps[pick % caps.len()]).min(samples.len());
            pick += 1;
            lanes.push_lanes(&lats[i..hi], &srcs[i..hi]);
            i = hi;
        }
        prop_assert_eq!(lanes, per_sample);
    }

    /// The block ring conserves samples under any interleave of
    /// random-length block offers and drains: `offered == dropped + popped
    /// + len` at every step, and the drained stream is exactly the
    /// accepted blocks in order, sites riding along.
    #[test]
    fn block_ring_conserves_samples(
        samples in proptest::collection::vec(arb_sample(4), 0..300),
        capacity in 1usize..64,
        caps in proptest::collection::vec(1usize..64, 1..5),
        drain_every in 1usize..50,
    ) {
        let mut ring = BlockRing::new(capacity);
        let stream: Vec<(MemSample, Option<SiteId>)> =
            samples.iter().enumerate().map(|(i, s)| (*s, (i % 3 == 0).then_some(SiteId(i as u32)))).collect();
        let caps: Vec<usize> = caps.iter().map(|&c| c.min(capacity)).collect();
        let mut accepted: Vec<(MemSample, Option<SiteId>)> = Vec::new();
        let mut drained: Vec<(MemSample, Option<SiteId>)> = Vec::new();
        let drain = |ring: &mut BlockRing, out: &mut Vec<(MemSample, Option<SiteId>)>| {
            while let Some((block, _)) = ring.pop_block() {
                for i in 0..block.len() {
                    out.push((block.get(i), block.site(i)));
                }
                ring.recycle(block);
            }
        };
        for (i, block) in blocks_with_caps(&stream, &caps).into_iter().enumerate() {
            let sent: Vec<(MemSample, Option<SiteId>)> = (0..block.len()).map(|j| (block.get(j), block.site(j))).collect();
            if ring.offer_block(block).0 == BlockOffer::Accepted {
                accepted.extend(sent);
            }
            let c = ring.counters();
            prop_assert_eq!(c.offered, c.dropped + c.popped + c.len as u64);
            prop_assert!(c.len <= c.peak && c.peak <= capacity);
            if i % drain_every == drain_every - 1 {
                drain(&mut ring, &mut drained);
            }
        }
        drain(&mut ring, &mut drained);
        let c = ring.counters();
        prop_assert_eq!(c.len, 0);
        prop_assert_eq!(c.offered, samples.len() as u64);
        prop_assert_eq!(c.dropped + c.popped, c.offered);
        prop_assert_eq!(drained, accepted);
    }

    /// Columnar tenant partitioning routes every mapped sample exactly
    /// once, in order, with its site — flattening the per-tenant blocks
    /// reproduces the flat `partition`, and every non-tail output block
    /// is filled to the requested capacity.
    #[test]
    fn tenant_partition_blocks_matches_flat(
        owners in proptest::collection::vec(0u32..3, 1..12),
        samples in proptest::collection::vec(arb_sample(4), 0..200),
        threads in proptest::collection::vec(0u32..16, 0..200),
        in_caps in proptest::collection::vec(1usize..48, 1..5),
        out_cap in 1usize..32,
    ) {
        let mut map = TenantMap::new();
        for (t, &owner) in owners.iter().enumerate() {
            map.assign(ThreadId(t as u32), TenantId(owner));
        }
        let stream: Vec<(MemSample, Option<SiteId>)> = samples
            .into_iter()
            .zip(&threads)
            .enumerate()
            .map(|(i, (mut s, &t))| {
                s.thread = ThreadId(t);
                (s, (i % 2 == 0).then_some(SiteId(t)))
            })
            .collect();
        let flat: Vec<MemSample> = stream.iter().map(|(s, _)| *s).collect();
        let by_blocks = map.partition_blocks(&blocks_with_caps(&stream, &in_caps), out_cap);
        let by_flat = map.partition(&flat);
        prop_assert_eq!(by_blocks.len(), by_flat.len());
        for ((bt, blocks), (ft, want)) in by_blocks.iter().zip(&by_flat) {
            prop_assert_eq!(bt, ft);
            let got: Vec<(MemSample, Option<SiteId>)> =
                blocks.iter().flat_map(|b| (0..b.len()).map(move |i| (b.get(i), b.site(i)))).collect();
            let want_sites: Vec<(MemSample, Option<SiteId>)> = stream
                .iter()
                .filter(|(s, _)| map.tenant_of(s.thread) == Some(*ft))
                .cloned()
                .collect();
            prop_assert_eq!(got.len(), want.len());
            prop_assert_eq!(got, want_sites);
            for (i, b) in blocks.iter().enumerate() {
                prop_assert!(b.len() <= out_cap);
                if i + 1 < blocks.len() {
                    prop_assert_eq!(b.len(), out_cap, "only the tail block may be partial");
                }
            }
        }
    }
}
