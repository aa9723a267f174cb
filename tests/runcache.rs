//! The run cache's bit-identity contract, tested from the outside:
//! cache-served results must be indistinguishable from fresh simulation
//! under both sampling paths, arbitrary sample logs must survive the
//! columnar codec, and damaged or stale-schema entries must fall back to
//! recomputation with the right miss accounting.

use numasim::config::MachineConfig;
use numasim::hierarchy::DataSource;
use numasim::topology::{CoreId, NodeId, ThreadId};
use pebs::ring::BlockRing;
use pebs::sample::MemSample;
use pebs::sampler::SamplerConfig;
use pebs::stream::StreamingSampler;
use proptest::prelude::*;
use runcache::{codec, run_memo, RunCache, RunKey};
use workloads::config::{Input, RunConfig, Variant};
use workloads::micro::Sumv;
use workloads::runner::{run, run_observed};
use workloads::spec::Workload;

fn tmp_cache(tag: &str) -> (std::path::PathBuf, RunCache) {
    let dir = std::env::temp_dir().join(format!("drbw_runcache_it_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = RunCache::open(&dir).expect("open temp run cache");
    (dir, cache)
}

/// Cache-served profiled runs are bit-identical to a fresh batched
/// simulation under the batch-pipeline `AddressSampler`.
#[test]
fn warm_entries_match_fresh_batched_simulation_address_sampler() {
    let (dir, cache) = tmp_cache("addr");
    let mcfg = MachineConfig::scaled();
    let rcfg = RunConfig::new(16, 4, Input::Medium);
    let scfg = SamplerConfig::default();

    let fresh = run(&Sumv, &mcfg, &rcfg, Some(scfg));
    let cold = run_memo(&cache, &Sumv, &mcfg, &rcfg, Some(scfg));
    let warm = run_memo(&cache, &Sumv, &mcfg, &rcfg, Some(scfg));
    let m = cache.metrics();
    assert_eq!((m.hits, m.misses, m.stores), (1, 1, 1), "second lookup must hit: {m}");

    for outcome in [&cold, &warm] {
        assert_eq!(outcome.samples, fresh.samples, "sample log diverged");
        assert_eq!(outcome.observed_accesses, fresh.observed_accesses);
        assert_eq!(outcome.phases.len(), fresh.phases.len());
        for (a, b) in outcome.phases.iter().zip(&fresh.phases) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.warmup, b.warmup);
            assert_eq!(a.stats, b.stats, "phase {} RunStats diverged", a.name);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The same contract through the streaming path: a `StreamingSampler`
/// with a loss-free ring observes the identical sample stream, and that
/// ring-drained log survives the columnar codec bit-exactly.
#[test]
fn warm_entries_match_streaming_sampler_log() {
    let (dir, cache) = tmp_cache("stream");
    let mcfg = MachineConfig::scaled();
    let rcfg = RunConfig::new(16, 4, Input::Medium);
    let scfg = SamplerConfig::default();

    let warm = {
        let _populate = run_memo(&cache, &Sumv, &mcfg, &rcfg, Some(scfg));
        run_memo(&cache, &Sumv, &mcfg, &rcfg, Some(scfg))
    };
    assert_eq!(cache.metrics().hits, 1);

    let (phases, _tracker, sampler) =
        run_observed(&Sumv, &mcfg, &rcfg, StreamingSampler::new(scfg, BlockRing::new(1 << 20)));
    let mut ring = sampler.into_ring();
    let mut streamed = Vec::with_capacity(ring.len());
    while let Some((block, _)) = ring.pop_block() {
        streamed.extend(block.iter());
    }
    assert_eq!(warm.samples, streamed, "cache-served log diverged from the streaming sampler's ring");
    for (a, b) in warm.phases.iter().zip(&phases) {
        assert_eq!(a.stats, b.stats, "phase {} RunStats diverged from the streaming run", a.name);
    }

    let mut encoded = Vec::new();
    codec::encode_samples(&mut encoded, &streamed);
    let mut r = codec::Reader::new(&encoded);
    let decoded = codec::decode_samples(&mut r).expect("ring-drained log must decode");
    r.expect_end().expect("no trailing bytes");
    assert_eq!(decoded, streamed, "codec roundtrip of the streamed log diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// Unprofiled runs (the ground-truth probes) memoize under their own
/// keys and come back bit-identical too.
#[test]
fn unprofiled_probe_runs_memoize_bit_identically() {
    let (dir, cache) = tmp_cache("probe");
    let mcfg = MachineConfig::scaled();
    let rcfg = RunConfig::new(16, 4, Input::Medium).with_variant(Variant::InterleaveAll);

    let fresh = run(&Sumv, &mcfg, &rcfg, None);
    let _cold = run_memo(&cache, &Sumv, &mcfg, &rcfg, None);
    let warm = run_memo(&cache, &Sumv, &mcfg, &rcfg, None);
    assert_eq!(cache.metrics().hits, 1);
    assert!(warm.samples.is_empty());
    assert_eq!(warm.cycles(), fresh.cycles());
    for (a, b) in warm.phases.iter().zip(&fresh.phases) {
        assert_eq!(a.stats, b.stats);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every single-byte corruption of a stored entry is rejected at lookup
/// and transparently recomputed, counted as a corrupt miss — never
/// served, never a panic.
#[test]
fn corrupted_entries_recompute_with_miss_accounting() {
    let (dir, cache) = tmp_cache("corrupt");
    let mcfg = MachineConfig::scaled();
    let rcfg = RunConfig::new(8, 2, Input::Small);
    let scfg = SamplerConfig::default();

    let baseline = run_memo(&cache, &Sumv, &mcfg, &rcfg, Some(scfg));
    let key = RunKey::for_run(&mcfg, Sumv.name(), &rcfg, Some(&scfg));
    let path = dir.join(key.file_name());
    let good = std::fs::read(&path).expect("entry exists after a store");

    // Flip one byte at a spread of offsets, including the version word,
    // the key echo, the checksum, and payload bytes.
    let offsets = [0, 8, 11, 12, 27, 28, 35, 36, 43, 44, good.len() / 2, good.len() - 1];
    let mut corrupt_seen = 0;
    let mut version_seen = 0;
    for (i, &off) in offsets.iter().enumerate() {
        let mut bad = good.clone();
        bad[off] ^= 0x01;
        std::fs::write(&path, &bad).expect("plant corrupted entry");
        let before = cache.metrics();
        let recomputed = run_memo(&cache, &Sumv, &mcfg, &rcfg, Some(scfg));
        let after = cache.metrics();
        assert_eq!(after.hits, before.hits, "corrupted byte {off} was served as a hit");
        assert_eq!(after.misses, before.misses + 1, "corruption at {off} must count as a miss");
        corrupt_seen += (after.corrupt - before.corrupt) as usize;
        version_seen += (after.version_mismatch - before.version_mismatch) as usize;
        assert_eq!(recomputed.samples, baseline.samples, "iteration {i}: recompute diverged");
        // The store path repairs the entry; verify it serves again.
        let healed = run_memo(&cache, &Sumv, &mcfg, &rcfg, Some(scfg));
        assert_eq!(healed.samples, baseline.samples);
    }
    assert_eq!(corrupt_seen + version_seen, offsets.len(), "every flip must be rejected");
    assert!(version_seen >= 1, "flips inside the version word must count as version mismatches");
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncated entries (torn writes) are rejected the same way.
#[test]
fn truncated_entries_recompute() {
    let (dir, cache) = tmp_cache("trunc");
    let mcfg = MachineConfig::scaled();
    let rcfg = RunConfig::new(8, 2, Input::Small);
    let scfg = SamplerConfig::default();

    let baseline = run_memo(&cache, &Sumv, &mcfg, &rcfg, Some(scfg));
    let key = RunKey::for_run(&mcfg, Sumv.name(), &rcfg, Some(&scfg));
    let path = dir.join(key.file_name());
    let good = std::fs::read(&path).expect("entry exists");
    for cut in [0, 7, 20, 43, good.len() / 2, good.len() - 1] {
        std::fs::write(&path, &good[..cut]).expect("plant truncated entry");
        let before = cache.metrics();
        let recomputed = run_memo(&cache, &Sumv, &mcfg, &rcfg, Some(scfg));
        assert_eq!(cache.metrics().corrupt, before.corrupt + 1, "cut at {cut} must be corrupt");
        assert_eq!(recomputed.samples, baseline.samples);
    }
    std::fs::remove_dir_all(&dir).ok();
}

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

/// Arbitrary samples for the codec: unlike the simulator's output these
/// have unordered times, adversarial latencies, and arbitrary addresses,
/// so the delta columns see every sign pattern.
fn arb_codec_sample(nodes: u8) -> impl Strategy<Value = MemSample> {
    (
        (0..nodes, proptest::option::of(0..nodes), arb_source()),
        // Floats come from raw bit patterns so NaNs, infinities, and
        // subnormals all hit the delta columns.
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u32>(), any::<u32>(), any::<bool>()),
    )
        .prop_map(move |((node, home, source), (time_bits, lat_bits, addr), (cpu, thread, is_write))| MemSample {
            time: f64::from_bits(time_bits),
            addr,
            cpu: CoreId(cpu),
            thread: ThreadId(thread),
            node: NodeId(node),
            source,
            home: home.map(NodeId),
            latency: f64::from_bits(lat_bits),
            is_write,
        })
}

proptest! {
    /// `decode(encode(log)) == log` for arbitrary sample logs, including
    /// NaN/infinite floats (bit-pattern deltas) and unsorted timestamps.
    #[test]
    fn codec_roundtrips_arbitrary_logs(samples in proptest::collection::vec(arb_codec_sample(4), 0..300)) {
        let mut buf = Vec::new();
        codec::encode_samples(&mut buf, &samples);
        let mut r = codec::Reader::new(&buf);
        let decoded = codec::decode_samples(&mut r).expect("encoded log must decode");
        prop_assert!(r.expect_end().is_ok(), "no trailing bytes after a clean encode");
        // MemSample has no PartialEq over NaN latencies; compare bit patterns.
        prop_assert_eq!(decoded.len(), samples.len());
        for (d, s) in decoded.iter().zip(&samples) {
            prop_assert_eq!(d.time.to_bits(), s.time.to_bits());
            prop_assert_eq!(d.latency.to_bits(), s.latency.to_bits());
            prop_assert_eq!(d.addr, s.addr);
            prop_assert_eq!(d.cpu, s.cpu);
            prop_assert_eq!(d.thread, s.thread);
            prop_assert_eq!(d.node, s.node);
            prop_assert_eq!(d.source, s.source);
            prop_assert_eq!(d.home, s.home);
            prop_assert_eq!(d.is_write, s.is_write);
        }
    }

    /// Appending garbage after a valid log must fail decoding (strict
    /// framing), and decoding any strict prefix must never succeed with
    /// the original log's content.
    #[test]
    fn codec_rejects_trailing_garbage(
        samples in proptest::collection::vec(arb_codec_sample(4), 1..50),
        garbage in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut buf = Vec::new();
        codec::encode_samples(&mut buf, &samples);
        buf.extend_from_slice(&garbage);
        let mut r = codec::Reader::new(&buf);
        let strict = codec::decode_samples(&mut r).and_then(|log| r.expect_end().map(|()| log));
        prop_assert!(strict.is_err(), "trailing bytes must be rejected");
    }
}
