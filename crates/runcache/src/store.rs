//! The on-disk store: one file per [`RunKey`], hash-verified reads,
//! atomic writes, and `StreamMetrics`-style hit/miss instrumentation.
//!
//! ## Entry layout (little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "DRBWRUN\0"
//! 8       4     schema version (u32) — must equal SCHEMA_VERSION
//! 12      16    key echo (hi, lo)    — must equal the requested key
//! 28      8     payload length
//! 36      8     payload checksum     — FNV-1a(64) over the payload bytes
//! 44      …     payload (see `codec`)
//! ```
//!
//! Every validation failure — bad magic, truncation, checksum or key
//! mismatch, codec error — degrades to a **miss** (counted separately as
//! corruption) and the caller recomputes; a schema version mismatch is a
//! miss counted as `version_mismatch`. The store never panics on foreign
//! bytes and never serves a payload that fails any check.
//!
//! ## Writes
//!
//! A store writes the whole entry to a temp file unique to its process
//! and thread (`.tmp-{pid}-{seq}-{entry}`) and `rename`s it over the
//! entry path. The rename is atomic, so a reader sees the old complete
//! entry, the new complete entry, or none. Concurrent writers of one key
//! — threads or processes — each rename a complete file holding the same
//! content-addressed bytes, so the last rename wins and nothing tears.
//! Nothing is evicted: remove the directory to reclaim its space.

use crate::codec::{self, Reader};
use crate::key::{RunKey, SCHEMA_VERSION};
use numasim::stats::RunStats;
use pebs::sample::MemSample;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: &[u8; 8] = b"DRBWRUN\0";
const HEADER_LEN: usize = 8 + 4 + 16 + 8 + 8;

/// Process-wide counter making temp-file names unique across threads of
/// one process (the pid alone distinguishes processes).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The memoized result of one simulated run, as stored on disk.
///
/// Phase names and warmup flags are *not* stored: they are `&'static str`
/// properties of the workload's phase list, recovered on a warm hit by
/// re-running the (cheap, deterministic) `Workload::build`.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRun {
    /// Engine statistics per phase, in execution order (warmups included).
    pub phase_stats: Vec<RunStats>,
    /// The full PEBS sample log (empty for unprofiled runs).
    pub samples: Vec<MemSample>,
    /// Total simulated access events.
    pub observed_accesses: u64,
}

/// Counter snapshot returned by [`RunCache::metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups with no entry on disk.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries rejected by magic/length/checksum/key/codec validation.
    pub corrupt: u64,
    /// Entries rejected for a stale schema version.
    pub version_mismatch: u64,
    /// Payload + header bytes of served hits.
    pub bytes_read: u64,
    /// Bytes written by stores.
    pub bytes_written: u64,
}

impl CacheMetrics {
    /// Warm-hit rate: the fraction of lookups served from disk
    /// (`hits / (hits + misses)`; 0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "runcache: hits={} misses={} (rate {:.2}) stores={} corrupt={} vmismatch={} read={}B written={}B",
            self.hits,
            self.misses,
            self.hit_rate(),
            self.stores,
            self.corrupt,
            self.version_mismatch,
            self.bytes_read,
            self.bytes_written
        )
    }
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    version_mismatch: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// A content-addressed run cache rooted at one directory.
///
/// Safe to share across a rayon pool and across processes pointed at the
/// same directory: lookups are plain reads, and stores publish by atomic
/// rename (see the module docs).
#[derive(Debug)]
pub struct RunCache {
    dir: PathBuf,
    counters: Counters,
}

impl RunCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir, counters: Counters::default() })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot the hit/miss counters.
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            stores: self.counters.stores.load(Ordering::Relaxed),
            corrupt: self.counters.corrupt.load(Ordering::Relaxed),
            version_mismatch: self.counters.version_mismatch.load(Ordering::Relaxed),
            bytes_read: self.counters.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
        }
    }

    fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Path of the entry file for `key`.
    pub fn entry_path(&self, key: &RunKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Look up `key`. Returns the cached run on a verified hit; any
    /// absence, corruption, or version mismatch returns `None` (counted)
    /// so the caller recomputes. Never panics on malformed entries, never
    /// blocks on concurrent writers or other readers.
    pub fn lookup(&self, key: &RunKey) -> Option<CachedRun> {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.bump(&self.counters.misses);
                return None;
            }
        };
        match validate_and_decode(key, &bytes) {
            Ok(run) => {
                self.bump(&self.counters.hits);
                self.counters.bytes_read.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                Some(run)
            }
            Err(reject) => {
                self.bump(&self.counters.misses);
                match reject {
                    Reject::Version => self.bump(&self.counters.version_mismatch),
                    Reject::Corrupt => self.bump(&self.counters.corrupt),
                }
                None
            }
        }
    }

    /// Store `run` under `key`: write a unique temp file, then `rename`
    /// it over the entry (atomic — a reader can never observe a
    /// half-entry, and a concurrent writer of the same key renames the
    /// same bytes).
    pub fn store(&self, key: &RunKey, run: &CachedRun) -> io::Result<()> {
        let bytes = encode_entry(key, run);
        let final_path = self.entry_path(key);
        let tmp_path = self.dir.join(format!(
            ".tmp-{}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
            key.file_name()
        ));
        // Write + publish, deleting the temp file if anything fails
        // mid-way — nothing sweeps the directory later, so a leaked temp
        // would live forever.
        let written = (|| {
            let mut f = std::fs::File::create(&tmp_path)?;
            f.write_all(&bytes)?;
            drop(f);
            std::fs::rename(&tmp_path, &final_path)
        })();
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(e);
        }
        self.bump(&self.counters.stores);
        self.counters.bytes_written.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

enum Reject {
    Version,
    Corrupt,
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn encode_entry(key: &RunKey, run: &CachedRun) -> Vec<u8> {
    let mut payload = Vec::new();
    codec::put_varint(&mut payload, run.observed_accesses);
    codec::put_varint(&mut payload, run.phase_stats.len() as u64);
    for s in &run.phase_stats {
        codec::encode_stats(&mut payload, s);
    }
    codec::encode_samples(&mut payload, &run.samples);

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&key.hi.to_le_bytes());
    out.extend_from_slice(&key.lo.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn validate_and_decode(key: &RunKey, bytes: &[u8]) -> Result<CachedRun, Reject> {
    if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
        return Err(Reject::Corrupt);
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    if u32_at(8) != SCHEMA_VERSION {
        return Err(Reject::Version);
    }
    if u64_at(12) != key.hi || u64_at(20) != key.lo {
        return Err(Reject::Corrupt);
    }
    let payload = &bytes[HEADER_LEN..];
    if u64_at(28) != payload.len() as u64 || u64_at(36) != fnv64(payload) {
        return Err(Reject::Corrupt);
    }
    let mut r = Reader::new(payload);
    let mut decode = || -> Result<CachedRun, codec::CodecError> {
        let observed_accesses = r.varint()?;
        let n_phases = r.varint()?;
        // A phase encodes to well over 8 bytes; bound before allocating.
        if n_phases > payload.len() as u64 / 8 {
            return Err(codec::CodecError::new(format!("phase count {n_phases} exceeds payload bound")));
        }
        let mut phase_stats = Vec::with_capacity(n_phases as usize);
        for _ in 0..n_phases {
            phase_stats.push(codec::decode_stats(&mut r)?);
        }
        let samples = codec::decode_samples(&mut r)?;
        r.expect_end()?;
        Ok(CachedRun { phase_stats, samples, observed_accesses })
    };
    decode().map_err(|_| Reject::Corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numasim::hierarchy::DataSource;
    use numasim::stats::AccessCounts;
    use numasim::topology::{CoreId, NodeId, ThreadId};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("drbw-runcache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn key(n: u64) -> RunKey {
        RunKey { hi: 0x1234_5678_9abc_def0 ^ n, lo: 0x0fed_cba9_8765_4321u64.wrapping_add(n) }
    }

    fn run() -> CachedRun {
        let stats = RunStats {
            cycles: 1e6,
            thread_cycles: vec![9.5e5, 1e6],
            counts: AccessCounts { l1: 100, l2: 50, l3: 25, lfb: 5, local_dram: 10, remote_dram: 7 },
            channel_bytes: vec![64.0, 0.0],
            mc_bytes: vec![640.0, 64.0],
            channel_max_rho: vec![0.5, 0.0],
            mc_max_rho: vec![0.9, 0.1],
            channel_avg_rho: vec![0.25, 0.0],
            mc_avg_rho: vec![0.45, 0.05],
            rounds: 3,
        };
        let samples = (0..40)
            .map(|i| MemSample {
                time: 100.0 + i as f64,
                addr: 0x1000 + i * 64,
                cpu: CoreId((i % 4) as u32),
                thread: ThreadId((i % 8) as u32),
                node: NodeId((i % 2) as u8),
                source: if i % 2 == 0 { DataSource::RemoteDram } else { DataSource::L1 },
                home: if i % 2 == 0 { Some(NodeId(1)) } else { None },
                latency: 280.0,
                is_write: false,
            })
            .collect();
        CachedRun { phase_stats: vec![stats.clone(), stats], samples, observed_accesses: 197 }
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let cache = RunCache::open(tmpdir("roundtrip")).unwrap();
        let (k, r) = (key(1), run());
        assert!(cache.lookup(&k).is_none());
        cache.store(&k, &r).unwrap();
        assert_eq!(cache.lookup(&k).unwrap(), r);
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses, m.stores, m.corrupt, m.version_mismatch), (1, 1, 1, 0, 0));
        assert!(m.bytes_written > 0 && m.bytes_read == m.bytes_written);
        assert_eq!(m.hit_rate(), 0.5, "one hit, one miss");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_entry_is_a_counted_miss() {
        let cache = RunCache::open(tmpdir("trunc")).unwrap();
        let (k, r) = (key(2), run());
        cache.store(&k, &r).unwrap();
        let path = cache.entry_path(&k);
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(cache.lookup(&k).is_none(), "cut at {cut} must miss");
        }
        let m = cache.metrics();
        assert_eq!(m.corrupt, 5);
        assert_eq!(m.misses, 5);
        assert_eq!(m.hits, 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let cache = RunCache::open(tmpdir("bitflip")).unwrap();
        let (k, r) = (key(3), run());
        cache.store(&k, &r).unwrap();
        let path = cache.entry_path(&k);
        let bytes = std::fs::read(&path).unwrap();
        // Flip one bit per byte across the whole entry; the version word is
        // counted separately, everything else as corruption.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            std::fs::write(&path, &bad).unwrap();
            assert!(cache.lookup(&k).is_none(), "flip in byte {i} must miss");
        }
        let m = cache.metrics();
        assert_eq!(m.misses, bytes.len() as u64);
        assert_eq!(m.hits, 0);
        assert!(m.version_mismatch >= 1, "flips in the version word count as mismatches");
        assert_eq!(m.corrupt + m.version_mismatch, bytes.len() as u64);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn version_mismatch_is_counted_not_decoded() {
        let cache = RunCache::open(tmpdir("version")).unwrap();
        let (k, r) = (key(4), run());
        cache.store(&k, &r).unwrap();
        let path = cache.entry_path(&k);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.lookup(&k).is_none());
        let m = cache.metrics();
        assert_eq!((m.version_mismatch, m.corrupt, m.hits), (1, 0, 0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_echo_guards_against_renamed_entries() {
        let cache = RunCache::open(tmpdir("echo")).unwrap();
        let (k1, k2, r) = (key(5), key(6), run());
        cache.store(&k1, &r).unwrap();
        // Simulate a mis-filed entry: k1's bytes under k2's name.
        std::fs::copy(cache.entry_path(&k1), cache.entry_path(&k2)).unwrap();
        assert!(cache.lookup(&k2).is_none());
        assert_eq!(cache.metrics().corrupt, 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Temp file + rename is the whole write protocol: many writers —
    /// each on its *own* `RunCache` over the directory, i.e. the
    /// two-process case — racing on one key all store, a concurrent
    /// reader never observes a torn entry, and exactly one entry file is
    /// left with no temp files beside it.
    #[test]
    fn concurrent_same_key_writers_all_store_one_whole_entry() {
        let dir = tmpdir("race");
        let k = key(7);
        let writers = 6;
        let rounds = 12;
        let barrier = Arc::new(std::sync::Barrier::new(writers + 1));
        let handles: Vec<_> = (0..writers)
            .map(|_| {
                let dir = dir.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    // A distinct RunCache per writer: no shared in-process
                    // state, so the only coordination is the rename.
                    let cache = RunCache::open(&dir).expect("open");
                    barrier.wait();
                    for _ in 0..rounds {
                        cache.store(&k, &run()).expect("store never errors under contention");
                    }
                    cache.metrics()
                })
            })
            .collect();
        let reader = {
            let dir = dir.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let cache = RunCache::open(&dir).expect("open");
                barrier.wait();
                let mut hits = 0u64;
                for _ in 0..200 {
                    if let Some(got) = cache.lookup(&k) {
                        assert_eq!(got, run(), "a served entry must always be the full write");
                        hits += 1;
                    }
                    std::thread::yield_now();
                }
                (hits, cache.metrics())
            })
        };
        let stores: u64 = handles.into_iter().map(|h| h.join().expect("writer panicked").stores).sum();
        let (_, rm) = reader.join().expect("reader panicked");
        assert_eq!(stores, (writers * rounds) as u64, "every attempt stores");
        assert_eq!(rm.corrupt, 0, "a concurrent reader must never see a torn entry");
        // Exactly one entry file, no leftover temp files.
        let leftovers: Vec<String> =
            std::fs::read_dir(&dir).unwrap().flatten().map(|e| e.file_name().to_string_lossy().into_owned()).collect();
        assert_eq!(leftovers, vec![k.file_name()], "no duplicates or temps: {leftovers:?}");
        // The final entry decodes cleanly.
        let cache = RunCache::open(&dir).unwrap();
        assert_eq!(cache.lookup(&k).expect("entry must be intact"), run());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a `store()` that fails mid-write (here: `rename` loses
    /// to a non-empty directory squatting on the entry path — a shape
    /// that fails even for root, unlike a read-only cache dir) used to
    /// leak its `.tmp-{pid}-{seq}` file forever; nothing ever swept the
    /// directory. The error path must delete the temp.
    #[test]
    fn failed_store_does_not_leak_its_temp_file() {
        let dir = tmpdir("tmpleak");
        let cache = RunCache::open(&dir).unwrap();
        let k = key(11);
        // Squat a non-empty directory on the final entry path so the
        // atomic publish rename fails after the temp is fully written.
        let squat = cache.entry_path(&k);
        std::fs::create_dir(&squat).unwrap();
        std::fs::write(squat.join("occupied"), b"x").unwrap();
        cache.store(&k, &run()).expect_err("rename over a non-empty directory must fail");
        let temps: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(".tmp-"))
            .collect();
        assert!(temps.is_empty(), "failed store leaked temp files: {temps:?}");
        // Clearing the squatter lets the same key store normally.
        std::fs::remove_dir_all(&squat).unwrap();
        cache.store(&k, &run()).unwrap();
        assert_eq!(cache.lookup(&k).unwrap(), run());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
