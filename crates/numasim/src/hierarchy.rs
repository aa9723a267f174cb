//! The full cache hierarchy: per-core L1/L2, per-node shared L3, and the
//! line-fill-buffer behaviour PEBS observes on streaming code.
//!
//! A lookup walks L1 → L2 → L3(node) → DRAM(home node) and returns the
//! [`DataSource`] that satisfied the access — the same classification the
//! paper's PEBS samples carry (`L1/L2/L3 Hit`, `LFB`, `local DRAM`,
//! `remote DRAM`). Lines are installed into every level on the way back
//! (inclusive fill), so temporal locality is modelled naturally.
//!
//! **Line-fill buffers.** On real hardware a 64-byte line is fetched once
//! while the remaining loads to that line complete from the line-fill
//! buffer; PEBS attributes those loads to the LFB with a latency between L3
//! and DRAM. Workload streams declare how many loads they issue per line
//! (`reps`, e.g. 8 for an 8-byte-element sequential scan); the hierarchy
//! resolves the first load, and the engine classifies the remaining
//! `reps - 1` loads of a DRAM-filled line as [`DataSource::Lfb`].

use crate::cache::{Cache, CacheStats};
use crate::config::MachineConfig;
use crate::topology::{CoreId, NodeId};

/// Where a memory access was satisfied. Mirrors the data-source field of a
/// PEBS memory sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataSource {
    /// Hit in the core's L1 data cache.
    L1,
    /// Hit in the core's L2.
    L2,
    /// Hit in the node's shared L3.
    L3,
    /// Satisfied by a line-fill buffer (miss to the same line in flight).
    Lfb,
    /// Served by the memory controller of the accessing core's own node.
    LocalDram,
    /// Served by a remote node's memory controller, over the interconnect.
    RemoteDram,
}

impl DataSource {
    /// True for the two DRAM sources.
    #[inline]
    pub fn is_dram(self) -> bool {
        matches!(self, DataSource::LocalDram | DataSource::RemoteDram)
    }

    /// All six sources, in hierarchy order.
    pub const ALL: [DataSource; 6] = [
        DataSource::L1,
        DataSource::L2,
        DataSource::L3,
        DataSource::Lfb,
        DataSource::LocalDram,
        DataSource::RemoteDram,
    ];
}

impl std::fmt::Display for DataSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DataSource::L1 => "L1",
            DataSource::L2 => "L2",
            DataSource::L3 => "L3",
            DataSource::Lfb => "LFB",
            DataSource::LocalDram => "LocalDRAM",
            DataSource::RemoteDram => "RemoteDRAM",
        };
        f.write_str(s)
    }
}

/// The machine's cache hierarchy state.
///
/// Equality compares every cache's full replacement state and counters
/// (see [`Cache`]); the span-walk differential tests use it to prove the
/// fused walk leaves residency bit-identical to the per-line walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Vec<Cache>,
    cores_per_node: usize,
    line_shift: u32,
}

impl Hierarchy {
    /// Build cold caches for every core and node of `cfg`.
    pub fn new(cfg: &MachineConfig) -> Self {
        let ls = cfg.cache.line_size;
        let cores = cfg.topology.num_cores();
        let nodes = cfg.topology.num_nodes();
        let mk = |geo: crate::config::CacheGeometry, count: usize| -> Vec<Cache> {
            (0..count).map(|_| Cache::new(geo.num_sets(ls), geo.assoc as usize)).collect()
        };
        Self {
            l1: mk(cfg.cache.l1, cores),
            l2: mk(cfg.cache.l2, cores),
            l3: mk(cfg.cache.l3, nodes),
            cores_per_node: cfg.topology.cores_per_node(),
            line_shift: ls.trailing_zeros(),
        }
    }

    /// Cache line number of a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Walk the cache levels for one load/store issued by `core`.
    ///
    /// Returns `Some(level)` if a cache satisfied the access, or `None` if
    /// the line had to be fetched from DRAM — in which case it has already
    /// been installed into L1/L2/L3 and the caller classifies the access as
    /// local or remote DRAM using the page's home node. Deferring the home
    /// lookup to misses keeps cache hits (the common case) off the memory
    /// map entirely.
    #[inline]
    pub fn cache_access(&mut self, core: CoreId, addr: u64) -> Option<DataSource> {
        // One walk, two entry points: delegate to the per-core handle so
        // this path can never diverge from the fused span walk built on it.
        self.core_caches(core).access(addr)
    }

    /// Walk the hierarchy for one load/store issued by `core` to a line
    /// homed on `home`. Installs the line on a miss and returns the source
    /// that satisfied the access.
    #[inline]
    pub fn lookup(&mut self, core: CoreId, home: NodeId, addr: u64) -> DataSource {
        match self.cache_access(core, addr) {
            Some(src) => src,
            None => {
                let node = core.0 as usize / self.cores_per_node;
                if home.0 as usize == node {
                    DataSource::LocalDram
                } else {
                    DataSource::RemoteDram
                }
            }
        }
    }

    /// Borrow the three caches `core` can reach as one handle, so a hot
    /// loop resolves the per-core indices once per thread slice instead of
    /// once per access. Only the hierarchy is borrowed, leaving sibling
    /// engine state (bandwidth model, memory map, observer) free.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    #[inline]
    pub fn core_caches(&mut self, core: CoreId) -> CoreCaches<'_> {
        let c = core.0 as usize;
        let node = c / self.cores_per_node;
        let (l1, l2, l3) = (&mut self.l1[c], &mut self.l2[c], &mut self.l3[node]);
        CoreCaches { l1, l2, l3, line_shift: self.line_shift }
    }

    /// The node a core belongs to (duplicated from [`crate::topology`] for
    /// hot-path use without a topology borrow).
    #[inline]
    pub fn node_of_core(&self, core: CoreId) -> NodeId {
        NodeId((core.0 as usize / self.cores_per_node) as u8)
    }

    /// Flush every cache (used between independent runs sharing a machine).
    pub fn flush(&mut self) {
        for c in self.l1.iter_mut().chain(self.l2.iter_mut()).chain(self.l3.iter_mut()) {
            c.flush();
        }
    }

    /// Aggregate hit/miss stats for a level: 0 = L1, 1 = L2, 2 = L3.
    ///
    /// # Panics
    /// Panics if `level > 2`.
    pub fn level_stats(&self, level: usize) -> CacheStats {
        let caches = match level {
            0 => &self.l1,
            1 => &self.l2,
            2 => &self.l3,
            _ => panic!("no such cache level {level}"),
        };
        caches.iter().fold(CacheStats::default(), |acc, c| CacheStats {
            hits: acc.hits + c.stats().hits,
            misses: acc.misses + c.stats().misses,
        })
    }
}

/// Mutable view of one core's reachable caches (its L1/L2 and its node's
/// L3), handed out by [`Hierarchy::core_caches`].
#[derive(Debug)]
pub struct CoreCaches<'a> {
    l1: &'a mut Cache,
    l2: &'a mut Cache,
    l3: &'a mut Cache,
    line_shift: u32,
}

impl CoreCaches<'_> {
    /// Same walk as [`Hierarchy::cache_access`], with the per-core cache
    /// resolution already done.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Option<DataSource> {
        let line = addr >> self.line_shift;
        if self.l1.access(line) {
            return Some(DataSource::L1);
        }
        if self.l2.access(line) {
            return Some(DataSource::L2);
        }
        if self.l3.access(line) {
            return Some(DataSource::L3);
        }
        None
    }

    /// Cache line number of a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Longest prefix of the consecutive-line span `[first_line,
    /// first_line + n)` that provably misses *all three levels* — the
    /// fused-walk counterpart of [`CoreCaches::access`] returning `None`
    /// for every line. Read-only; see [`Cache::span_miss_prefix`].
    ///
    /// Each level's proof window is narrowed to the previous level's
    /// prefix: within the result every line misses L1 (so reaches L2),
    /// misses L2 (so reaches L3), and misses L3 — exactly the lines the
    /// per-line walk would send to DRAM. Narrowing is what keeps each
    /// level's survival predicate valid: it assumes every span line in its
    /// window actually looks the level up, which holds because all those
    /// lines missed the levels above.
    pub fn span_miss_prefix(&self, first_line: u64, n: u64) -> u64 {
        let k = self.l1.span_miss_prefix(first_line, n);
        if k == 0 {
            return 0;
        }
        let k = self.l2.span_miss_prefix(first_line, k);
        if k == 0 {
            return 0;
        }
        self.l3.span_miss_prefix(first_line, k)
    }

    /// Install epochs of the three levels, oldest-first. A span proven
    /// absent while the epochs read some value stays absent for as long
    /// as they are unchanged: installs are the only mutation that can add
    /// a cache member (see `Cache::installs`). [`MissProofMemo`] keys on
    /// this to resume scanning from a cached frontier.
    #[inline]
    pub fn install_epochs(&self) -> [u64; 3] {
        [self.l1.installs(), self.l2.installs(), self.l3.installs()]
    }

    /// Memo-assisted [`CoreCaches::span_miss_prefix`]: the same composed
    /// prefix, but each level reuses its cached absence frontier and
    /// scans only the window beyond it.
    ///
    /// Every level's memo is re-keyed to its current epoch on the way
    /// through (with an empty range when absence was refuted), so after
    /// this call the whole memo is valid *now* — the precondition for
    /// [`MissProofMemo::retire`] after the caller commits its installs.
    pub fn span_miss_prefix_memo(&self, first_line: u64, n: u64, memo: &mut MissProofMemo) -> u64 {
        let mut k = n;
        let levels: [&Cache; 3] = [self.l1, self.l2, self.l3];
        for (l, c) in levels.into_iter().enumerate() {
            let cur = c.installs();
            let covered = memo.snap[l] == cur && first_line >= memo.start[l] && first_line < memo.end[l];
            let proven = if covered { memo.end[l] - first_line } else { 0 };
            if proven >= k {
                continue;
            }
            // Certify absence over exactly the part of the window the
            // cached frontier does not cover.
            if c.span_absent(first_line + proven, k - proven) {
                memo.snap[l] = cur;
                memo.start[l] = if covered { memo.start[l] } else { first_line };
                memo.end[l] = first_line + k;
                continue;
            }
            // Absence refuted: exact prefix over the remaining window.
            // Survival-based claims are recency-sensitive (a hit could
            // invalidate one without moving any install epoch), so they
            // are never memoised — the level keeps an empty, freshly
            // keyed range instead.
            let ki = proven + c.span_miss_prefix(first_line + proven, k - proven);
            memo.snap[l] = cur;
            memo.start[l] = first_line + proven;
            memo.end[l] = first_line + proven;
            k = ki;
            if k == 0 {
                break;
            }
        }
        k
    }

    /// Commit a proven all-miss span into all three levels (inclusive
    /// fill), in closed form — bit-identical to `n` per-line DRAM-miss
    /// walks. See [`Cache::install_span`].
    pub fn install_span(&mut self, first_line: u64, n: u64) {
        self.l1.install_span(first_line, n);
        self.l2.install_span(first_line, n);
        self.l3.install_span(first_line, n);
    }

    /// Longest prefix of the consecutive-line span `[first_line,
    /// first_line + n)` that provably resolves at one single cache level
    /// for *every* line — the hit-side counterpart of
    /// [`CoreCaches::span_miss_prefix`]. Returns the level and the prefix
    /// length, or `None` when even the first line's level cannot be
    /// proven uniform. Read-only.
    ///
    /// The composition narrows exactly like the miss proof: an L2-hit
    /// prefix must first miss L1 (so the L2 window is L1's miss prefix),
    /// an L3-hit prefix must miss L1 and L2. Each returned prefix is
    /// exact *per level* — it ends at `n` or at the first line that
    /// behaves differently at that level — so a warm rescan alternating
    /// L1 hits and L2 hits still commits in closed-form pieces.
    pub fn span_hit_prefix(&self, first_line: u64, n: u64) -> Option<(DataSource, u64)> {
        let h1 = self.l1.span_hit_prefix(first_line, n);
        if h1 > 0 {
            return Some((DataSource::L1, h1));
        }
        // Line 0 misses L1 (the hit proof is exact), so the miss window
        // below is non-empty whenever n > 0.
        let m1 = self.l1.span_miss_prefix(first_line, n);
        let h2 = self.l2.span_hit_prefix(first_line, m1);
        if h2 > 0 {
            return Some((DataSource::L2, h2));
        }
        let m2 = self.l2.span_miss_prefix(first_line, m1);
        let h3 = self.l3.span_hit_prefix(first_line, m2);
        if h3 > 0 {
            return Some((DataSource::L3, h3));
        }
        None
    }

    /// Commit a span proven by [`CoreCaches::span_hit_prefix`] to resolve
    /// wholly at `src`, bit-identical to `n` per-line walks: levels above
    /// the hit install the line (inclusive fill, exactly the miss arm the
    /// per-line walk runs), the hit level promotes, and levels below are
    /// untouched. The caches are disjoint, so replaying each level's whole
    /// span at once equals the per-line interleaving.
    ///
    /// # Panics
    /// Panics if `src` is not one of the three cache levels.
    pub fn commit_hit_span(&mut self, src: DataSource, first_line: u64, n: u64) {
        match src {
            DataSource::L1 => self.l1.promote_span(first_line, n),
            DataSource::L2 => {
                self.l1.install_span(first_line, n);
                self.l2.promote_span(first_line, n);
            }
            DataSource::L3 => {
                self.l1.install_span(first_line, n);
                self.l2.install_span(first_line, n);
                self.l3.promote_span(first_line, n);
            }
            other => panic!("commit_hit_span on non-cache source {other}"),
        }
    }

    /// Commit a single proven-miss line into all three levels (inclusive
    /// fill) — the one-line counterpart of [`CoreCaches::install_span`],
    /// used where proven misses arrive interleaved rather than as one
    /// consecutive span. See [`Cache::install_line`].
    #[inline]
    pub fn install_line(&mut self, line: u64) {
        self.l1.install_line(line);
        self.l2.install_line(line);
        self.l3.install_line(line);
    }

    /// [`CoreCaches::install_line`] with the three per-level miss counters
    /// deferred: the interleaved replay in the engine commits one line at
    /// a time but knows the total up front, so it charges stats once per
    /// span via [`CoreCaches::charge_misses`] instead of three
    /// read-modify-writes per line. Counters are integers — bulk-charging
    /// is exactly `n` deferred increments.
    #[inline]
    pub(crate) fn install_line_deferred(&mut self, line: u64) {
        self.l1.install_line_deferred(line);
        self.l2.install_line_deferred(line);
        self.l3.install_line_deferred(line);
    }

    /// Charge `n` misses per level deferred by
    /// [`CoreCaches::install_line_deferred`].
    #[inline]
    pub(crate) fn charge_misses(&mut self, n: u64) {
        self.l1.charge_misses(n);
        self.l2.charge_misses(n);
        self.l3.charge_misses(n);
    }
}

/// Per-level memo of pure-absence miss proofs: lines `[start[l], end[l])`
/// were proven absent from cache level `l` (see `Cache::span_absent`)
/// while its install epoch read `snap[l]`. Absence is insensitive to
/// recency — hits reorder, evictions remove, flushes clear — so the
/// claim stays valid exactly until the level *installs*, and a thread
/// whose own installs all land below the frontier can carry the claim
/// across its commits via [`MissProofMemo::retire`]. Shared levels
/// invalidate naturally: a sibling core's install moves the L3 epoch and
/// only that level re-scans.
#[derive(Debug, Clone, Copy)]
pub struct MissProofMemo {
    /// Install epoch each range was proven under; `u64::MAX` matches no
    /// cache, so a fresh memo is invalid everywhere.
    snap: [u64; 3],
    start: [u64; 3],
    end: [u64; 3],
}

impl Default for MissProofMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl MissProofMemo {
    /// A memo with no valid claims.
    pub const fn new() -> Self {
        Self { snap: [u64::MAX; 3], start: [0; 3], end: [0; 3] }
    }

    /// Advance the frontiers past a just-committed span ending at `below`
    /// and re-key to the post-commit epochs `snap`.
    ///
    /// Sound only when (a) the memo was re-keyed by
    /// [`CoreCaches::span_miss_prefix_memo`] since any foreign install,
    /// and (b) every install since then lies below `below` or beyond
    /// `horizon` — the fused paths' own commits satisfy (b) with
    /// `horizon = u64::MAX`; the interleaved path passes the bound its
    /// lane-disjointness check actually covered.
    pub fn retire(&mut self, snap: [u64; 3], below: u64, horizon: u64) {
        for (l, &s) in snap.iter().enumerate() {
            self.snap[l] = s;
            self.start[l] = self.start[l].max(below);
            self.end[l] = self.end[l].min(horizon).max(self.start[l]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn hier() -> Hierarchy {
        Hierarchy::new(&MachineConfig::tiny())
    }

    #[test]
    fn cold_access_is_dram_then_l1() {
        let mut h = hier();
        let src = h.lookup(CoreId(0), NodeId(0), 0x1000);
        assert_eq!(src, DataSource::LocalDram);
        let src = h.lookup(CoreId(0), NodeId(0), 0x1000);
        assert_eq!(src, DataSource::L1);
    }

    #[test]
    fn remote_home_is_remote_dram() {
        let mut h = hier();
        // tiny: 2 cores per node; core 2 is on node 1.
        let src = h.lookup(CoreId(2), NodeId(0), 0x2000);
        assert_eq!(src, DataSource::RemoteDram);
    }

    #[test]
    fn l3_shared_within_node() {
        let mut h = hier();
        // Core 0 pulls the line into node 0's L3; core 1 (same node) should
        // find it there (its private L1/L2 are cold).
        h.lookup(CoreId(0), NodeId(0), 0x3000);
        let src = h.lookup(CoreId(1), NodeId(0), 0x3000);
        assert_eq!(src, DataSource::L3);
    }

    #[test]
    fn l3_not_shared_across_nodes() {
        let mut h = hier();
        h.lookup(CoreId(0), NodeId(0), 0x4000);
        let src = h.lookup(CoreId(2), NodeId(0), 0x4000);
        assert_eq!(src, DataSource::RemoteDram);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let cfg = MachineConfig::tiny();
        let mut h = Hierarchy::new(&cfg);
        // L1 tiny preset: 1 KiB, 4-way, 64B lines -> 16 lines, 4 sets.
        // Touch line 0, then 4 more lines in the same L1 set to evict it.
        let line_sz = cfg.cache.line_size;
        let l1_sets = cfg.cache.l1.num_sets(line_sz) as u64;
        h.lookup(CoreId(0), NodeId(0), 0);
        for i in 1..=4 {
            h.lookup(CoreId(0), NodeId(0), i * l1_sets * line_sz);
        }
        let src = h.lookup(CoreId(0), NodeId(0), 0);
        assert_eq!(src, DataSource::L2, "line should have fallen back to L2");
    }

    #[test]
    fn flush_forgets_everything() {
        let mut h = hier();
        h.lookup(CoreId(0), NodeId(0), 0x5000);
        h.flush();
        assert_eq!(h.lookup(CoreId(0), NodeId(0), 0x5000), DataSource::LocalDram);
    }

    #[test]
    fn level_stats_accumulate() {
        let mut h = hier();
        h.lookup(CoreId(0), NodeId(0), 0x100);
        h.lookup(CoreId(0), NodeId(0), 0x100);
        let l1 = h.level_stats(0);
        assert_eq!(l1.hits, 1);
        assert_eq!(l1.misses, 1);
    }

    #[test]
    fn core_caches_matches_cache_access() {
        let mut a = hier();
        let mut b = hier();
        // Mixed cores and re-touches: both walks must agree event by event
        // and leave identical residency behind.
        let pattern: Vec<(u32, u64)> = (0u64..200).map(|i| ((i % 3) as u32, (i * 137) % 50 * 64)).collect();
        for &(core, addr) in &pattern {
            let via_handle = b.core_caches(CoreId(core)).access(addr);
            assert_eq!(a.cache_access(CoreId(core), addr), via_handle);
        }
        for lvl in 0..3 {
            assert_eq!(a.level_stats(lvl), b.level_stats(lvl));
        }
    }

    /// The fused span walk must leave all three levels bit-identical to
    /// the per-line walk, across warm L2/L3 state (re-scan after L1-sized
    /// eviction) and sibling-core sharing.
    #[test]
    fn span_walk_matches_per_line_walk() {
        let mut a = hier();
        let mut b = hier();
        let spans: [(u32, u64, u64); 6] =
            [(0, 0, 200), (1, 100, 64), (0, 0, 200), (2, 300, 512), (0, 150, 33), (1, 0, 1)];
        for &(core, first, n) in &spans {
            for line in first..first + n {
                a.cache_access(CoreId(core), line * 64);
            }
            let mut cc = b.core_caches(CoreId(core));
            let mut cur = first;
            let mut rem = n;
            // The engine's consumption pattern: closed-form where provable,
            // per-line otherwise.
            while rem > 0 {
                let k = cc.span_miss_prefix(cur, rem);
                if k > 0 {
                    cc.install_span(cur, k);
                    cur += k;
                    rem -= k;
                } else {
                    cc.access(cur * 64);
                    cur += 1;
                    rem -= 1;
                }
            }
        }
        assert_eq!(a, b, "span walk diverged from per-line walk");
    }

    /// The hit-side closed form: spans resolving wholly in L1, L2 (after
    /// L1-capacity eviction), and L3 (sibling-core sharing) must be
    /// recognised at the right level, and committing them must leave all
    /// three levels bit-identical to the per-line walk.
    #[test]
    fn hit_span_walk_matches_per_line_walk() {
        let cfg = MachineConfig::tiny();
        // tiny L1: 16 lines; L2: 128 lines; L3: 1024 lines.
        let l1_lines = cfg.cache.l1.size / cfg.cache.line_size;
        let l2_lines = cfg.cache.l2.size / cfg.cache.line_size;

        // Drive both twins through the same schedule; b uses the proof +
        // commit path wherever it fires.
        let mut a = hier();
        let mut b = hier();
        let drive = |a: &mut Hierarchy, b: &mut Hierarchy, core: u32, first: u64, n: u64, want: Option<DataSource>| {
            for line in first..first + n {
                a.cache_access(CoreId(core), line * 64);
            }
            let mut cc = b.core_caches(CoreId(core));
            let mut cur = first;
            let mut rem = n;
            while rem > 0 {
                if let Some((src, k)) = cc.span_hit_prefix(cur, rem) {
                    if let Some(w) = want {
                        assert_eq!(src, w, "span [{cur}, +{rem}) proved at wrong level");
                    }
                    cc.commit_hit_span(src, cur, k);
                    cur += k;
                    rem -= k;
                    continue;
                }
                let k = cc.span_miss_prefix(cur, rem);
                if k > 0 {
                    cc.install_span(cur, k);
                    cur += k;
                    rem -= k;
                } else {
                    cc.access(cur * 64);
                    cur += 1;
                    rem -= 1;
                }
            }
        };

        // Warm an L1-sized set, rescan: pure L1 hits.
        drive(&mut a, &mut b, 0, 0, l1_lines, None);
        drive(&mut a, &mut b, 0, 0, l1_lines, Some(DataSource::L1));
        // Warm an L2-sized footprint (evicts L1), rescan: L2 hits with a
        // leading stretch of L1 hits from the tail of the warmup.
        drive(&mut a, &mut b, 0, 0, l2_lines, None);
        drive(&mut a, &mut b, 0, 0, l2_lines / 2, Some(DataSource::L2));
        // A sibling core on the same node reads what core 0 pulled into
        // the shared L3: its private levels are cold, so L3 hits.
        drive(&mut a, &mut b, 1, 0, l2_lines / 2, Some(DataSource::L3));
        assert_eq!(a, b, "hit-span walk diverged from per-line walk");

        // And an adversarial mixed schedule with no level expectations:
        // overlapping spans from three cores across both nodes.
        for &(core, first, n) in
            &[(0u32, 0u64, 300u64), (1, 100, 64), (2, 0, 200), (0, 0, 300), (1, 90, 80), (2, 0, 200), (0, 5, 17)]
        {
            drive(&mut a, &mut b, core, first, n, None);
        }
        assert_eq!(a, b, "mixed hit/miss walk diverged from per-line walk");
    }

    #[test]
    fn data_source_display_and_flags() {
        assert_eq!(DataSource::RemoteDram.to_string(), "RemoteDRAM");
        assert!(DataSource::LocalDram.is_dram());
        assert!(!DataSource::Lfb.is_dram());
        assert_eq!(DataSource::ALL.len(), 6);
    }
}
