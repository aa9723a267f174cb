//! Set-associative LRU cache model.
//!
//! The model tracks tags only — the simulator never stores data values. A
//! lookup either hits (the line is resident) or misses and installs the
//! line, evicting the least-recently-used way.
//!
//! Each set is a circular buffer in recency order: `head` points at the
//! MRU way and recency decreases with distance from it. That makes the
//! dominant streaming operations O(1) — a miss overwrites the LRU way and
//! retreats `head` onto it; a hit on the LRU way (cyclic scans) advances
//! recency the same way — while arbitrary hits shift at most the ways
//! ahead of the hit. The engine's hot path stays allocation-free.

/// Hit/miss counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups that hit.
    pub hits: u64,
    /// Number of lookups that missed (and installed the line).
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; 0 when no accesses were made.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

const INVALID: u64 = u64::MAX;

/// A set-associative cache with true-LRU replacement, addressed by cache
/// line number (byte address divided by line size).
///
/// Equality compares the complete replacement state (tags, recency heads)
/// and the counters — two caches are equal exactly when no sequence of
/// future accesses could distinguish them. The span-walk differential
/// tests rely on this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    /// Tags per set, a circular buffer in recency order: the MRU way of
    /// set `s` is `tags[s * assoc + heads[s]]`, and recency decreases
    /// walking forward (wrapping) from it.
    tags: Vec<u64>,
    /// Physical index of each set's MRU way.
    heads: Vec<u8>,
    /// Per-set monotone upper bound on every tag ever installed (0 when
    /// nothing was). Since it never decreases, `set_max[s] < first` proves
    /// set `s` holds no tag in `[first, ∞)` — the O(sets) prefilter that
    /// lets [`Cache::span_miss_prefix`] certify forward streaming without
    /// scanning any ways.
    set_max: Vec<u64>,
    assoc: usize,
    set_mask: u64,
    stats: CacheStats,
    /// Monotone count of tag installs, never reset (unlike `stats`). The
    /// engine's miss-proof memos use it as an epoch: installs are the only
    /// mutation that can *add* a member (evictions remove, hits reorder,
    /// flushes clear), so a proven all-miss span stays proven while this
    /// counter is unchanged.
    installs: u64,
}

impl Cache {
    /// Create a cache with `sets` sets (must be a power of two) and
    /// `assoc` ways.
    ///
    /// # Panics
    /// Panics if `sets` is not a power of two or either dimension is zero
    /// or `assoc` exceeds 32 (the membership scan is linear, so the limit
    /// bounds the worst case; real caches stay well under it).
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(sets > 0 && sets.is_power_of_two(), "set count must be a power of two, got {sets}");
        assert!(assoc > 0 && assoc <= 32, "associativity must be in 1..=32");
        Self {
            tags: vec![INVALID; sets * assoc],
            heads: vec![0; sets],
            set_max: vec![0; sets],
            assoc,
            set_mask: (sets - 1) as u64,
            stats: CacheStats::default(),
            installs: 0,
        }
    }

    /// Install epoch: see the `installs` field.
    #[inline]
    pub(crate) fn installs(&self) -> u64 {
        self.installs
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        (self.set_mask + 1) as usize
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// The set a line maps to.
    #[inline]
    pub fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Look up `line`; on miss, install it as MRU and evict the LRU way.
    /// Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, line: u64) -> bool {
        debug_assert_ne!(line, INVALID, "line number reserved as invalid marker");
        let set = self.set_of(line);
        let base = set * self.assoc;
        let head = self.heads[set] as usize;
        let ways = &mut self.tags[base..base + self.assoc];
        // MRU fast path: sequential scans re-touch the most recent line
        // (reps > 1) far more often than any other way.
        if ways[head] == line {
            self.stats.hits += 1;
            return true;
        }
        if let Some(phys) = ways.iter().position(|&t| t == line) {
            self.stats.hits += 1;
            // Logical recency position of the hit way.
            let pos = (phys + self.assoc - head) % self.assoc;
            if pos == self.assoc - 1 {
                // Hit on the LRU way (cyclic scans): retreating the head
                // onto it promotes it to MRU in O(1).
                self.heads[set] = phys as u8;
            } else {
                // General hit: shift the more-recent ways back by one and
                // put `line` at the head slot.
                let mut i = phys;
                while i != head {
                    let prev = if i == 0 { self.assoc - 1 } else { i - 1 };
                    ways[i] = ways[prev];
                    i = prev;
                }
                ways[head] = line;
            }
            true
        } else {
            // Miss: the way before the head is the LRU; overwrite it and
            // make it the new head. O(1) regardless of associativity.
            let lru = if head == 0 { self.assoc - 1 } else { head - 1 };
            ways[lru] = line;
            self.heads[set] = lru as u8;
            if line > self.set_max[set] {
                self.set_max[set] = line;
            }
            self.stats.misses += 1;
            self.installs += 1;
            false
        }
    }

    /// Install `line` as a *proven* miss: the LRU way is overwritten and
    /// becomes MRU, with no residency scan. Bit-identical to the miss arm
    /// of [`Cache::access`] — callers must have established (e.g. via
    /// [`Cache::span_miss_prefix`]) that `line` is not resident.
    #[inline]
    pub fn install_line(&mut self, line: u64) {
        self.install_line_deferred(line);
        self.stats.misses += 1;
    }

    /// [`Cache::install_line`] minus the miss counter, for hot loops that
    /// bulk-charge stats afterwards via [`Cache::charge_misses`]. Counters
    /// are plain integers, so deferring them is order-free.
    #[inline]
    pub(crate) fn install_line_deferred(&mut self, line: u64) {
        debug_assert_ne!(line, INVALID, "line number reserved as invalid marker");
        debug_assert!(!self.probe(line), "install_line on a resident line");
        let set = self.set_of(line);
        let head = self.heads[set] as usize;
        let lru = if head == 0 { self.assoc - 1 } else { head - 1 };
        self.tags[set * self.assoc + lru] = line;
        self.heads[set] = lru as u8;
        if line > self.set_max[set] {
            self.set_max[set] = line;
        }
        self.installs += 1;
    }

    /// Charge `n` misses deferred by [`Cache::install_line_deferred`].
    #[inline]
    pub(crate) fn charge_misses(&mut self, n: u64) {
        self.stats.misses += n;
    }

    /// Whether `line` is resident, without touching LRU state or stats.
    pub fn probe(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let base = set * self.assoc;
        self.tags[base..base + self.assoc].contains(&line)
    }

    /// Invalidate every line (e.g. between workload phases).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
        self.heads.fill(0);
        self.set_max.fill(0);
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset counters (residency is kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Length of the longest prefix of the consecutive-line span
    /// `[first, first + n)` that is provably *all misses* — exact, not
    /// conservative: the returned prefix ends either at `n` or at the first
    /// line of the span that would hit.
    ///
    /// The proof does not touch LRU state or stats, so callers may use it
    /// purely as a read-only oracle. It rests on two facts about a span of
    /// distinct consecutive lines processed with no interleaved accesses:
    /// the span cannot hit on its own installs (all lines distinct), and a
    /// resident tag that is itself the `i`-th span line of its set (1-based)
    /// survives until it is reached iff fewer than `assoc - p` misses
    /// precede it in that set, where `p` is its current recency position
    /// (0 = MRU). Since exactly `i - 1` span misses precede it, the line
    /// *hits* iff `i + p <= assoc` — which correctly recognises
    /// footprint-over-capacity cyclic rescans (pass ≥ 2) as all-miss even
    /// though the previous pass's tags still sit in every set.
    pub fn span_miss_prefix(&self, first: u64, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        if self.span_absent(first, n) {
            n
        } else {
            self.span_first_hit(first, n)
        }
    }

    /// Whether provably *no* tag of `[first, first + n)` is resident — the
    /// pure-membership fast path of [`Cache::span_miss_prefix`] (set-max
    /// prefilter plus vector scan; never the exact recency walk). `false`
    /// means "unproven", not "some line hits".
    ///
    /// Unlike the survival-based prefix, an absence certificate is
    /// insensitive to recency: hits only reorder ways and evictions only
    /// remove members, so the claim can be broken *solely* by an install.
    /// That is the invariant behind the engine's proof memos (see
    /// [`Cache::installs`]).
    pub(crate) fn span_absent(&self, first: u64, n: u64) -> bool {
        if n == 0 {
            return true;
        }
        debug_assert!(first.checked_add(n).is_some(), "span overflows line space");
        let sets = self.set_mask + 1;
        // The span touches a contiguous (wrapping) stretch of sets, so its
        // candidate tags form at most two contiguous slices of the tag
        // array — scanned linearly (auto-vectorizable) for any resident
        // tag inside the span. `INVALID` wraps to a huge offset and never
        // matches.
        // Prefilter on the per-set tag upper bounds: forward streaming —
        // the dominant caller — never revisits lines, so every touched
        // set's `set_max` sits below `first` and the span is certified
        // all-miss after one `u64` compare per set instead of per way.
        let s0 = (first & self.set_mask) as usize;
        let w = n.min(sets) as usize;
        let nsets = self.set_max.len();
        // `m >= first` iff `m.wrapping_sub(first)` does not borrow, i.e.
        // its sign bit is clear (both operands are < 2^63: lines carry a
        // byte address divided by the line size). The borrow-sign AND
        // reduction is [`crate::simd::any_ge`].
        let suspect = if s0 + w <= nsets {
            crate::simd::any_ge(&self.set_max[s0..s0 + w], first)
        } else {
            crate::simd::any_ge(&self.set_max[s0..], first)
                || crate::simd::any_ge(&self.set_max[..s0 + w - nsets], first)
        };
        if !suspect {
            return true;
        }
        let start = (first & self.set_mask) as usize * self.assoc;
        let len = (n.min(sets) as usize) * self.assoc;
        // Quick scan for any resident tag *near* the span, widened from
        // `n` to the next power of two `2^shift` so membership becomes a
        // zero test on `off >> shift` — the zero-detect reduction in
        // [`crate::simd::any_near`]. Widening only admits
        // tags in `[first + n, first + 2^shift)` — the lines the caller
        // is *about* to stream through, which are essentially never
        // resident — and a false positive is not an error: it just falls
        // through to the exact `span_first_hit` walk below.
        let shift = 64 - (n - 1).leading_zeros().min(63);
        let found = if start + len <= self.tags.len() {
            crate::simd::any_near(&self.tags[start..start + len], first, shift)
        } else {
            let wrap = start + len - self.tags.len();
            crate::simd::any_near(&self.tags[start..], first, shift)
                || crate::simd::any_near(&self.tags[..wrap], first, shift)
        };
        !found
    }

    /// Exact earliest hit in the span `[first, first + n)`: the minimum
    /// span offset of a resident tag satisfying the survival predicate
    /// (see [`Cache::span_miss_prefix`]). Only called once the quick scan
    /// has seen at least one resident tag in range.
    fn span_first_hit(&self, first: u64, n: u64) -> u64 {
        let sets = self.set_mask + 1;
        let set_shift = sets.trailing_zeros(); // sets is a power of two
        let assoc = self.assoc as u64;
        let mut best = n;
        // A candidate in the `k`-th touched set sits at span offset ≥ `k`,
        // so no set at or past `best` can improve on it.
        for k in 0..n.min(sets) {
            if k >= best {
                break;
            }
            let s = ((first + k) & self.set_mask) as usize;
            let base = s * self.assoc;
            let head = self.heads[s] as usize;
            for w in 0..self.assoc {
                let off = self.tags[base + w].wrapping_sub(first);
                if off < n {
                    // This tag is span line i = off/sets + 1 of its set, at
                    // recency position p; it hits iff i + p <= assoc.
                    let i = (off >> set_shift) + 1;
                    let mut p = (w + self.assoc - head) as u64;
                    if p >= assoc {
                        p -= assoc;
                    }
                    if i + p <= assoc {
                        best = best.min(off);
                    }
                }
            }
        }
        best
    }

    /// Length of the longest prefix of the consecutive-line span
    /// `[first, first + n)` that is provably *all hits* — exact: the
    /// returned prefix ends either at `n` or at the first line that would
    /// miss. Read-only (no LRU state or stats touched).
    ///
    /// The proof is residency alone: span lines are distinct and hits
    /// never evict, so every initially-resident line of the prefix is
    /// still resident when the ascending walk reaches it — an
    /// all-resident prefix is an all-hit prefix. Per touched set, one way
    /// scan builds a bitmask of which of the set's expected span lines
    /// (`i`-th line has span offset `k + i·sets`) are resident; the first
    /// clear bit across sets bounds the prefix. A span longer than the
    /// cache's capacity is capped there first: line `capacity` of an
    /// all-resident prefix cannot itself be resident (its set is full of
    /// earlier span lines), so the cap loses nothing. O(touched sets ×
    /// assoc).
    pub fn span_hit_prefix(&self, first: u64, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        debug_assert!(first.checked_add(n).is_some(), "span overflows line space");
        let sets = self.set_mask + 1;
        let set_shift = sets.trailing_zeros(); // sets is a power of two
        let n_eff = n.min(sets * self.assoc as u64);
        let mut best = n_eff;
        // A gap in the `k`-th touched set sits at span offset ≥ `k`, so no
        // set at or past `best` can shorten the prefix further.
        for k in 0..n_eff.min(sets) {
            if k >= best {
                break;
            }
            let s = ((first + k) & self.set_mask) as usize;
            let base = s * self.assoc;
            // This set holds span lines k, k + sets, k + 2·sets, …:
            // m of them in the capped span, m <= assoc <= 32.
            let m = (n_eff - k).div_ceil(sets);
            let mut resident = 0u64;
            for w in 0..self.assoc {
                // Tags in set s with span offset < n_eff automatically
                // have offset ≡ k (mod sets); INVALID wraps far outside.
                let off = self.tags[base + w].wrapping_sub(first);
                if off < n_eff {
                    resident |= 1u64 << (off >> set_shift);
                }
            }
            let missing = !resident & ((1u64 << m) - 1);
            if missing != 0 {
                best = best.min(k + missing.trailing_zeros() as u64 * sets);
            }
        }
        best
    }

    /// Touch the consecutive-line span `[first, first + n)` as `n`
    /// *proven* hits, bit-identical to `n` ascending [`Cache::access`]
    /// calls that all hit: same final tags, heads, and counters (hits
    /// never update `set_max`). Callers must have proven the span all-hit
    /// via [`Cache::span_hit_prefix`]; debug builds re-verify.
    ///
    /// Sets are independent (a hit only rearranges its own set), so each
    /// touched set replays its own lines in ascending order. The steady
    /// state cyclic rescans reach — the set's span lines sitting in
    /// consecutive slots walking backward from the head, each touch
    /// hitting the LRU position — collapses to a head retreat with tags
    /// untouched; any other arrangement replays the exact per-line hit
    /// arm.
    pub fn promote_span(&mut self, first: u64, n: u64) {
        debug_assert_eq!(self.span_hit_prefix(first, n), n, "promote_span requires a proven all-hit span");
        if n == 0 {
            return;
        }
        let sets = self.set_mask + 1;
        for k in 0..n.min(sets) {
            let s = ((first + k) & self.set_mask) as usize;
            let base = s * self.assoc;
            let m = ((n - k).div_ceil(sets)) as usize; // <= assoc: all resident
            let head0 = self.heads[s] as usize;
            // Cyclic-rescan fast case: i-th span line at physical slot
            // head0 - 1 - i (mod assoc) means every touch hits recency
            // position assoc-1, so each is an O(1) head retreat.
            let cyclic = (0..m).all(|i| {
                let phys = (head0 + self.assoc - 1 - i) % self.assoc;
                self.tags[base + phys] == first + k + i as u64 * sets
            });
            if cyclic {
                self.heads[s] = ((head0 + self.assoc - m % self.assoc) % self.assoc) as u8;
                continue;
            }
            for i in 0..m {
                let line = first + k + i as u64 * sets;
                // Replica of the hit arm of `access`.
                let head = self.heads[s] as usize;
                let ways = &mut self.tags[base..base + self.assoc];
                if ways[head] == line {
                    continue;
                }
                let phys = ways.iter().position(|&t| t == line).expect("promote_span line not resident");
                let pos = (phys + self.assoc - head) % self.assoc;
                if pos == self.assoc - 1 {
                    self.heads[s] = phys as u8;
                } else {
                    let mut j = phys;
                    while j != head {
                        let prev = if j == 0 { self.assoc - 1 } else { j - 1 };
                        ways[j] = ways[prev];
                        j = prev;
                    }
                    ways[head] = line;
                }
            }
        }
        self.stats.hits += n;
    }

    /// Install the consecutive-line span `[first, first + n)` as `n`
    /// misses in closed form: per touched set, the final circular-buffer
    /// state after `m` sequential miss-installs is written directly — the
    /// head retreats by `m mod assoc` and only the last `min(m, assoc)`
    /// installed lines remain, in recency order. O(touched sets + writes)
    /// instead of O(n) per-line installs, and bit-identical to them.
    ///
    /// The caller must have proven the span all-miss (via
    /// [`Cache::span_miss_prefix`]); debug builds re-verify.
    pub fn install_span(&mut self, first: u64, n: u64) {
        debug_assert_eq!(self.span_miss_prefix(first, n), n, "install_span requires a proven all-miss span");
        if n == 0 {
            return;
        }
        let sets = self.set_mask + 1;
        let assoc = self.assoc as u64;
        if n < sets {
            // Short spans — every L3 window in practice — give each
            // touched set exactly one line: the head retreats one way
            // onto it. Kept minimal; this bound is the walk's floor.
            for k in 0..n {
                let line = first + k;
                let s = (line & self.set_mask) as usize;
                let h = self.heads[s] as usize;
                let h1 = if h == 0 { self.assoc - 1 } else { h - 1 };
                self.tags[s * self.assoc + h1] = line;
                self.heads[s] = h1 as u8;
                if line > self.set_max[s] {
                    self.set_max[s] = line;
                }
            }
            self.stats.misses += n;
            self.installs += n;
            return;
        }
        // Per touched set, the span holds m = ceil((n - k) / sets) lines:
        // q + 1 for the first n mod sets sets, q for the rest. Hoisting the
        // two cases out of the loop keeps the per-set body division-free.
        let q = n / sets;
        let r = n % sets;
        let retreat = [(assoc - q % assoc) % assoc, (assoc - (q + 1) % assoc) % assoc];
        let fill = [q.min(assoc), (q + 1).min(assoc)];
        for k in 0..n.min(sets) {
            let s = ((first + k) & self.set_mask) as usize;
            let extra = (k < r) as usize;
            let m = q + extra as u64;
            let base = s * self.assoc;
            let h0 = self.heads[s] as u64;
            let mut h1 = (h0 + retreat[extra]) as usize;
            if h1 >= self.assoc {
                h1 -= self.assoc;
            }
            let last = first + k + (m - 1) * sets;
            // Walk the ways from the new head with one wrap and a running
            // line counter — no division in the per-way loop. The counter
            // may wrap below zero after the final write; it is unused then.
            let mut w = h1;
            let mut line = last;
            for _ in 0..fill[extra] {
                self.tags[base + w] = line;
                w += 1;
                if w == self.assoc {
                    w = 0;
                }
                line = line.wrapping_sub(sets);
            }
            self.heads[s] = h1 as u8;
            if last > self.set_max[s] {
                self.set_max[s] = last;
            }
        }
        self.stats.misses += n;
        self.installs += n;
    }

    /// Access the consecutive-line span `[first, first + n)`, exactly as
    /// `n` per-line [`Cache::access`] calls would: identical final tag and
    /// head state, identical counters. All-miss stretches are committed in
    /// closed form via [`Cache::install_span`]; around hits the walk falls
    /// back to bounded per-line chunks before re-proving, so adversarial
    /// hit/miss mixes stay O(n · assoc) overall.
    ///
    /// Returns the hit/miss delta of this span.
    pub fn access_span(&mut self, first: u64, n: u64) -> CacheStats {
        // Bounded per-line fallback between proofs: long enough to amortise
        // a failed proof, short enough to re-enter the closed form quickly.
        const FALLBACK_CHUNK: u64 = 32;
        let mut delta = CacheStats::default();
        let mut cur = first;
        let mut rem = n;
        while rem > 0 {
            let p = self.span_miss_prefix(cur, rem);
            if p > 0 {
                self.install_span(cur, p);
                delta.misses += p;
                cur += p;
                rem -= p;
            }
            if rem == 0 {
                break;
            }
            for _ in 0..rem.min(FALLBACK_CHUNK) {
                if self.access(cur) {
                    delta.hits += 1;
                } else {
                    delta.misses += 1;
                }
                cur += 1;
                rem -= 1;
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(4, 2);
        assert!(!c.access(10));
        assert!(c.access(10));
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new(1, 2);
        c.access(1);
        c.access(2);
        c.access(1); // 1 is now MRU, 2 is LRU
        c.access(3); // evicts 2
        assert!(c.probe(1));
        assert!(c.probe(3));
        assert!(!c.probe(2));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = Cache::new(4, 1);
        for line in 0..4 {
            c.access(line);
        }
        for line in 0..4 {
            assert!(c.probe(line), "line {line} should still be resident");
        }
    }

    #[test]
    fn same_set_conflicts() {
        let mut c = Cache::new(4, 1);
        c.access(0);
        c.access(4); // same set (4 % 4 == 0), evicts 0
        assert!(!c.probe(0));
        assert!(c.probe(4));
    }

    #[test]
    fn flush_clears_residency_keeps_stats() {
        let mut c = Cache::new(4, 2);
        c.access(7);
        c.flush();
        assert!(!c.probe(7));
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn probe_does_not_count() {
        let c = Cache::new(4, 2);
        c.probe(3);
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn hit_ratio() {
        let mut c = Cache::new(2, 2);
        assert_eq!(c.stats().hit_ratio(), 0.0);
        c.access(0);
        c.access(0);
        c.access(0);
        assert!((c.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        Cache::new(3, 2);
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        // 8 sets * 4 ways = 32 lines capacity; touch 32 distinct lines twice.
        let mut c = Cache::new(8, 4);
        for line in 0..32 {
            c.access(line);
        }
        c.reset_stats();
        for line in 0..32 {
            assert!(c.access(line));
        }
        assert_eq!(c.stats().misses, 0);
    }

    /// Drive `oracle` per-line and return it for comparison against a
    /// span-walked twin.
    fn per_line(c: &mut Cache, first: u64, n: u64) -> CacheStats {
        let mut d = CacheStats::default();
        for line in first..first + n {
            if c.access(line) {
                d.hits += 1;
            } else {
                d.misses += 1;
            }
        }
        d
    }

    #[test]
    fn span_walk_matches_per_line_on_cold_cache() {
        for (sets, assoc) in [(1, 1), (1, 4), (4, 2), (8, 4), (16, 8)] {
            for n in [1u64, 3, 7, 32, 100, 257] {
                let mut a = Cache::new(sets, assoc);
                let mut b = a.clone();
                let want = per_line(&mut a, 5, n);
                assert_eq!(b.span_miss_prefix(5, n), n, "cold span must prove all-miss");
                let got = b.access_span(5, n);
                assert_eq!(got, want, "sets {sets} assoc {assoc} n {n}");
                assert_eq!(a, b, "state diverged: sets {sets} assoc {assoc} n {n}");
            }
        }
    }

    #[test]
    fn span_walk_matches_per_line_on_cyclic_rescan() {
        // Footprint 3x capacity: pass >= 2 re-walks sets full of the
        // previous pass's tags, and the survival predicate must still prove
        // all-miss (every resident is evicted before the scan reaches it).
        let (sets, assoc) = (8u64, 4u64);
        let n = sets * assoc * 3;
        let mut a = Cache::new(sets as usize, assoc as usize);
        let mut b = a.clone();
        for _ in 0..3 {
            let want = per_line(&mut a, 0, n);
            assert_eq!(b.span_miss_prefix(0, n), n, "cyclic over-capacity pass must prove all-miss");
            assert_eq!(b.access_span(0, n), want);
            assert_eq!(a, b);
        }
        assert_eq!(b.stats().hits, 0);
    }

    #[test]
    fn span_walk_matches_per_line_around_hits() {
        // Resident sub-range in the middle of the span forces prove /
        // fallback / re-prove transitions.
        for warm in [(40u64, 8u64), (0, 32), (60, 1), (32, 16)] {
            let mut a = Cache::new(8, 4);
            let mut b = a.clone();
            per_line(&mut a, warm.0, warm.1);
            per_line(&mut b, warm.0, warm.1);
            let want = per_line(&mut a, 0, 96);
            assert_eq!(b.access_span(0, 96), want, "warm {warm:?}");
            assert_eq!(a, b, "warm {warm:?}");
        }
    }

    #[test]
    fn span_prefix_stops_exactly_at_first_hit() {
        // Lines 10..14 resident and recent in a single-set cache: a span
        // from 6 misses 6..10, then hits 10.
        let mut c = Cache::new(1, 8);
        per_line(&mut c, 10, 4);
        assert_eq!(c.span_miss_prefix(6, 20), 4);
        // Deep (near-LRU) residents that the span's own misses would evict
        // before reaching them are not hits: fill 8 ways, then a span that
        // reaches line 10 only after 8 misses proves all-miss through it.
        let mut c = Cache::new(1, 8);
        per_line(&mut c, 10, 1);
        per_line(&mut c, 100, 7); // line 10 is now LRU (p = 7)
        assert_eq!(c.span_miss_prefix(2, 20), 20, "i + p = 9 + 7 > 8: line 10 evicted before reached");
        let mut c = Cache::new(1, 8);
        per_line(&mut c, 100, 7);
        per_line(&mut c, 10, 1); // line 10 is MRU (p = 0)
        assert_eq!(c.span_miss_prefix(2, 20), 20, "i + p = 9 + 0 > 8: line 10 still evicted");
        assert_eq!(c.span_miss_prefix(3, 20), 7, "i + p = 8 + 0 = 8: line 10 survives and hits");
    }

    #[test]
    fn install_span_state_is_exact_for_deep_wraps() {
        // m >> assoc per set: only the last `assoc` installs survive, in
        // recency order, with the head retreated by m mod assoc.
        for n in [1u64, 4, 5, 9, 64, 1000, 1001, 1003] {
            let mut a = Cache::new(4, 4);
            let mut b = a.clone();
            per_line(&mut a, 7, n);
            b.install_span(7, n);
            assert_eq!(a, b, "n = {n}");
        }
    }

    #[test]
    fn hit_span_matches_per_line_after_warmup() {
        // A resident working set rescanned ascending: the hit proof must
        // cover the whole span and the closed-form promote must leave
        // state and counters bit-identical to per-line accesses. Repeat
        // rescans exercise the cyclic fast case in steady state.
        for (sets, assoc) in [(1usize, 1usize), (1, 4), (4, 2), (8, 4), (16, 8)] {
            let cap = (sets * assoc) as u64;
            for n in [1u64, 2, cap / 2 + 1, cap] {
                let n = n.clamp(1, cap);
                let mut a = Cache::new(sets, assoc);
                per_line(&mut a, 5, n);
                let mut b = a.clone();
                for pass in 0..3 {
                    assert_eq!(a.span_hit_prefix(5, n), n, "warm span must prove all-hit (pass {pass})");
                    let want = per_line(&mut a, 5, n);
                    assert_eq!(want.misses, 0);
                    b.promote_span(5, n);
                    assert_eq!(a, b, "sets {sets} assoc {assoc} n {n} pass {pass}");
                }
            }
        }
    }

    #[test]
    fn promote_span_matches_per_line_on_scrambled_recency() {
        // Warm the span, then disturb recency order with extra hits so the
        // cyclic fast case cannot fire everywhere: the per-line hit-arm
        // replica must keep state bit-identical.
        for scramble in [[9u64, 5, 13], [21, 6, 6], [5, 17, 10]] {
            let mut a = Cache::new(8, 4);
            per_line(&mut a, 5, 24);
            for &l in &scramble {
                a.access(l);
            }
            let mut b = a.clone();
            assert_eq!(a.span_hit_prefix(5, 24), 24);
            let want = per_line(&mut a, 5, 24);
            assert_eq!(want.misses, 0, "scramble {scramble:?}");
            b.promote_span(5, 24);
            assert_eq!(a, b, "scramble {scramble:?}");
        }
    }

    #[test]
    fn hit_prefix_stops_exactly_at_first_miss() {
        // Lines 10..14 resident in a single-set cache: a span from 10 of
        // length 8 hits 10..14 then misses 14.
        let mut c = Cache::new(1, 8);
        per_line(&mut c, 10, 4);
        assert_eq!(c.span_hit_prefix(10, 8), 4);
        assert_eq!(c.span_hit_prefix(10, 4), 4);
        assert_eq!(c.span_hit_prefix(10, 3), 3);
        // A hole mid-span bounds the prefix even with later residents.
        let mut c = Cache::new(4, 4);
        per_line(&mut c, 0, 16); // fills every set
        assert_eq!(c.span_hit_prefix(0, 16), 16);
        let mut d = c.clone();
        d.access(100); // evicts LRU of set 0 = line 0
        assert_eq!(d.span_hit_prefix(0, 16), 0);
        let mut d = c.clone();
        d.access(101); // evicts LRU of set 1 = line 1
        assert_eq!(d.span_hit_prefix(0, 16), 1);
        // Nothing resident: prefix is empty.
        assert_eq!(Cache::new(4, 4).span_hit_prefix(0, 12), 0);
    }

    #[test]
    fn hit_prefix_caps_at_capacity() {
        // A span longer than the cache cannot be all-hit past capacity:
        // with the whole cache holding the span's first 16 lines, the
        // prefix is exactly 16 and line 16 would miss.
        let mut c = Cache::new(4, 4);
        per_line(&mut c, 0, 16);
        assert_eq!(c.span_hit_prefix(0, 1000), 16);
        let mut twin = c.clone();
        assert!(c.access(15));
        assert!(!twin.access(16));
    }

    /// Per-line oracle for both proofs: how many leading lines of the
    /// ascending walk over `[first, first + n)` miss (`hit == false`) or
    /// hit (`hit == true`) on a clone of `c`.
    fn leading(c: &Cache, first: u64, n: u64, hit: bool) -> u64 {
        let mut c = c.clone();
        (0..n).take_while(|&i| c.access(first + i) == hit).count() as u64
    }

    proptest! {
        /// Both proofs stop scanning sets once no later set can change
        /// the answer; the answer must stay the per-line oracle's. On top
        /// of an arbitrary warm state, every case checks the states that
        /// exit earliest and latest — the first span line resident, a
        /// resident line only in the last touched set, the whole span
        /// resident but (then) one line — at span lengths around the set
        /// count and of exactly the cache's capacity.
        #[test]
        fn proofs_match_the_per_line_oracle(
            geometry in prop_oneof![Just((1usize, 4usize)), Just((4, 2)), Just((8, 4)), Just((16, 8))],
            warm in proptest::collection::vec((0u64..96, 1u64..80), 0..6),
            first in 0u64..64,
            len in 1u64..200,
            poke in 0u64..300,
        ) {
            let (sets, assoc) = geometry;
            let (nsets, cap) = (sets as u64, (sets * assoc) as u64);
            let mut warmed = Cache::new(sets, assoc);
            for &(f, k) in &warm {
                per_line(&mut warmed, f, k);
            }
            for n in [1, 2, nsets - 1, nsets, nsets + 1, cap - 1, cap, cap + 1, len] {
                if n == 0 {
                    continue;
                }
                let late = first + n.min(nsets) - 1;
                let mut states = vec![warmed.clone(); 6];
                states[1].access(first);
                states[2] = Cache::new(sets, assoc);
                states[2].access(late);
                states[3].access(late);
                per_line(&mut states[4], first, n.min(cap));
                states[5] = states[4].clone();
                states[5].access(first + cap + poke);
                for (i, c) in states.iter().enumerate() {
                    let (miss, hit) = (leading(c, first, n, false), leading(c, first, n, true));
                    prop_assert_eq!(c.span_miss_prefix(first, n), miss, "miss, n {} state {}", n, i);
                    prop_assert_eq!(c.span_hit_prefix(first, n), hit, "hit, n {} state {}", n, i);
                }
            }
        }
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes() {
        // Capacity 32 lines; cyclic scan of 64 distinct lines never hits
        // under LRU.
        let mut c = Cache::new(8, 4);
        for _ in 0..3 {
            for line in 0..64 {
                c.access(line);
            }
        }
        assert_eq!(c.stats().hits, 0);
    }
}
