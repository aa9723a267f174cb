//! The two boolean scans behind the cache span walk.
//!
//! [`crate::cache::Cache::span_absent`] reduces its two hot scans to
//! branch-free `u64` arithmetic precisely so they vectorize:
//!
//! * **`any_ge`** — is any element `>= first`? Since every tag and bound
//!   is `< 2^63` (a byte address divided by the line size), `m >= first`
//!   iff `m.wrapping_sub(first)` does not borrow, i.e. its sign bit is
//!   clear. AND-reducing the raw differences and testing the accumulated
//!   sign bit answers the question with one subtract and one AND per
//!   element.
//! * **`any_near`** — does any element `t` satisfy
//!   `(t - first) >> shift == 0`, i.e. lie in `[first, first + 2^shift)`?
//!   Zero-detect via `(x - 1) & !x`, whose sign bit is set only for
//!   `x == 0`, OR-reduced over the slice.
//!
//! Each scan has **one body**, compiled twice: once for the target's
//! baseline (SSE2 on x86-64) and, on x86-64, once more under
//! `#[target_feature(enable = "avx2")]`, which the dispatcher picks when
//! the running CPU reports AVX2. Both are AND/OR reductions of integers
//! over independent elements — no floating point, no order dependence —
//! so whatever lane width the compiler gives either compilation, the
//! boolean is the same; there is no second implementation to keep equal.
//! The wide compilation stays because the baseline alone is slower on
//! the `tenants` workload and on training set-up (ratios in DESIGN §13.2).
//!
//! Scans early-exit per 128-element chunk: the common caller streams
//! forward through a cold region, where the very first chunk usually
//! decides the answer, but an L3 window can cover 32 K tag slots.

/// Elements per early-exit chunk.
const CHUNK: usize = 128;

/// True iff any element of `slice` is `>= first`, assuming every element
/// and `first` are below `2^63` (as all line numbers and set bounds are).
#[inline]
pub(crate) fn any_ge(slice: &[u64], first: u64) -> bool {
    #[cfg(target_arch = "x86_64")]
    if let Some(hit) = any_ge_avx2(slice, first) {
        return hit;
    }
    any_ge_baseline(slice, first)
}

/// True iff any element `t` of `slice` satisfies
/// `(t.wrapping_sub(first)) >> shift == 0`, i.e. lies in the widened
/// window `[first, first + 2^shift)`. Requires `shift < 64`.
#[inline]
pub(crate) fn any_near(slice: &[u64], first: u64, shift: u32) -> bool {
    debug_assert!(shift < 64, "shift must leave a non-empty window");
    #[cfg(target_arch = "x86_64")]
    if let Some(hit) = any_near_avx2(slice, first, shift) {
        return hit;
    }
    any_near_baseline(slice, first, shift)
}

/// The body of [`any_ge`], inlined into each of its compilations.
#[inline(always)]
fn any_ge_baseline(slice: &[u64], first: u64) -> bool {
    slice.chunks(CHUNK).any(|chunk| {
        let mut signs = u64::MAX;
        for &m in chunk {
            signs &= m.wrapping_sub(first);
        }
        signs >> 63 == 0
    })
}

/// The body of [`any_near`], inlined into each of its compilations.
#[inline(always)]
fn any_near_baseline(slice: &[u64], first: u64, shift: u32) -> bool {
    slice.chunks(CHUNK).any(|chunk| {
        let mut zero_signs = 0u64;
        for &t in chunk {
            let x = t.wrapping_sub(first) >> shift;
            zero_signs |= x.wrapping_sub(1) & !x;
        }
        zero_signs >> 63 != 0
    })
}

/// [`any_ge_baseline`] compiled for AVX2; `None` where the running CPU
/// does not report the feature.
#[cfg(target_arch = "x86_64")]
#[inline]
fn any_ge_avx2(slice: &[u64], first: u64) -> Option<bool> {
    #[target_feature(enable = "avx2")]
    fn wide(slice: &[u64], first: u64) -> bool {
        any_ge_baseline(slice, first)
    }
    // SAFETY: `wide` needs AVX2 and runs only once `is_x86_feature_detected!` reports it.
    std::arch::is_x86_feature_detected!("avx2").then(|| unsafe { wide(slice, first) })
}

/// [`any_near_baseline`] compiled for AVX2; `None` where the running CPU
/// does not report the feature.
#[cfg(target_arch = "x86_64")]
#[inline]
fn any_near_avx2(slice: &[u64], first: u64, shift: u32) -> Option<bool> {
    #[target_feature(enable = "avx2")]
    fn wide(slice: &[u64], first: u64, shift: u32) -> bool {
        any_near_baseline(slice, first, shift)
    }
    // SAFETY: `wide` needs AVX2 and runs only once `is_x86_feature_detected!` reports it.
    std::arch::is_x86_feature_detected!("avx2").then(|| unsafe { wide(slice, first, shift) })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain-definition oracle: the predicate each formulation encodes.
    fn oracle_ge(slice: &[u64], first: u64) -> bool {
        // The borrow-sign trick assumes operands below 2^63; the oracle
        // mirrors that domain by comparing the wrapped difference's sign.
        slice.iter().any(|&m| m.wrapping_sub(first) >> 63 == 0)
    }

    fn oracle_near(slice: &[u64], first: u64, shift: u32) -> bool {
        slice.iter().any(|&t| t.wrapping_sub(first) >> shift == 0)
    }

    /// Deterministic pseudo-random u64s (splitmix64).
    fn rand_vec(seed: u64, len: usize, mask: u64) -> Vec<u64> {
        let mut z = seed;
        (0..len)
            .map(|_| {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (x ^ (x >> 31)) & mask
            })
            .collect()
    }

    /// Every compilation of each body, and the dispatcher, against the
    /// oracle: random slices of many lengths (around the 4-lane and
    /// 128-chunk edges), boundary values, and the INVALID (u64::MAX)
    /// marker real tag arrays contain.
    #[test]
    fn all_paths_agree_with_scalar_and_oracle() {
        let mut cases: Vec<(Vec<u64>, u64, u32)> = Vec::new();
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 127, 128, 129, 255, 256, 1000] {
            for seed in [1u64, 42, 9999] {
                // Values clustered near `first` so both outcomes occur.
                let v = rand_vec(seed, len, 0xFFFF);
                cases.push((v, 0x8000, 4));
            }
            // Full-range values including the sign-bit domain edge.
            cases.push((rand_vec(7 + len as u64, len, u64::MAX >> 1), 1 << 62, 40));
            // INVALID markers (u64::MAX) mixed in, as cold tag arrays have.
            let mut v = rand_vec(len as u64 + 13, len, 0xFFF);
            for (i, slot) in v.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *slot = u64::MAX;
                }
            }
            cases.push((v, 0x800, 8));
        }
        // Exact-boundary probes: first-1, first, first + 2^shift - 1,
        // first + 2^shift.
        for val in [0x7FFu64, 0x800, 0x8FF, 0x900] {
            cases.push((vec![val; 5], 0x800, 8));
        }
        for (v, first, shift) in &cases {
            let (v, first, shift) = (v.as_slice(), *first, *shift);
            let (ge, near) = (oracle_ge(v, first), oracle_near(v, first, shift));
            assert_eq!(any_ge_baseline(v, first), ge, "ge baseline vs oracle");
            assert_eq!(any_near_baseline(v, first, shift), near, "near baseline vs oracle");
            // The AVX2 compilation directly, wherever the host has it.
            #[cfg(target_arch = "x86_64")]
            {
                assert!(any_ge_avx2(v, first).is_none_or(|hit| hit == ge), "ge avx2 vs oracle");
                assert!(any_near_avx2(v, first, shift).is_none_or(|hit| hit == near), "near avx2 vs oracle");
            }
            // Dispatcher (whichever compilation the host picked).
            assert_eq!(any_ge(v, first), ge, "ge dispatch vs oracle");
            assert_eq!(any_near(v, first, shift), near, "near dispatch vs oracle");
        }
    }

    /// The chunked early-exit must not change the answer: a matching
    /// element is found no matter which chunk it sits in.
    #[test]
    fn chunk_boundaries_do_not_lose_matches() {
        for pos in [0usize, 1, 63, 127, 128, 129, 300, 511] {
            let mut v = vec![5u64; 512]; // all far below `first`
            v[pos] = 0x4000; // the single element >= first
            assert!(any_ge(&v, 0x4000), "match at {pos} missed");
            assert!(any_ge_baseline(&v, 0x4000));
            #[cfg(target_arch = "x86_64")]
            assert_ne!(any_ge_avx2(&v, 0x4000), Some(false), "avx2 match at {pos} missed");
            let mut w = vec![u64::MAX - 7; 512]; // wraps far outside window
            w[pos] = 0x4002; // inside [0x4000, 0x4000 + 2^4)
            assert!(any_near(&w, 0x4000, 4), "near match at {pos} missed");
            assert!(any_near_baseline(&w, 0x4000, 4));
            #[cfg(target_arch = "x86_64")]
            assert_ne!(any_near_avx2(&w, 0x4000, 4), Some(false), "avx2 near match at {pos} missed");
        }
        assert!(!any_ge(&[], 5));
        assert!(!any_near(&[], 5, 3));
    }
}
