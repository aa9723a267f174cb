//! The two boolean scans behind the cache span walk.
//!
//! [`crate::cache::Cache::span_absent`] reduces its two hot scans to
//! branch-free arithmetic on its 32-bit tags precisely so they vectorize,
//! eight lanes to a 256-bit vector:
//!
//! * **`any_ge`** — is any element `>= first`? A max reduction, compared
//!   once per chunk. (The tag domain reaches `2^32 − 1`, so the
//!   borrow-sign trick, which needs operands below `2^31`, does not apply.)
//! * **`any_near`** — does any element `t` satisfy
//!   `(t - first) >> shift == 0`, i.e. lie in `[first, first + 2^shift)`
//!   (wrapping)? Zero-detect via `(x - 1) & !x`, whose sign bit is set
//!   only for `x == 0`, OR-reduced over the slice.
//!
//! Each scan has **one body**, compiled twice: once for the target's
//! baseline (SSE2 on x86-64) and, on x86-64, once more under
//! `#[target_feature(enable = "avx2")]`, which the dispatcher picks when
//! the running CPU reports AVX2. Both are max/OR reductions of integers
//! over independent elements — no floating point, no order dependence —
//! so whatever lane width the compiler gives either compilation, the
//! boolean is the same; there is no second implementation to keep equal.
//! The wide compilation stays because the baseline alone is slower on
//! the `tenants` workload and on training set-up (ratios in DESIGN §13).
//!
//! Scans early-exit per 128-element chunk: the common caller streams
//! forward through a cold region, where the very first chunk usually
//! decides the answer, but an L3 window can cover 32 K tag slots.

/// Elements per early-exit chunk.
const CHUNK: usize = 128;

/// True iff any element of `slice` is `>= first`.
#[inline]
pub(crate) fn any_ge(slice: &[u32], first: u32) -> bool {
    #[cfg(target_arch = "x86_64")]
    if let Some(hit) = any_ge_avx2(slice, first) {
        return hit;
    }
    any_ge_baseline(slice, first)
}

/// True iff any element `t` of `slice` satisfies
/// `(t.wrapping_sub(first)) >> shift == 0`, i.e. lies in the widened
/// window `[first, first + 2^shift)`. Requires `shift < 32`.
#[inline]
pub(crate) fn any_near(slice: &[u32], first: u32, shift: u32) -> bool {
    debug_assert!(shift < 32, "shift must leave a non-empty window");
    #[cfg(target_arch = "x86_64")]
    if let Some(hit) = any_near_avx2(slice, first, shift) {
        return hit;
    }
    any_near_baseline(slice, first, shift)
}

/// The body of [`any_ge`], inlined into each of its compilations.
#[inline(always)]
fn any_ge_baseline(slice: &[u32], first: u32) -> bool {
    slice.chunks(CHUNK).any(|chunk| {
        let mut max = 0u32;
        for &m in chunk {
            max = max.max(m);
        }
        max >= first
    })
}

/// The body of [`any_near`], inlined into each of its compilations.
#[inline(always)]
fn any_near_baseline(slice: &[u32], first: u32, shift: u32) -> bool {
    slice.chunks(CHUNK).any(|chunk| {
        let mut zero_signs = 0u32;
        for &t in chunk {
            let x = t.wrapping_sub(first) >> shift;
            zero_signs |= x.wrapping_sub(1) & !x;
        }
        zero_signs >> 31 != 0
    })
}

/// [`any_ge_baseline`] compiled for AVX2; `None` where the running CPU
/// does not report the feature.
#[cfg(target_arch = "x86_64")]
#[inline]
fn any_ge_avx2(slice: &[u32], first: u32) -> Option<bool> {
    #[target_feature(enable = "avx2")]
    fn wide(slice: &[u32], first: u32) -> bool {
        any_ge_baseline(slice, first)
    }
    // SAFETY: `wide` needs AVX2 and runs only once `is_x86_feature_detected!` reports it.
    std::arch::is_x86_feature_detected!("avx2").then(|| unsafe { wide(slice, first) })
}

/// [`any_near_baseline`] compiled for AVX2; `None` where the running CPU
/// does not report the feature.
#[cfg(target_arch = "x86_64")]
#[inline]
fn any_near_avx2(slice: &[u32], first: u32, shift: u32) -> Option<bool> {
    #[target_feature(enable = "avx2")]
    fn wide(slice: &[u32], first: u32, shift: u32) -> bool {
        any_near_baseline(slice, first, shift)
    }
    // SAFETY: `wide` needs AVX2 and runs only once `is_x86_feature_detected!` reports it.
    std::arch::is_x86_feature_detected!("avx2").then(|| unsafe { wide(slice, first, shift) })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain-definition oracles: the predicate each scan encodes.
    fn oracle_ge(slice: &[u32], first: u32) -> bool {
        slice.iter().any(|&m| m >= first)
    }

    fn oracle_near(slice: &[u32], first: u32, shift: u32) -> bool {
        slice.iter().any(|&t| t.wrapping_sub(first) >> shift == 0)
    }

    /// Deterministic pseudo-random u32s (splitmix64, high half).
    fn rand_vec(seed: u64, len: usize, mask: u32) -> Vec<u32> {
        let mut z = seed;
        (0..len)
            .map(|_| {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((x ^ (x >> 31)) >> 32) as u32 & mask
            })
            .collect()
    }

    /// Every compilation of a scan and the dispatcher must equal its
    /// oracle on `v`.
    fn check(v: &[u32], first: u32, shift: u32) {
        let (ge, near) = (oracle_ge(v, first), oracle_near(v, first, shift));
        assert_eq!(any_ge_baseline(v, first), ge, "ge baseline, first {first:#x}, len {}", v.len());
        assert_eq!(any_near_baseline(v, first, shift), near, "near baseline, first {first:#x}, len {}", v.len());
        // The AVX2 compilation directly, wherever the host has it.
        #[cfg(target_arch = "x86_64")]
        {
            assert!(any_ge_avx2(v, first).is_none_or(|hit| hit == ge), "ge avx2, len {}", v.len());
            assert!(any_near_avx2(v, first, shift).is_none_or(|hit| hit == near), "near avx2, len {}", v.len());
        }
        assert_eq!(any_ge(v, first), ge, "ge dispatch, len {}", v.len());
        assert_eq!(any_near(v, first, shift), near, "near dispatch, len {}", v.len());
    }

    /// Random slices of many lengths (around the 8-lane and 128-chunk
    /// edges), values on both sides of `first`, the full 32-bit range
    /// (tags reach `2^32 − 2`), and the INVALID (u32::MAX) marker real tag
    /// arrays contain.
    #[test]
    fn all_paths_agree_with_the_oracle() {
        for len in [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 127, 128, 129, 255, 256, 1000] {
            for seed in [1u64, 42, 9999] {
                // Values clustered near `first` so both outcomes occur.
                check(&rand_vec(seed, len, 0xFFFF), 0x8000, 4);
            }
            // Full-range values: above and below 2^31 on both sides.
            check(&rand_vec(7 + len as u64, len, u32::MAX), 1 << 31, 20);
            check(&rand_vec(8 + len as u64, len, u32::MAX), u32::MAX - 2, 1);
            // INVALID markers mixed in, as cold tag arrays have.
            let mut v = rand_vec(len as u64 + 13, len, 0xFFF);
            v.iter_mut().step_by(3).for_each(|slot| *slot = u32::MAX);
            check(&v, 0x800, 8);
        }
        // Exact-boundary probes: first-1, first, first + 2^shift - 1,
        // first + 2^shift; and windows that wrap past the top.
        for val in [0x7FFu32, 0x800, 0x8FF, 0x900] {
            check(&[val; 5], 0x800, 8);
        }
        for val in [0u32, 3, u32::MAX - 1, u32::MAX] {
            check(&[val; 9], u32::MAX - 1, 2);
        }
    }

    /// A lone match in any lane of any vector, in any chunk — the last
    /// lane of a slice, of a vector and of a chunk included — must be
    /// found, and a slice with no match must not report one. Every
    /// position of slices up to two chunks long plus one.
    #[test]
    fn a_match_in_any_lane_is_found() {
        for len in [1usize, 7, 8, 9, 16, 33, 127, 128, 129, 257] {
            for pos in 0..len {
                // Every other element far below `first` (and, for
                // `any_near`, wrapping far outside the window).
                let mut v = vec![5u32; len];
                v[pos] = 0x9000_0000; // the one element >= first, above 2^31
                check(&v, 0x8000_0000, 4);
                assert!(any_ge(&v, 0x8000_0000), "ge match at {pos} of {len} missed");
                let mut w = vec![u32::MAX - 7; len];
                w[pos] = 0x4002; // inside [0x4000, 0x4000 + 2^4)
                check(&w, 0x4000, 4);
                assert!(any_near(&w, 0x4000, 4), "near match at {pos} of {len} missed");
            }
            assert!(!any_ge(&vec![5u32; len], 6));
            assert!(!any_near(&vec![u32::MAX - 7; len], 0x4000, 4));
        }
        assert!(!any_ge(&[], 5));
        assert!(!any_near(&[], 5, 3));
    }
}
