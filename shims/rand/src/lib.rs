//! Offline stand-in for the `rand` crate.
//!
//! The build container has no crates.io access, so the workspace vendors
//! the *subset* of `rand 0.8` the simulator actually uses: a seedable,
//! cloneable [`rngs::StdRng`], [`Rng::gen_range`] over integer ranges,
//! its precomputed form [`distributions::Uniform`], and
//! [`seq::SliceRandom::shuffle`]. The generator is xoshiro256++
//! seeded through SplitMix64 — statistically strong, deterministic, and
//! stable across platforms, which is all the deterministic simulation
//! contract requires (DESIGN.md §7). Swap this path dependency back to
//! crates.io `rand` on a networked machine and everything still compiles;
//! the concrete pseudo-random streams (not their distributions) differ.

#![warn(missing_docs)]

/// Seedable random-number generators.
pub trait SeedableRng: Sized {
    /// Build a generator whose entire stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Uniform sampling from a range, the only `Rng` surface DR-BW uses.
pub trait Rng {
    /// The generator's native 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// A uniform sample from `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }
}

/// Ranges that can be sampled uniformly. Implemented for the integer
/// `Range`/`RangeInclusive` types the simulator draws from.
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> T;
}

/// Debiased uniform draw in `[0, n)` by rejection (Lemire's method needs
/// 128-bit widening; plain rejection is simpler and branch-predictable
/// for the small moduli used here).
fn uniform_below<G: Rng + ?Sized>(rng: &mut G, n: u64) -> u64 {
    debug_assert!(n > 0);
    if n.is_power_of_two() {
        return rng.next_u64() & (n - 1);
    }
    let zone = u64::MAX - (u64::MAX % n);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % n;
        }
    }
}

/// Distributions: [`distributions::Uniform`], the precomputed form of
/// [`Rng::gen_range`] for a range drawn from many times.
pub mod distributions {
    use super::Rng;

    /// Types that can be sampled from.
    pub trait Distribution<T> {
        /// Draw one sample.
        fn sample<G: Rng + ?Sized>(&self, rng: &mut G) -> T;
    }

    /// A uniform distribution over `[low, high)`, with the rejection zone
    /// and the reduction's reciprocal computed once: each
    /// [`Distribution::sample`] consumes the same draws and returns the
    /// same value as `rng.gen_range(low..high)`, with no division. Only
    /// `Uniform<u64>` is implemented: the one type the workspace draws.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Uniform<T> {
        low: T,
        /// `high - low`.
        span: u64,
        /// Draws at or above this are rejected; `0` marks a power-of-two
        /// span, which masks and never rejects.
        zone: u64,
        /// `⌈2^128 / span⌉`: `v mod span` is the high 128 bits of
        /// `(recip · v mod 2^128) · span` for every 64-bit `v` (Lemire,
        /// Kaser and Kurz, "Faster remainder by direct computation", with
        /// 128 fraction bits ≥ 64 numerator bits + 64 divisor bits).
        recip: u128,
    }

    impl Uniform<u64> {
        /// The uniform distribution over `[low, high)`.
        ///
        /// # Panics
        /// Panics if the range is empty.
        pub fn new(low: u64, high: u64) -> Self {
            assert!(low < high, "Uniform::new called with `low >= high`");
            let span = high - low;
            if span.is_power_of_two() {
                return Self { low, span, zone: 0, recip: 0 };
            }
            // The same zone `uniform_below` computes per draw. `span` is
            // not a power of two, so it does not divide 2^128 and the
            // ceiling is the floor of `(2^128 - 1) / span`, plus one.
            Self { low, span, zone: u64::MAX - (u64::MAX % span), recip: u128::MAX / span as u128 + 1 }
        }

        /// A draw in `[0, span)`, bit-identical to `uniform_below`.
        #[inline]
        fn below<G: Rng + ?Sized>(&self, rng: &mut G) -> u64 {
            if self.zone == 0 {
                return rng.next_u64() & (self.span - 1);
            }
            loop {
                let v = rng.next_u64();
                if v < self.zone {
                    return self.reduce(v);
                }
            }
        }

        /// `v % span` by the reciprocal.
        #[inline]
        fn reduce(&self, v: u64) -> u64 {
            let frac = self.recip.wrapping_mul(v as u128);
            let n = self.span as u128;
            let hi = (frac >> 64) * n;
            let lo = (frac as u64 as u128) * n;
            // Neither sum overflows: hi <= (2^64 - 1)^2 and lo >> 64 < 2^64.
            ((hi + (lo >> 64)) >> 64) as u64
        }
    }

    impl Distribution<u64> for Uniform<u64> {
        #[inline]
        fn sample<G: Rng + ?Sized>(&self, rng: &mut G) -> u64 {
            self.low + self.below(rng)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::Uniform;
        use crate::rngs::StdRng;
        use crate::{Rng, SeedableRng};

        /// The reciprocal reduction is `%`: on random numerators below the
        /// rejection zone, at the zone's edges, and at `u64::MAX`.
        #[test]
        fn uniform_reduction_is_exact_at_the_edges() {
            for n in [3u64, 7, 10, 1000, (1 << 32) - 1, (1 << 32) + 1, (1 << 63) + 1, u64::MAX - 1, u64::MAX] {
                let u = Uniform::new(0, n);
                let mut rng = StdRng::seed_from_u64(n);
                let edges = [0, 1, n - 1, n, n.wrapping_add(1), u.zone - 1, u.zone / 2, u64::MAX / n * n - 1, u64::MAX];
                for v in edges.into_iter().chain((0..10_000).map(|_| rng.next_u64() % u.zone)) {
                    assert_eq!(u.reduce(v), v % n, "{v} mod {n}");
                }
            }
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return start + rng.next_u64() as $t;
                }
                start + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        // 53 mantissa bits of uniformity in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard seeded generator: xoshiro256++ with a
    /// SplitMix64-expanded seed (the xoshiro authors' recommended
    /// seeding). Deterministic, cloneable, platform-independent.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            Self { s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)] }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::Rng;

    /// Slice shuffling (the only `seq` API the workspace uses).
    pub trait SliceRandom {
        /// Uniform in-place Fisher–Yates shuffle.
        fn shuffle<G: Rng + ?Sized>(&mut self, rng: &mut G);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<G: Rng + ?Sized>(&mut self, rng: &mut G) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn clone_preserves_state() {
        let mut a = StdRng::seed_from_u64(7);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v: usize = rng.gen_range(0..10usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..10 hit in 1000 draws");
        for _ in 0..1000 {
            let v = rng.gen_range(5u64..=6);
            assert!((5..=6).contains(&v));
            let f = rng.gen_range(2.0f64..3.0);
            assert!((2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn range_distribution_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.gen_range(0..7u64) as usize] += 1;
        }
        for &c in &counts {
            assert!((9000..11000).contains(&c), "bucket count {c} far from 10000");
        }
    }

    #[test]
    fn shuffle_permutes_deterministically() {
        let orig: Vec<u32> = (0..50).collect();
        let mut a = orig.clone();
        let mut b = orig.clone();
        a.shuffle(&mut StdRng::seed_from_u64(5));
        b.shuffle(&mut StdRng::seed_from_u64(5));
        assert_eq!(a, b, "same seed, same permutation");
        assert_ne!(a, orig, "50 elements virtually never shuffle to identity");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle is a permutation");
    }

    /// A `Uniform` consumes the same draws and returns the same values as
    /// `gen_range` over the same range: powers of two (masked), odd and
    /// even spans, spans near 2^32 and near 2^64 (whose rejection zones
    /// reject often), over many seeds.
    #[test]
    fn uniform_matches_gen_range_bit_for_bit() {
        use super::distributions::{Distribution, Uniform};
        let spans = [
            1u64,
            2,
            3,
            5,
            6,
            7,
            64,
            100,
            1000,
            4095,
            4096,
            65_537,
            (1 << 31) - 1,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            (1 << 32) + 12_345,
            (1 << 63) - 1,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &n in &spans {
            let uniform = Uniform::new(0, n);
            for seed in 0..40 {
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                for _ in 0..200 {
                    assert_eq!(uniform.sample(&mut a), b.gen_range(0..n), "span {n}, seed {seed}");
                }
                assert_eq!(a.next_u64(), b.next_u64(), "span {n}, seed {seed}: draws consumed differ");
            }
        }
        // An offset range.
        let (mut a, mut b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        let offset = Uniform::new(17, 1017);
        for _ in 0..1000 {
            assert_eq!(offset.sample(&mut a), b.gen_range(17u64..1017));
        }
    }

    #[test]
    #[should_panic(expected = "low >= high")]
    fn uniform_rejects_an_empty_range() {
        super::distributions::Uniform::new(4u64, 4);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _: u64 = rng.gen_range(5..5u64);
    }
}
