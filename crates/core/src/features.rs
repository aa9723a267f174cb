//! Performance features (§V.B, Table I).
//!
//! From a batch of memory samples (one interconnect channel's batch), DR-BW
//! derives statistics in three categories — identification, location, and
//! latency — into a **candidate list**, from which 13 features were
//! selected because they separate `good` from `rmc` runs across the
//! mini-programs. Table I:
//!
//! | #  | description                                       |
//! |----|---------------------------------------------------|
//! | 1  | ratio of latency above 1000 among all samples     |
//! | 2  | ratio of latency above 500                        |
//! | 3  | ratio of latency above 200                        |
//! | 4  | ratio of latency above 100                        |
//! | 5  | ratio of latency above 50                         |
//! | 6  | # of remote-DRAM access samples                   |
//! | 7  | average remote-DRAM access latency                |
//! | 8  | # of local-DRAM access samples                    |
//! | 9  | average local-DRAM access latency                 |
//! | 10 | total # of memory-access samples                  |
//! | 11 | average memory-access latency                     |
//! | 12 | total # of line-fill-buffer access samples        |
//! | 13 | line-fill-buffer access latency                   |
//!
//! **Normalisation.** The paper normalises feature values before
//! thresholding in its tree (Fig. 3). Here the per-source count features
//! (6, 8, 12) are reported per 1000 samples of the batch — i.e. the
//! *composition* of the channel's traffic — which makes them independent
//! of run length and of how many threads happen to stream (an
//! uncontended 64-thread streaming run and a contended one have similar
//! LFB/DRAM *fractions*; what differs is the remote share and its
//! latency). The total-sample feature (10) is a rate per million
//! simulated cycles, average-latency features are plain cycle values, and
//! ratio features are in `[0, 1]`.

//!
//! **Batch/stream equivalence.** [`selected_features`] is implemented as
//! "feed every sample into a [`FeatureAccumulator`], then
//! [`FeatureAccumulator::finalize`]". The accumulator is *mergeable* and
//! its latency sums are kept in an order-independent fixed-point form
//! ([`ExactSum`]), so splitting a batch at any point, accumulating the
//! parts separately, and merging yields the **bit-identical** feature
//! vector — the property the streaming detector's tumbling/sliding
//! windows (`drbw-stream`) are built on.

use numasim::hierarchy::DataSource;
use pebs::sample::MemSample;

/// Number of selected features (Table I).
pub const NUM_SELECTED: usize = 13;

/// Table I indices (0-based) of the two features the paper's learned tree
/// actually uses: #6 (remote-DRAM sample count) and #7 (average remote
/// latency).
pub const REMOTE_COUNT: usize = 5;
/// See [`REMOTE_COUNT`].
pub const REMOTE_LATENCY: usize = 6;

/// Context needed to normalise count features.
#[derive(Debug, Clone, Copy)]
pub struct FeatureCtx {
    /// Total simulated cycles of the profiled execution.
    pub duration_cycles: f64,
}

impl FeatureCtx {
    /// Rate per million cycles.
    fn rate(&self, count: usize) -> f64 {
        count as f64 / (self.duration_cycles / 1e6)
    }
}

/// Per-mille of the batch: `1000 * count / total` (0 for an empty batch).
fn per_mille(count: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        1000.0 * count as f64 / total as f64
    }
}

/// Names of the 13 selected features, Table I order. `'static` — callers
/// that need owned strings (dataset construction) convert at the edge;
/// hot paths (benchmark headers, per-window reporting) borrow.
pub fn selected_names() -> [&'static str; NUM_SELECTED] {
    [
        "ratio_latency_gt_1000",
        "ratio_latency_gt_500",
        "ratio_latency_gt_200",
        "ratio_latency_gt_100",
        "ratio_latency_gt_50",
        "num_remote_dram_samples",
        "avg_remote_dram_latency",
        "num_local_dram_samples",
        "avg_local_dram_latency",
        "num_total_samples",
        "avg_latency",
        "num_lfb_samples",
        "avg_lfb_latency",
    ]
}

fn avg(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The latency thresholds of Table I features 1–5, in feature order.
pub const LATENCY_THRESHOLDS: [f64; 5] = [1000.0, 500.0, 200.0, 100.0, 50.0];

/// Fractional bits of [`ExactSum`]'s fixed-point representation.
const EXACT_FRAC_BITS: u32 = 75;
/// 2⁷⁵ as an `f64` (exact: powers of two are representable).
const EXACT_SCALE: f64 = (1u128 << EXACT_FRAC_BITS) as f64;

/// One value in [`ExactSum`] units: `(x * 2⁷⁵).round()` as an `i128`.
///
/// A positive normal `x` with unbiased exponent `e` in [−23, 51] is
/// `m · 2^(e−52)` for the 53-bit integer `m = mantissa | 1 << 52`, so
/// `x · 2⁷⁵ = m << (e + 23)` is an integer below 2¹²⁷: the scale, the
/// `round` and the cast are all exact and a 128-bit shift computes the
/// same bits with no libm `round` and no compiler-rt `__fixdfti` call.
/// Every latency the simulator produces lands there. Everything else
/// (±0, negatives — the sign bit lands in `biased` —, subnormals, values
/// with sub-unit bits, 2⁵² and up, non-finite) takes the rounding path.
#[inline]
fn to_units(x: f64) -> i128 {
    let bits = x.to_bits();
    let biased = (bits >> 52) as u32;
    let shift = biased.wrapping_sub(1023 - 23);
    if shift <= 51 + 23 {
        (((bits & ((1 << 52) - 1)) | (1 << 52)) as i128) << shift
    } else {
        (x * EXACT_SCALE).round() as i128
    }
}

/// An order-independent, mergeable sum of latencies.
///
/// Values are converted **once, per observation**, to a signed 128-bit
/// fixed-point integer in units of 2⁻⁷⁵ and summed with integer addition,
/// which is associative and commutative. Two accumulators built over the
/// two halves of a stream therefore merge to the *bit-identical* state an
/// accumulator fed the whole stream reaches — the property that lets
/// windowed streaming feature extraction reproduce batch extraction
/// exactly, for any window split.
///
/// The conversion is exact for values whose lowest mantissa bit is at
/// 2⁻⁷⁵ or above — every latency the simulator can produce (|x| in
/// [2⁻²³, 2⁵²] is always exact) — and faithfully rounded to the nearest
/// unit otherwise, identically on every path. The i128 saturates at
/// roughly 4.5 × 10¹⁵ cycle-units of accumulated latency, far beyond any
/// window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactSum {
    units: i128,
}

impl ExactSum {
    /// The empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one value.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "latency sums are over finite values");
        self.add_units(to_units(x));
    }

    fn add_units(&mut self, units: i128) {
        self.units = self.units.saturating_add(units);
    }

    /// Add a whole slice: the same sum as pushing the elements one at a
    /// time, in any order (integer addition).
    pub fn push_slice(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Fold another sum into this one (exact: integer addition).
    pub fn merge(&mut self, other: &ExactSum) {
        self.units = self.units.saturating_add(other.units);
    }

    /// The sum as an `f64` (one rounding, at the very end).
    pub fn value(&self) -> f64 {
        self.units as f64 / EXACT_SCALE
    }
}

/// Per-source running state: a count and an exact latency sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SourceAccum {
    n: usize,
    lat: ExactSum,
}

impl SourceAccum {
    fn add(&mut self, units: i128) {
        self.n += 1;
        self.lat.add_units(units);
    }

    fn merge(&mut self, other: &SourceAccum) {
        self.n += other.n;
        self.lat.merge(&other.lat);
    }
}

/// Slots of [`FeatureAccumulator`]'s per-source partials.
const REMOTE: usize = 0;
const LOCAL: usize = 1;
const LFB: usize = 2;
/// Every other source (cache hits): counted in the totals only.
const OTHER: usize = 3;

/// Incremental, mergeable state from which the 13 Table I features are
/// produced.
///
/// Feed samples with [`FeatureAccumulator::push`]; combine accumulators
/// built over disjoint sub-streams with [`FeatureAccumulator::merge`];
/// produce the feature vector with [`FeatureAccumulator::finalize`].
/// Counts are integers and latency sums are [`ExactSum`]s, so any
/// push/merge schedule that covers each sample exactly once reaches the
/// same state (`==`) and finalizes to the bit-identical vector
/// [`selected_features`] computes over the whole batch.
///
/// A sample lands in the partial of its source only — one count and one
/// 128-bit addition — and the total count and latency sum are the four
/// partials added up when read: integer addition, and for the non-negative
/// latencies a machine produces the saturating sums are exact too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeatureAccumulator {
    above: [usize; 5],
    sources: [SourceAccum; 4],
}

impl FeatureAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate a whole batch (the batch pipeline's path).
    pub fn from_batch(batch: &[MemSample]) -> Self {
        let mut acc = Self::new();
        for s in batch {
            acc.push(s);
        }
        acc
    }

    /// Ingest one sample.
    pub fn push(&mut self, s: &MemSample) {
        self.push_latency(s.latency, s.source);
    }

    /// Ingest one sample given as its latency and data source (the
    /// columnar block path, which has no [`MemSample`] to hand).
    #[inline]
    pub fn push_latency(&mut self, latency: f64, source: DataSource) {
        debug_assert!(latency.is_finite(), "latency sums are over finite values");
        for (count, &t) in self.above.iter_mut().zip(&LATENCY_THRESHOLDS) {
            *count += (latency > t) as usize;
        }
        let slot = match source {
            DataSource::RemoteDram => REMOTE,
            DataSource::LocalDram => LOCAL,
            DataSource::Lfb => LFB,
            _ => OTHER,
        };
        self.sources[slot].add(to_units(latency));
    }

    /// Ingest a batch of samples given as parallel lanes: `lats[i]` and
    /// `srcs[i]` describe sample `i` of a columnar
    /// [`pebs::block::SampleBlock`] segment — the same state (`==`) as
    /// pushing them one by one, which is what it does.
    ///
    /// # Panics
    /// Panics if the lanes disagree in length.
    pub fn push_lanes(&mut self, lats: &[f64], srcs: &[DataSource]) {
        assert_eq!(lats.len(), srcs.len(), "lane lengths must agree");
        for (&l, &src) in lats.iter().zip(srcs) {
            self.push_latency(l, src);
        }
    }

    /// Fold an accumulator built over a disjoint sub-stream into this one.
    pub fn merge(&mut self, other: &FeatureAccumulator) {
        for (a, b) in self.above.iter_mut().zip(other.above) {
            *a += b;
        }
        for (a, b) in self.sources.iter_mut().zip(&other.sources) {
            a.merge(b);
        }
    }

    /// Samples accumulated so far.
    pub fn count(&self) -> usize {
        self.sources.iter().map(|s| s.n).sum()
    }

    /// Remote-DRAM samples accumulated so far (the count behind Table I
    /// feature #6 before per-mille normalisation).
    pub fn remote_dram_count(&self) -> usize {
        self.sources[REMOTE].n
    }

    /// The latency sum over every source.
    fn latency_sum(&self) -> ExactSum {
        let mut sum = ExactSum::new();
        self.sources.iter().for_each(|s| sum.merge(&s.lat));
        sum
    }

    /// Produce the 13 selected features (Table I order).
    ///
    /// # Panics
    /// Panics if `ctx.duration_cycles <= 0`.
    pub fn finalize(&self, ctx: &FeatureCtx) -> [f64; NUM_SELECTED] {
        assert!(ctx.duration_cycles > 0.0, "profile duration must be positive");
        let total = self.count();
        let ratio = |c: usize| if total == 0 { 0.0 } else { c as f64 / total as f64 };
        let [remote, local, lfb, _] = &self.sources;
        [
            ratio(self.above[0]),
            ratio(self.above[1]),
            ratio(self.above[2]),
            ratio(self.above[3]),
            ratio(self.above[4]),
            per_mille(remote.n, total),
            avg(remote.lat.value(), remote.n),
            per_mille(local.n, total),
            avg(local.lat.value(), local.n),
            ctx.rate(total),
            avg(self.latency_sum().value(), total),
            per_mille(lfb.n, total),
            avg(lfb.lat.value(), lfb.n),
        ]
    }
}

/// Compute the 13 selected features over a sample batch.
///
/// Implemented via [`FeatureAccumulator`], so a windowed/streaming
/// extraction that covers the same samples produces the bit-identical
/// vector (see the module docs).
///
/// # Panics
/// Panics if `ctx.duration_cycles <= 0`.
pub fn selected_features(batch: &[MemSample], ctx: &FeatureCtx) -> [f64; NUM_SELECTED] {
    FeatureAccumulator::from_batch(batch).finalize(ctx)
}

/// Names of the full candidate list: the 13 selected features plus the
/// rest of the statistics categories of §V.B (per-level hit rates, write
/// fraction, remote fraction, CPU spread, and the raw
/// `MEM_LOAD_UOPS_LLC_MISS_RETIRED.REMOTE_DRAM`-style unnormalised remote
/// count the paper calls out as *not* discriminative).
pub fn candidate_names() -> Vec<&'static str> {
    let mut names = selected_names().to_vec();
    names.extend([
        "num_l1_hit_samples",
        "num_l2_hit_samples",
        "num_l3_hit_samples",
        "num_l3_miss_samples",
        "write_sample_fraction",
        "remote_fraction_of_dram",
        "num_distinct_cpus",
        "raw_remote_dram_count",
    ]);
    names
}

/// Indices of the selected features within the candidate vector
/// (they come first).
pub fn selected_indices() -> Vec<usize> {
    (0..NUM_SELECTED).collect()
}

/// Compute the full candidate vector.
pub fn candidate_features(batch: &[MemSample], ctx: &FeatureCtx) -> Vec<f64> {
    let mut out = selected_features(batch, ctx).to_vec();
    let total = batch.len();
    let count = |src: DataSource| batch.iter().filter(|s| s.source == src).count();
    let (l1, l2, l3) = (count(DataSource::L1), count(DataSource::L2), count(DataSource::L3));
    let loc = count(DataSource::LocalDram);
    let rem = count(DataSource::RemoteDram);
    let writes = batch.iter().filter(|s| s.is_write).count();
    let mut cpus: Vec<u32> = batch.iter().map(|s| s.cpu.0).collect();
    cpus.sort_unstable();
    cpus.dedup();
    out.push(per_mille(l1, total));
    out.push(per_mille(l2, total));
    out.push(per_mille(l3, total));
    out.push(per_mille(loc + rem, total)); // L3 misses reach DRAM
    out.push(if total == 0 { 0.0 } else { writes as f64 / total as f64 });
    out.push(if loc + rem == 0 { 0.0 } else { rem as f64 / (loc + rem) as f64 });
    out.push(cpus.len() as f64);
    out.push(rem as f64); // raw, unnormalised
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use numasim::topology::{CoreId, NodeId, ThreadId};

    fn sample(source: DataSource, latency: f64, cpu: u32, is_write: bool) -> MemSample {
        MemSample {
            time: 0.0,
            addr: 0,
            cpu: CoreId(cpu),
            thread: ThreadId(0),
            node: NodeId(0),
            source,
            home: None,
            latency,
            is_write,
        }
    }

    const CTX: FeatureCtx = FeatureCtx { duration_cycles: 1e6 };

    #[test]
    fn empty_batch_is_all_zero() {
        let f = selected_features(&[], &CTX);
        assert!(f.iter().all(|&v| v == 0.0));
        let c = candidate_features(&[], &CTX);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn latency_ratios_are_nested() {
        let batch: Vec<_> = [30.0, 60.0, 150.0, 300.0, 700.0, 1500.0]
            .iter()
            .map(|&l| sample(DataSource::RemoteDram, l, 0, false))
            .collect();
        let f = selected_features(&batch, &CTX);
        // gt1000: 1/6, gt500: 2/6, gt200: 3/6, gt100: 4/6, gt50: 5/6.
        assert!((f[0] - 1.0 / 6.0).abs() < 1e-12);
        assert!((f[1] - 2.0 / 6.0).abs() < 1e-12);
        assert!((f[2] - 3.0 / 6.0).abs() < 1e-12);
        assert!((f[3] - 4.0 / 6.0).abs() < 1e-12);
        assert!((f[4] - 5.0 / 6.0).abs() < 1e-12);
        // Ratios must be monotone by construction.
        assert!(f[0] <= f[1] && f[1] <= f[2] && f[2] <= f[3] && f[3] <= f[4]);
    }

    #[test]
    fn per_source_counts_and_latencies() {
        let batch = vec![
            sample(DataSource::RemoteDram, 400.0, 0, false),
            sample(DataSource::RemoteDram, 600.0, 0, false),
            sample(DataSource::LocalDram, 180.0, 0, false),
            sample(DataSource::Lfb, 90.0, 0, false),
            sample(DataSource::L1, 4.0, 0, false),
        ];
        let f = selected_features(&batch, &CTX);
        assert_eq!(f[REMOTE_COUNT], 400.0, "2 of 5 samples are remote DRAM");
        assert_eq!(f[REMOTE_LATENCY], 500.0);
        assert_eq!(f[7], 200.0);
        assert_eq!(f[8], 180.0);
        assert_eq!(f[9], 5.0, "5 samples per Mcycle");
        assert!((f[10] - (400.0 + 600.0 + 180.0 + 90.0 + 4.0) / 5.0).abs() < 1e-9);
        assert_eq!(f[11], 200.0);
        assert_eq!(f[12], 90.0);
    }

    #[test]
    fn normalisation_split_between_composition_and_rate() {
        let batch = vec![sample(DataSource::RemoteDram, 400.0, 0, false)];
        let short = selected_features(&batch, &FeatureCtx { duration_cycles: 1e6 });
        let long = selected_features(&batch, &FeatureCtx { duration_cycles: 2e6 });
        // Composition features are duration-invariant...
        assert_eq!(short[REMOTE_COUNT], long[REMOTE_COUNT]);
        assert_eq!(short[REMOTE_LATENCY], long[REMOTE_LATENCY]);
        // ...the total-sample feature is a rate.
        assert_eq!(short[9], 2.0 * long[9]);
    }

    #[test]
    fn candidate_vector_extends_selected() {
        let batch = vec![
            sample(DataSource::L1, 4.0, 0, true),
            sample(DataSource::L2, 12.0, 3, false),
            sample(DataSource::L3, 40.0, 3, false),
            sample(DataSource::LocalDram, 180.0, 5, false),
            sample(DataSource::RemoteDram, 300.0, 5, false),
        ];
        let c = candidate_features(&batch, &CTX);
        assert_eq!(c.len(), candidate_names().len());
        let sel = selected_features(&batch, &CTX);
        assert_eq!(&c[..NUM_SELECTED], &sel[..]);
        let base = NUM_SELECTED;
        assert_eq!(c[base], 200.0); // l1
        assert_eq!(c[base + 1], 200.0); // l2
        assert_eq!(c[base + 2], 200.0); // l3
        assert_eq!(c[base + 3], 400.0); // l3 misses
        assert!((c[base + 4] - 0.2).abs() < 1e-12); // write fraction
        assert_eq!(c[base + 5], 0.5); // remote fraction of dram
        assert_eq!(c[base + 6], 3.0); // distinct cpus
        assert_eq!(c[base + 7], 1.0); // raw remote count
    }

    #[test]
    fn names_align_with_arity() {
        assert_eq!(selected_names().len(), NUM_SELECTED);
        assert_eq!(selected_indices(), (0..13).collect::<Vec<_>>());
        assert!(candidate_names().len() > NUM_SELECTED);
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_rejected() {
        selected_features(&[], &FeatureCtx { duration_cycles: 0.0 });
    }

    /// A batch with awkward latencies (the jittered values real sampling
    /// produces).
    fn jittery_batch() -> Vec<MemSample> {
        let sources = [
            DataSource::RemoteDram,
            DataSource::LocalDram,
            DataSource::Lfb,
            DataSource::L1,
            DataSource::L2,
            DataSource::L3,
        ];
        (0..97)
            .map(|i| {
                let lat = 3.0 + (i as f64 * 0.731).sin().abs() * 1700.0 + i as f64 / 7.0;
                sample(sources[i % sources.len()], lat, (i % 13) as u32, i % 3 == 0)
            })
            .collect()
    }

    #[test]
    fn accumulator_split_merge_is_bit_identical_to_batch() {
        let batch = jittery_batch();
        let whole = selected_features(&batch, &CTX);
        for split in [0, 1, 13, 48, 96, 97] {
            let mut a = FeatureAccumulator::from_batch(&batch[..split]);
            let b = FeatureAccumulator::from_batch(&batch[split..]);
            a.merge(&b);
            assert_eq!(a.finalize(&CTX), whole, "split at {split}");
        }
        // Three-way and reversed merge orders too: exact sums commute.
        let (x, y, z) = (&batch[..20], &batch[20..70], &batch[70..]);
        let mut m = FeatureAccumulator::from_batch(z);
        m.merge(&FeatureAccumulator::from_batch(x));
        m.merge(&FeatureAccumulator::from_batch(y));
        assert_eq!(m.finalize(&CTX), whole, "merge order must not matter");
    }

    /// The columnar lane path must reach the exact accumulator state the
    /// per-sample path reaches.
    #[test]
    fn push_lanes_is_bit_identical_to_per_sample_push() {
        let batch = jittery_batch();
        let mut per_sample = FeatureAccumulator::new();
        for s in &batch {
            per_sample.push(s);
        }
        // Lane ingestion in chunks of every awkward size, including a
        // chunk larger than the batch.
        for chunk in [1usize, 2, 3, 4, 5, 7, 31, 96, 97, 128] {
            let mut lanes = FeatureAccumulator::new();
            for part in batch.chunks(chunk) {
                let lats: Vec<f64> = part.iter().map(|s| s.latency).collect();
                let srcs: Vec<DataSource> = part.iter().map(|s| s.source).collect();
                lanes.push_lanes(&lats, &srcs);
            }
            assert_eq!(lanes, per_sample, "chunk size {chunk}");
            assert_eq!(lanes.finalize(&CTX), per_sample.finalize(&CTX));
        }
    }

    /// Deterministic pseudo-random integral latencies in `0..2048`.
    fn rand_lats(seed: u64, len: usize) -> Vec<f64> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0..2048u64) as f64).collect()
    }

    /// The threshold counts against the plain definition `above[k] = |{ x : x > thresholds[k] }|`, and `push_lanes`
    /// against per-sample `push`: random latencies straddling the
    /// thresholds, and exact-threshold values (strictly-greater must
    /// exclude them) with their one-ulp neighbours, over a length sweep.
    #[test]
    fn threshold_counts_match_the_definition_and_push_lanes_matches_push() {
        let mut cases: Vec<Vec<f64>> = Vec::new();
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 127, 128, 129, 255, 256, 1000] {
            for seed in [1u64, 42, 9999] {
                cases.push(rand_lats(seed, len));
            }
            let edges: Vec<f64> = LATENCY_THRESHOLDS.iter().flat_map(|&t| [t.next_down(), t, t.next_up()]).collect();
            cases.push((0..len).map(|i| if i % 17 == 16 { 0.0 } else { edges[i % edges.len()] }).collect());
        }
        let sources = [DataSource::RemoteDram, DataSource::LocalDram, DataSource::Lfb, DataSource::L3];
        for lats in &cases {
            let srcs: Vec<DataSource> = (0..lats.len()).map(|i| sources[i % sources.len()]).collect();
            let mut lanes = FeatureAccumulator::new();
            lanes.push_lanes(lats, &srcs);
            let definition = LATENCY_THRESHOLDS.map(|t| lats.iter().filter(|&&x| x > t).count());
            assert_eq!(lanes.above, definition);
            let mut per_sample = FeatureAccumulator::new();
            for (&l, &src) in lats.iter().zip(&srcs) {
                per_sample.push(&sample(src, l, 0, false));
            }
            assert_eq!(lanes, per_sample);
        }
    }

    #[test]
    fn push_slice_matches_per_element_push() {
        let vals = [1013.75, 3.0000001, 880.125, 42.625, 1999.99, 0.5, 77.25];
        for take in 0..=vals.len() {
            let mut one = ExactSum::new();
            for &v in &vals[..take] {
                one.push(v);
            }
            let mut slab = ExactSum::new();
            slab.push_slice(&vals[..take]);
            assert_eq!(one, slab, "len {take}");
        }
    }

    #[test]
    fn exact_sum_is_order_independent() {
        let vals = [1013.75, 3.0000001, 880.125, 42.625, 1999.99, 0.5];
        let mut fwd = ExactSum::new();
        let mut rev = ExactSum::new();
        for v in vals {
            fwd.push(v);
        }
        for v in vals.iter().rev() {
            rev.push(*v);
        }
        assert_eq!(fwd, rev);
        assert!((fwd.value() - vals.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn accumulator_exposes_counts() {
        let batch = jittery_batch();
        let acc = FeatureAccumulator::from_batch(&batch);
        assert_eq!(acc.count(), batch.len());
        assert_eq!(acc.remote_dram_count(), batch.iter().filter(|s| s.source == DataSource::RemoteDram).count());
    }

    /// The conversion every `ExactSum` entry point used before the shift
    /// fast path existed.
    fn rounded_units(x: f64) -> i128 {
        (x * EXACT_SCALE).round() as i128
    }

    #[test]
    fn to_units_edges_match_the_rounding_conversion() {
        let ulp_below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let two = |e: i32| 2f64.powi(e);
        let edges = [
            two(-23),
            ulp_below(two(-23)),
            two(-23) + two(-75),
            two(-24),
            two(-75),
            two(-76),
            1.5 * two(-76),
            ulp_below(two(52)),
            two(52),
            two(52) + 1.0,
            two(53),
            f64::MIN_POSITIVE,
            ulp_below(f64::MIN_POSITIVE),
            f64::from_bits(1),
            0.0,
            -0.0,
            -1.0,
            -two(-23),
            -950.25,
            1.0,
            950.25,
            3.0000001,
            1e300,
            -1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in edges {
            assert_eq!(to_units(x), rounded_units(x), "x = {x:e} ({:#018x})", x.to_bits());
        }
        assert_eq!(to_units(two(-23)), 1 << 52, "the smallest fast-path value");
        assert_eq!(to_units(ulp_below(two(52))), ((1i128 << 53) - 1) << 74, "the largest fast-path value");
    }

    proptest::proptest! {
        /// Raw bit patterns (any sign, exponent, mantissa — NaNs and
        /// infinities included), plus the same mantissas re-homed to
        /// exponents straddling both ends of the fast-path range.
        #[test]
        fn to_units_matches_the_rounding_conversion(
            patterns in proptest::collection::vec((proptest::prelude::any::<u64>(), 0u64..160), 256..257),
        ) {
            for (bits, e) in patterns {
                let near = (bits & !(0x7ff << 52)) | ((1023 - 60 + e) << 52);
                for x in [f64::from_bits(bits), f64::from_bits(near)] {
                    proptest::prop_assert_eq!(to_units(x), rounded_units(x), "bits {:#018x}", x.to_bits());
                }
            }
        }

        /// `push`, `push_slice` and the fused `push_lanes` are one
        /// conversion: over finite latencies of any magnitude class they
        /// land on the same sums, and on what the rounding conversion
        /// gives.
        #[test]
        fn exact_sum_entry_points_agree(
            raw in proptest::collection::vec((proptest::prelude::any::<u64>(), 0u64..84, 0usize..6), 0..200),
        ) {
            // Exponents in [-40, 44): both sides of the fast path's lower
            // edge, and 200 values stay far from saturating the i128.
            let lats: Vec<f64> =
                raw.iter().map(|&(bits, e, _)| f64::from_bits((bits & !(0x7ff << 52)) | ((1023 - 40 + e) << 52))).collect();
            let srcs: Vec<DataSource> = raw.iter().map(|&(_, _, k)| DataSource::ALL[k]).collect();
            let want = lats.iter().fold(0i128, |acc, &x| acc + rounded_units(x));
            let mut pushed = ExactSum::new();
            for &x in &lats {
                pushed.push(x);
            }
            let mut sliced = ExactSum::new();
            sliced.push_slice(&lats);
            let mut lanes = FeatureAccumulator::new();
            lanes.push_lanes(&lats, &srcs);
            proptest::prop_assert_eq!(pushed.units, want);
            proptest::prop_assert_eq!(sliced, pushed);
            proptest::prop_assert_eq!(lanes.latency_sum(), pushed);
            let of = |src: DataSource| {
                let mut sum = ExactSum::new();
                lats.iter().zip(&srcs).filter(|(_, &s)| s == src).for_each(|(&x, _)| sum.push(x));
                sum
            };
            proptest::prop_assert_eq!(lanes.sources[REMOTE].lat, of(DataSource::RemoteDram));
            proptest::prop_assert_eq!(lanes.sources[LOCAL].lat, of(DataSource::LocalDram));
            proptest::prop_assert_eq!(lanes.sources[LFB].lat, of(DataSource::Lfb));
        }
    }
}
