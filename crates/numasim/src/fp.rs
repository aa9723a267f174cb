//! Exact floating-point batching primitives.
//!
//! The batched engine replaces chains of identical f64 additions (clock
//! advances, per-line byte accounting) with fused updates — but only when
//! the fused form is provably bit-identical to the sequential chain. This
//! module holds the one primitive that decision rests on.

/// Whether `delta / ulp` — exact, since `ulp` is a power of two — is a
/// non-integer: off this binade's grid and, since a non-integer halved is
/// still one, off every higher binade's too. Values above 2^53 are all
/// integers in f64.
#[inline]
fn off_grid(steps: f64) -> bool {
    steps < (1u64 << 53) as f64 && steps as u64 as f64 != steps
}

/// The literal chain: `n` sequential additions of `delta` to `acc`.
#[inline]
fn add_chain(mut acc: f64, delta: f64, n: u64) -> f64 {
    for _ in 0..n {
        acc += delta;
    }
    acc
}

/// Advance `acc` by `n` sequential additions of `delta`, collapsing runs of
/// the dependent add chain to fused updates whenever that is bit-identical.
///
/// A run of `m` additions collapses exactly when every partial sum stays in
/// `acc`'s binade and on its ulp grid: `delta` must be a non-negative exact
/// multiple of that ulp (with `delta / ulp ≤ 2^53` so products stay exact)
/// and the partial sums must not reach the next power of two. Every
/// intermediate sum is then exactly representable, so each sequential add
/// would round to the same grid point the fused form lands on. Crossing a
/// binade takes one literal add, after which the (doubled) ulp grid is
/// re-checked — so accumulators that grow through many binades (per-round
/// byte counters) still collapse piecewise. Tiny accumulators run the
/// literal chain.
///
/// An off-grid delta (`delta / ulp` a non-integer) runs the literal chain
/// for all remaining steps after one division: the accumulator never
/// shrinks, and every higher binade's ulp is the current one times a power
/// of two, so `delta / ulp` stays a non-integer and no later binade could
/// fuse.
#[inline]
pub fn bulk_add(mut acc: f64, delta: f64, mut n: u64) -> f64 {
    debug_assert!(acc >= 0.0 && delta >= 0.0, "accumulators and costs are non-negative");
    if delta == 0.0 {
        // Adding +0.0 never changes a non-negative value.
        return acc;
    }
    while n > 0 {
        let bits = acc.to_bits();
        let exp = bits >> 52; // acc >= 0.0 always: no sign bit to strip.
        if exp > 52 && exp < 0x7fe {
            let ulp = f64::from_bits((exp - 52) << 52);
            let steps = delta / ulp; // exact: ulp is a power of two
                                     // Integrality via round-trip cast (exact for values <= 2^53)
                                     // rather than `fract()`, which lowers to a libm `trunc` call
                                     // on the hot path.
            let d = steps as u64;
            if off_grid(steps) {
                return add_chain(acc, delta, n);
            }
            if steps <= (1u64 << 53) as f64 && d as f64 == steps {
                // delta = d * ulp, d >= 1
                let a = (bits & ((1u64 << 52) - 1)) | (1u64 << 52); // acc = a * ulp
                                                                    // Largest m with a + m*d < 2^53 (the binade top in ulps):
                                                                    // all partial sums then stay exact on the grid.
                let m = (((1u64 << 53) - 1 - a) / d).min(n);
                if m > 0 {
                    acc += m as f64 * delta; // m*d < 2^53: product and sum exact
                    n -= m;
                    continue;
                }
            }
        }
        acc += delta;
        n -= 1;
    }
    acc
}

/// Advance a clock through up to `max_lines` identical per-line updates —
/// each `clock += addend` followed by `nreps` additions of `rep_delta` —
/// stopping (as the engine's replay loop does) when the clock at a line
/// *start* has reached `round_end`. Returns `(lines_processed, clock)`,
/// bit-identical to the literal loop
///
/// ```text
/// while k < max_lines && clock < round_end {
///     clock += addend;
///     if nreps > 0 && rep_delta != 0.0 { clock = bulk_add(clock, rep_delta, nreps); }
///     k += 1;
/// }
/// ```
///
/// The closed form rests on the same ulp-grid argument as [`bulk_add`],
/// lifted from one addition to one *line*: when `addend` and `rep_delta`
/// are both exact non-negative multiples of the clock's current ulp, a
/// whole line moves the clock by exactly `d = addend/ulp + nreps ·
/// rep_delta/ulp` grid steps, and as long as every partial sum stays
/// below the binade top (mantissa `2^53 − 1` in ulps) each sequential
/// add is exact — so `count` lines land on `bits + count·d` directly.
/// Since positive f64 bit patterns order like their values, the
/// round-boundary line count is integer arithmetic on bit patterns:
/// `ceil((round_end.bits − clock.bits) / d)`. Binade crossings and
/// zero-step lines fall back to literal per-line replay, which is
/// bit-identical by construction. Once no later binade can put a whole
/// line back on the grid — the rep tail off-grid, or the addend off-grid
/// with no rep tail (the [`bulk_add`] argument: a non-integer `delta/ulp`
/// stays one as the clock grows) — the rest of the chain is the literal
/// loop itself, with no further grid division.
#[inline]
pub fn bulk_line_chain(
    mut clock: f64,
    addend: f64,
    rep_delta: f64,
    nreps: u64,
    max_lines: u64,
    round_end: f64,
) -> (u64, f64) {
    debug_assert!(clock >= 0.0 && addend >= 0.0 && rep_delta >= 0.0, "clocks and costs are non-negative");
    let reps_active = nreps > 0 && rep_delta != 0.0;
    let mut k = 0u64;
    while k < max_lines && clock < round_end {
        let bits = clock.to_bits();
        let exp = bits >> 52; // clock >= 0.0: no sign bit to strip
                              // Rep-tail grid steps for this binade when `rep_delta` alone is
                              // exact on the grid; `u128::MAX` = off-grid (or clock outside the
                              // grid range). Lets the literal fallback below collapse each
                              // line's rep tail even when `addend` is off-grid.
        let mut dr_tot = u128::MAX;
        if exp > 52 && exp < 0x7fe {
            let ulp = f64::from_bits((exp - 52) << 52);
            let sa = addend / ulp; // exact: ulp is a power of two
            let sr = rep_delta / ulp;
            // Off the grid for good: the rest of the chain is the loop.
            let literal = if reps_active { off_grid(sr) } else { off_grid(sa) };
            if literal {
                let mut c = clock;
                while k < max_lines && c < round_end {
                    c += addend;
                    if reps_active {
                        c = add_chain(c, rep_delta, nreps);
                    }
                    k += 1;
                }
                return (k, c);
            }
            // Integrality via round-trip casts (exact <= 2^53), not
            // `fract()` — see `bulk_add`.
            let da = sa as u64;
            let dr = if reps_active { sr as u64 } else { 0 };
            let rep_grid = sr <= (1u64 << 53) as f64 && dr as f64 == sr;
            if reps_active && rep_grid {
                dr_tot = nreps as u128 * dr as u128;
            }
            let grid = sa <= (1u64 << 53) as f64 && da as f64 == sa && (!reps_active || rep_grid);
            if grid {
                // One line = da + nreps·dr grid steps (u128: both factors
                // can reach 2^53).
                let d_line = da as u128 + (nreps as u128) * (dr as u128);
                let a = (bits & ((1u64 << 52) - 1)) | (1u64 << 52); // clock = a · ulp
                let top = (1u64 << 53) - 1;
                if d_line == 0 {
                    // The clock does not move, so the round boundary can
                    // never interrupt: every remaining line processes.
                    return (max_lines, clock);
                }
                if d_line <= (top - a) as u128 {
                    let d = d_line as u64;
                    // Lines whose every sub-step stays exact in-binade...
                    let m = (top - a) / d;
                    // ...and lines whose start clock is below round_end
                    // (positive f64s compare as their bit patterns).
                    let rb = round_end.to_bits();
                    let by_round = if bits >= rb { 0 } else { (rb - bits).div_ceil(d) };
                    let count = m.min(max_lines - k).min(by_round);
                    if count > 0 {
                        clock = f64::from_bits(bits + count * d);
                        k += count;
                        continue;
                    }
                }
            }
        }
        // Off-grid addend with an on-grid rep tail (or a clock too
        // small/large for the grid, or a line reaching the binade top):
        // the verdict cannot change until the clock leaves its binade, so
        // replay lines literally — the engine's exact per-line step —
        // without re-paying the grid divisions per line. An on-grid rep
        // tail still collapses to one integer add: that is exactly the
        // single fused update `bulk_add` would pick (`m = nreps` fits
        // below the binade top).
        loop {
            clock += addend;
            if reps_active {
                let b2 = clock.to_bits();
                let a2 = ((b2 & ((1u64 << 52) - 1)) | (1u64 << 52)) as u128;
                if b2 >> 52 == exp && dr_tot != u128::MAX && a2 + dr_tot < (1u64 << 53) as u128 {
                    clock = f64::from_bits(b2 + dr_tot as u64);
                } else {
                    clock = bulk_add(clock, rep_delta, nreps);
                }
            }
            k += 1;
            if k >= max_lines || clock >= round_end || clock.to_bits() >> 52 != exp {
                break;
            }
        }
    }
    (k, clock)
}

/// Per-(stream, binade) memo of the one-*line* grid step: `clock +=
/// addend` followed by `nreps` additions of `rep_delta`, collapsed to a
/// single integer add on the clock's bit pattern when the whole line is
/// provably exact on the current ulp grid.
///
/// Interleaved replay loops ([`crate::engine`]'s zip path) advance several
/// lanes' lines through one shared clock, so the multi-line collapse of
/// [`bulk_line_chain`] does not apply — but the per-line costs are
/// segment constants, so the grid analysis (two divisions and the
/// integrality checks) is the same for every line of a lane until the
/// clock changes binade. This memo pays it once per (lane, binade)
/// instead of per line.
#[derive(Debug, Clone, Copy)]
pub struct LineStep {
    /// Biased exponent the memo is valid for; `u64::MAX` = invalid.
    exp: u64,
    /// Grid steps of `addend` alone; `u64::MAX` = off-grid.
    da: u64,
    /// Grid steps of the whole rep tail (`nreps · rep_delta`);
    /// `u128::MAX` = off-grid, `0` = reps inactive.
    dr_tot: u128,
    /// No later binade can collapse any part of a line (see
    /// [`bulk_line_chain`]): every line runs the literal step, with no
    /// re-keying. Cleared by [`LineStep::invalidate`].
    literal: bool,
}

impl Default for LineStep {
    fn default() -> Self {
        Self::new()
    }
}

impl LineStep {
    /// A memo valid for no binade (first use computes).
    pub const fn new() -> Self {
        Self { exp: u64::MAX, da: u64::MAX, dr_tot: u128::MAX, literal: false }
    }

    /// Drop the memo. Callers must invalidate whenever `addend`,
    /// `rep_delta`, or `nreps` may have changed — the memo is keyed on the
    /// binade only.
    #[inline]
    pub fn invalidate(&mut self) {
        self.exp = u64::MAX;
        self.literal = false;
    }

    /// Advance `clock` by one line — bit-identical to the literal step
    ///
    /// ```text
    /// clock += addend;
    /// if nreps > 0 && rep_delta != 0.0 { clock = bulk_add(clock, rep_delta, nreps); }
    /// ```
    ///
    /// The full fast path fires when both costs are exact non-negative
    /// multiples of the clock's ulp and the line's total movement stays
    /// below the binade top: every partial sum is then on the grid and
    /// exact (the [`bulk_add`] argument, restricted to one line), so the
    /// result is `clock.to_bits() + d` directly. When only the rep tail
    /// is on-grid (congested rounds give the DRAM addend a full
    /// mantissa), the addend is added literally and just the tail
    /// collapses — exactly the fused update [`bulk_add`] itself would
    /// pick, minus its per-call division. An off-grid rep tail (or an
    /// off-grid addend with no tail) stays off-grid as the clock grows,
    /// so from then on every line is the literal step, memo untouched.
    #[inline]
    pub fn advance_line(&mut self, clock: f64, addend: f64, rep_delta: f64, nreps: u64) -> f64 {
        debug_assert!(clock >= 0.0 && addend >= 0.0 && rep_delta >= 0.0, "clocks and costs are non-negative");
        const TOP: u128 = (1u64 << 53) as u128 - 1;
        if self.literal {
            let c = clock + addend;
            return if nreps > 0 && rep_delta != 0.0 { add_chain(c, rep_delta, nreps) } else { c };
        }
        let bits = clock.to_bits();
        let exp = bits >> 52; // clock >= 0.0: no sign bit to strip
        if exp > 52 && exp < 0x7fe {
            if exp != self.exp {
                self.exp = exp;
                let ulp = f64::from_bits((exp - 52) << 52);
                let reps_active = nreps > 0 && rep_delta != 0.0;
                let sa = addend / ulp; // exact: ulp is a power of two
                let sr = rep_delta / ulp;
                let da = sa as u64;
                let dr = if reps_active { sr as u64 } else { 0 };
                self.literal = if reps_active { off_grid(sr) } else { off_grid(sa) };
                self.da = if sa <= (1u64 << 53) as f64 && da as f64 == sa { da } else { u64::MAX };
                self.dr_tot = if !reps_active {
                    0
                } else if sr <= (1u64 << 53) as f64 && dr as f64 == sr {
                    nreps as u128 * dr as u128
                } else {
                    u128::MAX
                };
            }
            if self.da != u64::MAX && self.dr_tot != u128::MAX {
                let d = self.da as u128 + self.dr_tot;
                let a = ((bits & ((1u64 << 52) - 1)) | (1u64 << 52)) as u128;
                if a + d <= TOP {
                    // d < 2^53 here, so the u64 add cannot overflow.
                    return f64::from_bits(bits + d as u64);
                }
            }
        }
        // Literal addend: the engine's exact per-line step.
        let c = clock + addend;
        if nreps > 0 && rep_delta != 0.0 {
            // Rep-tail collapse on the post-addend clock, when it stayed
            // in the memo's binade: this is precisely the single fused
            // update `bulk_add` would compute (`m = nreps` fits), without
            // re-deriving the grid per line.
            let b2 = c.to_bits();
            if b2 >> 52 == self.exp && self.dr_tot != u128::MAX {
                let a2 = ((b2 & ((1u64 << 52) - 1)) | (1u64 << 52)) as u128;
                if a2 + self.dr_tot <= TOP {
                    return f64::from_bits(b2 + self.dr_tot as u64);
                }
            }
            return bulk_add(c, rep_delta, nreps);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(mut c: f64, d: f64, n: u64) -> f64 {
        for _ in 0..n {
            c += d;
        }
        c
    }

    /// `bulk_add` must equal the literal add chain bit-for-bit on every
    /// input, whether or not the fused fast path fires: accumulators on and
    /// off the ulp grid, non-dyadic deltas, binade crossings, tiny values.
    #[test]
    fn bulk_add_matches_sequential_chain() {
        let accs = [0.0, 1.0, 3.5, 64.0, 1000.123456, 1e6 + 1.0 / 3.0, (1u64 << 52) as f64 - 1.5];
        let deltas = [0.0, 0.5, 1.5, 4.0 / 3.0, 0.1, 0.8, 1.2, 2e-20, 7.25, 64.0];
        let reps = [1u64, 3, 7, 100, 4095];
        for &c in &accs {
            for &d in &deltas {
                for &n in &reps {
                    let want = chain(c, d, n);
                    let got = bulk_add(c, d, n);
                    assert_eq!(got.to_bits(), want.to_bits(), "bulk_add({c}, {d}, {n}) = {got}, chain = {want}");
                }
            }
        }
    }

    /// The byte-accounting pattern: repeated adds of a power of two cross
    /// binade after binade. The piecewise collapse must track the literal
    /// chain through every crossing.
    #[test]
    fn bulk_add_tracks_binade_crossings() {
        for start in [0.0, 64.0, 192.0, 1.0e9] {
            for n in [1u64, 63, 64, 65, 1000, 100_000] {
                let want = chain(start, 64.0, n);
                let got = bulk_add(start, 64.0, n);
                assert_eq!(got.to_bits(), want.to_bits(), "start {start}, n {n}");
            }
        }
    }

    /// The literal per-line loop `bulk_line_chain` must reproduce.
    fn line_chain(
        mut clock: f64,
        addend: f64,
        rep_delta: f64,
        nreps: u64,
        max_lines: u64,
        round_end: f64,
    ) -> (u64, f64) {
        let mut k = 0u64;
        while k < max_lines && clock < round_end {
            clock += addend;
            if nreps > 0 && rep_delta != 0.0 {
                clock = bulk_add(clock, rep_delta, nreps);
            }
            k += 1;
        }
        (k, clock)
    }

    /// `bulk_line_chain` must equal the literal loop bit-for-bit across
    /// on-grid and off-grid costs, rep counts, round boundaries hit
    /// mid-segment, binade crossings, and zero-cost lines.
    #[test]
    fn bulk_line_chain_matches_literal_loop() {
        let clocks = [0.0, 1.0, 1000.123456, 20_000.0 + 1.0 / 3.0, 1e9, (1u64 << 52) as f64 - 1.5];
        let addends = [0.0, 0.5, 4.25, 4.0 / 3.0, 190.0, 1e-18, 0.8 + 190.0 / 3.0];
        let rep_deltas = [0.0, 0.25, 6.5, 0.1, 0.8, 1.2];
        let nreps = [0u64, 1, 3, 7];
        let ends = [1.0, 20_000.0, 40_000.0, 1e12];
        for &c in &clocks {
            for &a in &addends {
                for &rd in &rep_deltas {
                    for &nr in &nreps {
                        for &max in &[0u64, 1, 5, 1000, 100_000] {
                            for &end in &ends {
                                let want = line_chain(c, a, rd, nr, max, end);
                                let got = bulk_line_chain(c, a, rd, nr, max, end);
                                assert_eq!(
                                    (got.0, got.1.to_bits()),
                                    (want.0, want.1.to_bits()),
                                    "chain(c={c}, a={a}, rd={rd}, nr={nr}, max={max}, end={end})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Splitting a line chain at any point composes — what lets the
    /// engine commit spans piecewise at round boundaries.
    #[test]
    fn bulk_line_chain_composes_under_splits() {
        let (c, a, rd, nr, end) = (20_000.0 + 1.0 / 3.0, 17.25, 2.5, 3u64, 1e9);
        let n = 513u64;
        let whole = bulk_line_chain(c, a, rd, nr, n, end);
        for k in [0u64, 1, 7, 256, 512, 513] {
            let (k1, mid) = bulk_line_chain(c, a, rd, nr, k, end);
            assert_eq!(k1, k);
            let (k2, fin) = bulk_line_chain(mid, a, rd, nr, n - k, end);
            assert_eq!((k + k2, fin.to_bits()), (whole.0, whole.1.to_bits()), "split at {k}");
        }
    }

    /// `LineStep::advance_line` must equal the literal per-line step
    /// bit-for-bit, across binade crossings (where the memo re-keys),
    /// off-grid costs, and cost changes (with `invalidate` between).
    #[test]
    fn line_step_matches_literal_per_line() {
        let literal = |mut c: f64, a: f64, rd: f64, nr: u64| {
            c += a;
            if nr > 0 && rd != 0.0 {
                c = bulk_add(c, rd, nr);
            }
            c
        };
        let params = [
            (4.25, 0.25, 7u64),
            (4.0 / 3.0, 0.1, 3),
            (0.0, 0.0, 0),
            (190.0, 6.5, 7),
            (1e-18, 2e-20, 5),
            (0.8 + 190.0 / 3.0, 0.8, 3),
            (1.2, 1.2, 3),
            (0.8, 0.0, 0),
            (2.0 + 190.0 / 3.0, 2.0, 3),
        ];
        let starts = [0.0, 1.0, 1000.123456, 20_000.0 + 1.0 / 3.0, 1e9, (1u64 << 52) as f64 - 1.5];
        for &start in &starts {
            for &(a, rd, nr) in &params {
                let mut step = LineStep::new();
                let mut want = start;
                let mut got = start;
                for line in 0..4096 {
                    want = literal(want, a, rd, nr);
                    got = step.advance_line(got, a, rd, nr);
                    assert_eq!(got.to_bits(), want.to_bits(), "start {start}, params ({a}, {rd}, {nr}), line {line}");
                }
            }
        }
        // Cost changes mid-stream: invalidate re-keys the memo.
        let mut step = LineStep::new();
        let mut want = 30_000.5;
        let mut got = want;
        for (i, &(a, rd, nr)) in params.iter().cycle().take(50).enumerate() {
            step.invalidate();
            for _ in 0..7 {
                want = literal(want, a, rd, nr);
                got = step.advance_line(got, a, rd, nr);
            }
            assert_eq!(got.to_bits(), want.to_bits(), "segment {i}");
        }
    }

    /// Splitting a chain at any point composes: bulk_add(bulk_add(c, d, k),
    /// d, n-k) == bulk_add(c, d, n). This is what lets callers commit spans
    /// piecewise (round boundaries, home-span boundaries).
    #[test]
    fn bulk_add_composes_under_splits() {
        let c = 20_000.0 + 1.0 / 3.0;
        let d = 17.25;
        let n = 513;
        let whole = bulk_add(c, d, n);
        for k in [0u64, 1, 7, 256, 512, 513] {
            let split = bulk_add(bulk_add(c, d, k), d, n - k);
            assert_eq!(split.to_bits(), whole.to_bits(), "split at {k}");
        }
    }
}
