//! Memory access streams: the workload side of the simulator.
//!
//! A simulated thread is driven by an [`AccessStream`] — a source of
//! [`AccessRun`]s, strided runs of accesses at cache-line granularity. A
//! run is the only currency between a stream and the engine, and it
//! carries the two performance attributes the engine consults:
//!
//! * `compute` — arithmetic work between memory operations
//!   (compute-bound codes like Blackscholes have high values; streaming
//!   kernels ~1–4 cycles);
//! * `mlp` — memory-level parallelism. Independent loads (array scans)
//!   overlap several outstanding misses; dependent loads (pointer chasing,
//!   as in the bandit micro-benchmark) expose the full miss latency.
//!
//! `reps` on a run models multiple loads landing in the same cache line
//! (e.g. eight 8-byte elements per 64-byte line): the line is fetched
//! once and the remaining loads are satisfied by the line-fill buffer,
//! which is exactly how PEBS attributes them on real hardware.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Most accesses one gather (see [`AccessStream::next_zip`]) hands out.
pub const GATHER_MAX: u64 = 64;

/// Read/write composition of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessMix {
    /// Every `write_every`-th access is a write; 0 means read-only. As
    /// wide as [`AccessRun::write_every`], which carries it to the engine.
    pub write_every: u16,
}

impl AccessMix {
    /// All loads.
    pub fn read_only() -> Self {
        Self { write_every: 0 }
    }

    /// All stores.
    pub fn write_only() -> Self {
        Self { write_every: 1 }
    }

    /// One store per `n` accesses (n ≥ 1).
    ///
    /// # Panics
    /// Panics if `n == 0` (use [`AccessMix::read_only`] for no writes) or
    /// `n` exceeds the 16 bits a run's packed pattern holds.
    pub fn write_every(n: u32) -> Self {
        assert!(n >= 1, "write_every(0) is ambiguous; use read_only()");
        let write_every = u16::try_from(n).expect("write_every period must fit the run's 16-bit pattern");
        Self { write_every }
    }
}

/// [`AccessRun::write_phase`] of an access: `counter` — the value
/// [`AccessMix::is_write`] sees for it — reduced modulo the store period.
#[inline]
fn store_phase(write_every: u16, counter: u64) -> u16 {
    match write_every {
        0 | 1 => 0,
        we => (counter % we as u64) as u16,
    }
}

/// A run of homogeneous accesses: `len` line-granular operations at
/// `base, base + stride, base + 2·stride, …`, all sharing the same `reps`
/// and — crucially — the `compute`/`mlp` of the stream segment that
/// produced them. An O(1) descriptor stands in for up to `len` accesses.
///
/// Direction is *not* uniform: the run carries the stream's periodic
/// store pattern, and [`AccessRun::is_write_at`] evaluates it for the one
/// access an observer is actually shown. Nothing the machine model does
/// depends on direction, so a store never has to end a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessRun {
    /// Address of the first access.
    pub base: u64,
    /// Byte distance between consecutive accesses (ignored when `len == 1`).
    pub stride: u64,
    /// Number of accesses in the run (≥ 1).
    pub len: u64,
    /// Arithmetic cycles between memory operations for these accesses.
    pub compute: f64,
    /// Memory-level parallelism for these accesses; `None` uses the
    /// machine default.
    pub mlp: Option<f64>,
    /// Element accesses each line-granular operation represents (≥ 1),
    /// uniform over the run. Loads beyond the first hit the line-fill
    /// buffer when the first missed to DRAM.
    pub reps: u16,
    /// Store period (see [`AccessMix::write_every`]): 0 is all loads, 1
    /// all stores.
    pub write_every: u16,
    /// The producing stream's access counter at the run's first access,
    /// modulo `write_every`: access `i` stores iff `write_phase + i` is a
    /// multiple of the period.
    pub write_phase: u16,
}

impl AccessRun {
    /// A single-access run: one load or store of `reps` elements at `addr`.
    #[inline]
    pub fn single(addr: u64, is_write: bool, reps: u16, compute: f64, mlp: Option<f64>) -> Self {
        Self { base: addr, stride: 0, len: 1, compute, mlp, reps, write_every: is_write as u16, write_phase: 0 }
    }

    /// The `i`-th address of the run (`i < len`).
    #[inline]
    pub fn addr(&self, i: u64) -> u64 {
        debug_assert!(i < self.len);
        self.base + i * self.stride
    }

    /// Whether the `i`-th access of the run (`i < len`) is a store.
    #[inline]
    pub fn is_write_at(&self, i: u64) -> bool {
        debug_assert!(i < self.len);
        self.write_every != 0 && (self.write_phase as u64 + i).is_multiple_of(self.write_every as u64)
    }

    /// The `i`-th access of the run (`i < len`) as a run of its own.
    #[inline]
    pub fn nth(&self, i: u64) -> Self {
        let write_phase = store_phase(self.write_every, self.write_phase as u64 + i);
        Self { base: self.addr(i), len: 1, write_phase, ..*self }
    }

    /// Append the run's accesses to `out` as single-access runs, in order:
    /// [`AccessRun::nth`] for every `i`, with the store pattern stepped by
    /// compare instead of reduced by division.
    fn push_singles(&self, out: &mut Vec<AccessRun>) {
        debug_assert!(self.write_every == 0 || self.write_phase < self.write_every, "unreduced store phase");
        let mut phase = self.write_phase;
        for i in 0..self.len {
            let is_write = self.write_every != 0 && phase == 0;
            out.push(Self::single(self.base + i * self.stride, is_write, self.reps, self.compute, self.mlp));
            phase += 1;
            if phase == self.write_every {
                phase = 0;
            }
        }
    }
}

/// A source of memory accesses for one simulated thread.
///
/// Streams must be deterministic: all randomness is seeded. A stream
/// implements [`AccessStream::next_run`]; a length-1 run is always a valid
/// answer. The other two methods are advisory fast paths with
/// conservative defaults.
pub trait AccessStream: Send {
    /// The next *run* of up to `max` accesses (`max ≥ 1`), or `None` when
    /// the thread has finished its work.
    ///
    /// Contract (chunking invariance): the access sequence — address,
    /// direction, `reps`, `compute`, `mlp` of every access, in order — is a
    /// property of the stream, not of how it is pulled. Any schedule of
    /// `max` values, with [`AccessStream::next_zip`] pulls interleaved,
    /// yields the sequence `max = 1` yields; in particular a run's
    /// `compute`/`mlp` are the values in effect for *those* accesses, not
    /// whatever a later segment would carry.
    fn next_run(&mut self, max: u64) -> Option<AccessRun>;

    /// Peek the maximal run [`AccessStream::next_run`] would return for an
    /// unbounded `max`, without advancing any state; `None` when the
    /// stream is drained or cannot describe its future as one run.
    ///
    /// Contract: when `Some(w)` is returned, an immediate `next_run(k)`
    /// with `1 ≤ k ≤ w.len` must return exactly the first `k` accesses of
    /// `w`. Purely advisory — the conservative default (`None`) opts out
    /// of the engine's interleaved span fusion.
    fn seq_window(&self) -> Option<AccessRun> {
        None
    }

    /// Bulk-pull one *interleaved span*: `iters` whole round-robin
    /// iterations over ≥ 2 concurrently live sequential lanes, advancing
    /// the stream past all of them. On success, `lanes` holds one run per
    /// lane in issue order, each of length `iters` and stride `line_step`,
    /// and the return value is `iters`; the access sequence consumed is
    /// exactly `lanes[0][0], lanes[1][0], …, lanes[0][1], lanes[1][1], …`.
    /// Returns 0 — consuming nothing — when the stream has no such span to
    /// offer (the default).
    ///
    /// A *gather* is the one-iteration case: `iters == 1` and `lanes` holds
    /// the stream's next accesses as length-1 runs, in issue order — at
    /// least one, and at most `max_iters` and [`GATHER_MAX`]. Streams of
    /// independent single lines (random draws, pointer chases) answer with
    /// gathers, so one call stands in for many `next_run(1)` calls. A
    /// `line_step` of 0 matches no sequential lane: a caller that can take
    /// only single accesses passes it and gets a gather or nothing.
    fn next_zip(&mut self, _line_step: u64, _max_iters: u64, lanes: &mut Vec<AccessRun>) -> u64 {
        lanes.clear();
        0
    }
}

/// Sequential scan over `[base, base + len)` with a fixed stride,
/// repeated for a number of passes. The canonical streaming kernel
/// (sumv/dotv/countv shares, stencil sweeps).
#[derive(Debug, Clone)]
pub struct SeqStream {
    base: u64,
    len: u64,
    stride: u64,
    passes: u64,
    mix: AccessMix,
    reps: u16,
    compute: f64,
    mlp: Option<f64>,
    cursor: u64,
    start: u64,
    wrap_to: u64,
    steps_per_pass: u64,
    step: u64,
    pass: u64,
    counter: u64,
}

impl SeqStream {
    /// Scan `len` bytes starting at `base`, `passes` times, touching one
    /// line (64 bytes) per step.
    ///
    /// # Panics
    /// Panics if `len == 0` or `passes == 0`.
    pub fn new(base: u64, len: u64, passes: u64, mix: AccessMix) -> Self {
        assert!(len > 0 && passes > 0, "empty scan");
        let mut s = Self {
            base,
            len,
            stride: 64,
            passes,
            mix,
            reps: 1,
            compute: 2.0,
            mlp: None,
            cursor: 0,
            start: 0,
            wrap_to: 0,
            steps_per_pass: 0,
            step: 0,
            pass: 0,
            counter: 0,
        };
        s.recompute_steps();
        s
    }

    fn recompute_steps(&mut self) {
        // The phase within a stride is preserved across wraps, so a pass
        // visits the offsets `wrap_to, wrap_to + stride, …` below `len`.
        self.wrap_to = self.start % self.stride;
        self.cursor = self.start;
        self.steps_per_pass = (self.len - self.wrap_to).div_ceil(self.stride);
    }

    /// Set the step in bytes (defaults to one 64-byte line).
    pub fn with_stride(mut self, stride: u64) -> Self {
        assert!(stride > 0);
        self.stride = stride;
        self.recompute_steps();
        self
    }

    /// Start the traversal at byte offset `start` instead of 0, wrapping at
    /// the end. Two uses: rotating co-running threads' traversals so they
    /// do not move through memory in lockstep, and (with a stride larger
    /// than `start`) giving each thread its own disjoint interleaved line
    /// set — the sub-stride phase `start % stride` is preserved across
    /// wraps.
    ///
    /// # Panics
    /// Panics if `start >= len`.
    pub fn with_start(mut self, start: u64) -> Self {
        assert!(start < self.len, "start offset beyond scan length");
        self.start = start;
        self.recompute_steps();
        self
    }

    /// Set element accesses per line (see [`AccessRun::reps`]).
    pub fn with_reps(mut self, reps: u16) -> Self {
        assert!(reps >= 1);
        self.reps = reps;
        self
    }

    /// Set compute cycles between memory operations.
    pub fn with_compute(mut self, cycles: f64) -> Self {
        assert!(cycles >= 0.0);
        self.compute = cycles;
        self
    }

    /// Override memory-level parallelism.
    pub fn with_mlp(mut self, mlp: f64) -> Self {
        assert!(mlp >= 1.0);
        self.mlp = Some(mlp);
        self
    }
}

impl AccessStream for SeqStream {
    fn next_run(&mut self, max: u64) -> Option<AccessRun> {
        let mut run = self.seq_window()?;
        run.len = run.len.min(max.max(1));
        self.cursor += run.len * self.stride;
        if self.cursor >= self.len {
            self.cursor = self.wrap_to;
        }
        self.step += run.len;
        if self.step == self.steps_per_pass {
            self.step = 0;
            self.pass += 1;
        }
        self.counter += run.len;
        Some(run)
    }

    fn seq_window(&self) -> Option<AccessRun> {
        if self.pass == self.passes {
            return None;
        }
        // A run may not cross the wrap point (cursor reset) or the pass
        // boundary (step reset).
        let to_wrap = (self.len - self.cursor).div_ceil(self.stride);
        let to_pass_end = self.steps_per_pass - self.step;
        Some(AccessRun {
            base: self.base + self.cursor,
            stride: self.stride,
            len: to_wrap.min(to_pass_end),
            compute: self.compute,
            mlp: self.mlp,
            reps: self.reps,
            write_every: self.mix.write_every,
            write_phase: store_phase(self.mix.write_every, self.counter + 1),
        })
    }
}

/// Boxed streams delegate every method, so boxing never silently
/// downgrades a stream's fast paths to the advisory defaults.
impl<S: AccessStream + ?Sized> AccessStream for Box<S> {
    #[inline]
    fn next_run(&mut self, max: u64) -> Option<AccessRun> {
        (**self).next_run(max)
    }

    #[inline]
    fn seq_window(&self) -> Option<AccessRun> {
        (**self).seq_window()
    }

    #[inline]
    fn next_zip(&mut self, line_step: u64, max_iters: u64, lanes: &mut Vec<AccessRun>) -> u64 {
        (**self).next_zip(line_step, max_iters, lanes)
    }
}

/// Uniform random line accesses within `[base, base + len)` — the pattern
/// of Streamcluster's distance computations over the shared `block` array.
#[derive(Debug, Clone)]
pub struct RandomStream {
    base: u64,
    /// The line draw: uniform over the range's lines.
    lines: Uniform<u64>,
    remaining: u64,
    mix: AccessMix,
    reps: u16,
    compute: f64,
    mlp: Option<f64>,
    rng: StdRng,
    /// Accesses issued so far, modulo the store period (0 when read-only).
    write_phase: u16,
}

impl RandomStream {
    /// `count` random line-granular accesses over `len` bytes at `base`,
    /// deterministic under `seed`.
    ///
    /// # Panics
    /// Panics if `len < 64` or `count == 0`.
    pub fn new(base: u64, len: u64, count: u64, seed: u64, mix: AccessMix) -> Self {
        assert!(len >= 64 && count > 0, "degenerate random stream");
        Self {
            base,
            lines: Uniform::new(0, len / 64),
            remaining: count,
            mix,
            reps: 1,
            compute: 4.0,
            mlp: None,
            rng: StdRng::seed_from_u64(seed),
            write_phase: 0,
        }
    }

    /// Set element accesses per line.
    pub fn with_reps(mut self, reps: u16) -> Self {
        assert!(reps >= 1);
        self.reps = reps;
        self
    }

    /// Set compute cycles between memory operations.
    pub fn with_compute(mut self, cycles: f64) -> Self {
        assert!(cycles >= 0.0);
        self.compute = cycles;
        self
    }

    /// Override memory-level parallelism.
    pub fn with_mlp(mut self, mlp: f64) -> Self {
        assert!(mlp >= 1.0);
        self.mlp = Some(mlp);
        self
    }

    /// The next access; the caller has checked `remaining > 0`. Access `k`
    /// (1-based) stores iff `k` is a multiple of the store period.
    #[inline]
    fn draw(&mut self) -> AccessRun {
        self.remaining -= 1;
        let we = self.mix.write_every;
        if we != 0 {
            self.write_phase += 1;
            if self.write_phase == we {
                self.write_phase = 0;
            }
        }
        let line = self.lines.sample(&mut self.rng);
        let is_write = we != 0 && self.write_phase == 0;
        AccessRun::single(self.base + line * 64, is_write, self.reps, self.compute, self.mlp)
    }
}

impl AccessStream for RandomStream {
    #[inline]
    fn next_run(&mut self, _max: u64) -> Option<AccessRun> {
        (self.remaining > 0).then(|| self.draw())
    }

    /// Random lines are independent single accesses: a gather.
    fn next_zip(&mut self, _line_step: u64, max_iters: u64, lanes: &mut Vec<AccessRun>) -> u64 {
        lanes.clear();
        let n = self.remaining.min(max_iters).min(GATHER_MAX);
        for _ in 0..n {
            lanes.push(self.draw());
        }
        (n > 0) as u64
    }
}

/// Dependent pointer chasing over a fixed set of conflicting lines — the
/// bandit micro-benchmark's engine. Every access conflicts with its
/// predecessors in the cache (same set), so each goes to memory, and the
/// chain dependency exposes full latency (`mlp == 1`).
#[derive(Debug, Clone)]
pub struct PointerChaseStream {
    /// Line addresses in chase order (a random cycle).
    ring: Vec<u64>,
    pos: usize,
    remaining: u64,
    compute: f64,
}

impl PointerChaseStream {
    /// Build a chase over `num_lines` lines spaced `stride` bytes apart
    /// starting at `base` (choose `stride = sets × 64` to land every line
    /// in one cache set), shuffled deterministically by `seed`, visited
    /// `count` times in total.
    ///
    /// # Panics
    /// Panics if `num_lines < 2` or `count == 0`.
    pub fn new(base: u64, num_lines: usize, stride: u64, count: u64, seed: u64) -> Self {
        assert!(num_lines >= 2 && count > 0, "degenerate pointer chase");
        let mut ring: Vec<u64> = (0..num_lines as u64).map(|i| base + i * stride).collect();
        // Fisher–Yates with a seeded RNG: a deterministic random cycle.
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..ring.len()).rev() {
            ring.swap(i, rng.gen_range(0..=i));
        }
        Self { ring, pos: 0, remaining: count, compute: 1.0 }
    }

    /// Set compute cycles between chase steps.
    pub fn with_compute(mut self, cycles: f64) -> Self {
        assert!(cycles >= 0.0);
        self.compute = cycles;
        self
    }

    /// The next chase step; the caller has checked `remaining > 0`.
    #[inline]
    fn step(&mut self) -> AccessRun {
        self.remaining -= 1;
        let addr = self.ring[self.pos];
        self.pos += 1;
        if self.pos == self.ring.len() {
            self.pos = 0;
        }
        // Dependent loads: no overlap, whatever the machine default.
        AccessRun::single(addr, false, 1, self.compute, Some(1.0))
    }
}

impl AccessStream for PointerChaseStream {
    #[inline]
    fn next_run(&mut self, _max: u64) -> Option<AccessRun> {
        (self.remaining > 0).then(|| self.step())
    }

    /// Chase steps are single accesses: a gather.
    fn next_zip(&mut self, _line_step: u64, max_iters: u64, lanes: &mut Vec<AccessRun>) -> u64 {
        lanes.clear();
        let n = self.remaining.min(max_iters).min(GATHER_MAX);
        for _ in 0..n {
            lanes.push(self.step());
        }
        (n > 0) as u64
    }
}

/// Round-robin interleaving of several streams — models loops touching
/// multiple arrays per iteration (dotv's `a[i] * b[i]`, IRSmk's 27-array
/// stencil update). Finishes when every sub-stream is exhausted.
pub struct ZipStream {
    streams: Vec<Box<dyn AccessStream>>,
    next: usize,
    exhausted: Vec<bool>,
    live: usize,
    /// One member's pull, in flight during a gather.
    scratch: Vec<AccessRun>,
    /// Accesses each live member gave a gather, in rotation order.
    got: Vec<u64>,
}

impl ZipStream {
    /// Interleave the given streams one access at a time.
    ///
    /// # Panics
    /// Panics if `streams` is empty.
    pub fn new(streams: Vec<Box<dyn AccessStream>>) -> Self {
        assert!(!streams.is_empty(), "ZipStream needs at least one stream");
        let n = streams.len();
        Self { streams, next: 0, exhausted: vec![false; n], live: n, scratch: Vec::new(), got: Vec::new() }
    }

    /// The member after `i` in rotation order.
    #[inline]
    fn after(&self, i: usize) -> usize {
        if i + 1 == self.streams.len() {
            0
        } else {
            i + 1
        }
    }

    /// The interleaved-span pull of [`AccessStream::next_zip`]: every live
    /// member must expose a `line_step`-strided window.
    fn next_span(&mut self, line_step: u64, max_iters: u64, lanes: &mut Vec<AccessRun>) -> u64 {
        // Peek pass: the span length is the shortest window. Nothing has
        // advanced yet, so any bail-out leaves the interleaving untouched.
        let mut iters = max_iters;
        let mut i = self.next;
        for _ in 0..self.streams.len() {
            if !self.exhausted[i] {
                let Some(w) = self.streams[i].seq_window() else {
                    return 0;
                };
                if w.stride != line_step || w.len == 0 {
                    return 0;
                }
                iters = iters.min(w.len);
            }
            i = self.after(i);
        }
        // Below a handful of iterations the lane setup costs more than the
        // per-access path; a gather serves them instead.
        if iters < 4 {
            return 0;
        }
        // Commit pass: pull exactly `iters` lines from each live member in
        // rotation order. Consuming whole iterations starting at `next`
        // leaves the rotation cursor — and thus every future access —
        // where `iters × live` single-access pulls would have left it.
        for _ in 0..self.streams.len() {
            if !self.exhausted[i] {
                let r = self.streams[i].next_run(iters).expect("seq_window promised a non-empty run");
                debug_assert_eq!(r.len, iters, "seq_window window shrank under next_run");
                lanes.push(r);
            }
            i = self.after(i);
        }
        iters
    }

    /// The gather pull of [`AccessStream::next_zip`]: `g` whole iterations
    /// as single accesses, each live member's `g` accesses pulled in bulk
    /// (its own gathers, else its runs) and interleaved. A member that
    /// runs dry within them is exhausted: it would have answered `None` at
    /// its next turn, and the rotation skips it from there on, exactly as
    /// [`ZipStream::next_run`] does.
    fn gather(&mut self, max_iters: u64, lanes: &mut Vec<AccessRun>) -> u64 {
        let live = self.live;
        let g = max_iters.min(GATHER_MAX) / live as u64;
        if g == 0 {
            return 0;
        }
        lanes.resize(g as usize * live, AccessRun::single(0, false, 1, 0.0, None));
        self.got.clear();
        let mut i = self.next;
        for _ in 0..self.streams.len() {
            if !self.exhausted[i] {
                let rank = self.got.len();
                let mut have = 0u64;
                while have < g {
                    let s = &mut self.streams[i];
                    self.scratch.clear();
                    // Line step 0: single accesses only, never a span.
                    let iters = s.next_zip(0, g - have, &mut self.scratch);
                    debug_assert!(iters <= 1 && self.scratch.len() as u64 <= g - have, "gather over its cap");
                    if iters == 0 {
                        match s.next_run(g - have) {
                            Some(r) => r.push_singles(&mut self.scratch),
                            None => {
                                self.exhausted[i] = true;
                                self.live -= 1;
                                break;
                            }
                        }
                    }
                    for r in &self.scratch {
                        lanes[have as usize * live + rank] = *r;
                        have += 1;
                    }
                }
                self.got.push(have);
            }
            i = self.after(i);
        }
        if self.got.iter().any(|&h| h < g) {
            // Close the gaps the drained members left, keeping issue order.
            let mut kept = 0;
            for slot in 0..lanes.len() {
                if ((slot / live) as u64) < self.got[slot % live] {
                    lanes[kept] = lanes[slot];
                    kept += 1;
                }
            }
            lanes.truncate(kept);
        }
        (!lanes.is_empty()) as u64
    }
}

impl AccessStream for ZipStream {
    fn next_run(&mut self, max: u64) -> Option<AccessRun> {
        for _ in 0..self.streams.len() {
            let i = self.next;
            self.next = self.after(i);
            if self.exhausted[i] {
                continue;
            }
            // With several live members the interleaving itself limits a
            // run to one access; once only one member remains it may hand
            // out full runs.
            let cap = if self.live == 1 { max } else { 1 };
            if let Some(r) = self.streams[i].next_run(cap) {
                return Some(r);
            }
            self.exhausted[i] = true;
            self.live -= 1;
        }
        None
    }

    /// An interleaved span when every live member is sequential, else a
    /// gather; with one member left, that member's own answer.
    fn next_zip(&mut self, line_step: u64, max_iters: u64, lanes: &mut Vec<AccessRun>) -> u64 {
        lanes.clear();
        match self.live {
            0 => 0,
            1 => {
                let i = self.exhausted.iter().position(|&e| !e).expect("one live member");
                self.streams[i].next_zip(line_step, max_iters, lanes)
            }
            _ if max_iters == 0 => 0,
            _ => match self.next_span(line_step, max_iters, lanes) {
                0 => self.gather(max_iters, lanes),
                iters => iters,
            },
        }
    }
}

/// Block-cyclic traversal: of the blocks of `block` bytes tiling
/// `[base, base + len)`, this stream visits blocks `phase, phase + way,
/// phase + 2·way, …`, scanning each block line by line. With `way` set to
/// the thread count and `phase` to the thread id, co-running threads cover
/// the whole range with disjoint line sets and no cache-set aliasing —
/// the shape of a wavefront sweep over a shared matrix.
#[derive(Debug, Clone)]
pub struct BlockCyclicStream {
    base: u64,
    len: u64,
    block: u64,
    way: u64,
    phase: u64,
    passes: u64,
    mix: AccessMix,
    reps: u16,
    compute: f64,
    /// Current block index and byte offset within it.
    cur_block: u64,
    cur_off: u64,
    pass: u64,
    counter: u64,
}

impl BlockCyclicStream {
    /// Build a block-cyclic stream.
    ///
    /// # Panics
    /// Panics if dimensions are degenerate, `phase >= way`, or the range
    /// has no block for this phase.
    pub fn new(base: u64, len: u64, block: u64, way: u64, phase: u64, passes: u64, mix: AccessMix) -> Self {
        assert!(len > 0 && block > 0 && passes > 0 && way > 0, "degenerate block-cyclic stream");
        assert!(phase < way, "phase must be below the way count");
        assert!(phase * block < len, "no block for this phase in the range");
        Self {
            base,
            len,
            block,
            way,
            phase,
            passes,
            mix,
            reps: 1,
            compute: 2.0,
            cur_block: phase,
            cur_off: 0,
            pass: 0,
            counter: 0,
        }
    }

    /// Set element accesses per line.
    pub fn with_reps(mut self, reps: u16) -> Self {
        assert!(reps >= 1);
        self.reps = reps;
        self
    }

    /// Set compute cycles between memory operations.
    pub fn with_compute(mut self, cycles: f64) -> Self {
        assert!(cycles >= 0.0);
        self.compute = cycles;
        self
    }
}

impl AccessStream for BlockCyclicStream {
    fn next_run(&mut self, max: u64) -> Option<AccessRun> {
        let mut run = self.seq_window()?;
        run.len = run.len.min(max.max(1));
        self.counter += run.len;
        // Advance: further into the block, next owned block, or next pass.
        self.cur_off += 64 * run.len;
        if self.cur_off >= self.block || self.cur_block * self.block + self.cur_off >= self.len {
            self.cur_off = 0;
            self.cur_block += self.way;
            if self.cur_block * self.block >= self.len {
                self.cur_block = self.phase;
                self.pass += 1;
            }
        }
        Some(run)
    }

    fn seq_window(&self) -> Option<AccessRun> {
        if self.pass == self.passes {
            return None;
        }
        let block_start = self.cur_block * self.block;
        // A run stays within the current block's in-range lines.
        let in_block = (self.block - self.cur_off).div_ceil(64);
        let in_range = (self.len - block_start - self.cur_off).div_ceil(64);
        Some(AccessRun {
            base: self.base + block_start + self.cur_off,
            stride: 64,
            len: in_block.min(in_range),
            compute: self.compute,
            mlp: None,
            reps: self.reps,
            write_every: self.mix.write_every,
            write_phase: store_phase(self.mix.write_every, self.counter + 1),
        })
    }
}

/// Wraps a stream, overriding its memory-level parallelism — e.g. a bandit
/// instance running `k` independent pointer-chase streams keeps `k` misses
/// in flight even though each chain alone has `mlp == 1`.
pub struct WithMlp<S> {
    inner: S,
    mlp: f64,
}

impl<S: AccessStream> WithMlp<S> {
    /// Override `inner`'s MLP.
    ///
    /// # Panics
    /// Panics if `mlp < 1`.
    pub fn new(inner: S, mlp: f64) -> Self {
        assert!(mlp >= 1.0, "mlp must be at least 1");
        Self { inner, mlp }
    }
}

/// Every run the wrapper hands out — pulled, peeked, or as a zip lane —
/// carries the override, so wrapping keeps the inner stream's fast paths.
impl<S: AccessStream> AccessStream for WithMlp<S> {
    fn next_run(&mut self, max: u64) -> Option<AccessRun> {
        Some(AccessRun { mlp: Some(self.mlp), ..self.inner.next_run(max)? })
    }

    fn seq_window(&self) -> Option<AccessRun> {
        Some(AccessRun { mlp: Some(self.mlp), ..self.inner.seq_window()? })
    }

    fn next_zip(&mut self, line_step: u64, max_iters: u64, lanes: &mut Vec<AccessRun>) -> u64 {
        let iters = self.inner.next_zip(line_step, max_iters, lanes);
        for lane in lanes.iter_mut() {
            lane.mlp = Some(self.mlp);
        }
        iters
    }
}

/// Sequential composition of streams — phases within one thread.
pub struct ChainStream {
    streams: Vec<Box<dyn AccessStream>>,
    current: usize,
}

impl ChainStream {
    /// Run the given streams back to back.
    ///
    /// # Panics
    /// Panics if `streams` is empty.
    pub fn new(streams: Vec<Box<dyn AccessStream>>) -> Self {
        assert!(!streams.is_empty(), "ChainStream needs at least one stream");
        Self { streams, current: 0 }
    }
}

impl AccessStream for ChainStream {
    fn next_run(&mut self, max: u64) -> Option<AccessRun> {
        while self.current < self.streams.len() {
            if let Some(r) = self.streams[self.current].next_run(max) {
                return Some(r);
            }
            self.current += 1;
        }
        None
    }

    /// The current segment's window; `None` once it is drained (the next
    /// segment starts only when a run pull finds it so).
    fn seq_window(&self) -> Option<AccessRun> {
        self.streams.get(self.current)?.seq_window()
    }

    /// The current segment's interleaved span, so a zipped segment keeps
    /// its fast path inside a chain.
    fn next_zip(&mut self, line_step: u64, max_iters: u64, lanes: &mut Vec<AccessRun>) -> u64 {
        match self.streams.get_mut(self.current) {
            Some(s) => s.next_zip(line_step, max_iters, lanes),
            None => {
                lanes.clear();
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One access of a drained stream, with the costs its run carried.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Step {
        addr: u64,
        is_write: bool,
        reps: u16,
        compute: f64,
        mlp: Option<f64>,
    }

    fn expand(r: &AccessRun, out: &mut Vec<Step>) {
        assert!(r.len >= 1, "empty run");
        for i in 0..r.len {
            out.push(Step {
                addr: r.addr(i),
                is_write: r.is_write_at(i),
                reps: r.reps,
                compute: r.compute,
                mlp: r.mlp,
            });
        }
        assert!(out.len() < 1_000_000, "stream failed to terminate");
    }

    /// The stream's access sequence, pulled one access at a time.
    fn drain(mut s: impl AccessStream) -> Vec<Step> {
        drain_runs(&mut s, &[1])
    }

    /// Drain a stream via `next_run`, cycling through a schedule of `max`
    /// caps, and expand every run back into individual accesses.
    fn drain_runs(s: &mut dyn AccessStream, schedule: &[u64]) -> Vec<Step> {
        let mut v = Vec::new();
        for k in 0.. {
            let cap = schedule[k % schedule.len()];
            let Some(r) = s.next_run(cap) else { break };
            assert!(r.len <= cap, "run exceeds cap");
            expand(&r, &mut v);
        }
        v
    }

    #[test]
    fn seq_stream_visits_every_line_once_per_pass() {
        let accs = drain(SeqStream::new(0, 64 * 10, 2, AccessMix::read_only()));
        assert_eq!(accs.len(), 20);
        assert_eq!(accs[0].addr, 0);
        assert_eq!(accs[9].addr, 64 * 9);
        assert_eq!(accs[10].addr, 0, "second pass restarts");
        assert!(accs.iter().all(|a| !a.is_write));
    }

    #[test]
    fn seq_stream_stride_and_reps() {
        let accs = drain(SeqStream::new(0, 1024, 1, AccessMix::read_only()).with_stride(256).with_reps(8));
        assert_eq!(accs.len(), 4);
        assert!(accs.iter().all(|a| a.reps == 8));
        assert_eq!(accs[1].addr, 256);
    }

    #[test]
    fn write_mix_period() {
        let accs = drain(SeqStream::new(0, 64 * 8, 1, AccessMix::write_every(4)));
        let writes = accs.iter().filter(|a| a.is_write).count();
        assert_eq!(writes, 2);
        let all_writes = drain(SeqStream::new(0, 64 * 8, 1, AccessMix::write_only()));
        assert!(all_writes.iter().all(|a| a.is_write));
    }

    #[test]
    fn random_stream_in_bounds_and_deterministic() {
        let a1 = drain(RandomStream::new(4096, 64 * 100, 500, 42, AccessMix::read_only()));
        let a2 = drain(RandomStream::new(4096, 64 * 100, 500, 42, AccessMix::read_only()));
        assert_eq!(a1, a2, "same seed, same stream");
        assert_eq!(a1.len(), 500);
        for a in &a1 {
            assert!(a.addr >= 4096 && a.addr < 4096 + 6400);
            assert_eq!(a.addr % 64, 0);
        }
        let a3 = drain(RandomStream::new(4096, 64 * 100, 500, 43, AccessMix::read_only()));
        assert_ne!(a1, a3, "different seed, different stream");
    }

    #[test]
    fn pointer_chase_is_a_cycle_over_all_lines() {
        let n = 16;
        let accs = drain(PointerChaseStream::new(0, n, 4096, n as u64, 7));
        let mut addrs: Vec<u64> = accs.iter().map(|a| a.addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), n, "one pass visits every line exactly once");
        // Dependent chain: mlp forced to 1.
        assert!(accs.iter().all(|a| a.mlp == Some(1.0)));
    }

    #[test]
    fn pointer_chase_conflicting_stride() {
        // stride chosen so all lines share cache set 0 for a 64-set cache
        let accs = drain(PointerChaseStream::new(0, 8, 64 * 64, 8, 1));
        for a in &accs {
            assert_eq!((a.addr / 64) % 64, 0, "all lines map to set 0");
        }
    }

    #[test]
    fn zip_alternates() {
        let s1 = SeqStream::new(0, 64 * 2, 1, AccessMix::read_only());
        let s2 = SeqStream::new(1 << 20, 64 * 2, 1, AccessMix::read_only());
        let accs = drain(ZipStream::new(vec![Box::new(s1), Box::new(s2)]));
        assert_eq!(accs.len(), 4);
        assert!(accs[0].addr < 1 << 20);
        assert!(accs[1].addr >= 1 << 20);
        assert!(accs[2].addr < 1 << 20);
    }

    #[test]
    fn zip_drains_uneven_streams() {
        let s1 = SeqStream::new(0, 64, 1, AccessMix::read_only()); // 1 access
        let s2 = SeqStream::new(1 << 20, 64 * 5, 1, AccessMix::read_only()); // 5
        let accs = drain(ZipStream::new(vec![Box::new(s1), Box::new(s2)]));
        assert_eq!(accs.len(), 6);
    }

    #[test]
    fn chain_runs_phases_in_order() {
        let s1 = SeqStream::new(0, 64 * 3, 1, AccessMix::read_only());
        let s2 = SeqStream::new(1 << 20, 64 * 2, 1, AccessMix::read_only());
        let accs = drain(ChainStream::new(vec![Box::new(s1), Box::new(s2)]));
        assert_eq!(accs.len(), 5);
        assert!(accs[..3].iter().all(|a| a.addr < 1 << 20));
        assert!(accs[3..].iter().all(|a| a.addr >= 1 << 20));
    }

    #[test]
    fn with_start_rotates_and_keeps_pass_length() {
        let accs = drain(SeqStream::new(0, 64 * 4, 2, AccessMix::read_only()).with_start(64 * 2));
        assert_eq!(accs.len(), 8, "rotation must not change total work");
        let addrs: Vec<u64> = accs.iter().map(|a| a.addr).collect();
        assert_eq!(addrs, [128, 192, 0, 64, 128, 192, 0, 64]);
    }

    #[test]
    fn with_start_and_stride_gives_disjoint_phases() {
        // Four threads interleave-partitioning 16 lines: thread 1 touches
        // lines 1, 5, 9, 13 in every pass.
        let accs = drain(SeqStream::new(0, 64 * 16, 2, AccessMix::read_only()).with_stride(64 * 4).with_start(64));
        assert_eq!(accs.len(), 8);
        let addrs: Vec<u64> = accs.iter().map(|a| a.addr / 64).collect();
        assert_eq!(addrs, [1, 5, 9, 13, 1, 5, 9, 13]);
    }

    #[test]
    #[should_panic(expected = "beyond scan length")]
    fn with_start_bounds_checked() {
        SeqStream::new(0, 64, 1, AccessMix::read_only()).with_start(64);
    }

    #[test]
    fn block_cyclic_visits_owned_blocks_line_by_line() {
        // 4 blocks of 2 lines; way 2, phase 1 => blocks 1 and 3.
        let accs = drain(BlockCyclicStream::new(0, 8 * 64, 128, 2, 1, 2, AccessMix::read_only()));
        let lines: Vec<u64> = accs.iter().map(|a| a.addr / 64).collect();
        assert_eq!(lines, [2, 3, 6, 7, 2, 3, 6, 7]);
    }

    #[test]
    fn block_cyclic_partitions_are_disjoint_and_cover() {
        let way = 4u64;
        let mut all: Vec<u64> = Vec::new();
        for phase in 0..way {
            let accs = drain(BlockCyclicStream::new(0, 64 * 64, 256, way, phase, 1, AccessMix::read_only()));
            all.extend(accs.iter().map(|a| a.addr / 64));
        }
        all.sort_unstable();
        let expect: Vec<u64> = (0..64).collect();
        assert_eq!(all, expect, "phases must partition every line exactly once");
    }

    #[test]
    fn block_cyclic_handles_partial_tail_block() {
        // 3.5 blocks: the tail block is shorter but still visited.
        let accs = drain(BlockCyclicStream::new(0, 7 * 64, 128, 2, 1, 1, AccessMix::read_only()));
        let lines: Vec<u64> = accs.iter().map(|a| a.addr / 64).collect();
        assert_eq!(lines, [2, 3, 6]);
    }

    #[test]
    #[should_panic(expected = "phase must be below")]
    fn block_cyclic_phase_bound() {
        BlockCyclicStream::new(0, 1024, 64, 2, 2, 1, AccessMix::read_only());
    }

    #[test]
    fn with_mlp_overrides_only_mlp() {
        let chase = || PointerChaseStream::new(0, 4, 64, 8, 0).with_compute(3.0);
        let want: Vec<Step> = drain(chase()).into_iter().map(|a| Step { mlp: Some(6.0), ..a }).collect();
        assert_eq!(want.len(), 8);
        assert_eq!(drain(WithMlp::new(chase(), 6.0)), want);
    }

    #[test]
    #[should_panic(expected = "mlp must be at least 1")]
    fn with_mlp_rejects_fractional() {
        WithMlp::new(SeqStream::new(0, 64, 1, AccessMix::read_only()), 0.5);
    }

    #[test]
    #[should_panic(expected = "empty scan")]
    fn seq_rejects_zero_len() {
        SeqStream::new(0, 0, 1, AccessMix::read_only());
    }

    #[test]
    #[should_panic(expected = "ambiguous")]
    fn mix_rejects_zero_period() {
        AccessMix::write_every(0);
    }

    /// What a [`drain_zipping`] pass pulled through `next_zip`.
    #[derive(Debug, Default)]
    struct Zipped {
        /// Iterations handed out as interleaved spans.
        span_iters: u64,
        /// Gathers handed out.
        gathers: u64,
    }

    /// Drain a stream the way the engine may: cycling `schedule`, each
    /// pull first offers a `next_zip` of that many iterations and falls
    /// back to a `next_run` of that many accesses, checking `seq_window`'s
    /// peek promise against whatever the run pull returns. Returns the
    /// expanded accesses and what arrived through `next_zip`.
    fn drain_zipping(s: &mut dyn AccessStream, schedule: &[u64]) -> (Vec<Step>, Zipped) {
        let (mut v, mut lanes, mut zipped) = (Vec::new(), Vec::new(), Zipped::default());
        for k in 0.. {
            let cap = schedule[k % schedule.len()];
            let iters = s.next_zip(64, cap, &mut lanes);
            if iters == 1 {
                // A gather: single accesses, in issue order, within both caps.
                assert!(!lanes.is_empty() && lanes.len() as u64 <= cap.min(GATHER_MAX), "{} gathered", lanes.len());
                assert!(lanes.iter().all(|l| l.len == 1), "a gather hands out single accesses");
                zipped.gathers += 1;
                lanes.iter().for_each(|l| expand(l, &mut v));
                continue;
            }
            if iters > 1 {
                assert!(iters <= cap && lanes.len() >= 2, "{iters} iterations over {} lanes", lanes.len());
                assert!(lanes.iter().all(|l| l.len == iters && l.stride == 64), "lanes span the same iterations");
                zipped.span_iters += iters;
                for i in 0..iters {
                    lanes.iter().for_each(|l| expand(&l.nth(i), &mut v));
                }
                continue;
            }
            assert!(lanes.is_empty(), "a refused zip must hand back no lanes");
            let window = s.seq_window();
            let Some(r) = s.next_run(cap) else {
                assert_eq!(window, None, "a drained stream has no window");
                break;
            };
            assert!(r.len <= cap, "run exceeds cap");
            if let Some(w) = window {
                assert_eq!(r, AccessRun { len: w.len.min(cap), ..w }, "run is not a prefix of the peeked window");
            }
            expand(&r, &mut v);
        }
        (v, zipped)
    }

    /// The stream contract: the access sequence — address, direction, reps,
    /// compute, mlp — does not depend on how it is pulled. Every stream
    /// type and wrapper composition, under every schedule of `max` values
    /// with `next_zip` pulls interleaved, yields its `max = 1` sequence.
    /// Interleaved spans and gathers each arrive where they must: spans
    /// from zips of sequential lanes, gathers from random and chase
    /// streams and from zips with such a member (members that run dry
    /// inside a gather included), under every schedule whose cap leaves
    /// each live member one access.
    #[test]
    fn access_sequence_is_invariant_under_chunking() {
        type Make = Box<dyn Fn() -> Box<dyn AccessStream>>;
        type Lanes = Vec<Box<dyn AccessStream>>;
        // Three sequential lanes of different lengths, reps and mixes.
        let seq3 = || -> Lanes {
            vec![
                Box::new(SeqStream::new(0, 64 * 40, 2, AccessMix::read_only()).with_reps(4)),
                Box::new(SeqStream::new(1 << 20, 64 * 24, 1, AccessMix::read_only())),
                Box::new(SeqStream::new(2 << 20, 64 * 40, 2, AccessMix::write_every(9)).with_reps(2).with_compute(7.0)),
            ]
        };
        // NW-shaped: block-cyclic lanes with different block sizes, so the
        // windows end at different iterations, and a partial tail block.
        let blocks = || -> Lanes {
            vec![
                Box::new(BlockCyclicStream::new(0, 64 * 100, 64 * 16, 2, 1, 2, AccessMix::write_every(6))),
                Box::new(WithMlp::new(
                    BlockCyclicStream::new(1 << 20, 64 * 90, 64 * 12, 3, 0, 2, AccessMix::read_only()).with_reps(2),
                    2.0,
                )),
                Box::new(SeqStream::new(2 << 20, 64 * 50, 1, AccessMix::write_every(5))),
            ]
        };
        // IRSmk-shaped: 29 lanes of staggered lengths and periods.
        let wide = || -> Lanes {
            (0..29u64)
                .map(|i| {
                    let mix = if i % 3 == 0 { AccessMix::read_only() } else { AccessMix::write_every(i as u32) };
                    Box::new(SeqStream::new(i << 20, 64 * (20 + i), 2, mix)) as Box<dyn AccessStream>
                })
                .collect()
        };
        let random =
            |count: u64, seed: u64| RandomStream::new(3 << 20, 64 * 64, count, seed, AccessMix::write_every(3));
        let chase = |base: u64, count: u64| PointerChaseStream::new(base << 20, 8, 4096, count, base);
        // (stream, interleaved spans expected, gathers expected); `None`
        // leaves gathers free — a zip of sequential lanes gathers across
        // windows too short for a span.
        let makers: Vec<(Make, bool, Option<bool>)> = vec![
            (Box::new(|| Box::new(SeqStream::new(0, 64 * 37, 3, AccessMix::write_every(4)))), false, Some(false)),
            (
                Box::new(|| {
                    Box::new(SeqStream::new(0, 64 * 16, 2, AccessMix::write_only()).with_stride(64 * 4).with_start(64))
                }),
                false,
                Some(false),
            ),
            (
                Box::new(|| {
                    Box::new(SeqStream::new(0, 1024, 2, AccessMix::write_every(1)).with_stride(256).with_reps(8))
                }),
                false,
                Some(false),
            ),
            (
                Box::new(|| Box::new(BlockCyclicStream::new(0, 7 * 64, 128, 2, 1, 3, AccessMix::write_every(2)))),
                false,
                Some(false),
            ),
            (
                Box::new(|| Box::new(BlockCyclicStream::new(0, 64 * 64, 256, 4, 3, 2, AccessMix::read_only()))),
                false,
                Some(false),
            ),
            (Box::new(move || Box::new(random(100, 42))), false, Some(true)),
            (Box::new(move || Box::new(chase(0, 20))), false, Some(true)),
            (
                Box::new(|| {
                    Box::new(ChainStream::new(vec![
                        Box::new(SeqStream::new(0, 64 * 5, 1, AccessMix::read_only())),
                        Box::new(WithMlp::new(
                            BlockCyclicStream::new(1 << 20, 8 * 64, 128, 2, 0, 1, AccessMix::write_every(3)),
                            2.0,
                        )),
                    ]))
                }),
                false,
                Some(false),
            ),
            (
                Box::new(|| Box::new(WithMlp::new(SeqStream::new(0, 64 * 11, 2, AccessMix::write_every(5)), 6.0))),
                false,
                Some(false),
            ),
            (Box::new(move || Box::new(WithMlp::new(random(90, 8).with_reps(2), 3.0))), false, Some(true)),
            (Box::new(move || Box::new(ZipStream::new(seq3()))), true, None),
            (Box::new(move || Box::new(ZipStream::new(blocks()))), true, None),
            (Box::new(move || Box::new(ZipStream::new(wide()))), true, None),
            (Box::new(move || Box::new(WithMlp::new(ZipStream::new(seq3()), 3.0))), true, None),
            (
                Box::new(move || {
                    let seq = SeqStream::new(4 << 20, 64 * 30, 1, AccessMix::read_only());
                    Box::new(ChainStream::new(vec![
                        Box::new(ZipStream::new(vec![Box::new(random(30, 5)), Box::new(seq)])),
                        Box::new(ZipStream::new(seq3())),
                    ]))
                }),
                true,
                Some(true),
            ),
            // Bandit-shaped: four chases of different lengths, so members
            // run dry inside gathers one after another.
            (
                Box::new(move || {
                    let chases = (1..5u64).map(|i| Box::new(chase(i, 9 * i)) as Box<dyn AccessStream>);
                    Box::new(WithMlp::new(ZipStream::new(chases.collect()), 4.0))
                }),
                false,
                Some(true),
            ),
            // A random member that drains long before its sequential
            // partner, and a zip nested as a member.
            (
                Box::new(move || {
                    let seq = SeqStream::new(4 << 20, 64 * 40, 2, AccessMix::write_every(7)).with_reps(2);
                    Box::new(ZipStream::new(vec![Box::new(seq), Box::new(random(11, 2))]))
                }),
                false,
                Some(true),
            ),
            (
                Box::new(move || {
                    let inner = ZipStream::new(vec![Box::new(random(25, 3)), Box::new(chase(5, 17))]);
                    let seq = SeqStream::new(4 << 20, 64 * 30, 1, AccessMix::read_only());
                    Box::new(ZipStream::new(vec![Box::new(inner), Box::new(seq)]))
                }),
                false,
                Some(true),
            ),
        ];
        for (n, (make, spans, gathers)) in makers.iter().enumerate() {
            let want = drain(make());
            for schedule in [&[1u64][..], &[7], &[64], &[u64::MAX], &[1, 7, 64, u64::MAX]] {
                assert_eq!(drain_runs(make().as_mut(), schedule), want, "stream {n}, runs only, {schedule:?}");
                let (got, zipped) = drain_zipping(make().as_mut(), schedule);
                assert_eq!(got, want, "stream {n}, zips interleaved, {schedule:?}");
                let wide_cap = schedule != [1];
                assert_eq!(zipped.span_iters > 0, *spans && wide_cap, "stream {n}: {zipped:?} under {schedule:?}");
                if let Some(g) = gathers {
                    assert!(!wide_cap || (zipped.gathers > 0) == *g, "stream {n}: {zipped:?} under {schedule:?}");
                }
            }
        }
    }

    /// The wrapper keeps the inner stream's interleaved fast path: the
    /// lanes are the inner's, each carrying the override.
    #[test]
    fn with_mlp_forwards_zip_lanes_with_the_override() {
        let zip = || {
            ZipStream::new(vec![
                Box::new(SeqStream::new(0, 64 * 16, 1, AccessMix::read_only())) as Box<dyn AccessStream>,
                Box::new(SeqStream::new(1 << 20, 64 * 16, 1, AccessMix::write_every(3)).with_mlp(9.0)),
            ])
        };
        let (mut want, mut got) = (Vec::new(), Vec::new());
        assert_eq!(zip().next_zip(64, 8, &mut want), 8);
        assert_eq!(WithMlp::new(zip(), 5.0).next_zip(64, 8, &mut got), 8);
        want.iter_mut().for_each(|l| l.mlp = Some(5.0));
        assert_eq!(got, want);
        assert_eq!(got.len(), 2);
        // And its peek, for a wrapped sequential member of an outer zip.
        let seq = || SeqStream::new(0, 64 * 16, 1, AccessMix::read_only());
        let window = seq().seq_window().map(|w| AccessRun { mlp: Some(5.0), ..w });
        assert_eq!(WithMlp::new(seq(), 5.0).seq_window(), window);
    }

    #[test]
    fn chain_runs_carry_per_segment_costs() {
        let make = || {
            ChainStream::new(vec![
                Box::new(SeqStream::new(0, 64 * 3, 1, AccessMix::read_only()).with_compute(2.0))
                    as Box<dyn AccessStream>,
                Box::new(WithMlp::new(
                    SeqStream::new(1 << 20, 64 * 2, 1, AccessMix::read_only()).with_compute(9.0),
                    2.0,
                )),
            ])
        };
        for schedule in [&[1u64][..], &[u64::MAX]] {
            let mut s = make();
            let got = drain_runs(&mut s, schedule);
            assert_eq!(got.len(), 5);
            for a in &got[..3] {
                assert!(a.addr < 1 << 20);
                assert_eq!((a.compute, a.mlp), (2.0, None), "first segment costs");
            }
            for a in &got[3..] {
                assert!(a.addr >= 1 << 20);
                assert_eq!((a.compute, a.mlp), (9.0, Some(2.0)), "second segment costs");
            }
        }
    }

    #[test]
    fn zip_skips_exhausted_member_when_reporting_costs() {
        // One short expensive member, one long cheap member. Costs are
        // reported by the runs alone, so every run — interleaved or, once
        // the short member has drained, a long tail run — must carry the
        // costs of the member that produced it.
        let make = || {
            ZipStream::new(vec![
                Box::new(SeqStream::new(0, 64 * 2, 1, AccessMix::read_only()).with_compute(10.0))
                    as Box<dyn AccessStream>,
                Box::new(WithMlp::new(
                    SeqStream::new(1 << 20, 64 * 6, 1, AccessMix::read_only()).with_compute(1.0),
                    3.0,
                )),
            ])
        };
        for schedule in [&[1u64][..], &[7], &[1, 7, 64, u64::MAX]] {
            let got = drain_runs(&mut make(), schedule);
            let short: Vec<bool> = got.iter().map(|a| a.addr < 1 << 20).collect();
            assert_eq!(short, [true, false, true, false, false, false, false, false], "short, long, short, long…");
            for a in &got {
                let expect = if a.addr < 1 << 20 { (10.0, None) } else { (1.0, Some(3.0)) };
                assert_eq!((a.compute, a.mlp), expect, "run cost must come from the producing member");
            }
        }
        // The tail really is one run once the zip has seen the short
        // member drain: four interleaved pulls, then the long member's rest.
        let mut zip = make();
        let lens: Vec<u64> = std::iter::from_fn(|| zip.next_run(u64::MAX)).map(|r| r.len).collect();
        assert_eq!(lens, [1, 1, 1, 1, 4]);
    }

    #[test]
    fn run_pattern_matches_the_mix_across_wrap_and_pass() {
        // A rotated two-pass scan hands out runs that end at the wrap point
        // and at the pass boundary; the store pattern must carry the
        // stream's counter across both.
        let make = || SeqStream::new(0, 64 * 23, 2, AccessMix::write_every(5)).with_start(64 * 9).with_reps(2);
        let oracle = drain(make());
        assert!(oracle.iter().any(|a| a.is_write) && oracle.iter().any(|a| !a.is_write));
        let mut s = make();
        let (mut at, mut runs) = (0, 0);
        while let Some(r) = s.next_run(u64::MAX) {
            runs += 1;
            for i in 0..r.len {
                let one = r.nth(i);
                assert_eq!((one.base, one.len, one.reps), (r.addr(i), 1, r.reps));
                assert_eq!(one.is_write_at(0), r.is_write_at(i));
                assert_eq!(r.is_write_at(i), oracle[at].is_write, "access {at}");
                at += 1;
            }
        }
        assert_eq!(at, oracle.len());
        assert!(runs >= 4, "expected a wrap and a pass boundary, got {runs} runs");
    }

    #[test]
    fn run_descriptor_stays_small() {
        // Returned by value through two virtual calls per access on the
        // pointer-chase and random lanes.
        assert!(std::mem::size_of::<AccessRun>() <= 56);
    }

    #[test]
    #[should_panic(expected = "16-bit pattern")]
    fn mix_rejects_period_wider_than_the_run_pattern() {
        AccessMix::write_every(1 << 16);
    }

    #[test]
    fn block_cyclic_window_is_the_next_unbounded_run() {
        // 3.5 blocks of 4 lines, two passes: full blocks, a block shrunk by
        // a partial pull, the partial tail block, the last pass, and the
        // drained stream.
        let mut s = BlockCyclicStream::new(0, 14 * 64, 256, 2, 1, 2, AccessMix::write_every(3)).with_reps(2);
        let mut lens = Vec::new();
        for cap in [u64::MAX, 1, u64::MAX, 3, u64::MAX, u64::MAX] {
            let w = s.seq_window().expect("stream still live");
            // A clone pulls the whole window; the stream itself may take
            // only part of it and must then expose the shrunken rest.
            assert_eq!(s.clone().next_run(u64::MAX), Some(w));
            lens.push(w.len);
            let r = s.next_run(cap).expect("window promised a run");
            assert_eq!(r, AccessRun { len: w.len.min(cap), ..w });
        }
        assert_eq!(lens, [4, 2, 1, 4, 1, 2], "block 1 and the 2-line tail block 3, twice");
        assert_eq!(s.seq_window(), None);
        assert_eq!(s.next_run(u64::MAX), None);
    }
}
