//! The streaming detector: windowed per-channel classification with
//! hysteresis and live top-K diagnosis.
//!
//! Samples arrive as columnar blocks ([`StreamingDetector::ingest_block`]).
//! Each sample is routed to its interconnect channel exactly as the batch
//! pipeline's channel association does (remote traffic to the one channel
//! it traversed, local/cache-hit samples as context for every outgoing
//! channel of their node), into **pane accumulators**
//! (`drbw_core::features::FeatureAccumulator`). When the sample clock
//! crosses a pane boundary, sealed panes are merged
//! into windows, each channel's 13 Table I features are finalized —
//! bit-identical to batch extraction over the window's samples — and the
//! loaded decision tree plus the batch pipeline's minimum-traffic guards
//! produce a raw window verdict. Raw verdicts pass through per-channel
//! [`Hysteresis`] so the stable verdict doesn't flap; transitions are
//! emitted as [`VerdictEvent`]s. Remote samples also feed per-channel
//! space-saving sketches, so culprit data objects can be named live
//! without retaining any sample log.
//!
//! A sorted block takes one pass: per sample a table lookup, one
//! accumulator update and a sketch-key comparison; per run of one pane a
//! split and a merge per route; per run of one sketch key a single
//! offer. An unsorted block falls back to a private sample-at-a-time
//! path, which the tests also keep as the oracle the block pass must
//! match bit for bit.
//!
//! Memory is `O(panes × channels + channels × sketch_k)` — independent of
//! run length.

use crate::hysteresis::{Hysteresis, HysteresisConfig};
use crate::metrics::StreamMetrics;
use crate::topk::{SpaceSaving, TopEntry};
use crate::window::WindowConfig;
use drbw_core::channels::{channel_at, dense_index};
use drbw_core::classifier::{ContentionClassifier, MIN_REMOTE_SAMPLES, MIN_REMOTE_SHARE};
use drbw_core::features::{FeatureAccumulator, FeatureCtx, NUM_SELECTED, REMOTE_COUNT};
use drbw_core::{DrBw, Mode};
use numasim::topology::{ChannelId, NodeId};
use pebs::alloc::SiteId;
use pebs::block::SampleBlock;
use pebs::sample::MemSample;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Attribution key for the live diagnosis sketches: the allocation site a
/// remote sample touched, or `None` for untracked (static/stack) data.
pub type SketchKey = Option<SiteId>;

/// Streaming detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Nodes of the machine (channels are every ordered pair).
    pub nodes: usize,
    /// Window geometry.
    pub window: WindowConfig,
    /// Verdict debounce thresholds.
    pub hysteresis: HysteresisConfig,
    /// Counters per channel in the live-diagnosis sketch.
    pub sketch_capacity: usize,
    /// Cycle timestamp the window grid is anchored at.
    pub origin_cycles: f64,
    /// Record a [`WindowSummary`] (features and raw verdicts per channel)
    /// for every closed window, for callers that audit window equivalence.
    /// The summaries queue until drained, so leave this off for unbounded
    /// monitoring. A summary is owed for every window, so with this on an
    /// idle gap is walked window by window instead of fast-forwarded: the
    /// time to cross it grows with its length.
    pub record_windows: bool,
}

impl StreamConfig {
    /// A config for an `nodes`-node machine with the given window and all
    /// other knobs at their defaults.
    pub fn new(nodes: usize, window: WindowConfig) -> Self {
        Self {
            nodes,
            window,
            hysteresis: HysteresisConfig::default(),
            sketch_capacity: 16,
            origin_cycles: 0.0,
            record_windows: false,
        }
    }
}

/// A stable-verdict transition on one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictEvent {
    /// The channel whose stable verdict changed.
    pub channel: ChannelId,
    /// The new stable mode.
    pub mode: Mode,
    /// Index of the window that triggered the flip.
    pub window_index: u64,
    /// Cycle timestamp of that window's end boundary.
    pub at_cycles: f64,
    /// Version of the model that classified the triggering window (0
    /// until a versioned model is installed via
    /// [`StreamingDetector::swap_model`] or
    /// [`StreamingDetector::with_model`]).
    pub model_version: u64,
}

/// One channel's state in a closed window.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelWindow {
    /// The channel.
    pub channel: ChannelId,
    /// Its 13 Table I features over the window.
    pub features: [f64; NUM_SELECTED],
    /// Samples that actually traversed the channel in the window (remote
    /// DRAM plus remote LFB fills — the batch guard's count).
    pub traversed: usize,
    /// The un-debounced window verdict.
    pub raw_mode: Mode,
}

/// Everything a closed window produced (recorded only when
/// [`StreamConfig::record_windows`] is set).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Window sequence number (0-based).
    pub index: u64,
    /// Start boundary, cycles.
    pub start_cycles: f64,
    /// End boundary, cycles.
    pub end_cycles: f64,
    /// Whether this window was cut short by [`StreamingDetector::flush`].
    pub partial: bool,
    /// Version of the model that classified every channel of this window
    /// (a window is never split across model versions).
    pub model_version: u64,
    /// Per-channel features and raw verdicts, dense channel order.
    pub channels: Vec<ChannelWindow>,
}

/// Per-channel, per-pane accumulation state.
#[derive(Debug, Clone, Copy, Default)]
struct ChannelPane {
    acc: FeatureAccumulator,
    traversed: usize,
}

/// The online contention detector.
#[derive(Debug, Clone)]
pub struct StreamingDetector {
    /// The model classifying closed windows. Shared (`Arc`) so a service
    /// can hand the same published model to thousands of detectors
    /// without cloning trees.
    classifier: Arc<ContentionClassifier>,
    /// Version tag stamped on verdicts ([`VerdictEvent::model_version`]).
    model_version: u64,
    /// A model swap requested while a window was in flight; installed at
    /// the next window boundary so no window mixes models.
    pending_model: Option<(u64, Arc<ContentionClassifier>)>,
    cfg: StreamConfig,
    nch: usize,
    /// Grid index of the open pane (`None` until the first sample).
    cur_pane: Option<i64>,
    /// The open pane, one slot per channel.
    open: Vec<ChannelPane>,
    /// Sealed panes awaiting window closure, oldest first (≤ `panes`).
    sealed: VecDeque<Vec<ChannelPane>>,
    /// Pane `Vec`s out of use (after a `flush` or `reset`), reused before
    /// any new one is allocated: `open`, `sealed` and `spare` together
    /// never hold more than `panes` of them.
    spare: Vec<Vec<ChannelPane>>,
    hysteresis: Vec<Hysteresis>,
    sketches: Vec<SpaceSaving<SketchKey>>,
    metrics: StreamMetrics,
    windows_closed: u64,
    events: Vec<VerdictEvent>,
    windows: Vec<WindowSummary>,
    /// The block path's route of an admitted sample, at `node * (nodes +
    /// 1) + home` (a missing home counts as `nodes`): a remote channel's
    /// dense index, or `nch + node` for the node's context slot.
    route_of: Vec<usize>,
    /// One run accumulator per route (empty between `ingest_block` calls).
    runs: Vec<FeatureAccumulator>,
    /// Per channel, the block path's last sketch key and how many times
    /// in a row it came: offered when the key changes and when a block
    /// ends, so the count is 0 between `ingest_block` calls.
    pending_offers: Vec<(SketchKey, u64)>,
}

impl StreamingDetector {
    /// A detector running `classifier` under `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg.nodes < 2`, a hysteresis threshold is zero, or the
    /// sketch capacity is zero.
    pub fn new(classifier: ContentionClassifier, cfg: StreamConfig) -> Self {
        Self::with_model(Arc::new(classifier), 0, cfg)
    }

    /// A detector classifying with an already-shared `model`, stamping
    /// verdicts with `version` (the service path: many detectors, one
    /// published model).
    ///
    /// # Panics
    /// Panics if `cfg.nodes < 2`, a hysteresis threshold is zero, or the
    /// sketch capacity is zero.
    pub fn with_model(model: Arc<ContentionClassifier>, version: u64, cfg: StreamConfig) -> Self {
        assert!(cfg.nodes >= 2, "channel association needs at least two nodes");
        let n = cfg.nodes;
        let nch = n * (n - 1);
        let route_of = (0..n)
            .flat_map(|a| (0..=n).map(move |h| if h < n && h != a { dense_index(n, a, h) } else { nch + a }))
            .collect();
        Self {
            classifier: model,
            model_version: version,
            pending_model: None,
            cfg,
            nch,
            cur_pane: None,
            open: vec![ChannelPane::default(); nch],
            sealed: VecDeque::with_capacity(cfg.window.panes()),
            spare: Vec::new(),
            hysteresis: vec![Hysteresis::new(cfg.hysteresis); nch],
            sketches: vec![SpaceSaving::new(cfg.sketch_capacity); nch],
            metrics: StreamMetrics::default(),
            windows_closed: 0,
            events: Vec::new(),
            windows: Vec::new(),
            route_of,
            runs: vec![FeatureAccumulator::new(); nch + n],
            pending_offers: vec![(None, 0); nch],
        }
    }

    /// A detector borrowing a trained [`DrBw`] tool's classifier and
    /// machine shape, with the given window and defaults otherwise.
    pub fn for_tool(tool: &DrBw, window: WindowConfig) -> Self {
        Self::new(tool.classifier().clone(), StreamConfig::new(tool.machine().topology.num_nodes(), window))
    }

    /// The configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Version of the model that will classify the next closed window.
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    /// Install a new classifier, stamped `version`, **at the next window
    /// boundary**: a window already in flight finishes on the model it
    /// started with, so no window is ever classified by two models. When
    /// no window is in flight the swap is immediate. A second swap before
    /// the boundary supersedes the first.
    pub fn swap_model(&mut self, version: u64, model: Arc<ContentionClassifier>) {
        if self.cur_pane.is_none() && self.sealed.is_empty() {
            self.classifier = model;
            self.model_version = version;
            self.pending_model = None;
        } else {
            self.pending_model = Some((version, model));
        }
    }

    /// Re-arm a pooled detector for a fresh session: equivalent to
    /// constructing a new detector with the same config and model, but
    /// reusing the per-channel accumulator, sketch, and hysteresis
    /// allocations. A pending [`StreamingDetector::swap_model`] is
    /// installed immediately (nothing is in flight any more).
    pub fn reset(&mut self) {
        self.cur_pane = None;
        self.open.fill(ChannelPane::default());
        self.spare.extend(self.sealed.drain(..));
        self.hysteresis.fill(Hysteresis::new(self.cfg.hysteresis));
        for s in &mut self.sketches {
            s.clear();
        }
        self.metrics = StreamMetrics::default();
        self.windows_closed = 0;
        self.events.clear();
        self.windows.clear();
        if let Some((version, model)) = self.pending_model.take() {
            self.classifier = model;
            self.model_version = version;
        }
    }

    /// Current metrics snapshot.
    pub fn metrics(&self) -> StreamMetrics {
        self.metrics
    }

    /// The stable (debounced) mode of one channel.
    pub fn current_mode(&self, ch: ChannelId) -> Mode {
        self.hysteresis[dense_index(self.cfg.nodes, ch.src.0 as usize, ch.dst.0 as usize)].state()
    }

    /// Channels whose stable verdict is currently `rmc`, dense order.
    pub fn contended_channels(&self) -> Vec<ChannelId> {
        (0..self.nch)
            .filter(|&i| self.hysteresis[i].state() == Mode::Rmc)
            .map(|i| channel_at(self.cfg.nodes, i))
            .collect()
    }

    /// Live diagnosis: the top `n` attribution keys of one channel's
    /// sketch, by estimated sample count.
    pub fn live_top(&self, ch: ChannelId, n: usize) -> Vec<TopEntry<SketchKey>> {
        self.sketches[dense_index(self.cfg.nodes, ch.src.0 as usize, ch.dst.0 as usize)].top(n)
    }

    /// Live Contribution-Fraction estimate of one attribution key on one
    /// channel.
    pub fn live_cf(&self, ch: ChannelId, key: &SketchKey) -> f64 {
        self.sketches[dense_index(self.cfg.nodes, ch.src.0 as usize, ch.dst.0 as usize)].cf_estimate(key)
    }

    /// Verdict transitions emitted since the last drain.
    pub fn drain_events(&mut self) -> Vec<VerdictEvent> {
        std::mem::take(&mut self.events)
    }

    /// Window summaries recorded since the last drain (empty unless
    /// [`StreamConfig::record_windows`]).
    pub fn drain_windows(&mut self) -> Vec<WindowSummary> {
        std::mem::take(&mut self.windows)
    }

    /// Bytes of state currently retained (pane and route accumulators,
    /// sketches and their pending offers, hysteresis, queued events) — the
    /// streaming pipeline's whole memory footprint, constant in run length.
    pub fn retained_bytes(&self) -> usize {
        let pane = self.nch * std::mem::size_of::<ChannelPane>();
        let panes = (1 + self.sealed.len() + self.spare.len()) * pane;
        let sketches = self.nch * self.cfg.sketch_capacity * std::mem::size_of::<TopEntry<SketchKey>>();
        let fixed = self.nch * (std::mem::size_of::<Hysteresis>() + std::mem::size_of::<(SketchKey, u64)>())
            + self.runs.len() * std::mem::size_of::<FeatureAccumulator>();
        let queued = self.events.capacity() * std::mem::size_of::<VerdictEvent>();
        panes + sketches + fixed + queued
    }

    /// Ingest one sample, attributed to `site` when it hit tracked heap
    /// data: the unsorted-block fallback of `ingest_block`, and the
    /// oracle its tests hold the block pass to. Window closures triggered
    /// by this sample's timestamp run before it is accumulated. A sample
    /// the machine could not have produced (see
    /// [`StreamMetrics::samples_rejected`]) is counted and skipped: it
    /// moves no clock and touches no window.
    fn ingest(&mut self, s: &MemSample, site: SketchKey) {
        let pane = self.cfg.window.pane_index(self.cfg.origin_cycles, s.time);
        if !on_grid(s.time, pane) || !self.admits(s.node, s.home, s.latency) {
            self.metrics.samples_rejected += 1;
            return;
        }
        self.advance_to(pane, 1);
        let a = s.node.0 as usize;
        match s.home {
            Some(h) if h != s.node => {
                let idx = dense_index(self.cfg.nodes, a, h.0 as usize);
                self.open[idx].acc.push(s);
                self.open[idx].traversed += 1;
                self.sketches[idx].offer(site);
            }
            _ => {
                for d in (0..self.cfg.nodes).filter(|&d| d != a) {
                    self.open[dense_index(self.cfg.nodes, a, d)].acc.push(s);
                }
            }
        }
    }

    /// Ingest a columnar block, each sample attributed to the allocation
    /// site in the block's site lane (drive attribution through
    /// `AllocationTracker::attribute_site`; `None` when unknown). This is
    /// equivalent to ingesting each sample in order on its own, but pays
    /// the pane lookup, clock advance and pane update per *run* of
    /// same-pane samples instead of per sample.
    ///
    /// Sorted blocks (the common case — `SampleBlock` tracks the hint on
    /// push) are split into pane runs over the time lane, and each
    /// admitted sample of a run is touched once: routed by table to its
    /// remote channel or its node's context slot, and added to that
    /// route's [`FeatureAccumulator`]. Unsorted blocks fall back to
    /// ingesting one sample at a time; sortedness is a fast path, never a
    /// semantic fork.
    ///
    /// # Equivalence to sample-at-a-time ingestion
    ///
    /// Every pane accumulator, verdict, metric counter, and sketch state
    /// is identical to ingesting one sample at a time: a route's
    /// accumulator merges into the pane's by integer additions (a context
    /// slot folded once and merged into each outgoing channel lands on the
    /// same state), each channel's sketch sees its offers in stream order
    /// (a run of one key as one `offer_n`, that many unit offers), and a
    /// rejected sample is skipped — a run of nothing else moves no clock,
    /// just as a lone rejected sample moves none.
    pub fn ingest_block(&mut self, block: &SampleBlock) {
        if block.is_empty() {
            return;
        }
        if !block.is_sorted() {
            for i in 0..block.len() {
                self.ingest(&block.get(i), block.site(i));
            }
            return;
        }
        let times = block.times();
        let mut lo = 0;
        while lo < times.len() {
            let pane = self.cfg.window.pane_index(self.cfg.origin_cycles, times[lo]);
            // `pane_index` is monotone in time, so within a sorted block
            // the samples of one pane form a contiguous run.
            let hi =
                lo + times[lo..].partition_point(|&t| self.cfg.window.pane_index(self.cfg.origin_cycles, t) == pane);
            // One check per run: every sample of a run shares its pane, and
            // a NaN time leaves a block sorted only when it is alone in it.
            if !on_grid(times[lo], pane) {
                self.metrics.samples_rejected += (hi - lo) as u64;
                lo = hi;
                continue;
            }
            let admitted = self.accumulate_run(block, lo..hi);
            if admitted > 0 {
                self.advance_to(pane, admitted);
                self.drain_runs();
            }
            lo = hi;
        }
        for (sketch, (key, n)) in self.sketches.iter_mut().zip(&mut self.pending_offers) {
            sketch.offer_n(*key, std::mem::take(n));
        }
    }

    /// Whether a sample names nodes of this machine and carries a finite,
    /// non-negative latency — what channel routing and the exact latency
    /// sums need to hold. (`&`, not `&&`: one branch per sample on the
    /// block path instead of three.)
    fn admits(&self, node: NodeId, home: Option<NodeId>, latency: f64) -> bool {
        let on_machine = |n: NodeId| (n.0 as usize) < self.cfg.nodes;
        on_machine(node) & home.is_none_or(on_machine) & (0.0..f64::INFINITY).contains(&latency)
    }

    /// Accumulate the same-pane samples `run` of a block into their routes
    /// and pending sketch offers; count the rejected. Returns the admitted.
    fn accumulate_run(&mut self, block: &SampleBlock, run: Range<usize>) -> u64 {
        let lanes = block.nodes()[run.clone()]
            .iter()
            .zip(&block.homes()[run.clone()])
            .zip(&block.latencies()[run.clone()])
            .zip(&block.sources()[run.clone()])
            .zip(&block.sites()[run.clone()]);
        let mut rejected = 0;
        for ((((&node, &home), &lat), &src), &site) in lanes {
            if !self.admits(node, home, lat) {
                rejected += 1;
                continue;
            }
            let home = home.map_or(self.cfg.nodes, |h| h.0 as usize);
            let route = self.route_of[node.0 as usize * (self.cfg.nodes + 1) + home];
            self.runs[route].push_latency(lat, src);
            if let Some((key, n)) = self.pending_offers.get_mut(route) {
                if *key != site {
                    self.sketches[route].offer_n(*key, *n);
                    (*key, *n) = (site, 0);
                }
                *n += 1;
            }
        }
        self.metrics.samples_rejected += rejected;
        run.len() as u64 - rejected
    }

    /// Move every non-empty run accumulator into the open pane. A context
    /// slot folds once and merges into each of its node's outgoing
    /// channels (the same state by associativity of the integer sums).
    fn drain_runs(&mut self) {
        let n = self.cfg.nodes;
        for (route, run) in self.runs.iter_mut().enumerate().filter(|(_, run)| run.count() > 0) {
            let folded = std::mem::take(run);
            if route < self.nch {
                self.open[route].acc.merge(&folded);
                self.open[route].traversed += folded.count();
            } else {
                let a = route - self.nch;
                for d in (0..n).filter(|&d| d != a) {
                    self.open[dense_index(n, a, d)].acc.merge(&folded);
                }
            }
        }
    }

    /// Account `n` samples arriving for grid pane `pane`, sealing every
    /// pane the clock crossed to get there. Samples for an already-sealed
    /// pane are late: they fold into the open one rather than being lost.
    ///
    /// An idle gap is crossed in closed form once it has nothing left to
    /// say: when every sealed pane is empty and every channel's
    /// hysteresis sits at its `Good` fixed point, each further window is
    /// an empty one that classifies `good` everywhere and changes nothing
    /// but the two window counters — so a far-future timestamp costs a few
    /// windows, not one per pane.
    fn advance_to(&mut self, pane: i64, n: u64) {
        self.metrics.samples_ingested += n;
        let Some(cur) = self.cur_pane else {
            self.cur_pane = Some(pane);
            return;
        };
        if pane < cur {
            self.metrics.late_samples += n;
            return;
        }
        for k in cur..pane {
            self.seal_pane(k, false);
            if k + 1 < pane && self.gap_is_settled() {
                // A stream's first pane holds its first sample, so empty
                // sealed panes mean the window is past its warm-up (every
                // pane from here closes one) and a pending model swap
                // installed at the boundary just crossed.
                debug_assert_eq!(self.sealed.len() + 1, self.cfg.window.panes());
                debug_assert!(self.pending_model.is_none());
                let skipped = pane.abs_diff(k + 1);
                self.windows_closed += skipped;
                self.metrics.windows_classified += skipped;
                break;
            }
        }
        self.cur_pane = Some(pane);
    }

    /// Whether every further empty pane would close a window that leaves
    /// all state but the window counters as it is (see `advance_to`).
    /// Recorded windows are owed one summary each, so they are never
    /// skipped.
    fn gap_is_settled(&self) -> bool {
        !self.cfg.record_windows
            && self.hysteresis.iter().all(Hysteresis::is_settled_good)
            && self.sealed.iter().flatten().all(|ch| ch.acc.count() == 0)
    }

    /// Seal the open pane and close whatever window the stream has
    /// accumulated, even a partial one (end of run). No-op before the
    /// first sample.
    pub fn flush(&mut self) {
        let Some(cur) = self.cur_pane.take() else { return };
        self.seal_pane(cur, true);
        self.spare.extend(self.sealed.drain(..));
    }

    /// Seal the open pane onto the queue as grid pane `index`; when a full
    /// window (or, on `flush`, any window) is available, classify it. The
    /// next open pane reuses the `Vec` that fell out of the window.
    fn seal_pane(&mut self, index: i64, flushing: bool) {
        self.sealed.push_back(std::mem::take(&mut self.open));
        let full = self.sealed.len() == self.cfg.window.panes();
        if full || flushing {
            self.classify_window(index, flushing && !full);
        }
        if full {
            self.spare.extend(self.sealed.pop_front());
        }
        self.open = match self.spare.pop() {
            Some(mut pane) => {
                pane.fill(ChannelPane::default());
                pane
            }
            None => vec![ChannelPane::default(); self.nch],
        };
    }

    /// Merge the sealed panes — the newest being grid pane `last` — into
    /// one window per channel and classify.
    fn classify_window(&mut self, last: i64, partial: bool) {
        let end_cycles = self.cfg.window.pane_end(self.cfg.origin_cycles, last);
        // Both boundaries come from the pane grid, and the normalisation
        // duration is exactly their difference — so batch extraction over
        // [start, end) with `duration = end - start` reproduces these
        // features bit for bit even when the pane width is not exactly
        // representable.
        let start_cycles =
            self.cfg.window.pane_end(self.cfg.origin_cycles, last.saturating_sub(self.sealed.len() as i64));
        // A far-future timestamp can put the window where `f64` no longer
        // resolves its two boundaries; its nominal length stands in.
        let span = end_cycles - start_cycles;
        let nominal = self.sealed.len() as f64 * self.cfg.window.slide_cycles();
        let ctx = FeatureCtx { duration_cycles: if span > 0.0 { span } else { nominal } };
        let index = self.windows_closed;
        self.windows_closed += 1;
        self.metrics.windows_classified += 1;
        let mut channels = Vec::with_capacity(if self.cfg.record_windows { self.nch } else { 0 });
        for i in 0..self.nch {
            let traversed: usize = self.sealed.iter().map(|pane| pane[i].traversed).sum();
            // Guard first: below the traffic minimum the verdict is `good`
            // whatever the features say, so unless a summary needs them
            // they are never merged or finalized.
            let (raw, feats) = if traversed < MIN_REMOTE_SAMPLES && !self.cfg.record_windows {
                (Mode::Good, None)
            } else {
                let mut acc = FeatureAccumulator::new();
                self.sealed.iter().for_each(|pane| acc.merge(&pane[i].acc));
                let feats = acc.finalize(&ctx);
                let raw = if traversed < MIN_REMOTE_SAMPLES || feats[REMOTE_COUNT] < MIN_REMOTE_SHARE {
                    Mode::Good
                } else {
                    self.classifier.predict(&feats)
                };
                (raw, Some(feats))
            };
            if let Some(stable) = self.hysteresis[i].observe(raw) {
                self.metrics.verdict_transitions += 1;
                if stable == Mode::Rmc && self.metrics.first_rmc_verdict_cycles.is_none() {
                    self.metrics.first_rmc_verdict_cycles = Some(end_cycles);
                }
                self.events.push(VerdictEvent {
                    channel: channel_at(self.cfg.nodes, i),
                    mode: stable,
                    window_index: index,
                    at_cycles: end_cycles,
                    model_version: self.model_version,
                });
            }
            if let (true, Some(features)) = (self.cfg.record_windows, feats) {
                channels.push(ChannelWindow {
                    channel: channel_at(self.cfg.nodes, i),
                    features,
                    traversed,
                    raw_mode: raw,
                });
            }
        }
        if self.cfg.record_windows {
            self.windows.push(WindowSummary {
                index,
                start_cycles,
                end_cycles,
                partial,
                model_version: self.model_version,
                channels,
            });
        }
        // The window boundary: a swap requested mid-window installs here,
        // after the in-flight window classified on the model it started
        // with and before the next window's samples accumulate.
        if let Some((version, model)) = self.pending_model.take() {
            self.classifier = model;
            self.model_version = version;
        }
    }
}

/// Whether the pane grid holds time `t`, whose pane index is `pane`: not
/// NaN (which `pane_index` maps to pane 0) and within ±2⁵³ panes, where
/// `pane_end` is exact. The saturated index of an infinite time falls
/// outside, so such a sample cannot seal the panes up to it.
fn on_grid(t: f64, pane: i64) -> bool {
    !t.is_nan() && pane.unsigned_abs() <= 1 << 53
}

#[cfg(test)]
mod tests {
    use super::*;
    use mldt::dataset::Dataset;
    use mldt::tree::TrainConfig;
    use numasim::hierarchy::DataSource;
    use numasim::topology::{CoreId, NodeId, ThreadId};

    /// A classifier whose tree splits on the remote count/latency
    /// features, like the paper's (synthetic training rows).
    fn classifier() -> ContentionClassifier {
        let mut d = Dataset::binary(drbw_core::features::selected_names().iter().map(|s| s.to_string()).collect());
        for i in 0..30 {
            let mut good = [0.0; NUM_SELECTED];
            good[REMOTE_COUNT] = 2.0 + (i % 5) as f64;
            good[REMOTE_COUNT + 1] = 280.0 + i as f64;
            d.push(good.to_vec(), 0);
            let mut rmc = [0.0; NUM_SELECTED];
            rmc[REMOTE_COUNT] = 600.0 + i as f64;
            rmc[REMOTE_COUNT + 1] = 900.0 + 10.0 * i as f64;
            d.push(rmc.to_vec(), 1);
        }
        ContentionClassifier::train(&d, TrainConfig::default())
    }

    fn sample(time: f64, node: u8, home: Option<u8>, source: DataSource, latency: f64) -> MemSample {
        MemSample {
            time,
            addr: 0x1000,
            cpu: CoreId(node as u32 * 8),
            thread: ThreadId(0),
            node: NodeId(node),
            source,
            home: home.map(NodeId),
            latency,
            is_write: false,
        }
    }

    fn ch(src: u8, dst: u8) -> ChannelId {
        ChannelId { src: NodeId(src), dst: NodeId(dst) }
    }

    /// Feed `n` contended-looking remote samples per window into channel
    /// 1→0 for `windows` windows of 1000 cycles.
    fn feed_contended(det: &mut StreamingDetector, windows: usize, n: usize) {
        for w in 0..windows {
            for i in 0..n {
                let t = w as f64 * 1000.0 + (i as f64 + 0.5) * 1000.0 / n as f64;
                det.ingest(&sample(t, 1, Some(0), DataSource::RemoteDram, 950.0), None);
            }
        }
    }

    #[test]
    fn contended_stream_raises_after_hysteresis() {
        let cfg = StreamConfig::new(4, WindowConfig::tumbling(1000.0));
        let mut det = StreamingDetector::new(classifier(), cfg);
        // Three windows of heavy remote traffic; window closures fire on
        // the first sample past each boundary, so raise a fourth window's
        // worth to close the third.
        feed_contended(&mut det, 4, 64);
        let events = det.drain_events();
        assert_eq!(events.len(), 1, "one transition: good → rmc, debounced by 2 windows");
        assert_eq!(events[0].mode, Mode::Rmc);
        assert_eq!(events[0].channel, ch(1, 0));
        assert_eq!(events[0].window_index, 1, "second closed window flips the default up=2 hysteresis");
        assert_eq!(events[0].at_cycles, 2000.0);
        assert_eq!(det.current_mode(ch(1, 0)), Mode::Rmc);
        assert_eq!(det.contended_channels(), vec![ch(1, 0)]);
        assert_eq!(det.metrics().first_rmc_verdict_cycles, Some(2000.0));
        assert!(det.metrics().windows_classified >= 3);
    }

    #[test]
    fn quiet_stream_stays_good() {
        let cfg = StreamConfig::new(4, WindowConfig::tumbling(1000.0));
        let mut det = StreamingDetector::new(classifier(), cfg);
        for w in 0..4 {
            for i in 0..64 {
                let t = w as f64 * 1000.0 + i as f64 * 15.0;
                det.ingest(&sample(t, 1, Some(1), DataSource::LocalDram, 180.0), None);
            }
        }
        det.flush();
        assert!(det.drain_events().is_empty());
        assert!(det.contended_channels().is_empty());
        assert_eq!(det.metrics().first_rmc_verdict_cycles, None);
    }

    #[test]
    fn sparse_remote_traffic_is_guarded_not_classified() {
        let cfg = StreamConfig::new(4, WindowConfig::tumbling(1000.0));
        let mut det = StreamingDetector::new(classifier(), cfg);
        // High-latency remote samples, but fewer than MIN_REMOTE_SAMPLES
        // per window: the guard keeps the tree out of it.
        for w in 0..5 {
            for i in 0..(MIN_REMOTE_SAMPLES - 1) {
                let t = w as f64 * 1000.0 + i as f64 * 10.0;
                det.ingest(&sample(t, 2, Some(0), DataSource::RemoteDram, 1500.0), None);
            }
        }
        det.flush();
        assert!(det.drain_events().is_empty());
        assert_eq!(det.current_mode(ch(2, 0)), Mode::Good);
    }

    #[test]
    fn flush_closes_a_partial_window() {
        let cfg = StreamConfig { record_windows: true, ..StreamConfig::new(2, WindowConfig::sliding(1000.0, 4)) };
        let mut det = StreamingDetector::new(classifier(), cfg);
        det.ingest(&sample(100.0, 0, Some(1), DataSource::RemoteDram, 800.0), None);
        det.ingest(&sample(300.0, 0, Some(1), DataSource::RemoteDram, 800.0), None);
        det.flush();
        let windows = det.drain_windows();
        assert_eq!(windows.len(), 1);
        assert!(windows[0].partial);
        assert_eq!(windows[0].channels.len(), 2);
        assert_eq!(windows[0].channels[dense_index(2, 0, 1)].traversed, 2);
        // Flush resets the stream; new samples start a fresh grid.
        det.ingest(&sample(9000.0, 0, Some(1), DataSource::RemoteDram, 800.0), None);
        assert_eq!(det.metrics().late_samples, 0);
    }

    #[test]
    fn live_sketch_tracks_heavy_site() {
        let cfg = StreamConfig { sketch_capacity: 4, ..StreamConfig::new(2, WindowConfig::tumbling(1000.0)) };
        let mut det = StreamingDetector::new(classifier(), cfg);
        for i in 0..90 {
            det.ingest(&sample(i as f64, 0, Some(1), DataSource::RemoteDram, 900.0), Some(SiteId(7)));
        }
        for i in 0..10 {
            det.ingest(&sample(90.0 + i as f64, 0, Some(1), DataSource::RemoteDram, 900.0), None);
        }
        let top = det.live_top(ch(0, 1), 2);
        assert_eq!(top[0].key, Some(SiteId(7)));
        assert_eq!(top[0].count, 90);
        assert!((det.live_cf(ch(0, 1), &Some(SiteId(7))) - 0.9).abs() < 1e-12);
        assert!((det.live_cf(ch(0, 1), &None) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn idle_gaps_close_empty_windows_with_correct_boundaries() {
        let cfg = StreamConfig { record_windows: true, ..StreamConfig::new(2, WindowConfig::tumbling(1000.0)) };
        let mut det = StreamingDetector::new(classifier(), cfg);
        det.ingest(&sample(100.0, 0, Some(1), DataSource::RemoteDram, 800.0), None);
        // A long idle gap: the next sample lands in pane 3, closing panes
        // 0..=2 as three windows (two of them empty).
        det.ingest(&sample(3400.0, 0, Some(1), DataSource::RemoteDram, 800.0), None);
        let windows = det.drain_windows();
        assert_eq!(windows.len(), 3);
        for (w, end) in windows.iter().zip([1000.0, 2000.0, 3000.0]) {
            assert_eq!((w.start_cycles, w.end_cycles), (end - 1000.0, end));
            assert!(!w.partial);
        }
        assert_eq!(windows[0].channels[dense_index(2, 0, 1)].traversed, 1);
        assert_eq!(windows[1].channels[dense_index(2, 0, 1)].traversed, 0, "idle window is empty");
    }

    #[test]
    fn sliding_window_boundaries_track_the_last_pane() {
        let cfg = StreamConfig { record_windows: true, ..StreamConfig::new(2, WindowConfig::sliding(1000.0, 4)) };
        let mut det = StreamingDetector::new(classifier(), cfg);
        // One sample per 250-cycle pane; the first window closes when pane
        // 4 opens (sealing pane 3), spanning [0, 1000).
        for k in 0..6 {
            det.ingest(&sample(k as f64 * 250.0 + 10.0, 0, Some(1), DataSource::RemoteDram, 800.0), None);
        }
        let windows = det.drain_windows();
        assert_eq!(windows.len(), 2);
        assert_eq!((windows[0].start_cycles, windows[0].end_cycles), (0.0, 1000.0));
        assert_eq!((windows[1].start_cycles, windows[1].end_cycles), (250.0, 1250.0), "slides by one pane");
        assert_eq!(windows[0].channels[dense_index(2, 0, 1)].traversed, 4, "four panes of one sample each");
    }

    /// Regression guard: an idle gap spanning *several* panes of a
    /// sliding window must seal one empty pane per skipped grid index, so
    /// the closed windows stay contiguous on the pane grid (one per
    /// 250-cycle slide, none skipped, none duplicated) and the post-gap
    /// windows blend pre- and post-gap panes with the right counts.
    #[test]
    fn multi_pane_gap_keeps_sliding_windows_contiguous() {
        let cfg = StreamConfig { record_windows: true, ..StreamConfig::new(2, WindowConfig::sliding(1000.0, 4)) };
        let mut det = StreamingDetector::new(classifier(), cfg);
        // Panes 0 and 1 get one sample each...
        det.ingest(&sample(10.0, 0, Some(1), DataSource::RemoteDram, 800.0), None);
        det.ingest(&sample(260.0, 0, Some(1), DataSource::RemoteDram, 800.0), None);
        // ...then the stream goes idle for seven panes: the next sample
        // lands in pane 9, sealing panes 1..=8 in one ingest.
        det.ingest(&sample(2260.0, 0, Some(1), DataSource::RemoteDram, 800.0), None);
        // One more pane advance seals pane 9 (the post-gap sample's pane).
        det.ingest(&sample(2510.0, 0, Some(1), DataSource::RemoteDram, 800.0), None);
        let windows = det.drain_windows();
        assert_eq!(windows.len(), 7, "panes 3..=9 each close one sliding window");
        for (i, w) in windows.iter().enumerate() {
            let end = 1000.0 + 250.0 * i as f64;
            assert_eq!((w.start_cycles, w.end_cycles), (end - 1000.0, end), "window {i} off the pane grid");
            assert!(!w.partial);
        }
        let traversed: Vec<usize> = windows.iter().map(|w| w.channels[dense_index(2, 0, 1)].traversed).collect();
        // [0,1000) holds both pre-gap samples; [250,1250) only pane 1's;
        // the fully-idle slides are empty; [1500,2500) holds pane 9's.
        assert_eq!(traversed, vec![2, 1, 0, 0, 0, 0, 1]);
        assert_eq!(det.metrics().late_samples, 0, "gap handling must not misfile in-order samples as late");
    }

    #[test]
    fn late_samples_are_counted() {
        let cfg = StreamConfig::new(2, WindowConfig::tumbling(100.0));
        let mut det = StreamingDetector::new(classifier(), cfg);
        det.ingest(&sample(250.0, 0, Some(1), DataSource::RemoteDram, 800.0), None);
        det.ingest(&sample(50.0, 0, Some(1), DataSource::RemoteDram, 800.0), None);
        assert_eq!(det.metrics().late_samples, 1);
        assert_eq!(det.metrics().samples_ingested, 2);
    }

    /// A second classifier with the opposite bias: everything above a tiny
    /// remote count is rmc (so the same stream classifies differently and
    /// a swap is observable).
    fn eager_classifier() -> ContentionClassifier {
        let mut d = Dataset::binary(drbw_core::features::selected_names().iter().map(|s| s.to_string()).collect());
        for i in 0..30 {
            let mut good = [0.0; NUM_SELECTED];
            good[REMOTE_COUNT] = 0.5;
            good[REMOTE_COUNT + 1] = 100.0 + i as f64;
            d.push(good.to_vec(), 0);
            let mut rmc = [0.0; NUM_SELECTED];
            rmc[REMOTE_COUNT] = 30.0 + i as f64;
            rmc[REMOTE_COUNT + 1] = 200.0 + i as f64;
            d.push(rmc.to_vec(), 1);
        }
        ContentionClassifier::train(&d, TrainConfig::default())
    }

    /// reset() must be indistinguishable from a fresh detector: same
    /// events, same windows, same metrics over the same input — with the
    /// pane `Vec`s it recycles (from a mid-window flush and from the
    /// panes in flight at the reset) coming back blank.
    #[test]
    fn reset_is_equivalent_to_fresh() {
        let cfg = StreamConfig { record_windows: true, ..StreamConfig::new(4, WindowConfig::sliding(1000.0, 4)) };
        let mut fresh = StreamingDetector::new(classifier(), cfg);
        let mut pooled = StreamingDetector::new(classifier(), cfg);
        // Dirty the pooled detector with a different stream: a flush in
        // the middle of a pane, then a reset with three panes in flight.
        feed_contended(&mut pooled, 6, 48);
        pooled.ingest(&sample(6300.0, 1, Some(0), DataSource::RemoteDram, 950.0), Some(SiteId(3)));
        pooled.flush();
        feed_contended(&mut pooled, 1, 48);
        pooled.reset();
        feed_contended(&mut fresh, 4, 64);
        feed_contended(&mut pooled, 4, 64);
        fresh.flush();
        pooled.flush();
        assert_eq!(fresh.metrics(), pooled.metrics(), "metrics diverged after reset");
        assert_eq!(fresh.drain_events(), pooled.drain_events(), "events diverged after reset");
        let (fw, pw) = (fresh.drain_windows(), pooled.drain_windows());
        assert_eq!(fw.len(), pw.len());
        for (a, b) in fw.iter().zip(&pw) {
            assert_eq!(a.index, b.index);
            assert_eq!((a.start_cycles, a.end_cycles, a.partial), (b.start_cycles, b.end_cycles, b.partial));
            for (ca, cb) in a.channels.iter().zip(&b.channels) {
                assert_eq!(ca.features, cb.features, "window {} diverged after reset", a.index);
                assert_eq!((ca.traversed, ca.raw_mode), (cb.traversed, cb.raw_mode));
            }
        }
        assert_eq!(fresh.retained_bytes(), pooled.retained_bytes());
    }

    /// A swap requested mid-window installs only at the window boundary:
    /// the in-flight window classifies (and stamps) the old version, every
    /// later window the new one — no window mixes models.
    #[test]
    fn swap_mid_window_defers_to_the_boundary() {
        let cfg = StreamConfig { record_windows: true, ..StreamConfig::new(2, WindowConfig::tumbling(1000.0)) };
        let mut det = StreamingDetector::with_model(Arc::new(classifier()), 1, cfg);
        // Window 0 gets samples, then a swap request lands mid-window.
        for i in 0..32 {
            det.ingest(&sample(i as f64 * 30.0, 0, Some(1), DataSource::RemoteDram, 950.0), None);
        }
        det.swap_model(2, Arc::new(eager_classifier()));
        assert_eq!(det.model_version(), 1, "swap must not take effect mid-window");
        // Cross into windows 1 and 2: window 0 closes on v1, the rest on v2.
        for w in 1..3 {
            for i in 0..32 {
                det.ingest(
                    &sample(w as f64 * 1000.0 + i as f64 * 30.0, 0, Some(1), DataSource::RemoteDram, 950.0),
                    None,
                );
            }
        }
        det.flush();
        let windows = det.drain_windows();
        assert_eq!(windows[0].model_version, 1, "in-flight window finishes on the model it started with");
        assert!(windows[1..].iter().all(|w| w.model_version == 2), "later windows classify on the new model");
        for e in det.drain_events() {
            let w = &windows[e.window_index as usize];
            assert_eq!(e.model_version, w.model_version, "event version matches its window's version");
        }
        // Idle detectors swap immediately.
        det.reset();
        det.swap_model(7, Arc::new(classifier()));
        assert_eq!(det.model_version(), 7);
    }

    #[test]
    fn retained_bytes_is_constant_in_stream_length() {
        let cfg = StreamConfig::new(4, WindowConfig::sliding(1000.0, 4));
        let mut det = StreamingDetector::new(classifier(), cfg);
        feed_contended(&mut det, 2, 32);
        det.drain_events();
        let early = det.retained_bytes();
        let pane_bytes = 12 * std::mem::size_of::<ChannelPane>();
        assert_eq!(
            early,
            StreamingDetector::new(classifier(), cfg).retained_bytes() + 3 * pane_bytes,
            "four panes live"
        );
        feed_contended(&mut det, 50, 32);
        det.drain_events();
        assert_eq!(det.retained_bytes(), early, "state must not grow with the stream");
        // A flush parks the sealed panes in the pool — still counted —
        // and the next stream, flushed again two panes into its first
        // window, reuses them instead of allocating.
        det.flush();
        assert_eq!(det.retained_bytes(), early, "the recycled panes are part of the footprint");
        det.ingest(&sample(100.0, 1, Some(0), DataSource::RemoteDram, 950.0), None);
        det.ingest(&sample(300.0, 1, Some(0), DataSource::RemoteDram, 950.0), None);
        det.flush();
        det.drain_events();
        assert_eq!(det.retained_bytes(), early);
        feed_contended(&mut det, 50, 32);
        det.drain_events();
        assert_eq!(det.retained_bytes(), early, "recycling must not grow the pool");
    }

    fn block_of(samples: &[MemSample]) -> SampleBlock {
        let mut block = SampleBlock::with_capacity(samples.len());
        for s in samples {
            assert!(block.push(s, None));
        }
        block
    }

    /// One far-future timestamp must not walk the gap pane by pane — up
    /// to 2⁵³ `seal_pane` calls on a shard worker: the gap is crossed in
    /// closed form once it settles, through either entry point.
    #[test]
    fn far_future_timestamp_does_not_wedge_ingest() {
        let cfg = StreamConfig::new(4, WindowConfig::sliding(1000.0, 4));
        let remote = |t: f64| sample(t, 1, Some(0), DataSource::RemoteDram, 950.0);
        for by_block in [false, true] {
            let feed = |det: &mut StreamingDetector, s: MemSample| match by_block {
                true => det.ingest_block(&block_of(&[s])),
                false => det.ingest(&s, None),
            };
            // Raise rmc on 1→0 first, so the gap also has a verdict to clear.
            let mut det = StreamingDetector::new(classifier(), cfg);
            feed_contended(&mut det, 4, 64);
            assert_eq!(det.current_mode(ch(1, 0)), Mode::Rmc);
            let before = det.metrics();
            // 10¹² panes ahead: pane 15 is open, panes 15..10¹² are sealed.
            feed(&mut det, remote(250.0 * 1e12 + 1.0));
            let m = det.metrics();
            assert_eq!(m.windows_classified - before.windows_classified, 1_000_000_000_000 - 15);
            assert_eq!((m.samples_ingested, m.late_samples), (before.samples_ingested + 1, 0));
            assert_eq!(det.current_mode(ch(1, 0)), Mode::Good, "the idle gap cleared the verdict");
            let events = det.drain_events();
            assert_eq!(events.len(), 2, "raised before the gap, cleared inside it");
            assert_eq!(events[1].window_index, before.windows_classified + 5, "pane 15 leaves the window, then down=2");
            // The grid is intact on the far side: contention there raises again.
            for w in 0..3 {
                for i in 0..64 {
                    feed(&mut det, remote(250.0 * 1e12 + 1000.0 * w as f64 + 2.0 + 15.0 * i as f64));
                }
            }
            det.flush();
            let after = det.drain_events();
            assert_eq!(after.len(), 1);
            assert_eq!((after[0].mode, after[0].channel), (Mode::Rmc, ch(1, 0)));
            assert!(after[0].window_index > 1_000_000_000_000 - 15);

            // An infinite timestamp is off the pane grid: it is rejected
            // and moves no clock, so what follows it is on time.
            let mut det = StreamingDetector::new(classifier(), cfg);
            feed_contended(&mut det, 2, 64);
            feed(&mut det, remote(f64::INFINITY));
            feed(&mut det, remote(2500.0));
            let m = det.metrics();
            assert_eq!((m.samples_rejected, m.late_samples, m.samples_ingested), (1, 0, 2 * 64 + 1));
        }
    }

    /// The closed-form gap crossing must equal the window-by-window walk
    /// (`record_windows` keeps the walk: a summary is owed per window):
    /// over every gap length — shorter than the window, shorter than the
    /// hysteresis `down` streak, and longer than both — tumbling and
    /// sliding, before the gap either an rmc verdict that decays across
    /// it or traffic too sparse to classify (hysteresis settled while the
    /// sealed panes still hold samples the next windows must see leave).
    #[test]
    fn idle_gap_fast_forward_equals_the_per_window_walk() {
        let remote = |t: f64| sample(t, 1, Some(0), DataSource::RemoteDram, 950.0);
        for window in [WindowConfig::tumbling(1000.0), WindowConfig::sliding(1000.0, 4)] {
            let slide = window.slide_cycles();
            for (gap_panes, before) in (1..40).flat_map(|g| [(g, 192), (g, 12)]) {
                // Three windows of `before` samples, the gap, three windows
                // of 20 a window; a swap is requested right before the gap.
                let resume = 3000.0 + gap_panes as f64 * slide;
                let mut stream: Vec<MemSample> = Vec::new();
                for (base, n) in [(0.0, before), (resume, 60)] {
                    for i in 0..n {
                        stream.push(remote(base + (i as f64 + 0.5) * 3000.0 / n as f64));
                    }
                }
                for by_block in [false, true] {
                    let run = |record_windows: bool| {
                        let cfg = StreamConfig {
                            record_windows,
                            hysteresis: HysteresisConfig { up: 2, down: 3 },
                            ..StreamConfig::new(4, window)
                        };
                        let mut det = StreamingDetector::with_model(Arc::new(classifier()), 1, cfg);
                        for (i, half) in [&stream[..before], &stream[before..]].into_iter().enumerate() {
                            match by_block {
                                true => half.chunks(50).for_each(|c| det.ingest_block(&block_of(c))),
                                false => half.iter().for_each(|s| det.ingest(s, Some(SiteId(i as u32)))),
                            }
                            det.swap_model(2, Arc::new(classifier()));
                        }
                        det
                    };
                    let (mut walked, mut skipped) = (run(true), run(false));
                    let tag = format!("{window:?} {before} before a gap of {gap_panes}, block {by_block}");
                    let recorded = walked.drain_windows().len() as u64;
                    assert_eq!(recorded, walked.metrics().windows_classified, "{tag}: the walk records every window");
                    assert!(skipped.drain_windows().is_empty());
                    // Right after the far side of the gap, and again once
                    // the state left behind has classified a flush window.
                    for flushed in [false, true] {
                        if flushed {
                            walked.flush();
                            skipped.flush();
                        }
                        assert_eq!(skipped.metrics(), walked.metrics(), "{tag}");
                        assert_eq!(skipped.drain_events(), walked.drain_events(), "{tag}");
                        assert_eq!(skipped.contended_channels(), walked.contended_channels(), "{tag}");
                        assert_eq!(skipped.live_top(ch(1, 0), 4), walked.live_top(ch(1, 0), 4), "{tag}");
                        assert_eq!(skipped.model_version(), walked.model_version(), "{tag}");
                    }
                }
            }
        }
    }

    /// A varied deterministic stream: all node/home/source routes, jittery
    /// latencies, an idle gap, and a late (out-of-order) stretch.
    fn mixed_stream(n: usize) -> Vec<(MemSample, SketchKey)> {
        let mut out = Vec::with_capacity(n);
        let mut t = 0.0;
        for i in 0..n {
            t += 13.0 + (i % 7) as f64 * 5.5;
            if i == n / 2 {
                t += 3500.0; // idle gap closes empty panes
            }
            let node = (i % 4) as u8;
            let home = match i % 5 {
                0 => None,
                1 => Some(node), // local: context route
                _ => Some(((node as usize + 1 + i % 3) % 4) as u8),
            };
            let source = match i % 3 {
                0 => DataSource::RemoteDram,
                1 => DataSource::LocalDram,
                _ => DataSource::Lfb,
            };
            let lat = 60.0 + (i % 97) as f64 * 11.25;
            // A late stretch: samples for an already-sealed pane.
            let time = if (0.55..0.58).contains(&(i as f64 / n as f64)) { t - 2600.0 } else { t };
            let site = if i % 4 == 0 { Some(SiteId((i % 6) as u32)) } else { None };
            out.push((sample(time, node, home, source, lat), site));
        }
        out
    }

    /// Failing-first (each of these panicked at the parent commit, or hit
    /// only a `debug_assert!`, or, for the times, never returned): a
    /// sample naming a node outside the machine (as issuer or as home), or
    /// carrying a negative, infinite or NaN latency, or a NaN or off-grid
    /// time, is counted as rejected and skipped, on both entry points
    /// alike, and the rest of the stream classifies exactly as it would
    /// have without it.
    #[test]
    fn hostile_samples_are_rejected_and_counted_not_fatal() {
        let cfg = StreamConfig { record_windows: true, ..StreamConfig::new(4, WindowConfig::sliding(1000.0, 2)) };
        let clean: Vec<(MemSample, SketchKey)> = mixed_stream(400);
        let hostile = [
            sample(500.0, 9, Some(0), DataSource::RemoteDram, 950.0),
            sample(600.0, 4, None, DataSource::L1, 5.0),
            sample(700.0, 1, Some(7), DataSource::RemoteDram, 950.0),
            sample(800.0, 1, Some(0), DataSource::RemoteDram, f64::NAN),
            sample(900.0, 1, Some(0), DataSource::RemoteDram, -1.0),
            // Past the stream's end: a clock it moved would owe windows.
            sample(50_000.0, 1, Some(0), DataSource::RemoteDram, f64::INFINITY),
            // Recording windows, a clock these moved would owe a summary
            // for every pane up to them.
            sample(f64::INFINITY, 1, Some(0), DataSource::RemoteDram, 950.0),
            sample(f64::NEG_INFINITY, 1, Some(0), DataSource::RemoteDram, 950.0),
            sample(f64::NAN, 1, Some(0), DataSource::RemoteDram, 950.0),
            sample(1e300, 1, Some(0), DataSource::RemoteDram, 950.0),
        ];
        let mut dirty = clean.clone();
        for (k, s) in hostile.iter().enumerate() {
            dirty.insert(37 + 41 * k, (*s, Some(SiteId(99))));
        }
        let mut reference = StreamingDetector::new(classifier(), cfg);
        for (s, site) in &clean {
            reference.ingest(s, *site);
        }
        reference.flush();
        let want = StreamMetrics { samples_rejected: hostile.len() as u64, ..reference.metrics() };
        let (want_events, want_windows) = (reference.drain_events(), reference.drain_windows());
        for chunk in [0usize, 1, 7, 64, dirty.len()] {
            let mut det = StreamingDetector::new(classifier(), cfg);
            if chunk == 0 {
                dirty.iter().for_each(|(s, site)| det.ingest(s, *site));
            } else {
                for group in dirty.chunks(chunk) {
                    let mut block = SampleBlock::with_capacity(chunk);
                    group.iter().for_each(|(s, site)| assert!(block.push(s, *site)));
                    det.ingest_block(&block);
                }
            }
            det.flush();
            let m = det.metrics();
            assert_eq!(m, want, "chunk {chunk}");
            assert_eq!(m.samples_ingested + m.samples_rejected, dirty.len() as u64, "chunk {chunk}");
            assert_eq!(det.drain_events(), want_events, "chunk {chunk}");
            assert_eq!(det.drain_windows(), want_windows, "chunk {chunk}");
            for i in 0..12 {
                let c = channel_at(4, i);
                assert_eq!(det.live_top(c, 8), reference.live_top(c, 8), "chunk {chunk} ch {c:?}");
            }
        }
    }

    /// Everything a detector shows after a flushed stream except the
    /// recorded windows.
    type Observed = (StreamMetrics, Vec<VerdictEvent>, Vec<ChannelId>, Vec<Vec<TopEntry<SketchKey>>>);

    fn observe(mut det: StreamingDetector) -> Observed {
        det.flush();
        let tops = (0..det.nch).map(|i| det.live_top(channel_at(det.cfg.nodes, i), 8)).collect();
        (det.metrics(), det.drain_events(), det.contended_channels(), tops)
    }

    /// Classification skips merging and finalizing a window whose traffic
    /// is under the minimum, but only with `record_windows` off — and
    /// every other block-vs-per-sample test records windows. So: off must
    /// equal on, through both entry points, over `mixed_stream` and over a
    /// stream whose windows carry one sample fewer than the minimum,
    /// exactly the minimum (which classifies rmc) and one more.
    #[test]
    fn guard_shortcut_equals_the_recorded_path() {
        let mut at_minimum: Vec<(MemSample, SketchKey)> = Vec::new();
        for (w, extra) in [0, 0, 0, -1, -1, -1, 1, 0, 0, -1, -1, -1, 0, 0].into_iter().enumerate() {
            let n = (MIN_REMOTE_SAMPLES as i64 + extra) as usize;
            for i in 0..n {
                let t = w as f64 * 1000.0 + (i as f64 + 0.5) * 1000.0 / n as f64;
                at_minimum.push((sample(t, 1, Some(0), DataSource::RemoteDram, 950.0), Some(SiteId((i % 3) as u32))));
            }
        }
        for (stream, window, on_the_boundary) in [
            (&mixed_stream(700), WindowConfig::sliding(1000.0, 2), false),
            (&at_minimum, WindowConfig::tumbling(1000.0), true),
            (&at_minimum, WindowConfig::sliding(1000.0, 2), true),
        ] {
            for by_block in [false, true] {
                let run = |record_windows: bool| {
                    let cfg = StreamConfig { record_windows, sketch_capacity: 4, ..StreamConfig::new(4, window) };
                    let mut det = StreamingDetector::new(classifier(), cfg);
                    match by_block {
                        true => stream.chunks(37).for_each(|c| {
                            let mut block = SampleBlock::with_capacity(c.len());
                            c.iter().for_each(|(s, site)| assert!(block.push(s, *site)));
                            det.ingest_block(&block);
                        }),
                        false => stream.iter().for_each(|(s, site)| det.ingest(s, *site)),
                    }
                    det
                };
                let mut recorded = run(true);
                let boundary_rmc = recorded
                    .drain_windows()
                    .iter()
                    .flat_map(|w| &w.channels)
                    .any(|c| c.traversed == MIN_REMOTE_SAMPLES && c.raw_mode == Mode::Rmc);
                assert!(
                    boundary_rmc || !on_the_boundary,
                    "{window:?}: no window at exactly the minimum classified rmc"
                );
                assert_eq!(observe(run(false)), observe(recorded), "{window:?}, block {by_block}");
            }
        }
    }

    /// Ingest `stream` one sample at a time, then in blocks of each size in
    /// `chunks`, and assert that every block run matches the oracle on
    /// metrics, events, recorded window features, verdict state and
    /// sketch contents. Returns the oracle's metrics.
    fn assert_chunkings_match(
        model: &ContentionClassifier,
        cfg: StreamConfig,
        stream: &[(MemSample, SketchKey)],
        chunks: &[usize],
    ) -> StreamMetrics {
        let mut per_sample = StreamingDetector::new(model.clone(), cfg);
        for (s, site) in stream {
            per_sample.ingest(s, *site);
        }
        per_sample.flush();
        let want_events = per_sample.drain_events();
        let want_windows = per_sample.drain_windows();
        for &chunk in chunks {
            let mut blocked = StreamingDetector::new(model.clone(), cfg);
            for group in stream.chunks(chunk) {
                let mut block = SampleBlock::with_capacity(chunk);
                for (s, site) in group {
                    assert!(block.push(s, *site));
                }
                blocked.ingest_block(&block);
            }
            blocked.flush();
            assert_eq!(blocked.metrics(), per_sample.metrics(), "chunk {chunk}");
            assert_eq!(blocked.drain_events(), want_events, "chunk {chunk}");
            assert_eq!(blocked.drain_windows(), want_windows, "chunk {chunk}");
            assert_eq!(blocked.contended_channels(), per_sample.contended_channels());
            for i in 0..per_sample.nch {
                let c = channel_at(cfg.nodes, i);
                assert_eq!(blocked.live_top(c, 8), per_sample.live_top(c, 8), "chunk {chunk} ch {c:?}");
            }
        }
        per_sample.metrics()
    }

    /// A recorded contended run (Sumv, 32 threads on 4 nodes, Large input:
    /// every node streams into node 0's memory) in time order with its
    /// sites, under the detector geometry the service load runs: about
    /// ten tumbling windows across the run, windows recorded, and a tree
    /// trained the real way.
    fn recorded_contended_run() -> (ContentionClassifier, StreamConfig, Vec<(MemSample, SketchKey)>) {
        use drbw_core::training::quick_training_set;
        use numasim::config::MachineConfig;
        use pebs::sampler::SamplerConfig;
        use workloads::config::{Input, RunConfig};
        let mcfg = MachineConfig::scaled();
        let model = ContentionClassifier::train(&quick_training_set(&mcfg), TrainConfig::default());
        let rcfg = RunConfig::new(32, 4, Input::Large);
        let outcome = workloads::runner::run(&workloads::micro::Sumv, &mcfg, &rcfg, Some(SamplerConfig::default()));
        let window = WindowConfig::tumbling((outcome.cycles() / 10.0).max(1.0));
        let cfg = StreamConfig { record_windows: true, ..StreamConfig::new(mcfg.topology.num_nodes(), window) };
        let mut stream: Vec<(MemSample, SketchKey)> =
            outcome.samples.iter().map(|s| (*s, outcome.tracker.attribute_site(s.addr))).collect();
        stream.sort_by(|a, b| a.0.time.total_cmp(&b.0.time));
        (model, cfg, stream)
    }

    /// The bit-identity contract: block ingestion — for every chunking,
    /// including chunks whose internal time regression forces the
    /// unsorted fallback — must match sample-at-a-time ingestion on
    /// metrics, events, recorded window features, verdict state, and
    /// sketch contents; over a synthetic stream with late samples and
    /// over a recorded contended run in the 100-sample blocks a service
    /// client offers.
    #[test]
    fn ingest_block_is_bit_identical_to_per_sample_ingest() {
        let cfg = StreamConfig {
            record_windows: true,
            sketch_capacity: 4,
            ..StreamConfig::new(4, WindowConfig::sliding(1000.0, 2))
        };
        let chunks = [1usize, 2, 3, 5, 8, 37, 64, 256, 700];
        let synthetic = assert_chunkings_match(&classifier(), cfg, &mixed_stream(700), &chunks);
        assert!(synthetic.late_samples > 0, "stream must exercise the late path");

        let (model, cfg, recorded) = recorded_contended_run();
        let m = assert_chunkings_match(&model, cfg, &recorded, &[100]);
        assert!(m.windows_classified >= 10 && m.verdict_transitions > 0, "the run must classify rmc: {m}");
    }

    /// A shared tiny classifier for the chunking property (training once
    /// keeps the 64-case run cheap; the split the tree learns is
    /// irrelevant to chunk-invisibility, only that verdicts can flip).
    fn shared_classifier() -> &'static ContentionClassifier {
        static CLF: std::sync::OnceLock<ContentionClassifier> = std::sync::OnceLock::new();
        CLF.get_or_init(|| {
            let mut d = Dataset::binary(drbw_core::features::selected_names().iter().map(|s| s.to_string()).collect());
            for i in 0..64 {
                let mut row = vec![0.0; NUM_SELECTED];
                let rmc = i % 2 == 0;
                row[5] = if rmc { 500.0 } else { 30.0 };
                row[6] = if rmc { 800.0 + i as f64 } else { 290.0 };
                d.push(row, rmc as usize);
            }
            ContentionClassifier::train(&d, TrainConfig::default())
        })
    }

    fn arb_sample(nodes: u8) -> impl proptest::prelude::Strategy<Value = MemSample> {
        use proptest::prelude::*;
        let source = prop_oneof![
            Just(DataSource::L1),
            Just(DataSource::L2),
            Just(DataSource::L3),
            Just(DataSource::Lfb),
            Just(DataSource::LocalDram),
            Just(DataSource::RemoteDram),
        ];
        (0..nodes, proptest::option::of(0..nodes), source, 1.0..2000.0f64, any::<u32>(), any::<bool>()).prop_map(
            move |(node, home, source, latency, addr, is_write)| {
                // DRAM/LFB samples carry a home; cache hits do not.
                let home = match source {
                    DataSource::LocalDram => Some(NodeId(node)),
                    DataSource::RemoteDram => Some(NodeId(home.unwrap_or((node + 1) % nodes))),
                    DataSource::Lfb => home.map(NodeId),
                    _ => None,
                };
                MemSample {
                    time: 0.0,
                    addr: addr as u64 * 64,
                    cpu: CoreId(node as u32 * 8),
                    thread: ThreadId(0),
                    node: NodeId(node),
                    source,
                    home,
                    latency,
                    is_write,
                }
            },
        )
    }

    /// Pack `stream` into blocks whose capacities cycle through `caps` —
    /// the adversarial chunking the block pipeline must be invisible under.
    fn blocks_with_caps(stream: &[(MemSample, SketchKey)], caps: &[usize]) -> Vec<SampleBlock> {
        let mut blocks = Vec::new();
        let (mut i, mut pick) = (0, 0);
        while i < stream.len() {
            let cap = caps[pick % caps.len()];
            pick += 1;
            let mut b = SampleBlock::with_capacity(cap);
            for (s, site) in &stream[i..(i + cap).min(stream.len())] {
                assert!(b.push(s, *site), "block has room by construction");
            }
            i += cap;
            blocks.push(b);
        }
        blocks
    }

    proptest::proptest! {
        /// Chunk boundaries are invisible to the streaming detector: any
        /// blocking of a time-sorted stream yields bit-identical metrics,
        /// verdict events, recorded window features, hysteresis states, and
        /// top-K sketches to sample-at-a-time ingestion.
        #[test]
        fn detector_block_chunking_is_invisible(
            raw in proptest::collection::vec((arb_sample(4), 0.0f64..400.0), 20..200),
            caps in proptest::collection::vec(1usize..48, 1..5),
        ) {
            let cfg = StreamConfig {
                record_windows: true,
                sketch_capacity: 4,
                ..StreamConfig::new(4, WindowConfig::sliding(1000.0, 2))
            };
            let mut t = 0.0;
            let stream: Vec<(MemSample, SketchKey)> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (mut s, dt))| {
                    t += dt;
                    s.time = t;
                    (s, (i % 3 == 0).then_some(SiteId((i % 6) as u32)))
                })
                .collect();
            let mut per_sample = StreamingDetector::new(shared_classifier().clone(), cfg);
            for (s, site) in &stream {
                per_sample.ingest(s, *site);
            }
            per_sample.flush();
            let mut blocked = StreamingDetector::new(shared_classifier().clone(), cfg);
            for block in blocks_with_caps(&stream, &caps) {
                blocked.ingest_block(&block);
            }
            blocked.flush();
            proptest::prop_assert_eq!(blocked.metrics(), per_sample.metrics());
            proptest::prop_assert_eq!(blocked.drain_events(), per_sample.drain_events());
            proptest::prop_assert_eq!(blocked.drain_windows(), per_sample.drain_windows());
            proptest::prop_assert_eq!(blocked.contended_channels(), per_sample.contended_channels());
            for i in 0..12 {
                let ch = channel_at(4, i);
                proptest::prop_assert_eq!(blocked.live_top(ch, 4), per_sample.live_top(ch, 4));
            }
        }
    }
}
