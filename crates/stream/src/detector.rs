//! The streaming detector: windowed per-channel classification with
//! hysteresis and live top-K diagnosis.
//!
//! [`StreamingDetector::ingest`] routes each sample to its interconnect
//! channel exactly as the batch pipeline's channel association does
//! (remote traffic to the one channel it traversed, local/cache-hit
//! samples as context for every outgoing channel of their node), into
//! **pane accumulators** (`drbw_core::features::FeatureAccumulator`).
//! When the sample clock crosses a pane boundary, sealed panes are merged
//! into windows, each channel's 13 Table I features are finalized —
//! bit-identical to batch extraction over the window's samples — and the
//! loaded decision tree plus the batch pipeline's minimum-traffic guards
//! produce a raw window verdict. Raw verdicts pass through per-channel
//! [`Hysteresis`] so the stable verdict doesn't flap; transitions are
//! emitted as [`VerdictEvent`]s. Remote samples also feed per-channel
//! space-saving sketches, so culprit data objects can be named live
//! without retaining any sample log.
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
use numasim::hierarchy::DataSource;
use numasim::topology::ChannelId;
use pebs::alloc::SiteId;
use pebs::block::SampleBlock;
use pebs::sample::MemSample;
use std::collections::VecDeque;
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

/// Per-route gather lanes for the block path: transient working memory,
/// filled and drained within one [`StreamingDetector::ingest_block`]
/// call, bounded by the largest block ever ingested.
#[derive(Debug, Clone, Default)]
struct RouteScratch {
    lat: Vec<f64>,
    src: Vec<DataSource>,
}

impl RouteScratch {
    fn push(&mut self, lat: f64, src: DataSource) {
        self.lat.push(lat);
        self.src.push(src);
    }

    fn clear(&mut self) {
        self.lat.clear();
        self.src.clear();
    }

    fn retained_bytes(&self) -> usize {
        self.lat.capacity() * std::mem::size_of::<f64>() + self.src.capacity() * std::mem::size_of::<DataSource>()
    }
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
    /// Per-channel gather lanes for remote-routed samples of one block
    /// run (empty between `ingest_block` calls).
    route_scratch: Vec<RouteScratch>,
    /// Per-node gather lanes for context (non-remote) samples of one
    /// block run (empty between `ingest_block` calls).
    ctx_scratch: Vec<RouteScratch>,
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
        let nch = cfg.nodes * (cfg.nodes - 1);
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
            route_scratch: vec![RouteScratch::default(); nch],
            ctx_scratch: vec![RouteScratch::default(); cfg.nodes],
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

    /// Bytes of state currently retained (pane accumulators, sketches,
    /// hysteresis, queued events) — the streaming pipeline's whole memory
    /// footprint, constant in run length.
    pub fn retained_bytes(&self) -> usize {
        let pane = self.nch * std::mem::size_of::<ChannelPane>();
        let panes = (1 + self.sealed.len() + self.spare.len()) * pane;
        let sketches = self.nch * self.cfg.sketch_capacity * std::mem::size_of::<TopEntry<SketchKey>>();
        let fixed = self.nch * std::mem::size_of::<Hysteresis>();
        let queued = self.events.capacity() * std::mem::size_of::<VerdictEvent>();
        let scratch =
            self.route_scratch.iter().chain(&self.ctx_scratch).map(RouteScratch::retained_bytes).sum::<usize>();
        panes + sketches + fixed + queued + scratch
    }

    /// Ingest one sample, attributed to `site` when it hit tracked heap
    /// data (drive attribution through
    /// `AllocationTracker::attribute_site`; pass `None` when unknown).
    /// Window closures triggered by this sample's timestamp run before it
    /// is accumulated.
    pub fn ingest(&mut self, s: &MemSample, site: SketchKey) {
        let pane = self.cfg.window.pane_index(self.cfg.origin_cycles, s.time);
        self.advance_to(pane, 1);
        let a = s.node.0 as usize;
        assert!(a < self.cfg.nodes, "sample from out-of-range node {a}");
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

    /// Ingest a columnar block, equivalent to calling
    /// [`StreamingDetector::ingest`] on each sample in order but paying
    /// the pane lookup, node routing, and accumulator dispatch per *run*
    /// instead of per sample.
    ///
    /// Sorted blocks (the common case — `SampleBlock` tracks the hint on
    /// push) are split into pane runs by binary search over the time
    /// lane, and each run's samples are gathered per channel and pushed
    /// through the lane kernels ([`FeatureAccumulator::push_lanes`]).
    /// Unsorted blocks fall back to the per-sample loop; sortedness is a
    /// fast path, never a semantic fork.
    ///
    /// # Equivalence to the per-sample path
    ///
    /// Every pane accumulator, verdict, metric counter, and sketch state
    /// is identical to per-sample ingestion: integer/fixed-point
    /// accumulator state is associative (context samples folded through
    /// one per-node accumulator and merged land on the same state),
    /// threshold counts are exact per-element predicates, and sketch
    /// offers happen in stream order during the gather pass.
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
            self.advance_to(pane, (hi - lo) as u64);
            self.accumulate_run(block, lo, hi);
            lo = hi;
        }
    }

    /// Accumulate one same-pane run of a block into the open pane.
    ///
    /// Pass 1 routes each sample once into per-channel (remote) or
    /// per-node (context) gather lanes — sketch offers happen here, in
    /// stream order. Pass 2 drains each non-empty lane through the batch
    /// kernels: context samples fold through one per-node accumulator
    /// whose state is merged into each of the node's outgoing channels
    /// (the same state by associativity of the integer sums).
    fn accumulate_run(&mut self, block: &SampleBlock, lo: usize, hi: usize) {
        let nodes = block.nodes();
        let homes = block.homes();
        let lats = block.latencies();
        let srcs = block.sources();
        let sites = block.sites();
        for i in lo..hi {
            let a = nodes[i].0 as usize;
            assert!(a < self.cfg.nodes, "sample from out-of-range node {a}");
            match homes[i] {
                Some(h) if h != nodes[i] => {
                    let idx = dense_index(self.cfg.nodes, a, h.0 as usize);
                    self.route_scratch[idx].push(lats[i], srcs[i]);
                    self.sketches[idx].offer(sites[i]);
                }
                _ => self.ctx_scratch[a].push(lats[i], srcs[i]),
            }
        }
        for idx in 0..self.nch {
            if self.route_scratch[idx].lat.is_empty() {
                continue;
            }
            let scratch = &self.route_scratch[idx];
            self.open[idx].acc.push_lanes(&scratch.lat, &scratch.src);
            self.open[idx].traversed += scratch.lat.len();
            self.route_scratch[idx].clear();
        }
        for a in 0..self.cfg.nodes {
            if self.ctx_scratch[a].lat.is_empty() {
                continue;
            }
            let mut folded = FeatureAccumulator::new();
            folded.push_lanes(&self.ctx_scratch[a].lat, &self.ctx_scratch[a].src);
            for d in (0..self.cfg.nodes).filter(|&d| d != a) {
                self.open[dense_index(self.cfg.nodes, a, d)].acc.merge(&folded);
            }
            self.ctx_scratch[a].clear();
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
    /// but the two window counters — so a far-future (or infinite)
    /// timestamp costs a few windows, not one per pane.
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
            let mut merged = ChannelPane::default();
            for pane in &self.sealed {
                merged.acc.merge(&pane[i].acc);
                merged.traversed += pane[i].traversed;
            }
            let feats = merged.acc.finalize(&ctx);
            let raw = if merged.traversed < MIN_REMOTE_SAMPLES || feats[REMOTE_COUNT] < MIN_REMOTE_SHARE {
                Mode::Good
            } else {
                self.classifier.predict(&feats)
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
            if self.cfg.record_windows {
                channels.push(ChannelWindow {
                    channel: channel_at(self.cfg.nodes, i),
                    features: feats,
                    traversed: merged.traversed,
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

    /// Failing-first (it does not terminate at the parent commit): one
    /// far-future or infinite timestamp used to walk the gap pane by pane
    /// — up to 2⁶³ `seal_pane` calls on a shard worker. The gap is now
    /// crossed in closed form once it settles, through either entry point.
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

            // An infinite timestamp saturates the pane index; everything
            // after it is late, and the end-of-run flush still classifies.
            let mut det = StreamingDetector::new(classifier(), cfg);
            feed_contended(&mut det, 2, 64);
            feed(&mut det, remote(f64::INFINITY));
            feed(&mut det, remote(2500.0));
            assert_eq!(det.metrics().late_samples, 1);
            assert_eq!(det.metrics().windows_classified, 4 + (i64::MAX as u64 - 7), "panes 3..=6, then 7 to the last");
            det.flush();
            assert_eq!(det.metrics().samples_ingested, 2 * 64 + 2);
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

    /// The tentpole's bit-identity contract: block ingestion — for every
    /// chunking, including chunks whose internal time regression forces
    /// the unsorted per-sample fallback — must match per-sample ingestion
    /// on metrics, events, recorded window features, verdict state, and
    /// sketch contents.
    #[test]
    fn ingest_block_is_bit_identical_to_per_sample_ingest() {
        let cfg = StreamConfig {
            record_windows: true,
            sketch_capacity: 4,
            ..StreamConfig::new(4, WindowConfig::sliding(1000.0, 2))
        };
        let stream = mixed_stream(700);
        let mut per_sample = StreamingDetector::new(classifier(), cfg);
        for (s, site) in &stream {
            per_sample.ingest(s, *site);
        }
        per_sample.flush();
        let want_events = per_sample.drain_events();
        let want_windows = per_sample.drain_windows();
        for chunk in [1usize, 2, 3, 5, 8, 37, 64, 256, 700] {
            let mut blocked = StreamingDetector::new(classifier(), cfg);
            for group in stream.chunks(chunk) {
                let mut block = SampleBlock::with_capacity(chunk);
                for (s, site) in group {
                    assert!(block.push(s, *site));
                }
                blocked.ingest_block(&block);
            }
            blocked.flush();
            assert_eq!(blocked.metrics(), per_sample.metrics(), "chunk {chunk}");
            assert!(blocked.metrics().late_samples > 0, "stream must exercise the late path");
            assert_eq!(blocked.drain_events(), want_events, "chunk {chunk}");
            assert_eq!(blocked.drain_windows(), want_windows, "chunk {chunk}");
            assert_eq!(blocked.contended_channels(), per_sample.contended_channels());
            for i in 0..12 {
                let c = channel_at(4, i);
                assert_eq!(blocked.live_top(c, 8), per_sample.live_top(c, 8), "chunk {chunk} ch {c:?}");
            }
        }
    }
}
