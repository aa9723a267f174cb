//! Bandwidth accounting and the congestion model.
//!
//! Every DRAM access consumes capacity on up to two finite resources: the
//! **memory controller** of the page's home node, and — when the accessor
//! sits on a different node — the directed **interconnect channel** from
//! the accessing node to the home node.
//!
//! The engine runs in fixed-length rounds. Within a round the model
//! accumulates demanded bytes per resource; at the round boundary it
//! computes each resource's utilization `ρ = bytes / (bandwidth × round)`
//! and derives a latency inflation factor applied to the *service* portion
//! of DRAM latency in the next round:
//!
//! ```text
//! f(ρ) = 1                                  for ρ ≤ knee
//! f(ρ) = 1 + (ρ' − knee) / (2 (1 − ρ'))     for ρ > knee, ρ' = min(ρ, ρ_cap)
//! f is clamped to max_factor
//! ```
//!
//! This is the shape of M/D/1 queueing delay with a contention-free region
//! below the knee. On top of it, a multiplicative controller handles
//! *oversubscription* (measured ρ near or above 1): the factor for the next
//! round is
//!
//! ```text
//! f_next = clamp(max(f_base(ρ), f_prev · ρ / ctrl_target), 1, max_factor)
//! ```
//!
//! At steady state under saturation this converges to the fluid solution —
//! utilization settles at `ctrl_target` and latency is inflated by exactly
//! the oversubscription ratio — which is how a real memory controller
//! behaves: throughput caps at capacity and queueing delay absorbs the
//! excess demand. A naive open-loop `f(ρ)` oscillates (inflation starves
//! the next round's demand, the factor collapses, demand surges back); the
//! `f_prev · ρ` term is what damps that. This latency blow-up under load is
//! precisely the signal the DR-BW classifier learns (its two chosen
//! features are the remote-DRAM sample count and the average remote-DRAM
//! latency).

use crate::config::MachineConfig;
use crate::topology::NodeId;

/// A finite-bandwidth resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Directed interconnect channel, by dense channel index.
    Channel(usize),
    /// Memory controller of a node.
    MemCtrl(usize),
}

/// Per-resource running aggregates over a phase.
#[derive(Debug, Clone, Default)]
struct ResourceAgg {
    total_bytes: f64,
    max_rho: f64,
    rho_sum: f64,
}

/// Round-based bandwidth accounting for all channels and controllers.
#[derive(Debug, Clone)]
pub struct BandwidthModel {
    nodes: usize,
    round_cycles: f64,
    knee: f64,
    rho_cap: f64,
    max_factor: f64,
    ctrl_target: f64,
    saturation: f64,
    ch_bw: Vec<f64>,
    mc_bw: f64,
    /// Demand in the current round.
    ch_bytes: Vec<f64>,
    mc_bytes: Vec<f64>,
    /// Inflation factors derived from the previous round.
    ch_factor: Vec<f64>,
    mc_factor: Vec<f64>,
    ch_agg: Vec<ResourceAgg>,
    mc_agg: Vec<ResourceAgg>,
    rounds: u64,
}

impl BandwidthModel {
    /// Fresh accounting state for a machine.
    pub fn new(cfg: &MachineConfig) -> Self {
        let nodes = cfg.topology.num_nodes();
        let nch = cfg.topology.num_channels();
        let ch_bw = (0..nch).map(|i| cfg.interconnect.bandwidth_of(i)).collect();
        Self {
            nodes,
            round_cycles: cfg.engine.round_cycles,
            knee: cfg.congestion.knee,
            rho_cap: cfg.congestion.rho_cap,
            max_factor: cfg.congestion.max_factor,
            ctrl_target: cfg.congestion.ctrl_target,
            saturation: cfg.congestion.saturation,
            ch_bw,
            mc_bw: cfg.mem.mc_bandwidth,
            ch_bytes: vec![0.0; nch],
            mc_bytes: vec![0.0; nodes],
            ch_factor: vec![1.0; nch],
            mc_factor: vec![1.0; nodes],
            ch_agg: vec![ResourceAgg::default(); nch],
            mc_agg: vec![ResourceAgg::default(); nodes],
            rounds: 0,
        }
    }

    /// Dense index of the directed channel `src → dst`.
    ///
    /// # Panics
    /// Debug-panics if `src == dst` (local accesses use no channel).
    #[inline]
    fn channel_index(&self, src: NodeId, dst: NodeId) -> usize {
        debug_assert_ne!(src, dst);
        let (s, d) = (src.0 as usize, dst.0 as usize);
        s * (self.nodes - 1) + if d > s { d - 1 } else { d }
    }

    /// Account one DRAM transfer of `bytes` from the accessor on `src` to
    /// memory homed on `home`.
    #[inline]
    pub fn record_dram(&mut self, src: NodeId, home: NodeId, bytes: f64) {
        self.mc_bytes[home.0 as usize] += bytes;
        if src != home {
            let idx = self.channel_index(src, home);
            self.ch_bytes[idx] += bytes;
        }
    }

    /// Account `n` identical DRAM transfers of `bytes` each from `src` to
    /// `home` — bit-identical to `n` sequential [`BandwidthModel::record_dram`]
    /// calls (the byte accumulators collapse the add chain only where that
    /// is exactly the same rounding; see [`crate::fp::bulk_add`]). The
    /// fused span walk uses this to commit a whole all-miss line span in
    /// O(1) instead of O(n) accumulator adds.
    #[inline]
    pub fn record_dram_n(&mut self, src: NodeId, home: NodeId, bytes: f64, n: u64) {
        let h = home.0 as usize;
        self.mc_bytes[h] = crate::fp::bulk_add(self.mc_bytes[h], bytes, n);
        if src != home {
            let idx = self.channel_index(src, home);
            self.ch_bytes[idx] = crate::fp::bulk_add(self.ch_bytes[idx], bytes, n);
        }
    }

    /// Latency inflation factor for a DRAM access from `src` to `home`,
    /// based on the previous round: the worse of the home controller and
    /// (for remote accesses) the channel.
    #[inline]
    pub fn factor_for(&self, src: NodeId, home: NodeId) -> f64 {
        let mc = self.mc_factor[home.0 as usize];
        if src == home {
            mc
        } else {
            let ch = self.ch_factor[self.channel_index(src, home)];
            mc.max(ch)
        }
    }

    fn factor_of_rho(&self, rho: f64) -> f64 {
        if rho <= self.knee {
            1.0
        } else {
            let r = rho.min(self.rho_cap);
            (1.0 + (r - self.knee) / (2.0 * (1.0 - r))).min(self.max_factor)
        }
    }

    /// Next-round factor combining the open-loop M/D/1 curve with the
    /// oversubscription controller (see module docs).
    fn next_factor(&self, prev: f64, rho: f64) -> f64 {
        let ctrl = prev * rho / self.ctrl_target;
        self.factor_of_rho(rho).max(ctrl).clamp(1.0, self.max_factor)
    }

    /// Close the current round: fold demand into aggregates and derive the
    /// factors for the next round.
    pub fn end_round(&mut self) {
        let denom_mc = self.mc_bw * self.round_cycles;
        for n in 0..self.nodes {
            let rho = self.mc_bytes[n] / denom_mc;
            self.mc_factor[n] = self.next_factor(self.mc_factor[n], rho);
            let agg = &mut self.mc_agg[n];
            agg.total_bytes += self.mc_bytes[n];
            agg.max_rho = agg.max_rho.max(rho);
            agg.rho_sum += rho;
            self.mc_bytes[n] = 0.0;
        }
        for c in 0..self.ch_bytes.len() {
            let rho = self.ch_bytes[c] / (self.ch_bw[c] * self.round_cycles);
            self.ch_factor[c] = self.next_factor(self.ch_factor[c], rho);
            let agg = &mut self.ch_agg[c];
            agg.total_bytes += self.ch_bytes[c];
            agg.max_rho = agg.max_rho.max(rho);
            agg.rho_sum += rho;
            self.ch_bytes[c] = 0.0;
        }
        self.rounds += 1;
    }

    /// Number of completed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total bytes transferred so far on each directed channel
    /// (dense channel index order).
    pub fn channel_bytes(&self) -> Vec<f64> {
        self.ch_agg.iter().map(|a| a.total_bytes).collect()
    }

    /// Total bytes served by each memory controller.
    pub fn mc_bytes_total(&self) -> Vec<f64> {
        self.mc_agg.iter().map(|a| a.total_bytes).collect()
    }

    /// Peak per-round utilization of each channel.
    pub fn channel_max_rho(&self) -> Vec<f64> {
        self.ch_agg.iter().map(|a| a.max_rho).collect()
    }

    /// Peak per-round utilization of each memory controller.
    pub fn mc_max_rho(&self) -> Vec<f64> {
        self.mc_agg.iter().map(|a| a.max_rho).collect()
    }

    /// Time-averaged utilization of each channel.
    pub fn channel_avg_rho(&self) -> Vec<f64> {
        let r = self.rounds.max(1) as f64;
        self.ch_agg.iter().map(|a| a.rho_sum / r).collect()
    }

    /// Time-averaged utilization of each memory controller — the signal the
    /// guided-optimization weight search reads to size per-node headroom.
    pub fn mc_avg_rho(&self) -> Vec<f64> {
        let r = self.rounds.max(1) as f64;
        self.mc_agg.iter().map(|a| a.rho_sum / r).collect()
    }

    /// Channels whose peak utilization crossed the configured saturation
    /// threshold. **Reporting/debugging only** — the DR-BW classifier must
    /// detect contention from sample features, as on real hardware where no
    /// such oracle exists.
    pub fn saturated_channels(&self) -> Vec<usize> {
        self.ch_agg.iter().enumerate().filter(|(_, a)| a.max_rho >= self.saturation).map(|(i, _)| i).collect()
    }

    /// Reset all per-phase aggregates and factors (start of a new phase).
    pub fn reset(&mut self) {
        for b in self.ch_bytes.iter_mut().chain(self.mc_bytes.iter_mut()) {
            *b = 0.0;
        }
        for f in self.ch_factor.iter_mut().chain(self.mc_factor.iter_mut()) {
            *f = 1.0;
        }
        for a in self.ch_agg.iter_mut().chain(self.mc_agg.iter_mut()) {
            *a = ResourceAgg::default();
        }
        self.rounds = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn model() -> BandwidthModel {
        BandwidthModel::new(&MachineConfig::scaled())
    }

    #[test]
    fn idle_round_keeps_factors_at_one() {
        let mut m = model();
        m.end_round();
        assert_eq!(m.factor_for(NodeId(0), NodeId(1)), 1.0);
        assert_eq!(m.factor_for(NodeId(2), NodeId(2)), 1.0);
    }

    #[test]
    fn light_load_below_knee_uninflated() {
        let mut m = model();
        // Channel bandwidth 6 B/cyc × 20k cycles = 120 kB capacity.
        m.record_dram(NodeId(0), NodeId(1), 20_000.0);
        m.end_round();
        assert_eq!(m.factor_for(NodeId(0), NodeId(1)), 1.0);
    }

    #[test]
    fn saturation_inflates_next_round() {
        let mut m = model();
        // Oversubscribe channel 0->1 (capacity 120 kB/round).
        m.record_dram(NodeId(0), NodeId(1), 500_000.0);
        m.end_round();
        let f = m.factor_for(NodeId(0), NodeId(1));
        assert!(f > 4.0, "expected strong inflation, got {f}");
        // The opposite direction is unaffected.
        assert_eq!(m.factor_for(NodeId(1), NodeId(0)), 1.0);
    }

    #[test]
    fn factor_monotone_in_load() {
        let mut prev = 0.0;
        for load in [50_000.0, 100_000.0, 150_000.0, 300_000.0, 1_000_000.0] {
            let mut m = model();
            m.record_dram(NodeId(0), NodeId(1), load);
            m.end_round();
            let f = m.factor_for(NodeId(0), NodeId(1));
            assert!(f >= prev, "factor must be monotone: {f} < {prev} at load {load}");
            prev = f;
        }
    }

    #[test]
    fn factor_capped() {
        let mut m = model();
        m.record_dram(NodeId(0), NodeId(1), 1e12);
        m.end_round();
        let cfg = MachineConfig::scaled();
        assert_eq!(m.factor_for(NodeId(0), NodeId(1)), cfg.congestion.max_factor);
    }

    /// `record_dram_n` must be bit-identical to the per-access loop —
    /// including the ragged byte totals repeated f64 adds produce — for
    /// local and remote traffic, interleaved with other recordings and
    /// across rounds.
    #[test]
    fn record_dram_n_matches_per_access_loop() {
        let mut a = model();
        let mut b = model();
        let batches: [(u8, u8, u64); 5] = [(0, 1, 1000), (0, 0, 4097), (2, 1, 1), (0, 1, 63), (3, 3, 77)];
        for _round in 0..3 {
            for &(src, home, n) in &batches {
                for _ in 0..n {
                    a.record_dram(NodeId(src), NodeId(home), 64.0);
                }
                b.record_dram_n(NodeId(src), NodeId(home), 64.0, n);
            }
            a.end_round();
            b.end_round();
        }
        assert_eq!(a.channel_bytes(), b.channel_bytes());
        assert_eq!(a.mc_bytes_total(), b.mc_bytes_total());
        assert_eq!(a.factor_for(NodeId(0), NodeId(1)), b.factor_for(NodeId(0), NodeId(1)));
    }

    #[test]
    fn local_access_loads_controller_not_channel() {
        let mut m = model();
        m.record_dram(NodeId(1), NodeId(1), 1e9);
        m.end_round();
        // Remote access into node 1 sees the hot controller...
        assert!(m.factor_for(NodeId(0), NodeId(1)) > 1.0);
        // ...but traffic between other nodes is clean.
        assert_eq!(m.factor_for(NodeId(0), NodeId(2)), 1.0);
        assert!(m.saturated_channels().is_empty());
    }

    #[test]
    fn aggregates_accumulate_across_rounds() {
        let mut m = model();
        m.record_dram(NodeId(0), NodeId(1), 1000.0);
        m.end_round();
        m.record_dram(NodeId(0), NodeId(1), 500.0);
        m.end_round();
        let idx = 0; // channel 0->1 is dense index 0
        assert_eq!(m.channel_bytes()[idx], 1500.0);
        assert_eq!(m.mc_bytes_total()[1], 1500.0);
        assert_eq!(m.rounds(), 2);
    }

    #[test]
    fn saturated_channels_reports_hot_links() {
        let mut m = model();
        m.record_dram(NodeId(2), NodeId(0), 1e9);
        m.end_round();
        let sat = m.saturated_channels();
        assert_eq!(sat.len(), 1);
        // Verify it is the 2->0 channel via max-rho position.
        let rho = m.channel_max_rho();
        assert!(rho[sat[0]] > 1.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = model();
        m.record_dram(NodeId(0), NodeId(1), 1e9);
        m.end_round();
        m.reset();
        assert_eq!(m.rounds(), 0);
        assert_eq!(m.factor_for(NodeId(0), NodeId(1)), 1.0);
        assert!(m.channel_bytes().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn controller_converges_to_fluid_steady_state() {
        // Offered load = 3x a channel's capacity, fully memory bound: the
        // served demand each round is offered/f. The factor should settle
        // near 3/ctrl_target ~ 3.26 with utilization near ctrl_target.
        let mut m = model();
        let capacity = 6.0 * 20_000.0;
        let offered = 3.0 * capacity;
        let mut f = 1.0;
        for _ in 0..20 {
            m.record_dram(NodeId(0), NodeId(1), offered / f);
            m.end_round();
            f = m.factor_for(NodeId(0), NodeId(1));
        }
        assert!((f - 3.0 / 0.92).abs() < 0.4, "factor {f} should settle near fluid solution");
        // Served utilization in the final round is near the target.
        let served_rho = (offered / f) / capacity;
        assert!((served_rho - 0.92).abs() < 0.15, "utilization {served_rho} should hover near target");
    }

    #[test]
    fn controller_decays_when_load_vanishes() {
        let mut m = model();
        m.record_dram(NodeId(0), NodeId(1), 1e9);
        m.end_round();
        assert!(m.factor_for(NodeId(0), NodeId(1)) > 1.0);
        for _ in 0..5 {
            m.end_round(); // idle rounds
        }
        assert_eq!(m.factor_for(NodeId(0), NodeId(1)), 1.0);
    }

    #[test]
    fn avg_rho_is_time_average() {
        let mut m = model();
        m.record_dram(NodeId(0), NodeId(1), 120_000.0); // rho = 1.0
        m.end_round();
        m.end_round(); // idle round, rho = 0
        let avg = m.channel_avg_rho()[0];
        assert!((avg - 0.5).abs() < 1e-9, "got {avg}");
        // The loaded controller (node 1) shows the same time average at its
        // own capacity scale; every other controller stays at zero.
        let mc = m.mc_avg_rho();
        assert!((mc[1] - 120_000.0 / (20.0 * 20_000.0) / 2.0).abs() < 1e-9, "got {}", mc[1]);
        assert_eq!(mc[0], 0.0);
    }
}
