//! Machine configuration: cache geometry, latencies, bandwidths, presets.
//!
//! Two presets are provided:
//!
//! * [`MachineConfig::xeon_e5_4650`] mirrors the paper's testbed geometry
//!   (4 sockets × 8 cores, 32 KB L1 / 256 KB L2 per core, 20 MB L3 per
//!   socket). Simulating full-size working sets against these caches costs
//!   hundreds of millions of simulated accesses per run.
//! * [`MachineConfig::scaled`] keeps every *ratio* of the testbed (cache
//!   size ladder, local-vs-remote latency, per-channel vs per-controller
//!   bandwidth) but shrinks capacities ~10×, so the experiments run with
//!   proportionally smaller working sets in bounded time. All experiments
//!   in `EXPERIMENTS.md` use this preset; DESIGN.md documents the
//!   substitution.

use crate::topology::Topology;

/// Geometry of one level of the cache hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
}

impl CacheGeometry {
    /// Number of sets given a line size.
    ///
    /// # Panics
    /// Panics if the geometry does not divide into whole sets.
    pub fn num_sets(&self, line_size: u64) -> usize {
        let lines = self.size / line_size;
        assert_eq!(self.size % line_size, 0, "cache size not a multiple of line size");
        assert_eq!(lines % self.assoc as u64, 0, "lines not a multiple of associativity");
        (lines / self.assoc as u64) as usize
    }
}

/// Cache hierarchy configuration (per-core L1/L2, per-node shared L3).
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Cache line size in bytes (64 on the paper's machine).
    pub line_size: u64,
    /// Per-core L1 data cache.
    pub l1: CacheGeometry,
    /// Per-core unified L2.
    pub l2: CacheGeometry,
    /// Per-node shared L3.
    pub l3: CacheGeometry,
    /// Line-fill-buffer entries per core (outstanding-miss window used to
    /// classify back-to-back misses to the same line as LFB hits).
    pub lfb_entries: usize,
}

/// Unloaded access latencies in cycles, by where the data is found.
///
/// DRAM latency is split into a fixed part (row access, on-die traversal)
/// and a *service* part that scales with queueing delay when a memory
/// controller or interconnect channel approaches saturation — see
/// [`crate::bandwidth`].
#[derive(Debug, Clone, Copy)]
pub struct LatencyConfig {
    /// L1 hit latency.
    pub l1: f64,
    /// L2 hit latency.
    pub l2: f64,
    /// L3 hit latency.
    pub l3: f64,
    /// Hit in a line-fill buffer (miss already in flight).
    pub lfb: f64,
    /// Fixed portion of any DRAM access.
    pub dram_fixed: f64,
    /// Service portion of a local DRAM access (scaled by congestion).
    pub dram_local_service: f64,
    /// Service portion of a remote DRAM access (scaled by congestion).
    pub dram_remote_service: f64,
}

/// Memory system configuration.
#[derive(Debug, Clone, Copy)]
pub struct MemConfig {
    /// Base page size in bytes (4 KiB).
    pub page_size: u64,
    /// Huge page size in bytes (2 MiB) — used by the bandit micro-benchmark.
    pub huge_page_size: u64,
    /// Per-node memory-controller bandwidth in bytes/cycle.
    pub mc_bandwidth: f64,
}

/// Interconnect configuration.
#[derive(Debug, Clone)]
pub struct InterconnectConfig {
    /// Default directed-channel bandwidth in bytes/cycle.
    pub channel_bandwidth: f64,
    /// Optional per-channel overrides (dense channel index → bytes/cycle),
    /// modelling the bandwidth asymmetry the paper cites (Lepers et al.).
    pub overrides: Vec<(usize, f64)>,
}

impl InterconnectConfig {
    /// Bandwidth of the channel with dense index `idx`.
    pub fn bandwidth_of(&self, idx: usize) -> f64 {
        self.overrides.iter().find(|(i, _)| *i == idx).map(|(_, bw)| *bw).unwrap_or(self.channel_bandwidth)
    }
}

/// Congestion-model knobs shared by channels and memory controllers.
#[derive(Debug, Clone, Copy)]
pub struct CongestionConfig {
    /// Utilization below which no queueing delay is charged.
    pub knee: f64,
    /// Utilization cap used in the M/D/1 delay term (numerical guard).
    pub rho_cap: f64,
    /// Upper bound on the latency inflation factor.
    pub max_factor: f64,
    /// Utilization the closed-loop controller drives saturated resources
    /// toward (see `bandwidth` module docs). Must lie in `(knee, 1)`.
    pub ctrl_target: f64,
    /// Utilization at/above which a resource is *saturated* — used only for
    /// reporting, never by the classifier (the classifier must learn
    /// contention from sample features, as in the paper).
    pub saturation: f64,
}

/// Engine scheduling parameters. A simulation always runs on the host
/// thread that calls the engine; host parallelism comes from running
/// independent simulations concurrently (`drbw_core`'s across-run pool).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Cycles per accounting round. Congestion factors computed from round
    /// `k` apply to round `k + 1` (closed-loop fluid approximation).
    pub round_cycles: f64,
    /// Memory-level parallelism: how many outstanding misses a core
    /// overlaps. Thread clocks advance by `latency / mlp` per miss unless a
    /// stream declares dependent accesses (pointer chasing ⇒ mlp 1).
    pub default_mlp: f64,
}

/// Complete machine description handed to the [`crate::engine::Engine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// NUMA topology (nodes, cores, SMT).
    pub topology: Topology,
    /// Cache hierarchy geometry.
    pub cache: CacheConfig,
    /// Unloaded latencies.
    pub latency: LatencyConfig,
    /// Memory system (page sizes, controller bandwidth).
    pub mem: MemConfig,
    /// Interconnect bandwidths.
    pub interconnect: InterconnectConfig,
    /// Congestion model knobs.
    pub congestion: CongestionConfig,
    /// Engine scheduling knobs.
    pub engine: EngineConfig,
}

impl MachineConfig {
    /// The paper's testbed: 4-socket Intel Xeon E5-4650, 32 KB L1 and
    /// 256 KB L2 per core, 20 MB L3 per socket, fully connected QPI.
    pub fn xeon_e5_4650() -> Self {
        Self {
            topology: Topology::new(4, 8, 2),
            cache: CacheConfig {
                line_size: 64,
                l1: CacheGeometry { size: 32 << 10, assoc: 8 },
                l2: CacheGeometry { size: 256 << 10, assoc: 8 },
                l3: CacheGeometry { size: 20 << 20, assoc: 20 },
                lfb_entries: 10,
            },
            latency: LatencyConfig {
                l1: 4.0,
                l2: 12.0,
                l3: 40.0,
                lfb: 90.0,
                dram_fixed: 100.0,
                dram_local_service: 80.0,
                dram_remote_service: 180.0,
            },
            mem: MemConfig { page_size: 4 << 10, huge_page_size: 2 << 20, mc_bandwidth: 20.0 },
            interconnect: InterconnectConfig { channel_bandwidth: 6.0, overrides: Vec::new() },
            congestion: CongestionConfig {
                knee: 0.55,
                rho_cap: 0.97,
                max_factor: 8.0,
                ctrl_target: 0.92,
                saturation: 0.85,
            },
            engine: EngineConfig { round_cycles: 20_000.0, default_mlp: 4.0 },
        }
    }

    /// The experiment preset: the testbed scaled ~10× down in capacity with
    /// all ratios preserved. Working sets scale down with it, keeping every
    /// run within tens of milliseconds on one host core.
    pub fn scaled() -> Self {
        let mut cfg = Self::xeon_e5_4650();
        cfg.cache.l1 = CacheGeometry { size: 4 << 10, assoc: 8 };
        cfg.cache.l2 = CacheGeometry { size: 32 << 10, assoc: 8 };
        cfg.cache.l3 = CacheGeometry { size: 2 << 20, assoc: 16 };
        cfg
    }

    /// A tiny 2-node machine for unit tests.
    pub fn tiny() -> Self {
        let mut cfg = Self::scaled();
        cfg.topology = Topology::new(2, 2, 2);
        cfg.cache.l1 = CacheGeometry { size: 1 << 10, assoc: 4 };
        cfg.cache.l2 = CacheGeometry { size: 4 << 10, assoc: 4 };
        cfg.cache.l3 = CacheGeometry { size: 64 << 10, assoc: 8 };
        cfg
    }

    /// Validate internal consistency (cache geometries divide into sets,
    /// bandwidths positive, latencies ordered). Called by the engine.
    ///
    /// # Panics
    /// Panics with a descriptive message on any inconsistency.
    pub fn validate(&self) {
        let ls = self.cache.line_size;
        assert!(ls.is_power_of_two(), "line size must be a power of two");
        self.cache.l1.num_sets(ls);
        self.cache.l2.num_sets(ls);
        self.cache.l3.num_sets(ls);
        assert!(self.mem.page_size.is_power_of_two() && self.mem.page_size >= ls);
        assert!(self.mem.huge_page_size.is_power_of_two() && self.mem.huge_page_size > self.mem.page_size);
        assert!(self.mem.mc_bandwidth > 0.0 && self.interconnect.channel_bandwidth > 0.0);
        let l = &self.latency;
        assert!(
            l.l1 < l.l2 && l.l2 < l.l3 && l.l3 < l.dram_fixed + l.dram_local_service,
            "latency ladder must increase with distance"
        );
        assert!(l.dram_local_service < l.dram_remote_service, "remote service must exceed local");
        let c = &self.congestion;
        assert!(c.knee > 0.0 && c.knee < c.rho_cap && c.rho_cap < 1.0 && c.max_factor >= 1.0);
        assert!(c.ctrl_target > c.knee && c.ctrl_target < 1.0, "ctrl_target must lie in (knee, 1)");
        assert!(self.engine.round_cycles > 0.0 && self.engine.default_mlp >= 1.0);
    }

    /// Unloaded latency of an access satisfied at `source`, before
    /// congestion inflation of the DRAM service portion.
    pub fn base_latency(&self, source: crate::hierarchy::DataSource) -> f64 {
        use crate::hierarchy::DataSource::*;
        match source {
            L1 => self.latency.l1,
            L2 => self.latency.l2,
            L3 => self.latency.l3,
            Lfb => self.latency.lfb,
            LocalDram => self.latency.dram_fixed + self.latency.dram_local_service,
            RemoteDram => self.latency.dram_fixed + self.latency.dram_remote_service,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        MachineConfig::xeon_e5_4650().validate();
        MachineConfig::scaled().validate();
        MachineConfig::tiny().validate();
    }

    #[test]
    fn xeon_geometry_matches_paper() {
        let c = MachineConfig::xeon_e5_4650();
        assert_eq!(c.topology.num_cores(), 32);
        assert_eq!(c.cache.l1.size, 32 << 10);
        assert_eq!(c.cache.l2.size, 256 << 10);
        assert_eq!(c.cache.l3.size, 20 << 20);
    }

    #[test]
    fn set_counts() {
        let c = MachineConfig::scaled();
        assert_eq!(c.cache.l1.num_sets(64), 8);
        assert_eq!(c.cache.l2.num_sets(64), 64);
        assert_eq!(c.cache.l3.num_sets(64), 2048);
    }

    #[test]
    fn latency_ladder_ordered() {
        use crate::hierarchy::DataSource::*;
        let c = MachineConfig::scaled();
        assert!(c.base_latency(L1) < c.base_latency(L2));
        assert!(c.base_latency(L2) < c.base_latency(L3));
        assert!(c.base_latency(L3) < c.base_latency(LocalDram));
        assert!(c.base_latency(LocalDram) < c.base_latency(RemoteDram));
        assert!(c.base_latency(L3) < c.base_latency(Lfb));
    }

    #[test]
    fn interconnect_overrides() {
        let mut ic = InterconnectConfig { channel_bandwidth: 6.0, overrides: vec![(3, 4.0)] };
        assert_eq!(ic.bandwidth_of(0), 6.0);
        assert_eq!(ic.bandwidth_of(3), 4.0);
        ic.overrides.clear();
        assert_eq!(ic.bandwidth_of(3), 6.0);
    }

    #[test]
    #[should_panic(expected = "latency ladder")]
    fn validate_rejects_inverted_latencies() {
        let mut c = MachineConfig::scaled();
        c.latency.l2 = 1.0;
        c.validate();
    }

    #[test]
    #[should_panic]
    fn bad_geometry_panics() {
        CacheGeometry { size: 1000, assoc: 3 }.num_sets(64);
    }
}
