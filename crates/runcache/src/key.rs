//! Content-addressed cache keys: a stable structural hash over everything
//! that determines a simulated run's outcome.
//!
//! The simulator is deterministic end to end: [`workloads::Workload::build`]
//! documents that the same `(machine, run)` pair yields the same
//! allocations and streams, and all randomness (stream seeds, sampler
//! jitter) derives from [`RunConfig::seed`] and the sampler configuration.
//! A run's result is therefore a pure function of
//!
//! * the full [`MachineConfig`] (topology, cache geometry, latencies,
//!   bandwidths, congestion knobs, engine scheduling),
//! * the workload's name plus the full [`RunConfig`] — the phase
//!   `ThreadSpec`s themselves hold `Box<dyn AccessStream>` trait objects
//!   and cannot be hashed, but by the deterministic-build contract they are
//!   a function of `(name, machine, run config)`,
//! * the sampler configuration (or its absence, for unprofiled runs),
//! * [`SCHEMA_VERSION`], bumped whenever the engine's observable semantics
//!   or the on-disk codec change.
//!
//! Hashing must be **stable across executions and Rust releases** — the
//! standard library's `DefaultHasher` is explicitly not — so the hash is a
//! hand-rolled pair of FNV-1a(64) lanes with distinct offset bases and a
//! splitmix64 finalizer, giving a 128-bit key. Every field is fed
//! length-prefixed or via a fixed-width encoding, so field boundaries
//! cannot alias.

use numasim::config::MachineConfig;
use pebs::sampler::SamplerConfig;
use workloads::config::{Input, RunConfig, Variant};
use workloads::plan::PlanAction;

/// Version of the cached-run schema: the entry layout, the columnar codec,
/// *and* the engine semantics the payload snapshots. Bump on any change to
/// either — a version mismatch is treated as a miss, never a decode
/// attempt.
///
/// v2: `RunStats` gained `mc_avg_rho` (codec change) and `RunConfig`
/// gained the guided-optimization placement plan (key change).
///
/// v3: the key stopped hashing the engine's execution-mode and span-fusion
/// tags when those options left `EngineConfig` (key change).
pub const SCHEMA_VERSION: u32 = 3;

const FNV_PRIME: u64 = 0x100_0000_01b3;
const LANE_A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325; // standard FNV-1a offset basis
const LANE_B_OFFSET: u64 = 0x6c62_272e_07bb_0142; // high half of the FNV-128 basis

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Incremental two-lane FNV-1a hasher producing a [`RunKey`].
///
/// Unlike `std::hash::Hasher` implementations, the byte-for-byte behaviour
/// of this hasher is part of the on-disk format and must never change
/// without a [`SCHEMA_VERSION`] bump.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    a: u64,
    b: u64,
    len: u64,
}

impl KeyHasher {
    /// Fresh hasher seeded with a domain tag so run keys can never collide
    /// with hashes computed for other purposes.
    pub fn new(domain: &str) -> Self {
        let mut h = Self { a: LANE_A_OFFSET, b: LANE_B_OFFSET, len: 0 };
        h.bytes(domain.as_bytes());
        h
    }

    fn byte(&mut self, byte: u8) {
        self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
        // The second lane sees each byte pre-whitened so the lanes do not
        // merely differ by a constant factor.
        self.b = (self.b ^ (byte ^ 0x5c) as u64).wrapping_mul(FNV_PRIME);
        self.len += 1;
    }

    /// Feed raw bytes (no length prefix — use for fixed-width encodings).
    pub fn raw(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.byte(byte);
        }
    }

    /// Feed a length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.raw(bytes);
    }

    /// Feed a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Feed a `u64` as 8 little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Feed an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feed a small enum discriminant / flag byte.
    pub fn tag(&mut self, v: u8) {
        self.byte(v);
    }

    /// Finalize into a 128-bit key. The total fed length is mixed into both
    /// halves, and each lane is passed through splitmix64 to spread the
    /// low-entropy FNV state across all bits.
    pub fn finish(&self) -> RunKey {
        RunKey { hi: splitmix64(self.a ^ self.len.rotate_left(32)), lo: splitmix64(self.b ^ self.len) }
    }
}

/// A 128-bit content-addressed key identifying one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl RunKey {
    /// The entry file name for this key (32 hex digits + `.run`).
    pub fn file_name(&self) -> String {
        format!("{:016x}{:016x}.run", self.hi, self.lo)
    }

    /// Derive the key for one run: machine, workload identity, run
    /// configuration, sampling configuration (or `None` for an unprofiled
    /// run), and the schema version.
    pub fn for_run(
        mcfg: &MachineConfig,
        workload_name: &str,
        rcfg: &RunConfig,
        sampling: Option<&SamplerConfig>,
    ) -> Self {
        let mut h = KeyHasher::new("drbw-runcache");
        h.u64(SCHEMA_VERSION as u64);
        hash_machine(&mut h, mcfg);
        h.str(workload_name);
        hash_run_config(&mut h, rcfg);
        match sampling {
            None => h.tag(0),
            Some(s) => {
                h.tag(1);
                h.u64(s.period);
                h.f64(s.latency_threshold);
                h.f64(s.latency_jitter);
                h.f64(s.per_sample_cost);
            }
        }
        h.finish()
    }
}

impl std::fmt::Display for RunKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Feed every semantically relevant `MachineConfig` field. Field order is
/// part of the format.
fn hash_machine(h: &mut KeyHasher, m: &MachineConfig) {
    h.u64(m.topology.num_nodes() as u64);
    h.u64(m.topology.cores_per_node() as u64);
    h.u64(m.topology.smt() as u64);

    h.u64(m.cache.line_size);
    for geom in [m.cache.l1, m.cache.l2, m.cache.l3] {
        h.u64(geom.size);
        h.u64(geom.assoc as u64);
    }
    h.u64(m.cache.lfb_entries as u64);

    for lat in [
        m.latency.l1,
        m.latency.l2,
        m.latency.l3,
        m.latency.lfb,
        m.latency.dram_fixed,
        m.latency.dram_local_service,
        m.latency.dram_remote_service,
    ] {
        h.f64(lat);
    }

    h.u64(m.mem.page_size);
    h.u64(m.mem.huge_page_size);
    h.f64(m.mem.mc_bandwidth);

    h.f64(m.interconnect.channel_bandwidth);
    h.u64(m.interconnect.overrides.len() as u64);
    for &(idx, bw) in &m.interconnect.overrides {
        h.u64(idx as u64);
        h.f64(bw);
    }

    h.f64(m.congestion.knee);
    h.f64(m.congestion.rho_cap);
    h.f64(m.congestion.max_factor);
    h.f64(m.congestion.ctrl_target);
    h.f64(m.congestion.saturation);

    h.f64(m.engine.round_cycles);
    h.f64(m.engine.default_mlp);
}

fn hash_run_config(h: &mut KeyHasher, r: &RunConfig) {
    h.u64(r.threads as u64);
    h.u64(r.nodes as u64);
    h.tag(match r.input {
        Input::Small => 0,
        Input::Medium => 1,
        Input::Large => 2,
        Input::Native => 3,
    });
    h.tag(match r.variant {
        Variant::Baseline => 0,
        Variant::InterleaveAll => 1,
        Variant::CoLocate => 2,
        Variant::Replicate => 3,
    });
    h.u64(r.seed);
    // The placement plan rewrites the memory map before execution, so it is
    // as much a part of the outcome as the variant. `None` and an explicit
    // empty plan hash differently from each other only via the tag —
    // both leave the map untouched, but arguing their equivalence is not
    // the key's job.
    match &r.plan {
        None => h.tag(0),
        Some(plan) => {
            h.tag(1);
            h.u64(plan.len() as u64);
            for entry in plan.entries() {
                h.str(&entry.label);
                hash_plan_action(h, &entry.action);
            }
        }
    }
}

fn hash_plan_action(h: &mut KeyHasher, a: &PlanAction) {
    match a {
        PlanAction::Bind(n) => {
            h.tag(0);
            h.u64(n.0 as u64);
        }
        PlanAction::Interleave(nodes) => {
            h.tag(1);
            h.u64(nodes.len() as u64);
            for n in nodes {
                h.u64(n.0 as u64);
            }
        }
        PlanAction::WeightedInterleave { nodes, weights } => {
            h.tag(2);
            h.u64(nodes.len() as u64);
            for (n, w) in nodes.iter().zip(weights) {
                h.u64(n.0 as u64);
                h.u64(*w as u64);
            }
        }
        PlanAction::ColocateEven { nodes } => {
            h.tag(3);
            h.u64(*nodes as u64);
        }
        PlanAction::Replicate => h.tag(4),
        PlanAction::FirstTouch => h.tag(5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_key() -> RunKey {
        let mcfg = MachineConfig::scaled();
        let rcfg = RunConfig::new(16, 2, Input::Small);
        RunKey::for_run(&mcfg, "Sumv", &rcfg, Some(&SamplerConfig::default()))
    }

    #[test]
    fn key_is_deterministic() {
        assert_eq!(base_key(), base_key());
    }

    #[test]
    fn key_separates_every_input_dimension() {
        let mcfg = MachineConfig::scaled();
        let rcfg = RunConfig::new(16, 2, Input::Small);
        let scfg = SamplerConfig::default();
        let k0 = RunKey::for_run(&mcfg, "Sumv", &rcfg, Some(&scfg));

        let mut m2 = mcfg.clone();
        m2.latency.dram_remote_service += 1.0;
        assert_ne!(k0, RunKey::for_run(&m2, "Sumv", &rcfg, Some(&scfg)));

        let mut m3 = mcfg.clone();
        m3.engine.round_cycles *= 2.0;
        assert_ne!(k0, RunKey::for_run(&m3, "Sumv", &rcfg, Some(&scfg)));

        assert_ne!(k0, RunKey::for_run(&mcfg, "Dotv", &rcfg, Some(&scfg)));
        assert_ne!(k0, RunKey::for_run(&mcfg, "Sumv", &rcfg.with_seed(7), Some(&scfg)));
        assert_ne!(k0, RunKey::for_run(&mcfg, "Sumv", &rcfg.with_variant(Variant::InterleaveAll), Some(&scfg)));
        assert_ne!(k0, RunKey::for_run(&mcfg, "Sumv", &rcfg, Some(&SamplerConfig { period: 500, ..scfg })));
        assert_ne!(k0, RunKey::for_run(&mcfg, "Sumv", &rcfg, None));
    }

    #[test]
    fn key_separates_placement_plans() {
        use numasim::topology::NodeId;
        use workloads::plan::PlacementPlan;
        let mcfg = MachineConfig::scaled();
        let rcfg = RunConfig::new(16, 2, Input::Small);
        let k0 = RunKey::for_run(&mcfg, "Sumv", &rcfg, None);
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();

        let uni = rcfg.with_plan(PlacementPlan::new().with("v", PlanAction::Interleave(nodes.clone())));
        let k_uni = RunKey::for_run(&mcfg, "Sumv", &uni, None);
        assert_ne!(k0, k_uni, "a plan must miss against the baseline");

        // Same action, different object.
        let other = rcfg.with_plan(PlacementPlan::new().with("w", PlanAction::Interleave(nodes.clone())));
        assert_ne!(k_uni, RunKey::for_run(&mcfg, "Sumv", &other, None));

        // Same nodes, weighted vs uniform — distinct even at equal weights
        // (bit-identical outcome, but equivalence-arguing is not the key's
        // job).
        let wil = rcfg.with_plan(
            PlacementPlan::new()
                .with("v", PlanAction::WeightedInterleave { nodes: nodes.clone(), weights: vec![1, 1] }),
        );
        let k_wil = RunKey::for_run(&mcfg, "Sumv", &wil, None);
        assert_ne!(k_uni, k_wil);

        // Different weights.
        let wil2 = rcfg
            .with_plan(PlacementPlan::new().with("v", PlanAction::WeightedInterleave { nodes, weights: vec![1, 3] }));
        assert_ne!(k_wil, RunKey::for_run(&mcfg, "Sumv", &wil2, None));

        // Determinism.
        assert_eq!(k_wil, RunKey::for_run(&mcfg, "Sumv", &wil, None));
    }

    #[test]
    fn length_prefixing_prevents_field_aliasing() {
        // "ab" + "c" must not hash like "a" + "bc".
        let mut h1 = KeyHasher::new("t");
        h1.str("ab");
        h1.str("c");
        let mut h2 = KeyHasher::new("t");
        h2.str("a");
        h2.str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn file_name_is_32_hex_digits() {
        let name = base_key().file_name();
        assert_eq!(name.len(), 36);
        assert!(name.ends_with(".run"));
        assert!(name[..32].chars().all(|c| c.is_ascii_hexdigit()));
    }
}
