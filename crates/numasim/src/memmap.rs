//! The simulated address space: object allocation and page placement.
//!
//! Data values are never stored — an "allocation" reserves a range of the
//! synthetic address space and records *which NUMA node owns each page* of
//! it. The placement vocabulary matches what libnuma gives the paper:
//!
//! * [`PlacementPolicy::FirstTouch`] — Linux default; the node of the first
//!   core to touch a page becomes its home. A master thread initialising an
//!   array therefore lands every page on its own node — the root cause of
//!   most contention the paper diagnoses.
//! * [`PlacementPolicy::Bind`] — `numa_alloc_onnode`.
//! * [`PlacementPolicy::Interleave`] — `numa_alloc_interleaved`, the
//!   paper's coarse-grained *interleave* optimization and its ground-truth
//!   probe (§VII.B).
//! * [`PlacementPolicy::Segmented`] — the paper's *co-locate* optimization:
//!   each contiguous segment is placed on the node whose threads compute on
//!   it.
//! * [`PlacementPolicy::Replicated`] — the paper's *replicate* optimization
//!   for read-mostly data (Streamcluster's `block`): every node has a local
//!   copy, so each access resolves to the reader's own node.

use crate::config::MachineConfig;
use crate::topology::NodeId;

/// Identifier of an allocated data object, dense per [`MemoryMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

/// Why a placement policy was rejected.
///
/// Returned by the validating constructors ([`PlacementPolicy::weighted`])
/// and by [`MemoryMap::try_set_policy`]. The panicking entry points
/// ([`MemoryMap::alloc`], [`MemoryMap::set_policy`]) panic with this
/// error's `Display` text.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlacementError {
    /// An interleave (uniform or weighted) names no nodes.
    EmptyNodes,
    /// A policy names a node the machine does not have.
    NonexistentNode(NodeId),
    /// Weighted interleave got `nodes` and `weights` of different lengths.
    WeightCountMismatch {
        /// Number of nodes given.
        nodes: usize,
        /// Number of weights given.
        weights: usize,
    },
    /// A weight of zero (use a smaller node list instead).
    ZeroWeight {
        /// Position of the offending weight.
        index: usize,
    },
    /// The weight sum exceeds [`PlacementPolicy::MAX_WEIGHT_SUM`] (the
    /// striping pattern is materialised per object, so its length is
    /// bounded).
    WeightSumTooLarge {
        /// The rejected sum.
        sum: u64,
    },
    /// A segmented policy has no segments.
    EmptySegments,
    /// Segment end offsets must strictly increase.
    SegmentsNotIncreasing,
    /// The last segment must end exactly at the object size.
    SegmentsDontCover {
        /// End offset of the last segment.
        last_end: u64,
        /// The object size the segments must reach.
        size: u64,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::EmptyNodes => write!(f, "interleave over no nodes"),
            PlacementError::NonexistentNode(n) => write!(f, "placement on nonexistent {n}"),
            PlacementError::WeightCountMismatch { nodes, weights } => {
                write!(f, "weighted interleave over {nodes} nodes with {weights} weights")
            }
            PlacementError::ZeroWeight { index } => write!(f, "zero weight at position {index}"),
            PlacementError::WeightSumTooLarge { sum } => {
                write!(f, "weight sum {sum} exceeds the {} pattern bound", PlacementPolicy::MAX_WEIGHT_SUM)
            }
            PlacementError::EmptySegments => write!(f, "empty segment list"),
            PlacementError::SegmentsNotIncreasing => write!(f, "segment ends must strictly increase"),
            PlacementError::SegmentsDontCover { last_end, size } => {
                write!(f, "segments must cover the object exactly (end {last_end} of {size} bytes)")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Where the pages of an object live.
///
/// The enum is `#[non_exhaustive]`: downstream crates should prefer the
/// accessor methods ([`PlacementPolicy::segments`],
/// [`PlacementPolicy::bound_node`], [`PlacementPolicy::is_first_touch`],
/// …) over matching, so new policies do not fan breakage out.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlacementPolicy {
    /// Page homed on the node of the first accessor (Linux default).
    FirstTouch,
    /// Every page on one node.
    Bind(NodeId),
    /// Pages round-robined over the given nodes (must be non-empty).
    Interleave(Vec<NodeId>),
    /// Pages striped over `nodes` in proportion to `weights` — BWAP's
    /// `numactl --weights=1,3 --interleave=0,2`. Within every window of
    /// `sum(weights)` consecutive pages, node `i` owns exactly
    /// `weights[i]` of them, spread by smooth weighted round-robin (not
    /// clustered), and **equal weights degenerate to exactly the uniform
    /// [`PlacementPolicy::Interleave`] page assignment**. Construct with
    /// the validating [`PlacementPolicy::weighted`].
    WeightedInterleave {
        /// The nodes striped over (must be non-empty, all existing).
        nodes: Vec<NodeId>,
        /// Pages per node per striping cycle (same length as `nodes`,
        /// all non-zero, sum ≤ [`PlacementPolicy::MAX_WEIGHT_SUM`]).
        weights: Vec<u32>,
    },
    /// Contiguous segments, each bound to a node. Entries are
    /// `(end_offset_exclusive, node)` with strictly increasing offsets; the
    /// last entry must cover the whole object.
    Segmented(Vec<(u64, NodeId)>),
    /// A read-only copy on every node: accesses resolve to the reader's
    /// node (writes are allowed but modelled as local, matching the
    /// paper's use on data that is never overwritten after initialisation).
    Replicated,
}

impl PlacementPolicy {
    /// Upper bound on the sum of weighted-interleave weights: the striping
    /// pattern is materialised once per object, so its length is capped.
    pub const MAX_WEIGHT_SUM: u64 = 4096;

    /// Interleave over all `n` nodes. Thin alias for the uniform
    /// [`PlacementPolicy::Interleave`] over nodes `0..n`.
    pub fn interleave_all(n: usize) -> Self {
        PlacementPolicy::Interleave((0..n as u8).map(NodeId).collect())
    }

    /// Weighted interleave over `nodes` with one weight per node.
    ///
    /// # Errors
    /// [`PlacementError::EmptyNodes`] for an empty node list,
    /// [`PlacementError::WeightCountMismatch`] when the lengths differ,
    /// [`PlacementError::ZeroWeight`] for any zero weight, and
    /// [`PlacementError::WeightSumTooLarge`] when the weights sum past
    /// [`PlacementPolicy::MAX_WEIGHT_SUM`]. Node existence is checked at
    /// allocation / [`MemoryMap::try_set_policy`] time, like every other
    /// policy.
    pub fn weighted(nodes: Vec<NodeId>, weights: Vec<u32>) -> Result<Self, PlacementError> {
        if nodes.is_empty() {
            return Err(PlacementError::EmptyNodes);
        }
        if nodes.len() != weights.len() {
            return Err(PlacementError::WeightCountMismatch { nodes: nodes.len(), weights: weights.len() });
        }
        if let Some(index) = weights.iter().position(|&w| w == 0) {
            return Err(PlacementError::ZeroWeight { index });
        }
        let sum: u64 = weights.iter().map(|&w| w as u64).sum();
        if sum > Self::MAX_WEIGHT_SUM {
            return Err(PlacementError::WeightSumTooLarge { sum });
        }
        Ok(PlacementPolicy::WeightedInterleave { nodes, weights })
    }

    /// Weighted interleave over nodes `0..weights.len()` — the common
    /// "one weight per node of the machine" form.
    ///
    /// # Errors
    /// As [`PlacementPolicy::weighted`].
    pub fn weighted_all(weights: Vec<u32>) -> Result<Self, PlacementError> {
        let nodes = (0..weights.len() as u8).map(NodeId).collect();
        Self::weighted(nodes, weights)
    }

    /// Split `size` bytes into `n` equal segments, segment `i` on node `i` —
    /// the co-locate layout for a loop whose iteration space is divided
    /// evenly over nodes.
    pub fn colocate_even(size: u64, n: usize) -> Self {
        assert!(n > 0);
        let mut segs = Vec::with_capacity(n);
        for i in 0..n {
            let end = if i + 1 == n { size } else { size * (i as u64 + 1) / n as u64 };
            segs.push((end, NodeId(i as u8)));
        }
        PlacementPolicy::Segmented(segs)
    }

    /// Whether this is first-touch placement.
    pub fn is_first_touch(&self) -> bool {
        matches!(self, PlacementPolicy::FirstTouch)
    }

    /// Whether this is per-node replication.
    pub fn is_replicated(&self) -> bool {
        matches!(self, PlacementPolicy::Replicated)
    }

    /// The single home node of a [`PlacementPolicy::Bind`], if that is what
    /// this is.
    pub fn bound_node(&self) -> Option<NodeId> {
        match self {
            PlacementPolicy::Bind(n) => Some(*n),
            _ => None,
        }
    }

    /// The node list of a **uniform** interleave, if that is what this is.
    pub fn interleave_nodes(&self) -> Option<&[NodeId]> {
        match self {
            PlacementPolicy::Interleave(nodes) => Some(nodes),
            _ => None,
        }
    }

    /// The `(nodes, weights)` of a weighted interleave, if that is what
    /// this is.
    pub fn weighted_nodes(&self) -> Option<(&[NodeId], &[u32])> {
        match self {
            PlacementPolicy::WeightedInterleave { nodes, weights } => Some((nodes, weights)),
            _ => None,
        }
    }

    /// The `(end_offset, node)` segments of a segmented placement, if that
    /// is what this is.
    pub fn segments(&self) -> Option<&[(u64, NodeId)]> {
        match self {
            PlacementPolicy::Segmented(segs) => Some(segs),
            _ => None,
        }
    }

    /// Short human-readable description (for reports and tune traces).
    pub fn describe(&self) -> String {
        match self {
            PlacementPolicy::FirstTouch => "first-touch".into(),
            PlacementPolicy::Bind(n) => format!("bind({n})"),
            PlacementPolicy::Interleave(nodes) => format!("interleave({} nodes)", nodes.len()),
            PlacementPolicy::WeightedInterleave { weights, .. } => {
                let w: Vec<String> = weights.iter().map(|w| w.to_string()).collect();
                format!("weighted-interleave({})", w.join(":"))
            }
            PlacementPolicy::Segmented(segs) => format!("co-locate({} segments)", segs.len()),
            PlacementPolicy::Replicated => "replicate".into(),
        }
    }

    /// The weighted-interleave striping pattern: `sum(weights)` page slots,
    /// slot `k` naming the node of pages `p` with `p % len == k`.
    ///
    /// Smooth weighted round-robin (the nginx/LVS scheduler): each step
    /// every node's credit grows by its weight, the highest credit (ties:
    /// first listed) takes the slot and pays the total back. Node `i` gets
    /// exactly `weights[i]` slots per cycle, spread out rather than
    /// clustered — and equal weights reproduce the node list in order,
    /// which is exactly the uniform interleave assignment.
    fn weighted_pattern(nodes: &[NodeId], weights: &[u32]) -> Vec<u8> {
        let total: i64 = weights.iter().map(|&w| w as i64).sum();
        let mut credit = vec![0i64; nodes.len()];
        let mut out = Vec::with_capacity(total as usize);
        for _ in 0..total {
            for (c, &w) in credit.iter_mut().zip(weights) {
                *c += w as i64;
            }
            // First index with the maximum credit.
            let mut best = 0;
            for i in 1..credit.len() {
                if credit[i] > credit[best] {
                    best = i;
                }
            }
            credit[best] -= total;
            out.push(nodes[best].0);
        }
        out
    }
}

/// A successfully allocated object: its id and address range.
#[derive(Debug, Clone, Copy)]
pub struct ObjectHandle {
    /// Object id for registry lookups.
    pub id: ObjectId,
    /// First byte address.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
}

impl ObjectHandle {
    /// Address of byte `off` within the object.
    ///
    /// # Panics
    /// Panics in debug builds if `off` is out of range.
    #[inline]
    pub fn at(&self, off: u64) -> u64 {
        debug_assert!(off < self.size, "offset {off} out of object of {} bytes", self.size);
        self.base + off
    }
}

/// Registry entry for one object.
#[derive(Debug, Clone)]
pub struct ObjectInfo {
    /// Human-readable name (the variable name in the paper's case studies,
    /// e.g. `RAP_diag_j`, `block`, `reference`).
    pub label: String,
    /// First byte address.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
    /// Current placement policy.
    pub policy: PlacementPolicy,
    /// Page size used for placement of this object.
    pub page_size: u64,
    /// First-touch record: home node per page, `u8::MAX` = untouched.
    /// Only populated for [`PlacementPolicy::FirstTouch`].
    first_touch: Vec<u8>,
    /// Materialised weighted-interleave striping pattern (page slot →
    /// node), so `home_node` stays O(1). Only populated for
    /// [`PlacementPolicy::WeightedInterleave`].
    wil_pattern: Vec<u8>,
}

impl ObjectInfo {
    fn page_count(&self) -> usize {
        (self.size.div_ceil(self.page_size)) as usize
    }
}

const UNTOUCHED: u8 = u8::MAX;
/// Allocations start above zero so a null-ish address is never valid.
const BASE_ADDR: u64 = 0x1000_0000;

/// The simulated address space: a bump allocator plus the page-placement
/// registry. Owned by the engine during a run.
#[derive(Debug, Clone)]
pub struct MemoryMap {
    objects: Vec<ObjectInfo>,
    /// Object bases, for binary search; `bases[i]` belongs to `objects[i]`.
    bases: Vec<u64>,
    next_addr: u64,
    page_size: u64,
    huge_page_size: u64,
    num_nodes: usize,
    /// One-entry lookup cache: index of the last object hit.
    last_hit: std::cell::Cell<usize>,
}

impl MemoryMap {
    /// An empty address space for the given machine.
    pub fn new(cfg: &MachineConfig) -> Self {
        Self {
            objects: Vec::new(),
            bases: Vec::new(),
            next_addr: BASE_ADDR,
            page_size: cfg.mem.page_size,
            huge_page_size: cfg.mem.huge_page_size,
            num_nodes: cfg.topology.num_nodes(),
            last_hit: std::cell::Cell::new(0),
        }
    }

    /// Allocate `size` bytes on base (4 KiB) pages.
    ///
    /// # Panics
    /// Panics if `size == 0` or the policy is invalid for this machine.
    pub fn alloc(&mut self, label: &str, size: u64, policy: PlacementPolicy) -> ObjectHandle {
        self.alloc_with_page_size(label, size, policy, self.page_size)
    }

    /// Allocate `size` bytes on huge (2 MiB) pages — the bandit
    /// micro-benchmark needs the deterministic page-offset → cache-set
    /// mapping huge pages provide.
    pub fn alloc_huge(&mut self, label: &str, size: u64, policy: PlacementPolicy) -> ObjectHandle {
        self.alloc_with_page_size(label, size, policy, self.huge_page_size)
    }

    fn alloc_with_page_size(
        &mut self,
        label: &str,
        size: u64,
        policy: PlacementPolicy,
        page_size: u64,
    ) -> ObjectHandle {
        assert!(size > 0, "zero-sized allocation for {label:?}");
        if let Err(e) = self.check_policy(&policy, size) {
            panic!("invalid placement for {label:?}: {e}");
        }
        // Align the base so page 0 of the object starts a fresh page, then
        // apply cache-set coloring: successive allocations are offset by a
        // varying number of lines so that same-sized arrays do not land on
        // identical cache sets. Without this, a program allocating many
        // arrays whose size is a multiple of a cache's way size (e.g.
        // IRSmk's 29 equal coefficient arrays) would thrash every set-
        // associative level — real allocators and padded HPC codes avoid
        // exactly this pathological alignment.
        let color = (self.objects.len() as u64 % 61) * 64;
        let base = self.next_addr.next_multiple_of(page_size) + color;
        self.next_addr = base + size;
        let id = ObjectId(self.objects.len() as u32);
        let mut info = ObjectInfo {
            label: label.to_string(),
            base,
            size,
            policy,
            page_size,
            first_touch: Vec::new(),
            wil_pattern: Vec::new(),
        };
        if info.policy.is_first_touch() {
            info.first_touch = vec![UNTOUCHED; info.page_count()];
        }
        if let Some((nodes, weights)) = info.policy.weighted_nodes() {
            info.wil_pattern = PlacementPolicy::weighted_pattern(nodes, weights);
        }
        self.objects.push(info);
        self.bases.push(base);
        ObjectHandle { id, base, size }
    }

    /// Validate `policy` against this machine and an object of `size`
    /// bytes, without applying it anywhere.
    ///
    /// # Errors
    /// Any [`PlacementError`] the policy violates.
    pub fn check_policy(&self, policy: &PlacementPolicy, size: u64) -> Result<(), PlacementError> {
        let node_ok = |n: &NodeId| (n.0 as usize) < self.num_nodes;
        match policy {
            PlacementPolicy::Bind(n) => {
                if !node_ok(n) {
                    return Err(PlacementError::NonexistentNode(*n));
                }
            }
            PlacementPolicy::Interleave(nodes) => {
                if nodes.is_empty() {
                    return Err(PlacementError::EmptyNodes);
                }
                if let Some(n) = nodes.iter().find(|n| !node_ok(n)) {
                    return Err(PlacementError::NonexistentNode(*n));
                }
            }
            PlacementPolicy::WeightedInterleave { nodes, weights } => {
                // Re-run the constructor's structural checks: the variant is
                // publicly constructible (non_exhaustive does not seal it).
                PlacementPolicy::weighted(nodes.clone(), weights.clone())?;
                if let Some(n) = nodes.iter().find(|n| !node_ok(n)) {
                    return Err(PlacementError::NonexistentNode(*n));
                }
            }
            PlacementPolicy::Segmented(segs) => {
                if segs.is_empty() {
                    return Err(PlacementError::EmptySegments);
                }
                let mut prev = 0;
                for &(end, n) in segs {
                    if end <= prev {
                        return Err(PlacementError::SegmentsNotIncreasing);
                    }
                    if !node_ok(&n) {
                        return Err(PlacementError::NonexistentNode(n));
                    }
                    prev = end;
                }
                if prev != size {
                    return Err(PlacementError::SegmentsDontCover { last_end: prev, size });
                }
            }
            PlacementPolicy::FirstTouch | PlacementPolicy::Replicated => {}
        }
        Ok(())
    }

    /// Change an object's placement (the optimizations re-place data).
    /// Resets any first-touch history for the object.
    ///
    /// # Errors
    /// Any [`PlacementError`] the policy violates; the object is left
    /// unchanged on error.
    pub fn try_set_policy(&mut self, id: ObjectId, policy: PlacementPolicy) -> Result<(), PlacementError> {
        let size = self.objects[id.0 as usize].size;
        self.check_policy(&policy, size)?;
        let info = &mut self.objects[id.0 as usize];
        info.first_touch = if policy.is_first_touch() { vec![UNTOUCHED; info.page_count()] } else { Vec::new() };
        info.wil_pattern = match policy.weighted_nodes() {
            Some((nodes, weights)) => PlacementPolicy::weighted_pattern(nodes, weights),
            None => Vec::new(),
        };
        info.policy = policy;
        Ok(())
    }

    /// Change an object's placement (the optimizations re-place data).
    /// Resets any first-touch history for the object.
    ///
    /// # Panics
    /// Panics if the policy is invalid; see [`MemoryMap::try_set_policy`]
    /// for the non-panicking form.
    pub fn set_policy(&mut self, id: ObjectId, policy: PlacementPolicy) {
        if let Err(e) = self.try_set_policy(id, policy) {
            panic!("invalid placement for object {}: {e}", id.0);
        }
    }

    /// Forget all first-touch placements (fresh run on the same layout).
    pub fn reset_first_touch(&mut self) {
        for info in &mut self.objects {
            info.first_touch.fill(UNTOUCHED);
        }
    }

    /// The object containing `addr`, if any.
    #[inline]
    pub fn object_at(&self, addr: u64) -> Option<ObjectId> {
        self.index_of(addr).map(|i| ObjectId(i as u32))
    }

    #[inline]
    fn index_of(&self, addr: u64) -> Option<usize> {
        // Fast path: the object hit by the previous lookup.
        let cached = self.last_hit.get();
        if let Some(info) = self.objects.get(cached) {
            if addr >= info.base && addr < info.base + info.size {
                return Some(cached);
            }
        }
        let i = self.bases.partition_point(|&b| b <= addr);
        if i == 0 {
            return None;
        }
        let info = &self.objects[i - 1];
        if addr < info.base + info.size {
            self.last_hit.set(i - 1);
            Some(i - 1)
        } else {
            None
        }
    }

    /// Home node of the page containing `addr`, as seen by a core on
    /// `accessor`. For first-touch objects this *establishes* the placement
    /// on the first call for a page (hence `&mut`).
    ///
    /// # Panics
    /// Panics if `addr` is outside every allocation.
    #[inline]
    pub fn home_node(&mut self, addr: u64, accessor: NodeId) -> NodeId {
        let idx = self.index_of(addr).unwrap_or_else(|| panic!("access to unallocated address {addr:#x}"));
        let info = &mut self.objects[idx];
        let off = addr - info.base;
        let page = (off / info.page_size) as usize;
        match &info.policy {
            PlacementPolicy::Bind(n) => *n,
            PlacementPolicy::Replicated => accessor,
            PlacementPolicy::Interleave(nodes) => nodes[page % nodes.len()],
            PlacementPolicy::WeightedInterleave { .. } => NodeId(info.wil_pattern[page % info.wil_pattern.len()]),
            PlacementPolicy::Segmented(segs) => {
                let i = segs.partition_point(|&(end, _)| end <= off);
                segs[i].1
            }
            PlacementPolicy::FirstTouch => {
                let slot = &mut info.first_touch[page];
                if *slot == UNTOUCHED {
                    *slot = accessor.0;
                }
                NodeId(*slot)
            }
        }
    }

    /// Like [`MemoryMap::home_node`], but also returns the first address
    /// *after* `addr` at which the answer could change: the end of the
    /// page for page-granular policies (interleave, first-touch), of the
    /// segment for segmented placement, or of the whole object otherwise.
    /// Every address in `addr..end` has the same home for the same
    /// `accessor`, letting a sequential miss stream skip the lookup until
    /// it crosses `end`. First-touch pages are established exactly as
    /// `home_node` would — the span never extends past the page, so no
    /// page is established earlier than its first actual miss.
    ///
    /// # Panics
    /// Panics if `addr` is outside every allocation.
    #[inline]
    pub fn home_node_span(&mut self, addr: u64, accessor: NodeId) -> (NodeId, u64) {
        let idx = self.index_of(addr).unwrap_or_else(|| panic!("access to unallocated address {addr:#x}"));
        let info = &mut self.objects[idx];
        let off = addr - info.base;
        let page = (off / info.page_size) as usize;
        let obj_end = info.base + info.size;
        let page_end = (info.base + (page as u64 + 1) * info.page_size).min(obj_end);
        match &info.policy {
            PlacementPolicy::Bind(n) => (*n, obj_end),
            PlacementPolicy::Replicated => (accessor, obj_end),
            PlacementPolicy::Interleave(nodes) => (nodes[page % nodes.len()], page_end),
            PlacementPolicy::WeightedInterleave { .. } => {
                (NodeId(info.wil_pattern[page % info.wil_pattern.len()]), page_end)
            }
            PlacementPolicy::Segmented(segs) => {
                let i = segs.partition_point(|&(end, _)| end <= off);
                (segs[i].1, info.base + segs[i].0)
            }
            PlacementPolicy::FirstTouch => {
                let slot = &mut info.first_touch[page];
                if *slot == UNTOUCHED {
                    *slot = accessor.0;
                }
                (NodeId(*slot), page_end)
            }
        }
    }

    /// Read-only view of the home node, without establishing first touch.
    /// Untouched first-touch pages report `None` — the analogue of libnuma's
    /// "page not yet faulted in".
    pub fn query_node(&self, addr: u64) -> Option<NodeId> {
        let idx = self.index_of(addr)?;
        let info = &self.objects[idx];
        let off = addr - info.base;
        let page = (off / info.page_size) as usize;
        match &info.policy {
            PlacementPolicy::Bind(n) => Some(*n),
            PlacementPolicy::Replicated => None,
            PlacementPolicy::Interleave(nodes) => Some(nodes[page % nodes.len()]),
            PlacementPolicy::WeightedInterleave { .. } => Some(NodeId(info.wil_pattern[page % info.wil_pattern.len()])),
            PlacementPolicy::Segmented(segs) => {
                let i = segs.partition_point(|&(end, _)| end <= off);
                Some(segs[i].1)
            }
            PlacementPolicy::FirstTouch => {
                let n = info.first_touch[page];
                (n != UNTOUCHED).then_some(NodeId(n))
            }
        }
    }

    /// Registry entry for an object.
    pub fn object(&self, id: ObjectId) -> &ObjectInfo {
        &self.objects[id.0 as usize]
    }

    /// All objects in allocation order.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, &ObjectInfo)> {
        self.objects.iter().enumerate().map(|(i, o)| (ObjectId(i as u32), o))
    }

    /// Number of allocated objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether no objects have been allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn mm() -> MemoryMap {
        MemoryMap::new(&MachineConfig::scaled())
    }

    #[test]
    fn alloc_is_line_aligned_disjoint_and_colored() {
        let mut m = mm();
        let a = m.alloc("a", 100, PlacementPolicy::Bind(NodeId(0)));
        let b = m.alloc("b", 100, PlacementPolicy::Bind(NodeId(1)));
        assert_eq!(a.base % 64, 0, "line aligned");
        assert_eq!(b.base % 64, 0);
        assert!(b.base >= a.base + a.size, "disjoint");
        // Coloring: equal-sized back-to-back allocations land on different
        // cache-set offsets.
        let sets = |h: ObjectHandle| (h.base / 64) % 2048;
        assert_ne!(sets(a), sets(b), "cache-set coloring applied");
    }

    #[test]
    fn object_at_finds_interior_and_rejects_gaps() {
        let mut m = mm();
        let a = m.alloc("a", 100, PlacementPolicy::Bind(NodeId(0)));
        let _b = m.alloc("b", 100, PlacementPolicy::Bind(NodeId(0)));
        assert_eq!(m.object_at(a.base + 50), Some(a.id));
        assert_eq!(m.object_at(a.base + 150), None, "gap between objects");
        assert_eq!(m.object_at(0), None);
    }

    #[test]
    fn bind_policy() {
        let mut m = mm();
        let a = m.alloc("a", 1 << 20, PlacementPolicy::Bind(NodeId(2)));
        assert_eq!(m.home_node(a.at(0), NodeId(0)), NodeId(2));
        assert_eq!(m.home_node(a.at(a.size - 1), NodeId(3)), NodeId(2));
    }

    #[test]
    fn first_touch_sticks() {
        let mut m = mm();
        let a = m.alloc("a", 1 << 20, PlacementPolicy::FirstTouch);
        assert_eq!(m.query_node(a.at(0)), None, "untouched page has no home");
        assert_eq!(m.home_node(a.at(0), NodeId(3)), NodeId(3));
        // A later accessor from another node does not move the page.
        assert_eq!(m.home_node(a.at(1), NodeId(1)), NodeId(3));
        assert_eq!(m.query_node(a.at(0)), Some(NodeId(3)));
        // A different page is touched independently.
        assert_eq!(m.home_node(a.at(4096), NodeId(1)), NodeId(1));
    }

    #[test]
    fn interleave_round_robins_pages() {
        let mut m = mm();
        let a = m.alloc("a", 4 * 4096, PlacementPolicy::interleave_all(4));
        for p in 0..4u64 {
            assert_eq!(m.home_node(a.at(p * 4096), NodeId(0)), NodeId(p as u8));
        }
        // Within one page, same node.
        assert_eq!(m.home_node(a.at(4096 + 7), NodeId(0)), NodeId(1));
    }

    #[test]
    fn segmented_covers_exactly() {
        let mut m = mm();
        let pol = PlacementPolicy::colocate_even(1 << 20, 4);
        let a = m.alloc("a", 1 << 20, pol);
        assert_eq!(m.home_node(a.at(0), NodeId(3)), NodeId(0));
        assert_eq!(m.home_node(a.at((1 << 20) - 1), NodeId(0)), NodeId(3));
        assert_eq!(m.home_node(a.at(1 << 19), NodeId(0)), NodeId(2));
    }

    #[test]
    fn replicated_resolves_to_reader() {
        let mut m = mm();
        let a = m.alloc("a", 4096, PlacementPolicy::Replicated);
        assert_eq!(m.home_node(a.at(0), NodeId(0)), NodeId(0));
        assert_eq!(m.home_node(a.at(0), NodeId(3)), NodeId(3));
    }

    #[test]
    fn set_policy_resets_first_touch() {
        let mut m = mm();
        let a = m.alloc("a", 4096, PlacementPolicy::FirstTouch);
        m.home_node(a.at(0), NodeId(2));
        m.set_policy(a.id, PlacementPolicy::interleave_all(4));
        assert_eq!(m.home_node(a.at(0), NodeId(0)), NodeId(0));
        m.set_policy(a.id, PlacementPolicy::FirstTouch);
        assert_eq!(m.query_node(a.at(0)), None);
    }

    #[test]
    fn huge_pages_interleave_coarser() {
        let mut m = mm();
        let a = m.alloc_huge("a", 4 << 20, PlacementPolicy::interleave_all(2));
        // 2 MiB pages: first 2 MiB on node 0, next on node 1.
        assert_eq!(m.home_node(a.at(0), NodeId(0)), NodeId(0));
        assert_eq!(m.home_node(a.at((2 << 20) - 1), NodeId(0)), NodeId(0));
        assert_eq!(m.home_node(a.at(2 << 20), NodeId(0)), NodeId(1));
    }

    #[test]
    fn reset_first_touch_forgets() {
        let mut m = mm();
        let a = m.alloc("a", 4096, PlacementPolicy::FirstTouch);
        m.home_node(a.at(0), NodeId(1));
        m.reset_first_touch();
        assert_eq!(m.home_node(a.at(0), NodeId(2)), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn home_node_panics_outside_allocations() {
        let mut m = mm();
        m.home_node(42, NodeId(0));
    }

    #[test]
    fn home_node_span_agrees_and_bounds_are_tight() {
        let mut m = mm();
        let bind = m.alloc("bind", 3 * 4096, PlacementPolicy::Bind(NodeId(2)));
        let il = m.alloc("il", 4 * 4096, PlacementPolicy::interleave_all(4));
        let seg = m.alloc("seg", 1 << 20, PlacementPolicy::colocate_even(1 << 20, 4));
        let ft = m.alloc("ft", 2 * 4096, PlacementPolicy::FirstTouch);
        let rep = m.alloc("rep", 4096, PlacementPolicy::Replicated);
        let mut check = |addr: u64, accessor: NodeId| {
            let mut probe = m.clone();
            let expect = probe.home_node(addr, accessor);
            let (home, end) = m.home_node_span(addr, accessor);
            assert_eq!(home, expect);
            assert!(end > addr, "span must be non-empty");
            // Every address within the span resolves identically.
            for a in [addr, (addr + end) / 2, end - 1] {
                assert_eq!(m.home_node(a, accessor), home, "span not uniform at {a:#x}");
            }
            end
        };
        assert_eq!(check(bind.at(0), NodeId(0)), bind.base + bind.size);
        assert_eq!(check(il.at(4096 + 7), NodeId(0)), il.base + 2 * 4096);
        assert_eq!(check(seg.at(0), NodeId(3)), seg.base + (1 << 18));
        assert_eq!(check(ft.at(100), NodeId(3)), ft.base + 4096);
        assert_eq!(check(rep.at(10), NodeId(1)), rep.base + rep.size);
        // Establishing via span is indistinguishable from home_node.
        assert_eq!(m.query_node(ft.at(0)), Some(NodeId(3)));
        assert_eq!(m.query_node(ft.at(4096)), None, "next page untouched");
    }

    #[test]
    #[should_panic(expected = "cover the object exactly")]
    fn segmented_must_cover() {
        let mut m = mm();
        m.alloc("a", 100, PlacementPolicy::Segmented(vec![(50, NodeId(0))]));
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_alloc_rejected() {
        mm().alloc("z", 0, PlacementPolicy::FirstTouch);
    }

    #[test]
    fn weighted_constructor_validates() {
        let n = |i: u8| NodeId(i);
        assert_eq!(PlacementPolicy::weighted(vec![], vec![]), Err(PlacementError::EmptyNodes));
        assert_eq!(
            PlacementPolicy::weighted(vec![n(0), n(1)], vec![1]),
            Err(PlacementError::WeightCountMismatch { nodes: 2, weights: 1 })
        );
        assert_eq!(
            PlacementPolicy::weighted(vec![n(0), n(1)], vec![1, 0]),
            Err(PlacementError::ZeroWeight { index: 1 })
        );
        assert_eq!(
            PlacementPolicy::weighted(vec![n(0), n(1)], vec![5000, 1]),
            Err(PlacementError::WeightSumTooLarge { sum: 5001 })
        );
        assert!(PlacementPolicy::weighted(vec![n(0), n(2)], vec![1, 3]).is_ok());
        // Node existence is a machine property, caught at apply time.
        let mut m = mm();
        let pol = PlacementPolicy::weighted(vec![n(9)], vec![1]).unwrap();
        let a = m.alloc("a", 4096, PlacementPolicy::FirstTouch);
        assert_eq!(m.try_set_policy(a.id, pol), Err(PlacementError::NonexistentNode(n(9))));
        assert!(m.object(a.id).policy.is_first_touch(), "object unchanged on error");
    }

    #[test]
    fn weighted_equal_weights_match_uniform_interleave() {
        let mut m = mm();
        let pages = 64u64;
        let uni = m.alloc("uni", pages * 4096, PlacementPolicy::interleave_all(4));
        let wil = m.alloc("wil", pages * 4096, PlacementPolicy::weighted_all(vec![7, 7, 7, 7]).unwrap());
        for p in 0..pages {
            assert_eq!(m.query_node(uni.at(p * 4096)), m.query_node(wil.at(p * 4096)), "page {p}");
        }
    }

    #[test]
    fn weighted_striping_is_deterministic_and_proportional() {
        let mut m = mm();
        // 1:3 over nodes {0, 2}: every 4-page window has one page on node 0
        // and three on node 2, smooth-spread (node 2 first: higher weight).
        let pol = PlacementPolicy::weighted(vec![NodeId(0), NodeId(2)], vec![1, 3]).unwrap();
        let a = m.alloc("a", 16 * 4096, pol.clone());
        let homes: Vec<u8> = (0..16).map(|p| m.home_node(a.at(p * 4096), NodeId(1)).0).collect();
        assert_eq!(&homes[..4], &[2, 0, 2, 2], "smooth WRR order");
        assert_eq!(&homes[4..8], &homes[..4], "pattern repeats per cycle");
        for win in homes.chunks(4) {
            assert_eq!(win.iter().filter(|&&h| h == 0).count(), 1);
            assert_eq!(win.iter().filter(|&&h| h == 2).count(), 3);
        }
        // Same policy on a second allocation stripes identically.
        let b = m.alloc("b", 16 * 4096, pol);
        let homes_b: Vec<u8> = (0..16).map(|p| m.home_node(b.at(p * 4096), NodeId(1)).0).collect();
        assert_eq!(homes, homes_b, "striping is a pure function of the policy");
    }

    #[test]
    fn weighted_huge_pages_and_spans() {
        let mut m = mm();
        let pol = PlacementPolicy::weighted(vec![NodeId(0), NodeId(1)], vec![1, 2]).unwrap();
        let a = m.alloc_huge("a", 6 << 20, pol);
        // 2 MiB pages, cycle [1, 0, 1]: node 1 first (weight 2 wins the tie
        // pattern), then 0, then 1 again.
        assert_eq!(m.home_node(a.at(0), NodeId(3)), NodeId(1));
        assert_eq!(m.home_node(a.at(2 << 20), NodeId(3)), NodeId(0));
        assert_eq!(m.home_node(a.at(4 << 20), NodeId(3)), NodeId(1));
        // Span is page-granular and agrees with home_node.
        let (home, end) = m.home_node_span(a.at(7), NodeId(3));
        assert_eq!(home, NodeId(1));
        assert_eq!(end, a.base + (2 << 20));
    }

    #[test]
    fn labels_and_iteration() {
        let mut m = mm();
        m.alloc("x", 10, PlacementPolicy::FirstTouch);
        m.alloc("y", 10, PlacementPolicy::FirstTouch);
        let labels: Vec<_> = m.objects().map(|(_, o)| o.label.clone()).collect();
        assert_eq!(labels, ["x", "y"]);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }
}
