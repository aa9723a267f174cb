//! CART decision trees with Gini impurity.
//!
//! The algorithm is the classic one: at each node, scan every feature for
//! the threshold that minimises the weighted Gini impurity of the two
//! children; recurse until a stopping rule fires (pure node, depth limit,
//! minimum leaf size, or no split gains at least `min_gain`). Ties are
//! broken deterministically (lower feature index, then lower threshold), so
//! training is reproducible.
//!
//! The paper's learned tree (Figure 3) is small — it splits on two features
//! (remote-DRAM sample count and average remote-DRAM latency) — so depth
//! limits around 3–4 match it well.

use crate::dataset::Dataset;
use crate::error::MldtError;

/// Stopping rules and regularisation for training.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum rows in each child of a split.
    pub min_samples_leaf: usize,
    /// Minimum rows required to consider splitting a node.
    pub min_samples_split: usize,
    /// Minimum Gini improvement for a split to be kept.
    pub min_gain: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        // Conservative defaults matched to DR-BW's ~200-instance training
        // sets: leaves below 8 rows tend to be label noise there, and
        // letting them carve out regions produces exactly the kind of
        // overfit rescue-branches a contention classifier cannot afford
        // (a 3-row leaf can flip a whole family of benchmark cases).
        Self { max_depth: 3, min_samples_leaf: 8, min_samples_split: 16, min_gain: 1e-4 }
    }
}

/// A node of the flattened tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Terminal node predicting `label`; `counts` holds the training-row
    /// distribution that reached it.
    Leaf {
        /// Predicted class.
        label: usize,
        /// Training rows per class at this leaf.
        counts: Vec<usize>,
    },
    /// Internal split: rows with `features[feature] <= threshold` go to
    /// `left`, others to `right` (indices into the node arena).
    Split {
        /// Feature index tested.
        feature: usize,
        /// Decision threshold.
        threshold: f64,
        /// Arena index of the ≤ branch.
        left: usize,
        /// Arena index of the > branch.
        right: usize,
    },
}

/// A trained CART classifier.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    num_features: usize,
    num_classes: usize,
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

impl DecisionTree {
    /// Train on every row of `data`.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn train(data: &Dataset, cfg: TrainConfig) -> Self {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut tree = Self { nodes: Vec::new(), num_features: data.num_features(), num_classes: data.num_classes() };
        tree.build(data, indices, 0, &cfg);
        tree
    }

    fn class_counts(data: &Dataset, idx: &[usize], num_classes: usize) -> Vec<usize> {
        let mut counts = vec![0; num_classes];
        for &i in idx {
            counts[data.label(i)] += 1;
        }
        counts
    }

    fn make_leaf(&mut self, counts: Vec<usize>) -> usize {
        // Deterministic argmax: first class with the maximal count.
        let label = counts.iter().enumerate().max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0))).map(|(i, _)| i).unwrap();
        self.nodes.push(Node::Leaf { label, counts });
        self.nodes.len() - 1
    }

    fn build(&mut self, data: &Dataset, mut idx: Vec<usize>, depth: usize, cfg: &TrainConfig) -> usize {
        let counts = Self::class_counts(data, &idx, self.num_classes);
        let total = idx.len();
        let node_gini = gini(&counts, total);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || depth >= cfg.max_depth || total < cfg.min_samples_split {
            return self.make_leaf(counts);
        }
        let Some(best) = self.best_split(data, &idx, &counts, node_gini, cfg) else {
            return self.make_leaf(counts);
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.drain(..).partition(|&i| data.row(i)[best.feature] <= best.threshold);
        debug_assert!(left_idx.len() >= cfg.min_samples_leaf && right_idx.len() >= cfg.min_samples_leaf);
        // Reserve this node's slot before recursing so the root is node 0.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { label: 0, counts: Vec::new() }); // placeholder
        let left = self.build(data, left_idx, depth + 1, cfg);
        let right = self.build(data, right_idx, depth + 1, cfg);
        // A split whose children are leaves of one class predicts that
        // class either way: fold it into one leaf. Both leaves are then the
        // last two nodes, and bottom-up this collapses whole same-class
        // chains. The class with the most rows in both children has the
        // most in their sum, so the folded leaf keeps their label.
        if let (Node::Leaf { label: l, .. }, Node::Leaf { label: r, .. }) = (&self.nodes[left], &self.nodes[right]) {
            if l == r {
                self.nodes.truncate(slot);
                return self.make_leaf(counts);
            }
        }
        self.nodes[slot] = Node::Split { feature: best.feature, threshold: best.threshold, left, right };
        slot
    }

    fn best_split(
        &self,
        data: &Dataset,
        idx: &[usize],
        counts: &[usize],
        node_gini: f64,
        cfg: &TrainConfig,
    ) -> Option<BestSplit> {
        let total = idx.len();
        let mut best: Option<BestSplit> = None;
        let mut order: Vec<usize> = idx.to_vec();
        for f in 0..self.num_features {
            order.sort_unstable_by(|&a, &b| data.row(a)[f].partial_cmp(&data.row(b)[f]).unwrap());
            let mut left_counts = vec![0usize; self.num_classes];
            for w in 0..total - 1 {
                left_counts[data.label(order[w])] += 1;
                let v = data.row(order[w])[f];
                let v_next = data.row(order[w + 1])[f];
                if v == v_next {
                    continue; // cannot split between equal values
                }
                let n_left = w + 1;
                let n_right = total - n_left;
                if n_left < cfg.min_samples_leaf || n_right < cfg.min_samples_leaf {
                    continue;
                }
                let right_counts: Vec<usize> = counts.iter().zip(&left_counts).map(|(&c, &l)| c - l).collect();
                let child_gini = (n_left as f64 * gini(&left_counts, n_left)
                    + n_right as f64 * gini(&right_counts, n_right))
                    / total as f64;
                let gain = node_gini - child_gini;
                let threshold = 0.5 * (v + v_next);
                let better = match &best {
                    None => true,
                    Some(b) => {
                        gain > b.gain + 1e-12
                            || ((gain - b.gain).abs() <= 1e-12
                                && (f < b.feature || (f == b.feature && threshold < b.threshold)))
                    }
                };
                if better && gain >= cfg.min_gain {
                    best = Some(BestSplit { feature: f, threshold, gain });
                }
            }
        }
        best
    }

    /// Rebuild a tree from a node arena (deserialization). Validates that
    /// every node is reachable from the root exactly once (a proper binary
    /// tree: no cycles, no sharing, no orphans).
    pub fn from_parts(nodes: Vec<Node>, num_features: usize, num_classes: usize) -> Result<Self, MldtError> {
        let invalid = |msg: String| MldtError::InvalidTree(msg);
        if nodes.is_empty() {
            return Err(invalid("empty node arena".into()));
        }
        let mut seen = vec![false; nodes.len()];
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            if seen[i] {
                return Err(invalid(format!("node {i} reachable twice (cycle or sharing)")));
            }
            seen[i] = true;
            if let Node::Split { left, right, feature, .. } = &nodes[i] {
                if *feature >= num_features {
                    return Err(invalid(format!("feature {feature} out of range at node {i}")));
                }
                stack.push(*left);
                stack.push(*right);
            }
        }
        if let Some(orphan) = seen.iter().position(|&s| !s) {
            return Err(invalid(format!("node {orphan} unreachable from the root")));
        }
        Ok(Self { nodes, num_features, num_classes })
    }

    /// Predict the class of a feature vector.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn predict(&self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.num_features, "feature arity mismatch");
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { label, .. } => return *label,
                Node::Split { feature, threshold, left, right } => {
                    i = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Predict every row of a dataset.
    pub fn predict_dataset(&self, data: &Dataset) -> Vec<usize> {
        (0..data.len()).map(|i| self.predict(data.row(i))).collect()
    }

    /// The node arena (root is node 0).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of features the tree was trained with.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Distinct features actually used by splits, in ascending order —
    /// the paper reports its tree uses only features 6 and 7.
    pub fn features_used(&self) -> Vec<usize> {
        let mut fs: Vec<usize> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Split { feature, .. } => Some(*feature),
                _ => None,
            })
            .collect();
        fs.sort_unstable();
        fs.dedup();
        fs
    }

    /// Depth of the tree (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + depth_of(nodes, *left).max(depth_of(nodes, *right)),
            }
        }
        depth_of(&self.nodes, 0)
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    /// A stable 64-bit structural fingerprint of the tree: FNV-1a over the
    /// arena in index order (split feature/threshold bits/children, leaf
    /// labels and class counts). Two trees predict identically whenever
    /// their fingerprints match, so a model registry can use it as a
    /// content-derived version tag that survives save/load round-trips.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.num_features as u64);
        mix(self.num_classes as u64);
        for node in &self.nodes {
            match node {
                Node::Leaf { label, counts } => {
                    mix(0);
                    mix(*label as u64);
                    mix(counts.len() as u64);
                    for &c in counts {
                        mix(c as u64);
                    }
                }
                Node::Split { feature, threshold, left, right } => {
                    mix(1);
                    mix(*feature as u64);
                    mix(threshold.to_bits());
                    mix(*left as u64);
                    mix(*right as u64);
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// good: f0 small; rmc: f0 large. One split suffices.
    fn separable() -> Dataset {
        let mut d = Dataset::binary(vec!["f0".into(), "noise".into()]);
        for i in 0..20 {
            d.push(vec![i as f64, (i % 3) as f64], 0);
            d.push(vec![100.0 + i as f64, (i % 3) as f64], 1);
        }
        d
    }

    #[test]
    fn fingerprint_is_stable_and_structure_sensitive() {
        let d = separable();
        let t = DecisionTree::train(&d, TrainConfig::default());
        assert_eq!(t.fingerprint(), t.clone().fingerprint(), "fingerprint is a pure function of structure");
        assert_eq!(t.fingerprint(), DecisionTree::train(&d, TrainConfig::default()).fingerprint());
        // A structurally different tree (deeper data) fingerprints apart.
        let mut d2 = Dataset::binary(vec!["f0".into(), "noise".into()]);
        for i in 0..20 {
            d2.push(vec![i as f64, (i % 7) as f64], (i % 2) as usize);
        }
        let t2 = DecisionTree::train(&d2, TrainConfig::default());
        assert_ne!(t.fingerprint(), t2.fingerprint());
    }

    #[test]
    fn perfectly_separable_is_learned_exactly() {
        let d = separable();
        let t = DecisionTree::train(&d, TrainConfig::default());
        for i in 0..d.len() {
            assert_eq!(t.predict(d.row(i)), d.label(i));
        }
        assert_eq!(t.features_used(), vec![0], "noise feature must not be used");
        assert_eq!(t.depth(), 1);
        assert_eq!(t.num_leaves(), 2);
    }

    #[test]
    fn same_class_chain_collapses_bottom_up() {
        // 0..20 good, 100..120 rmc, 200..220 rmc with every fifth row good.
        // Gini splits the rmc side twice more (pure B off the noisy C, then
        // C in two), but every one of those leaves predicts rmc, so the
        // chain folds back into one rmc leaf under the root split.
        let mut d = Dataset::binary(vec!["f0".into()]);
        for i in 0..20 {
            d.push(vec![i as f64], 0);
            d.push(vec![100.0 + i as f64], 1);
            d.push(vec![200.0 + i as f64], usize::from(i % 5 != 0));
        }
        let t = DecisionTree::train(&d, TrainConfig::default());
        assert_eq!(t.nodes().len(), 3, "one split over two leaves: {:?}", t.nodes());
        match &t.nodes()[0] {
            Node::Split { threshold, .. } => assert!((*threshold - 59.5).abs() < 1e-9),
            n => panic!("root should be a split, got {n:?}"),
        }
        assert_eq!(t.nodes()[2], Node::Leaf { label: 1, counts: vec![4, 36] }, "the parent's counts");
        for i in 0..d.len() {
            assert_eq!(t.predict(d.row(i)), usize::from(d.row(i)[0] > 59.5));
        }
    }

    /// No trained tree keeps a split whose two children are leaves of one
    /// class, over datasets that grow splits of every depth.
    #[test]
    fn no_split_has_two_same_label_leaf_children() {
        let loose = TrainConfig { max_depth: 4, min_samples_leaf: 1, min_samples_split: 2, min_gain: 0.0 };
        for seed in 0..40u64 {
            let mut d = Dataset::binary(vec!["a".into(), "b".into()]);
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..60 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (a, b) = ((x % 97) as f64, ((x >> 8) % 89) as f64);
                d.push(vec![a, b], usize::from(a + b > 90.0 || (x >> 20) % 7 == 0));
            }
            for cfg in [TrainConfig::default(), loose] {
                let t = DecisionTree::train(&d, cfg);
                for n in t.nodes() {
                    if let Node::Split { left, right, .. } = n {
                        if let (Node::Leaf { label: l, .. }, Node::Leaf { label: r, .. }) =
                            (&t.nodes()[*left], &t.nodes()[*right])
                        {
                            assert_ne!(l, r, "seed {seed}: same-class sibling leaves survived: {:?}", t.nodes());
                        }
                    }
                }
                assert!(DecisionTree::from_parts(t.nodes().to_vec(), 2, 2).is_ok(), "arena stays a proper tree");
            }
        }
    }

    #[test]
    fn threshold_is_midpoint() {
        let d = separable();
        let t = DecisionTree::train(&d, TrainConfig::default());
        match &t.nodes()[0] {
            Node::Split { feature, threshold, .. } => {
                assert_eq!(*feature, 0);
                assert!((*threshold - 59.5).abs() < 1e-9, "midpoint of 19 and 100, got {threshold}");
            }
            _ => panic!("root should be a split"),
        }
    }

    #[test]
    fn xor_needs_depth_two() {
        // Class = f0 XOR f1: not separable by one axis split.
        let mut d = Dataset::binary(vec!["f0".into(), "f1".into()]);
        for _ in 0..10 {
            d.push(vec![0.0, 0.0], 0);
            d.push(vec![1.0, 1.0], 0);
            d.push(vec![0.0, 1.0], 1);
            d.push(vec![1.0, 0.0], 1);
        }
        // XOR's first split has zero Gini gain; allow it with min_gain 0.
        let t = DecisionTree::train(
            &d,
            TrainConfig { min_samples_leaf: 1, min_samples_split: 2, min_gain: 0.0, ..Default::default() },
        );
        for i in 0..d.len() {
            assert_eq!(t.predict(d.row(i)), d.label(i));
        }
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn max_depth_zero_yields_majority_leaf() {
        let mut d = Dataset::binary(vec!["f0".into()]);
        for i in 0..10 {
            d.push(vec![i as f64], usize::from(i >= 7));
        }
        let t = DecisionTree::train(&d, TrainConfig { max_depth: 0, ..Default::default() });
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.predict(&[0.0]), 0, "majority class wins");
        assert_eq!(t.predict(&[9.0]), 0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let mut d = Dataset::binary(vec!["f0".into()]);
        // One outlier of class 1 among 20 of class 0: a split isolating it
        // would leave a 1-row leaf.
        for i in 0..20 {
            d.push(vec![i as f64], 0);
        }
        d.push(vec![100.0], 1);
        let t = DecisionTree::train(&d, TrainConfig { min_samples_leaf: 3, ..Default::default() });
        // The outlier cannot be isolated in a 1-row leaf: every leaf holds
        // at least min_samples_leaf rows, so the outlier is outvoted and
        // the whole feature range predicts class 0.
        for n in t.nodes() {
            if let Node::Leaf { counts, .. } = n {
                assert!(counts.iter().sum::<usize>() >= 3, "leaf smaller than min_samples_leaf");
            }
        }
        assert_eq!(t.predict(&[100.0]), 0);
    }

    #[test]
    fn training_is_deterministic() {
        let d = separable();
        let t1 = DecisionTree::train(&d, TrainConfig::default());
        let t2 = DecisionTree::train(&d, TrainConfig::default());
        assert_eq!(t1.nodes(), t2.nodes());
    }

    #[test]
    fn equal_feature_values_never_split() {
        let mut d = Dataset::binary(vec!["constant".into()]);
        for i in 0..10 {
            d.push(vec![5.0], usize::from(i % 2 == 0));
        }
        let t = DecisionTree::train(&d, TrainConfig::default());
        assert_eq!(t.num_leaves(), 1, "constant feature admits no split");
    }

    #[test]
    fn multiclass() {
        let mut d = Dataset::new(vec!["f".into()], vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..12 {
            d.push(vec![i as f64], (i / 4) as usize);
        }
        let t =
            DecisionTree::train(&d, TrainConfig { min_samples_leaf: 2, min_samples_split: 4, ..Default::default() });
        assert_eq!(t.predict(&[1.0]), 0);
        assert_eq!(t.predict(&[5.0]), 1);
        assert_eq!(t.predict(&[11.0]), 2);
    }

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(&[10, 0], 10), 0.0);
        assert!((gini(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[], 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_training_rejected() {
        let d = Dataset::binary(vec!["f".into()]);
        DecisionTree::train(&d, TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn predict_arity_checked() {
        let t = DecisionTree::train(&separable(), TrainConfig::default());
        t.predict(&[1.0, 2.0, 3.0]);
    }
}
