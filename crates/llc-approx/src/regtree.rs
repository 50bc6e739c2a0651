use std::fmt;

/// Errors from regression-tree training.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreeError {
    /// No training samples were supplied.
    EmptyTrainingSet,
    /// Feature vectors have inconsistent lengths (or zero length).
    RaggedFeatures,
    /// Targets and features differ in count.
    LengthMismatch,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::EmptyTrainingSet => write!(f, "training set is empty"),
            TreeError::RaggedFeatures => write!(f, "feature vectors are ragged or empty"),
            TreeError::LengthMismatch => write!(f, "feature and target counts differ"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Training hyper-parameters for [`RegressionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples a leaf may hold.
    pub min_leaf: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_leaf: 4,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        prediction: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A CART regression tree (Breiman et al., the paper's ref. 11).
///
/// "We use a compact regression tree to store J̃ values … A module is
/// first simulated and the corresponding cost values stored in a large
/// lookup table. This table is then used to train a regression tree"
/// (§5.1). Splits minimize the summed squared error of the two children;
/// growth stops at `max_depth`, `min_leaf`, or zero variance.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

impl RegressionTree {
    /// Fit a tree on feature matrix `xs` (row per sample) and targets `ys`.
    ///
    /// # Errors
    ///
    /// [`TreeError`] variants on empty/ragged/mismatched input.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], config: TreeConfig) -> Result<Self, TreeError> {
        if xs.is_empty() {
            return Err(TreeError::EmptyTrainingSet);
        }
        if xs.len() != ys.len() {
            return Err(TreeError::LengthMismatch);
        }
        let num_features = xs[0].len();
        if num_features == 0 || xs.iter().any(|x| x.len() != num_features) {
            return Err(TreeError::RaggedFeatures);
        }
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            num_features,
        };
        let indices: Vec<usize> = (0..xs.len()).collect();
        tree.grow(xs, ys, indices, 0, &config);
        Ok(tree)
    }

    /// Total node count (splits + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    #[cfg(test)]
    pub(crate) fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Depth of the tree (0 for a single leaf).
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Predict the target for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_features, "feature count mismatch");
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { prediction } => return *prediction,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Mean squared error over a labelled set.
    ///
    /// # Panics
    ///
    /// Panics if the sets are empty or mismatched.
    #[cfg(test)]
    pub(crate) fn mse(&self, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
        assert!(
            !xs.is_empty() && xs.len() == ys.len(),
            "invalid evaluation set"
        );
        xs.iter()
            .zip(ys)
            .map(|(x, y)| (self.predict(x) - y).powi(2))
            .sum::<f64>()
            / xs.len() as f64
    }

    /// Grow a subtree over `indices`; returns the new node's index.
    fn grow(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        indices: Vec<usize>,
        depth: usize,
        config: &TreeConfig,
    ) -> usize {
        let mean = indices.iter().map(|&i| ys[i]).sum::<f64>() / indices.len() as f64;
        let sse: f64 = indices.iter().map(|&i| (ys[i] - mean).powi(2)).sum();

        let make_leaf =
            depth >= config.max_depth || indices.len() < 2 * config.min_leaf || sse < 1e-12;
        if !make_leaf {
            if let Some((feature, threshold)) = self.best_split(xs, ys, &indices, config) {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| xs[i][feature] <= threshold);
                // Reserve our slot, then grow the children.
                let me = self.nodes.len();
                self.nodes.push(Node::Leaf { prediction: mean });
                let left = self.grow(xs, ys, left_idx, depth + 1, config);
                let right = self.grow(xs, ys, right_idx, depth + 1, config);
                self.nodes[me] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                return me;
            }
        }
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { prediction: mean });
        me
    }

    /// Best (feature, threshold) minimizing child SSE; `None` if no split
    /// satisfies `min_leaf` on both sides or improves the error.
    fn best_split(
        &self,
        xs: &[Vec<f64>],
        ys: &[f64],
        indices: &[usize],
        config: &TreeConfig,
    ) -> Option<(usize, f64)> {
        let n = indices.len() as f64;
        let sum: f64 = indices.iter().map(|&i| ys[i]).sum();
        let parent_sse: f64 = {
            let mean = sum / n;
            indices.iter().map(|&i| (ys[i] - mean).powi(2)).sum()
        };

        let mut best: Option<(f64, usize, f64)> = None; // (sse, feature, threshold)
        #[allow(clippy::needless_range_loop)] // `f` indexes the inner feature axis, not `xs`
        for f in 0..self.num_features {
            let mut sorted: Vec<usize> = indices.to_vec();
            sorted.sort_by(|&a, &b| xs[a][f].total_cmp(&xs[b][f]));

            // Prefix sums over the sorted order for O(1) SSE per cut.
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let total_sq: f64 = indices.iter().map(|&i| ys[i] * ys[i]).sum();
            for cut in 1..sorted.len() {
                let yi = ys[sorted[cut - 1]];
                left_sum += yi;
                left_sq += yi * yi;
                // Only cut between distinct feature values.
                if xs[sorted[cut - 1]][f] >= xs[sorted[cut]][f] - 1e-15 {
                    continue;
                }
                if cut < config.min_leaf || sorted.len() - cut < config.min_leaf {
                    continue;
                }
                let nl = cut as f64;
                let nr = n - nl;
                let right_sum = sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse_l = left_sq - left_sum * left_sum / nl;
                let sse_r = right_sq - right_sum * right_sum / nr;
                let sse = sse_l + sse_r;
                if best.is_none_or(|(b, _, _)| sse < b) {
                    let threshold = 0.5 * (xs[sorted[cut - 1]][f] + xs[sorted[cut]][f]);
                    best = Some((sse, f, threshold));
                }
            }
        }
        best.and_then(|(sse, f, t)| {
            if sse < parent_sse - 1e-12 {
                Some((f, t))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2d(n: usize) -> Vec<Vec<f64>> {
        let mut xs = Vec::new();
        for i in 0..n {
            for j in 0..n {
                xs.push(vec![i as f64 / n as f64, j as f64 / n as f64]);
            }
        }
        xs
    }

    #[test]
    fn constant_target_gives_single_leaf() {
        let xs = grid_2d(5);
        let ys = vec![3.0; xs.len()];
        let t = RegressionTree::fit(&xs, &ys, TreeConfig::default()).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict(&[0.5, 0.5]), 3.0);
    }

    #[test]
    fn learns_axis_aligned_step() {
        let xs = grid_2d(10);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] > 0.5 { 10.0 } else { 0.0 })
            .collect();
        let t = RegressionTree::fit(&xs, &ys, TreeConfig::default()).unwrap();
        assert!(t.predict(&[0.9, 0.3]) > 9.0);
        assert!(t.predict(&[0.1, 0.8]) < 1.0);
        assert!(t.mse(&xs, &ys) < 0.01);
    }

    #[test]
    fn learns_additive_two_feature_function() {
        let xs = grid_2d(15);
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] + 5.0 * x[1]).collect();
        let t = RegressionTree::fit(&xs, &ys, TreeConfig::default()).unwrap();
        // Piecewise-constant approximation of a smooth function: modest
        // but real accuracy.
        assert!(t.mse(&xs, &ys) < 0.05, "mse {}", t.mse(&xs, &ys));
        assert!(t.predict(&[1.0, 1.0]) > t.predict(&[0.0, 0.0]) + 5.0);
    }

    #[test]
    fn depth_limit_respected() {
        let xs = grid_2d(12);
        let ys: Vec<f64> = xs.iter().map(|x| (10.0 * x[0]).sin() + x[1]).collect();
        let cfg = TreeConfig {
            max_depth: 3,
            min_leaf: 1,
        };
        let t = RegressionTree::fit(&xs, &ys, cfg).unwrap();
        assert!(t.depth() <= 3);
        assert!(t.leaf_count() <= 8);
    }

    #[test]
    fn min_leaf_respected() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let cfg = TreeConfig {
            max_depth: 16,
            min_leaf: 5,
        };
        let t = RegressionTree::fit(&xs, &ys, cfg).unwrap();
        // 20 samples with min_leaf 5 allows at most 4 leaves.
        assert!(t.leaf_count() <= 4);
    }

    #[test]
    fn errors_on_bad_input() {
        assert_eq!(
            RegressionTree::fit(&[], &[], TreeConfig::default()).unwrap_err(),
            TreeError::EmptyTrainingSet
        );
        assert_eq!(
            RegressionTree::fit(&[vec![1.0]], &[1.0, 2.0], TreeConfig::default()).unwrap_err(),
            TreeError::LengthMismatch
        );
        assert_eq!(
            RegressionTree::fit(
                &[vec![1.0], vec![1.0, 2.0]],
                &[1.0, 2.0],
                TreeConfig::default()
            )
            .unwrap_err(),
            TreeError::RaggedFeatures
        );
    }

    #[test]
    fn duplicate_feature_values_do_not_split() {
        // All x identical: no valid cut exists, must become a leaf with
        // the mean.
        let xs = vec![vec![1.0]; 10];
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let t = RegressionTree::fit(&xs, &ys, TreeConfig::default()).unwrap();
        assert_eq!(t.node_count(), 1);
        assert!((t.predict(&[1.0]) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn generalizes_to_unseen_points() {
        let xs = grid_2d(20);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0] + x[1]).collect();
        let t = RegressionTree::fit(&xs, &ys, TreeConfig::default()).unwrap();
        // Off-grid query lands in a sensible leaf.
        let p = t.predict(&[0.52, 0.48]);
        assert!((p - (0.52 * 0.52 + 0.48)).abs() < 0.15, "prediction {p}");
    }
}
