//! Olken's `RandomPath` method, adapted to R-trees.

use std::collections::HashSet;

use rand::{Rng, RngExt};
use storm_geo::Rect;
use storm_rtree::{Item, RTree};

use crate::{SampleMode, SamplerKind, SpatialSampler};

/// Takes a sample from `P ∩ Q` by walking a random path from the root down
/// to the leaf level, using the subtree sizes `|P(u)|` to set the branch
/// probabilities (paper §3.1, after Olken [15]).
///
/// The walk is restricted to children whose rectangles intersect `Q`
/// (skipping provably-empty branches), which distorts the leaf-reaching
/// probabilities; uniformity is restored by an acceptance test with
/// probability `Π S(u)/|P(u)|` along the path, where `S(u)` is the count
/// mass of `u`'s intersecting children. A drawn leaf item outside `Q` is
/// rejected outright. The accepted output is exactly uniform on `P ∩ Q`.
///
/// Each sample costs `O(log N)` node visits — but every visit is a block
/// read from a *different* part of the tree, so `k` samples cost `Ω(k)`
/// I/Os. "Reasonably good, but only in internal memory."
#[derive(Debug)]
pub struct RandomPath<'a, const D: usize> {
    tree: &'a RTree<D>,
    query: Rect<D>,
    mode: SampleMode,
    seen: HashSet<u64>,
    attempt_budget: usize,
}

/// Default number of root-to-leaf attempts one sample may spend.
pub const DEFAULT_ATTEMPT_BUDGET: usize = 100_000;

impl<'a, const D: usize> RandomPath<'a, D> {
    /// Creates a sampler over the given tree and query.
    pub fn new(tree: &'a RTree<D>, query: Rect<D>, mode: SampleMode) -> Self {
        RandomPath {
            tree,
            query,
            mode,
            seen: HashSet::new(),
            attempt_budget: DEFAULT_ATTEMPT_BUDGET,
        }
    }

    /// Sets the per-sample attempt budget (guards empty/exhausted queries).
    #[must_use]
    pub fn with_attempt_budget(mut self, budget: usize) -> Self {
        self.attempt_budget = budget.max(1);
        self
    }

    /// One root-to-leaf walk; `None` when the attempt was rejected.
    fn walk(&self, rng: &mut dyn Rng) -> Option<Item<D>> {
        let rng = &mut *rng;
        let mut id = self.tree.root_id()?;
        let mut accept_prob = 1.0f64;
        loop {
            // storm-analyzer: allow(A8): RandomPath charges one read per visited node by definition — the visit IS the algorithm
            let view = self.tree.visit(id);
            if view.is_leaf() {
                let items = view.items();
                debug_assert!(!items.is_empty());
                let item = items[rng.random_range(0..items.len())];
                if !self.query.contains_point(&item.point) {
                    return None;
                }
                // Uniformity correction for the Q-restricted descent.
                if accept_prob < 1.0 && rng.random_range(0.0..1.0) >= accept_prob {
                    return None;
                }
                return Some(item);
            }
            // Count mass of children that can contain query results.
            let children = view.children();
            let mut mass = 0u64;
            for &c in children {
                // storm-analyzer: allow(A8): RandomPath is the paper's boxed baseline; its per-node walk is the measured cost model
                let cv = self.tree.view_free_of_charge(c);
                if cv.rect.intersects(&self.query) {
                    mass += cv.count as u64;
                }
            }
            if mass == 0 {
                return None;
            }
            accept_prob *= mass as f64 / view.count as f64;
            // Weighted choice among intersecting children.
            let mut target = rng.random_range(0..mass);
            let mut chosen = None;
            for &c in children {
                // storm-analyzer: allow(A8): RandomPath is the paper's boxed baseline; its per-node walk is the measured cost model
                let cv = self.tree.view_free_of_charge(c);
                if cv.rect.intersects(&self.query) {
                    if target < cv.count as u64 {
                        chosen = Some(c);
                        break;
                    }
                    target -= cv.count as u64;
                }
            }
            // `mass > 0` guarantees a hit; `?` keeps the walk total anyway.
            id = chosen?;
        }
    }
}

impl<const D: usize> SpatialSampler<D> for RandomPath<'_, D> {
    /// Walks until each sample is accepted, with one attempt budget per
    /// sample; an exhausted budget ends the stream.
    fn next_batch(&mut self, rng: &mut dyn Rng, buf: &mut Vec<Item<D>>, k: usize) -> usize {
        let before = buf.len();
        'draws: while buf.len() - before < k {
            for _ in 0..self.attempt_budget {
                let Some(item) = self.walk(rng) else {
                    continue;
                };
                if self.mode == SampleMode::WithReplacement || self.seen.insert(item.id) {
                    buf.push(item);
                    continue 'draws;
                }
            }
            break;
        }
        buf.len() - before
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::RandomPath
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use storm_geo::{Point2, Rect2};
    use storm_rtree::{BulkMethod, RTreeConfig};

    fn tree_grid(n: usize, fanout: usize) -> RTree<2> {
        let items: Vec<Item<2>> = (0..n)
            .map(|i| Item::new(Point2::xy((i % 100) as f64, (i / 100) as f64), i as u64))
            .collect();
        RTree::bulk_load(items, RTreeConfig::with_fanout(fanout), BulkMethod::Hilbert)
    }

    #[test]
    fn samples_lie_inside_the_query() {
        let tree = tree_grid(5000, 8);
        let q = Rect2::from_corners(Point2::xy(20.0, 10.0), Point2::xy(70.0, 30.0));
        let mut s = RandomPath::new(&tree, q, SampleMode::WithReplacement);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..300 {
            let item = s.next_sample(&mut rng).unwrap();
            assert!(q.contains_point(&item.point));
        }
    }

    #[test]
    fn empty_query_ends_the_stream() {
        let tree = tree_grid(500, 8);
        let q = Rect2::from_corners(Point2::xy(1e6, 1e6), Point2::xy(1e6 + 1.0, 1e6 + 1.0));
        let mut s = RandomPath::new(&tree, q, SampleMode::WithReplacement).with_attempt_budget(200);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(s.next_sample(&mut rng).is_none());
    }

    #[test]
    fn without_replacement_never_repeats_and_exhausts() {
        let tree = tree_grid(400, 4);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(7.0, 1.0));
        let expected = tree.query(&q).len();
        assert_eq!(expected, 16);
        let mut s =
            RandomPath::new(&tree, q, SampleMode::WithoutReplacement).with_attempt_budget(50_000);
        let mut rng = StdRng::seed_from_u64(3);
        let mut ids = std::collections::HashSet::new();
        while let Some(item) = s.next_sample(&mut rng) {
            assert!(ids.insert(item.id));
        }
        assert_eq!(ids.len(), expected);
    }

    #[test]
    fn distribution_is_uniform_over_the_query_result() {
        // Skewed data: a dense cluster outside Q and sparse points inside,
        // so a biased descent would visibly distort frequencies.
        let mut items: Vec<Item<2>> = (0..2000)
            .map(|i| {
                Item::new(
                    Point2::xy(500.0 + (i % 40) as f64 * 0.1, 500.0 + (i / 40) as f64 * 0.1),
                    i as u64,
                )
            })
            .collect();
        // 20 sparse points inside the query region.
        for j in 0..20u64 {
            items.push(Item::new(Point2::xy(j as f64 * 4.0, 10.0), 10_000 + j));
        }
        let tree = RTree::bulk_load(items, RTreeConfig::with_fanout(8), BulkMethod::Hilbert);
        let q = Rect2::from_corners(Point2::xy(-1.0, 0.0), Point2::xy(100.0, 20.0));
        let mut s = RandomPath::new(&tree, q, SampleMode::WithReplacement);
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 40_000usize;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..trials {
            let item = s.next_sample(&mut rng).unwrap();
            *counts.entry(item.id).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 20);
        // chi² with 19 dof, p=0.001 critical value 43.82.
        let expected = trials as f64 / 20.0;
        let chi: f64 = counts
            .values()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi < 43.82, "chi² = {chi}; counts = {counts:?}");
    }

    #[test]
    fn per_sample_io_is_proportional_to_height() {
        let tree = tree_grid(100_000, 16);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(99.0, 500.0));
        let mut s = RandomPath::new(&tree, q, SampleMode::WithReplacement);
        let mut rng = StdRng::seed_from_u64(5);
        tree.io().reset();
        let k = 200;
        for _ in 0..k {
            s.next_sample(&mut rng).unwrap();
        }
        let reads = tree.io().reads();
        // At least one full path of reads per accepted sample.
        assert!(reads >= (k * tree.height() as usize) as u64 / 2);
    }
}
