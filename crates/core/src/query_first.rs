//! The `QueryFirst` baseline.

use rand::{Rng, RngExt};
use storm_geo::Rect;
use storm_rtree::{Item, RTree};

use crate::{SampleMode, SamplerKind, SpatialSampler};

/// Calculate `P ∩ Q` first, then repeatedly extract a sample from the
/// pre-calculated set upon request (paper §3.1).
///
/// Pays the full range-reporting cost `O(r(N) + q)` before the first sample
/// is available — the antithesis of *online* — but each subsequent draw is
/// `O(1)` with no further I/O. This is also the `RangeReport` line of
/// Figure 3(a).
#[derive(Debug)]
pub struct QueryFirst<const D: usize> {
    buffer: Vec<Item<D>>,
    mode: SampleMode,
    /// For without-replacement: entries `< next` have been emitted; the
    /// remainder is shuffled lazily (partial Fisher–Yates).
    next: usize,
}

impl<const D: usize> QueryFirst<D> {
    /// Runs the range query eagerly and prepares the sample buffer.
    pub fn new(tree: &RTree<D>, query: &Rect<D>, mode: SampleMode) -> Self {
        QueryFirst {
            buffer: tree.query(query),
            mode,
            next: 0,
        }
    }
}

impl<const D: usize> SpatialSampler<D> for QueryFirst<D> {
    /// Draws over the materialised buffer with the mode dispatch and
    /// bounds bookkeeping hoisted out of the per-sample loop. Without
    /// replacement this is a straight run of the lazy Fisher–Yates shuffle.
    fn next_batch(&mut self, rng: &mut dyn Rng, buf: &mut Vec<Item<D>>, k: usize) -> usize {
        let rng = &mut *rng;
        if self.buffer.is_empty() {
            return 0;
        }
        let before = buf.len();
        match self.mode {
            SampleMode::WithReplacement => {
                buf.reserve(k);
                let n = self.buffer.len();
                for _ in 0..k {
                    buf.push(self.buffer[rng.random_range(0..n)]);
                }
            }
            SampleMode::WithoutReplacement => {
                let take = k.min(self.buffer.len() - self.next);
                buf.reserve(take);
                for _ in 0..take {
                    let j = rng.random_range(self.next..self.buffer.len());
                    self.buffer.swap(self.next, j);
                    buf.push(self.buffer[self.next]);
                    self.next += 1;
                }
            }
        }
        buf.len() - before
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::QueryFirst
    }

    fn result_size(&self) -> Option<usize> {
        Some(self.buffer.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::HashSet;
    use storm_geo::{Point2, Rect2};
    use storm_rtree::{BulkMethod, RTreeConfig};

    fn tree_grid(n: usize) -> RTree<2> {
        let items: Vec<Item<2>> = (0..n)
            .map(|i| Item::new(Point2::xy((i % 50) as f64, (i / 50) as f64), i as u64))
            .collect();
        RTree::bulk_load(items, RTreeConfig::with_fanout(8), BulkMethod::Str)
    }

    #[test]
    fn without_replacement_is_a_permutation_of_the_result() {
        let tree = tree_grid(500);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(10.0, 5.0));
        let expected: HashSet<u64> = tree.query(&q).iter().map(|i| i.id).collect();
        let mut s = QueryFirst::new(&tree, &q, SampleMode::WithoutReplacement);
        assert_eq!(s.result_size(), Some(expected.len()));
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = HashSet::new();
        while let Some(item) = s.next_sample(&mut rng) {
            assert!(q.contains_point(&item.point));
            assert!(seen.insert(item.id), "duplicate {}", item.id);
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn with_replacement_streams_forever() {
        let tree = tree_grid(100);
        let q = Rect2::everything();
        let mut s = QueryFirst::new(&tree, &q, SampleMode::WithReplacement);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(s.next_sample(&mut rng).is_some());
        }
    }

    #[test]
    fn empty_query_yields_nothing() {
        let tree = tree_grid(100);
        let q = Rect2::from_corners(Point2::xy(999.0, 999.0), Point2::xy(1000.0, 1000.0));
        for mode in [SampleMode::WithReplacement, SampleMode::WithoutReplacement] {
            let mut s = QueryFirst::new(&tree, &q, mode);
            let mut rng = StdRng::seed_from_u64(3);
            assert!(s.next_sample(&mut rng).is_none());
            assert_eq!(s.result_size(), Some(0));
        }
    }

    #[test]
    fn first_sample_is_uniform() {
        // Draw the FIRST sample from many independent samplers and check the
        // empirical distribution: every result element equally likely.
        let tree = tree_grid(100);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(9.0, 1.0));
        let q_size = tree.query(&q).len();
        assert_eq!(q_size, 20);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = std::collections::HashMap::new();
        let trials = 20_000;
        for _ in 0..trials {
            let mut s = QueryFirst::new(&tree, &q, SampleMode::WithoutReplacement);
            let item = s.next_sample(&mut rng).unwrap();
            *counts.entry(item.id).or_insert(0usize) += 1;
        }
        // chi² with 19 dof, p=0.001 critical value 43.82.
        let expected = trials as f64 / q_size as f64;
        let chi: f64 = counts
            .values()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(counts.len() == q_size && chi < 43.82, "chi² = {chi}");
    }
}
