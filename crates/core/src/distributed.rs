//! Distributed spatial online sampling — the cluster setting.
//!
//! STORM "builds on a cluster of commodity machines to achieve its
//! scalability", and §3.1 notes that "distributed R-trees are used when
//! applying the above idea in a distributed cluster setting" and that "a
//! distributed Hilbert R-tree is used to work with the underlying
//! distributed cluster". This module simulates that deployment:
//!
//! * the data is **range-partitioned along the Hilbert curve** into
//!   contiguous segments of equal cardinality — each simulated machine
//!   (shard) owns one curve segment and indexes it with its own
//!   [`RsTree`];
//! * a query is **scattered**: each shard computes its exact partial count
//!   `q_s` from aggregate counts (cheap, `O(r)` per shard);
//! * samples are **gathered** by drawing a shard proportionally to its
//!   remaining count and pulling the next sample from that shard's local
//!   stream. Because shards partition the data, the merged
//!   without-replacement stream is a uniform WOR stream of the global
//!   result — no cross-shard deduplication is needed.
//!
//! Per-shard I/O counters make both cost views measurable: the *sum* is
//! total cluster work, the *maximum* is the critical path (what a user
//! would wait for with perfectly parallel shards).

use std::sync::Arc;

use rand::{Rng, RngExt};
use storm_geo::curve::{HilbertCurve, SpaceFillingCurve};
use storm_geo::{Point2, Rect2};
use storm_rtree::Item;

use crate::rs_tree::{RsTree, RsTreeConfig};
use crate::{FrozenRsTree, SampleMode, SamplerKind, SpatialSampler};

/// A simulated cluster: Hilbert-range-partitioned shards, each with its
/// own RS-tree.
#[derive(Debug)]
pub struct DistributedRsTree {
    shards: Vec<RsTree<2>>,
    /// Upper Hilbert-key boundary (exclusive) of each shard except the
    /// last, in ascending order; routing is a binary search over these.
    boundaries: Vec<u64>,
    curve: HilbertCurve,
    bounds: Rect2,
}

impl DistributedRsTree {
    /// Partitions `items` into `num_shards` equal-cardinality Hilbert-curve
    /// segments and bulk loads one RS-tree per shard.
    ///
    /// # Panics
    /// Panics when `num_shards == 0`.
    pub fn bulk_load(mut items: Vec<Item<2>>, num_shards: usize, cfg: RsTreeConfig) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        // storm-lint: allow(R1): constant order 16 is within HilbertCurve's static range
        let curve = HilbertCurve::new(16).expect("order 16 is valid");
        // Fold the bounding box directly — no intermediate point vector.
        let bounds = items
            .iter()
            .fold(None::<Rect2>, |acc, it| match acc {
                Some(r) => Some(r.enlarged_to_point(&it.point)),
                None => Some(Rect2::from_point(it.point)),
            })
            .unwrap_or_else(|| Rect2::from_point(Point2::xy(0.0, 0.0)));
        items.sort_by_cached_key(|it| curve.index_of_point(&bounds, &it.point));

        let per_shard = items.len().div_ceil(num_shards).max(1);
        let mut shards = Vec::with_capacity(num_shards);
        let mut boundaries = Vec::with_capacity(num_shards.saturating_sub(1));
        let mut start = 0usize;
        for s in 0..num_shards {
            let end = ((s + 1) * per_shard).min(items.len());
            // storm-analyzer: allow(A4): bulk-load sharding — one chunk copy per shard per build, never per draw
            let chunk: Vec<Item<2>> = items[start.min(end)..end].to_vec();
            if s + 1 < num_shards {
                // The boundary key is the first key of the *next* chunk (or
                // the max key when this shard absorbed the tail).
                let key = items
                    .get(end)
                    .map_or(u64::MAX, |it| curve.index_of_point(&bounds, &it.point));
                boundaries.push(key);
            }
            shards.push(RsTree::bulk_load(chunk, cfg));
            start = end;
        }
        DistributedRsTree {
            shards,
            boundaries,
            curve,
            bounds,
        }
    }

    /// Number of shards (simulated machines).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total points across the cluster.
    pub fn len(&self) -> usize {
        self.shards.iter().map(RsTree::len).sum()
    }

    /// True when the cluster holds no data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard a point routes to.
    pub fn shard_of(&self, p: &Point2) -> usize {
        let key = self.curve.index_of_point(&self.bounds, p);
        self.boundaries.partition_point(|&b| b <= key)
    }

    /// Read access to one shard.
    pub fn shard(&self, s: usize) -> &RsTree<2> {
        &self.shards[s]
    }

    /// Exact `|P ∩ Q|` (scatter the count, gather the sum).
    pub fn exact_count(&self, query: &Rect2) -> usize {
        self.shards.iter().map(|s| s.exact_count(query)).sum()
    }

    /// Total block reads across all shards (cluster work).
    pub fn total_reads(&self) -> u64 {
        self.shards.iter().map(|s| s.io().reads()).sum()
    }

    /// Largest per-shard block-read count (the critical path under
    /// perfectly parallel shards).
    pub fn max_shard_reads(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.io().reads())
            .max()
            .unwrap_or(0)
    }

    /// Resets every shard's I/O counter.
    pub fn reset_io(&self) {
        for s in &self.shards {
            s.io().reset();
        }
    }

    /// Prefills every shard's node buffers (construction-time sampling).
    pub fn prefill(&mut self, rng: &mut dyn Rng) {
        for s in &mut self.shards {
            s.prefill(&mut *rng);
        }
    }

    /// Routes an insert to its Hilbert segment.
    ///
    /// Note: unlike a production system we do not re-balance segments; a
    /// heavily skewed insert stream will grow one shard (the paper's
    /// system has the same property between re-partitions).
    pub fn insert(&mut self, item: Item<2>, rng: &mut dyn Rng) {
        let s = self.shard_of(&item.point);
        self.shards[s].insert(item, rng);
    }

    /// Removes a point from its shard. Returns `false` when absent.
    pub fn remove(&mut self, point: &Point2, id: u64, rng: &mut dyn Rng) -> bool {
        let s = self.shard_of(point);
        if self.shards[s].remove(point, id, rng) {
            return true;
        }
        // Boundary drift after inserts can leave a point one shard off;
        // fall back to a cluster-wide attempt (rare, still correct).
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if i != s && shard.remove(point, id, rng) {
                return true;
            }
        }
        false
    }

    /// Snapshots every shard into its read-optimized frozen form — the
    /// unit the parallel executor holds, swaps and serves. The freezes run
    /// concurrently, one scoped thread per shard; `self` is only read, so
    /// the caller keeps updating it and freezes again for the next epoch.
    pub fn freeze_shards(&self) -> Vec<Arc<FrozenRsTree<2>>> {
        std::thread::scope(|scope| {
            let freezes: Vec<_> = self
                .shards
                .iter()
                .map(|shard| scope.spawn(|| shard.freeze()))
                .collect();
            freezes
                .into_iter()
                .map(|h| match h.join() {
                    Ok(frozen) => Arc::new(frozen),
                    // A freeze has no contained-failure mode: re-raise on
                    // the caller's thread, as the serial loop would have.
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        })
    }

    /// Freezes every shard and starts one worker thread per frozen shard,
    /// returning the parallel scatter-gather executor.
    pub fn into_parallel(self) -> crate::ParallelRsCluster {
        crate::ParallelRsCluster::from_frozen(self.freeze_shards())
    }

    /// Opens a scatter/gather sampling stream for `query`.
    pub fn sampler(&mut self, query: Rect2, mode: SampleMode) -> DistributedSampler<'_> {
        // Scatter: open a local stream per shard (each computes its own
        // canonical count); prune shards with empty intersections.
        let mut locals = Vec::new();
        for shard in &mut self.shards {
            let local = shard.sampler(query, mode);
            if local.result_size().unwrap_or(0) > 0 {
                locals.push(local);
            }
        }
        let remaining: Vec<u64> = locals
            .iter()
            .map(|l| l.result_size().unwrap_or(0) as u64)
            .collect();
        let weights = remaining.clone();
        let total: u64 = remaining.iter().sum();
        DistributedSampler {
            locals,
            weights,
            remaining,
            total_remaining: total,
            total: total as usize,
            mode,
        }
    }
}

/// The gather side of distributed sampling: merges per-shard streams into
/// one uniform stream by count-weighted shard selection.
#[derive(Debug)]
pub struct DistributedSampler<'a> {
    locals: Vec<crate::rs_tree::RsSampler<'a, 2>>,
    /// Initial per-shard result counts.
    weights: Vec<u64>,
    /// Unemitted counts (for without-replacement).
    remaining: Vec<u64>,
    total_remaining: u64,
    total: usize,
    mode: SampleMode,
}

impl SpatialSampler<2> for DistributedSampler<'_> {
    fn next_sample(&mut self, rng: &mut dyn Rng) -> Option<Item<2>> {
        let rng = &mut *rng;
        if self.locals.is_empty() {
            return None;
        }
        match self.mode {
            SampleMode::WithReplacement => {
                // Shard ∝ initial count, then an independent local draw.
                let total: u64 = self.weights.iter().sum();
                let mut target = rng.random_range(0..total);
                for (i, &w) in self.weights.iter().enumerate() {
                    if target < w {
                        return self.locals[i].next_sample(rng);
                    }
                    target -= w;
                }
                unreachable!("weighted walk within total")
            }
            SampleMode::WithoutReplacement => {
                if self.total_remaining == 0 {
                    return None;
                }
                // Shard ∝ remaining count keeps the merged stream uniform
                // over the unseen points (shards are disjoint).
                let mut target = rng.random_range(0..self.total_remaining);
                for i in 0..self.locals.len() {
                    let w = self.remaining[i];
                    if target < w {
                        match self.locals[i].next_sample(rng) {
                            Some(item) => {
                                self.remaining[i] -= 1;
                                self.total_remaining -= 1;
                                return Some(item);
                            }
                            None => {
                                // Defensive: local stream dried early.
                                self.total_remaining -= self.remaining[i];
                                self.remaining[i] = 0;
                                return self.next_sample(rng);
                            }
                        }
                    }
                    target -= w;
                }
                unreachable!("weighted walk within total_remaining")
            }
        }
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::RsTree
    }

    fn result_size(&self) -> Option<usize> {
        Some(self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::HashSet;

    fn grid_items(n: usize) -> Vec<Item<2>> {
        (0..n)
            .map(|i| Item::new(Point2::xy((i % 100) as f64, (i / 100) as f64), i as u64))
            .collect()
    }

    /// Off-grid insert location for the update test.
    #[allow(non_snake_case)]
    fn Item2_xy(j: u64) -> Point2 {
        Point2::xy(50.05 + (j % 9) as f64 * 0.1, 10.0 + (j / 9) as f64 * 1e-4)
    }

    fn cluster(n: usize, shards: usize) -> DistributedRsTree {
        DistributedRsTree::bulk_load(grid_items(n), shards, RsTreeConfig::with_fanout(16))
    }

    #[test]
    fn partitioning_is_balanced() {
        let c = cluster(10_000, 8);
        assert_eq!(c.num_shards(), 8);
        assert_eq!(c.len(), 10_000);
        for s in 0..8 {
            let size = c.shard(s).len();
            assert!(
                (1000..=1500).contains(&size),
                "shard {s} holds {size} points"
            );
        }
    }

    #[test]
    fn hilbert_partitioning_gives_spatially_compact_shards() {
        // A small query region should intersect few shards.
        let c = cluster(10_000, 16);
        let q = Rect2::from_corners(Point2::xy(10.0, 10.0), Point2::xy(20.0, 20.0));
        let touched = (0..16).filter(|&s| c.shard(s).exact_count(&q) > 0).count();
        assert!(touched <= 6, "query touched {touched}/16 shards");
    }

    #[test]
    fn wor_stream_is_exactly_the_query_result() {
        let mut c = cluster(5_000, 5);
        let q = Rect2::from_corners(Point2::xy(13.0, 7.0), Point2::xy(61.0, 29.0));
        let expected: HashSet<u64> = grid_items(5_000)
            .iter()
            .filter(|it| q.contains_point(&it.point))
            .map(|it| it.id)
            .collect();
        assert_eq!(c.exact_count(&q), expected.len());
        let mut s = c.sampler(q, SampleMode::WithoutReplacement);
        assert_eq!(s.result_size(), Some(expected.len()));
        let mut rng = StdRng::seed_from_u64(1);
        let mut got = HashSet::new();
        while let Some(item) = s.next_sample(&mut rng) {
            assert!(got.insert(item.id), "duplicate across shards: {}", item.id);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn first_sample_is_uniform_across_shards() {
        // Chi-square on the first draw; items live on different shards, so
        // shard weighting errors would show up immediately.
        let items = grid_items(900);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(99.0, 0.0)); // one row: 100 pts
        let trials = 30_000;
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..trials {
            let mut c =
                DistributedRsTree::bulk_load(items.clone(), 6, RsTreeConfig::with_fanout(8));
            let mut s = c.sampler(q, SampleMode::WithoutReplacement);
            let first = s.next_sample(&mut rng).unwrap();
            *counts.entry(first.id).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 100);
        let expected = trials as f64 / 100.0;
        let chi: f64 = counts
            .values()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 99 dof, p = 0.001 critical ≈ 148.2.
        assert!(chi < 148.2, "chi² = {chi}");
    }

    #[test]
    fn critical_path_shrinks_with_more_shards() {
        // The same sampling workload spreads across shards: max-per-shard
        // I/O (the parallel latency) must drop as the cluster grows.
        let items = grid_items(40_000);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(99.0, 200.0));
        let mut rng = StdRng::seed_from_u64(3);
        let mut max_reads = Vec::new();
        for shards in [1usize, 4, 16] {
            let mut c =
                DistributedRsTree::bulk_load(items.clone(), shards, RsTreeConfig::with_fanout(16));
            c.reset_io();
            let mut s = c.sampler(q, SampleMode::WithoutReplacement);
            s.draw(2_000, &mut rng);
            drop(s);
            max_reads.push(c.max_shard_reads());
        }
        assert!(
            max_reads[2] < max_reads[0],
            "critical path did not shrink: {max_reads:?}"
        );
    }

    #[test]
    fn updates_route_to_the_right_shard_and_stay_correct() {
        let mut c = cluster(2_000, 4);
        let mut rng = StdRng::seed_from_u64(4);
        // Insert a cluster of new points at off-grid coordinates so the
        // probe rectangle below contains only them.
        for j in 0..100u64 {
            c.insert(Item::new(Item2_xy(j), 10_000 + j), &mut rng);
        }
        assert_eq!(c.len(), 2_100);
        let q = Rect2::from_corners(Point2::xy(50.01, 9.9), Point2::xy(50.99, 10.1));
        assert_eq!(c.exact_count(&q), 100);
        // Remove half of them again.
        for j in 0..50u64 {
            let p = Item2_xy(j);
            assert!(c.remove(&p, 10_000 + j, &mut rng), "lost insert {j}");
        }
        assert_eq!(c.exact_count(&q), 50);
        // Stream over the region is exact.
        let mut s = c.sampler(q, SampleMode::WithoutReplacement);
        let mut n = 0;
        while s.next_sample(&mut rng).is_some() {
            n += 1;
        }
        assert_eq!(n, 50);
    }

    #[test]
    fn single_shard_cluster_degenerates_to_plain_rs() {
        let mut c = cluster(1_000, 1);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(20.0, 5.0));
        let expected = c.exact_count(&q);
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = c.sampler(q, SampleMode::WithoutReplacement);
        assert_eq!(s.draw(10_000, &mut rng).len(), expected);
    }

    #[test]
    fn with_replacement_streams_do_not_exhaust() {
        let mut c = cluster(1_000, 3);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(50.0, 9.0));
        let mut rng = StdRng::seed_from_u64(6);
        let mut s = c.sampler(q, SampleMode::WithReplacement);
        for _ in 0..3_000 {
            let item = s.next_sample(&mut rng).unwrap();
            assert!(q.contains_point(&item.point));
        }
    }

    #[test]
    fn empty_query_yields_empty_stream() {
        let mut c = cluster(500, 4);
        let q = Rect2::from_corners(Point2::xy(900.0, 900.0), Point2::xy(901.0, 901.0));
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = c.sampler(q, SampleMode::WithoutReplacement);
        assert!(s.next_sample(&mut rng).is_none());
        assert_eq!(s.result_size(), Some(0));
    }
}
