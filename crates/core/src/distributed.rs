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
//!   (shard) owns one curve segment, packed in place into its own
//!   [`FrozenRsTree`];
//! * a query is **scattered**: each shard computes its exact partial count
//!   `q_s` from implicit counts (cheap, `O(r)` per shard);
//! * samples are **gathered** by drawing a shard proportionally to its
//!   remaining count and pulling the next sample from that shard's local
//!   stream. Because shards partition the data, the merged
//!   without-replacement stream is a uniform WOR stream of the global
//!   result — no cross-shard deduplication is needed. There is one
//!   gather, the [`crate::Coordinator`]: in process
//!   ([`DistributedRsTree::sampler`]) it steps the shards on the caller's
//!   thread; threaded ([`DistributedRsTree::into_parallel`]) each shard is
//!   served by its own worker. Under the same seeds both emit the same
//!   stream, id for id.
//!
//! Shards are immutable: a caller with new data partitions it again and
//! hands the new shards to
//! [`ParallelRsCluster::install_epoch`](crate::ParallelRsCluster::install_epoch).
//!
//! Per-shard I/O counters make both cost views measurable: the *sum* is
//! total cluster work, the *maximum* is the critical path (what a user
//! would wait for with perfectly parallel shards).

use std::sync::Arc;

use storm_geo::curve::{HilbertCurve, SpaceFillingCurve};
use storm_geo::{Point2, Rect2};
use storm_rtree::{IoStats, Item};

use crate::rs_tree::RsTreeConfig;
use crate::{Coordinator, FrozenRsTree, ParallelSampler, SampleMode};

/// A simulated cluster: Hilbert-range-partitioned frozen shards.
#[derive(Debug)]
pub struct DistributedRsTree {
    shards: Vec<Arc<FrozenRsTree<2>>>,
}

impl DistributedRsTree {
    /// Partitions `items` into `num_shards` equal-cardinality Hilbert-curve
    /// segments (empty shards included when items are scarce) and packs
    /// each segment in place into a frozen shard with its own I/O counter,
    /// one scoped thread per shard. Of `cfg`, only the fanout
    /// (`cfg.rtree.max_entries`) is read.
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
        let fanout = cfg.rtree.max_entries;
        let empty = std::iter::repeat_with(|| -> &mut [Item<2>] { &mut [] });
        let shards = std::thread::scope(|scope| {
            let builds: Vec<_> = items
                .chunks_mut(per_shard)
                .chain(empty)
                .take(num_shards)
                .map(|chunk| {
                    let io = Arc::new(IoStats::default());
                    scope.spawn(move || FrozenRsTree::build_run(chunk, fanout, io))
                })
                .collect();
            builds
                .into_iter()
                .map(|h| match h.join() {
                    Ok(shard) => Arc::new(shard),
                    // A build has no contained-failure mode: re-raise on
                    // the caller's thread, as a serial loop would have.
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });
        DistributedRsTree { shards }
    }

    /// Number of shards (simulated machines).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total points across the cluster.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when the cluster holds no data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read access to one shard.
    pub fn shard(&self, s: usize) -> &FrozenRsTree<2> {
        &self.shards[s]
    }

    /// Every shard, as the unit the parallel executor holds, swaps and
    /// serves ([`ParallelRsCluster::from_frozen`](crate::ParallelRsCluster::from_frozen),
    /// [`install_epoch`](crate::ParallelRsCluster::install_epoch)).
    pub fn shards(&self) -> Vec<Arc<FrozenRsTree<2>>> {
        self.shards.clone()
    }

    /// Exact `|P ∩ Q|` (scatter the count, gather the sum).
    pub fn exact_count(&self, query: &Rect2) -> usize {
        self.shards.iter().map(|s| s.exact_count(query)).sum()
    }

    /// Total block reads across all shards (cluster work).
    pub fn total_reads(&self) -> u64 {
        self.shards.iter().map(|s| s.tree().io().reads()).sum()
    }

    /// Largest per-shard block-read count (the critical path under
    /// perfectly parallel shards).
    pub fn max_shard_reads(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.tree().io().reads())
            .max()
            .unwrap_or(0)
    }

    /// Resets every shard's I/O counter.
    pub fn reset_io(&self) {
        for s in &self.shards {
            s.tree().io().reset();
        }
    }

    /// Starts one worker thread per shard, returning the parallel
    /// scatter-gather executor.
    pub fn into_parallel(self) -> crate::ParallelRsCluster {
        crate::ParallelRsCluster::from_frozen(self.shards)
    }

    /// Opens an in-process scatter/gather stream for `query`: the
    /// coordinator steps every shard on the caller's thread. Under the
    /// same `seed` and coordinator RNG it emits exactly what
    /// `into_parallel().sampler(query, mode, seed)` emits.
    pub fn sampler(&self, query: Rect2, mode: SampleMode, seed: u64) -> ParallelSampler<'_> {
        ParallelSampler::open(Coordinator::local(self.shards()), 0, query, mode, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rs_tree::RsTree;
    use crate::SpatialSampler;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::HashSet;

    fn grid_items(n: usize) -> Vec<Item<2>> {
        (0..n)
            .map(|i| Item::new(Point2::xy((i % 100) as f64, (i / 100) as f64), i as u64))
            .collect()
    }

    fn cluster(n: usize, shards: usize) -> DistributedRsTree {
        DistributedRsTree::bulk_load(grid_items(n), shards, RsTreeConfig::with_fanout(16))
    }

    /// Each frozen-born shard must be, slot for slot, what the boxed
    /// reference build (`RsTree::bulk_load` then `freeze`) yields for the
    /// same segment, fed in input order: ids, points and every node rect.
    fn assert_shards_match_boxed_freeze(items: &[Item<2>], shards: usize, fanout: usize) {
        let cfg = RsTreeConfig::with_fanout(fanout);
        let c = DistributedRsTree::bulk_load(items.to_vec(), shards, cfg);
        for s in 0..c.num_shards() {
            let born = c.shard(s).tree();
            let ids: HashSet<u64> = (0..born.len()).map(|i| born.id(i)).collect();
            let chunk: Vec<Item<2>> = items
                .iter()
                .filter(|it| ids.contains(&it.id))
                .copied()
                .collect();
            let boxed = RsTree::bulk_load(chunk, cfg).freeze();
            let reference = boxed.tree();
            assert_eq!(born.len(), reference.len(), "shard {s}");
            for i in 0..born.len() {
                assert_eq!(born.id(i), reference.id(i), "shard {s} slot {i}");
                assert_eq!(born.point(i), reference.point(i), "shard {s} slot {i}");
            }
            assert_eq!(born.height(), reference.height(), "shard {s}");
            for level in 0..born.height() {
                for idx in 0..born.nodes_at(level) {
                    assert_eq!(
                        born.node_rect(level, idx),
                        reference.node_rect(level, idx),
                        "shard {s} level {level} node {idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn frozen_born_shards_equal_the_boxed_freeze_on_grid_data() {
        assert_shards_match_boxed_freeze(&grid_items(10_000), 7, 16);
    }

    #[test]
    fn frozen_born_shards_equal_the_boxed_freeze_on_osm_data() {
        let data = storm_workload::osm::generate(20_000, 11);
        assert_shards_match_boxed_freeze(&data.items, 5, 32);
    }

    #[test]
    fn more_shards_than_items_keeps_every_shard() {
        let c = cluster(9, 4);
        assert_eq!(c.num_shards(), 4);
        assert_eq!(c.len(), 9);
        assert_eq!(
            (0..4).map(|s| c.shard(s).len()).collect::<Vec<_>>(),
            vec![3, 3, 3, 0]
        );
        let everything = Rect2::from_corners(Point2::xy(-1.0, -1.0), Point2::xy(100.0, 1.0));
        let mut rng = StdRng::seed_from_u64(8);
        let mut drain = |s: &mut dyn SpatialSampler<2>| {
            assert_eq!(s.result_size(), Some(9));
            let got: HashSet<u64> = s.draw(100, &mut rng).iter().map(|it| it.id).collect();
            assert_eq!(got, (0..9).collect::<HashSet<u64>>());
        };
        drain(&mut c.sampler(everything, SampleMode::WithoutReplacement, 2));
        let p = cluster(9, 4).into_parallel();
        assert_eq!(p.num_shards(), 4);
        drain(&mut p.sampler(everything, SampleMode::WithoutReplacement, 3));
        assert_eq!(p.install_epoch(c.shards()), Ok(1));
        drain(&mut p.sampler(everything, SampleMode::WithoutReplacement, 4));
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
        let c = cluster(5_000, 5);
        let q = Rect2::from_corners(Point2::xy(13.0, 7.0), Point2::xy(61.0, 29.0));
        let expected: HashSet<u64> = grid_items(5_000)
            .iter()
            .filter(|it| q.contains_point(&it.point))
            .map(|it| it.id)
            .collect();
        assert_eq!(c.exact_count(&q), expected.len());
        let mut s = c.sampler(q, SampleMode::WithoutReplacement, 1);
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
        // A stream consumes no shard state, so one build serves every
        // trial; each trial gets its own session seed, or every trial
        // would replay the same shard streams.
        let c = DistributedRsTree::bulk_load(items, 6, RsTreeConfig::with_fanout(8));
        for t in 0..trials {
            let mut s = c.sampler(q, SampleMode::WithoutReplacement, t);
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
            let c =
                DistributedRsTree::bulk_load(items.clone(), shards, RsTreeConfig::with_fanout(16));
            c.reset_io();
            let mut s = c.sampler(q, SampleMode::WithoutReplacement, 3);
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
    fn single_shard_cluster_degenerates_to_plain_rs() {
        let c = cluster(1_000, 1);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(20.0, 5.0));
        let expected = c.exact_count(&q);
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = c.sampler(q, SampleMode::WithoutReplacement, 5);
        assert_eq!(s.draw(10_000, &mut rng).len(), expected);
    }

    #[test]
    fn with_replacement_streams_do_not_exhaust() {
        let c = cluster(1_000, 3);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(50.0, 9.0));
        let mut rng = StdRng::seed_from_u64(6);
        let mut s = c.sampler(q, SampleMode::WithReplacement, 6);
        for _ in 0..3_000 {
            let item = s.next_sample(&mut rng).unwrap();
            assert!(q.contains_point(&item.point));
        }
    }

    #[test]
    fn empty_query_yields_empty_stream() {
        let c = cluster(500, 4);
        let q = Rect2::from_corners(Point2::xy(900.0, 900.0), Point2::xy(901.0, 901.0));
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = c.sampler(q, SampleMode::WithoutReplacement, 7);
        assert!(s.next_sample(&mut rng).is_none());
        assert_eq!(s.result_size(), Some(0));
    }
}
