//! The LS-tree: spatial online sampling by **level sampling**.

use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::Rng;
use storm_geo::Rect;
use storm_rtree::{BulkMethod, IoStats, Item, RTree, RTreeConfig};

use crate::{mix64, SamplerKind, SpatialSampler};

/// The LS-tree of paper §3.1: independently sample elements from `P_i` with
/// probability ½ to create `P_{i+1}`, stop when the last `P_ℓ` is small
/// enough (`ℓ = O(log N)` in expectation), and build an R-tree `T_i` for
/// each `P_i` (`P_0 = P`). The sizes form a geometric series, so the total
/// index size is still `O(N)`.
///
/// A query runs ordinary range reports on `T_ℓ, T_{ℓ−1}, …`: each tree's
/// result is a probability-`(1/2^i)` coin-flip sample of `P ∩ Q`, which is
/// randomly permuted and streamed; when a level is exhausted the sampler
/// moves down one tree. Because `P_j ⊆ P_i` for `j > i`, points seen at
/// higher levels are skipped (membership is decided by a deterministic hash
/// of the record id, so no bookkeeping set is needed).
///
/// Level membership by hash also makes ad-hoc updates cheap: an insert or
/// delete touches exactly the trees `T_0 ..= T_{ℓ(e)}`.
#[derive(Debug)]
pub struct LsTree<const D: usize> {
    /// `levels[i]` indexes `P_i`.
    pub(crate) levels: Vec<RTree<D>>,
    cfg: RTreeConfig,
    io: Arc<IoStats>,
    pub(crate) salt: u64,
    /// Mutation counter driving the sampled debug audit cadence.
    #[cfg(debug_assertions)]
    audit_ops: u64,
}

/// Hard cap on the number of levels (a 2^48-point data set is beyond us).
const MAX_LEVELS: usize = 48;

/// Converts a level index into the `u32` domain of [`level_of`]. Level
/// indices never exceed [`MAX_LEVELS`], so the conversion saturates rather
/// than truncates on (impossible) overflow.
fn level_u32(level: usize) -> u32 {
    u32::try_from(level).unwrap_or(u32::MAX)
}

impl<const D: usize> LsTree<D> {
    /// Bulk loads the level forest from `items`.
    ///
    /// `salt` seeds the hash that assigns levels; two LS-trees built with
    /// the same salt sample identically (useful for reproducible tests).
    pub fn bulk_load(items: Vec<Item<D>>, cfg: RTreeConfig, salt: u64) -> Self {
        let io = IoStats::shared();
        let n = items.len();
        let num_levels = Self::desired_levels(n, &cfg);
        let mut levels = Vec::with_capacity(num_levels);
        for i in 1..num_levels {
            let subset: Vec<Item<D>> = items
                .iter()
                .filter(|it| level_of(it.id, salt) >= level_u32(i))
                .copied()
                .collect();
            levels.push(RTree::bulk_load_with_io(
                subset,
                cfg,
                BulkMethod::Str,
                Arc::clone(&io),
            ));
        }
        // Level 0 holds all of `items`; building it last lets the vector
        // move in without a clone.
        levels.insert(
            0,
            RTree::bulk_load_with_io(items, cfg, BulkMethod::Str, Arc::clone(&io)),
        );
        LsTree {
            levels,
            cfg,
            io,
            salt,
            #[cfg(debug_assertions)]
            audit_ops: 0,
        }
    }

    /// Debug-build audit: re-validates the whole forest after a mutation
    /// (every mutation while small, sampled once the forest grows — see
    /// [`crate::validate`]). Release builds compile this to nothing.
    #[inline]
    fn debug_audit(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.audit_ops = self.audit_ops.wrapping_add(1);
            if self.len() <= crate::validate::AUDIT_EVERY_OP_LIMIT
                || self
                    .audit_ops
                    .is_multiple_of(crate::validate::AUDIT_SAMPLE_PERIOD)
            {
                debug_assert_eq!(
                    crate::validate::check_ls_tree(self),
                    Ok(()),
                    "LS-tree invariant audit failed after mutation {}",
                    self.audit_ops
                );
            }
        }
    }

    /// `1 + log2(N/B)` levels, so the top tree holds about one block.
    fn desired_levels(n: usize, cfg: &RTreeConfig) -> usize {
        let mut levels = 1usize;
        let mut size = n;
        while size > cfg.max_entries && levels < MAX_LEVELS {
            size /= 2;
            levels += 1;
        }
        levels
    }

    /// Number of data points (in `P_0`).
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// True when the base set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of level trees currently maintained.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total entries across all level trees (`O(N)` by the geometric-series
    /// argument; in expectation `< 2N`).
    pub fn total_entries(&self) -> usize {
        self.levels.iter().map(RTree::len).sum()
    }

    /// The forest-wide simulated-I/O counter.
    pub fn io(&self) -> &IoStats {
        &self.io
    }

    /// A shared handle to the I/O counter.
    pub fn io_handle(&self) -> Arc<IoStats> {
        Arc::clone(&self.io)
    }

    /// The level tree at `i` (level 0 indexes everything).
    pub fn level(&self, i: usize) -> &RTree<D> {
        &self.levels[i]
    }

    /// Exact `|P ∩ Q|`, from the base tree's aggregate counts.
    pub fn exact_count(&self, query: &Rect<D>) -> usize {
        self.levels[0].count_in(query)
    }

    /// Inserts an item into every tree whose level it belongs to, growing
    /// the forest when the data has doubled enough to warrant a new top.
    pub fn insert(&mut self, item: Item<D>) {
        let lvl = level_of(item.id, self.salt);
        for i in 0..self.levels.len().min(lvl as usize + 1) {
            self.levels[i].insert(item);
        }
        self.maybe_resize();
        self.debug_audit();
    }

    /// Removes an item from every tree containing it. Returns `false` when
    /// the item was absent from the base tree.
    pub fn remove(&mut self, point: &storm_geo::Point<D>, id: u64) -> bool {
        let lvl = level_of(id, self.salt);
        let mut found = false;
        for i in 0..self.levels.len().min(lvl as usize + 1) {
            let removed = self.levels[i].remove(point, id);
            if i == 0 {
                found = removed;
                if !found {
                    return false;
                }
            }
        }
        self.maybe_resize();
        self.debug_audit();
        found
    }

    /// Grows or shrinks the forest to track `desired_levels(len)`.
    fn maybe_resize(&mut self) {
        let desired = Self::desired_levels(self.len(), &self.cfg);
        while self.levels.len() < desired {
            let next = self.levels.len();
            let Some(top) = self.levels.last() else {
                break;
            };
            let subset: Vec<Item<D>> = top
                .items()
                .into_iter()
                .filter(|it| level_of(it.id, self.salt) >= level_u32(next))
                // storm-analyzer: allow(A4): insert-time structural resize, amortized O(1) per insert — not the draw path
                .collect();
            self.levels.push(RTree::bulk_load_with_io(
                subset,
                self.cfg,
                BulkMethod::Str,
                Arc::clone(&self.io),
            ));
        }
        // Hysteresis: only drop a top tree once it is two levels too many,
        // so alternating insert/delete at a boundary does not thrash.
        while self.levels.len() > desired + 1 && self.levels.len() > 1 {
            self.levels.pop();
        }
    }

    /// Opens a sampling stream for `query` (without replacement — the level
    /// permutation stream is inherently WOR, per the paper).
    pub fn sampler(&self, query: Rect<D>) -> LsSampler<'_, D> {
        LsSampler {
            ls: self,
            query,
            next_level: self.levels.len() as isize - 1,
            started: false,
            buffer: Vec::new(),
            pos: 0,
        }
    }
}

/// Level assignment: the number of levels an element survives, i.e. a
/// geometric(½) variable derived deterministically from the record id.
pub(crate) fn level_of(id: u64, salt: u64) -> u32 {
    mix64(id ^ salt).trailing_zeros()
}

/// The LS-tree's online sample stream for one query.
#[derive(Debug)]
pub struct LsSampler<'a, const D: usize> {
    ls: &'a LsTree<D>,
    query: Rect<D>,
    /// The level to scan when the current buffer runs dry.
    next_level: isize,
    started: bool,
    buffer: Vec<Item<D>>,
    pos: usize,
}

impl<const D: usize> LsSampler<'_, D> {
    /// Range-reports the next level down and permutes the fresh points.
    /// The spent buffer's allocation is reused for the new level's report.
    fn descend(&mut self, rng: &mut dyn Rng) -> bool {
        let rng = &mut *rng;
        let ls = self.ls;
        let salt = ls.salt;
        loop {
            if self.next_level < 0 {
                return false;
            }
            let level = self.next_level as usize;
            self.next_level -= 1;
            let top = level + 1 == ls.levels.len();
            self.buffer.clear();
            self.pos = 0;
            let buffer = &mut self.buffer;
            let query = &self.query;
            ls.levels[level].for_each_in(query, |item| {
                // Points that also live in a higher tree were already
                // reported there; membership is recomputable from the id.
                if top || level_of(item.id, salt) == level_u32(level) {
                    buffer.push(*item);
                }
            });
            if self.buffer.is_empty() {
                continue;
            }
            self.buffer.shuffle(rng);
            return true;
        }
    }
}

impl<const D: usize> SpatialSampler<D> for LsSampler<'_, D> {
    /// Copies whole runs of the current level's permutation with
    /// `extend_from_slice`, descending a level only between runs (the
    /// permutation is fixed once shuffled, so the stream does not depend
    /// on the batch sizes).
    fn next_batch(&mut self, rng: &mut dyn Rng, buf: &mut Vec<Item<D>>, k: usize) -> usize {
        let before = buf.len();
        if !self.started {
            self.started = true;
            if !self.descend(rng) {
                return 0;
            }
        }
        while buf.len() - before < k {
            let want = k - (buf.len() - before);
            let avail = self.buffer.len() - self.pos;
            if avail == 0 {
                if !self.descend(rng) {
                    break;
                }
                continue;
            }
            let take = want.min(avail);
            buf.extend_from_slice(&self.buffer[self.pos..self.pos + take]);
            self.pos += take;
        }
        buf.len() - before
    }

    fn kind(&self) -> SamplerKind {
        SamplerKind::LsTree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::HashSet;
    use storm_geo::{Point2, Rect2};

    fn grid_items(n: usize) -> Vec<Item<2>> {
        (0..n)
            .map(|i| Item::new(Point2::xy((i % 100) as f64, (i / 100) as f64), i as u64))
            .collect()
    }

    fn ls(n: usize) -> LsTree<2> {
        LsTree::bulk_load(grid_items(n), RTreeConfig::with_fanout(16), 0xC0FFEE)
    }

    #[test]
    fn forest_size_is_linear() {
        let t = ls(20_000);
        assert!(t.num_levels() > 5);
        let total = t.total_entries();
        assert!(
            total < 20_000 * 5 / 2,
            "forest should be < 2.5N, got {total}"
        );
    }

    #[test]
    fn stream_is_a_permutation_of_the_query_result() {
        let t = ls(5000);
        let q = Rect2::from_corners(Point2::xy(10.0, 5.0), Point2::xy(60.0, 30.0));
        let expected: HashSet<u64> = t.level(0).query(&q).iter().map(|it| it.id).collect();
        let mut s = t.sampler(q);
        let mut rng = StdRng::seed_from_u64(1);
        let mut got = HashSet::new();
        while let Some(item) = s.next_sample(&mut rng) {
            assert!(q.contains_point(&item.point));
            assert!(got.insert(item.id), "duplicate {}", item.id);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_query_returns_none_immediately() {
        let t = ls(1000);
        let q = Rect2::from_corners(Point2::xy(1e5, 1e5), Point2::xy(1e5 + 1.0, 1e5 + 1.0));
        let mut s = t.sampler(q);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(s.next_sample(&mut rng).is_none());
        assert!(s.next_sample(&mut rng).is_none());
    }

    #[test]
    fn small_k_costs_far_less_io_than_full_report() {
        let t = ls(50_000);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(99.0, 400.0));
        // Full report cost on the base tree:
        t.io().reset();
        let q_size = t.level(0).query(&q).len();
        let full_io = t.io().reads();
        assert!(q_size > 10_000);
        // 50 online samples:
        t.io().reset();
        let mut s = t.sampler(q);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            s.next_sample(&mut rng).unwrap();
        }
        let sample_io = t.io().reads();
        assert!(
            sample_io * 4 < full_io,
            "sampling ({sample_io}) should be ≪ full report ({full_io})"
        );
    }

    #[test]
    fn first_samples_come_from_sparse_levels() {
        // The very first sample must not require touching T_0: the top
        // trees are tiny. Indirectly verified through I/O counts.
        let t = ls(50_000);
        let q = Rect2::everything();
        t.io().reset();
        let mut s = t.sampler(q);
        let mut rng = StdRng::seed_from_u64(4);
        s.next_sample(&mut rng).unwrap();
        let io = t.io().reads();
        assert!(io < 50, "first sample cost {io} reads");
    }

    #[test]
    fn updates_are_reflected_in_the_stream() {
        let mut t = ls(2000);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(20.0, 20.0));
        // Remove everything currently in Q.
        let current = t.level(0).query(&q);
        for it in &current {
            assert!(t.remove(&it.point, it.id));
        }
        // Insert 5 fresh points inside Q.
        for j in 0..5u64 {
            t.insert(Item::new(Point2::xy(1.0 + j as f64, 1.0), 1_000_000 + j));
        }
        let mut s = t.sampler(q);
        let mut rng = StdRng::seed_from_u64(5);
        let mut got = HashSet::new();
        while let Some(item) = s.next_sample(&mut rng) {
            got.insert(item.id);
        }
        let expected: HashSet<u64> = (0..5).map(|j| 1_000_000 + j).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn forest_grows_and_shrinks_with_data() {
        let mut t = LsTree::bulk_load(grid_items(64), RTreeConfig::with_fanout(8), 7);
        let initial = t.num_levels();
        for i in 0..4096u64 {
            t.insert(Item::new(
                Point2::xy((i % 64) as f64, (i / 64) as f64),
                100_000 + i,
            ));
        }
        assert!(t.num_levels() > initial, "forest should grow");
        // Level containment: every tree's size is about half its parent's.
        for i in 1..t.num_levels() {
            assert!(t.level(i).len() <= t.level(i - 1).len());
        }
        assert_eq!(t.len(), 64 + 4096);
    }

    #[test]
    fn first_sample_distribution_is_close_to_uniform() {
        // LS returns a coin-flip sample permutation; the FIRST emitted
        // element is uniform over P∩Q by symmetry within the highest
        // non-empty level, and across many rebuilt salts over everything.
        let items = grid_items(64);
        let q = Rect2::everything();
        let mut counts = vec![0usize; 64];
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 8000;
        for salt in 0..trials {
            let t = LsTree::bulk_load(items.clone(), RTreeConfig::with_fanout(8), salt);
            let mut s = t.sampler(q);
            let item = s.next_sample(&mut rng).unwrap();
            counts[item.id as usize] += 1;
        }
        // chi² with 63 dof, p=0.001 critical value ≈ 103.4.
        let expected = trials as f64 / 64.0;
        let chi: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi < 103.4, "chi² = {chi}");
    }
}
