//! Frozen sampling kernels: alias descents and arena-range draws over the
//! read-optimized [`FrozenRTree`] layout.
//!
//! The boxed samplers ([`crate::RsSampler`], [`crate::LsSampler`]) pay
//! per-draw constant factors that have nothing to do with the paper's
//! I/O bounds: `Vec<Node>` pointer chasing, `HashMap<NodeId, Vec<Item>>`
//! buffer lookups, and `HashSet<u64>` seen-filters. The frozen kernels
//! exploit the implicit layout's core property — **a canonical node is a
//! contiguous arena range** — to replace all of that with arithmetic:
//!
//! * **without replacement** — each canonical part keeps a dense
//!   `Vec<u32>` permutation of its arena offsets, consumed by lazy
//!   partial Fisher–Yates: one `random_range`, one swap, one read per
//!   sample, with *structural* distinctness (the parts partition `R_Q`,
//!   so no `HashSet` dedup is ever needed). Part selection keeps the
//!   boxed stream's exact static-selector + dynamic-thinning
//!   bookkeeping, so the two streams are distribution-identical.
//! * **with replacement** — a part is drawn by the shared alias
//!   selector, then a root-to-leaf **alias descent**
//!   ([`FrozenRsTree::descend`]) resolves it to an item: at each inner
//!   node the child is chosen in O(1) from a per-node precomputed alias
//!   table (only "ragged" right-spine nodes need one; every other node's
//!   children are count-equal and use a bare `random_range`).
//!
//! I/O accounting: opening a stream charges the cone walk; draws are
//! charged at arena-block granularity — one read per `fanout` samples —
//! which is the `O(k/B)` cost the paper proves for buffered sampling.

use std::sync::Arc;

use rand::{Rng, RngExt};
use storm_geo::Rect;
use storm_rtree::{FrozenCone, FrozenConeEntry, FrozenRTree, Item};

use crate::rs_tree::RsTree;
use crate::weighted::{SelectorKind, WeightedSelector};
use crate::{SampleMode, SamplerKind, SpatialSampler};

/// A frozen RS-tree: the SoA arena plus per-node alias tables for O(1)
/// weighted child choice during sampling descents.
///
/// Produced by [`RsTree::freeze`]. The frozen form is immutable and
/// shareable (`Arc`); samplers opened from it never borrow the tree
/// mutably, so any number of concurrent streams can run over one index.
#[derive(Debug)]
pub struct FrozenRsTree<const D: usize> {
    tree: Arc<FrozenRTree<D>>,
    /// Flat node-indexed alias tables (`level_base[l] + i`). `Some` only
    /// for nodes whose children cover unequal arena ranges — the right
    /// spine; every other node's children are count-equal and descend
    /// with a bare uniform pick.
    alias: Vec<Option<WeightedSelector>>,
    /// Start of each level's run in `alias`.
    level_base: Vec<usize>,
}

impl<const D: usize> FrozenRsTree<D> {
    /// Wraps a frozen arena, precomputing the descent alias tables.
    pub fn new(tree: FrozenRTree<D>) -> Self {
        let tree = Arc::new(tree);
        let mut level_base = Vec::with_capacity(tree.height());
        let mut alias: Vec<Option<WeightedSelector>> = Vec::with_capacity(tree.node_count());
        for level in 0..tree.height() {
            level_base.push(alias.len());
            for idx in 0..tree.nodes_at(level) {
                if level == 0 {
                    // Leaves resolve by a direct range draw.
                    alias.push(None);
                    continue;
                }
                let kids = tree.children(level, idx);
                let weights: Vec<u64> = kids
                    .map(|c| {
                        let (lo, hi) = tree.node_range(level - 1, c);
                        (hi - lo) as u64
                    })
                    // storm-analyzer: allow(A4): freeze-time construction, once per ragged node per snapshot — not per-draw work
                    .collect();
                let ragged = weights.windows(2).any(|w| w[0] != w[1]);
                alias.push(if ragged {
                    WeightedSelector::new(weights, SelectorKind::Alias)
                } else {
                    None
                });
            }
        }
        FrozenRsTree {
            tree,
            alias,
            level_base,
        }
    }

    /// The underlying frozen arena.
    pub fn tree(&self) -> &FrozenRTree<D> {
        &self.tree
    }

    /// Number of data points.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Number of nodes carrying a materialised alias table.
    pub fn alias_nodes(&self) -> usize {
        self.alias.iter().filter(|a| a.is_some()).count()
    }

    /// Exact `|P ∩ Q|` from the implicit counts.
    pub fn exact_count(&self, query: &Rect<D>) -> usize {
        self.tree.count_in(query)
    }

    /// Uniform draw of an arena index from the subtree rooted at
    /// level-`level` node `idx`, by top-down descent: each inner step is
    /// an O(1) alias pick (or a bare uniform pick where children are
    /// count-equal), the leaf step is a range draw.
    pub fn descend(&self, level: usize, idx: usize, rng: &mut dyn Rng) -> usize {
        let rng = &mut *rng;
        let (mut level, mut idx) = (level, idx);
        while level > 0 {
            let kids = self.tree.children(level, idx);
            let child = match &self.alias[self.level_base[level] + idx] {
                Some(sel) => sel.pick(rng),
                None => rng.random_range(0..kids.len()),
            };
            idx = kids.start + child;
            level -= 1;
        }
        let (lo, hi) = self.tree.node_range(0, idx);
        lo + rng.random_range(0..hi - lo)
    }

    /// Opens a sampling stream for `query` over the frozen layout.
    ///
    /// Unlike [`RsTree::sampler`], this takes `&Arc<Self>` — the stream
    /// owns a handle instead of a mutable borrow, because frozen draws
    /// consume no shared state.
    pub fn sampler(self: &Arc<Self>, query: &Rect<D>, mode: SampleMode) -> FrozenSampler<D> {
        let cone = self.tree.cone(query);
        FrozenSampler::new(Arc::clone(self), cone, mode)
    }
}

impl<const D: usize> RsTree<D> {
    /// Snapshots this RS-tree into its read-optimized frozen form.
    ///
    /// The frozen kernel replaces the sample buffers entirely: where the
    /// boxed stream pops `HashMap<NodeId, Vec<Item>>` buffers refilled by
    /// descent, the frozen stream draws straight from arena ranges, so
    /// there is nothing to replenish and no mutable state to share.
    pub fn freeze(&self) -> FrozenRsTree<D> {
        FrozenRsTree::new(self.tree.freeze())
    }
}

/// The RS-tree's frozen online sample stream for one query.
///
/// Holds an `Arc` of the frozen index (no lifetime ties), the query's
/// cone as arena ranges, and — for without-replacement streams — one
/// dense `u32` permutation per part, lazily materialised on first touch.
#[derive(Debug)]
pub struct FrozenSampler<const D: usize> {
    rs: Arc<FrozenRsTree<D>>,
    mode: SampleMode,
    /// Fully-contained canonical nodes (arena ranges).
    parts: Vec<FrozenConeEntry>,
    /// Qualifying items of cut leaves, as one aggregated part (arena
    /// indices; doubles as that part's Fisher–Yates permutation).
    singles: Vec<u32>,
    /// Part selector over `parts` weights (+ the singles part last, when
    /// non-empty).
    selector: Option<WeightedSelector>,
    /// Unemitted points per part (without-replacement only).
    remaining: Vec<u64>,
    total_remaining: u64,
    total: usize,
    /// Per-node-part local-offset permutations (without-replacement
    /// only), lazily filled: `parts[i]`'s entries are offsets into its
    /// arena range. Dense `Vec<u32>` — the frozen replacement for the
    /// boxed path's `HashMap` buffers and `HashSet` seen-filter.
    perms: Vec<Vec<u32>>,
    /// Draws since the last charged arena-block read (sequential path).
    draws_since_read: usize,
}

impl<const D: usize> FrozenSampler<D> {
    fn new(rs: Arc<FrozenRsTree<D>>, cone: FrozenCone, mode: SampleMode) -> Self {
        let FrozenCone {
            nodes,
            singles,
            total,
        } = cone;
        let mut weights: Vec<u64> = nodes.iter().map(|e| (e.hi - e.lo) as u64).collect();
        let singles: Vec<u32> = singles
            .into_iter()
            // storm-lint: allow(R1): FrozenRTree::build asserts the arena holds ≤ u32::MAX items, so every index fits
            .map(|i| u32::try_from(i).expect("frozen arena bounded to u32 indices"))
            .collect();
        if !singles.is_empty() {
            weights.push(singles.len() as u64);
        }
        let selector = WeightedSelector::new(weights, SelectorKind::Alias);
        let remaining = match (mode, &selector) {
            (SampleMode::WithoutReplacement, Some(s)) => s.weights().to_vec(),
            _ => Vec::new(),
        };
        let perms = match mode {
            SampleMode::WithoutReplacement => vec![Vec::new(); nodes.len()],
            SampleMode::WithReplacement => Vec::new(),
        };
        FrozenSampler {
            rs,
            mode,
            parts: nodes,
            singles,
            selector,
            remaining,
            total_remaining: total as u64,
            total,
            perms,
            draws_since_read: 0,
        }
    }

    /// One with-replacement draw: part ∝ count by the alias selector,
    /// then an alias descent (node part) or uniform pick (singles part).
    fn draw_wr(&mut self, rng: &mut dyn Rng) -> Option<usize> {
        let selector = self.selector.as_ref()?;
        let rng = &mut *rng;
        let i = selector.pick(rng);
        match self.parts.get(i) {
            Some(e) => Some(self.rs.descend(e.level, e.idx, rng)),
            None => {
                let j = rng.random_range(0..self.singles.len());
                Some(self.singles[j] as usize)
            }
        }
    }

    /// One without-replacement draw: the boxed stream's exact
    /// static-selector + dynamic-thinning part bookkeeping, resolved by
    /// a partial Fisher–Yates pop over the part's dense permutation.
    fn draw_wor(&mut self, rng: &mut dyn Rng) -> Option<usize> {
        let selector = self.selector.as_ref()?;
        let rng = &mut *rng;
        let mut spins = 0u64;
        loop {
            spins += 1;
            assert!(
                spins <= 100_000_000,
                "frozen WOR sampling failed to make progress \
                 (remaining {} of {}; {} parts)",
                self.total_remaining,
                self.total,
                self.parts.len() + usize::from(!self.singles.is_empty())
            );
            if self.total_remaining == 0 {
                return None;
            }
            let i = selector.pick(rng);
            // Dynamic thinning: the static selector draws ∝ the original
            // count; accepting with probability remaining/original makes
            // the effective weight the remaining count (uniformity over
            // the unseen points, exactly as in the boxed stream).
            let original = selector.weight(i);
            let rem = self.remaining[i];
            if rem == 0 {
                continue;
            }
            if rem < original && rng.random_range(0..original) >= rem {
                continue;
            }
            let left = rem as usize;
            let arena = match self.parts.get(i) {
                Some(e) => {
                    let perm = &mut self.perms[i];
                    if perm.is_empty() {
                        // storm-lint: allow(R1): FrozenRTree::build asserts the arena holds ≤ u32::MAX items, so every range fits
                        let len = u32::try_from(e.hi - e.lo).expect("fits u32");
                        perm.extend(0..len);
                    }
                    let j = rng.random_range(0..left);
                    perm.swap(j, left - 1);
                    e.lo + perm[left - 1] as usize
                }
                None => {
                    let j = rng.random_range(0..left);
                    self.singles.swap(j, left - 1);
                    self.singles[left - 1] as usize
                }
            };
            self.remaining[i] -= 1;
            self.total_remaining -= 1;
            return Some(arena);
        }
    }

    fn draw_arena(&mut self, rng: &mut dyn Rng) -> Option<usize> {
        match self.mode {
            SampleMode::WithReplacement => self.draw_wr(rng),
            SampleMode::WithoutReplacement => self.draw_wor(rng),
        }
    }
}

impl<const D: usize> SpatialSampler<D> for FrozenSampler<D> {
    fn next_sample(&mut self, rng: &mut dyn Rng) -> Option<Item<D>> {
        let arena = self.draw_arena(rng)?;
        // Arena-block accounting: one read buys a block of `fanout`
        // consecutive draws (the O(k/B) amortisation the boxed buffers
        // realise with explicit refills).
        if self.draws_since_read == 0 {
            self.rs.tree.io().record_reads(1);
        }
        self.draws_since_read += 1;
        if self.draws_since_read >= self.rs.tree.fanout() {
            self.draws_since_read = 0;
        }
        Some(self.rs.tree.item(arena))
    }

    /// Batched draw: the tight-loop kernel. Emits the *identical* sample
    /// sequence as `k × next_sample` (both spend the RNG the same way);
    /// the win is one amortised I/O charge per block and no per-call
    /// state to re-establish.
    fn next_batch(&mut self, rng: &mut dyn Rng, buf: &mut Vec<Item<D>>, k: usize) -> usize {
        let before = buf.len();
        buf.reserve(k);
        for _ in 0..k {
            let Some(arena) = self.draw_arena(rng) else {
                break;
            };
            buf.push(self.rs.tree.item(arena));
        }
        let got = buf.len() - before;
        if got > 0 {
            let fanout = self.rs.tree.fanout();
            // Continue the sequential path's block ledger so interleaved
            // next_sample/next_batch calls charge consistently.
            let first = fanout - self.draws_since_read;
            let blocks = if got <= first {
                u64::from(self.draws_since_read == 0)
            } else {
                u64::from(self.draws_since_read == 0) + ((got - first).div_ceil(fanout) as u64)
            };
            self.rs.tree.io().record_reads(blocks.max(1));
            self.draws_since_read = (self.draws_since_read + got) % fanout;
        }
        got
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
    use crate::rs_tree::RsTreeConfig;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::{HashMap, HashSet};
    use storm_geo::{Point2, Rect2};

    fn grid_items(n: usize) -> Vec<Item<2>> {
        (0..n)
            .map(|i| Item::new(Point2::xy((i % 100) as f64, (i / 100) as f64), i as u64))
            .collect()
    }

    fn rs(n: usize) -> RsTree<2> {
        RsTree::bulk_load(grid_items(n), RsTreeConfig::with_fanout(16))
    }

    #[test]
    fn frozen_query_matches_boxed_query() {
        let t = rs(3000);
        let f = t.freeze();
        for (a, b, c, d) in [
            (10.0, 5.0, 60.0, 25.0),
            (0.0, 0.0, 99.0, 29.0),
            (47.5, 12.5, 48.5, 13.5),
        ] {
            let q = Rect2::from_corners(Point2::xy(a, b), Point2::xy(c, d));
            let mut boxed: Vec<u64> = t.tree().query(&q).iter().map(|i| i.id).collect();
            let mut froz: Vec<u64> = f.tree().query(&q).iter().map(|i| i.id).collect();
            boxed.sort_unstable();
            froz.sort_unstable();
            assert_eq!(boxed, froz);
        }
    }

    #[test]
    fn wor_stream_is_a_permutation_at_three_seeds() {
        let t = rs(3000);
        let f = Arc::new(t.freeze());
        let q = Rect2::from_corners(Point2::xy(7.0, 3.0), Point2::xy(55.0, 21.0));
        let expected: HashSet<u64> = t.tree().query(&q).iter().map(|i| i.id).collect();
        for seed in [1u64, 77, 4242] {
            let mut s = f.sampler(&q, SampleMode::WithoutReplacement);
            assert_eq!(s.result_size(), Some(expected.len()));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut got = HashSet::new();
            while let Some(item) = s.next_sample(&mut rng) {
                assert!(q.contains_point(&item.point));
                assert!(got.insert(item.id), "seed {seed}: duplicate {}", item.id);
            }
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn batched_stream_equals_sequential_stream() {
        // The frozen batch kernel consumes the RNG exactly like the
        // sequential path, so the emitted sequences must be identical.
        let t = rs(2000);
        let f = Arc::new(t.freeze());
        let q = Rect2::from_corners(Point2::xy(3.0, 2.0), Point2::xy(71.0, 17.0));
        for mode in [SampleMode::WithoutReplacement, SampleMode::WithReplacement] {
            let mut seq = Vec::new();
            let mut s1 = f.sampler(&q, mode);
            let mut rng1 = StdRng::seed_from_u64(9);
            for _ in 0..500 {
                match s1.next_sample(&mut rng1) {
                    Some(item) => seq.push(item.id),
                    None => break,
                }
            }
            let mut s2 = f.sampler(&q, mode);
            let mut rng2 = StdRng::seed_from_u64(9);
            let mut buf = Vec::new();
            while buf.len() < seq.len() {
                let want = 64.min(seq.len() - buf.len());
                if s2.next_batch(&mut rng2, &mut buf, want) == 0 {
                    break;
                }
            }
            let batched: Vec<u64> = buf.iter().map(|i| i.id).collect();
            assert_eq!(seq, batched, "{mode:?}");
        }
    }

    #[test]
    fn materialisation_order_is_seed_deterministic() {
        // Same seed ⇒ same emitted order, run to run (the dense-perm
        // replacement for the HashMap buffer path must not depend on
        // allocation or hash order).
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(40.0, 18.0));
        let runs: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let t = rs(2500);
                let f = Arc::new(t.freeze());
                let mut s = f.sampler(&q, SampleMode::WithoutReplacement);
                let mut rng = StdRng::seed_from_u64(1234);
                let mut out = Vec::new();
                while let Some(item) = s.next_sample(&mut rng) {
                    out.push(item.id);
                }
                out
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert!(!runs[0].is_empty());
    }

    #[test]
    fn alias_descent_agrees_with_range_draw() {
        // The WR path resolves node parts by alias descent; a uniform
        // range draw is the ground truth. Chi-square both against each
        // other over the root's subtree.
        let t = rs(1777); // non-power size ⇒ ragged right spine ⇒ alias tables
        let f = Arc::new(t.freeze());
        assert!(
            f.alias_nodes() > 0,
            "ragged tree should materialise alias tables"
        );
        let root_level = f.tree().height() - 1;
        let mut rng = StdRng::seed_from_u64(5);
        let n = f.len();
        let draws = 50 * n;
        let mut descent_counts = vec![0u64; n];
        for _ in 0..draws {
            descent_counts[f.descend(root_level, 0, &mut rng)] += 1;
        }
        storm_testkit::assert_uniform(&descent_counts, "alias descent over root");
    }

    #[test]
    fn frozen_wor_first_sample_matches_boxed_distribution() {
        // Chi-square agreement: the frozen stream's first emitted sample
        // across many fresh streams is uniform over P∩Q, exactly like the
        // boxed sampler's (tested in rs_tree.rs). Three seeds.
        let items = grid_items(400);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(19.0, 1.0));
        let t = RsTree::bulk_load(items, RsTreeConfig::with_fanout(8));
        let f = Arc::new(t.freeze());
        let q_size = 40usize;
        for seed in [4u64, 40, 400] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut counts: HashMap<u64, u64> = HashMap::new();
            let trials = 20_000;
            for _ in 0..trials {
                let mut s = f.sampler(&q, SampleMode::WithoutReplacement);
                let item = s.next_sample(&mut rng).unwrap();
                *counts.entry(item.id).or_insert(0) += 1;
            }
            assert_eq!(counts.len(), q_size);
            let mut tallies: Vec<u64> = counts.values().copied().collect();
            tallies.sort_unstable();
            storm_testkit::assert_uniform(&tallies, "frozen first WOR sample");
        }
    }

    #[test]
    fn frozen_wr_draws_are_uniform() {
        let items = grid_items(400);
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(19.0, 1.0));
        let t = RsTree::bulk_load(items, RsTreeConfig::with_fanout(8));
        let f = Arc::new(t.freeze());
        let mut rng = StdRng::seed_from_u64(21);
        let mut s = f.sampler(&q, SampleMode::WithReplacement);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let mut buf = Vec::new();
        let trials = 20_000usize;
        let mut drawn = 0usize;
        while drawn < trials {
            buf.clear();
            assert!(s.next_batch(&mut rng, &mut buf, 128.min(trials - drawn)) > 0);
            for item in &buf {
                *counts.entry(item.id).or_insert(0) += 1;
            }
            drawn += buf.len();
        }
        assert_eq!(counts.len(), 40);
        let tallies: Vec<u64> = counts.values().copied().collect();
        storm_testkit::assert_uniform(&tallies, "frozen WR draws");
    }

    #[test]
    fn empty_query_returns_none() {
        let t = rs(500);
        let f = Arc::new(t.freeze());
        let q = Rect2::from_corners(Point2::xy(1e6, 1e6), Point2::xy(1e6 + 1.0, 1e6 + 1.0));
        let mut s = f.sampler(&q, SampleMode::WithoutReplacement);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(s.next_sample(&mut rng).is_none());
        assert_eq!(s.result_size(), Some(0));
    }

    #[test]
    fn frozen_draws_cost_block_granular_io() {
        let t = rs(50_000);
        let f = Arc::new(t.freeze());
        let q = Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(99.0, 300.0));
        let mut rng = StdRng::seed_from_u64(6);
        let mut s = f.sampler(&q, SampleMode::WithoutReplacement);
        f.tree().io().reset();
        let mut buf = Vec::new();
        s.next_batch(&mut rng, &mut buf, 1024);
        assert_eq!(buf.len(), 1024);
        let reads = f.tree().io().reads();
        // 1024 draws at fanout 16 ⇒ 64 blocks; allow the open/ledger
        // rounding but demand true sub-linear accounting.
        assert!(reads <= 70, "batched frozen draws cost {reads} reads");
        assert!(reads >= 64, "block ledger under-charges ({reads} reads)");
    }
}
